"""Interaction-picture perturbation series for the two-fermion walk model.

The stepped evolution is free walk times the on-collision phase
exp(+i*chi) per doubly occupied site, so the scattering operator expands
as a power series with the order-n term carrying (i*chi)^n/n! and a sum
over n vertex insertions on the space-time lattice.  (The sign of the
exponent is not a convention that a leg constant could absorb: it
alternates per order, and consistency between orders one and two fixes
it to +i*chi here, matching lam = e^{i*chi} - 1 in the closed forms.)
Expectation values reduce to Wick sums whose elementary contractions
are:

* field with incoming/outgoing mode: an external leg,
  value u^s_a(k) * exp(i(k*x - s*omega(k)*t)) (conjugated for out legs);
* field pair psi(1) psidag(2) written in that order:
  theta(t1-t2) * P(x1-x2, t1-t2) with theta(0) = 1;
* pair psidag(1) psi(2): -(theta(t2-t1) - delta_{t1,t2}) * P(x2-x1, t2-t1).

P(dx, dt) is the band-projector kernel (``retarded_propagator`` in
``tests/oracles.py`` without the gate).  The equal-time delta correction
is what makes same-vertex self-contractions vanish exactly, so vacuum
bubbles and tadpoles never need special-casing.

The pairing enumeration is hard-coded for orders one and two.  Relative
vertex sums are performed in closed form: the spatial sum pins the loop
momenta to a one-dimensional constraint, the time sum is a damped
geometric series summed exactly, and the damping regulator is
extrapolated to zero.  A single overall constant (``LEG_NORM``) absorbs
the external-leg normalization and is pinned once by matching the
first-order elastic coefficient of the closed-form amplitude; the same
constant multiplies every order, so second order is a genuine prediction.
"""

from __future__ import annotations

from itertools import permutations
from math import factorial

import numpy as np

from .errors import DomainError, StationaryPointError, TruncationError
from .lippmann import SHELL_TOL, epsilon_extrapolate
from .spectral import bz_grid, wrap_momentum
from .thirring import (
    STATIONARY_TOL,
    ThirringChannel,
    ThirringParams,
    com_inverse,
)

# Overall external-leg normalization: four legs at every order contribute
# one factor of LEG_NORM to the amplitude.  Pinned by requiring the
# first-order (+,+) elastic coefficient to equal i*chi*(y-x)/(2(x+y));
# reused unchanged at second order.
LEG_NORM = +1.0

# damping regulators of the relative-time sums, extrapolated to zero, and
# the bound on the extrapolation's self-estimate
EPS_SCHEDULE = tuple(0.05 * 0.5 ** j for j in range(6))
TAIL_TOL = 1e-7
DEFAULT_QUAD_N = 32768
# exp(-eps) per regulator, taken from the complex exponential itself:
# exp(i*phi - eps) is this real factor times (cos phi, sin phi), each part
# rounded once, so damp * exp(i*phi) has its bits
_DAMPING = tuple(np.exp(complex(-eps, 0.0)).real.item() for eps in EPS_SCHEDULE)


# ---------------------------------------------------------------------------
# pairing enumeration
# ---------------------------------------------------------------------------

def _crossing_sign(pairs) -> int:
    """Fermionic sign of a pairing: parity of its crossing number."""
    norm = [tuple(sorted(p)) for p in pairs]
    crossings = sum(a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1
                    for i, (a1, b1) in enumerate(norm)
                    for a2, b2 in norm[i + 1:])
    return -1 if crossings % 2 else +1


def _channel_modes(params: ThirringParams, ch: ThirringChannel):
    """Single-particle (k, s, omega, alpha-pair) data of a channel."""
    d = params.dispersion
    k1, k2 = com_inverse(ch.p, ch.k)
    out = []
    for k, s in ((k1, ch.s1), (k2, ch.s2)):
        out.append((k, s, float(s * d.omega(k)), np.array(d.alpha(s, k))))
    return out


def _on_shell(params: ThirringParams, ch_in: ThirringChannel,
              ch_out: ThirringChannel) -> bool:
    dp = wrap_momentum(2.0 * (ch_out.p - ch_in.p))
    dw = wrap_momentum(ch_out.omega - ch_in.omega)
    return abs(float(dp)) <= SHELL_TOL and abs(float(dw)) <= SHELL_TOL


def _out_jacobian(params: ThirringParams, ch: ThirringChannel) -> float:
    d = params.dispersion
    jac = abs(float(ch.s1 * d.omega_prime(ch.p + ch.k)
                    - ch.s2 * d.omega_prime(ch.p - ch.k)))
    if jac < STATIONARY_TOL:
        raise StationaryPointError(
            f"outgoing channel (p, k) = ({ch.p}, {ch.k}) sits on a stationary "
            "point of its band pair: the flux jacobian vanishes"
        )
    return jac


def first_order_amplitude(params: ThirringParams, ch_in: ThirringChannel,
                          ch_out: ThirringChannel) -> complex:
    """Order-chi amplitude: the four single-vertex leg contractions.

    Returns the coefficient in the same flux convention as the closed
    forms (attached to the relative-momentum delta); off-shell channel
    pairs give zero.  For the (+,+) elastic diagonal this evaluates to
    i*chi*(y - x)/(2(x + y)).
    """
    if not _on_shell(params, ch_in, ch_out):
        return 0.0j
    ins = _channel_modes(params, ch_in)
    outs = _channel_modes(params, ch_out)
    # string positions: OUT2 0, OUT1 1, psidag_up 2, psi_up 3,
    # psidag_dn 4, psi_dn 5, IN1 6, IN2 7
    psi_pos = {0: 3, 1: 5}        # component -> position
    psidag_pos = {0: 2, 1: 4}
    in_pos = (6, 7)
    out_pos = (1, 0)
    total = 0.0j
    for in_comps in permutations((0, 1)):
        for out_comps in permutations((0, 1)):
            pairs = []
            amp = 1.0 + 0.0j
            for leg, comp, pos in zip(ins, in_comps, in_pos):
                pairs.append((psi_pos[comp], pos))
                amp *= leg[3][comp]
            for leg, comp, pos in zip(outs, out_comps, out_pos):
                pairs.append((pos, psidag_pos[comp]))
                amp *= leg[3][comp]
            total += _crossing_sign(pairs) * amp
    jac = _out_jacobian(params, ch_out)
    return LEG_NORM * (1j * params.chi) * total / jac


# second-order string positions
_PSI_SLOTS = ((1, 0, 3), (1, 1, 5), (2, 0, 7), (2, 1, 9))      # (vertex, comp, pos)
_PSIDAG_SLOTS = ((1, 0, 2), (1, 1, 4), (2, 0, 6), (2, 1, 8))
_IN_POS = (10, 11)
_OUT_POS = (1, 0)


def _second_order_patterns():
    """The complete pairings of the two-vertex string that contribute.

    External legs are (mode index into ins + outs, component, z) with
    z = +1 / -1 for an in / out leg at vertex 2 and 0 at vertex 1.
    Internal lines join the two vertices (same-vertex contractions vanish
    exactly).  A line has z = +1 when its psi end sits at vertex 2; with
    T = t2 - t1 it carries theta(z*T) when written psi-first and
    -(theta(z*T) - delta_{T,0}) when written psidag-first.  The gate
    product is c_tail on the half-line z*T >= 1, which needs z1 = z2, and
    c_zero at T = 0; pairings where both vanish are dropped here, once for
    every channel.  Entries are (legs, sign, (a1, b1, a2, b2), z1, z2,
    c_tail, c_zero), with a/b the psi/psidag components of the two lines.
    """
    patterns = []
    for in_slots in permutations(range(4), 2):
        for out_slots in permutations(range(4), 2):
            legs, leg_pairs = [], []
            for i, slot in enumerate(in_slots):
                v, comp, pos = _PSI_SLOTS[slot]
                legs.append((i, comp, +1.0 if v == 2 else 0.0))
                leg_pairs.append((pos, _IN_POS[i]))
            for i, slot in enumerate(out_slots):
                v, comp, pos = _PSIDAG_SLOTS[slot]
                legs.append((2 + i, comp, -1.0 if v == 2 else 0.0))
                leg_pairs.append((_OUT_POS[i], pos))
            free_psi = [i for i in range(4) if i not in in_slots]
            free_dag = [i for i in range(4) if i not in out_slots]
            for flip in (False, True):
                match = zip(free_psi, reversed(free_dag) if flip else free_dag)
                lines = [(_PSI_SLOTS[a], _PSIDAG_SLOTS[b]) for a, b in match]
                if any(psi[0] == dag[0] for psi, dag in lines):
                    continue
                pairs = leg_pairs + [(psi[2], dag[2]) for psi, dag in lines]
                (v1, a1, p1), (_, b1, d1) = lines[0]
                (v2, a2, p2), (_, b2, d2) = lines[1]
                z1, z2 = (+1.0 if v == 2 else -1.0 for v in (v1, v2))
                g1 = +1.0 if p1 < d1 else -1.0      # +1: psi written first
                g2 = +1.0 if p2 < d2 else -1.0
                c_tail = g1 * g2 if z1 == z2 else 0.0
                c_zero = 1.0 if g1 > 0 and g2 > 0 else 0.0
                if c_tail or c_zero:
                    patterns.append((tuple(legs), _crossing_sign(pairs),
                                     (a1, b1, a2, b2), z1, z2, c_tail, c_zero))
    return tuple(patterns)


_PATTERNS_ORDER2 = _second_order_patterns()


def _band_alphas(d, q):
    """omega(q) and both bands' eigenvectors {s: d.alpha(s, q)} at q.

    One omega / sin pass serves both bands: g_s = s*sin(omega) + nu*sin(q)
    is Dispersion.g term by term, so every component keeps its bits.  The
    chiral point keeps Dispersion.alpha's canonical-basis branch.
    """
    w = d.omega(q)
    if d.nu == 1.0:
        return w, {s: d.alpha(s, q) for s in (+1, -1)}
    sin_w = np.sin(w)
    nu_sin = d.nu * np.sin(q)
    alphas = {}
    for s in (+1, -1):
        gs = s * sin_w + nu_sin
        norm = np.sqrt(d.mu**2 + gs * gs)
        alphas[s] = (d.mu / norm, gs / norm)
    return w, alphas


def _fold_weights(d, modes, q1):
    """Sum the surviving pairings' static weights sign * leg_amp * u1 * u2.

    Returns the zone mean of the T = 0 weight, the weight of each distinct
    tail (q2 branch, phase constant, s_a, s_b), and omega on each q2 branch.
    A T <= -1 half-line is the T >= 1 tail of the mirrored phase, so both
    regions share one key.  Both sums accumulate in place.  The eigenvector
    arrays are released on return, before the regulator loop allocates its
    temporaries.
    """
    _, alpha1 = _band_alphas(d, q1)
    alpha2 = {}     # q2 branch (z2*k_legs rounded, z1*z2) -> alphas at q2
    omega2 = {}
    tails = {}
    zero = 0.0
    for legs, sign, (a1, b1, a2, b2), z1, z2, c_tail, c_zero in _PATTERNS_ORDER2:
        # static leg factors and the vertex-2 leg momentum and phase
        leg_amp, k_legs, w_legs = 1.0, 0.0, 0.0
        for i, comp, z in legs:
            k, _, w, alpha = modes[i]
            leg_amp *= alpha[comp]
            if z:
                k_legs += z * k
                w_legs += z * w
        branch = (round(z2 * k_legs, 14), z1 * z2)
        if branch not in alpha2:
            q2 = wrap_momentum(z2 * k_legs - z1 * z2 * q1)
            omega2[branch], alpha2[branch] = _band_alphas(d, q2)
        for s_a, al1 in alpha1.items():
            u1 = al1[a1] * al1[b1]
            for s_b, al2 in alpha2[branch].items():
                weight = sign * leg_amp * u1 * (al2[a2] * al2[b2])
                if c_zero:
                    zero += weight
                if c_tail:
                    key = (branch, -z1 * w_legs, s_a, s_b)
                    acc = tails.get(key, 0.0)
                    acc += c_tail * weight
                    tails[key] = acc
    return np.mean(zero), tails, omega2


def second_order_amplitude(params: ThirringParams, ch_in: ThirringChannel,
                           ch_out: ThirringChannel, *,
                           quad_n: int = DEFAULT_QUAD_N) -> complex:
    """Order-chi^2 amplitude from the full two-vertex contraction sum.

    The two internal lines carry loop momenta; the relative-position sum
    pins the second to q2 = z2*k_legs - z1*z2*q1, with k_legs the momentum
    of the external legs at vertex 2, and the relative-time sum
    splits into the T = 0 term and the half-line z*T >= 1, a damped
    geometric series sum_T r^T = r/(1 - r) with r = e^{i*phi - eps} and
    phi = -z*w_legs - w1 - w2.  Each distinct tail takes one complex
    exponential e^{i*phi}; each regulator scales it by the real e^{-eps},
    which gives r the bits of e^{i*phi - eps}, and evaluates r/(1 - r) on
    the tail's folded weight.  The damping eps is extrapolated
    to zero through EPS_SCHEDULE; the integrand develops poles of width
    eps/|slope| in q1, so quad_n must keep n*eps well above the maximal
    band slope for every retained eps.  Raises a truncation error when
    the extrapolation's self-estimate exceeds TAIL_TOL.
    """
    if not _on_shell(params, ch_in, ch_out):
        return 0.0j
    d = params.dispersion
    q1 = bz_grid(quad_n)
    modes = _channel_modes(params, ch_in) + _channel_modes(params, ch_out)
    zero, tails, omega2 = _fold_weights(d, modes, q1)
    omega1 = d.omega(q1)
    totals = np.full(len(EPS_SCHEDULE), zero, dtype=complex)
    for (branch, const, s_a, s_b), weight in tails.items():
        phase = np.exp(1j * (const - s_a * omega1 - s_b * omega2[branch]))
        for i, damp in enumerate(_DAMPING):
            r = damp * phase
            totals[i] += np.mean(weight * (r / (1.0 - r)))

    ext = epsilon_extrapolate(totals, EPS_SCHEDULE)
    if ext.error > TAIL_TOL:
        raise TruncationError(
            f"regulator extrapolation self-estimate {ext.error:.3e} above "
            f"{TAIL_TOL:.1e}; increase quad_n"
        )
    jac = _out_jacobian(params, ch_out)
    pref = LEG_NORM * (1j * params.chi) ** 2 / 2.0
    return complex(pref * ext.value / jac)


def lambda_chi_reconcile(lambda_coeffs, order_n: int) -> np.ndarray:
    """Compose a series in lam = e^{i*chi} - 1 into a series in chi.

    Given coefficients a_m of sum_m a_m lam^m (m = 1..len), returns the
    coefficients b_j of chi^j for j = 1..order_n after substituting
    lam(chi) = sum_{r>=1} (i*chi)^r / r!.
    """
    a = np.asarray(lambda_coeffs, dtype=complex)
    if order_n > a.size:
        raise DomainError(
            f"need lambda coefficients up to order {order_n}, got {a.size}"
        )
    # lam(chi) as a chi-polynomial up to chi^order_n (constant term zero)
    lam_poly = np.zeros(order_n + 1, dtype=complex)
    lam_poly[1:] = [1j ** r / factorial(r) for r in range(1, order_n + 1)]
    result = np.zeros(order_n + 1, dtype=complex)
    power = np.zeros(order_n + 1, dtype=complex)
    power[0] = 1.0
    for m in range(1, a.size + 1):
        # power <- lam_poly^m truncated
        new = np.zeros(order_n + 1, dtype=complex)
        for i in range(order_n + 1):
            new[i:] += power[i] * lam_poly[: order_n - i + 1]
        power = new
        result += a[m - 1] * power
    return result[1:]
