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

P(dx, dt) is the band-projector kernel (``retarded_propagator`` without
the gate).  The equal-time delta correction is what makes same-vertex
self-contractions vanish exactly, so vacuum bubbles and tadpoles never
need special-casing.

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

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import DomainError, StationaryPointError, TruncationError
from .lippmann import SHELL_TOL, epsilon_extrapolate
from .spectral import bz_grid, quadrature_bz, wrap_momentum
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


@dataclass(frozen=True)
class PropagatorEval:
    """Gated band-projector kernel theta(dt) * P(dx, dt) as a 2x2 block."""

    dx: int
    dt: int
    block: np.ndarray


@dataclass(frozen=True)
class DysonTerm:
    """One contraction pattern's contribution at a given order."""

    order: int
    pattern: tuple
    value: complex


def retarded_propagator(params: ThirringParams, dx: int, dt: int,
                        quad_n: int = 2048) -> PropagatorEval:
    """theta(dt) * P(dx, dt), the retarded single-particle kernel.

    P(dx, dt) = (1/2pi) int dk sum_s u^s(k) u^s(k)^T e^{-i(s*omega(k)dt + k*dx)}.
    Vanishes for dt < 0 and outside the unit-speed cone |dx| > |dt|
    (the free step moves at most one site).  P(0, 0) = I by band
    completeness.
    """
    if dt < 0:
        return PropagatorEval(dx=dx, dt=dt, block=np.zeros((2, 2), dtype=complex))
    d = params.dispersion

    def integrand(k):
        w = d.omega(k)
        out = np.zeros((2, 2), dtype=complex)
        for s in (+1, -1):
            a_up, a_dn = d.alpha(s, k)
            u = np.array([a_up, a_dn])
            out += np.outer(u, u) * np.exp(-1j * (s * w * dt + k * dx))
        return out

    block = quadrature_bz(integrand, n=quad_n)
    return PropagatorEval(dx=int(dx), dt=int(dt), block=block)


# ---------------------------------------------------------------------------
# pairing enumeration
# ---------------------------------------------------------------------------

def _crossing_sign(pairs) -> int:
    """Fermionic sign of a pairing: parity of its crossing number."""
    crossings = 0
    norm = [tuple(sorted(p)) for p in pairs]
    for i in range(len(norm)):
        for j in range(i + 1, len(norm)):
            (a1, b1), (a2, b2) = norm[i], norm[j]
            if a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1:
                crossings += 1
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
    """All complete pairings of the two-vertex string with cross-vertex
    internal lines (same-vertex internal contractions vanish exactly)."""
    patterns = []
    for in_slots in permutations(range(4), 2):
        for out_slots in permutations(range(4), 2):
            free_psi = [i for i in range(4) if i not in in_slots]
            free_dag = [i for i in range(4) if i not in out_slots]
            for flip in (False, True):
                match = list(zip(free_psi, reversed(free_dag) if flip
                                 else free_dag))
                if any(_PSI_SLOTS[a][0] == _PSIDAG_SLOTS[b][0]
                       for a, b in match):
                    continue
                pairs = []
                for leg_idx, slot in enumerate(in_slots):
                    pairs.append((_PSI_SLOTS[slot][2], _IN_POS[leg_idx]))
                for leg_idx, slot in enumerate(out_slots):
                    pairs.append((_OUT_POS[leg_idx], _PSIDAG_SLOTS[slot][2]))
                lines = []
                for a, b in match:
                    vp, comp_a, pos_a = _PSI_SLOTS[a]
                    vd, comp_b, pos_b = _PSIDAG_SLOTS[b]
                    pairs.append(tuple(sorted((pos_a, pos_b))))
                    lines.append((vp, comp_a, vd, comp_b, pos_a < pos_b))
                patterns.append((in_slots, out_slots, tuple(lines),
                                 _crossing_sign(pairs)))
    return patterns


_PATTERNS_ORDER2 = _second_order_patterns()


def _geometric_tail(phi, eps):
    """sum_{T>=1} e^{(i*phi - eps)T} in closed form."""
    r = np.exp(1j * phi - eps)
    return r / (1.0 - r)


def second_order_amplitude(params: ThirringParams, ch_in: ThirringChannel,
                           ch_out: ThirringChannel, *,
                           quad_n: int = DEFAULT_QUAD_N) -> complex:
    """Order-chi^2 amplitude from the full two-vertex contraction sum.

    The two internal lines carry loop momenta; the relative-position sum
    pins the second to q2 = +-(K - +-q1) and the relative-time sum is a
    damped geometric series in closed form, split into the T = 0 term
    and the two half-lines.  The damping eps is extrapolated to zero
    through EPS_SCHEDULE; the integrand develops poles of width
    eps/|slope| in q1, so quad_n must keep n*eps well above the maximal
    band slope for every retained eps.  Raises a truncation error when
    the extrapolation's self-estimate exceeds TAIL_TOL.
    """
    if not _on_shell(params, ch_in, ch_out):
        return 0.0j
    d = params.dispersion
    ins = _channel_modes(params, ch_in)
    outs = _channel_modes(params, ch_out)

    q1 = bz_grid(quad_n)
    omega_q1 = {s: s * d.omega(q1) for s in (+1, -1)}
    alpha_q1 = {s: np.stack(d.alpha(s, q1)) for s in (+1, -1)}
    q2_cache: dict = {}

    def q2_data(c0: float, c1: float):
        key = (round(c0, 14), c1)
        if key not in q2_cache:
            q2 = wrap_momentum(c0 - c1 * q1)
            q2_cache[key] = (
                q2,
                {s: s * d.omega(q2) for s in (+1, -1)},
                {s: np.stack(d.alpha(s, q2)) for s in (+1, -1)},
            )
        return q2_cache[key]

    totals = np.zeros(len(EPS_SCHEDULE), dtype=complex)

    for in_slots, out_slots, lines, sign in _PATTERNS_ORDER2:
        # static leg factors and the v2 leg phase coefficients
        leg_amp = 1.0
        k_legs = 0.0
        w_legs = 0.0
        ok = True
        for leg, slot in zip(ins, in_slots):
            v, comp, _ = _PSI_SLOTS[slot]
            leg_amp *= leg[3][comp]
            if v == 2:
                k_legs += leg[0]
                w_legs += leg[2]
        for leg, slot in zip(outs, out_slots):
            v, comp, _ = _PSIDAG_SLOTS[slot]
            leg_amp *= leg[3][comp]
            if v == 2:
                k_legs -= leg[0]
                w_legs -= leg[2]
        if leg_amp == 0.0:
            continue

        (vp1, a1, vd1, b1, left1), (vp2, a2, vd2, b2, left2) = lines
        z1 = +1.0 if vp1 == 2 else -1.0
        z2 = +1.0 if vp2 == 2 else -1.0
        # gate products on the three time regions
        def gates(zeta, left_is_psi):
            g_plus = 1.0 if zeta > 0 else 0.0
            g_minus = 1.0 if zeta < 0 else 0.0
            gz = 1.0
            if not left_is_psi:
                g_plus, g_minus, gz = -g_plus, -g_minus, 0.0
            return g_plus, g_minus, gz

        gp1, gm1, gz1 = gates(z1, left1)
        gp2, gm2, gz2 = gates(z2, left2)
        c_plus = gp1 * gp2
        c_minus = gm1 * gm2
        c_zero = gz1 * gz2
        if c_plus == 0.0 and c_minus == 0.0 and c_zero == 0.0:
            continue

        q2, omega_q2, alpha_q2 = q2_data(z2 * k_legs, z1 * z2)
        for s_a in (+1, -1):
            u1 = alpha_q1[s_a][a1] * alpha_q1[s_a][b1]
            w1 = omega_q1[s_a]
            for s_b in (+1, -1):
                u2 = alpha_q2[s_b][a2] * alpha_q2[s_b][b2]
                w2 = omega_q2[s_b]
                weight = sign * leg_amp * u1 * u2
                phi = -w_legs - z1 * w1 - z2 * w2
                for i, eps in enumerate(EPS_SCHEDULE):
                    acc = np.zeros(quad_n, dtype=complex)
                    if c_zero:
                        acc += c_zero
                    if c_plus:
                        acc += c_plus * _geometric_tail(phi, eps)
                    if c_minus:
                        acc += c_minus * _geometric_tail(-phi, eps)
                    totals[i] += np.mean(weight * acc)

    ext = epsilon_extrapolate(totals, EPS_SCHEDULE)
    if ext.error > TAIL_TOL:
        raise TruncationError(
            f"regulator extrapolation self-estimate {ext.error:.3e} above "
            f"{TAIL_TOL:.1e}; increase quad_n"
        )
    jac = _out_jacobian(params, ch_out)
    pref = LEG_NORM * (1j * params.chi) ** 2 / 2.0
    return complex(pref * ext.value / jac)


def second_order_terms(params: ThirringParams, ch_in: ThirringChannel,
                       ch_out: ThirringChannel) -> list[DysonTerm]:
    """The nonvanishing second-order contraction patterns (for inspection).

    Values are the per-pattern static weights sign * (leg alphas); the
    shared time/momentum machinery of second_order_amplitude is not
    repeated per term.
    """
    ins = _channel_modes(params, ch_in)
    outs = _channel_modes(params, ch_out)
    out = []
    for in_slots, out_slots, lines, sign in _PATTERNS_ORDER2:
        amp = 1.0
        for leg, slot in zip(ins, in_slots):
            amp *= leg[3][_PSI_SLOTS[slot][1]]
        for leg, slot in zip(outs, out_slots):
            amp *= leg[3][_PSIDAG_SLOTS[slot][1]]
        out.append(DysonTerm(order=2, pattern=(in_slots, out_slots, lines),
                             value=complex(sign * amp)))
    return out


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
    fact = 1.0
    for r in range(1, order_n + 1):
        fact *= r
        lam_poly[r] = 1j ** r / fact
    result = np.zeros(order_n + 1, dtype=complex)
    power = np.zeros(order_n + 1, dtype=complex)
    power[0] = 1.0
    for m in range(1, a.size + 1):
        # power <- lam_poly^m truncated
        new = np.zeros(order_n + 1, dtype=complex)
        for i in range(order_n + 1):
            if power[i] == 0.0:
                continue
            jmax = order_n - i
            new[i:] += power[i] * lam_poly[: jmax + 1]
        power = new
        result += a[m - 1] * power
    return result[1:]
