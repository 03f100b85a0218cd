"""Independent reference routes used to pin test expectations.

Everything here is computed differently from the package: high-precision
arithmetic (mpmath at 30 digits), bisection instead of library arccos,
a scan and bisection instead of the closed-form band crossings, dense
matrix powers instead of analytic propagators, explicit mode sums
instead of FFTs, `csv.writer` / one `json.dumps` instead of the
package's column-wise table renderers, dense n x n Trotter operators
instead of the package's factored r x r support form, and direct loops
(one matrix-vector product per point and Born order, one complex
exponential per Dyson regulator) as bitwise twins of the package's
batched kernels.  Test files freeze the resulting
numbers as literals and cite the oracle function that produced them.
The last section holds references no command runs (the walk fiber, zone
quadrature, the retarded kernel, the closed-form T block, and the
single-walker Lippmann-Schwinger route with the packet's forward /
backward split it is checked against), with the arithmetic they had in
the package.
"""

import csv
import functools
import io
import json
import math
import warnings
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from dtscatter import dyson as dy
from dtscatter import thirring as th
from dtscatter import trotter as tr
from dtscatter import wavepacket as wp
from dtscatter.errors import (
    AssumptionViolationError,
    DomainError,
    DtScatterError,
    PoleError,
    ResonancePoleError,
    TruncationError,
)
from dtscatter.spectral import Extrapolation, bz_grid, epsilon_extrapolate, wrap_momentum
from dtscatter.thirring import on_shell_xy, xy_factors

mp.mp.dps = 30


# ---------------------------------------------------------------------------
# dispersion chain, high precision
# ---------------------------------------------------------------------------

def omega_bisect(nu, k, tol=mp.mpf("1e-25")):
    """Solve cos(w) = nu*cos(k) on [0, pi] by bisection (no acos call)."""
    target = mp.mpf(nu) * mp.cos(mp.mpf(k))
    lo, hi = mp.mpf(0), mp.pi
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if mp.cos(mid) > target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def group_velocity(nu, k):
    """d omega / dk = nu sin k / sin omega."""
    w = omega_bisect(nu, k)
    return mp.mpf(nu) * mp.sin(mp.mpf(k)) / mp.sin(w)


def alpha_pair(nu, s, k):
    """Band-s eigenvector components (up, down), unit norm."""
    nu, k = mp.mpf(nu), mp.mpf(k)
    mu = mp.sqrt(1 - nu ** 2)
    g = s * mp.sin(omega_bisect(nu, k)) + nu * mp.sin(k)
    n = mp.sqrt(mu ** 2 + g ** 2)
    return mu / n, g / n


def xy_pair(nu, p, k):
    """Overlap products x = a_up(p+k) a_dn(p-k), y = a_dn(p+k) a_up(p-k)."""
    u1, d1 = alpha_pair(nu, +1, mp.mpf(p) + mp.mpf(k))
    u2, d2 = alpha_pair(nu, +1, mp.mpf(p) - mp.mpf(k))
    return u1 * d2, d1 * u2


def pair_energy(nu, p, k, s1, s2):
    p, k = mp.mpf(p), mp.mpf(k)
    return s1 * omega_bisect(nu, p + k) + s2 * omega_bisect(nu, p - k)


def pair_jacobian(nu, p, k):
    """d(pair energy)/dk for the (+, +) pair = w'(p+k) - w'(p-k)."""
    p, k = mp.mpf(p), mp.mpf(k)
    return group_velocity(nu, p + k) - group_velocity(nu, p - k)


# ---------------------------------------------------------------------------
# closed-form collision amplitude and its series
# ---------------------------------------------------------------------------

def closed_coefficient(nu, chi, p, k):
    """Elastic (+,+) coefficient lam (y-x) / (2 ((lam+1) x + y))."""
    x, y = xy_pair(nu, p, k)
    lam = mp.e ** (1j * mp.mpf(chi)) - 1
    c = lam * (y - x) / (2 * ((lam + 1) * x + y))
    return complex(c)


def lambda_coefficients(nu, p, k, m_max):
    """Coefficients a_m of the expansion sum_m a_m lam^m of the closed form.

    Geometric: a_m = A * (-x/(x+y))^(m-1) with A = (y-x)/(2(x+y)).
    """
    x, y = xy_pair(nu, p, k)
    lead = (y - x) / (2 * (x + y))
    return [complex(lead * (-x / (x + y)) ** (m - 1))
            for m in range(1, m_max + 1)]


def chi_coefficients(nu, p, k, n_max):
    """Coefficients b_j of chi^j for the closed form as a function of chi.

    Computed by numerical differentiation of f(chi) = c(e^{i chi} - 1)
    at chi = 0 -- an algorithm-independent check on any series
    composition code.
    """
    x, y = xy_pair(nu, p, k)

    def f(chi):
        lam = mp.e ** (1j * chi) - 1
        return lam * (y - x) / (2 * ((lam + 1) * x + y))

    out = []
    for j in range(1, n_max + 1):
        out.append(complex(mp.diff(f, 0, j) / mp.factorial(j)))
    return out


# ---------------------------------------------------------------------------
# dense matrix routes (small rings)
# ---------------------------------------------------------------------------

def walk_unitary_dense(nu, length):
    """Dense one-step free walk on a ring: 2L x 2L, ordering (site, comp).

    Built entry by entry from the defining stencil
    up'(x) = nu*up(x+1) - i*mu*dn(x), dn'(x) = -i*mu*up(x) + nu*dn(x-1).
    """
    mu = float(np.sqrt(1.0 - nu ** 2))
    dim = 2 * length
    u = np.zeros((dim, dim), dtype=complex)
    for x in range(length):
        up, dn = 2 * x, 2 * x + 1
        u[up, 2 * ((x + 1) % length)] += nu
        u[up, dn] += -1j * mu
        u[dn, up] += -1j * mu
        u[dn, 2 * ((x - 1) % length) + 1] += nu
    return u


def propagator_matrix_power(nu, length, dx, dt):
    """<x0+dx| U0^dt |x0> as a 2x2 block, via literal matrix powers."""
    u = walk_unitary_dense(nu, length)
    ut = np.linalg.matrix_power(u, dt)
    x0 = length // 2
    x1 = (x0 + dx) % length
    block = np.empty((2, 2), dtype=complex)
    for a in range(2):
        for b in range(2):
            block[a, b] = ut[2 * x1 + a, 2 * x0 + b]
    return block


def mode_sum_evolution(nu, amplitudes, t):
    """Free evolution by explicit plane-wave decomposition (no FFT).

    amplitudes: (L, 2) single-particle state; returns the state after t
    free steps, resummed mode by mode.
    """
    length = amplitudes.shape[0]
    out = np.zeros_like(amplitudes, dtype=complex)
    xs = np.arange(length)
    for m in range(length):
        k = 2.0 * np.pi * m / length
        k = k - 2.0 * np.pi if k > np.pi else k
        wave = np.exp(1j * k * xs) / np.sqrt(length)
        for s in (+1, -1):
            au, ad = (float(v) for v in alpha_pair(nu, s, k))
            vec = np.array([au, ad], dtype=complex)
            coef = np.vdot(wave[:, None] * vec[None, :], amplitudes)
            phase = complex(mp.e ** (-1j * s * omega_bisect(nu, k) * t))
            out += coef * phase * wave[:, None] * vec[None, :]
    return out


# ---------------------------------------------------------------------------
# auxiliary exact integrals
# ---------------------------------------------------------------------------

def geometric_bz_integral(a):
    """(1/2pi) Int dk 1/(1 - a e^{-ik}) = 1 for |a| < 1 (residue theorem);
    ``quadrature_bz`` is tested against scalings of this."""
    f = lambda k: 1.0 / (1.0 - a * mp.e ** (-1j * k))
    val = mp.quad(f, [-mp.pi, mp.pi]) / (2 * mp.pi)
    return complex(val)


# ---------------------------------------------------------------------------
# table rendering, cell by cell
# ---------------------------------------------------------------------------

def _reference_columns(table):
    """Output names and lazy value columns, complex columns split re/im."""
    names, cols = [], []
    for name, values in table.columns.items():
        if (name in table.complex_columns
                or any(isinstance(v, complex) for v in values)):
            names += [f"{name}_re", f"{name}_im"]
            cols += [(complex(v).real for v in values),
                     (complex(v).imag for v in values)]
        else:
            names.append(name)
            cols.append(values)
    return names, cols


def _reference_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _reference_json_value(v):
    if isinstance(v, bool) or isinstance(v, (int, str)) or v is None:
        return v
    if isinstance(v, float):
        return None if math.isnan(v) else v
    if isinstance(v, dict):
        return {key: _reference_json_value(u) for key, u in v.items()}
    if isinstance(v, (list, tuple)):
        return [_reference_json_value(u) for u in v]
    raise DtScatterError(f"unserializable cell {v!r}")


def render_csv_reference(table):
    """RFC 4180 through `csv.writer`, one formatted cell at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL)
    names, cols = _reference_columns(table)
    writer.writerow(names)
    writer.writerows(zip(*(map(_reference_cell, col) for col in cols)))
    return buf.getvalue()


def render_json_reference(table):
    """One dict per row, dumped with the metadata in one `json.dumps`."""
    names, cols = _reference_columns(table)
    rows = [dict(zip(names, map(_reference_json_value, row)))
            for row in zip(*cols)]
    obj = {"metadata": _reference_json_value(table.metadata), "rows": rows}
    return json.dumps(obj, indent=1, sort_keys=False, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# Gamma band crossings, one scan cell and one bisection at a time
# ---------------------------------------------------------------------------

# scan cells over the zone (the nodes include both ends) and the bisection
# width of each crossing
ROOT_SCAN_N = 2048
ROOT_BISECT_TOL = 1e-13


class RootEnumerationError(Exception):
    """The scan-and-bisect reference failed to pin a crossing."""


def band_pair_roots(d, s1, s2, p, omega_target):
    """All k in (-pi, pi] with s1*w(p+k) + s2*w(p-k) = omega_target mod 2pi.

    Found numerically, against the package's closed-form solve: a Python
    loop over the scan cells, one bracket per integer level of
    (omega^{s1s2}(k) - omega_target)/(2pi) in each cell, each bisected on
    its own to ROOT_BISECT_TOL.  A crossing on the zone seam, found at -pi
    and at pi, counts once.
    """
    def level(k):
        return (s1 * d.omega(p + k) + s2 * d.omega(p - k) - omega_target) / (2.0 * np.pi)

    ks = -np.pi + 2.0 * np.pi * np.arange(ROOT_SCAN_N + 1) / ROOT_SCAN_N
    vals = level(ks)
    vals[-1] = vals[0]  # the sum is 2pi-periodic: k = pi is k = -pi
    roots = []
    for i in range(ROOT_SCAN_N):
        a, b = ks[i], ks[i + 1]
        fa, fb = vals[i], vals[i + 1]
        lo, hi = (fa, fb) if fa <= fb else (fb, fa)
        for m in range(int(np.ceil(lo)), int(np.floor(hi)) + 1):
            if fa == m:
                roots.append(float(a))  # exact hit at the left endpoint
                continue
            ga, gb = fa - m, fb - m
            # signs, not products, which underflow for tiny levels
            if np.sign(ga) * np.sign(gb) > 0.0:
                continue
            x0, x1, g0 = a, b, ga
            for _ in range(200):
                if x1 - x0 <= ROOT_BISECT_TOL:
                    break
                xm = 0.5 * (x0 + x1)
                gm = level(xm) - m
                if gm == 0.0:
                    x0 = x1 = xm
                    break
                if np.sign(g0) * np.sign(gm) < 0.0:
                    x1 = xm
                else:
                    x0, g0 = xm, gm
            root = 0.5 * (x0 + x1)
            resid = level(root) - m
            if abs(resid) > 1e-9:
                raise RootEnumerationError(
                    f"bisection failed to pin a band crossing near k = {root} "
                    f"(residual {resid:.3e})"
                )
            roots.append(float(root))
    # de-duplicate brackets (and exact node hits) that found the same crossing
    roots.sort()
    out = []
    for r in roots:
        if not out or abs(r - out[-1]) > 1e-10:
            out.append(r)
    if len(out) > 1 and out[0] + 2.0 * np.pi - out[-1] <= 1e-10:
        out = out[1:]
    return out


# ---------------------------------------------------------------------------
# Born partial sums, one point and one matrix-vector product at a time
# ---------------------------------------------------------------------------

def born_series_grid_reference(params, p, ks, n_max):
    """thirring.born_series_grid with its power loop run point by point.

    The crossings and Gamma blocks come from the package's own solve; each
    point then takes its own ``w @ vec`` and ``g @ vec`` per order.  The
    package must return these partial sums and ratios, or this error with
    this text, bit for bit.
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    d = params.dispersion
    out = [None] * len(ks)
    pending = []
    for i, k in enumerate(ks):
        omega = th.two_particle_omega(params, p, k, +1, +1)
        try:
            th._check_gamma_args(params, p, omega)
        except DtScatterError as exc:
            out[i] = exc
        else:
            pending.append((i, k, float(wrap_momentum(omega))))
    solved = th._band_pair_roots(d, p, [omega_c for _, _, omega_c in pending])
    sw = [0, 2, 1, 3]
    lam = params.lam
    for (i, k, omega_c), roots in zip(pending, solved):
        try:
            g = th._gamma_from_roots(d, p, omega_c, roots).block
        except DtScatterError as exc:
            out[i] = exc
            continue
        g = 0.5 * (g + g[np.ix_(sw, sw)])
        w = th.w_vector(params, p, k)
        terms = np.empty(n_max + 1, dtype=complex)
        vec = w.astype(complex)
        try:
            for n in range(n_max + 1):
                terms[n] = lam ** (n + 1) * (w @ vec)
                vec = g @ vec
        except OverflowError:
            out[i] = DomainError(
                f"Born term of order {n + 1} overflows: |lam|^{n + 1} "
                f"passes the float range (|lam| = {abs(lam):.6g})")
            continue
        sums = np.cumsum(terms)
        mags = np.abs(terms)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(mags[:-1] > 0.0, mags[1:] / mags[:-1], 0.0)
        out[i] = th.BornSeries(partial_sums=sums, term_ratios=ratios)
    return out


# ---------------------------------------------------------------------------
# Dyson second order, one complex exponential per tail and regulator
# ---------------------------------------------------------------------------

def second_order_reference(params, ch_in, ch_out, quad_n):
    """dyson.second_order_amplitude spelled out the direct way.

    Each band's eigenvectors come from their own ``Dispersion.alpha`` call,
    the pairing weights are summed into fresh arrays, and every (tail,
    regulator) pair takes its own complex exponential exp(i*phi - eps).
    The package must return this value, or raise this error with this
    text, bit for bit.
    """
    if not dy._on_shell(params, ch_in, ch_out):
        return 0.0j
    d = params.dispersion
    q1 = bz_grid(quad_n)
    modes = dy._channel_modes(params, ch_in) + dy._channel_modes(params, ch_out)
    alpha1 = {s: d.alpha(s, q1) for s in (+1, -1)}
    alpha2, omega2, tails, zero = {}, {}, {}, 0.0
    for legs, sign, (a1, b1, a2, b2), z1, z2, c_tail, c_zero in dy._PATTERNS_ORDER2:
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
            omega2[branch] = d.omega(q2)
            alpha2[branch] = {s: d.alpha(s, q2) for s in (+1, -1)}
        for s_a, al1 in alpha1.items():
            u1 = al1[a1] * al1[b1]
            for s_b, al2 in alpha2[branch].items():
                weight = sign * leg_amp * u1 * (al2[a2] * al2[b2])
                if c_zero:
                    zero = zero + weight
                if c_tail:
                    key = (branch, -z1 * w_legs, s_a, s_b)
                    tails[key] = tails.get(key, 0.0) + c_tail * weight
    omega1 = d.omega(q1)
    totals = np.full(len(dy.EPS_SCHEDULE), np.mean(zero), dtype=complex)
    for (branch, const, s_a, s_b), weight in tails.items():
        phi = const - s_a * omega1 - s_b * omega2[branch]
        for i, eps in enumerate(dy.EPS_SCHEDULE):
            r = np.exp(1j * phi - eps)
            totals[i] += np.mean(weight * (r / (1.0 - r)))
    ext = epsilon_extrapolate(totals, dy.EPS_SCHEDULE)
    if ext.error > dy.TAIL_TOL:
        raise TruncationError(
            f"regulator extrapolation self-estimate {ext.error:.3e} above "
            f"{dy.TAIL_TOL:.1e}; increase quad_n"
        )
    jac = dy._out_jacobian(params, ch_out)
    pref = dy.LEG_NORM * (1j * params.chi) ** 2 / 2.0
    return complex(pref * ext.value / jac)


# ---------------------------------------------------------------------------
# dense Trotter operators: the n x n matrices the factored model never forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DenseModel:
    """A factored ``trotter.ContinuousModel`` beside the dense matrices it
    was factored from: h0, v and an orthonormal eigenbasis evecs of h0
    (columns)."""

    model: tr.ContinuousModel
    h0: np.ndarray
    v: np.ndarray
    evecs: np.ndarray

    @property
    def dim(self) -> int:
        return self.h0.shape[0]


def dense_model(h0, v, omega_ref, eps_ref, basis=None) -> DenseModel:
    """Check a dense Hermitian pair (h0, v) and factor it.

    h0 must be Hermitian with spectrum in [0, omega_max]; v is the
    potential.  An orthonormal eigenbasis (evals, evecs) of h0 may be
    supplied (e.g. the analytic plane-wave basis of a ring); otherwise one
    is computed by eigh.  The support of v is the set of its nonzero rows
    and columns (r sites), and the factored model gets v's r x r block
    there and the support rows of evecs.
    """
    h0 = np.asarray(h0, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if h0.shape != v.shape or h0.ndim != 2 or h0.shape[0] != h0.shape[1]:
        raise DomainError("h0 and v must be square matrices of equal size")
    if np.abs(h0 - h0.conj().T).max() > 1e-12 * max(1.0, np.abs(h0).max()):
        raise DomainError("h0 must be Hermitian")
    if np.abs(v - v.conj().T).max() > 1e-12 * max(1.0, np.abs(v).max(), 1e-30):
        raise DomainError("v must be Hermitian")
    if basis is None:
        evals, evecs = np.linalg.eigh(h0)
    else:
        evals, evecs = basis
        evals = np.asarray(evals, dtype=float)
        evecs = np.asarray(evecs, dtype=complex)
    nonzero = v != 0
    support = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    model = tr.ContinuousModel(evals=evals, support=support,
                               v_block=v[np.ix_(support, support)],
                               support_evecs=evecs[support],
                               omega_ref=omega_ref, eps_ref=eps_ref)
    return DenseModel(model=model, h0=h0, v=v, evecs=evecs)


def dense_ring(n=128, omega_max=2.0, v_sites=(0, 1, 5, 9),
               v_values=(0.10, -0.08, 0.06, 0.07), mode_index=32,
               eps_ref=0.2) -> DenseModel:
    """``trotter.hopping_ring_model``'s ring as dense matrices: the n x n
    hopping h0, the diagonal v and the full n x n plane-wave basis."""
    j_hop = omega_max / 4.0
    x = np.arange(n)
    h0 = np.zeros((n, n))
    h0[x, (x + 1) % n] = -j_hop
    h0[(x + 1) % n, x] = -j_hop
    h0[x, x] = 2.0 * j_hop
    v = np.zeros((n, n))
    for s, val in zip(v_sites, v_values):
        v[s, s] = val
    modes = np.arange(n)
    kvals = 2.0 * np.pi * modes / n
    evals = 2.0 * j_hop * (1.0 - np.cos(kvals))
    evecs = np.exp(1j * np.outer(x, kvals)) / np.sqrt(n)
    omega_ref = float(evals[mode_index])
    return dense_model(h0, v, omega_ref, eps_ref, basis=(evals, evecs))


def green_continuous(dense, z):
    """Dense resolvent G0(z) = (z - H0)^{-1}."""
    dense.model.resolvent_multipliers(z)  # PoleError on the spectrum of h0
    return np.linalg.inv(z * np.eye(dense.dim) - dense.h0)


def t_continuous_operator(dense, z):
    """Dense T(z) = (I - V G0(z))^{-1} V."""
    g0 = green_continuous(dense, z)
    lhs = np.eye(dense.dim) - dense.v @ g0
    return np.linalg.solve(lhs, dense.v)


def t_continuous(dense, k, kp, eps):
    """On-shell element <k'|T(omega_k + i*eps)|k> between h0 eigenmodes.

    k and kp are eigenbasis column indices.  Requires the model's Born
    contraction estimate gamma < 1; the returned residual is the operator
    defect ||T - V - V G0 T||.
    """
    model = dense.model
    if model.gamma >= 1.0:
        raise AssumptionViolationError(
            f"Born contraction gamma = {model.gamma:.3f} >= 1 at the "
            "model reference point"
        )
    z = complex(model.evals[k] + 1j * eps)
    t_op = t_continuous_operator(dense, z)
    g0 = green_continuous(dense, z)
    residual = float(np.linalg.norm(
        t_op - dense.v - dense.v @ g0 @ t_op, 2))
    element = complex(dense.evecs[:, kp].conj() @ t_op @ dense.evecs[:, k])
    return TMatrixEval(z=z, value=element, n_terms=0, converged=True,
                       residual=residual)


def green_discrete_operator(dense, tau, z):
    """Dense stepped Green operator E diag(m~) E^H from the multipliers."""
    mult = tr.green_discrete(dense.model, tau, z)
    return (dense.evecs * mult) @ dense.evecs.conj().T


def t_discrete_dense(dense, tau, z):
    """Dense stepped T~(z) = (I - W~ G~0(z))^{-1} W~, with G~0 built in the
    full eigenbasis E rather than on the support."""
    wt = tr.w_tilde_direct(dense.model, tau)
    gd = green_discrete_operator(dense, tau, z)
    lhs = np.eye(dense.dim) - wt @ gd
    return np.linalg.solve(lhs, wt)


def secondary_comb_indices(model, tau, omega_in):
    """Folded-energy replicas of omega_in that land back on the band.

    Returns the list of nonzero integers l with omega_in + 2*pi*l/tau in
    [0, omega_M].  Empty whenever tau < 2*pi/omega_M -- the step regime
    where no replica channel can be on-shell.
    """
    tr._check_tau(tau)
    step = 2.0 * np.pi / tau
    out = []
    l_min = int(np.floor((0.0 - omega_in) / step))
    l_max = int(np.ceil((model.omega_max - omega_in) / step))
    for l in range(l_min, l_max + 1):
        if l != 0 and -1e-12 <= omega_in + step * l <= model.omega_max + 1e-12:
            out.append(l)
    return out


@dataclass(frozen=True, eq=False)
class TrotterDifference:
    """Measured stepped-vs-continuous T gap and its leading term.

    difference: dense T~(z) - T(z); element: its (kp, k) eigenmode element.
    leading: (tau^2/12) * T (H0 + V - z) T.  The O(tau) pieces of W~ and
    G~0 cancel against each other, so this is the gap's leading term.
    """

    tau: float
    z: complex
    difference: np.ndarray
    element: complex
    leading: np.ndarray


def _leading_coefficient(dense, t_cont, z):
    """T (H0 + V - z) T / 12: the tau^2 coefficient of T~(z) - T(z)."""
    shifted = dense.h0 + dense.v - z * np.eye(dense.dim)
    return (t_cont @ shifted @ t_cont) / 12.0


def t_difference(dense, k, kp, tau, eps):
    """T~(z) - T(z) at z = omega_k + i*eps, with its leading term.

    Steps larger than the certified threshold are computed anyway but
    flagged with an uncertified-regime warning.
    """
    report = tr.tau_threshold(dense.model, tau=tau)
    if not report.verdict:
        warnings.warn(
            f"tau = {tau} exceeds the certified threshold m* = "
            f"{report.m_star:.4f}; the contraction bound does not apply",
            UncertifiedRegimeWarning,
        )
    z = complex(dense.model.evals[k] + 1j * eps)
    t_cont = t_continuous_operator(dense, z)
    t_disc = t_discrete_dense(dense, tau, z)
    difference = t_disc - t_cont
    bra = dense.evecs[:, kp].conj()
    ket = dense.evecs[:, k]
    return TrotterDifference(
        tau=float(tau), z=z,
        difference=difference,
        element=complex(bra @ difference @ ket),
        leading=tau ** 2 * _leading_coefficient(dense, t_cont, z),
    )


# ---------------------------------------------------------------------------
# references no command runs: the walk fiber, zone quadrature, the
# retarded kernel, the closed-form T block and the single-walker
# Lippmann-Schwinger route
# ---------------------------------------------------------------------------

class UncertifiedRegimeWarning(UserWarning):
    """Computation performed outside the certified tau <= m* regime."""


class QuadratureError(DtScatterError):
    """An integrand returned NaN/Inf at a quadrature node."""

    def __init__(self, message: str, node_index: int | None = None):
        super().__init__(message)
        self.node_index = node_index


def dirac_walk_matrix(d, k):
    """Momentum-space walk step [[nu e^{ik}, -i mu], [-i mu, nu e^{-ik}]]."""
    k = float(wrap_momentum(k))
    return np.array(
        [
            [d.nu * np.exp(1j * k), -1j * d.mu],
            [-1j * d.mu, d.nu * np.exp(-1j * k)],
        ],
        dtype=complex,
    )


def quadrature_bz(integrand, n=2048):
    """Zone average (1/2pi) Integral dk of a smooth periodic integrand.

    Uniform trapezoid on the periodic grid (== node mean), spectrally
    accurate for analytic integrands.  ``integrand`` maps a momentum to a
    scalar or ndarray; NaN/Inf at any node raises QuadratureError with the
    node index.
    """
    if n < 16:
        raise DomainError(f"quadrature grid too small: n = {n} < 16")
    nodes = bz_grid(n)
    acc = None
    for j, k in enumerate(nodes):
        val = np.asarray(integrand(k), dtype=complex)
        if not np.all(np.isfinite(val)):
            raise QuadratureError(
                f"integrand not finite at node {j} (k = {k})", node_index=j
            )
        acc = val if acc is None else acc + val
    out = acc / n
    return complex(out) if out.ndim == 0 else out


def retarded_propagator(params, dx, dt, quad_n=2048):
    """The retarded single-particle kernel theta(dt) * P(dx, dt), a 2x2 block.

    P(dx, dt) = (1/2pi) int dk sum_s u^s(k) u^s(k)^T e^{-i(s*omega(k)dt + k*dx)}.
    Vanishes for dt < 0 and outside the unit-speed cone |dx| > |dt|
    (the free step moves at most one site).  P(0, 0) = I by band
    completeness.
    """
    if dt < 0:
        return np.zeros((2, 2), dtype=complex)
    d = params.dispersion

    def integrand(k):
        w = d.omega(k)
        out = np.zeros((2, 2), dtype=complex)
        for s in (+1, -1):
            u = np.array(d.alpha(s, k))
            out += np.outer(u, u) * np.exp(-1j * (s * w * dt + k * dx))
        return out

    return quadrature_bz(integrand, n=quad_n)


def t_closed_thirring(params, p, k):
    """Closed-form 2x2 T block on span(up-down, down-up).

    T = lam/((lam+1)^2 x^2 - y^2) * [[(lam+1)x^2 - y^2, -lam*x*y],
                                     [-lam*x*y, (lam+1)x^2 - y^2]].
    Equals the geometric resummation lam*(I - lam*Gamma_Q)^{-1} of the
    Born series on the same subspace, with (x, y) taken by on_shell_xy.
    """
    f = xy_factors(params, p, k)
    x, y = on_shell_xy(f.x, f.y)
    lam = params.lam
    x2, y2 = x * x, y * y
    den = (lam + 1.0) ** 2 * x2 - y2
    if abs(den) < 1e-12:
        raise ResonancePoleError(
            f"T denominator (lam+1)^2 x^2 - y^2 = {den} vanishes at "
            f"(nu, p, k, chi) = ({params.nu}, {p}, {k}, {params.chi})"
        )
    diag = (lam + 1.0) * x2 - y2
    off = -lam * x * y
    return (lam / den) * np.array([[diag, off], [off, diag]], dtype=complex)


# The single-walker route: the step U = U0 V with V a diagonal on-site
# phase on finitely many sites, so W = U0^dag U - I = V - I is a finite-rank
# diagonal block.  The Born series, its closed resummation and the
# eps-regularized improper S-matrix elements all live on that block, at
# z = exp(-i * omega_in + eps) just outside the unit circle, extrapolated
# to eps -> 0+.

# regulators of the improper elements, extrapolated to eps -> 0
EPS_SCHEDULE = tuple(1e-2 * 2.0 ** (-j) for j in range(5))
# Born series: stop once a term's norm is below BORN_TOL, give up after
# BORN_MAX_N terms
BORN_TOL = 1e-12
BORN_MAX_N = 200


class UnsupportedInteractionError(DtScatterError):
    """Interaction type outside the finite-support on-site family."""


class SingularKernelError(DtScatterError):
    """The closed-form solve hit a numerically singular kernel."""

    def __init__(self, message: str, condition_number: float | None = None):
        super().__init__(message)
        self.condition_number = condition_number


@dataclass(frozen=True)
class OnSitePhase:
    """Diagonal on-site phase V = sum_x e^{-i chi f(x)} |x><x| (identity elsewhere).

    ``f`` maps lattice site -> real weight; only finitely many sites appear.
    """

    chi: float
    f: dict[int, float]

    def __post_init__(self):
        if not isinstance(self.f, dict):
            raise UnsupportedInteractionError(
                "on-site phase must be described by a finite site -> weight map"
            )
        for x, v in self.f.items():
            if not np.isfinite(v) or not np.isreal(v):
                raise UnsupportedInteractionError(
                    f"non-finite/non-real weight at site {x}: {v}"
                )


@dataclass(frozen=True)
class FiniteRankInteraction:
    """W = V - I restricted to its support sites (internal dim per site)."""

    support: tuple[int, ...]
    internal_dim: int
    action: np.ndarray  # (r*d, r*d) complex block, r = len(support)
    rank: int

    def __post_init__(self):
        object.__setattr__(self, "action", np.asarray(self.action, dtype=complex))


@dataclass(frozen=True)
class TMatrixEval:
    z: complex
    value: np.ndarray  # complex block on the interaction support
    n_terms: int
    converged: bool
    residual: float

    def __post_init__(self):
        object.__setattr__(self, "value", np.asarray(self.value, dtype=complex))


@dataclass(frozen=True)
class LSAmplitude:
    """On-shell element coefficient * delta_2pi(omega' - omega) between walk
    modes (k, s), with omega' = omega + 2 pi * comb_index, and the
    extrapolation's flag and self-estimate."""

    in_channel: tuple[float, int]
    out_channel: tuple[float, int]
    comb_index: int
    coefficient: complex
    flagged: bool = False
    note: str = ""
    error_estimate: float = 0.0


def w_operator(v):
    """Interaction kernel W = U0^dag (U0 V) - I = V - I on its support."""
    d = 2  # two internal components of the walk
    support = tuple(
        sorted(
            x
            for x, fx in v.f.items()
            if fx != 0.0 and np.exp(-1j * v.chi * fx) != 1.0
        )
    )
    r = len(support)
    diag = np.zeros(r * d, dtype=complex)
    for i, x in enumerate(support):
        diag[i * d : (i + 1) * d] = np.exp(-1j * v.chi * v.f[x]) - 1.0
    return FiniteRankInteraction(
        support=support, internal_dim=d, action=np.diag(diag), rank=r
    )


@functools.lru_cache(maxsize=4)
def _mode_projectors(disp, n):
    """Eigenvalues e^{-i s omega(k)} and 2x2 band projectors of the walk
    fiber ``dirac_walk_matrix`` on the n-node zone grid: (lam_plus,
    lam_minus, P_plus, P_minus), the projectors of shape (n, 2, 2).  They
    do not depend on z, so the regulators of one element share them, read
    only."""
    k = bz_grid(n)
    w = disp.omega(k)
    out = []
    lams = []
    for s in (+1, -1):
        a = np.stack(disp.alpha(s, k), axis=-1)
        out.append((a[:, :, None] * a[:, None, :]).astype(complex))
        lams.append(np.exp(-1j * s * w))
    data = lams[0], lams[1], out[0], out[1]
    for array in data:
        array.flags.writeable = False
    return data


def support_kernel(disp, z, support, n=2048):
    """Position-space block of G0(z) U0 = (z - U0)^{-1} U0 on the support.

    Entry ((x', a), (x, b)) = (1/2pi) Integral dk e^{i k (x' - x)}
    [ (z - D_k)^{-1} D_k ]_{ab}, evaluated by zone quadrature.
    """
    k = bz_grid(n)
    lam_a, lam_b, p_a, p_b = _mode_projectors(disp, n)
    m = np.zeros((n, 2, 2), dtype=complex)
    for lam, p in ((lam_a, p_a), (lam_b, p_b)):
        den = z - lam
        closest = np.argmin(np.abs(den))
        if np.abs(den[closest]) <= 1e-14:
            raise PoleError(
                f"spectral parameter z = {z} collides with the free spectrum",
                k=float(k[closest]),
            )
        m += (lam / den)[:, None, None] * p
    r = len(support)
    d = 2
    block = np.zeros((r * d, r * d), dtype=complex)
    xs = np.asarray(support)
    for i, xp in enumerate(xs):
        for j, x in enumerate(xs):
            phase = np.exp(1j * k * (xp - x))
            block[i * d : (i + 1) * d, j * d : (j + 1) * d] = (
                np.tensordot(phase, m, axes=(0, 0)) / n
            )
    return block


def t_matrix_born(w, disp, z, quad_n=2048):
    """Sum the Born series on the support block until the last term < BORN_TOL.

    Non-convergence is reported through ``converged=False``.
    """
    if w.rank == 0:
        return TMatrixEval(z=z, value=w.action.copy(), n_terms=0, converged=True, residual=0.0)
    kernel = w.action @ support_kernel(disp, z, w.support, n=quad_n)
    term = w.action.copy()
    total = term.copy()
    n_terms = 1
    residual = float(np.linalg.norm(term))
    for n in range(1, BORN_MAX_N + 1):
        term = kernel @ term
        total += term
        n_terms = n + 1
        residual = float(np.linalg.norm(term))
        if residual < BORN_TOL:
            return TMatrixEval(z=z, value=total, n_terms=n_terms, converged=True, residual=residual)
    return TMatrixEval(z=z, value=total, n_terms=n_terms, converged=False, residual=residual)


def t_matrix_closed(w, disp, z, quad_n=2048):
    """Closed resummation T = (I - W G0 U0)^{-1} W on the support block."""
    if w.rank == 0:
        return TMatrixEval(z=z, value=w.action.copy(), n_terms=0, converged=True, residual=0.0)
    kernel = w.action @ support_kernel(disp, z, w.support, n=quad_n)
    a = np.eye(kernel.shape[0]) - kernel
    cond = float(np.linalg.cond(a))
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularKernelError(
            f"closed T-matrix solve is singular (cond = {cond:.3e})",
            condition_number=cond,
        )
    value = np.linalg.solve(a, w.action)
    return TMatrixEval(z=z, value=value, n_terms=1, converged=True, residual=0.0)


def fixed_point_residual(w, disp, eval_, quad_n=2048):
    """|| T - (W + W G0 U0 T) || on the support block."""
    kernel = w.action @ support_kernel(disp, eval_.z, w.support, n=quad_n)
    return float(np.linalg.norm(eval_.value - (w.action + kernel @ eval_.value)))


def _plane_wave_on_support(disp, support, k, s):
    """Improper mode (k, s) sampled on the support sites, e^{ikx} u^s_k."""
    a_up, a_dn = disp.alpha(s, k)
    u = np.array([a_up, a_dn], dtype=complex)
    return np.concatenate([np.exp(1j * k * x) * u for x in support])


def s_matrix_element(w, disp, in_channel, out_channel, quad_n=32768):
    """eps -> 0 improper S-matrix element between walk modes.

    Off the quasi-energy shell (mod 2 pi, tolerance dyson.SHELL_TOL) the
    comb selection rule forces a zero record.  On shell the coefficient is
    the factor multiplying the conservation delta_2pi(omega' - omega),
    taken through EPS_SCHEDULE; a growing extrapolation error flags the
    record and keeps the smallest-regulator sample.  The default quad_n
    resolves the pole width at the smallest regulator (2 048 nodes do not).
    """
    k_in, s_in = float(wrap_momentum(in_channel[0])), int(in_channel[1])
    k_out, s_out = float(wrap_momentum(out_channel[0])), int(out_channel[1])
    w_in = s_in * disp.omega(k_in)
    w_out = s_out * disp.omega(k_out)
    l = int(np.round((w_out - w_in) / (2.0 * np.pi)))
    if abs(w_out - w_in - 2.0 * np.pi * l) > dy.SHELL_TOL:
        return LSAmplitude(
            in_channel=(k_in, s_in),
            out_channel=(k_out, s_out),
            comb_index=0,
            coefficient=0.0,
            note="off-shell",
        )
    if w.rank == 0:
        # free theory: S = I, so the delta coefficient vanishes
        return LSAmplitude(
            in_channel=(k_in, s_in),
            out_channel=(k_out, s_out),
            comb_index=l,
            coefficient=0.0,
            note="empty interaction support",
        )
    vec_in = _plane_wave_on_support(disp, w.support, k_in, s_in)
    vec_out = _plane_wave_on_support(disp, w.support, k_out, s_out)
    vals = []
    for eps in EPS_SCHEDULE:
        z = np.exp(-1j * w_in + eps)
        t = t_matrix_closed(w, disp, z, quad_n=quad_n)
        vals.append(vec_out.conj() @ t.value @ vec_in)
    ext = epsilon_extrapolate(vals, EPS_SCHEDULE)
    prev = epsilon_extrapolate(vals[1:], EPS_SCHEDULE[1:]).error
    if ext.error > 4.0 * prev and ext.error > 1e-12:
        note = (f"extrapolation diverging: successive corrections {prev:.3e} "
                f"-> {ext.error:.3e}")
        ext = Extrapolation(value=vals[-1], error=float("inf"))
        flagged = True
    else:
        flagged = ext.error > 1e-6
        note = "extrapolation orders disagree" if flagged else ""
    # The support sandwich is the full on-shell factor in momentum-
    # normalized channels (the mode normalization folds the 2 pi of the
    # conservation comb into it).
    return LSAmplitude(
        in_channel=(k_in, s_in),
        out_channel=(k_out, s_out),
        comb_index=l,
        coefficient=complex(ext.value),
        flagged=flagged,
        note=note,
        error_estimate=ext.error,
    )


def channel_amplitude(record, disp):
    """Physical single-channel amplitude c with S = 1 + c on that channel.

    The stored element is coefficient * delta_2pi(omega(k') - omega(k)); the
    comb contributes delta(k' - k_out)/|omega'(k_out)| at the outgoing root,
    so on momentum-normalized channels c = coefficient / |omega'(k_out)|.
    """
    k_out = record.out_channel[0]
    vg = abs(disp.omega_prime(k_out))
    return record.coefficient / vg


def transmission_reflection(out_amps, model, k0, band=+1):
    """Forward/backward probabilities of a single-particle out-state.

    Bins the band-projected momentum density by the sign of the group
    velocity relative to the incoming packet's; the residue (other band,
    stationary bins) is the leakage, so T + R + leakage = 1 exactly.
    """
    if model.total_momentum is not None:
        raise DomainError("transmission_reflection applies to the "
                          "single-particle model")
    d = model.dispersion
    kk, bands = model.mode_data
    ft = np.fft.fft(wp._lattice(out_amps), axis=0) / np.sqrt(model.length)
    _, vec = bands[(band,)]
    dens = np.abs(np.einsum("ck,kc->k", vec, ft)) ** 2
    v = band * d.omega_prime(kk)
    v_in = band * d.omega_prime(k0)
    if abs(v_in) < 1e-12:
        raise DomainError(f"incoming group velocity vanishes at k0={k0}")
    forward = v * np.sign(v_in) > 1e-12
    backward = v * np.sign(v_in) < -1e-12
    return float(dens[forward].sum()), float(dens[backward].sum())
