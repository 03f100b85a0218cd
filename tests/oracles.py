"""Independent reference routes used to pin test expectations.

Everything here is computed differently from the package: high-precision
arithmetic (mpmath at 30 digits), bisection instead of library arccos,
dense matrix powers instead of analytic propagators, explicit mode sums
instead of FFTs, and `csv.writer` / one `json.dumps` instead of the
package's column-wise table renderers.  Test files freeze the resulting
numbers as literals and cite the oracle function that produced them.
"""

import csv
import io
import json
import math

import mpmath as mp
import numpy as np

from dtscatter.errors import DtScatterError, RootEnumerationError
from dtscatter.thirring import ROOT_BISECT_TOL, ROOT_SCAN_N

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
    the package quadrature is tested against scalings of this."""
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

def band_pair_roots(d, s1, s2, p, omega_target):
    """All k in (-pi, pi] with s1*w(p+k) + s2*w(p-k) = omega_target mod 2pi.

    The scalar form of the package's batched crossing solve: a Python loop
    over the scan cells, one bracket per integer level of
    (omega^{s1s2}(k) - omega_target)/(2pi) in each cell, each bisected on
    its own.  The package must return these roots bit for bit.
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
            if ga * gb > 0.0:
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
                if g0 * gm < 0.0:
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
    return out
