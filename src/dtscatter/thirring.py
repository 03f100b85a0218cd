"""Two-fermion scattering for the contact-interaction walk model.

Two walkers evolve one step by the free two-particle walk followed by a
phase e^{i*chi} applied whenever both sit on the same site.  Because the
interaction only sees the relative coordinate, fixing the total
quasi-momentum p reduces the problem to a single walker on the relative
lattice with a rank-four defect at the origin.  Everything here lives in
that reduced picture.

Internal basis order for the 4-dimensional coin space is
(up-up, up-down, down-up, down-down); the first factor is the particle
carrying momentum p + k, the second the one carrying p - k.  The
antisymmetric combination (0, 1, -1, 0)/sqrt(2) is the only state the
contact interaction scatters in the fermionic sector.

Key objects:

* ``xy_factors`` -- the two overlap products x, y of the band eigenvector
  components that every closed-form amplitude is written in.
* ``gamma_matrix`` -- the 4x4 matrix Gamma(z), the Brillouin-zone average
  of the inverse free resolvent evaluated at the coincidence site, by
  pole bookkeeping.  ``gamma_quadrature`` is the independent route
  (regularized quadrature) it must agree with; the scalar remainder
  entries of the pole route are validated against that route only.
* ``amplitude_pp`` -- the closed form obtained by resumming the geometric
  Born series; ``amplitude_pp_grid`` evaluates it over many points at
  once.  The resummed 2x2 T block the tests check it with is
  ``t_closed_thirring`` in ``tests/oracles.py``.
* ``umklapp_amplitudes`` -- the elastic and band-flip records related by
  exact sign flips.
* ``born_series_thirring`` -- the partial sums themselves, kept as an
  independent route to the closed forms; ``born_series_grid`` computes
  them at many k with one crossing solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateMomentumError,
    DomainError,
    DtScatterError,
    PoleError,
    ResonancePoleError,
    StationaryPointError,
)
from .spectral import (Dispersion, bz_grid, epsilon_extrapolate, make_dispersion,
                       wrap_momentum)

_HALF_PI = 0.5 * np.pi

# Pole bookkeeping in gamma_matrix refuses band crossings flatter than this.
STATIONARY_TOL = 1e-8
# Proximity to p = n*pi/2 (where the relative-coordinate reduction
# degenerates) that is rejected outright.
DEGENERATE_P_TOL = 1e-12
# Residue route: the (s1, s2) band pairs in Gamma's order, also as signs.
_BAND_PAIRS = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))
_PAIR_SIGNS = np.array(_BAND_PAIRS, dtype=float)
# Points per stacked block of the Born power loop.
BORN_BLOCK = 32
# Quadrature route: zone grid and the regulators extrapolated to zero.
GAMMA_QUAD_N = 8192
GAMMA_EPS = tuple(0.1 * 0.5 ** j for j in range(5))


@dataclass(frozen=True)
class ThirringParams:
    """Model parameters: band parameter nu and collision phase chi.

    chi is wrapped into (-pi, pi]; lam = exp(i*chi) - 1 is the natural
    coupling the Born series is a power series in (lam = 0 iff chi = 0,
    |lam| <= 2).
    """

    nu: float
    chi: float
    dispersion: Dispersion = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not np.isfinite(self.chi):
            raise DomainError(f"coupling phase must be finite, got {self.chi}")
        object.__setattr__(self, "chi", float(wrap_momentum(self.chi)))
        object.__setattr__(self, "dispersion", make_dispersion(self.nu))

    @property
    def mu(self) -> float:
        return self.dispersion.mu

    @property
    def lam(self) -> complex:
        return complex(np.exp(1j * self.chi) - 1.0)


@dataclass(frozen=True)
class ThirringChannel:
    """Asymptotic two-particle label: total p, relative k, bands s1, s2.

    omega is the quasi-energy s1*w(p+k) + s2*w(p-k) in radians per step.
    Build through ``channel`` so omega stays consistent with (p, k, s1, s2).
    """

    p: float
    k: float
    s1: int
    s2: int
    omega: float


@dataclass(frozen=True)
class AmplitudeRecord:
    """On-shell amplitude: the factor multiplying the conservation delta.

    The element is coefficient * delta_2pi(omega' - omega).  ``comb_index``
    l satisfies omega' = omega + 2 pi l for the stored representative
    channel pair.
    """

    in_channel: ThirringChannel
    out_channel: ThirringChannel
    comb_index: int
    coefficient: complex
    note: str = ""


@dataclass(frozen=True)
class XYFactors:
    """Eigenvector overlap products x, y entering all closed forms.

    x = a_{+,up}(p+k) * a_{+,down}(p-k), y = a_{+,down}(p+k) * a_{+,up}(p-k)
    with a the band-eigenvector components.  k = 0 gives x = y, which is
    why the antisymmetric state decouples there.  Floats for one point,
    arrays for arrays of points.
    """

    x: float | np.ndarray
    y: float | np.ndarray


@dataclass(frozen=True)
class GammaMatrix:
    """Gamma(z) on the 4-dimensional coin space at the coincidence site.

    roots holds the (k, s1, s2) crossings the residue route kept, for
    diagnostics; the quadrature route leaves it empty.
    """

    z: complex
    block: np.ndarray
    roots: tuple = ()


def com_inverse(p: float, k: float) -> tuple[float, float]:
    """Center-of-mass pair (p, k) -> single-particle momenta, wrapped."""
    return float(wrap_momentum(p + k)), float(wrap_momentum(p - k))


def _degenerate_total_momentum(p):
    """Where p sits on a multiple of pi/2 (elementwise for an array)."""
    return np.abs(p - _HALF_PI * np.round(p / _HALF_PI)) < DEGENERATE_P_TOL


def _check_total_momentum(p) -> None:
    bad = _degenerate_total_momentum(p)
    if np.any(bad):
        raise DegenerateMomentumError(
            f"total momentum p = {np.extract(bad, p)[0].item()} sits on a "
            "multiple of pi/2 where the relative-coordinate reduction "
            "degenerates"
        )


def two_particle_omega(params: ThirringParams, p: float, k: float,
                       s1: int, s2: int) -> float:
    """Quasi-energy s1*w(p+k) + s2*w(p-k) of the (s1, s2) band pair."""
    d = params.dispersion
    return float(s1 * d.omega(p + k) + s2 * d.omega(p - k))


def channel(params: ThirringParams, p: float, k: float,
            s1: int, s2: int) -> ThirringChannel:
    """Build a ThirringChannel with a consistent quasi-energy."""
    if s1 not in (+1, -1) or s2 not in (+1, -1):
        raise DomainError(f"band labels must be +-1, got ({s1}, {s2})")
    _check_total_momentum(p)
    p = float(wrap_momentum(p))
    k = float(wrap_momentum(k))
    return ThirringChannel(p=p, k=k, s1=s1, s2=s2,
                           omega=two_particle_omega(params, p, k, s1, s2))


def xy_factors(params: ThirringParams, p, k) -> XYFactors:
    """Overlap products (x, y) for the upper-band pair at (p, k).

    p and k may be arrays of one shape; x and y are then arrays holding
    the bits of the pointwise calls.
    """
    if params.nu >= 1.0:
        raise DomainError(
            "xy factors need a gapped band pair (nu < 1); the chiral point "
            "nu = 1 has trivial eigenvectors and x = y = 0"
        )
    _check_total_momentum(p)
    d = params.dispersion
    a_up_1, a_dn_1 = d.alpha(+1, p + k)
    a_up_2, a_dn_2 = d.alpha(+1, p - k)
    x, y = a_up_1 * a_dn_2, a_dn_1 * a_up_2
    if np.ndim(x) == 0:
        x, y = float(x), float(y)
    return XYFactors(x=x, y=y)


def _pair_vector(d: Dispersion, s1: int, s2: int, p: float, k: float) -> np.ndarray:
    """Product eigenvector u^{s1}(p+k) (x) u^{s2}(p-k) as a real 4-vector."""
    u1 = np.array(d.alpha(s1, p + k))
    u2 = np.array(d.alpha(s2, p - k))
    return np.multiply.outer(u1, u2).ravel()  # np.kron's products, less overhead


def w_vector(params: ThirringParams, p: float, k: float) -> np.ndarray:
    """Antisymmetrized incoming weight for the (+, +) band pair.

    (v_{p,k} - v_{p,-k} with swapped factors)/sqrt(2)
    = (x - y)/sqrt(2) * (0, 1, -1, 0); vanishes at k = 0.
    """
    d = params.dispersion
    v_in = _pair_vector(d, +1, +1, p, k)
    # negating k swaps which particle carries which momentum, so this IS
    # the exchanged vector -- components (a, y, x, b) against (a, x, y, b)
    v_sw = _pair_vector(d, +1, +1, p, -k)
    return (v_in - v_sw) / np.sqrt(2.0)


def jacobian_pp(params: ThirringParams, p: float, k: float) -> float:
    """d(omega^{++})/dk = w'(p+k) - w'(p-k); equals 2(y^2 - x^2).

    Signed: it is negative for pi/2 < |p| < pi.  The on-shell delta
    delta(omega(k) - omega(k')) = delta(k - k')/|J| turns a Born sum into
    an amplitude by dividing by abs(jacobian_pp).
    """
    return _pair_slope(params.dispersion, +1, +1, p, k)


def on_shell_xy(x: float, y: float) -> tuple[float, float]:
    """The overlap products (x, y) in the order the closed forms take them.

    On shell, Gamma's eigenvalue on w is -x/(x + y) where the slope
    jacobian_pp = 2(y^2 - x^2) is positive; where it is negative the
    residues of the retarded prescription give -y/(x + y) instead.  So
    every closed form holds as written for y^2 >= x^2 and with x and y
    exchanged otherwise; for the amplitude the exchange is its complex
    conjugate.  At y^2 = x^2 both orders give the same value.
    """
    return (y, x) if x * x > y * y else (x, y)


# ---------------------------------------------------------------------------
# Gamma(z): pole-bookkeeping route
# ---------------------------------------------------------------------------

def _band_pair_roots(d: Dispersion, p: float, omegas) -> list:
    """All k in (-pi, pi] with s1*w(p+k) + s2*w(p-k) = omega mod 2pi, per target.

    Entry t holds the sorted crossings of each (s1, s2) of _BAND_PAIRS at
    omegas[t].  With cos w = nu cos q and h = omega/2, squaring
    cos(s1*w(p+k) + s2*w(p-k)) = cos(omega) gives, for all four pairs,

      sin^2 k = sin^2 h (nu^2 cos^2 p - cos^2 h) / (nu^2 (sin^2 h - sin^2 p)),
      cos^2 k = cos^2 h (sin^2 h - nu^2 sin^2 p) / (nu^2 (sin^2 h - sin^2 p)),

    singular only at omega = +-2p, where Gamma's remainder diverges.  Of the
    candidates +-k0 and +-(pi - k0), k0 = atan2(|sin k|, |cos k|), a pair
    keeps those where its energy meets omega: to 1e-9, and to half of
    |2 omega| mod 2pi, so that a crossing of -omega, which squaring also
    admits, does not count.  A vanishing factor in brackets is a tangency
    at a band edge (k = 0, pi or +-pi/2), which rounding moves by about
    1e-8 or removes: a candidate moves to the edge point wherever the
    energy there meets omega to 4 ulp of pi, so that it has zero slope.
    Crossings less than 1e-10 apart, across the zone seam too, count once.
    """
    omegas = np.asarray(omegas, dtype=float)
    sin2h, cos2h = np.sin(0.5 * omegas) ** 2, np.cos(0.5 * omegas) ** 2
    nu2 = d.nu * d.nu
    with np.errstate(divide="ignore", invalid="ignore"):
        den = nu2 * (sin2h - np.sin(p) ** 2)
        sin2k = sin2h * (nu2 * np.cos(p) ** 2 - cos2h) / den
        cos2k = cos2h * (sin2h - nu2 * np.sin(p) ** 2) / den
        # [k0 (nan where rounding takes a square below zero), edge point]
        k = np.stack([np.arctan2(np.sqrt(sin2k), np.sqrt(cos2k)),
                      np.where(sin2k < cos2k, 0.0, _HALF_PI)])
        cand = wrap_momentum(np.stack([k, -k, np.pi - k, k - np.pi], axis=-1))
        energy = (_PAIR_SIGNS[:, 0, None, None, None] * d.omega(p + cand)
                  + _PAIR_SIGNS[:, 1, None, None, None] * d.omega(p - cand))
        miss = np.abs(wrap_momentum(energy - omegas[:, None]))
        at_edge = miss[:, 1] <= 4.0 * np.spacing(np.pi)
        tol = np.minimum(1e-9, 0.5 * np.abs(wrap_momentum(2.0 * omegas)))
        hit = at_edge | (miss[:, 0] < tol[:, None])
    cand = np.where(at_edge, cand[1], cand[0])
    out = [[] for _ in range(omegas.size)]
    for j, t in np.ndindex(hit.shape[:2]):
        roots = np.sort(cand[j, t, hit[j, t]])
        gaps = np.diff(roots, append=roots[:1] + 2.0 * np.pi)
        out[t].append(roots[gaps > 1e-10].tolist())
    return out


def _check_gamma_args(params: ThirringParams, p: float,
                      omega_target: float) -> None:
    _check_total_momentum(p)
    if not 0.0 < params.nu < 1.0:
        raise DomainError(
            f"gamma_matrix needs dispersive gapped bands (0 < nu < 1), got {params.nu}"
        )
    if not np.isfinite(omega_target):
        raise DomainError(f"omega_target must be finite, got {omega_target}")


def gamma_matrix(params: ThirringParams, p: float,
                 omega_target: float) -> GammaMatrix:
    """Gamma(z) at z -> exp(-i*omega_target) from outside the unit circle.

    Radial-limit Gamma via pole bookkeeping, exact up to rounding;
    ``gamma_quadrature`` is the slow independent route.  The two agree to
    1e-6 where the tests compare them (the (+,+) shell at (nu, p, k) =
    (0.8, 0.3, 0.7); omega = 0 and pi at p = 0.3, 0.7, 1.1), but not at
    (0.8, 0.3) and omega = +-1.409 or +-0.47.  In a band gap, where the
    route has no principal-value term, it raises DomainError.  Depends on
    (nu, p, omega_target) only, not on chi.

    Gamma(z) depends on z = exp(-i*omega) only, so omega_target is first
    reduced to its principal representative in (-pi, pi]; the crossing
    selection below (keep sin(2k) >= 0 when omega >= 0, sin(2k) < 0 when
    omega < 0) is only valid on that branch -- other representatives of
    the same z select the mirrored crossings and give a different, wrong
    matrix.  A crossing on sin(2k) = 0 (at k = 0, +-pi/2 or pi, where it
    meets its mirror at -k or k + pi) takes the side it moves to as omega
    moves toward the middle of its branch, +-pi/2, so that it counts once,
    as on either side of that omega.  Each kept crossing contributes its
    projector over the signed slope of the band-pair energy; the
    slope-independent remainder is a fixed diagonal in the corner entries,
    with scalar form validated against the quadrature route.
    """
    _check_gamma_args(params, p, omega_target)
    d = params.dispersion
    omega_c = float(wrap_momentum(omega_target))
    return _gamma_from_roots(d, p, omega_c, _band_pair_roots(d, p, [omega_c])[0])


def _pair_slope(d: Dispersion, s1: int, s2: int, p: float, k: float) -> float:
    """d/dk of the band-pair energy s1*w(p+k) + s2*w(p-k)."""
    return float(s1 * d.omega_prime(p + k) - s2 * d.omega_prime(p - k))


def _gamma_from_roots(d: Dispersion, p: float, omega_c: float,
                      pair_roots: list) -> GammaMatrix:
    """gamma_matrix's block from one target's ``_band_pair_roots`` entry.

    omega_c is already on the principal branch.  Raises StationaryPointError
    for bands flat to double precision (the crossing solve divides by nu^2)
    or, in pair order, for a kept crossing with near-zero slope; then the
    PoleError of a diverging remainder entry; then DomainError where no
    crossing is kept.
    """
    if d.omega(0.0) == d.omega(np.pi):
        raise StationaryPointError(
            f"the bands are flat to double precision at nu = {d.nu}: every "
            "crossing is stationary"
        )
    positive = omega_c >= 0.0
    toward = 1.0 if omega_c < (_HALF_PI if positive else -_HALF_PI) else -1.0
    total = np.zeros((4, 4), dtype=complex)
    kept: list[tuple[float, int, int]] = []
    for (s1, s2), roots in zip(_BAND_PAIRS, pair_roots):
        for kr in roots:
            s2k = np.sin(2.0 * kr)
            slope = _pair_slope(d, s1, s2, p, kr)
            if abs(s2k) <= 1e-12:
                if abs(slope) >= STATIONARY_TOL:
                    # sign of sin(2k) after omega moves by `toward`
                    s2k = np.cos(2.0 * kr) * toward * slope
            keep = (s2k >= -1e-12) if positive else (s2k < 1e-12)
            if not keep:
                continue
            if abs(slope) < STATIONARY_TOL:
                raise StationaryPointError(
                    f"band pair ({s1:+d},{s2:+d}) crosses omega = {omega_c} "
                    f"with near-zero slope at k = {kr}"
                )
            v = _pair_vector(d, s1, s2, p, kr)
            total += np.outer(v, v) / slope
            kept.append((float(kr), s1, s2))

    for idx, h in ((0, omega_c + 2.0 * p), (3, omega_c - 2.0 * p)):
        den = np.exp(-1j * h) - 1.0
        if abs(den) < 1e-12:
            raise PoleError(
                f"remainder entry {idx} diverges: omega {omega_c} and "
                f"total momentum {p} satisfy omega {'+' if idx == 0 else '-'} "
                "2p = 0 mod 2pi"
            )
        total[idx, idx] += 1.0 / den
    total[2, 2] += -1.0
    if not kept:
        raise DomainError(
            f"omega = {omega_c} lies in a band gap at total momentum {p}: no "
            "band pair crosses it, and the residue route leaves out the "
            "principal-value term Gamma has there"
        )

    return GammaMatrix(z=complex(np.exp(-1j * omega_c)), block=total,
                       roots=tuple(kept))


# ---------------------------------------------------------------------------
# Gamma(z): regularized-quadrature route
# ---------------------------------------------------------------------------

def gamma_quadrature(params: ThirringParams, p: float,
                     omega_target: float) -> GammaMatrix:
    """Gamma via the Brillouin integral at z = exp(-i*omega + eps).

    The integrand has poles of width eps/|slope| in k, so the grid must
    resolve them: the node-average error decays like exp(-n*eps/|slope|),
    and GAMMA_QUAD_N * eps stays well above the largest band slope (about
    2/mu) for every eps in GAMMA_EPS.  The eps -> 0 limit is taken
    entrywise by polynomial extrapolation through the schedule.
    """
    _check_gamma_args(params, p, omega_target)
    d = params.dispersion
    omega_c = float(wrap_momentum(omega_target))
    kk = bz_grid(GAMMA_QUAD_N)

    # band data on the grid, reused across the schedule
    pair_data = []
    for s1 in (+1, -1):
        for s2 in (+1, -1):
            w12 = s1 * d.omega(p + kk) + s2 * d.omega(p - kk)
            u1 = np.stack(d.alpha(s1, p + kk))
            u2 = np.stack(d.alpha(s2, p - kk))
            v = np.einsum("an,bn->abn", u1, u2).reshape(4, GAMMA_QUAD_N)
            proj = np.einsum("in,jn->nij", v, v)
            pair_data.append((w12, proj))

    evals = []
    for eps in GAMMA_EPS:
        z = np.exp(-1j * omega_c + eps)
        acc = np.zeros((4, 4), dtype=complex)
        for w12, proj in pair_data:
            weights = 1.0 / (z * np.exp(1j * w12) - 1.0)
            if not np.all(np.isfinite(weights)):
                raise PoleError("regularized integrand is singular; "
                                "eps schedule reached the unit circle")
            acc += np.tensordot(weights, proj, axes=(0, 0)) / GAMMA_QUAD_N
        evals.append(acc)

    block = epsilon_extrapolate(evals, GAMMA_EPS).value
    return GammaMatrix(z=complex(np.exp(-1j * omega_c)), block=block)


# ---------------------------------------------------------------------------
# Closed forms and Born series
# ---------------------------------------------------------------------------

def _amplitude_coefficient(lam: complex, x: float, y: float) -> complex:
    # Python complex arithmetic: numpy's complex division rounds differently
    x, y = on_shell_xy(x, y)
    den = (lam + 1.0) * x + y
    if abs(den) < 1e-12:
        raise ResonancePoleError(
            f"amplitude denominator (lam+1)x + y = {den} vanishes"
        )
    return lam * (y - x) / (2.0 * den)


def amplitude_pp(params: ThirringParams, p: float, k: float) -> AmplitudeRecord:
    """Elastic scattering coefficient for the (+, +) band pair.

    coefficient = lam (y - x) / (2 ((lam+1) x + y)), attached to the
    momentum-conserving delta in k with channel labels (p, k, +, +), with
    (x, y) taken by on_shell_xy: for pi/2 < |p| < pi, where the band-pair
    slope is negative, the coefficient is the conjugate of that formula.
    Unitary on its own: |1 + c|^2 + |c|^2 = 1 identically.
    """
    if not 0.0 <= k <= _HALF_PI:
        raise DomainError(
            f"relative momentum k = {k} outside the analyzed branch [0, pi/2]"
        )
    f = xy_factors(params, p, k)
    c = _amplitude_coefficient(params.lam, f.x, f.y)
    ch = channel(params, p, k, +1, +1)
    return AmplitudeRecord(in_channel=ch, out_channel=ch, comb_index=0,
                           coefficient=c)


# points per array pass of amplitude_pp_grid: one block's float64
# temporaries (32 KiB) stay below malloc's mmap threshold, so the heap
# recycles them; whole-sweep temporaries raised a 20 000-point sweep's peak
# RSS by 0.3-0.4 MB
_GRID_BLOCK = 4096


def amplitude_pp_grid(params: ThirringParams, p, k) -> list:
    """amplitude_pp's coefficient at every point (p[i], k[i]) in one pass.

    p and k are 1-d sequences of one length.  Entry i holds the bits of
    ``amplitude_pp(params, p[i], k[i]).coefficient``, or None where that
    call raises: nu = 1, k outside [0, pi/2], p on a multiple of pi/2, or
    a vanishing denominator.  The coefficient is evaluated on arrays, block
    by block, with each complex operation of _amplitude_coefficient spelled
    out as the float64 arithmetic CPython performs: a float operand is the
    complex (f, 0.0), products follow _Py_c_prod, and the quotient follows
    _Py_c_quot, whose branch (|b.real| >= |b.imag| or not) is chosen point
    by point.  The result is written into a complex array's real and
    imaginary parts, which keeps signed zeros.
    """
    p = np.asarray(p, dtype=float)
    k = np.asarray(k, dtype=float)
    if params.nu >= 1.0:
        return [None] * p.size
    out = []
    for lo in range(0, p.size, _GRID_BLOCK):
        out += _grid_block(params, p[lo:lo + _GRID_BLOCK], k[lo:lo + _GRID_BLOCK])
    return out


def _grid_block(params: ThirringParams, p: np.ndarray, k: np.ndarray) -> list:
    valid = (0.0 <= k) & (k <= _HALF_PI) & ~_degenerate_total_momentum(p)
    (index,) = np.nonzero(valid)
    f = xy_factors(params, p[index], k[index])
    swap = f.x * f.x > f.y * f.y                  # on_shell_xy
    x = np.where(swap, f.y, f.x)
    y = np.where(swap, f.x, f.y)
    del f, swap
    # in place where the order of operations allows: fewer temporaries
    # leave a sweep's peak RSS where the scalar loop left it
    lam = params.lam
    c_re, c_im = lam.real + 1.0, lam.imag + 0.0   # lam + 1.0
    # den = (lam + 1.0) * x + y
    den_re = c_re * x
    den_re -= c_im * 0.0
    den_re += y
    den_im = c_im * x
    den_im += c_re * 0.0
    den_im += 0.0
    valid[index] = np.hypot(den_re, den_im) >= 1e-12
    # b = 2.0 * den, held in den_re / den_im
    zero_re, zero_im = den_re * 0.0, den_im * 0.0
    den_re *= 2.0
    den_re -= zero_im
    den_im *= 2.0
    den_im += zero_re
    del zero_re, zero_im
    # a = lam * (y - x)
    y -= x
    a_re = lam.real * y
    a_re -= lam.imag * 0.0
    a_im = lam.imag * y
    a_im += lam.real * 0.0
    del x, y
    # a / b: _Py_c_quot's |b.real| < |b.imag| branch is its other branch
    # with real and imaginary parts exchanged in a and b, apart from the
    # order of the numerator's imaginary difference
    real_first = np.abs(den_re) >= np.abs(den_im)
    bp = np.where(real_first, den_re, den_im)
    bq = np.where(real_first, den_im, den_re)
    ap = np.where(real_first, a_re, a_im)
    aq = np.where(real_first, a_im, a_re)
    del den_re, den_im, a_re, a_im
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = bq / bp
        bq *= ratio
        bp += bq                                  # the quotient's denominator
        num_re = aq * ratio
        num_re += ap
        ratio *= ap
        num_im = np.where(real_first, aq - ratio, ratio - aq)
        coeff = np.zeros(p.size, dtype=complex)
        coeff.real[index] = num_re / bp
        coeff.imag[index] = num_im / bp
    out = coeff.tolist()
    for i in np.flatnonzero(~valid).tolist():
        out[i] = None
    return out


def umklapp_amplitudes(params: ThirringParams, p: float, k: float
                       ) -> tuple[AmplitudeRecord, AmplitudeRecord, AmplitudeRecord]:
    """The elastic record and its two sign-locked partners.

    With c the (+,+) elastic coefficient at (p, k):
      1. (+,+) -> (+,+) at k, coefficient +c, no quasi-energy jump;
      2. (+,+) -> (-,-) at k - pi, coefficient -c, quasi-energy drops by
         exactly 2pi (comb index -1): the band flip is allowed only
         because quasi-energy is conserved modulo 2pi;
      3. (-,-) -> (-,-) elastic at k - pi, coefficient +c.
    The three coefficients are built from one evaluation of c, so the
    sign relations hold bit-for-bit.
    """
    rec_pp = amplitude_pp(params, p, k)
    c = rec_pp.coefficient
    ch_in = rec_pp.in_channel
    ch_mm = channel(params, p, k - np.pi, -1, -1)
    rec_flip = AmplitudeRecord(in_channel=ch_in, out_channel=ch_mm,
                               comb_index=-1, coefficient=-c,
                               note="band flip across the zone edge")
    rec_mm = AmplitudeRecord(in_channel=ch_mm, out_channel=ch_mm,
                             comb_index=0, coefficient=+c)
    return rec_pp, rec_flip, rec_mm


@dataclass(frozen=True)
class BornSeries:
    """Partial sums sum_{n<=N} lam^{n+1} <w|Gamma^n|w> and diagnostics.

    partial_sums[N] is the N-th partial sum; term_ratios[N] =
    |term_{N+1}/term_N| (geometric for this model, ratio |lam| x/(x+y)
    with (x, y) taken by on_shell_xy).
    """

    partial_sums: np.ndarray
    term_ratios: np.ndarray

    @property
    def converged(self) -> bool:
        return bool(self.term_ratios.size) and float(self.term_ratios[-1]) < 1.0


def born_series_thirring(params: ThirringParams, p: float, k: float,
                         n_max: int) -> BornSeries:
    """Born partial sums for the elastic (+,+) weight at (p, k).

    Uses the full 4x4 pole-route Gamma at the pair energy; the
    antisymmetric weight w is an eigenvector of Gamma, so the terms are
    exactly geometric and the sums converge to <w|T|w> with T the closed
    form (divide by |jacobian_pp| to recover the amplitude).  The
    one-point case of ``born_series_grid``.
    """
    (series,) = born_series_grid(params, p, [k], n_max)
    if isinstance(series, DtScatterError):
        raise series
    return series


def born_series_grid(params: ThirringParams, p: float, ks,
                     n_max: int) -> list:
    """Born partial sums at every relative momentum of ks, at one total p.

    Entry i is the BornSeries of ``born_series_thirring(params, p, ks[i],
    n_max)``, or the DtScatterError that call raises; n_max < 1 raises
    DomainError for the whole grid.  One ``_band_pair_roots`` call finds
    the crossings of every point's pair energy, and the Gamma blocks are
    assembled point by point.  The power loop then runs on the stacked
    blocks of BORN_BLOCK points: each order takes one batched ``np.matmul``
    for the block's <w|vec> and one for its Gamma vec, which give every
    point the bits of its own ``w @ vec`` and ``g @ vec``.  The coupling
    powers lam^(n+1) are Python complex powers, one per order; the first
    that leaves the float range fails every point that has a Gamma block.
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    d = params.dispersion
    out: list = [None] * len(ks)
    pending = []
    for i, k in enumerate(ks):
        omega = two_particle_omega(params, p, k, +1, +1)
        try:
            _check_gamma_args(params, p, omega)
        except DtScatterError as exc:
            out[i] = exc
        else:
            pending.append((i, k, float(wrap_momentum(omega))))
    solved = _band_pair_roots(d, p, [omega_c for _, _, omega_c in pending])
    lam = params.lam
    powers = np.empty(n_max + 1, dtype=complex)
    overflow = None
    try:
        for n in range(n_max + 1):
            powers[n] = lam ** (n + 1)
    except OverflowError:
        overflow = (f"Born term of order {n + 1} overflows: |lam|^{n + 1} "
                    f"passes the float range (|lam| = {abs(lam):.6g})")
    for start in range(0, len(pending), BORN_BLOCK):
        index, gammas, weights = [], [], []
        for (i, k, omega_c), roots in zip(pending[start:start + BORN_BLOCK],
                                          solved[start:start + BORN_BLOCK]):
            try:
                gamma = _gamma_from_roots(d, p, omega_c, roots).block
            except DtScatterError as exc:
                out[i] = exc
                continue
            if overflow is not None:
                out[i] = DomainError(overflow)
                continue
            index.append(i)
            gammas.append(gamma)
            weights.append(w_vector(params, p, k))
        if not index:
            continue
        # Gamma commutes exactly with swapping the two coin factors (k -> -k
        # in the defining integral), which is what makes w an eigenvector and
        # the terms geometric.  The evaluated block carries rounding-level
        # asymmetry that power iteration would amplify, so enforce the
        # symmetry.
        sw = [0, 2, 1, 3]
        g = np.stack(gammas)
        g = 0.5 * (g + g[:, sw][:, :, sw])
        w = np.stack(weights).astype(complex)[:, None, :]   # rows <w|
        vec = w.reshape(len(index), 4, 1)                   # columns |w>
        dots = np.empty((n_max + 1, len(index), 1, 1), dtype=complex)
        for n in range(n_max + 1):
            np.matmul(w, vec, out=dots[n])
            vec = np.matmul(g, vec)
        # a term past the float range is inf or nan, as a scalar product is;
        # numpy's vector loop can also raise the overflow flag in lanes that
        # hold no point, so the flags are not reported
        with np.errstate(over="ignore", invalid="ignore"):
            terms = np.multiply(powers, dots[:, :, 0, 0].T, order="C")
        sums = np.cumsum(terms, axis=1)
        mags = np.abs(terms)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(mags[:, :-1] > 0.0,
                              mags[:, 1:] / mags[:, :-1], 0.0)
        for row, i in enumerate(index):
            out[i] = BornSeries(partial_sums=sums[row], term_ratios=ratios[row])
    return out
