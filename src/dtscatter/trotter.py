"""Stepwise (Trotterized) vs continuous-time scattering on bounded models.

A continuous-time model is a Hermitian H0 with spectrum in [0, omega_M]
plus a bounded finite-support potential V.  Its stepped counterpart
evolves by U = exp(-i*H0*tau) * exp(-i*V*tau) once per time step tau.
This module quantifies how the stepped T operator

    T~(z) = (I - W~ G~0(z))^{-1} W~,   W~ = (i/tau)(exp(-i*V*tau) - I),
    G~0(z) = -i*tau / (exp(-i*(z - H0)*tau) - I)

approaches the continuous one T(z) = (I - V G0)^{-1} V as tau -> 0, and
certifies a step threshold m* below which the stepped Born series is a
contraction.

The potential is local: it acts on r sites of an n-site model, so
V = U Lambda U^H with r orthonormal columns U.  With B = U^H E (E the
eigenbasis of H0, energies e) and A(m) = B diag(m) B^H, both T operators
live on the support,

    T  = U X U^H,   X  = (I - Lambda A(1/(z - e)))^{-1} Lambda,
    T~ = U X~ U^H,  X~ = (I - D A(m~))^{-1} D,

with D = (i/tau)(exp(-i*Lambda*tau) - 1) and m~ the stepped Green
multipliers.  So the sweep's gap ||T~ - T|| = ||X~ - X|| and its
predicted prefactor are r x r algebra after one O(n r^2) product per
step.  The model itself holds only these factors (energies e, the r x r
block of V and the r x n rows of E on the support), never an n x n
matrix.  The dense references the support form is tested against
(H0 and V as matrices, G0, T, the E-based T~ and their difference)
live in the test suite's ``tests/oracles.py``.  The reference model for
sweeps is a nearest-neighbour hopping ring with a few-site potential
(``hopping_ring_model``), which satisfies the bounded-spectrum and
weak-potential assumptions exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AssumptionViolationError,
    DomainError,
    InsufficientDataError,
    PoleError,
)

# constants of the certified bound chain; exact values (3pi+4)/(4pi) and
# (pi+2)/(4pi) from the half/half-f/half-q coefficient bookkeeping
A1_BOUND = (3.0 * np.pi + 4.0) / (4.0 * np.pi)
A2_BOUND = (np.pi + 2.0) / (4.0 * np.pi)


def bernoulli_f(x):
    """f(x) = (1/x)(1 - x/tan(x)) with f(0) = 0; odd, nondecreasing.

    The Laurent deficit of the stepped Green multiplier: holomorphic for
    |x| < pi, with f(pi/2) = 2/pi the maximum on [0, pi/2].
    """
    x = np.asarray(x, dtype=complex)
    small = np.abs(x) < 1e-4
    xs = np.where(small, 1.0, x)  # keep the formula branch finite
    direct = (1.0 - xs / np.tan(xs)) / xs
    series = x / 3.0 + x**3 / 45.0
    out = np.where(small, series, direct)
    if out.ndim == 0:
        out = out[()]
    return out.real if np.isrealobj(np.asarray(x)) else out


def q_kernel(y):
    """q(y) = (-i - y + i e^{-iy}) / y^2 with q(0) = -i/2; |q| <= 1/2.

    Scalar kernel of the quadratic remainder of W~: applied to the
    eigenvalues of V*tau it gives Q(tau) with W~ = V + tau Q V^2.
    """
    y = np.asarray(y, dtype=complex)
    small = np.abs(y) < 1e-4
    ys = np.where(small, 1.0, y)
    direct = (-1j - ys + 1j * np.exp(-1j * ys)) / ys**2
    series = -0.5j - y / 6.0 + 1j * y**2 / 24.0 + y**3 / 120.0
    out = np.where(small, series, direct)
    return out[()] if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class ContinuousModel:
    """Bounded Hamiltonian pair (H0, V) in factored form, with a reference energy.

    H0 = E diag(evals) E^H has its spectrum in [0, omega_max]; V acts on
    the r sites ``support`` as the Hermitian r x r ``v_block``.  Only the
    r x n rows ``support_evecs`` = E[support] of the orthonormal eigenbasis
    E are held, so no n x n matrix is ever formed and the set-up is O(r n).
    gamma = ||G0(omega_ref + i*eps_ref) V|| is the Born contraction estimate
    at the reference point; the Born route needs gamma < 1.

    Only the r x r block is diagonalized: v_evals (length r) and
    block_evecs (r x r) give V = U diag(v_evals) U^H with U = ``v_evecs``
    (n x r, block_evecs on the support rows), and v_basis = U^H E (r x n)
    is the potential's eigenvectors in the eigenbasis of h0.  These serve
    the stepped potential W~ at every step size and the r x r form of both
    T operators.
    """

    evals: np.ndarray
    support: np.ndarray
    v_block: np.ndarray
    support_evecs: np.ndarray
    omega_ref: float
    eps_ref: float

    def __post_init__(self):
        evals = np.asarray(self.evals)
        if (evals.ndim != 1 or evals.size == 0 or np.iscomplexobj(evals)
                or not np.all(np.isfinite(evals))):
            raise DomainError("evals must be a non-empty vector of finite "
                              "real energies")
        evals = evals.astype(float, copy=False)
        if evals.min() < -1e-10:
            raise DomainError(
                f"h0 spectrum must start at 0, found min {evals.min()}"
            )
        n = evals.size
        support = np.asarray(self.support)
        if support.size == 0:
            support = support.astype(int)
        if (support.ndim != 1 or support.dtype.kind not in "iu"
                or len(set(support.tolist())) != support.size
                or support.min(initial=0) < 0
                or support.max(initial=0) >= n):
            raise DomainError(f"support must hold distinct site indices in "
                              f"[0, {n}), got {self.support}")
        r = support.size
        v_block = np.asarray(self.v_block, dtype=complex)
        if v_block.shape != (r, r):
            raise DomainError(f"v_block must be {r} x {r} (one row per "
                              f"support site), got shape {v_block.shape}")
        if (np.abs(v_block - v_block.conj().T).max(initial=0.0)
                > 1e-12 * max(1.0, np.abs(v_block).max(initial=0.0))):
            raise DomainError("v_block must be Hermitian")
        support_evecs = np.asarray(self.support_evecs, dtype=complex)
        if support_evecs.shape != (r, n):
            raise DomainError(f"support_evecs must be {r} x {n} (the "
                              f"eigenbasis rows on the support), got shape "
                              f"{support_evecs.shape}")
        v_evals, block_evecs = np.linalg.eigh(v_block)
        v_basis = block_evecs.conj().T @ support_evecs
        # V is Hermitian, so its spectral norm is its largest |eigenvalue|
        v_norm = float(np.abs(v_evals).max(initial=0.0))
        derived = dict(evals=evals, support=support, v_block=v_block,
                       support_evecs=support_evecs, v_evals=v_evals,
                       block_evecs=block_evecs, v_basis=v_basis,
                       omega_max=float(evals.max()), v_norm=v_norm)
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        # G0 V = E diag(g) B^H Lambda U^H with E unitary and U orthonormal
        g = self.resolvent_multipliers(self.omega_ref + 1j * self.eps_ref)
        g0v = g[:, None] * (v_basis.conj().T * v_evals)
        object.__setattr__(self, "gamma", float(np.linalg.norm(g0v, 2)))

    @property
    def dim(self) -> int:
        return self.evals.size

    @property
    def v_evecs(self) -> np.ndarray:
        """The n x r orthonormal columns U of V = U diag(v_evals) U^H."""
        out = np.zeros((self.dim, self.support.size), dtype=complex)
        out[self.support] = self.block_evecs
        return out

    def resolvent_multipliers(self, z: complex) -> np.ndarray:
        """1/(z - e) over the spectrum e of h0, the eigenvalues of G0(z)."""
        zdist = np.abs(z - self.evals)
        if zdist.min() < 1e-14:
            raise PoleError(f"z = {z} sits on the spectrum of h0")
        return 1.0 / (z - self.evals)

    def on_support(self, mult: np.ndarray) -> np.ndarray:
        """r x r compression U^H (E diag(mult) E^H) U = B diag(mult) B^H."""
        b = self.v_basis
        return (b * mult) @ b.conj().T


def hopping_ring_model(n: int = 128, omega_max: float = 2.0,
                       v_sites: tuple = (0, 1, 5, 9),
                       v_values: tuple = (0.10, -0.08, 0.06, 0.07),
                       mode_index: int = 32,
                       eps_ref: float = 0.2) -> ContinuousModel:
    """Reference sweep model: nearest-neighbour ring plus few-site potential.

    H0 = 2J(1 - cos k) with J = omega_max/4, so the spectrum fills
    [0, omega_max] exactly; V is diagonal on at most four distinct sites,
    weak enough that the Born contraction at the reference energy stays
    below one half.  The support is the sites with a nonzero value, in
    increasing order.  The analytic plane-wave basis is used, so mode
    indices mean momentum numbers m (k_m = 2*pi*m/n, energies sorted by
    |m| pairs as produced here, not by magnitude); only its r rows on the
    support are built, so the model costs O(r n) memory and time.
    """
    if len(v_sites) > 4 or len(v_sites) != len(v_values):
        raise DomainError("potential support limited to at most 4 sites")
    if not all(0 <= s < n for s in v_sites):
        raise DomainError(f"potential sites {v_sites} do not fit a ring of "
                          f"{n} sites")
    if len(set(v_sites)) != len(v_sites):
        raise DomainError(f"potential sites {v_sites} repeat a site")
    if not 0 <= mode_index < n:
        raise DomainError(f"mode_index must lie in [0, n) = [0, {n}), "
                          f"got {mode_index}")
    j_hop = omega_max / 4.0
    on_sites = sorted((s, val) for s, val in zip(v_sites, v_values) if val != 0)
    support = np.array([s for s, _ in on_sites], dtype=int)
    v_block = np.diag(np.array([val for _, val in on_sites], dtype=complex))
    modes = np.arange(n)
    kvals = 2.0 * np.pi * modes / n
    evals = 2.0 * j_hop * (1.0 - np.cos(kvals))
    support_evecs = np.exp(1j * np.outer(support, kvals)) / np.sqrt(n)
    return ContinuousModel(evals=evals, support=support, v_block=v_block,
                           support_evecs=support_evecs,
                           omega_ref=float(evals[mode_index]),
                           eps_ref=eps_ref)


# ---------------------------------------------------------------------------
# stepped side: U = exp(-i*H0*tau) * exp(-i*V*tau) at step tau > 0
# ---------------------------------------------------------------------------

def _check_tau(tau: float) -> None:
    if not tau > 0.0:
        raise DomainError(f"tau must be positive, got {tau}")


def green_discrete(model: ContinuousModel, tau: float,
                   z: complex) -> np.ndarray:
    """Stepped Green multipliers -i*tau/(exp(-i*(z-omega)*tau) - 1).

    Evaluated per point omega of the model spectrum.  The stepped
    evolution folds energies modulo 2*pi/tau, so the step must satisfy
    tau*omega_M < 2*pi to keep the physical band clear of its own
    replicas.
    """
    _check_tau(tau)
    if tau * model.omega_max >= 2.0 * np.pi:
        raise DomainError(
            f"tau*omega_M = {tau * model.omega_max:.3f} >= 2*pi: the spectrum "
            "wraps around the quasi-energy circle"
        )
    omega = model.evals
    den = np.exp(-1j * (z - omega) * tau) - 1.0
    bad = np.abs(den) < 1e-14
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise PoleError(
            f"(z - omega)*tau hits 2*pi*Z at omega = {omega[idx]}")
    return -1j * tau / den


def bernoulli_split(tau: float, omega_k, omega_grid):
    """Three-term split of the stepped Green multiplier.

    Returns (G0_part, constant_part, F_part) with

        multiplier = G0_part + constant_part - (tau/2) * F_part,
        G0_part = 1/(omega_k - omega),  F_part = f((omega_k - omega)*tau/2)

    valid while |(omega_k - omega)*tau/2| < pi.  The constant is +i*tau/2:
    the expansion -i*tau/(e^{-i*u*tau} - 1) = 1/u + i*tau/2 - (tau/2) f(u*tau/2)
    fixes its sign, which the reconstruction-vs-green_discrete check pins
    to 1e-12.
    """
    _check_tau(tau)
    omega = np.asarray(omega_grid, dtype=float)
    u = omega_k - omega
    x = u * tau / 2.0
    if np.abs(x).max() >= np.pi:
        raise DomainError(
            f"split argument max |x| = {np.abs(x).max():.3f} >= pi; "
            "the deficit function f is only holomorphic for |x| < pi"
        )
    g0_part = 1.0 / u
    f_part = bernoulli_f(x)
    return g0_part, 0.5j * tau, f_part


def w_tilde(model: ContinuousModel, tau: float):
    """Split W~ = V + tau * Q * V^2 of the stepped potential.

    Returns (V_part, Q_part) as dense matrices; Q is q_kernel applied to
    the eigenvalues of V*tau, so ||Q|| <= 1/2 with equality approached at
    tau -> 0.  Off the support V has eigenvalue 0, where Q is q(0) = -i/2.
    """
    _check_tau(tau)
    vvecs = model.v_evecs
    q0 = q_kernel(0.0)
    q = ((vvecs * (q_kernel(model.v_evals * tau) - q0)) @ vvecs.conj().T
         + q0 * np.eye(model.dim))
    v = np.zeros((model.dim, model.dim), dtype=complex)
    v[np.ix_(model.support, model.support)] = model.v_block
    return v, q


def w_tilde_direct(model: ContinuousModel, tau: float) -> np.ndarray:
    """W~ = (i/tau)(exp(-i*V*tau) - I) by exact diagonalization of V.

    Zero eigenvalues of V map to zero, so W~ = U D U^H on the support.
    """
    vvecs = model.v_evecs
    return (vvecs * _stepped_potential(model, tau)) @ vvecs.conj().T


def _stepped_potential(model: ContinuousModel, tau: float) -> np.ndarray:
    """Eigenvalues D = (i/tau)(exp(-i*Lambda*tau) - 1) of W~ on the support."""
    _check_tau(tau)
    return (1j / tau) * (np.exp(-1j * model.v_evals * tau) - 1.0)


def _t_on_support(model: ContinuousModel, w: np.ndarray,
                  g: np.ndarray) -> np.ndarray:
    """X = (I - W A(g))^{-1} W for W = diag(w) and G = A(g), both r x r."""
    eye = np.eye(w.size)
    return np.linalg.solve(eye - w[:, None] * model.on_support(g), np.diag(w))


def t_discrete_operator(model: ContinuousModel, tau: float,
                        z: complex) -> np.ndarray:
    """Dense stepped T~(z) = U X~ U^H, assembled from its support form."""
    x_disc = _t_on_support(model, _stepped_potential(model, tau),
                           green_discrete(model, tau, z))
    vvecs = model.v_evecs
    return vvecs @ x_disc @ vvecs.conj().T


# ---------------------------------------------------------------------------
# the certified threshold
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Contraction bookkeeping for the stepped Born kernel at step tau.

    gamma_prime and gamma_double_prime are the linear and quadratic
    coefficients of the certified bound
    ||W~ G~0|| <= gamma + tau*gamma' + tau^2*gamma''; m_star is the step
    threshold below which the kernel is provably a contraction; verdict
    says whether the evaluation step is certified (tau <= m_star).
    """

    gamma: float
    gamma_prime: float
    gamma_double_prime: float
    m_star: float
    f_bound: float
    q_bound: float
    tau: float
    verdict: bool


def tau_threshold(model: ContinuousModel, tau: float | None = None) -> BoundReport:
    """Certified step threshold m* and the bound constants at step tau.

    m* = min((sqrt(2 - gamma) - 1)/|V|, pi/omega_M); the report is
    evaluated at tau (default m*), with |F| <= f(omega_M*tau/2) and
    |Q| <= 1/2 feeding gamma' = |V|(1 + |F| + gamma*|Q|)/2 and
    gamma'' = |V|^2 |Q| (1 + |F|)/2.
    """
    gamma = model.gamma
    v_norm = model.v_norm
    if gamma >= 1.0:
        raise AssumptionViolationError(
            f"Born contraction gamma = {gamma:.3f} >= 1; no step is certified"
        )
    # with V = 0 the weak-potential branch puts no limit on the step
    weak = (np.sqrt(2.0 - gamma) - 1.0) / v_norm if v_norm > 0.0 else np.inf
    m_star = min(weak, np.pi / model.omega_max)
    if tau is None:
        tau = m_star
    f_bound = float(np.real(bernoulli_f(model.omega_max * tau / 2.0)))
    q_bound = 0.5
    gamma_prime = 0.5 * v_norm * (1.0 + f_bound + gamma * q_bound)
    gamma_double_prime = 0.5 * v_norm**2 * q_bound * (1.0 + f_bound)
    return BoundReport(gamma=gamma, gamma_prime=gamma_prime,
                       gamma_double_prime=gamma_double_prime,
                       m_star=float(m_star), f_bound=f_bound,
                       q_bound=q_bound, tau=float(tau),
                       verdict=bool(tau <= m_star))


# ---------------------------------------------------------------------------
# the gap and its scaling
# ---------------------------------------------------------------------------

def fit_loglog_slope(taus, values) -> tuple[float, float]:
    """Least-squares (slope, intercept) of log(values) against log(taus)."""
    taus = np.asarray(taus, dtype=float)
    values = np.asarray(values, dtype=float)
    if taus.size < 2 or np.any(taus <= 0) or np.any(values <= 0):
        raise InsufficientDataError(
            "slope fit needs >= 2 strictly positive (tau, value) pairs"
        )
    slope, intercept = np.polyfit(np.log(taus), np.log(values), 1)
    return float(slope), float(intercept)


@dataclass(frozen=True, eq=False)
class SweepReport:
    """Fitted scaling of ||T~ - T|| over a geometric tau grid.

    prefactor = exp(intercept) is the fitted constant c in
    gap ~ c * tau^slope; predicted_prefactor = ||T (H0 + V - z) T|| / 12
    is the constant the derived law gap ~ c * tau^2 predicts at the
    sweep's z.
    """

    taus: np.ndarray
    gaps: np.ndarray
    slope: float
    intercept: float
    prefactor: float
    predicted_prefactor: float


def convergence_sweep(model: ContinuousModel, tau_grid) -> SweepReport:
    """Fit the decay exponent of the stepped-vs-continuous T gap.

    Evaluates ||T~(z) - T(z)||_2 = ||X~ - X||_2 at z = omega_ref + i*eps_ref
    over the given geometric grid of steps (>= 4 points required) and
    returns the log-log slope and prefactor beside the predicted one.
    Every norm and solve is r x r on the support of V (module docstring).
    """
    taus = np.asarray(tau_grid, dtype=float)
    if taus.size >= 2:
        ratios = taus[1:] / taus[:-1]
        if np.abs(ratios - ratios[0]).max() > 1e-8:
            raise DomainError("tau grid must be geometric")
    z = complex(model.omega_ref + 1j * model.eps_ref)
    lam = model.v_evals
    x_cont = _t_on_support(model, lam, model.resolvent_multipliers(z))
    gaps = []
    valid = []
    for tau in taus:
        try:
            x_disc = _t_on_support(model,
                                   _stepped_potential(model, float(tau)),
                                   green_discrete(model, float(tau), z))
        except (PoleError, DomainError):
            continue
        gap = float(np.linalg.norm(x_disc - x_cont, 2))
        if np.isfinite(gap) and gap > 0.0:
            valid.append(float(tau))
            gaps.append(gap)
    if len(valid) < 4:
        raise InsufficientDataError(
            f"only {len(valid)} valid sweep points; need at least 4"
        )
    slope, intercept = fit_loglog_slope(valid, gaps)
    # U^H (H0 + V - z) U = B diag(e) B^H + Lambda - z
    shifted = (model.on_support(model.evals) + np.diag(lam)
               - z * np.eye(lam.size))
    predicted = np.linalg.norm(x_cont @ shifted @ x_cont, 2) / 12.0
    return SweepReport(taus=np.asarray(valid), gaps=np.asarray(gaps),
                       slope=slope, intercept=intercept,
                       prefactor=float(np.exp(intercept)),
                       predicted_prefactor=float(predicted))
