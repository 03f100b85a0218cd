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
step.  The dense n x n operators (``t_continuous_operator``,
``t_discrete_operator``, ``t_difference``) are kept as the reference the
support form is tested against.  The reference model for sweeps is a
nearest-neighbour hopping ring with a few-site potential
(``hopping_ring_model``), which satisfies the bounded-spectrum and
weak-potential assumptions exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AssumptionViolationError,
    DomainError,
    InsufficientDataError,
    PoleError,
    UncertifiedRegimeWarning,
)
from .lippmann import TMatrixEval

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
    """Dense bounded Hamiltonian pair (H0, V) with a reference energy.

    h0 must be Hermitian with spectrum in [0, omega_max]; v is the
    potential.  gamma = ||G0(omega_ref + i*eps_ref) V|| is the Born
    contraction estimate at the reference point; the Born route needs
    gamma < 1.  An orthonormal eigenbasis of h0 may be supplied (e.g. the
    analytic plane-wave basis of a ring); otherwise one is computed.

    The support of v is the set of its nonzero rows and columns (r sites).
    Only that r x r block is diagonalized: v_evals (length r) and v_evecs
    (n x r, orthonormal columns U) give V = U diag(v_evals) U^H, and
    v_basis = U^H E (r x n) is the potential's eigenvectors in the
    eigenbasis E of h0.  These serve the stepped potential W~ at every
    step size and the r x r form of both T operators.
    """

    h0: np.ndarray
    v: np.ndarray
    omega_ref: float
    eps_ref: float
    basis: tuple | None = None

    def __post_init__(self):
        h0 = np.asarray(self.h0, dtype=complex)
        v = np.asarray(self.v, dtype=complex)
        if h0.shape != v.shape or h0.ndim != 2 or h0.shape[0] != h0.shape[1]:
            raise DomainError("h0 and v must be square matrices of equal size")
        if np.abs(h0 - h0.conj().T).max() > 1e-12 * max(1.0, np.abs(h0).max()):
            raise DomainError("h0 must be Hermitian")
        if np.abs(v - v.conj().T).max() > 1e-12 * max(1.0, np.abs(v).max(), 1e-30):
            raise DomainError("v must be Hermitian")
        if self.basis is None:
            evals, evecs = np.linalg.eigh(h0)
        else:
            evals, evecs = self.basis
            evals = np.asarray(evals, dtype=float)
            evecs = np.asarray(evecs, dtype=complex)
        if evals.min() < -1e-10:
            raise DomainError(
                f"h0 spectrum must start at 0, found min {evals.min()}"
            )
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "evals", evals)
        object.__setattr__(self, "evecs", evecs)
        nonzero = v != 0
        support = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
        v_evals, block_evecs = np.linalg.eigh(v[np.ix_(support, support)])
        v_evecs = np.zeros((h0.shape[0], support.size), dtype=complex)
        v_evecs[support] = block_evecs
        v_basis = block_evecs.conj().T @ evecs[support]
        object.__setattr__(self, "v_evals", v_evals)
        object.__setattr__(self, "v_evecs", v_evecs)
        object.__setattr__(self, "v_basis", v_basis)
        object.__setattr__(self, "omega_max", float(evals.max()))
        # V is Hermitian, so its spectral norm is its largest |eigenvalue|
        object.__setattr__(self, "v_norm",
                           float(np.abs(v_evals).max(initial=0.0)))
        # G0 V = E diag(g) B^H Lambda U^H with E unitary and U orthonormal
        g = self.resolvent_multipliers(self.omega_ref + 1j * self.eps_ref)
        g0v = g[:, None] * (v_basis.conj().T * v_evals)
        object.__setattr__(self, "gamma", float(np.linalg.norm(g0v, 2)))

    @property
    def dim(self) -> int:
        return self.h0.shape[0]

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

    def green_continuous(self, z: complex) -> np.ndarray:
        """Dense resolvent G0(z) = (z - H0)^{-1}."""
        self.resolvent_multipliers(z)  # PoleError on the spectrum of h0
        return np.linalg.inv(z * np.eye(self.dim) - self.h0)


def hopping_ring_model(n: int = 128, omega_max: float = 2.0,
                       v_sites: tuple = (0, 1, 5, 9),
                       v_values: tuple = (0.10, -0.08, 0.06, 0.07),
                       mode_index: int = 32,
                       eps_ref: float = 0.2) -> ContinuousModel:
    """Reference sweep model: nearest-neighbour ring plus few-site potential.

    H0 = 2J(1 - cos k) with J = omega_max/4, so the spectrum fills
    [0, omega_max] exactly; V is diagonal on at most four distinct sites,
    weak enough that the Born contraction at the reference energy stays
    below one half.  The analytic plane-wave basis is attached so mode indices
    mean momentum numbers m (k_m = 2*pi*m/n, energies sorted by |m|
    pairs as produced here, not by magnitude).
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
    return ContinuousModel(h0=h0, v=v, omega_ref=omega_ref, eps_ref=eps_ref,
                           basis=(evals, evecs))


# ---------------------------------------------------------------------------
# continuous side
# ---------------------------------------------------------------------------

def t_continuous_operator(model: ContinuousModel, z: complex) -> np.ndarray:
    """Dense T(z) = (I - V G0(z))^{-1} V."""
    g0 = model.green_continuous(z)
    lhs = np.eye(model.dim) - model.v @ g0
    return np.linalg.solve(lhs, model.v)


def t_continuous(model: ContinuousModel, k: int, kp: int,
                 eps: float) -> TMatrixEval:
    """On-shell element <k'|T(omega_k + i*eps)|k> between h0 eigenmodes.

    k and kp are eigenbasis column indices.  Requires the model's Born
    contraction estimate gamma < 1; the returned residual is the operator
    defect ||T - V - V G0 T||.
    """
    if model.gamma >= 1.0:
        raise AssumptionViolationError(
            f"Born contraction gamma = {model.gamma:.3f} >= 1 at the "
            "model reference point"
        )
    z = complex(model.evals[k] + 1j * eps)
    t_op = t_continuous_operator(model, z)
    g0 = model.green_continuous(z)
    residual = float(np.linalg.norm(
        t_op - model.v - model.v @ g0 @ t_op, 2))
    element = complex(model.evecs[:, kp].conj() @ t_op @ model.evecs[:, k])
    return TMatrixEval(z=z, value=element, n_terms=0, converged=True,
                       residual=residual)


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
    return model.v.copy(), q


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


def green_discrete_operator(model: ContinuousModel, tau: float,
                            z: complex) -> np.ndarray:
    """Dense stepped Green operator from the multipliers."""
    mult = green_discrete(model, tau, z)
    return (model.evecs * mult) @ model.evecs.conj().T


def t_discrete_operator(model: ContinuousModel, tau: float,
                        z: complex) -> np.ndarray:
    """Dense stepped T~(z) = (I - W~ G~0(z))^{-1} W~."""
    wt = w_tilde_direct(model, tau)
    gd = green_discrete_operator(model, tau, z)
    lhs = np.eye(model.dim) - wt @ gd
    return np.linalg.solve(lhs, wt)


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


def secondary_comb_indices(model: ContinuousModel, tau: float,
                           omega_in: float) -> list[int]:
    """Folded-energy replicas of omega_in that land back on the band.

    Returns the list of nonzero integers l with omega_in + 2*pi*l/tau in
    [0, omega_M].  Empty whenever tau < 2*pi/omega_M -- the step regime
    where no replica channel can be on-shell.
    """
    _check_tau(tau)
    step = 2.0 * np.pi / tau
    out = []
    l_min = int(np.floor((0.0 - omega_in) / step))
    l_max = int(np.ceil((model.omega_max - omega_in) / step))
    for l in range(l_min, l_max + 1):
        if l != 0 and -1e-12 <= omega_in + step * l <= model.omega_max + 1e-12:
            out.append(l)
    return out


# ---------------------------------------------------------------------------
# the gap and its scaling
# ---------------------------------------------------------------------------

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


def _leading_coefficient(model: ContinuousModel, t_cont: np.ndarray,
                         z: complex) -> np.ndarray:
    """T (H0 + V - z) T / 12: the tau^2 coefficient of T~(z) - T(z)."""
    shifted = model.h0 + model.v - z * np.eye(model.dim)
    return (t_cont @ shifted @ t_cont) / 12.0


def t_difference(model: ContinuousModel, k: int, kp: int, tau: float,
                 eps: float) -> TrotterDifference:
    """T~(z) - T(z) at z = omega_k + i*eps, with its leading term.

    Steps larger than the certified threshold are computed anyway but
    flagged with an uncertified-regime warning.
    """
    report = tau_threshold(model, tau=tau)
    if not report.verdict:
        warnings.warn(
            f"tau = {tau} exceeds the certified threshold m* = "
            f"{report.m_star:.4f}; the contraction bound does not apply",
            UncertifiedRegimeWarning,
        )
    z = complex(model.evals[k] + 1j * eps)
    t_cont = t_continuous_operator(model, z)
    t_disc = t_discrete_operator(model, tau, z)
    difference = t_disc - t_cont
    bra = model.evecs[:, kp].conj()
    ket = model.evecs[:, k]
    return TrotterDifference(
        tau=float(tau), z=z,
        difference=difference,
        element=complex(bra @ difference @ ket),
        leading=tau ** 2 * _leading_coefficient(model, t_cont, z),
    )


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
    Every norm and solve is r x r on the support of V (module docstring);
    ``t_continuous_operator`` and ``t_discrete_operator`` are the dense
    reference for the same numbers.
    """
    taus = np.asarray(tau_grid, dtype=float)
    if taus.size >= 2:
        ratios = taus[1:] / taus[:-1]
        if np.abs(ratios - ratios[0]).max() > 1e-8:
            raise DomainError("tau grid must be geometric")
    z = complex(model.omega_ref + 1j * model.eps_ref)
    lam = model.v_evals
    eye = np.eye(lam.size)

    def t_on_support(w, g):
        # (I - W G)^{-1} W for W = diag(w) and G = A(g), both r x r
        return np.linalg.solve(eye - w[:, None] * model.on_support(g),
                               np.diag(w))

    x_cont = t_on_support(lam, model.resolvent_multipliers(z))
    gaps = []
    valid = []
    for tau in taus:
        try:
            x_disc = t_on_support(_stepped_potential(model, float(tau)),
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
    shifted = model.on_support(model.evals) + np.diag(lam) - z * eye
    predicted = np.linalg.norm(x_cont @ shifted @ x_cont, 2) / 12.0
    return SweepReport(taus=np.asarray(valid), gaps=np.asarray(gaps),
                       slope=slope, intercept=intercept,
                       prefactor=float(np.exp(intercept)),
                       predicted_prefactor=float(predicted))
