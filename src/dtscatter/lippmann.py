"""T-matrix machinery for a walk perturbed by a finite on-site phase.

The interacting step is U = U0 * V with V a diagonal on-site phase acting on
finitely many sites, so the interaction kernel W = U0^dag U - I = V - I is a
finite-rank diagonal block.  The Born series, its closed resummation, and
eps-regularized improper S-matrix elements all live on that block.

Spectral parameter convention: improper elements are evaluated at
z = exp(-i * omega_in + eps) just outside the unit circle and extrapolated
to eps -> 0+.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientDataError,
    PoleError,
    SingularKernelError,
    UnsupportedInteractionError,
)
from .spectral import Dispersion, bz_grid, wrap_momentum

__all__ = [
    "OnSitePhase",
    "FiniteRankInteraction",
    "TMatrixEval",
    "AmplitudeRecord",
    "Extrapolation",
    "w_operator",
    "support_kernel",
    "t_matrix_born",
    "t_matrix_closed",
    "fixed_point_residual",
    "s_matrix_element",
    "epsilon_extrapolate",
    "channel_amplitude",
    "EPS_SCHEDULE",
    "SHELL_TOL",
]

SHELL_TOL = 1e-9
# regulators of the improper elements, extrapolated to eps -> 0
EPS_SCHEDULE = tuple(1e-2 * 2.0 ** (-j) for j in range(5))
# Born series: stop once a term's norm is below BORN_TOL, give up after
# BORN_MAX_N terms
BORN_TOL = 1e-12
BORN_MAX_N = 200


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
class AmplitudeRecord:
    """On-shell amplitude: the factor multiplying the conservation delta.

    The element is coefficient * delta_2pi(omega' - omega).  ``comb_index``
    l satisfies omega' = omega + 2 pi l for the stored representative
    channel pair.
    """

    in_channel: tuple[float, int]
    out_channel: tuple[float, int]
    comb_index: int
    coefficient: complex
    flagged: bool = False
    note: str = ""
    error_estimate: float = 0.0


@dataclass(frozen=True)
class Extrapolation:
    value: complex | np.ndarray
    error: float


def w_operator(v: OnSitePhase) -> FiniteRankInteraction:
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


def _mode_projectors(disp: Dispersion, k: np.ndarray):
    """Spectral data of the walk fiber on a k grid.

    Returns (lam_plus, lam_minus, P_plus, P_minus) with P_s the 2x2
    projector fields, shape (n, 2, 2).
    """
    n = k.size
    if disp.nu == 1.0:
        lam_up = np.exp(1j * k)  # upper entry of the diagonal fiber
        lam_dn = np.exp(-1j * k)
        p_up = np.zeros((n, 2, 2), dtype=complex)
        p_dn = np.zeros((n, 2, 2), dtype=complex)
        p_up[:, 0, 0] = 1.0
        p_dn[:, 1, 1] = 1.0
        return lam_up, lam_dn, p_up, p_dn
    w = disp.omega(k)
    out = []
    lams = []
    for s in (+1, -1):
        a = np.stack(disp.alpha(s, k), axis=-1)
        out.append((a[:, :, None] * a[:, None, :]).astype(complex))
        lams.append(np.exp(-1j * s * w))
    return lams[0], lams[1], out[0], out[1]


def support_kernel(
    disp: Dispersion,
    z: complex,
    support: tuple[int, ...],
    n: int = 2048,
) -> np.ndarray:
    """Position-space block of G0(z) U0 = (z - U0)^{-1} U0 on the support.

    Entry ((x', a), (x, b)) = (1/2pi) Integral dk e^{i k (x' - x)}
    [ (z - D_k)^{-1} D_k ]_{ab}, evaluated by zone quadrature.
    """
    k = bz_grid(n)
    lam_a, lam_b, p_a, p_b = _mode_projectors(disp, k)
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


def t_matrix_born(
    w: FiniteRankInteraction,
    disp: Dispersion,
    z: complex,
    quad_n: int = 2048,
) -> TMatrixEval:
    """Sum the Born series on the support block until the last term < BORN_TOL.

    Non-convergence is reported through ``converged=False`` (sweeps over
    coupling must be able to continue past divergent points).
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


def t_matrix_closed(
    w: FiniteRankInteraction,
    disp: Dispersion,
    z: complex,
    quad_n: int = 2048,
) -> TMatrixEval:
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


def fixed_point_residual(
    w: FiniteRankInteraction,
    disp: Dispersion,
    eval_: TMatrixEval,
    quad_n: int = 2048,
) -> float:
    """|| T - (W + W G0 U0 T) || on the support block."""
    kernel = w.action @ support_kernel(disp, eval_.z, w.support, n=quad_n)
    return float(np.linalg.norm(eval_.value - (w.action + kernel @ eval_.value)))


def epsilon_extrapolate(values, eps) -> Extrapolation:
    """Polynomial extrapolation of values(eps) to eps = 0.

    value is the full-degree interpolant through every sample, evaluated
    at eps = 0; error is its distance from the interpolant that drops the
    largest regulator.  Trailing axes of ``values`` are extrapolated entry
    by entry, and error is then the largest of the entry errors.
    """
    values = np.asarray(values, dtype=complex)
    eps = np.asarray(eps, dtype=float)
    if values.shape[:1] != eps.shape:
        raise InsufficientDataError("values and eps schedules differ in length")
    if eps.size < 3:
        raise InsufficientDataError("need at least 3 samples to extrapolate")
    if np.any(np.diff(eps) >= 0.0) or eps[-1] <= 0:
        raise InsufficientDataError("eps schedule must decrease strictly toward 0")
    flat = values.reshape(eps.size, -1)
    full = np.polyfit(eps, flat, eps.size - 1)[-1]
    drop = np.polyfit(eps[1:], flat[1:], eps.size - 2)[-1]
    value = full.reshape(values.shape[1:])
    return Extrapolation(value=complex(value) if value.ndim == 0 else value,
                         error=float(np.abs(full - drop).max()))


def _plane_wave_on_support(
    disp: Dispersion, support: tuple[int, ...], k: float, s: int
) -> np.ndarray:
    """Improper mode (k, s) sampled on the support sites, e^{ikx} u^s_k."""
    a_up, a_dn = disp.alpha(s, k)
    u = np.array([a_up, a_dn], dtype=complex)
    return np.concatenate([np.exp(1j * k * x) * u for x in support])


def s_matrix_element(
    w: FiniteRankInteraction,
    disp: Dispersion,
    in_channel: tuple[float, int],
    out_channel: tuple[float, int],
    quad_n: int = 32768,
) -> AmplitudeRecord:
    """eps -> 0 improper S-matrix element between walk modes.

    Off the quasi-energy shell (mod 2 pi, tolerance SHELL_TOL) the comb
    selection rule forces a zero record.  On shell the coefficient is the
    factor multiplying the conservation delta_2pi(omega' - omega), taken
    through EPS_SCHEDULE; a growing extrapolation error flags the record
    and keeps the smallest-regulator sample.  The default quad_n resolves
    the pole width at the smallest regulator (2 048 nodes do not).
    """
    k_in, s_in = float(wrap_momentum(in_channel[0])), int(in_channel[1])
    k_out, s_out = float(wrap_momentum(out_channel[0])), int(out_channel[1])
    w_in = s_in * disp.omega(k_in)
    w_out = s_out * disp.omega(k_out)
    l = int(np.round((w_out - w_in) / (2.0 * np.pi)))
    if abs(w_out - w_in - 2.0 * np.pi * l) > SHELL_TOL:
        return AmplitudeRecord(
            in_channel=(k_in, s_in),
            out_channel=(k_out, s_out),
            comb_index=0,
            coefficient=0.0,
            note="off-shell",
        )
    if w.rank == 0:
        # free theory: S = I, so the delta coefficient vanishes
        return AmplitudeRecord(
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
    return AmplitudeRecord(
        in_channel=(k_in, s_in),
        out_channel=(k_out, s_out),
        comb_index=l,
        coefficient=complex(ext.value),
        flagged=flagged,
        note=note,
        error_estimate=ext.error,
    )


def channel_amplitude(record: AmplitudeRecord, disp: Dispersion) -> complex:
    """Physical single-channel amplitude c with S = 1 + c on that channel.

    The stored element is coefficient * delta_2pi(omega(k') - omega(k)); the
    comb contributes delta(k' - k_out)/|omega'(k_out)| at the outgoing root,
    so on momentum-normalized channels c = coefficient / |omega'(k_out)|.
    """
    k_out = record.out_channel[0]
    vg = abs(disp.omega_prime(k_out))
    return record.coefficient / vg
