"""Spectral substrate for the two-band Dirac walk.

Dispersion, Bloch matrices, closed-form eigenvectors, free resolvent
multipliers, and Brillouin-zone quadrature.  Everything downstream (Born
series, two-particle reduction, wave packets) is built on these primitives.

Conventions
-----------
* Quasi-momenta live on the zone B = (-pi, pi]; all public entry points wrap.
* Plane waves are `<x|k> = e^{+ikx}` (numpy ``ifft`` convention), so
  multiplying by ``e^{i m k}`` in momentum space shifts position space by
  ``x -> x - m``.
* The walk step in momentum space is ``D_k = [[nu e^{ik}, -i mu], [-i mu,
  nu e^{-ik}]]`` with eigenvalues ``e^{-i s omega(k)}``, ``s = +-1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PoleError, QuadratureError

__all__ = [
    "Dispersion",
    "wrap_momentum",
    "bz_grid",
    "make_dispersion",
    "dirac_walk_matrix",
    "dirac_eigensystem",
    "resolvent_free",
    "quadrature_bz",
]


def wrap_momentum(k):
    """Wrap quasi-momenta into (-pi, pi] (scalar or array)."""
    return np.pi - np.mod(np.pi - np.asarray(k), 2.0 * np.pi)


def bz_grid(n: int) -> np.ndarray:
    """Uniform zone grid of n nodes, k_j = -pi + 2pi(j+1)/n in (-pi, pi]."""
    return -np.pi + 2.0 * np.pi * (np.arange(1, n + 1)) / n


@dataclass(frozen=True)
class Dispersion:
    """Single-particle dispersion omega(k) = arccos(nu cos k).

    nu in [0, 1] is the hopping weight, mu = sqrt(1 - nu^2) the mass.
    For nu < 1 the band omega(k) is strictly inside (0, pi) and the
    eigenvector formulas below are free of degeneracies.
    """

    nu: float
    mu: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "mu", float(np.sqrt(1.0 - self.nu**2)))

    def omega(self, k):
        """Quasi-energy of the + band, principal branch in [0, pi]."""
        return np.arccos(self.nu * np.cos(k))

    def omega_prime(self, k):
        """Group velocity d omega/dk = nu sin k / sin omega(k)."""
        if self.nu == 1.0:
            return np.sign(k)
        return self.nu * np.sin(k) / np.sin(self.omega(k))

    def g(self, s: int, k):
        """Lower-component weight g_s(k) = s sin omega(k) + nu sin k."""
        return s * np.sin(self.omega(k)) + self.nu * np.sin(k)

    def alpha(self, s: int, k):
        """Eigenvector components (alpha_up, alpha_dn) of band s at k.

        Real unit vector (mu, g_s(k)) / |N_s(k)|.  At nu = 1 the walk
        matrix is diagonal and the canonical-basis convention applies.
        k may be a scalar or an array; both give the same bits, which is
        why g_s is squared by a product (on a numpy scalar ``**2`` calls
        libm pow, on an array it is an exactly rounded square).
        """
        if self.nu == 1.0:
            # diagonal walk: e^{-i|k|} sits in the lower entry for k > 0,
            # in the upper entry for k < 0; k = 0 resolved as (0, 1).
            lower = (s == +1) == (np.asarray(k) >= 0.0)
            return np.where(lower, 0.0, 1.0)[()], np.where(lower, 1.0, 0.0)[()]
        gs = self.g(s, k)
        norm = np.sqrt(self.mu**2 + gs * gs)
        return self.mu / norm, gs / norm


def make_dispersion(nu: float) -> Dispersion:
    """Build the dispersion; nu must lie in [0, 1]."""
    if not (0.0 <= nu <= 1.0):
        raise DomainError(f"nu must lie in [0, 1], got {nu}")
    return Dispersion(nu=float(nu))


def dirac_walk_matrix(d: Dispersion, k: float) -> np.ndarray:
    """Momentum-space walk step [[nu e^{ik}, -i mu], [-i mu, nu e^{-ik}]]."""
    k = float(wrap_momentum(k))
    return np.array(
        [
            [d.nu * np.exp(1j * k), -1j * d.mu],
            [-1j * d.mu, d.nu * np.exp(-1j * k)],
        ],
        dtype=complex,
    )


def dirac_eigensystem(d: Dispersion, k: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form unit eigenvectors of the walk fiber at k, bands s = (+1, -1).

    Satisfies D_k u = exp(-i s omega) u without a generic eigensolver.
    """
    k = float(wrap_momentum(k))
    plus, minus = (np.array(d.alpha(s, k), dtype=complex) for s in (+1, -1))
    return plus, minus


def resolvent_free(d: Dispersion, z: complex, k, s: int):
    """Free resolvent multiplier 1 / (z - exp(-i s omega(k))) of mode (k, s).

    Raises PoleError when z sits on the spectrum at any of the given k.
    """
    z = complex(z)
    lam = np.exp(-1j * s * d.omega(k))
    dist = np.abs(z - lam)
    if np.any(dist <= 1e-14):
        bad = np.argmin(np.atleast_1d(dist))
        k_bad = float(np.atleast_1d(np.asarray(k, dtype=float)).ravel()[bad])
        raise PoleError(
            f"resolvent evaluated on the spectrum: z = {z} hits "
            f"exp(-i s omega(k)) at k = {k_bad}",
            k=k_bad,
        )
    return 1.0 / (z - lam)


def quadrature_bz(integrand, n: int = 2048):
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
