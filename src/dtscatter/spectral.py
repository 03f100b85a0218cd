"""Spectral substrate for the two-band Dirac walk.

The dispersion omega(k) with its group velocity and closed-form band
eigenvectors, momentum wrapping, and the uniform Brillouin-zone grid.
Everything downstream (Born series, two-particle reduction, wave packets)
is built on these primitives.

Conventions
-----------
* Quasi-momenta live on the zone B = (-pi, pi]; ``wrap_momentum`` maps
  onto it.
* Plane waves are `<x|k> = e^{+ikx}` (numpy ``ifft`` convention), so
  multiplying by ``e^{i m k}`` in momentum space shifts position space by
  ``x -> x - m``.
* The walk step in momentum space is ``D_k = [[nu e^{ik}, -i mu], [-i mu,
  nu e^{-ik}]]`` with eigenvalues ``e^{-i s omega(k)}``, ``s = +-1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "Dispersion",
    "wrap_momentum",
    "bz_grid",
    "make_dispersion",
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
