"""Exception and warning types shared across the package.

Everything raised on purpose derives from :class:`DtScatterError` so callers
can catch one base type at the CLI boundary.
"""

from __future__ import annotations


class DtScatterError(Exception):
    """Base class for all errors raised by dtscatter."""


class DomainError(DtScatterError):
    """An argument lies outside the mathematical domain of the operation."""


class PoleError(DtScatterError):
    """A resolvent was evaluated exactly on (or too close to) its spectrum.

    Attributes
    ----------
    k : float or None
        Offending quasi-momentum, when known.
    """

    def __init__(self, message: str, k: float | None = None):
        super().__init__(message)
        self.k = k


class DegenerateMomentumError(DtScatterError):
    """Total quasi-momentum sits on a degeneracy of the two-particle bands."""


class StationaryPointError(DtScatterError):
    """An on-shell root coincides with a stationary point of the band."""


class ResonancePoleError(DtScatterError):
    """Closed-form T-matrix denominator vanished (bound-state resonance)."""


class TruncationError(DtScatterError):
    """A series was truncated before reaching the requested tolerance."""


class GeometryError(DtScatterError):
    """Lattice/packet geometry is inconsistent (packet wider than ring, ...)."""


class ScatteringInconclusiveError(DtScatterError):
    """Wave-packet run ended with amplitude still in the interaction region."""


class InsufficientDataError(DtScatterError):
    """Not enough valid samples to fit/extract the requested quantity."""


class AssumptionViolationError(DtScatterError):
    """A precondition of the convergence theory (e.g. gamma < 1) fails."""


class ConfigError(DtScatterError):
    """Config file parsing/validation failed.

    Attributes
    ----------
    problems : list[str]
        One entry per problem, each naming the offending line(s).
    """

    def __init__(self, message: str, problems: list[str] | None = None):
        super().__init__(message)
        self.problems = problems or []


class OutputError(DtScatterError):
    """A result file (table or snapshot) could not be written."""


class BoundaryLeakageWarning(UserWarning):
    """Wave-packet mass near the ring boundary exceeded the monitor level."""
