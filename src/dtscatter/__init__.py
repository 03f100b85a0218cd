"""Scattering theory for discrete-time quantum dynamics on the lattice.

Born/Lippmann-Schwinger solvers for single-step unitaries, the exactly
solvable two-fermion collision model, time-ordered perturbation theory,
stepped-vs-continuous T-matrix gap certificates, and a direct
wave-packet simulator used as a numerical oracle.
"""

__version__ = "0.1.0"

from .errors import DtScatterError  # noqa: F401
from .spectral import Dispersion, make_dispersion, wrap_momentum  # noqa: F401
from .thirring import (  # noqa: F401
    ThirringParams,
    amplitude_pp,
    born_series_thirring,
    channel,
    gamma_matrix,
    umklapp_amplitudes,
    xy_factors,
)
from .config import RunConfig, parse_config  # noqa: F401
from .tables import ResultTable, emit  # noqa: F401
