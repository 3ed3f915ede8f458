"""Gaussian states of light in band-limited environments.

Covariance-matrix propagation through the non-Markovian noise channel of a
rectangular spectral band, with master-equation coefficients on closed-form
and quadrature routes, entanglement negativity, and sudden-death detection.
"""

from .coefficients import (METHOD_CLOSED, METHOD_QUADRATURE, CoefficientTrace,
                           EnvironmentParams, build_trace)
from .dynamics import (TwbSpec, TwoModeGaussianState, evolve_covariances,
                       make_twb)
from .entanglement import (kappa_full_curve, kappa_secular, negativity,
                           nu_min_pt, state_kappa_curve, sudden_death_time)
from .errors import (DomainError, NumericError, UnsupportedStateError,
                     UsageError)
from .oracle import OracleReport, propagate_w_matrix, run_verification
from .spectral import SpectralDensity

__version__ = "0.1.0"

# what the quickstart and the acceptance gate reach (tests/test_readme.py)
__all__ = [
    "METHOD_CLOSED", "METHOD_QUADRATURE", "CoefficientTrace",
    "EnvironmentParams", "build_trace",
    "TwbSpec", "TwoModeGaussianState", "evolve_covariances", "make_twb",
    "kappa_full_curve", "kappa_secular", "negativity", "nu_min_pt",
    "state_kappa_curve", "sudden_death_time",
    "DomainError", "NumericError", "UnsupportedStateError", "UsageError",
    "OracleReport", "propagate_w_matrix", "run_verification",
    "SpectralDensity",
    "__version__",
]
