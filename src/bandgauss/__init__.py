"""Gaussian states of light in band-limited environments.

Covariance-matrix propagation through the non-Markovian noise channel of a
rectangular spectral band, with master-equation coefficients on closed-form
and quadrature routes, entanglement negativity, and sudden-death detection.
"""

from .coefficients import (METHOD_CLOSED, METHOD_QUADRATURE, CoefficientTrace,
                           EnvironmentParams, build_trace, delta_gamma,
                           delta_quad, gamma_int, gamma_quad, pi_quad, r_quad,
                           secular_coeffs)
from .dynamics import (ChannelSnapshot, TwbSpec, TwoModeGaussianState,
                       apply_channel, channel_snapshot, check_covariances,
                       evolve_cm_full, evolve_cm_secular, evolve_covariances,
                       evolve_mean, make_twb, rotation, snapshots_from_trace)
from .entanglement import (SymplecticInvariants, find_last_upcrossing,
                           invariants, kappa_full, kappa_full_curve,
                           kappa_secular, kappa_secular_channel_curve,
                           kappa_symmetric, negativity, nu_min_pt, pt_nu_min,
                           state_kappa_curve, sudden_death_time)
from .errors import (DomainError, NumericError, UnsupportedStateError,
                     UsageError)
from .oracle import (OracleReport, finite_diff, propagate_w_matrix,
                     quad_reference, run_verification)
from .spectral import SpectralDensity, kernel_cos, kernel_cos_thermal, kernel_sin

__version__ = "0.1.0"

__all__ = [
    "METHOD_CLOSED", "METHOD_QUADRATURE", "CoefficientTrace",
    "EnvironmentParams", "build_trace", "delta_gamma", "delta_quad",
    "gamma_int", "gamma_quad", "pi_quad", "r_quad", "secular_coeffs",
    "ChannelSnapshot", "TwbSpec", "TwoModeGaussianState", "apply_channel",
    "channel_snapshot", "check_covariances", "evolve_cm_full",
    "evolve_cm_secular", "evolve_covariances", "evolve_mean",
    "make_twb", "rotation", "snapshots_from_trace",
    "SymplecticInvariants", "find_last_upcrossing", "invariants",
    "kappa_full", "kappa_full_curve", "kappa_secular",
    "kappa_secular_channel_curve", "kappa_symmetric", "negativity",
    "nu_min_pt", "pt_nu_min", "state_kappa_curve", "sudden_death_time",
    "DomainError", "NumericError", "UnsupportedStateError", "UsageError",
    "OracleReport", "finite_diff", "propagate_w_matrix", "quad_reference",
    "run_verification",
    "SpectralDensity", "kernel_cos", "kernel_cos_thermal", "kernel_sin",
    "__version__",
]
