"""Band-limited spectral density and its frequency-integral kernels.

The environment couples only through a rectangular band of height ``j0``
on ``[omega_lo, omega_lo + delta)``. Everything downstream (damping and
diffusion coefficients) consumes the two closed-form kernels defined here:
the sine transform of the band and the thermally weighted cosine transform.
All frequencies and times are dimensionless (mode frequency = 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import DomainError

# Below this value of s*(band top) the exact kernels hit 0/0 cancellation,
# so a third-order series takes over.
SERIES_CROSSOVER = 1e-4

# Tolerances for the adaptive frequency quadrature at finite temperature.
QUAD_EPSABS = 1e-12
QUAD_EPSREL = 1e-9


@dataclass(frozen=True)
class SpectralDensity:
    """Rectangular spectral band: j0 on [omega_lo, omega_lo + delta), else 0.

    Parameters are in units of the system mode frequency. The band edges are
    half-open (left-closed) so that evaluation is deterministic on the edges.
    """

    j0: float
    omega_lo: float
    delta: float

    def __post_init__(self):
        if not self.j0 > 0.0:
            raise DomainError(f"j0 must be positive, got {self.j0}")
        if not self.delta > 0.0:
            raise DomainError(f"delta must be positive, got {self.delta}")
        if self.omega_lo < 0.0:
            raise DomainError(f"omega_lo must be non-negative, got {self.omega_lo}")

    @property
    def omega_hi(self) -> float:
        """Upper band edge."""
        return self.omega_lo + self.delta

    def evaluate(self, omega):
        """Density value at frequency ``omega`` (scalar or array, >= 0)."""
        w = np.asarray(omega, dtype=float)
        if np.any(w < 0.0):
            raise DomainError("frequencies must be non-negative")
        inside = (w >= self.omega_lo) & (w < self.omega_hi)
        out = np.where(inside, self.j0, 0.0)
        return float(out) if np.isscalar(omega) or w.ndim == 0 else out


def _check_times(s) -> np.ndarray:
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0.0):
        raise DomainError("time argument must be non-negative")
    return s_arr


def kernel_sin(spectral: SpectralDensity, s):
    """Sine transform of the band: integral of J(w)*sin(w*s) over w.

    Closed form j0*(cos(lo*s) - cos(hi*s))/s, evaluated in the product form
    2*j0*sin(s*(lo+hi)/2)*sin(s*delta/2)/s which is free of subtractive
    cancellation; a series branch covers the s -> 0 division.
    """
    s_arr = _check_times(s)
    lo, hi, j0 = spectral.omega_lo, spectral.omega_hi, spectral.j0

    small = s_arr * hi < SERIES_CROSSOVER
    s_safe = np.where(small, 1.0, s_arr)
    exact = 2.0 * j0 * np.sin(0.5 * s_arr * (lo + hi)) \
        * np.sin(0.5 * s_arr * spectral.delta) / s_safe
    series = j0 * s_arr * ((hi * hi - lo * lo) / 2.0
                           - s_arr * s_arr * (hi ** 4 - lo ** 4) / 24.0)
    out = np.where(small, series, exact)
    return float(out) if np.isscalar(s) or s_arr.ndim == 0 else out


def kernel_cos(spectral: SpectralDensity, s):
    """Zero-temperature cosine transform: integral of J(w)*cos(w*s) over w.

    Closed form j0*(sin(hi*s) - sin(lo*s))/s with limit j0*delta at s = 0,
    evaluated as the cancellation-free product
    2*j0*cos(s*(lo+hi)/2)*sin(s*delta/2)/s.
    """
    s_arr = _check_times(s)
    lo, hi, j0 = spectral.omega_lo, spectral.omega_hi, spectral.j0

    small = s_arr * hi < SERIES_CROSSOVER
    s_safe = np.where(small, 1.0, s_arr)
    exact = 2.0 * j0 * np.cos(0.5 * s_arr * (lo + hi)) \
        * np.sin(0.5 * s_arr * spectral.delta) / s_safe
    series = j0 * (spectral.delta
                   - s_arr * s_arr * (hi ** 3 - lo ** 3) / 6.0)
    out = np.where(small, series, exact)
    return float(out) if np.isscalar(s) or s_arr.ndim == 0 else out


def _thermal_cos_point(spectral: SpectralDensity, s: float, beta: float) -> float:
    # The integrand coth(beta*w/2)*cos(w*s) is smooth on the finite band;
    # split per oscillation half-period once s*delta gets large so the
    # adaptive rule never straddles many oscillations.
    lo, hi, j0 = spectral.omega_lo, spectral.omega_hi, spectral.j0

    def f(w):
        return j0 / np.tanh(0.5 * beta * w) * np.cos(w * s)

    n_osc = int(np.ceil(s * spectral.delta / np.pi)) if s > 0 else 1
    edges = np.linspace(lo, hi, max(n_osc, 1) + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, _ = integrate.quad(f, a, b, epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL,
                                limit=200)
        total += val
    return total


def kernel_cos_thermal(spectral: SpectralDensity, s, beta: float | None = None,
                       low_t: bool = False):
    """Thermal cosine transform: integral of coth(beta*w/2)*J(w)*cos(w*s).

    With ``low_t=True`` the thermal factor is 1 and the zero-temperature
    closed form is returned; otherwise ``beta > 0`` is required and the
    band integral is evaluated by adaptive quadrature. A band that starts at
    zero frequency is rejected at finite temperature: coth(beta*w/2) grows
    like 2/(beta*w) there, so the integral diverges logarithmically.
    """
    if low_t:
        if beta is not None:
            raise DomainError("pass either beta or low_t, not both")
        return kernel_cos(spectral, s)
    if beta is None or beta <= 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    if spectral.omega_lo == 0.0:
        raise DomainError("omega_lo must be positive at finite temperature: "
                          "the thermal kernel diverges at a zero band edge")
    s_arr = _check_times(s)
    if np.isscalar(s) or s_arr.ndim == 0:
        return _thermal_cos_point(spectral, float(s_arr), beta)
    return np.array([kernel_cos_thermal(spectral, float(si), beta=beta)
                     for si in s_arr])
