"""Band-limited spectral density and its frequency-integral kernels.

The environment couples only through a rectangular band of height ``j0``
on ``[omega_lo, omega_lo + delta)``. Everything downstream (damping and
diffusion coefficients) reads the band only through the two kernels
defined here, never at one frequency: the sine transform of the band
(closed form) and the thermally weighted cosine transform (closed form at
low temperature, a fixed graded Gauss-Legendre rule evaluated as one
matrix product at finite temperature).
All frequencies and times are dimensionless (mode frequency = 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import DomainError

# Below this value of s*(band top) the exact kernels hit 0/0 cancellation,
# so a third-order series takes over.
SERIES_CROSSOVER = 1e-4


@dataclass(frozen=True)
class SpectralDensity:
    """Rectangular spectral band: j0 on [omega_lo, omega_lo + delta), else 0.

    Parameters are in units of the system mode frequency.
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


# Row-block budget of the thermal kernel: elements of one cos(s*w) block
# (256 KB of float64), small enough that a trace's peak memory stays put.
_BLOCK_ELEMENTS = 2 ** 15


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    # The 16-node rule of every thermal panel. Built on first use: its
    # eigensolve raises peak memory, which low-temperature runs need not pay.
    nodes, weights = np.polynomial.legendre.leggauss(16)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _thermal_panels(lo: float, hi: float, s_max: float) -> np.ndarray:
    """Panel edges on [lo, hi]: no wider than pi/s_max nor than the left edge.

    The first cap keeps at most half an oscillation of cos(w*s) per panel;
    the second grades the panels geometrically toward the coth pole at
    w = 0, so every panel sees it at least three half-widths away.
    """
    cap = np.pi / s_max if s_max > 0.0 else np.inf
    edges = [lo]
    while edges[-1] < min(cap, hi):
        edges.append(min(2.0 * edges[-1], hi))
    a = edges.pop()
    n = int(np.ceil((hi - a) / cap))
    return np.concatenate([edges, np.linspace(a, hi, n + 1)])


def kernel_cos_thermal(spectral: SpectralDensity, s, beta: float | None = None):
    """Thermal cosine transform: integral of coth(beta*w/2)*J(w)*cos(w*s).

    ``beta > 0`` is required; the zero-temperature limit is
    :func:`kernel_cos`. The band integral is a fixed 16-node Gauss-Legendre
    rule on the panels of :func:`_thermal_panels`, sized from the band edges
    and the largest time, evaluated for all times at once as
    cos(outer(s, w)) @ (weights*J*coth).
    A band that starts at zero frequency is rejected at finite temperature:
    coth(beta*w/2) grows like 2/(beta*w) there, so the integral diverges
    logarithmically.
    """
    if beta is None or beta <= 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    if spectral.omega_lo == 0.0:
        raise DomainError("omega_lo must be positive at finite temperature: "
                          "the thermal kernel diverges at a zero band edge")
    s_arr = _check_times(s)
    if not np.all(np.isfinite(s_arr)):
        raise DomainError("time argument must be finite")
    times = s_arr.ravel()
    s_max = float(times.max()) if times.size else 0.0

    edges = _thermal_panels(spectral.omega_lo, spectral.omega_hi, s_max)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    nodes, node_weights = _gauss_legendre()
    w = (mid + half * nodes).ravel()
    weights = (half * node_weights).ravel() * spectral.j0 \
        / np.tanh(0.5 * beta * w)

    out = np.empty(times.size)
    rows = max(1, _BLOCK_ELEMENTS // w.size)
    for i in range(0, times.size, rows):
        phase = np.outer(times[i:i + rows], w)
        out[i:i + rows] = np.cos(phase, out=phase) @ weights
    if np.isscalar(s) or s_arr.ndim == 0:
        return float(out[0])
    return out.reshape(s_arr.shape)
