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

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError

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
        for name, value in (("j0", self.j0), ("omega_lo", self.omega_lo),
                            ("delta", self.delta), ("omega_hi", self.omega_hi)):
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
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


def _check_times(s, name: str) -> np.ndarray:
    """``s`` as floats; the one check of every time argument, by name."""
    s_arr = np.asarray(s, dtype=float)
    if not np.isfinite(s_arr).all():
        raise DomainError(f"{name} must be finite")
    if np.any(s_arr < 0.0):
        raise DomainError(f"{name} must be non-negative")
    return s_arr


def _band_transform(spectral: SpectralDensity, s, trig, series):
    """The band's transform by ``trig`` in the product form
    2*j0*trig(s*(lo+hi)/2)*sin(s*delta/2)/s, which is free of subtractive
    cancellation. ``series(s, lo, hi, j0)`` replaces the s -> 0 division
    where s*hi < SERIES_CROSSOVER; an overflow in it names the band top."""
    s_arr = _check_times(s, "s")
    lo, hi, j0 = spectral.omega_lo, spectral.omega_hi, spectral.j0
    small = s_arr * hi < SERIES_CROSSOVER
    s_safe = np.where(small, 1.0, s_arr)
    out = np.where(small, 0.0, 2.0 * j0 * trig(0.5 * s_arr * (lo + hi))
                   * np.sin(0.5 * s_arr * spectral.delta) / s_safe)
    try:
        out[small] = series(s_arr[small], lo, hi, j0)
    except OverflowError:
        raise NumericError(f"omega_hi: the small-s series of the band kernels "
                           f"overflows at omega_hi = {hi:g}") from None
    return float(out) if np.isscalar(s) or s_arr.ndim == 0 else out


def kernel_sin(spectral: SpectralDensity, s):
    """Sine transform of the band: integral of J(w)*sin(w*s) over w, in
    closed form j0*(cos(lo*s) - cos(hi*s))/s."""
    return _band_transform(spectral, s, np.sin, lambda x, lo, hi, j0: j0 * x * (
        (hi * hi - lo * lo) / 2.0 - x * x * (hi ** 4 - lo ** 4) / 24.0))


def kernel_cos(spectral: SpectralDensity, s):
    """Zero-temperature cosine transform: integral of J(w)*cos(w*s) over w,
    in closed form j0*(sin(hi*s) - sin(lo*s))/s with limit j0*delta at 0."""
    return _band_transform(spectral, s, np.cos, lambda x, lo, hi, j0: j0 * (
        spectral.delta - x * x * (hi ** 3 - lo ** 3) / 6.0))


# Row-block budget of the thermal kernel: one cos(s*w) block of 256 KB bounds
# its working set at any number of times; the trace's columns set the peak.
_BLOCK_ELEMENTS = 2 ** 15

# Every thermal panel's 16-node rule, numpy's leggauss(16) bit for bit: it is
# exactly symmetric, so its positive half is written out, with no import.
_GL_X = (0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
         0.6178762444026438, 0.755404408355003, 0.8656312023878318,
         0.9445750230732326, 0.9894009349916499)
_GL_W = (0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
         0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
         0.062253523938647456, 0.027152459411754176)
_GL_NODES = np.array([-x for x in _GL_X[::-1]] + list(_GL_X))
_GL_WEIGHTS = np.array(_GL_W[::-1] + _GL_W)


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

    ``beta > 0`` is required, and NaN is refused; beta = inf is the
    zero-temperature limit, which :func:`kernel_cos` gives in closed form.
    The band integral is a fixed 16-node Gauss-Legendre rule on the panels
    of :func:`_thermal_panels`, sized from the band edges and the largest
    time, evaluated for all times at once as
    cos(outer(s, w)) @ (weights*J*coth).
    A band that starts at zero frequency is rejected at finite temperature:
    coth(beta*w/2) grows like 2/(beta*w) there, so the integral diverges
    logarithmically.
    """
    if beta is None or not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    if spectral.omega_lo == 0.0:
        raise DomainError("omega_lo must be positive at finite temperature: "
                          "the thermal kernel diverges at a zero band edge")
    s_arr = _check_times(s, "s")
    times = s_arr.ravel()
    s_max = float(times.max()) if times.size else 0.0

    edges = _thermal_panels(spectral.omega_lo, spectral.omega_hi, s_max)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    w = (mid + half * _GL_NODES).ravel()
    weights = (half * _GL_WEIGHTS).ravel() * spectral.j0 \
        / np.tanh(0.5 * beta * w)

    out = np.empty(times.size)
    rows = max(1, _BLOCK_ELEMENTS // w.size)
    for i in range(0, times.size, rows):
        phase = np.outer(times[i:i + rows], w)
        out[i:i + rows] = np.cos(phase, out=phase) @ weights
    if np.isscalar(s) or s_arr.ndim == 0:
        return float(out[0])
    return out.reshape(s_arr.shape)
