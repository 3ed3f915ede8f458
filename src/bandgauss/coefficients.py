"""Time-dependent channel coefficients for the band-limited environment.

Weak-coupling (second-order) coefficients of the time-local master equation:
damping gamma(tau), normal diffusion delta(tau), anomalous diffusion pi(tau)
and the frequency shift r(tau), together with their time-integrated forms:
the accumulated damping exponent Gamma(tau), the diffusion variance
DeltaGamma(tau), and the four oscillatory-weighted integrals that feed the
non-secular covariance blocks.

Every quantity is available on two routes selected by a method tag:

* ``"closed-form"`` -- the low-temperature short-time expressions
  (gamma = J0*delta*Omega*tau^3/3, delta = J0*delta*tau, and their
  integrals Gamma = J0*delta*Omega*tau^4/6, DeltaGamma = J0*delta*tau^2/2);
  they never read beta, so this route refuses a finite one;
* ``"quadrature"`` -- cumulative Simpson integrals of the kernels of
  :mod:`bandgauss.spectral` on a dense uniform grid, at any temperature.

:func:`build_trace` is the one evaluator of both routes: it returns a
:class:`CoefficientTrace`, every coefficient as a column over a time grid.
A value at one time is a trace over ``[tau]``, which integrates ``[0, tau]``
on the same dense grid as any longer trace.

Times are dimensionless (system frequency = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.interpolate import CubicSpline

from .errors import DomainError, UsageError
from .spectral import SpectralDensity, kernel_cos, kernel_cos_thermal, kernel_sin

METHOD_CLOSED = "closed-form"
METHOD_QUADRATURE = "quadrature"

# Dense grid of every trace: 8192 Simpson panels over [0, tau_max].
GRID_POINTS = 8193


@dataclass(frozen=True)
class EnvironmentParams:
    """Spectral band plus temperature of the environment.

    ``beta`` is the inverse temperature in units of the mode frequency.
    None, the default, is the low-temperature limit, where the thermal
    factor coth(beta*w/2) is 1; only the quadrature route reads a finite
    beta.
    """

    spectral: SpectralDensity
    beta: float | None = None

    def __post_init__(self):
        if self.beta is not None and not self.beta > 0.0:
            raise DomainError(f"beta must be positive, got {self.beta}")

    def thermal_cos_kernel(self, s):
        """Thermal cosine kernel at this environment's temperature."""
        if self.beta is None:
            return kernel_cos(self.spectral, s)
        return kernel_cos_thermal(self.spectral, s, beta=self.beta)


def require_method(env: EnvironmentParams, method: str) -> None:
    """Refuse an unknown method tag, and a finite beta the route ignores."""
    if method not in (METHOD_CLOSED, METHOD_QUADRATURE):
        raise UsageError(
            f"unknown method tag {method!r}; use {METHOD_CLOSED!r} or {METHOD_QUADRATURE!r}")
    if method == METHOD_CLOSED and env.beta is not None:
        raise UsageError(
            f"beta: the {METHOD_CLOSED} route is the low-temperature limit; "
            f"use {METHOD_QUADRATURE} (--method quad) for a finite beta")


# ---------------------------------------------------------------------------
# closed forms (low temperature, leading order in time)
# ---------------------------------------------------------------------------

def gamma_closed(env: EnvironmentParams, tau):
    sd = env.spectral
    return sd.j0 * sd.delta * sd.omega_lo * np.asarray(tau, dtype=float) ** 3 / 3.0


def delta_closed(env: EnvironmentParams, tau):
    sd = env.spectral
    return sd.j0 * sd.delta * np.asarray(tau, dtype=float)


def pi_closed(env: EnvironmentParams, tau):
    # Leading term of the short-time series of sin(s)*cos-kernel.
    sd = env.spectral
    return 0.5 * sd.j0 * sd.delta * np.asarray(tau, dtype=float) ** 2


def r_closed(env: EnvironmentParams, tau):
    # Leading term of the short-time series of cos(s)*sin-kernel.
    sd = env.spectral
    return 0.5 * sd.j0 * sd.delta * (sd.omega_lo + 0.5 * sd.delta) \
        * np.asarray(tau, dtype=float) ** 2


def gamma_int_closed(env: EnvironmentParams, tau):
    sd = env.spectral
    return sd.j0 * sd.delta * sd.omega_lo * np.asarray(tau, dtype=float) ** 4 / 6.0


def delta_gamma_closed(env: EnvironmentParams, tau):
    # the exponential weights exp(Gamma(s) - Gamma(tau)) are higher order in
    # the short-time regime and are dropped
    sd = env.spectral
    return 0.5 * sd.j0 * sd.delta * np.asarray(tau, dtype=float) ** 2


# ---------------------------------------------------------------------------
# whole-trace evaluation on a time grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientTrace:
    """All channel coefficients sampled on an ascending time grid.

    ``delta_gamma`` is exp(-Gamma(tau)) * int_0^tau exp(Gamma(s)) delta(s) ds
    (the closed route drops the weights). The four ``sec_*`` integrals
    weight delta or pi the same way and also by cos or sin(2(tau - s)).
    """

    tau_grid: np.ndarray
    gamma: np.ndarray
    delta_coef: np.ndarray
    pi_coef: np.ndarray
    r_shift: np.ndarray
    gamma_int: np.ndarray
    delta_gamma: np.ndarray
    sec_delta_co: np.ndarray
    sec_delta_si: np.ndarray
    sec_pi_co: np.ndarray
    sec_pi_si: np.ndarray
    method: str

    @property
    def secular(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The four weighted integrals (delta_co, delta_si, pi_co, pi_si)."""
        return (self.sec_delta_co, self.sec_delta_si, self.sec_pi_co,
                self.sec_pi_si)


# Largest damping-exponent change per Simpson pair for which polynomial
# quadrature of the weighted integrand is still accurate; stiffer pairs use
# the exponential-integrator step.
_STIFF_PAIR_GAP = 0.05


def _etd_step(y: float, x0: float, x1: float, a: float, h: float) -> float:
    """One step of y' = x - Gamma'*y with x linear and Gamma' constant.

    ``a`` is the damping-exponent change over the step. Exact for that local
    model; only exp(-a) appears, so growing exponents cannot overflow.
    Steeply decreasing exponents are outside the model and get clamped.
    """
    a = max(a, -600.0)
    ema = math.exp(-a)
    if abs(a) < 1e-4:
        phi0 = 0.5 - a / 3.0 + a * a / 8.0
        phi1 = 0.5 - a / 6.0 + a * a / 24.0
    else:
        phi0 = (1.0 - ema * (1.0 + a)) / (a * a)
        phi1 = (a - 1.0 + ema) / (a * a)
    return y * ema + h * (x0 * phi0 + x1 * phi1)


def _weighted_cumulative(s: np.ndarray, x: np.ndarray,
                         big_gamma: np.ndarray) -> np.ndarray:
    """Running y(t) = exp(-Gamma(t)) * int_0^t exp(Gamma(s)) x(s) ds.

    Simpson-order accurate on a uniform grid while the exponent changes
    slowly; pairs where it jumps by more than ``_STIFF_PAIR_GAP`` switch to
    an exponential-integrator step, so arbitrarily large damping exponents
    neither overflow nor blow up the quadrature error.
    """
    n = len(s)
    if n % 2 == 0:
        raise ValueError("weighted cumulative needs an odd number of points")
    h = s[1] - s[0]
    y = np.empty(n)
    y[0] = 0.0
    for k in range(0, n - 2, 2):
        g0, g1, g2 = big_gamma[k], big_gamma[k + 1], big_gamma[k + 2]
        if abs(g2 - g0) > _STIFF_PAIR_GAP:
            y[k + 1] = _etd_step(y[k], x[k], x[k + 1], g1 - g0, h)
            y[k + 2] = _etd_step(y[k + 1], x[k + 1], x[k + 2], g2 - g1, h)
            continue
        w0 = math.exp(g0 - g1)
        w2 = math.exp(g2 - g1)
        # parabola through the triple, integrated over the first half-panel
        y[k + 1] = y[k] * w0 + h / 12.0 * (5.0 * w0 * x[k] + 8.0 * x[k + 1]
                                           - w2 * x[k + 2])
        v0 = math.exp(g0 - g2)
        v1 = math.exp(g1 - g2)
        y[k + 2] = y[k] * v0 + h / 3.0 * (v0 * x[k] + 4.0 * v1 * x[k + 1]
                                          + x[k + 2])
    return y


def _running_integral(y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Cumulative Simpson integral of ``y`` from 0 on the uniform grid ``s``."""
    return integrate.cumulative_simpson(y, x=s, initial=0.0)


def build_trace(env: EnvironmentParams, tau_grid, method: str = METHOD_CLOSED,
                n_dense: int = GRID_POINTS) -> CoefficientTrace:
    """Evaluate every coefficient of the channel on ``tau_grid``.

    A dense uniform master grid carries the cumulative integrals; the
    requested grid is filled by cubic interpolation (exact at master nodes).
    """
    require_method(env, method)
    tau_grid = np.asarray(tau_grid, dtype=float)
    if tau_grid.ndim != 1 or len(tau_grid) == 0:
        raise UsageError("tau_grid must be a non-empty 1-d array")
    if np.any(tau_grid < 0.0):
        raise DomainError("tau_grid must be non-negative")
    if np.any(np.diff(tau_grid) <= 0.0) and len(tau_grid) > 1:
        raise UsageError("tau_grid must be strictly ascending")

    tau_max = float(tau_grid[-1])
    if tau_max == 0.0:
        zeros = [np.zeros_like(tau_grid) for _ in range(10)]
        return CoefficientTrace(tau_grid, *zeros, method)

    s = np.linspace(0.0, tau_max, n_dense)
    sd = env.spectral

    if method == METHOD_CLOSED:
        on_grid = [f(env, tau_grid) for f in (
            gamma_closed, delta_closed, pi_closed, r_closed, gamma_int_closed,
            delta_gamma_closed)]
        big_gamma_s = gamma_int_closed(env, s)
        delta_s = delta_closed(env, s)
        pi_s = pi_closed(env, s)
        dense = []
    else:
        ks = kernel_sin(sd, s)
        kc = np.asarray(env.thermal_cos_kernel(s), dtype=float)
        gamma_s = _running_integral(np.sin(s) * ks, s)
        delta_s = _running_integral(np.cos(s) * kc, s)
        pi_s = _running_integral(np.sin(s) * kc, s)
        r_s = _running_integral(np.cos(s) * ks, s)
        big_gamma_s = _running_integral(2.0 * gamma_s, s)
        on_grid = []
        dense = [gamma_s, delta_s, pi_s, r_s, big_gamma_s,
                 _weighted_cumulative(s, delta_s, big_gamma_s)]

    dense += [_weighted_cumulative(s, x * trig(2.0 * s), big_gamma_s)
              for x in (delta_s, pi_s) for trig in (np.cos, np.sin)]
    # one spline per column: a single fit of the stacked columns gives the
    # same bits but holds about 5x the memory at once
    fitted = [CubicSpline(s, y)(tau_grid) for y in dense]
    gamma, delta, pi, r, g_int, d_gamma, d_c, d_s, p_c, p_s = on_grid + fitted
    c2, s2 = np.cos(2.0 * tau_grid), np.sin(2.0 * tau_grid)

    return CoefficientTrace(
        tau_grid=tau_grid,
        gamma=np.asarray(gamma, dtype=float),
        delta_coef=np.asarray(delta, dtype=float),
        pi_coef=np.asarray(pi, dtype=float),
        r_shift=np.asarray(r, dtype=float),
        gamma_int=np.asarray(g_int, dtype=float),
        delta_gamma=np.asarray(d_gamma, dtype=float),
        sec_delta_co=c2 * d_c + s2 * d_s,
        sec_delta_si=s2 * d_c - c2 * d_s,
        sec_pi_co=c2 * p_c + s2 * p_s,
        sec_pi_si=s2 * p_c - c2 * p_s,
        method=method,
    )
