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

The running Simpson integral and the interpolation onto the requested grid
are numpy ports of scipy's ``cumulative_simpson`` and not-a-knot
``CubicSpline``, bit for bit, so the module needs no scipy at run time.

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

from .errors import DomainError, NumericError, UsageError
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
    neither overflow nor blow up the quadrature error. It runs on Python
    floats: ``np.exp`` rounds some arguments differently from ``math.exp``.
    """
    n = len(s)
    if n % 2 == 0:
        raise ValueError("weighted cumulative needs an odd number of points")
    h = float(s[1] - s[0])
    g, x, y = big_gamma.tolist(), x.tolist(), [0.0]
    for g0, g1, g2, x0, x1, x2 in zip(g[:-2:2], g[1::2], g[2::2],
                                      x[:-2:2], x[1::2], x[2::2]):
        yk = y[-1]
        if abs(g2 - g0) > _STIFF_PAIR_GAP:
            y1 = _etd_step(yk, x0, x1, g1 - g0, h)
            y += (y1, _etd_step(y1, x1, x2, g2 - g1, h))
            continue
        w0 = math.exp(g0 - g1)
        w2 = math.exp(g2 - g1)
        # parabola through the triple, integrated over the first half-panel
        y1 = yk * w0 + h / 12.0 * (5.0 * w0 * x0 + 8.0 * x1 - w2 * x2)
        v0 = math.exp(g0 - g2)
        v1 = math.exp(g1 - g2)
        y += (y1, yk * v0 + h / 3.0 * (v0 * x0 + 4.0 * v1 * x1 + x2))
    return np.array(y)


def _running_integral(y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Cumulative Simpson integral of ``y`` from 0 on the ascending grid ``s``.

    scipy 1.17's ``cumulative_simpson(y, x=s, initial=0.0)``, bit for bit:
    Cartwright's three-point formula gives each first half-interval of the
    forward and of the flipped samples, the two interleave, and one running
    sum adds them (``+ 0.0`` is scipy's ``initial``, which folds -0.0).
    """
    def first_halves(f, dx):
        x21, x32 = dx[:-1], dx[1:]
        x21_x31 = x21 / (x21 + x32)
        x21x21_x31x32 = x21_x31 * (x21 / x32)
        return x21 / 6 * ((3 - x21_x31) * f[:-2]
                          + (3 + x21x21_x31x32 + x21_x31) * f[1:-1]
                          + -x21x21_x31x32 * f[2:])

    dx = np.diff(s)
    forward = first_halves(y, dx)
    backward = first_halves(y[::-1], dx[::-1])[::-1]
    pieces = np.empty(len(y) - 1)
    pieces[:-1:2] = forward[::2]
    pieces[1::2] = backward[::2]
    pieces[-1] = backward[-1]
    return np.concatenate(([0.0], np.cumsum(pieces) + 0.0))


class _NotAKnot:
    """scipy 1.17's not-a-knot ``CubicSpline`` on the abscissae ``x``, bit
    for bit; three points give its parabola to rounding (scipy solves that
    system densely). The system for the knot slopes depends on ``x`` alone:
    it is factored once, in the operation order of LAPACK's dgtsv (what
    ``solve_banded`` calls), row interchanges included."""

    def __init__(self, x: np.ndarray):
        dx, n = np.diff(x), len(x)
        self.x, self.dx = x, dx
        # interior rows, then the end rows (diagonal, off-diagonal); scipy's
        # line (n = 2) and parabola (n = 3) have ends of their own
        d = [0.0, *(2 * (dx[:-1] + dx[1:])).tolist(), 0.0]
        du, dl = [0.0, *dx[:-1].tolist()], [*dx[1:].tolist(), 0.0]
        ends = ((1, n - 2),) * 2 if n <= 3 else (
            (dx[1], x[2] - x[0]), (dx[-2], x[-1] - x[-3]))
        (d[0], du[0]), (d[-1], dl[-1]) = [map(float, e) for e in ends]
        # dgtsv's elimination; dl becomes U's second superdiagonal, which
        # only an interchange fills. du's dummy last entry takes that fill-in
        # in the last row, which dgtsv skips and nothing reads.
        du.append(0.0)
        self._steps = []  # (interchanged, factor) per row
        for i in range(n - 1):
            swapped = abs(d[i]) < abs(dl[i])
            if swapped:
                fact = d[i] / dl[i]
                d[i], temp = dl[i], d[i + 1]
                d[i + 1] = du[i] - fact * temp
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
                du[i] = temp
            else:
                fact = dl[i] / d[i]
                d[i + 1] = d[i + 1] - fact * du[i]
                dl[i] = 0.0
            self._steps.append((swapped, fact))
        # the back substitution's rows, last first; the zeros dgtsv leaves
        # out of its last two rows subtract +0.0, which changes no value
        self._back = list(zip(du[:n - 1] + [0.0], dl[:n - 2] + [0.0, 0.0],
                              d))[::-1]

    def fit(self, y: np.ndarray, name: str):
        """The spline through ``(x, y)`` as a function of time; a
        ``NumericError`` naming ``name`` when ``y`` is not finite."""
        if not np.isfinite(y).all():
            raise NumericError(f"{name}: not finite on the grid up to "
                               f"tau = {self.x[-1]:g}")
        x, dx, n = self.x, self.dx, len(y)
        slope = np.diff(y) / dx
        if n <= 3:
            first, last = (n - 1) * slope[0], (n - 1) * slope[-1]
        else:
            d0, d1 = x[2] - x[0], x[-1] - x[-3]
            first = ((dx[0] + 2 * d0) * dx[1] * slope[0]
                     + dx[0] ** 2 * slope[1]) / d0
            last = (dx[-1] ** 2 * slope[-2]
                    + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
        b = [float(first),
             *(3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])).tolist(),
             float(last)]
        # forward sweep: ``lo`` is row i, which step i finishes
        lo, rows = b[0], []
        for (swapped, fact), nxt in zip(self._steps, b[1:]):
            if swapped:
                rows.append(nxt)
                lo = lo - fact * nxt
            else:
                rows.append(lo)
                lo = nxt - fact * lo
        rows.append(lo)
        s, x1, x2 = [], 0.0, 0.0
        for bi, (du_i, dl_i, d_i) in zip(reversed(rows), self._back):
            x1, x2 = (bi - du_i * x1 - dl_i * x2) / d_i, x1
            s.append(x1)
        # CubicHermiteSpline's coefficients from the knot slopes
        s = np.array(s[::-1])
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        c0, c1, c2, c3 = t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]

        def at(xi):
            i = np.clip(np.searchsorted(x, xi, "right") - 1, 0, n - 2)
            h = xi - x[i]
            return (0.0 + c3[i] + c2[i] * h + c1[i] * (h * h)
                    + c0[i] * (h * h * h))
        return at


# The fitted dense columns, in CoefficientTrace order; the last four are the
# weighted integrals before the rotation by 2*tau that gives sec_*.
_DENSE_NAMES = ("gamma", "delta_coef", "pi_coef", "r_shift", "gamma_int",
                "delta_gamma", "sec_delta (cos 2s)", "sec_delta (sin 2s)",
                "sec_pi (cos 2s)", "sec_pi (sin 2s)")


def build_trace(env: EnvironmentParams, tau_grid, method: str = METHOD_CLOSED,
                n_dense: int = GRID_POINTS) -> CoefficientTrace:
    """Evaluate every coefficient of the channel on ``tau_grid``.

    A dense uniform master grid carries the cumulative integrals; the
    requested grid is filled by a port of scipy's not-a-knot spline, bit for
    bit (exact at master nodes). A non-finite ``tau_grid``, or a dense
    column that overflows, raises ``NumericError`` naming it.
    """
    require_method(env, method)
    tau_grid = np.asarray(tau_grid, dtype=float)
    if tau_grid.ndim != 1 or len(tau_grid) == 0:
        raise UsageError("tau_grid must be a non-empty 1-d array")
    if not np.isfinite(tau_grid).all():
        raise NumericError("tau_grid: not finite")
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
        with np.errstate(over="ignore", invalid="ignore"):
            on_grid = [f(env, tau_grid) for f in (
                gamma_closed, delta_closed, pi_closed, r_closed,
                gamma_int_closed, delta_gamma_closed)]
            big_gamma_s = gamma_int_closed(env, s)
            delta_s = delta_closed(env, s)
            pi_s = pi_closed(env, s)
        for name, y in zip(_DENSE_NAMES, on_grid):
            if not np.isfinite(y).all():
                raise NumericError(f"{name}: not finite at tau <= {tau_max:g}")
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
    spline = _NotAKnot(s)
    fitted = [spline.fit(y, name)(tau_grid)
              for name, y in zip(_DENSE_NAMES[-len(dense):], dense)]
    *first_stage, d_c, d_s, p_c, p_s = on_grid + fitted
    c2, s2 = np.cos(2.0 * tau_grid), np.sin(2.0 * tau_grid)
    return CoefficientTrace(tau_grid, *first_stage,
                            c2 * d_c + s2 * d_s, s2 * d_c - c2 * d_s,
                            c2 * p_c + s2 * p_s, s2 * p_c - c2 * p_s, method)
