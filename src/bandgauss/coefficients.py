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
  integrals Gamma = J0*delta*Omega*tau^4/6, DeltaGamma = J0*delta*tau^2/2),
  all six first-stage columns from one call, :func:`closed_form`; they
  never read beta, so this route refuses a finite one;
* ``"quadrature"`` -- cumulative Simpson integrals of the kernels of
  :mod:`bandgauss.spectral` on a dense uniform grid, at any temperature.

The running integrals are a uniform Simpson rule, scipy's
``cumulative_simpson`` bit for bit where the spacing is exact. The
interpolation ports scipy's not-a-knot ``CubicSpline``: bit for bit on every
grid where LAPACK's dgtsv swaps no row, which includes every uniform grid,
and no less accurate elsewhere. Its sweeps run as lane scans: lanes of rows
advance side by side in numpy, each from its predecessor's end in the pass
before, and passes repeat until no lane's start changes in its bits, when
every lane has run the sequential sweep's IEEE operations on the same
inputs; the rows after the last whole lane, every row of a short fit, run
once from its end. The module needs no scipy at run time.

:func:`build_trace` is the one evaluator of both routes: it returns a
:class:`CoefficientTrace`, every coefficient as a column over a time grid.
A value at one time is a trace over ``[tau]``, which integrates ``[0, tau]``
on the same dense grid as any longer trace. The trace is the channel: its
phase-space form and phase convention are stated once, in
:meth:`CoefficientTrace.phase_space`, and
:meth:`CoefficientTrace.secular_approximation` is the one secular switch.

Times are dimensionless (system frequency = 1).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from operator import itemgetter

import numpy as np

from .errors import DomainError, NumericError, UsageError
from .spectral import (SpectralDensity, _check_times, kernel_cos,
                       kernel_cos_thermal, kernel_sin)

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

def closed_form(env: EnvironmentParams, tau):
    """The closed route's gamma, delta_coef, pi_coef, r_shift, gamma_int and
    delta_gamma at ``tau``, in :class:`CoefficientTrace` order.

    pi and r are the leading terms of the short-time series of sin(s) and
    cos(s) times the cosine and sine kernels; delta_gamma drops the weights
    exp(Gamma(s) - Gamma(tau)), which are higher order at short time.
    """
    sd, t = env.spectral, np.asarray(tau, dtype=float)
    jd, half = sd.j0 * sd.delta, 0.5 * sd.j0 * sd.delta
    return (jd * sd.omega_lo * t ** 3 / 3.0, jd * t, half * t ** 2,
            half * (sd.omega_lo + 0.5 * sd.delta) * t ** 2,
            jd * sd.omega_lo * t ** 4 / 6.0, half * t ** 2)


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

    def secular_approximation(self) -> CoefficientTrace:
        """This trace with zero ``sec_*`` columns: the secular approximation."""
        zero = np.zeros_like(self.tau_grid)
        return replace(self, sec_delta_co=zero, sec_delta_si=zero,
                       sec_pi_co=zero, sec_pi_si=zero)

    def phase_space(self, c: float):
        """The channel in phase space for a correlation block diag(c, -c):
        ``(decay, u, v)`` per grid time, with decay = exp(-Gamma) on every
        block, the added noise DeltaGamma*I + u and the correlation block v
        after the channel; a pair (x, y) is the matrix [[x, y], [y, -x]].

        The one statement of the phase convention: x gets DeltaGamma + u1
        and p gets DeltaGamma - u1, and v = c*decay*(cos 2tau, -sin 2tau)
        is R C R^T with R = [[cos tau, sin tau], [-sin tau, cos tau]], as
        ``oracle.propagate_w_matrix`` checks.
        """
        decay, two_tau = np.exp(-self.gamma_int), 2.0 * self.tau_grid
        u = (self.sec_delta_co - self.sec_pi_si,
             -(self.sec_delta_si + self.sec_pi_co))
        return decay, u, (c * decay * np.cos(two_tau),
                          -c * decay * np.sin(two_tau))


# Largest damping-exponent change per Simpson pair for which polynomial
# quadrature of the weighted integrand is still accurate; stiffer pairs use
# the exponential-integrator step.
_STIFF_PAIR_GAP = 0.05


def _exp(a: np.ndarray, where: np.ndarray) -> np.ndarray:
    """exp(a) where asked and 0 elsewhere, by ``math.exp`` on the numpy
    buffer, with no list copy: ``np.exp`` rounds some arguments differently."""
    out = np.zeros(a.shape)
    out[where] = np.fromiter(map(math.exp, memoryview(a[where])), float)
    return out


def _etd_weights(a: np.ndarray, where: np.ndarray):
    """exp(-a) and the two phi-functions of the exponential-integrator step
    over a damping-exponent change ``a``, where asked and 0 elsewhere.

    The step solves y' = x - Gamma'*y with x linear and Gamma' constant
    (Hochbruck & Ostermann, Acta Numerica 2010): exact for that local model,
    and only exp(-a) appears, so growing exponents cannot overflow. Steeply
    decreasing exponents are outside the model and get clamped.
    """
    a = np.maximum(a, -600.0)
    ema = _exp(-a, where)
    phi0, phi1 = np.zeros(a.shape), np.zeros(a.shape)
    series = where & (np.abs(a) < 1e-4)
    closed = where & ~series
    s, c, e = a[series], a[closed], ema[closed]
    phi0[series] = 0.5 - s / 3.0 + s * s / 8.0
    phi1[series] = 0.5 - s / 6.0 + s * s / 24.0
    phi0[closed] = (1.0 - e * (1.0 + c)) / (c * c)
    phi1[closed] = (c - 1.0 + e) / (c * c)
    return ema, phi0, phi1


def _weighted_cumulative(s: np.ndarray, xs,
                         big_gamma: np.ndarray) -> np.ndarray:
    """Running y(t) = exp(-Gamma(t)) * int_0^t exp(Gamma(s)) x(s) ds for
    each item of ``xs``, one row of the result each: a column x, or a pair
    (x, trig) for x * trig(2s), built only while its own chain runs.

    Simpson-order accurate on a uniform grid while the exponent changes
    slowly; pairs where it jumps by more than ``_STIFF_PAIR_GAP`` switch to
    two exponential-integrator steps, so arbitrarily large damping exponents
    neither overflow nor blow up the quadrature error.

    A pair of steps from y is y1 = y*m1 + c1, then y2 = y1*m2 + c2 (stiff)
    or y*m2 + c2 (Simpson). The multipliers depend on Gamma alone and are
    shared; each column's increments are vectorised in the operation order
    of one scalar step, then its chain through the even nodes runs on Python
    floats read from the numpy buffers into an ``array("d")``, with no list
    copy, so the working set does not grow with the number of columns. The
    operations and their order are the step-by-step loop's, and so the bits.
    """
    h = float(s[1] - s[0])
    g0, g1, g2 = big_gamma[:-2:2], big_gamma[1::2], big_gamma[2::2]
    # each exp only where its step takes it, since math.exp raises on
    # overflow; a non-finite exponent gives NaN, as on Python floats
    with np.errstate(over="ignore", invalid="ignore"):
        stiff = np.abs(g2 - g0) > _STIFF_PAIR_GAP
        smooth = ~stiff
        # Simpson: the parabola through the triple, integrated over the
        # first half-panel and over the pair
        w0, w2, v0, v1 = (_exp(d, smooth) for d in (g0 - g1, g2 - g1,
                                                    g0 - g2, g1 - g2))
        e1, phi0, phi1 = _etd_weights(g1 - g0, stiff)
        e2, psi0, psi1 = _etd_weights(g2 - g1, stiff)
        m1 = np.where(stiff, e1, w0)
        m2 = np.where(stiff, e2, v0)
    y = np.empty((len(xs), len(s)))
    for col, x in zip(y, xs):
        x = x[0] * x[1](2.0 * s) if isinstance(x, tuple) else x
        x0, x1, x2 = x[:-2:2], x[1::2], x[2::2]
        with np.errstate(over="ignore", invalid="ignore"):
            c1 = np.where(stiff, h * (x0 * phi0 + x1 * phi1),
                          h / 12.0 * (5.0 * w0 * x0 + 8.0 * x1 - w2 * x2))
            c2 = np.where(stiff, h * (x1 * psi0 + x2 * psi1),
                          h / 3.0 * (v0 * x0 + 4.0 * v1 * x1 + x2))
        yk, even = 0.0, array("d", [0.0])
        for st, a1, a2, b1, b2 in zip(*map(memoryview, (stiff, m1, m2, c1,
                                                        c2))):
            yk = ((yk * a1 + b1) if st else yk) * a2 + b2
            even.append(yk)
        col[::2] = np.frombuffer(even)
        col[1::2] = col[:-2:2] * m1 + c1
    return y


def _running_integral(y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Cumulative Simpson integral of ``y`` from 0 on the uniform grid ``s``
    of an odd number of points.

    Each half of a Simpson pair integrates the parabola through its three
    samples, and one running sum adds them (``+ 0.0`` folds -0.0). With exact
    spacing (8,193 nodes over an integer span) this is scipy's
    ``cumulative_simpson(y, x=s, initial=0.0)`` bit for bit.
    """
    h = s[1] - s[0]
    f0, f1, f2 = y[:-2:2], y[1::2], y[2::2]
    pieces = np.empty(len(y) - 1)
    pieces[::2] = h / 12.0 * (5.0 * f0 + 8.0 * f1 - f2)
    pieces[1::2] = h / 12.0 * (5.0 * f2 + 8.0 * f1 - f0)
    return np.concatenate(([0.0], np.cumsum(pieces) + 0.0))


# Rows per lane of a lane scan; a scan of fewer rows runs as its tail.
_LANE = 64


def _lane_scan(sweep, start, *inputs, out=None):
    """``sweep(start, rows)`` down each column of the (rows, columns)
    ``inputs``, into ``out`` if given, with the sequential sweep's IEEE
    bits (up to which of two NaN operands a sum or product returns); a
    sweep yields each row's value from a state (last value, the one before).

    Lanes of _LANE rows run side by side in numpy, the first from ``start``
    and each other from its predecessor's last two values in the previous
    pass (from ``start`` in the first), until no lane's start changes in its
    bits. Every lane has then run the sequential sweep's IEEE operations on
    the same inputs; lane k is exact after pass k + 1, so the loop ends. The
    rows after the last whole lane run once from its end, and a scan with
    no whole lane from ``start`` (a blocked scan after Blelloch,
    CMU-CS-90-190).
    """
    inputs = np.broadcast_arrays(*inputs)
    rows, cols = inputs[0].shape
    out = np.empty((rows, cols)) if out is None else out
    body = rows - rows % _LANE
    # (row of a lane, lane, column) views; ``lane_out`` writes into ``out``
    lane_out, *lane_in = (a[:body].reshape(-1, _LANE, cols).swapaxes(0, 1)
                          for a in (out, *inputs))
    starts = np.tile(np.reshape(start, (2, 1, 1)), (body // _LANE, cols))
    with np.errstate(all="ignore"):  # a guessed start may overflow
        while body:  # passes, when there is a whole lane
            for j, value in enumerate(sweep(tuple(starts), zip(*lane_in))):
                lane_out[j] = value
            ends = lane_out[[-1, -2], :-1]
            if (ends.view(np.int64) == starts[:, 1:].view(np.int64)).all():
                start = out[body - 1], out[body - 2]
                break
            starts[:, 1:] = ends
        for j, value in enumerate(sweep(start, zip(
                *(a[body:] for a in inputs)))):
            out[body + j] = value
    return out


def _factor_sweep(state, rows):  # U's pivots: dgtsv's, with no interchange
    pivot = state[0]
    for dl_i, du_i, d_i in rows:
        yield (pivot := d_i - dl_i / pivot * du_i)


def _forward_sweep(state, rows):  # L's substitution; row 0's factor is 0
    lo = state[0]
    for b_i, fact in rows:
        yield (lo := b_i - fact * lo)


def _back_sweep(state, rows):
    # U's substitution, dgtsv's, last row first; its zero subdiagonal still
    # subtracts 0.0 * x2, which against a negative x2 turns -0.0 into +0.0
    x1, x2 = state
    for b_i, du_i, d_i in rows:
        x1, x2 = (b_i - du_i * x1 - 0.0 * x2) / d_i, x1
        yield x1


class _NotAKnot:
    """scipy 1.17's not-a-knot ``CubicSpline`` on the abscissae ``x``, bit
    for bit on every grid where LAPACK's dgtsv (what scipy's ``solve_banded``
    calls) swaps no row, which includes every uniform grid; three points give
    its parabola to rounding (scipy solves that system densely).

    The system for the knot slopes depends on ``x`` alone: it is factored
    once, in dgtsv's operation order but with no row swapped. Every
    interior row is strictly diagonally dominant; on grids where dgtsv
    swaps, the slopes are no less accurate than scipy's. The factorization
    and both substitutions are lane scans (:func:`_lane_scan`) over every
    column fitted at once: fixed-point passes over lanes of rows, with the
    sequential sweeps' bits; :meth:`fit` takes a list of columns and gives
    one function of time for all."""

    def __init__(self, x: np.ndarray):
        dx, n = np.diff(x), len(x)
        self.x, self.dx = x, dx
        # interior rows, then the end rows (diagonal, off-diagonal); scipy's
        # line (n = 2) and parabola (n = 3) have ends of their own
        d = np.concatenate(([0.0], 2 * (dx[:-1] + dx[1:]), [0.0]))
        du, dl = np.append(0.0, dx[:-1]), np.append(dx[1:], 0.0)
        ends = ((1, n - 2),) * 2 if n <= 3 else (
            (dx[1], x[2] - x[0]), (dx[-2], x[-1] - x[-3]))
        (d[0], du[0]), (d[-1], dl[-1]) = ends
        # U's pivots and each row's factor; the forward sweep's factors (row
        # 0's is 0), and the back substitution's rows, last first
        d[1:] = _lane_scan(_factor_sweep, (float(d[0]), 0.0), dl[:, None],
                           du[:, None], d[1:, None])[:, 0]
        self.facts = dl / d[:-1]
        self.lower = np.append(0.0, self.facts)[:, None]
        self.upper, self.pivots = np.append(du, 0.0)[::-1, None], d[::-1, None]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """The knot slopes for the right-hand sides, the (n, columns) ``b``,
        which the back substitution overwrites, last row first."""
        rows = _lane_scan(_forward_sweep, (0.0, 0.0), b, self.lower)
        return _lane_scan(_back_sweep, (0.0, 0.0), rows[::-1], self.upper,
                          self.pivots, out=b)[::-1]

    def rhs(self, slope: np.ndarray) -> np.ndarray:
        """The right-hand side of the knot-slope system for the secant
        slopes ``slope``."""
        x, dx, n = self.x, self.dx, len(self.x)
        if n <= 3:
            first, last = (n - 1) * slope[0], (n - 1) * slope[-1]
        else:
            d0, d1 = x[2] - x[0], x[-1] - x[-3]
            first = ((dx[0] + 2 * d0) * dx[1] * slope[0]
                     + dx[0] ** 2 * slope[1]) / d0
            last = (dx[-1] ** 2 * slope[-2]
                    + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
        return np.concatenate(([first], 3 * (dx[1:] * slope[:-1]
                                             + dx[:-1] * slope[1:]), [last]))

    def fit(self, ys):
        """One function of time giving the spline through ``(x, y)`` of each
        column ``y`` of ``ys``, all from one solve, with the interval located
        once for all. A sample that is not finite makes every slope, so
        every value, of its column non-finite, which the callers refuse."""
        x, dx = self.x, self.dx
        b = np.empty((len(x), len(ys)))
        for col, y in zip(b.T, ys):
            col[:] = self.rhs(np.diff(y) / dx)
        slopes = list(self.solve(b).T)

        def at(xi):
            # the interval, the end ones extended past the grid
            i = np.searchsorted(x[1:-1], xi, "right")
            j, h, d = i + 1, xi - x[i], dx[i]
            h2, h3 = h * h, h * h * h
            out = []
            for y, s in zip(ys, slopes):
                # the secant slope and CubicHermiteSpline's coefficients, on
                # the intervals read only
                s0, m = s[i], (y[j] - y[i]) / d
                t = (s0 + s[j] - 2 * m) / d
                c0, c1, c2, c3 = t / d, (m - s0) / d - t, s0, y[i]
                out.append(0.0 + c3 + c2 * h + c1 * h2 + c0 * h3)
            return out
        return at


def _check_grid(tau, name: str) -> np.ndarray:
    """``tau`` as floats; the one check of every time grid, by name."""
    tau = np.asarray(tau, dtype=float)
    if tau.ndim != 1 or len(tau) == 0 or np.any(tau[1:] <= tau[:-1]):
        raise UsageError(f"{name} must be a non-empty, strictly ascending 1-d array")
    return _check_times(tau, name)


# The fitted dense columns, in CoefficientTrace order; the last four are the
# weighted integrals before the rotation by 2*tau that gives sec_*.
_DENSE_NAMES = ("gamma", "delta_coef", "pi_coef", "r_shift", "gamma_int",
                "delta_gamma", "sec_delta (cos 2s)", "sec_delta (sin 2s)",
                "sec_pi (cos 2s)", "sec_pi (sin 2s)")
# Columns per spline solve: each adds two dense columns to the working set
# while its solve runs.
_FIT_GROUP = 5


def build_trace(env: EnvironmentParams, tau_grid, method: str = METHOD_CLOSED,
                n_dense: int = GRID_POINTS) -> CoefficientTrace:
    """Evaluate every coefficient of the channel on ``tau_grid``.

    A dense uniform master grid carries the cumulative integrals; the
    requested grid is filled by a port of scipy's not-a-knot spline, bit for
    bit (exact at master nodes). ``tau_grid`` is checked as every time grid
    is (:func:`_check_grid`); one too short for positive dense steps, or an
    overflowing column, dense or fitted, raises ``NumericError`` naming it.
    """
    require_method(env, method)
    if not isinstance(n_dense, (int, np.integer)) or n_dense < 3 \
            or n_dense % 2 == 0:
        raise UsageError(f"n_dense must be an odd integer >= 3, got {n_dense!r}")
    tau_grid = _check_grid(tau_grid, "tau_grid")

    tau_max = float(tau_grid[-1])
    if tau_max == 0.0:
        zeros = [np.zeros_like(tau_grid) for _ in range(10)]
        return CoefficientTrace(tau_grid, *zeros, method)

    s = np.linspace(0.0, tau_max, n_dense)
    if not np.all(np.diff(s) > 0.0):
        raise NumericError(f"tau_grid: dense steps underflow to 0 at tau <= "
                           f"{tau_max:g}")

    def require_finite(names, columns):
        for name, y in zip(names, columns):
            if not np.isfinite(y).all():
                raise NumericError(f"{name}: not finite at tau <= {tau_max:g}")

    # an overflow is refused below, naming its column, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        if method == METHOD_CLOSED:
            on_grid = list(closed_form(env, tau_grid))
            # the dense columns the recurrence reads; no other stays alive
            delta_s, pi_s, big_gamma_s = itemgetter(1, 2, 4)(
                closed_form(env, s))
            dense, weighted = [], []
        else:
            ks = kernel_sin(env.spectral, s)
            kc = np.asarray(env.thermal_cos_kernel(s), dtype=float)
            gamma_s = _running_integral(np.sin(s) * ks, s)
            delta_s = _running_integral(np.cos(s) * kc, s)
            pi_s = _running_integral(np.sin(s) * kc, s)
            r_s = _running_integral(np.cos(s) * ks, s)
            big_gamma_s = _running_integral(2.0 * gamma_s, s)
            on_grid = []
            dense = [gamma_s, delta_s, pi_s, r_s, big_gamma_s]
            weighted = [delta_s]  # delta_gamma
            del ks, kc, gamma_s, r_s
    require_finite(_DENSE_NAMES, on_grid + dense)
    # the exponential-integrator weights divide by the square of a step's
    # rise in Gamma: past about 1.3e154 it overflows and they read 0
    if np.any(np.diff(big_gamma_s) > 1e154):
        raise NumericError(f"gamma_int: rises by more than 1e154 in one dense "
                           f"step at tau <= {tau_max:g}")
    # one recurrence for every integrand weighted by exp(Gamma), each built
    # from its (column, cos/sin) factors only while its own chain runs
    weighted += [(x, trig) for x in (delta_s, pi_s) for trig in (np.cos, np.sin)]
    dense += list(_weighted_cumulative(s, weighted, big_gamma_s))
    # the sources now live on only in `dense`, each group until it is fitted
    del weighted, delta_s, pi_s, big_gamma_s
    spline, names = _NotAKnot(s), _DENSE_NAMES[-len(dense):]
    fitted = []
    with np.errstate(over="ignore", invalid="ignore"):
        while dense:
            group, dense[:_FIT_GROUP] = dense[:_FIT_GROUP], []
            fitted += spline.fit(group)(tau_grid)
    require_finite(names, fitted)
    *first_stage, d_c, d_s, p_c, p_s = on_grid + fitted
    c2, s2 = np.cos(2.0 * tau_grid), np.sin(2.0 * tau_grid)
    return CoefficientTrace(tau_grid, *first_stage,
                            c2 * d_c + s2 * d_s, s2 * d_c - c2 * d_s,
                            c2 * p_c + s2 * p_s, s2 * p_c - c2 * p_s, method)
