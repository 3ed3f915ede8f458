"""The numpy ports against what they replace: scipy's not-a-knot
``CubicSpline`` and ``cumulative_simpson``, bit for bit, and the Python-float
weighted recurrence against its numpy-indexed loop in ``per_point``. scipy
stays installed for these tests and for ``verify``; no data command imports
it."""

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline

import per_point
from bandgauss.coefficients import (_STIFF_PAIR_GAP, GRID_POINTS,
                                    EnvironmentParams, _NotAKnot,
                                    _running_integral, _weighted_cumulative,
                                    build_trace, delta_closed,
                                    gamma_int_closed, pi_closed)
from bandgauss.entanglement import find_last_upcrossing, kappa_full_curve
from bandgauss.errors import NumericError
from bandgauss.spectral import SpectralDensity, kernel_cos, kernel_sin

TAU_MAXES = (5.0, 10.0, 20.0, 30.0, 100.0)


def assert_same_bits(ours, theirs):
    """Equal values, and equal signs of every zero."""
    np.testing.assert_array_equal(ours, theirs)
    assert ours.tobytes() == theirs.tobytes()


def columns(s):
    """Smooth, oscillating and growing columns like the trace's own."""
    tau = s[-1]
    return [np.sin(3.0 * s) * np.exp(-s / tau), 1e-3 * s ** 2 + np.cos(s),
            np.tanh(s - 0.5 * tau), s ** 4 / 6.0]


def random_grids(seed, count):
    """Strictly ascending grids with spacings spread over decades, so that
    dgtsv meets rows whose subdiagonal outweighs the diagonal; samples
    include -0.0, whose sign scipy's evaluation drops."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(4, 60))
        x = np.cumsum(rng.exponential(size=n) ** 3) + rng.normal()
        y = rng.normal(size=n)
        y[::4] = -0.0
        if np.all(np.diff(x) > 0.0):
            yield x, y, rng.uniform(x[0] - 1, x[-1] + 1, 40)


class TestNotAKnotSpline:
    @pytest.mark.parametrize("tau_max", TAU_MAXES)
    def test_dense_grid_bit_for_bit(self, tau_max):
        s = np.linspace(0.0, tau_max, GRID_POINTS)
        spline = _NotAKnot(s)
        # the requested grid, points between nodes, and extrapolated points
        xi = np.concatenate([np.linspace(0.0, tau_max, 600),
                             np.linspace(-1.0, tau_max + 1.0, 997)])
        for y in columns(s):
            assert_same_bits(spline.fit(y, "y")(xi), CubicSpline(s, y)(xi))

    def test_random_grids_with_row_interchanges(self):
        interchanged = 0
        for x, y, xi in random_grids(seed=3, count=300):
            spline = _NotAKnot(x)
            interchanged += any(sw for sw, _ in spline._steps)
            xi = np.concatenate([x, xi])
            assert_same_bits(spline.fit(y, "y")(xi), CubicSpline(x, y)(xi))
        assert interchanged > 200

    def test_two_points_are_scipys_straight_line(self):
        x, y = np.array([0.5, 2.0]), np.array([1.0, -3.0])
        xi = np.linspace(-1.0, 3.0, 17)
        assert_same_bits(_NotAKnot(x).fit(y, "y")(xi), CubicSpline(x, y)(xi))

    @pytest.mark.parametrize("x", [[0.0, 1.0, 2.0], [0.0, 1.0, 3.0],
                                   [0.0, 0.3, 30.0]])
    def test_three_points_are_scipys_parabola_to_rounding(self, x):
        # scipy solves this case densely, in another operation order
        x = np.array(x)
        xi = np.linspace(x[0] - 0.5, x[-1] + 0.5, 41)
        for y in (np.cos(x) + 2.0, np.array([1.0, -2.0, 0.5])):
            ours, scipys = _NotAKnot(x).fit(y, "y")(xi), CubicSpline(x, y)(xi)
            assert np.max(np.abs(ours - scipys)) <= 1e-15 * np.max(
                np.abs(scipys))

    def test_non_finite_column_named(self):
        y = np.ones(5)
        y[2] = np.inf
        with pytest.raises(NumericError, match="kappa: not finite"):
            _NotAKnot(np.arange(5.0)).fit(y, "kappa")

    def test_upcrossing_bisects_the_fit(self):
        env = EnvironmentParams(SpectralDensity(1.0, 1.0, 1e-2))
        grid = np.linspace(0.0, 30.0, 600)
        kappa = kappa_full_curve(build_trace(env, grid), 1.0)
        spline = CubicSpline(grid, kappa)
        tau_sd = find_last_upcrossing(grid, kappa, 1.0)
        assert tau_sd is not None
        assert tau_sd == find_last_upcrossing(
            grid, kappa, 1.0, lambda t: float(spline(t)))


class TestRunningIntegral:
    @pytest.mark.parametrize("tau_max", TAU_MAXES)
    def test_dense_grid_bit_for_bit(self, tau_max):
        s = np.linspace(0.0, tau_max, GRID_POINTS)
        for y in columns(s):
            assert_same_bits(
                _running_integral(y, s),
                cumulative_simpson(y, x=s, initial=0.0))

    def test_negative_zero_pieces(self):
        # the first half-intervals sum to -0.0; initial=0.0 adds +0.0
        x, y = np.arange(5.0), np.array([-0.0, -0.0, 0.0, 1.0, 2.0])
        assert_same_bits(_running_integral(y, x),
                         cumulative_simpson(y, x=x, initial=0.0))

    def test_random_grids_bit_for_bit(self):
        for x, y, _ in random_grids(seed=5, count=100):
            assert_same_bits(
                _running_integral(y, x),
                cumulative_simpson(y, x=x, initial=0.0))


class TestWeightedCumulative:
    def test_stiff_closed_route(self):
        # Omega = 10, tau = 30: the exponent jumps by up to 13 per pair
        env = EnvironmentParams(SpectralDensity(1.0, 10.0, 1e-2))
        s = np.linspace(0.0, 30.0, GRID_POINTS)
        big_gamma = gamma_int_closed(env, s)
        assert np.max(big_gamma[2::2] - big_gamma[:-2:2]) > 100 * _STIFF_PAIR_GAP
        for x in (delta_closed(env, s), pi_closed(env, s)):
            for weighted in (x, x * np.cos(2.0 * s), x * np.sin(2.0 * s)):
                assert_same_bits(
                    _weighted_cumulative(s, weighted, big_gamma),
                    per_point.weighted_cumulative(s, weighted, big_gamma))

    def test_non_monotone_quadrature_route(self):
        # Omega = 10, delta = 1: gamma changes sign, so Gamma dips below 0
        sd = SpectralDensity(1.0, 10.0, 1.0)
        s = np.linspace(0.0, 3.0, GRID_POINTS)
        gamma = _running_integral(np.sin(s) * kernel_sin(sd, s), s)
        big_gamma = _running_integral(2.0 * gamma, s)
        assert np.any(np.diff(big_gamma) < 0.0) and big_gamma.min() < 0.0
        delta = _running_integral(np.cos(s) * kernel_cos(sd, s), s)
        for weighted in (delta, delta * np.cos(2.0 * s)):
            assert_same_bits(
                _weighted_cumulative(s, weighted, big_gamma),
                per_point.weighted_cumulative(s, weighted, big_gamma))


class TestTraceRefusesNonFinite:
    def test_non_finite_grid(self):
        env = EnvironmentParams(SpectralDensity(1.0, 1.0, 1e-3))
        with pytest.raises(NumericError, match="tau_grid"):
            build_trace(env, [0.0, 1.0, np.nan])

    def test_overflowing_column_named(self):
        # tau^4 overflows: the closed-form damping exponent is inf
        env = EnvironmentParams(SpectralDensity(1.0, 1.0, 1e-3))
        with pytest.raises(NumericError, match="gamma_int: not finite"):
            build_trace(env, np.linspace(0.0, 1e80, 5))
