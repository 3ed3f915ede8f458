"""The numpy forms against what they replace: the not-a-knot spline port
against scipy's ``CubicSpline``, bit for bit on every grid where LAPACK's
dgtsv swaps no row, which includes every uniform grid, and no less accurate
against the exact knot slopes elsewhere; its lane scans against the
sequential sweeps in ``per_point``, bit for bit on every grid; the uniform
running Simpson rule against
``cumulative_simpson``, bit for bit where the grid spacing is exact and to
rounding elsewhere; and the Python-float weighted recurrence against its
numpy-indexed loop in ``per_point``. scipy stays installed for these tests
and for ``verify``; no data command imports it."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline

import per_point
from bandgauss import coefficients
from bandgauss.coefficients import (_LANE, _STIFF_PAIR_GAP, GRID_POINTS,
                                    METHOD_CLOSED, METHOD_QUADRATURE,
                                    EnvironmentParams, _NotAKnot,
                                    _running_integral, _weighted_cumulative,
                                    build_trace, closed_form)
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
    dgtsv meets rows whose subdiagonal outweighs the diagonal, samples that
    include -0.0, and points to evaluate up to one unit past either end."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(4, 60))
        x = np.cumsum(rng.exponential(size=n) ** 3) + rng.normal()
        y = rng.normal(size=n)
        y[::4] = -0.0
        if np.all(np.diff(x) > 0.0):
            yield x, y, rng.uniform(x[0] - 1, x[-1] + 1, 40)


def exact_slopes(x, y):
    """The not-a-knot spline's knot slopes for the samples as exact
    rationals, by Thomas elimination on ``Fraction``s, which needs no
    pivoting; the system is scipy's (and the port's) for n >= 4."""
    x, y = [Fraction(v) for v in x], [Fraction(v) for v in y]
    h = [b - a for a, b in zip(x, x[1:])]
    m = [(b - a) / dx for a, b, dx in zip(y, y[1:], h)]
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    diag = [h[1], *(2 * (a + b) for a, b in zip(h, h[1:])), h[-2]]
    upper, lower = [d0, *h[:-1]], [*h[1:], d1]
    rhs = [((h[0] + 2 * d0) * h[1] * m[0] + h[0] ** 2 * m[1]) / d0,
           *(3 * (b * ma + a * mb)
             for a, b, ma, mb in zip(h, h[1:], m, m[1:])),
           (h[-1] ** 2 * m[-2] + (2 * d1 + h[-1]) * h[-2] * m[-1]) / d1]
    for i, low in enumerate(lower):
        fact = low / diag[i]
        diag[i + 1] -= fact * upper[i]
        rhs[i + 1] -= fact * rhs[i]
    s = [rhs[-1] / diag[-1]]
    for i in range(len(x) - 2, -1, -1):
        s.append((rhs[i] - upper[i] * s[-1]) / diag[i])
    return s[::-1]


def max_slope_error(slopes, exact):
    """Largest knot-slope error relative to the largest exact slope."""
    return max(abs(Fraction(a) - b) for a, b in zip(slopes, exact)) \
        / max(abs(b) for b in exact)


class TestNotAKnotSpline:
    @pytest.mark.parametrize("tau_max", TAU_MAXES + (7.3, 1.0 / 3.0))
    def test_dense_grid_bit_for_bit(self, tau_max):
        # the requested grid, points between nodes, and extrapolated points
        xi = np.concatenate([np.linspace(0.0, tau_max, 600),
                             np.linspace(-1.0, tau_max + 1.0, 997)])
        for n in (4, 5, 600, 1500, GRID_POINTS):
            s = np.linspace(0.0, tau_max, n)
            spline = _NotAKnot(s)
            for y in columns(s) + [np.where(s < 0.5 * tau_max, -0.0, 0.0)]:
                assert_same_bits(spline.fit([y], ["y"])(xi)[0],
                                 CubicSpline(s, y)(xi))

    def test_random_grids_to_exact_slopes(self):
        # without interchanges the port leaves dgtsv's path on these grids,
        # and scipy's bits with it, but it is no less accurate
        swapping, ours, scipys = 0, 0, 0
        for x, y, _ in random_grids(seed=3, count=300):
            spline = _NotAKnot(x)
            swapping += any(abs(fact) > 1.0 for fact in spline.facts)
            exact = exact_slopes(x, y)
            rhs = spline.rhs(np.diff(y) / np.diff(x))
            ours = max(ours, max_slope_error(
                spline.solve(rhs[:, None])[:, 0], exact))
            scipys = max(scipys, max_slope_error(
                CubicSpline(x, y).derivative()(x), exact))
        assert swapping >= 200
        assert ours <= scipys

    def test_two_points_are_scipys_straight_line(self):
        x, y = np.array([0.5, 2.0]), np.array([1.0, -3.0])
        xi = np.linspace(-1.0, 3.0, 17)
        assert_same_bits(_NotAKnot(x).fit([y], ["y"])(xi)[0],
                         CubicSpline(x, y)(xi))

    @pytest.mark.parametrize("x", [[0.0, 1.0, 2.0], [0.0, 1.0, 3.0],
                                   [0.0, 0.3, 30.0]])
    def test_three_points_are_scipys_parabola_to_rounding(self, x):
        # scipy solves this case densely, in another operation order
        x = np.array(x)
        xi = np.linspace(x[0] - 0.5, x[-1] + 0.5, 41)
        for y in (np.cos(x) + 2.0, np.array([1.0, -2.0, 0.5])):
            ours = _NotAKnot(x).fit([y], ["y"])(xi)[0]
            scipys = CubicSpline(x, y)(xi)
            assert np.max(np.abs(ours - scipys)) <= 1e-15 * np.max(
                np.abs(scipys))

    def test_non_finite_column_named(self):
        y = np.ones(5)
        y[2] = np.inf
        with pytest.raises(NumericError, match="kappa: not finite"):
            _NotAKnot(np.arange(5.0)).fit([np.ones(5), y], ["gamma", "kappa"])

    def test_upcrossing_bisects_the_fit(self):
        env = EnvironmentParams(SpectralDensity(1.0, 1.0, 1e-2))
        grid = np.linspace(0.0, 30.0, 600)
        kappa = kappa_full_curve(build_trace(env, grid), 1.0)
        spline = CubicSpline(grid, kappa)
        tau_sd = find_last_upcrossing(grid, kappa, 1.0)
        assert tau_sd is not None
        assert tau_sd == find_last_upcrossing(
            grid, kappa, 1.0, lambda t: float(spline(t)))


def sweep_columns(s):
    """Samples like the trace's and reaching 1e300, and right-hand sides of
    signed zeros and of 1e300 among them, for the sweeps on the grid ``s``."""
    i = np.arange(len(s))
    signs = np.random.default_rng(len(s)).random(len(s)) < 0.5
    return columns(s) + [1e300 * np.cos(s)], [
        np.where(signs, -0.0, 0.0), np.where(i % 5 == 0, 1e300, -0.0)]


def assert_sequential_bits(x, ys, bs=()):
    """One solve of the right-hand sides of the samples ``ys`` and of the
    columns ``bs`` gives the knot slopes, and the row factors, of the
    sequential sweeps bit for bit."""
    spline = _NotAKnot(x)
    bs = [spline.rhs(np.diff(y) / np.diff(x)) for y in ys] + list(bs)
    for got, b in zip(spline.solve(np.stack(bs, axis=1)).T, bs):
        want, facts = per_point.tridiagonal_sweeps(x, b.tolist())
        assert got.tobytes() == want.tobytes()
    assert spline.facts.tobytes() == facts.tobytes()


@pytest.fixture
def sweep_rows(monkeypatch):
    """Rows each spline sweep runs, [on Python floats, in numpy lanes]."""
    rows = {}
    for name in ("_factor_sweep", "_forward_sweep", "_back_sweep"):
        def counted(state, inputs, sweep=getattr(coefficients, name),
                    count=rows.setdefault(name, [0, 0])):
            for value in sweep(state, inputs):
                count[type(value) is not float] += 1
                yield value
        monkeypatch.setattr(coefficients, name, counted)
    return rows


class TestLaneScan:
    """The lane scans against the sequential sweeps, bit for bit with the
    signs of zeros, and the path each grid takes."""

    @pytest.mark.parametrize("tau_max", TAU_MAXES + (7.3, 1.0 / 3.0))
    def test_uniform_dense_grids(self, tau_max):
        s = np.linspace(0.0, tau_max, GRID_POINTS)
        assert_sequential_bits(s, *sweep_columns(s))

    def test_graded_grids_where_dgtsv_swaps(self):
        rng = np.random.default_rng(5)
        for n in (4500, 9000):
            x = np.unique(np.cumsum(rng.exponential(size=n) ** 3))
            ys = [rng.normal(size=len(x)), np.sin(x)]
            ys[0][::4] = -0.0
            assert len(x) >= 4000
            assert np.sum(np.abs(_NotAKnot(x).facts) > 1.0) > 100
            assert_sequential_bits(x, ys, sweep_columns(x)[1])

    def test_one_solve_fits_each_column_as_alone(self):
        s = np.linspace(0.0, 30.0, GRID_POINTS)
        xi = np.linspace(-1.0, 31.0, 997)
        spline, ys = _NotAKnot(s), columns(s)
        for got, y in zip(spline.fit(ys, ["y"] * len(ys))(xi), ys):
            assert_same_bits(got, spline.fit([y], ["y"])(xi)[0])

    def test_lanes_that_miss_their_junction_are_recomputed(
            self, monkeypatch, sweep_rows):
        # two warm-up rows leave most lanes off their predecessor's bits
        monkeypatch.setattr(coefficients, "_WARM_UP", 2)
        s = np.linspace(0.0, 100.0, GRID_POINTS)
        ys, bs = sweep_columns(s)
        assert_sequential_bits(s, ys, bs)
        python, lanes = sweep_rows["_back_sweep"]
        assert lanes > 0
        assert python > 10 * (len(ys) + len(bs)) * (_LANE + GRID_POINTS % _LANE)

    @pytest.mark.parametrize("env, tau_grid, method, columns", [
        (EnvironmentParams(SpectralDensity(1.0, 1.0, 1e-3)),
         np.linspace(0.0, 30.0, 600), METHOD_CLOSED, 4),
        (EnvironmentParams(SpectralDensity(1.0, 1.0, 1e-2), 2.0),
         np.linspace(0.0, 20.0, 400), METHOD_QUADRATURE, 10),
        (EnvironmentParams(SpectralDensity(1.0, 1.0, 1.0), 2.0),
         np.linspace(0.0, 10.0, 200), METHOD_QUADRATURE, 10)],
        ids=["fig1b", "thermal-sweep", "thermal-coefficients"])
    def test_no_solve_lane_recomputed_on_dense_grids(
            self, sweep_rows, env, tau_grid, method, columns):
        # on Python floats: only the first lane and the one-row tail
        build_trace(env, tau_grid, method)
        for name in ("_forward_sweep", "_back_sweep"):
            assert sweep_rows[name][0] == columns * (
                _LANE + GRID_POINTS % _LANE)

    def test_short_kappa_fit_is_one_lane(self, sweep_rows):
        grid = np.linspace(0.0, 30.0, 600)
        env = EnvironmentParams(SpectralDensity(1.0, 1.0, 1e-2))
        kappa = kappa_full_curve(build_trace(env, grid), 1.0)
        assert sweep_rows["_back_sweep"][1] > 0  # the dense grid has lanes
        for count in sweep_rows.values():
            count[:] = 0, 0
        assert find_last_upcrossing(grid, kappa, 1.0) is not None
        assert sweep_rows["_back_sweep"] == [600, 0]
        assert all(lanes == 0 for _, lanes in sweep_rows.values())


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

    @pytest.mark.parametrize("tau_max", [7.3, 12.345, 29.9, 1.0 / 3.0, 0.7,
                                         1000.0 / 7.0])
    def test_inexact_spacing_to_rounding(self, tau_max):
        # linspace's spacings differ in the last bits here, which scipy's
        # per-interval ratios read and the uniform rule does not. A running
        # sum's rounding grows with the integral of |y|, which is the
        # column's largest value where y keeps one sign.
        s = np.linspace(0.0, tau_max, GRID_POINTS)
        sd = SpectralDensity(1.0, 10.0, 1e-2)
        ks, kc = kernel_sin(sd, s), kernel_cos(sd, s)
        for y in columns(s) + [np.sin(s) * ks, np.cos(s) * kc,
                               np.sin(s) * kc, np.cos(s) * ks]:
            want = cumulative_simpson(y, x=s, initial=0.0)
            assert np.max(np.abs(_running_integral(y, s) - want)) \
                <= 2e-14 * _running_integral(np.abs(y), s)[-1]


class TestWeightedCumulative:
    def test_stiff_closed_route(self):
        # Omega = 10, tau = 30: the exponent jumps by up to 13 per pair
        env = EnvironmentParams(SpectralDensity(1.0, 10.0, 1e-2))
        s = np.linspace(0.0, 30.0, GRID_POINTS)
        _, delta, pi, _, big_gamma, _ = closed_form(env, s)
        assert np.max(big_gamma[2::2] - big_gamma[:-2:2]) > 100 * _STIFF_PAIR_GAP
        for x in (delta, pi):
            for weighted in (x, x * np.cos(2.0 * s), x * np.sin(2.0 * s)):
                assert_same_bits(
                    _weighted_cumulative(s, [weighted], big_gamma)[0],
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
                _weighted_cumulative(s, [weighted], big_gamma)[0],
                per_point.weighted_cumulative(s, weighted, big_gamma))


def closed_columns(omega, delta):
    """The closed route's Gamma and its four secular integrands at tau = 30."""
    env = EnvironmentParams(SpectralDensity(1.0, omega, delta))
    s = np.linspace(0.0, 30.0, GRID_POINTS)
    _, delta, pi, _, big_gamma, _ = closed_form(env, s)
    return s, big_gamma, [x * trig(2.0 * s) for x in (delta, pi)
                          for trig in (np.cos, np.sin)]


def quadrature_columns():
    """A non-monotone quadrature Gamma (Omega = 10, delta = 1, tau = 3) and
    the five integrands it weights."""
    sd = SpectralDensity(1.0, 10.0, 1.0)
    s = np.linspace(0.0, 3.0, GRID_POINTS)
    gamma = _running_integral(np.sin(s) * kernel_sin(sd, s), s)
    delta = _running_integral(np.cos(s) * kernel_cos(sd, s), s)
    pi = _running_integral(np.sin(s) * kernel_cos(sd, s), s)
    return s, _running_integral(2.0 * gamma, s), [delta] + [
        x * trig(2.0 * s) for x in (delta, pi) for trig in (np.cos, np.sin)]


def hand_columns():
    """A hand-built Gamma whose stiff pairs take the series phi-functions
    (|a| < 1e-4, and a = 0 exactly), a clamped drop (a < -600) and an
    underflowing exp(-a), with smooth pairs between them; the integrands
    carry zeros of both signs."""
    s = np.linspace(0.0, 1.0, 13)
    big_gamma = np.array([0.0, 5e-5, 1.0, 1.00001, 1.00002, 3.0, 3.0, 800.0,
                          -100.0, -100.0, -100.0, -99.99, -99.98])
    x = np.array([-0.0, -0.0, -0.0, 0.0, -0.0, 1.0, -2.0, 0.5, -0.0, -0.0,
                  -0.0, 3.0, -1.0])
    return s, big_gamma, [x, -x, np.cos(7.0 * s) * x, np.full(13, -0.0)]


# case -> (its grid, Gamma and integrands; its stiff pairs of 4,096, where
# pinned)
BATCH_CASES = {
    "stiff": (lambda: closed_columns(10.0, 1e-2), 3457),
    "mixed": (lambda: closed_columns(1.0, 1e-3), 1131),
    "smooth": (lambda: closed_columns(1.0, 1e-4), 0),
    "non-monotone": (quadrature_columns, None),
    "series-phi": (hand_columns, None),
}


class TestBatchedRecurrence:
    """One call for all columns that share Gamma gives each column the
    step-by-step loop's bits, zeros' signs included."""

    @pytest.mark.parametrize("case", BATCH_CASES)
    def test_each_column_matches_the_loop(self, case):
        make, stiff_pairs = BATCH_CASES[case]
        s, big_gamma, cols = make()
        stiff = np.abs(big_gamma[2::2] - big_gamma[:-2:2]) > _STIFF_PAIR_GAP
        if stiff_pairs is not None:
            assert stiff.sum() == stiff_pairs
        batch = _weighted_cumulative(s, np.array(cols), big_gamma)
        assert batch.shape == (len(cols), len(s))
        for got, x in zip(batch, cols):
            want = per_point.weighted_cumulative(s, x, big_gamma)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_hand_case_reaches_every_branch(self):
        s, big_gamma, cols = hand_columns()
        g0, g1, g2 = big_gamma[:-2:2], big_gamma[1::2], big_gamma[2::2]
        stiff = np.abs(g2 - g0) > _STIFF_PAIR_GAP
        steps = np.concatenate([(g1 - g0)[stiff], (g2 - g1)[stiff]])
        assert 0 < stiff.sum() < len(stiff)
        assert np.any(np.abs(steps) < 1e-4) and np.any(steps == 0.0)
        assert np.any(steps < -600.0) and np.any(steps > 745.0)


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
