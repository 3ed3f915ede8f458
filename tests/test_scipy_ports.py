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
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline

import per_point
from bandgauss import coefficients
from bandgauss.coefficients import (_FIT_GROUP, _LANE, _STIFF_PAIR_GAP,
                                    GRID_POINTS,
                                    METHOD_CLOSED, METHOD_QUADRATURE,
                                    EnvironmentParams, _NotAKnot,
                                    _running_integral, _weighted_cumulative,
                                    build_trace, closed_form)
from bandgauss.entanglement import find_last_upcrossing, kappa_full_curve
from bandgauss.errors import DomainError, NumericError
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
                assert_same_bits(spline.fit([y])(xi)[0],
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
        assert_same_bits(_NotAKnot(x).fit([y])(xi)[0],
                         CubicSpline(x, y)(xi))

    @pytest.mark.parametrize("x", [[0.0, 1.0, 2.0], [0.0, 1.0, 3.0],
                                   [0.0, 0.3, 30.0]])
    def test_three_points_are_scipys_parabola_to_rounding(self, x):
        # scipy solves this case densely, in another operation order
        x = np.array(x)
        xi = np.linspace(x[0] - 0.5, x[-1] + 0.5, 41)
        for y in (np.cos(x) + 2.0, np.array([1.0, -2.0, 0.5])):
            ours = _NotAKnot(x).fit([y])(xi)[0]
            scipys = CubicSpline(x, y)(xi)
            assert np.max(np.abs(ours - scipys)) <= 1e-15 * np.max(
                np.abs(scipys))

    def test_upcrossing_bisects_the_fit(self):
        # scipy's spline through the eight samples around the bracket
        env = EnvironmentParams(SpectralDensity(1.0, 1.0, 1e-2))
        grid = np.linspace(0.0, 30.0, 600)
        kappa = kappa_full_curve(build_trace(env, grid), 1.0)
        idx = int(np.nonzero(kappa < 1.0)[0][-1])
        assert 3 <= idx <= 600 - 5
        spline = CubicSpline(grid[idx - 3:idx + 5], kappa[idx - 3:idx + 5])
        tau_sd = find_last_upcrossing(grid, kappa, 1.0)
        assert tau_sd is not None
        assert tau_sd == find_last_upcrossing(
            grid, kappa, 1.0, lambda t: float(spline(t)))

    @pytest.mark.parametrize("end", ["first", "last"])
    def test_upcrossing_at_an_end_fits_the_end_samples(self, end):
        # a bracket in the first or last interval: the first or last eight
        # samples, where the whole-curve spline gives another time
        tau = np.linspace(0.0, 19.0, 20)
        if end == "first":
            values, window = 1.5 + 0.3 * np.cos(2.1 * tau), slice(0, 8)
            values[0] = 0.2
        else:
            values, window = 0.5 + 0.3 * np.cos(2.1 * tau), slice(-8, None)
            values[-1] = 1.8
        tau_sd = find_last_upcrossing(tau, values, 1.0)
        for samples, same in ((window, True), (slice(None), False)):
            spline = CubicSpline(tau[samples], values[samples])
            assert (tau_sd == find_last_upcrossing(
                tau, values, 1.0, lambda t: float(spline(t)))) == same


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


SWEEPS = ("_factor_sweep", "_forward_sweep", "_back_sweep")


@pytest.fixture
def sweep_rows(monkeypatch):
    """Values each spline sweep yields, by dimension: [rows after the last
    whole lane, lane rows (one row of every lane per value, so a pass yields
    _LANE of them)]."""
    rows = {}
    for name in SWEEPS:
        def counted(state, inputs, sweep=getattr(coefficients, name),
                    count=rows.setdefault(name, [0, 0])):
            for value in sweep(state, inputs):
                count[np.ndim(value) - 1] += 1
                yield value
        monkeypatch.setattr(coefficients, name, counted)
    return rows


def sequential(sweep, start, columns):
    """``sweep`` down one column from ``start``, one row at a time on Python
    floats, or on float64 scalars where a Python float refuses IEEE's
    division by zero."""
    try:
        return np.array(list(sweep(start, zip(*(c.tolist()
                                                 for c in columns)))))
    except ZeroDivisionError:
        with np.errstate(all="ignore"):
            return np.array(list(sweep(tuple(map(np.float64, start)),
                                       zip(*columns))), dtype=float)


# Values a lane scan must carry through: signed zeros, infinities, NaN and
# 1e300, whose products overflow
SPECIALS = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300,
                            -1e300])
# factors with |f| > 1, under which a sweep grows instead of forgetting its
# start, so that its lanes agree only once each starts from exact values
GROWING = st.builds(lambda f, sign: sign * f, st.floats(1.0, 1e3,
                                                         exclude_min=True),
                    st.sampled_from([1.0, -1.0]))


# Each sweep's inputs as the spline's solve gives them, as uniform ranges:
# right-hand sides, off-diagonals, diagonals and the forward sweep's factors
SWEEP_INPUTS = {"_factor_sweep": ((0.5, 1.5), (0.5, 1.5), (3.5, 4.5)),
                "_forward_sweep": ((-2.0, 2.0), (-0.3, 0.3)),
                "_back_sweep": ((-2.0, 2.0), (0.5, 1.5), (3.5, 4.5))}


@st.composite
def scans(draw):
    """A sweep with its start and (rows, columns) or (rows, 1) inputs: the
    solve's kind of values with specials and growing factors among them."""
    name = draw(st.sampled_from(SWEEPS))
    # whole lanes: none, one, or about as many as a dense grid's
    k = draw(st.one_of(st.integers(0, 2), st.integers(48, 51)))
    rows = draw(st.one_of(st.just(max(k * _LANE, 1)),
                          st.integers(1, _LANE - 1).map(lambda t: k * _LANE + t)))
    cols = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    inputs = []
    for lo, hi in SWEEP_INPUTS[name]:
        a = rng.uniform(lo, hi, (rows, cols if draw(st.booleans()) else 1))
        for _ in range(draw(st.integers(0, 4))):
            a[draw(st.integers(0, rows - 1)), draw(st.integers(
                0, a.shape[1] - 1))] = draw(st.one_of(SPECIALS, GROWING))
        inputs.append(a)
    start = (draw(st.one_of(SPECIALS, st.floats(-10.0, 10.0))), 0.0)
    return getattr(coefficients, name), start, inputs


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
        for got, y in zip(spline.fit(ys)(xi), ys):
            assert_same_bits(got, spline.fit([y])(xi)[0])

    def test_short_lanes_run_more_passes(self, monkeypatch, sweep_rows):
        # two-row lanes are too short to forget a wrong start, so passes
        # repeat until the exact values have reached every lane
        monkeypatch.setattr(coefficients, "_LANE", 2)
        rng = np.random.default_rng(5)
        graded = np.unique(np.cumsum(rng.exponential(size=9000) ** 3))
        for x in (np.linspace(0.0, 100.0, 9000), graded):
            for count in sweep_rows.values():
                count[:] = 0, 0
            assert_sequential_bits(x, *sweep_columns(x))
            for _, lanes in sweep_rows.values():
                assert lanes // coefficients._LANE > 2  # passes

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
        # two passes per sweep: a sweep forgets a wrong start within one
        # lane, so the first pass ends every lane exact and the second finds
        # the starts unchanged
        build_trace(env, tau_grid, method)
        solves = -(-columns // _FIT_GROUP)
        for name, runs in zip(SWEEPS, (1, solves, solves)):
            assert sweep_rows[name][1] == 2 * _LANE * runs

    def test_crossing_fit_is_eight_rows_and_no_lane(self, sweep_rows):
        grid = np.linspace(0.0, 30.0, 600)
        env = EnvironmentParams(SpectralDensity(1.0, 1.0, 1e-2))
        kappa = kappa_full_curve(build_trace(env, grid), 1.0)
        assert sweep_rows["_back_sweep"][1] > 0  # the dense grid has lanes
        for count in sweep_rows.values():
            count[:] = 0, 0
        assert find_last_upcrossing(grid, kappa, 1.0) is not None
        # the factorization runs from row 0's pivot over the other seven
        assert sweep_rows == {"_factor_sweep": [7, 0],
                              "_forward_sweep": [8, 0], "_back_sweep": [8, 0]}

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(scans())
    # right-hand sides of -0.0: a lane's first value then takes its sign
    # from 0.0 times the value two rows back, the second of its start
    @example((coefficients._back_sweep, (0.0, 0.0), [
        np.full((48 * _LANE, 1), -0.0), np.ones((48 * _LANE, 1)),
        np.full((48 * _LANE, 1), 4.0)]))
    def test_any_scan_is_the_sequential_sweep(self, scan):
        # bit for bit, with one exception: with two NaN operands IEEE gives
        # either, and numpy orders a commutative operation's operands
        # unlike the C compiler of Python's floats, so NaN's sign may differ
        sweep, start, inputs = scan
        got = coefficients._lane_scan(sweep, start, *inputs)
        inputs = np.broadcast_arrays(*inputs, got)[:-1]
        for c, col in enumerate(got.T):
            want = sequential(sweep, start, [x[:, c] for x in inputs])
            same = col.view(np.int64) == want.view(np.int64)
            assert np.all(same | np.isnan(col) & np.isnan(want))


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
        with pytest.raises(DomainError, match="tau_grid must be finite"):
            build_trace(env, [0.0, 1.0, np.nan])

    def test_overflowing_column_named(self):
        # tau^4 overflows: the closed-form damping exponent is inf
        env = EnvironmentParams(SpectralDensity(1.0, 1.0, 1e-3))
        with pytest.raises(NumericError, match="gamma_int: not finite"):
            build_trace(env, np.linspace(0.0, 1e80, 5))
