import math
import tracemalloc

import numpy as np
import pytest

from bandgauss.coefficients import (GRID_POINTS, METHOD_CLOSED,
                                    METHOD_QUADRATURE, EnvironmentParams,
                                    build_trace, closed_form)
from bandgauss.entanglement import kappa_full
from bandgauss.errors import DomainError, UsageError
from bandgauss.oracle import gamma_int_gk, quad_reference, secular_coeffs_gk
from bandgauss.spectral import SpectralDensity, kernel_cos, kernel_sin


def narrow_env(j0=1.0, omega_lo=1.0, delta=1e-3, beta=None):
    return EnvironmentParams(SpectralDensity(j0, omega_lo, delta), beta)


def at(env, tau, method=METHOD_QUADRATURE):
    """The trace over [tau]: every coefficient at one time."""
    return build_trace(env, [tau], method)


def secular(tr):
    """The four weighted integrals (delta_co, delta_si, pi_co, pi_si)."""
    return tr.sec_delta_co, tr.sec_delta_si, tr.sec_pi_co, tr.sec_pi_si


class TestEnvironmentParams:
    def test_bad_beta(self):
        for beta in (-1.0, 0.0, math.nan):
            with pytest.raises(DomainError, match="beta must be positive"):
                EnvironmentParams(SpectralDensity(1, 1, 1), beta=beta)

    def test_default_is_the_low_temperature_limit(self):
        # beta omitted is the low-temperature limit, coth -> 1; the columns
        # below are that limit's quadrature trace
        env = EnvironmentParams(SpectralDensity(1.0, 1.0, 1e-3))
        assert env.beta is None
        s = np.linspace(0.0, 5.0, 11)
        np.testing.assert_array_equal(env.thermal_cos_kernel(s),
                                      kernel_cos(env.spectral, s))
        tr = build_trace(env, [0.5, 2.0, 5.0], METHOD_QUADRATURE)
        recorded = {
            "delta_coef": [0.00046034891719655755, 0.0008106832080315425,
                           0.0023635015626509324],
            "gamma_int": [1.0080446576184572e-05, 0.0015869846580703541,
                          0.012040793865551416],
            "delta_gamma": [0.00011995896473222063, 0.0012051718065817553,
                            0.006440038778502285],
            "sec_delta_co": [0.00011005107617931188, 1.78015806442309e-05,
                             -0.0001066973750633983],
            "sec_pi_si": [4.8701126414183485e-06, 0.0003952230713167305,
                          0.0005649966472137175],
        }
        for column, want in recorded.items():
            np.testing.assert_allclose(getattr(tr, column), want, rtol=1e-14,
                                       atol=0.0, err_msg=column)


class TestRouteCheck:
    """The closed route never reads beta, so it refuses a finite one."""

    def test_closed_route_refuses_finite_beta(self):
        with pytest.raises(UsageError, match="beta"):
            build_trace(narrow_env(beta=5.0), [0.0, 1.0], METHOD_CLOSED)

    def test_kappa_full_refuses_finite_beta_on_closed_route(self):
        with pytest.raises(UsageError, match="beta"):
            kappa_full(narrow_env(beta=5.0), 0.5, 1.0, METHOD_CLOSED)


class TestPointCoefficients:
    def test_all_vanish_at_zero(self):
        tr = at(narrow_env(), 0.0)
        assert tr.gamma[0] == 0.0
        assert tr.delta_coef[0] == 0.0
        assert tr.pi_coef[0] == 0.0
        assert tr.r_shift[0] == 0.0

    def test_gamma_short_time_cubic(self):
        # gamma ~ J0*delta*Omega*tau^3/3 for a narrow band at short time
        env = narrow_env()
        assert at(env, 0.1).gamma[0] == pytest.approx(1e-3 * 0.1 ** 3 / 3.0,
                                                      rel=0.02)

    def test_gamma_against_fine_grid_oracle(self):
        env = narrow_env()
        sd = env.spectral
        for tau in (1.0, 10.0):
            ref = quad_reference(lambda s: math.sin(s) * kernel_sin(sd, s),
                                 0.0, tau, tol=1e-14)
            gamma = at(env, tau).gamma[0]
            assert gamma == pytest.approx(ref, rel=1e-6)
            assert abs(gamma) <= 1e-3 * tau

    def test_delta_short_time_linear(self):
        env = narrow_env()
        assert at(env, 0.1).delta_coef[0] == pytest.approx(1e-4, rel=0.01)

    def test_delta_thermal_enhancement(self):
        cold = at(narrow_env(), 0.1).delta_coef[0]
        warm = at(narrow_env(beta=1.0), 0.1).delta_coef[0]
        assert warm > cold

    def test_pi_short_time_quadratic(self):
        env = narrow_env()
        assert at(env, 0.1).pi_coef[0] == pytest.approx(0.5e-3 * 0.1 ** 2,
                                                        rel=0.05)

    def test_pi_below_delta_before_quarter_period(self):
        env = narrow_env()
        for tau in (0.1, 0.5, 1.0):
            tr = at(env, tau)
            assert tr.pi_coef[0] <= tr.delta_coef[0]

    def test_r_against_fine_grid_oracle(self):
        env = narrow_env()
        sd = env.spectral
        ref = quad_reference(lambda s: math.cos(s) * kernel_sin(sd, s),
                             0.0, 2.0, tol=1e-14)
        assert at(env, 2.0).r_shift[0] == pytest.approx(ref, rel=1e-6)

    def test_coefficients_vanish_at_least_linearly(self):
        env = narrow_env()
        for tau in (1e-3, 1e-2):
            tr = at(env, tau)
            for column in (tr.gamma, tr.delta_coef, tr.pi_coef, tr.r_shift):
                assert abs(column[0]) <= 2.0 * 1e-3 * tau

    def test_negative_tau_rejected(self):
        with pytest.raises(DomainError):
            at(narrow_env(), -0.5)


class TestGammaInt:
    def test_zero(self):
        assert at(narrow_env(), 0.0, METHOD_CLOSED).gamma_int[0] == 0.0
        assert at(narrow_env(), 0.0, METHOD_QUADRATURE).gamma_int[0] == 0.0

    def test_closed_form_value(self):
        # J0*delta*Omega*tau^4/6 at tau=2
        assert at(narrow_env(), 2.0, METHOD_CLOSED).gamma_int[0] == \
            pytest.approx(1e-3 * 16.0 / 6.0, rel=1e-14)

    def test_closed_form_linear_in_omega(self):
        env3 = narrow_env(omega_lo=3.0)
        assert at(env3, 2.0, METHOD_CLOSED).gamma_int[0] == \
            pytest.approx(8e-3, rel=1e-14)

    def test_unknown_method(self):
        with pytest.raises(UsageError):
            at(narrow_env(), 1.0, "simpson")

    def test_derivative_identity(self):
        # d/dtau Gamma = 2*gamma, relative 1e-4 over the working range; the
        # central difference and gamma come from one trace
        env = narrow_env()
        h = 1e-4
        for tau in (0.1, 1.0, 5.0, 10.0):
            tr = build_trace(env, [tau - h, tau, tau + h], METHOD_QUADRATURE)
            deriv = (tr.gamma_int[2] - tr.gamma_int[0]) / (2.0 * h)
            assert deriv == pytest.approx(2.0 * tr.gamma[1], rel=1e-4)


class TestDeltaGamma:
    def test_zero(self):
        assert at(narrow_env(), 0.0, METHOD_CLOSED).delta_gamma[0] == 0.0

    def test_closed_form_value(self):
        assert at(narrow_env(), 2.0, METHOD_CLOSED).delta_gamma[0] == \
            pytest.approx(2e-3, rel=1e-14)

    def test_quadrature_matches_closed_at_short_time(self):
        # the closed form truncates at leading order; its error grows ~tau^2/6
        env = narrow_env()
        closed = at(env, 0.3, METHOD_CLOSED).delta_gamma[0]
        quad = at(env, 0.3, METHOD_QUADRATURE).delta_gamma[0]
        assert quad == pytest.approx(closed, rel=0.02)

    def test_quadrature_against_independent_weighted_integral(self):
        # brute-force the weighted integral with closed-form-free pieces
        env = narrow_env()
        tau = 2.0
        sd = env.spectral

        def big_gamma(t):
            return quad_reference(
                lambda s: 2.0 * (t - s) * math.sin(s) * kernel_sin(sd, s),
                0.0, t, tol=1e-13) if t > 0 else 0.0

        def delta_at(t):
            return quad_reference(lambda s: math.cos(s) * kernel_cos(sd, s),
                                  0.0, t, tol=1e-13) if t > 0 else 0.0

        g_tau = big_gamma(tau)
        ref = quad_reference(
            lambda s: math.exp(big_gamma(s) - g_tau) * delta_at(s),
            0.0, tau, tol=1e-11)
        assert at(env, tau).delta_gamma[0] == pytest.approx(ref, rel=1e-6)


class TestSecularCoeffs:
    def test_zero(self):
        tr = at(narrow_env(), 0.0, METHOD_CLOSED)
        assert tuple(v[0] for v in secular(tr)) == (0, 0, 0, 0)

    def test_closed_form_short_time_value(self):
        # delta_co ~ J0*delta*(1 - cos(2*tau))/4 when the damping weight is ~1
        env = narrow_env(delta=1e-4)
        d_co = at(env, 0.1, METHOD_CLOSED).sec_delta_co[0]
        expected = 1e-4 * (1.0 - math.cos(0.2)) / 4.0
        assert d_co == pytest.approx(expected, rel=1e-6)
        assert d_co == pytest.approx(4.98e-7, rel=1e-2)

    def test_magnitude_bound(self):
        # |delta_co|, |delta_si| <= int_0^tau delta(s) ds = J0*delta*tau^2/2
        env = narrow_env()
        for tau in (0.5, 2.0, 5.0, 10.0):
            tr = at(env, tau, METHOD_CLOSED)
            d_co, d_si = tr.sec_delta_co[0], tr.sec_delta_si[0]
            bound = 0.5e-3 * tau ** 2 * (1.0 + 1e-9)
            assert abs(d_co) <= bound
            assert abs(d_si) <= bound

    def test_linear_scaling_in_bandwidth(self):
        # doubling delta doubles each coefficient as delta -> 0; the residual
        # nonlinearity enters through the damping weights, of order Gamma
        base = secular(at(narrow_env(delta=1e-6), 1.0, METHOD_CLOSED))
        doubled = secular(at(narrow_env(delta=2e-6), 1.0, METHOD_CLOSED))
        for b, d in zip(base, doubled):
            assert d[0] == pytest.approx(2.0 * b[0], rel=1e-6)

    def test_quadrature_against_independent_integral(self):
        env = narrow_env()
        tau = 1.5
        sd = env.spectral

        def big_gamma(t):
            return quad_reference(
                lambda s: 2.0 * (t - s) * math.sin(s) * kernel_sin(sd, s),
                0.0, t, tol=1e-13) if t > 0 else 0.0

        def delta_at(t):
            return quad_reference(lambda s: math.cos(s) * kernel_cos(sd, s),
                                  0.0, t, tol=1e-13) if t > 0 else 0.0

        g_tau = big_gamma(tau)
        ref = quad_reference(
            lambda s: math.exp(big_gamma(s) - g_tau) * delta_at(s)
            * math.cos(2.0 * (tau - s)),
            0.0, tau, tol=1e-11)
        d_co = at(env, tau).sec_delta_co[0]
        assert d_co == pytest.approx(ref, rel=1e-6)


class TestClosedVsQuadratureWindow:
    def test_short_time_agreement(self):
        # tau <= 0.3, narrow low-T band: the quadrature route tracks the
        # closed forms. The leading truncation errors are tau^2/5 (gamma),
        # tau^2/3 (delta), 2*tau^2/15 (Gamma) and tau^2/6 (DeltaGamma), so
        # everything sits inside 2 percent except delta at the window edge,
        # which reaches 3 percent at tau = 0.3.
        env = narrow_env()
        for tau in (0.05, 0.1, 0.2, 0.3):
            quad = at(env, tau, METHOD_QUADRATURE)
            closed = at(env, tau, METHOD_CLOSED)
            assert quad.gamma[0] == pytest.approx(
                1e-3 * tau ** 3 / 3.0, rel=0.02)
            assert quad.delta_coef[0] == pytest.approx(
                1e-3 * tau, rel=1.05 * tau ** 2 / 3.0 + 1e-4)
            assert quad.gamma_int[0] == pytest.approx(
                closed.gamma_int[0], rel=0.02)
            assert quad.delta_gamma[0] == pytest.approx(
                closed.delta_gamma[0], rel=0.02)


class TestTrace:
    def test_grid_validation(self):
        env = narrow_env()
        with pytest.raises(UsageError):
            build_trace(env, [], METHOD_CLOSED)
        with pytest.raises(UsageError):
            build_trace(env, [1.0, 0.5], METHOD_CLOSED)
        with pytest.raises(DomainError):
            build_trace(env, [-1.0, 1.0], METHOD_CLOSED)

    @pytest.mark.parametrize("method", [METHOD_CLOSED, METHOD_QUADRATURE])
    @pytest.mark.parametrize("n_dense", [8192, 2, 1, 0, -5])
    def test_dense_count_must_be_odd(self, method, n_dense):
        with pytest.raises(UsageError, match="n_dense must be an odd integer"):
            build_trace(narrow_env(), [0.0, 1.0], method, n_dense)

    def test_zero_start_invariants(self):
        env = narrow_env()
        tr = build_trace(env, np.linspace(0.0, 5.0, 11), METHOD_QUADRATURE)
        assert tr.gamma_int[0] == 0.0
        assert tr.delta_gamma[0] == 0.0
        for arr in (tr.sec_delta_co, tr.sec_delta_si, tr.sec_pi_co, tr.sec_pi_si):
            assert arr[0] == 0.0

    def test_gamma_int_non_decreasing_closed(self):
        env = narrow_env()
        tr = build_trace(env, np.linspace(0.0, 30.0, 301), METHOD_CLOSED)
        assert np.all(np.diff(tr.gamma_int) >= 0.0)

    def test_matches_point_operations(self):
        # cross-family: the trace against adaptive Gauss-Kronrod references,
        # the weighted integrals on the closed route and the damping exponent
        # on the quadrature route
        env = narrow_env()
        grid = np.linspace(0.0, 10.0, 21)
        closed = build_trace(env, grid, METHOD_CLOSED)
        quad = build_trace(env, grid, METHOD_QUADRATURE)
        for i in (3, 10, 20):
            tau = float(grid[i])
            assert quad.gamma_int[i] == pytest.approx(
                gamma_int_gk(env, tau), rel=1e-7, abs=1e-14)
            got = (closed.sec_delta_co[i], closed.sec_delta_si[i],
                   closed.sec_pi_co[i], closed.sec_pi_si[i])
            for g, want in zip(got, secular_coeffs_gk(env, tau)):
                assert g == pytest.approx(want, rel=1e-6, abs=1e-12)

    def test_extreme_damping_does_not_overflow(self):
        env = narrow_env(delta=1e-2, omega_lo=10.0)
        tr = build_trace(env, np.linspace(0.0, 100.0, 101), METHOD_CLOSED)
        assert np.all(np.isfinite(tr.delta_gamma))
        assert np.all(np.isfinite(tr.sec_delta_co))

    def test_closed_route_is_closed_form(self):
        # the first six columns of a closed trace are closed_form's, bit for
        # bit, in CoefficientTrace order
        env, grid = narrow_env(), np.linspace(0.0, 30.0, 600)
        tr = build_trace(env, grid, METHOD_CLOSED)
        names = ("gamma", "delta_coef", "pi_coef", "r_shift", "gamma_int",
                 "delta_gamma")
        for name, want in zip(names, closed_form(env, grid), strict=True):
            assert getattr(tr, name).tobytes() == want.tobytes(), name

    def test_method_tag_recorded(self):
        env = narrow_env()
        tr = build_trace(env, np.linspace(0.0, 1.0, 5), METHOD_CLOSED)
        assert tr.method == METHOD_CLOSED


class TestTraceMemory:
    """A trace's working set does not grow with its number of weighted
    columns. The guard is tracemalloc's peak over one ``build_trace`` call,
    after a warm-up call, in units of one dense column (8,193 float64s),
    which keeps the bound meaningful across numpy versions."""

    @pytest.mark.parametrize("env, tau_grid, method, columns", [
        (narrow_env(delta=1e-2, beta=2.0), np.linspace(0.0, 20.0, 400),
         METHOD_QUADRATURE, 31),
        (narrow_env(omega_lo=10.0, delta=1e-2), np.linspace(0.0, 30.0, 600),
         METHOD_QUADRATURE, 31),
        (narrow_env(), np.linspace(0.0, 30.0, 600), METHOD_CLOSED, 20),
        (narrow_env(delta=0.1), np.linspace(0.0, 30.0, 600), METHOD_CLOSED, 20)],
        ids=["thermal-quadrature", "lowt-quadrature-omega10", "closed-fig1b",
             "closed-fig2b-stiff"])
    def test_peak_in_dense_columns(self, env, tau_grid, method, columns):
        build_trace(env, tau_grid, method)
        tracemalloc.start()
        try:
            build_trace(env, tau_grid, method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (GRID_POINTS * 8) <= columns
