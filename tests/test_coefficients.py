import math

import numpy as np
import pytest

from bandgauss.coefficients import (METHOD_CLOSED, METHOD_QUADRATURE,
                                    EnvironmentParams, build_trace,
                                    delta_gamma, delta_quad, gamma_int,
                                    gamma_quad, pi_quad, r_quad,
                                    secular_coeffs)
from bandgauss.dynamics import channel_snapshot
from bandgauss.errors import DomainError, UsageError
from bandgauss.oracle import (finite_diff, gamma_int_gk, quad_reference,
                              secular_coeffs_gk)
from bandgauss.spectral import SpectralDensity, kernel_cos, kernel_sin


def narrow_env(j0=1.0, omega_lo=1.0, delta=1e-3, **thermal):
    if not thermal:
        thermal = dict(low_t=True)
    return EnvironmentParams(SpectralDensity(j0, omega_lo, delta), **thermal)


class TestEnvironmentParams:
    def test_conflicting_thermal_settings(self):
        with pytest.raises(UsageError):
            EnvironmentParams(SpectralDensity(1, 1, 1), beta=2.0, low_t=True)

    def test_missing_thermal_settings(self):
        with pytest.raises(UsageError):
            EnvironmentParams(SpectralDensity(1, 1, 1))

    def test_bad_beta(self):
        with pytest.raises(DomainError):
            EnvironmentParams(SpectralDensity(1, 1, 1), beta=-1.0)


class TestPointCoefficients:
    def test_all_vanish_at_zero(self):
        env = narrow_env()
        assert gamma_quad(env, 0.0) == 0.0
        assert delta_quad(env, 0.0) == 0.0
        assert pi_quad(env, 0.0) == 0.0
        assert r_quad(env, 0.0) == 0.0

    def test_gamma_short_time_cubic(self):
        # gamma ~ J0*delta*Omega*tau^3/3 for a narrow band at short time
        env = narrow_env()
        assert gamma_quad(env, 0.1) == pytest.approx(1e-3 * 0.1 ** 3 / 3.0, rel=0.02)

    def test_gamma_against_fine_grid_oracle(self):
        env = narrow_env()
        sd = env.spectral
        for tau in (1.0, 10.0):
            ref = quad_reference(lambda s: math.sin(s) * kernel_sin(sd, s),
                                 0.0, tau, tol=1e-14)
            assert gamma_quad(env, tau) == pytest.approx(ref, rel=1e-6)
            assert abs(gamma_quad(env, tau)) <= 1e-3 * tau

    def test_delta_short_time_linear(self):
        env = narrow_env()
        assert delta_quad(env, 0.1) == pytest.approx(1e-4, rel=0.01)

    def test_delta_thermal_enhancement(self):
        cold = delta_quad(narrow_env(), 0.1)
        warm = delta_quad(narrow_env(beta=1.0), 0.1)
        assert warm > cold

    def test_pi_short_time_quadratic(self):
        env = narrow_env()
        assert pi_quad(env, 0.1) == pytest.approx(0.5e-3 * 0.1 ** 2, rel=0.05)

    def test_pi_below_delta_before_quarter_period(self):
        env = narrow_env()
        for tau in (0.1, 0.5, 1.0):
            assert pi_quad(env, tau) <= delta_quad(env, tau)

    def test_r_against_fine_grid_oracle(self):
        env = narrow_env()
        sd = env.spectral
        ref = quad_reference(lambda s: math.cos(s) * kernel_sin(sd, s),
                             0.0, 2.0, tol=1e-14)
        assert r_quad(env, 2.0) == pytest.approx(ref, rel=1e-6)

    def test_coefficients_vanish_at_least_linearly(self):
        env = narrow_env()
        for tau in (1e-3, 1e-2):
            for fn in (gamma_quad, delta_quad, pi_quad, r_quad):
                assert abs(fn(env, tau)) <= 2.0 * 1e-3 * tau

    def test_negative_tau_rejected(self):
        with pytest.raises(DomainError):
            gamma_quad(narrow_env(), -0.5)


class TestGammaInt:
    def test_zero(self):
        assert gamma_int(narrow_env(), 0.0, METHOD_CLOSED) == 0.0
        assert gamma_int(narrow_env(), 0.0, METHOD_QUADRATURE) == 0.0

    def test_closed_form_value(self):
        # J0*delta*Omega*tau^4/6 at tau=2
        assert gamma_int(narrow_env(), 2.0, METHOD_CLOSED) == \
            pytest.approx(1e-3 * 16.0 / 6.0, rel=1e-14)

    def test_closed_form_linear_in_omega(self):
        env3 = narrow_env(omega_lo=3.0)
        assert gamma_int(env3, 2.0, METHOD_CLOSED) == pytest.approx(8e-3, rel=1e-14)

    def test_unknown_method(self):
        with pytest.raises(UsageError):
            gamma_int(narrow_env(), 1.0, "simpson")

    def test_derivative_identity(self):
        # d/dtau Gamma = 2*gamma, relative 1e-4 over the working range
        env = narrow_env()
        for tau in (0.1, 1.0, 5.0, 10.0):
            deriv = finite_diff(lambda t: gamma_int(env, t, METHOD_QUADRATURE),
                                tau, 1e-4)
            assert deriv == pytest.approx(2.0 * gamma_quad(env, tau), rel=1e-4)


class TestDeltaGamma:
    def test_zero(self):
        assert delta_gamma(narrow_env(), 0.0, METHOD_CLOSED) == 0.0

    def test_closed_form_value(self):
        assert delta_gamma(narrow_env(), 2.0, METHOD_CLOSED) == \
            pytest.approx(2e-3, rel=1e-14)

    def test_quadrature_matches_closed_at_short_time(self):
        # the closed form truncates at leading order; its error grows ~tau^2/6
        env = narrow_env()
        closed = delta_gamma(env, 0.3, METHOD_CLOSED)
        quad = delta_gamma(env, 0.3, METHOD_QUADRATURE)
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
        assert delta_gamma(env, tau, METHOD_QUADRATURE) == \
            pytest.approx(ref, rel=1e-6)


class TestSecularCoeffs:
    def test_zero(self):
        assert secular_coeffs(narrow_env(), 0.0, METHOD_CLOSED) == (0, 0, 0, 0)

    def test_closed_form_short_time_value(self):
        # delta_co ~ J0*delta*(1 - cos(2*tau))/4 when the damping weight is ~1
        env = narrow_env(delta=1e-4)
        d_co, _, _, _ = secular_coeffs(env, 0.1, METHOD_CLOSED)
        expected = 1e-4 * (1.0 - math.cos(0.2)) / 4.0
        assert d_co == pytest.approx(expected, rel=1e-6)
        assert d_co == pytest.approx(4.98e-7, rel=1e-2)

    def test_magnitude_bound(self):
        # |delta_co|, |delta_si| <= int_0^tau delta(s) ds = J0*delta*tau^2/2
        env = narrow_env()
        for tau in (0.5, 2.0, 5.0, 10.0):
            d_co, d_si, _, _ = secular_coeffs(env, tau, METHOD_CLOSED)
            bound = 0.5e-3 * tau ** 2 * (1.0 + 1e-9)
            assert abs(d_co) <= bound
            assert abs(d_si) <= bound

    def test_linear_scaling_in_bandwidth(self):
        # doubling delta doubles each coefficient as delta -> 0; the residual
        # nonlinearity enters through the damping weights, of order Gamma
        base = secular_coeffs(narrow_env(delta=1e-6), 1.0, METHOD_CLOSED)
        doubled = secular_coeffs(narrow_env(delta=2e-6), 1.0, METHOD_CLOSED)
        for b, d in zip(base, doubled):
            assert d == pytest.approx(2.0 * b, rel=1e-6)

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
        d_co = secular_coeffs(env, tau, METHOD_QUADRATURE)[0]
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
            assert gamma_quad(env, tau) == pytest.approx(
                1e-3 * tau ** 3 / 3.0, rel=0.02)
            assert delta_quad(env, tau) == pytest.approx(
                1e-3 * tau, rel=1.05 * tau ** 2 / 3.0 + 1e-4)
            assert gamma_int(env, tau, METHOD_QUADRATURE) == pytest.approx(
                gamma_int(env, tau, METHOD_CLOSED), rel=0.02)
            assert delta_gamma(env, tau, METHOD_QUADRATURE) == pytest.approx(
                delta_gamma(env, tau, METHOD_CLOSED), rel=0.02)


class TestTrace:
    def test_grid_validation(self):
        env = narrow_env()
        with pytest.raises(UsageError):
            build_trace(env, [], METHOD_CLOSED)
        with pytest.raises(UsageError):
            build_trace(env, [1.0, 0.5], METHOD_CLOSED)
        with pytest.raises(DomainError):
            build_trace(env, [-1.0, 1.0], METHOD_CLOSED)

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

    @pytest.mark.parametrize("method", [METHOD_CLOSED, METHOD_QUADRATURE])
    @pytest.mark.parametrize("tau", [0.0, 0.3, 2.0, 10.0])
    def test_point_accessors_read_the_trace(self, method, tau):
        env = narrow_env()
        tr = build_trace(env, [tau], method)
        pairs = [(gamma_int(env, tau, method), tr.gamma_int[0]),
                 (delta_gamma(env, tau, method), tr.delta_gamma[0])]
        pairs += zip(secular_coeffs(env, tau, method),
                     (tr.sec_delta_co[0], tr.sec_delta_si[0],
                      tr.sec_pi_co[0], tr.sec_pi_si[0]))
        snap = channel_snapshot(env, tau, method)
        pairs += [(snap.gamma_int, tr.gamma_int[0]),
                  (snap.delta_gamma, tr.delta_gamma[0])]
        pairs += zip(snap.secular, (tr.sec_delta_co[0], tr.sec_delta_si[0],
                                    tr.sec_pi_co[0], tr.sec_pi_si[0]))
        if method == METHOD_QUADRATURE:
            pairs += [(gamma_quad(env, tau), tr.gamma[0]),
                      (delta_quad(env, tau), tr.delta_coef[0]),
                      (pi_quad(env, tau), tr.pi_coef[0]),
                      (r_quad(env, tau), tr.r_shift[0])]
        for point, traced in pairs:
            assert point == pytest.approx(float(traced), rel=1e-12, abs=1e-15)

    def test_extreme_damping_does_not_overflow(self):
        env = narrow_env(delta=1e-2, omega_lo=10.0)
        tr = build_trace(env, np.linspace(0.0, 100.0, 101), METHOD_CLOSED)
        assert np.all(np.isfinite(tr.delta_gamma))
        assert np.all(np.isfinite(tr.sec_delta_co))

    def test_method_tag_recorded(self):
        env = narrow_env()
        tr = build_trace(env, np.linspace(0.0, 1.0, 5), METHOD_CLOSED)
        assert tr.method == METHOD_CLOSED
