import math
import time

import numpy as np
import pytest

from bandgauss.coefficients import (METHOD_CLOSED, METHOD_QUADRATURE,
                                    EnvironmentParams, build_trace,
                                    closed_form)
from bandgauss.dynamics import evolve_covariances, make_twb
from bandgauss.errors import DomainError, UsageError
from bandgauss.oracle import (OracleReport, _chunked_quad,
                              propagate_w_matrix, quad_reference,
                              run_verification)
from bandgauss.spectral import SpectralDensity


def narrow_env():
    return EnvironmentParams(SpectralDensity(1.0, 1.0, 1e-3))


class TestQuadReference:
    def test_linear(self):
        assert quad_reference(lambda s: s, 0.0, 1.0) == pytest.approx(0.5, rel=1e-12)

    def test_sine(self):
        assert quad_reference(math.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-12)

    def test_band_sine_transform(self):
        got = quad_reference(lambda w: math.sin(w * math.pi), 1.0, 2.0, tol=1e-14)
        assert got == pytest.approx(-2.0 / math.pi, rel=1e-12)

    def test_empty_interval(self):
        # the general path returns exact +0.0 on an empty interval, whatever
        # the integrand's sign
        for f in (math.sin, lambda w: -1.0):
            for got in (quad_reference(f, 1.0, 1.0),
                        _chunked_quad(f, 1.0, 1.0, 3.0)):
                assert got == 0.0 and math.copysign(1.0, got) == 1.0

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            quad_reference(math.sin, 0.0, 1.0, tol=0.0)
        with pytest.raises(DomainError):
            quad_reference(math.sin, 0.0, math.inf)


class TestFiniteDiff:
    def test_closed_form_variance_derivative(self):
        # d/dtau of J0*delta*tau^2/2 is J0*delta*tau; central difference
        env, tau, h = narrow_env(), 2.0, 1e-5
        got = (closed_form(env, tau + h)[5]
               - closed_form(env, tau - h)[5]) / (2.0 * h)
        assert got == pytest.approx(2e-3, rel=1e-8)


class TestPropagateWMatrix:
    def test_zero_time(self):
        # the general path returns exact +0.0 zeros at tau = 0 on every
        # route, with no RuntimeWarning on the way (the suite makes them
        # errors)
        for beta, method in ((None, METHOD_QUADRATURE),
                             (2.0, METHOD_QUADRATURE), (None, METHOD_CLOSED)):
            env = EnvironmentParams(narrow_env().spectral, beta=beta)
            w_bar = propagate_w_matrix(env, 0.0, method)
            np.testing.assert_array_equal(w_bar, np.zeros((2, 2)))
            assert not np.signbit(w_bar).any()

    @pytest.mark.parametrize("tau", [-1.0, math.inf, math.nan])
    def test_time_must_be_finite_and_non_negative(self, tau):
        with pytest.raises(DomainError, match="tau must be finite and "
                                              "non-negative"):
            propagate_w_matrix(narrow_env(), tau)

    def test_closed_route_refuses_finite_beta(self):
        env = EnvironmentParams(narrow_env().spectral, beta=5.0)
        with pytest.raises(UsageError, match="beta"):
            propagate_w_matrix(env, 1.0, method=METHOD_CLOSED)

    def test_trace_identity(self):
        # trace(2*W) equals twice the diffusion variance
        env = narrow_env()
        for tau in (0.5, 2.0):
            w_bar = propagate_w_matrix(env, tau, method=METHOD_QUADRATURE)
            want = 2.0 * build_trace(env, [tau], METHOD_QUADRATURE).delta_gamma[0]
            assert np.trace(2.0 * w_bar) == pytest.approx(want, rel=0.01)

    def test_reconstructs_diagonal_block(self):
        # with quadrature inputs the assembled block and the direct matrix
        # propagation are the same object; entrywise match far below 1e-6
        env = narrow_env()
        state = make_twb(0.0)
        for tau in (0.5, 2.0):
            trace = build_trace(env, [tau], METHOD_QUADRATURE)
            evolved = evolve_covariances(state, trace)[0]
            w_bar = propagate_w_matrix(env, tau, method=METHOD_QUADRATURE)
            direct = math.exp(-trace.gamma_int[0]) * np.eye(2) + 2.0 * w_bar
            assert np.max(np.abs(evolved[:2, :2] - direct)) < 1e-6

    def test_closed_route_matches_propagator_at_short_time(self):
        # the closed route keeps the literal unweighted diffusion variance,
        # so it tracks the propagator only to leading order in Gamma
        env = narrow_env()
        state = make_twb(0.0)
        trace = build_trace(env, [0.5], METHOD_CLOSED)
        evolved = evolve_covariances(state, trace)[0]
        w_bar = propagate_w_matrix(env, 0.5, method=METHOD_CLOSED)
        direct = math.exp(-trace.gamma_int[0]) * np.eye(2) + 2.0 * w_bar
        dev = np.max(np.abs(evolved[:2, :2] - direct))
        assert dev < 0.01 * trace.delta_gamma[0]

    def test_symmetric_output(self):
        w_bar = propagate_w_matrix(narrow_env(), 3.0)
        assert abs(w_bar[0, 1] - w_bar[1, 0]) < 1e-15


class TestOracleReport:
    def test_pass_and_fail(self):
        good = OracleReport.compare("x", 1.0, 1.0 + 1e-12, 1e-9)
        assert good.passed
        bad = OracleReport.compare("x", 1.0, 1.1, 1e-9)
        assert not bad.passed

    def test_zero_tolerance_fails(self):
        rep = OracleReport.compare("x", 1.0, 1.0 + 1e-15, 0.0)
        assert not rep.passed

    def test_absolute_mode(self):
        rep = OracleReport.compare("x", 1e-12, 0.0, 1e-10, mode="abs")
        assert rep.passed

    def test_zero_oracle_relative_deviation(self):
        # relative to 0, a deviation is infinite and none is 0
        rep = OracleReport.compare("x", 1e-12, 0.0, 1e-10, mode="abs")
        assert rep.rel_dev == math.inf and rep.passed
        rep = OracleReport.compare("x", 0.0, 0.0, 1e-10)
        assert rep.rel_dev == 0.0 and rep.passed
        rep = OracleReport.compare("x", 1e-300, 0.0, 1e-9)
        assert rep.rel_dev == math.inf and not rep.passed
        assert math.isnan(OracleReport.compare("x", math.nan, 0.0,
                                               1e-9).rel_dev)


class TestVerificationSuite:
    def test_all_pass_within_budget(self):
        start = time.perf_counter()
        reports = run_verification()
        elapsed = time.perf_counter() - start
        failed = [r.name for r in reports if not r.passed]
        assert failed == []
        assert elapsed < 60.0

    def test_low_temperature_limit_rows(self):
        # the beta = 200 quadrature trace against the low-T trace, one row
        # per checked column
        rows = {r.name: r for r in run_verification()
                if r.name.startswith("low_t_limit[")}
        assert sorted(rows) == [
            f"low_t_limit[lo=1.0,delta=0.001,beta=200.0,{column}]"
            for column in ("delta_coef", "delta_gamma", "pi_coef",
                           "sec_delta_co")]
        for row in rows.values():
            assert row.passed and row.tol == 1e-12

    def test_zero_tolerance_fails_everything(self):
        reports = run_verification(tol_scale=0.0)
        assert all(not r.passed for r in reports)
