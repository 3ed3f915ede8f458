import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from bandgauss.cli import FIG2_PANELS, main
from bandgauss.coefficients import (METHOD_CLOSED, METHOD_QUADRATURE,
                                    EnvironmentParams, build_trace)
from bandgauss.dynamics import (TwoModeGaussianState, apply_channel,
                                evolve_covariances, make_twb,
                                snapshots_from_trace, symplectic_form)
from bandgauss.entanglement import (BISECT_XTOL, _nu_min_pt_stack, _nu_sq,
                                    find_last_upcrossing, kappa_full,
                                    kappa_full_curve, kappa_secular,
                                    kappa_secular_channel_curve, negativity,
                                    nu_min_pt, state_kappa_curve,
                                    sudden_death_time)
from bandgauss.errors import DomainError, NumericError, UsageError
from bandgauss.spectral import SpectralDensity

import per_point

EPS = np.finfo(float).eps


def narrow_env(j0=1.0, omega_lo=1.0, delta=1e-3):
    return EnvironmentParams(SpectralDensity(j0, omega_lo, delta))


def symmetric_kappa(i1, i3, i4):
    # the sqrt(2)-scale invariant formula on the evaluator's own radicand
    return math.sqrt(2.0 * _nu_sq(i1 - i3, i4))


class TestKappaSymmetric:
    def test_vacuum_is_sqrt2(self):
        got = state_kappa_curve(build_trace(narrow_env(), [0.0]), 0.0)[0]
        assert got == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_twb_closed_value(self):
        # I1 - I3 = cosh(4r), radicand = exp(-4r): kappa = sqrt(2)*exp(-2r)
        got = state_kappa_curve(build_trace(narrow_env(), [0.0]), 1.0)[0]
        assert got == pytest.approx(math.sqrt(2.0) * math.exp(-2.0), rel=1e-12)
        assert got == pytest.approx(0.19139, abs=1e-5)

    def test_inner_root_vanishing_edge(self):
        assert symmetric_kappa(2.0, -1.0, 9.0) == \
            pytest.approx(math.sqrt(2.0 * 3.0), rel=1e-14)

    def test_unphysical_radicand_raises(self):
        with pytest.raises(NumericError):
            symmetric_kappa(1.0, 0.0, 1.0 + 1e-6)

    def test_tiny_negative_radicand_clamped(self):
        symmetric_kappa(1.0, 0.0, 1.0 + 1e-13)

    def test_stable_at_strong_squeezing(self):
        # the naive x - sqrt(x^2 - i4) form loses everything here; from exact
        # I1, I3 and I4 the rearranged formula stays exact
        got = symmetric_kappa(math.cosh(20.0) ** 2, -math.sinh(20.0) ** 2, 1.0)
        assert got == pytest.approx(math.sqrt(2.0) * math.exp(-20.0), rel=1e-12)

    def test_curve_route_stable_at_strong_squeezing(self):
        # the trace evaluator carries a0 - c0 exactly, so even r = 10 starts
        # at the analytic value
        env = narrow_env(delta=0.01)
        got = state_kappa_curve(build_trace(env, [0.0]), 10.0,
                                source="symmetric")
        assert got[0] == pytest.approx(math.sqrt(2.0) * math.exp(-20.0),
                                       rel=1e-12)

    def test_curve_route_just_below_the_overflow(self):
        got = state_kappa_curve(build_trace(narrow_env(delta=0.01), [0.0]),
                                85.0)
        assert got[0] == pytest.approx(math.sqrt(2.0) * math.exp(-170.0),
                                       rel=1e-12)

    @pytest.mark.parametrize("r", [90.0, 100.0])
    def test_overflowing_invariant_refused(self, r):
        # (I1 - I3)^2 = cosh(4r)^2 overflows from r of about 89: a
        # NumericError, not a kappa of 0 after an overflow warning
        trace = build_trace(narrow_env(delta=0.01), [0.0, 1.0])
        for curve in (state_kappa_curve, kappa_full_curve):
            with pytest.raises(NumericError, match=r"\(I1 - I3\)\^2"):
                curve(trace, r)


class TestKappaSecular:
    def test_at_zero_time(self):
        assert kappa_secular(0.9, 0.01, 1.0, 0.0) == \
            pytest.approx(0.5 * math.exp(-1.8), rel=1e-15)
        assert kappa_secular(0.9, 0.01, 1.0, 0.0) == pytest.approx(0.08264, abs=1e-5)

    def test_late_time_plateau(self):
        # tau^4 term kills the exponential: kappa -> tau^2*J0*delta/2
        got = kappa_secular(1.0, 0.01, 1.0, 10.0)
        assert got == pytest.approx(0.5 * (1.0 + math.exp(-2.0 - 1e4 * 0.01 / 6.0)),
                                    rel=1e-15)
        assert got == pytest.approx(0.5, abs=1e-8)

    def test_no_environment_is_constant(self):
        taus = np.linspace(0.0, 50.0, 7)
        np.testing.assert_array_equal(kappa_secular(0.7, 0.0, 1.0, taus),
                                      np.full(7, 0.5 * math.exp(-1.4)))

    @pytest.mark.parametrize("omega_lo", [0.0, 1.0, 3.0])
    def test_same_bits_as_the_one_expression(self, omega_lo):
        # a zero band edge skips the quartic term, which was exactly 0 there
        taus = np.linspace(0.0, 30.0, 601)
        want = 0.5 * (taus * taus * 1e-3 + np.exp(
            -2.0 * 0.3 - taus ** 4 * 1e-3 * omega_lo / 6.0))
        got = kappa_secular(0.3, 1e-3, omega_lo, taus)
        assert got.tobytes() == want.tobytes()

    def test_overflowing_quartic_term(self):
        # exp(-inf) = 0 is the limit; the zero band edge has no quartic term
        taus = np.array([0.0, 1.0, 30.0])
        np.testing.assert_allclose(
            kappa_secular(1.0, 1e305, 1.0, taus),
            0.5 * taus * taus * 1e305 + [0.5 * math.exp(-2.0), 0.0, 0.0],
            rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(
            kappa_secular(1.0, 1e305, 0.0, taus),
            0.5 * (taus * taus * 1e305 + math.exp(-2.0)), rtol=1e-15, atol=0.0)
        with pytest.raises(NumericError,
                           match="kappa: not finite from tau = 2$"):
            kappa_secular(1.0, 1e308, 0.0, [0.0, 1e-3, 2.0, 1e200])

    def test_negative_parameters_rejected(self):
        with pytest.raises(DomainError):
            kappa_secular(-0.1, 0.01, 1.0, 1.0)
        with pytest.raises(DomainError):
            kappa_secular(math.nan, 0.01, 1.0, 1.0)
        # an infinite r or band edge would read as exp(-inf) = 0 and give a
        # finite kappa (0.005 at omega_lo = inf); an infinite j0_delta
        # (j0*delta overflowed) an infinite one
        for args, name in (((math.inf, 0.01, 1.0), "r"),
                           ((1.0, 0.01, math.inf), "omega_lo"),
                           ((1.0, math.nan, 1.0), "j0_delta"),
                           ((1.0, math.inf, 1.0), "j0_delta")):
            with pytest.raises(DomainError, match=f"^{name} must be"):
                kappa_secular(*args, 1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError, match="tau must be non-negative"):
            kappa_secular(1.0, 0.01, 1.0, -1.0)
        with pytest.raises(DomainError, match="tau must be non-negative"):
            kappa_secular(1.0, 0.01, 1.0, [0.0, -1.0])

    def test_single_minimum_on_comparison_recipes(self):
        # the curve may rise, dip (the revival window) and rise again, but it
        # has exactly one local minimum on [0, 30] and is monotone
        # non-decreasing beyond it
        taus = np.linspace(0.0, 30.0, 3001)
        for j0_delta, omega_lo in ((1e-4, 1.0), (1e-3, 1.0), (1e-3, 3.0)):
            for r in (0.01, 0.1, 0.3, 0.5, 0.9):
                kappa = kappa_secular(r, j0_delta, omega_lo, taus)
                diffs = np.diff(kappa)
                noise = 1e-13 * np.max(np.abs(kappa))
                sign = np.sign(diffs[np.abs(diffs) > noise])
                up_turns = np.count_nonzero((sign[:-1] < 0) & (sign[1:] > 0))
                assert up_turns == 1
                argmin = int(np.argmin(kappa))
                assert np.all(diffs[argmin:] >= -noise)


class TestNuMinPt:
    def test_vacuum(self):
        assert nu_min_pt(make_twb(0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_twb_spectrum(self):
        for r in (0.0, 0.1, 0.5, 1.0, 2.0):
            assert nu_min_pt(make_twb(r)) == \
                pytest.approx(math.exp(-2.0 * r), abs=1e-10)

    def test_half_squeezing(self):
        assert nu_min_pt(make_twb(0.5)) == pytest.approx(math.exp(-1.0), abs=1e-10)

    def test_agrees_with_invariant_formula_on_evolved_states(self):
        # the symmetric trace curve is the invariant formula, sqrt(2) scale
        env = narrow_env()
        for tau in (0.5, 2.0, 7.0):
            trace = build_trace(env, [tau], METHOD_CLOSED)
            cm = evolve_covariances(make_twb(0.8), trace)[0]
            state = TwoModeGaussianState(np.zeros(4), cm,
                                         validate_uncertainty=False)
            assert nu_min_pt(state) == pytest.approx(
                state_kappa_curve(trace, 0.8)[0] / math.sqrt(2.0), rel=1e-9)


class TestNegativity:
    def test_threshold(self):
        assert negativity(1.0) == 0.0

    def test_log_value(self):
        assert negativity(math.exp(-1.0)) == pytest.approx(2.0, rel=1e-15)

    def test_separable_branch_clamped(self):
        assert negativity(2.0) == 0.0

    def test_invalid_kappa(self):
        with pytest.raises(DomainError):
            negativity(0.0)
        with pytest.raises(DomainError):
            negativity(-0.2)

    def test_nan_kappa(self):
        with pytest.raises(DomainError, match="kappa must be positive"):
            negativity(math.nan)
        with pytest.raises(DomainError, match="kappa must be positive"):
            negativity(np.array([0.5, math.nan]))

    def test_monotone_non_increasing(self):
        ks = np.linspace(0.05, 2.0, 50)
        en = negativity(ks)
        assert np.all(np.diff(en) <= 0.0)


class TestKappaFull:
    def test_coincides_with_secular_at_zero_time(self):
        env = narrow_env()
        for r in (0.0, 0.5, 0.9):
            assert kappa_full(env, r, 0.0) == \
                pytest.approx(kappa_secular(r, 1e-3, 1.0, 0.0), rel=1e-14)

    def test_channel_route_reproduces_secular_closed_form(self):
        # dropping the secular terms and using closed-form inputs must land
        # exactly on the printed closed form
        env = narrow_env()
        taus = np.linspace(0.0, 20.0, 41)
        chan = kappa_secular_channel_curve(
            build_trace(env, taus, METHOD_CLOSED), 0.7)
        closed = kappa_secular(0.7, 1e-3, 1.0, taus)
        np.testing.assert_allclose(chan, closed, rtol=1e-13)

    def test_curve_matches_state_route(self):
        # array fast path against explicit half-scale state propagation
        env = narrow_env()
        r = 0.8
        taus = np.array([0.0, 1.0, 3.0, 7.0])
        curve = kappa_full_curve(build_trace(env, taus, METHOD_CLOSED), r)
        half = TwoModeGaussianState(np.zeros(4), 0.5 * make_twb(r).cm,
                                    validate_uncertainty=False)
        for i, tau in enumerate(taus):
            cm = evolve_covariances(
                half, build_trace(env, [float(tau)], METHOD_CLOSED))[0]
            state = TwoModeGaussianState(np.zeros(4), cm,
                                         validate_uncertainty=False)
            assert curve[i] == pytest.approx(nu_min_pt(state), rel=1e-9)

    def test_scalar_matches_curve(self):
        env = narrow_env()
        taus = np.array([0.0, 2.5, 9.0])
        curve = kappa_full_curve(build_trace(env, taus, METHOD_CLOSED), 1.0)
        for i, tau in enumerate(taus):
            assert kappa_full(env, 1.0, float(tau)) == \
                pytest.approx(float(curve[i]), rel=1e-8)

    def test_free_rotation_leaves_invariants_alone(self):
        # zero-coupling snapshot: kappa of the evolved state equals its
        # initial value at any angle
        state = make_twb(0.6)
        base = nu_min_pt(state)
        for tau in (0.7, 2.0, 11.3):
            snap = per_point.snapshot(tau)
            rotated = apply_channel(state, snap)
            assert nu_min_pt(rotated) == pytest.approx(base, rel=1e-12)

    def test_oracle_source_matches_symmetric_source(self):
        env = narrow_env()
        taus = np.linspace(0.0, 5.0, 6)
        trace = build_trace(env, taus, METHOD_CLOSED)
        sym = state_kappa_curve(trace, 0.5, source="symmetric")
        orc = state_kappa_curve(trace, 0.5, source="oracle")
        np.testing.assert_allclose(sym / math.sqrt(2.0), orc, rtol=1e-9)

    def test_unknown_source_rejected(self):
        with pytest.raises(UsageError):
            state_kappa_curve(build_trace(narrow_env(), [0.0, 1.0]), 0.5,
                              source="magic")


class TestVacuumScales:
    """One evaluator reads every trace curve on a named vacuum scale."""

    def curves(self, r):
        trace = build_trace(narrow_env(), [0.0, 1.0])
        return [kappa_full_curve(trace, r),
                kappa_secular_channel_curve(trace, r),
                state_kappa_curve(trace, r, source="symmetric"),
                state_kappa_curve(trace, r, source="oracle")]

    def test_vacuum_reads_half_one_and_sqrt2(self):
        full, secular, symmetric, oracle = (c[0] for c in self.curves(0.0))
        assert full == secular == 0.5
        assert symmetric == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert oracle == pytest.approx(1.0, rel=1e-15)

    def test_negative_squeezing_rejected(self):
        trace = build_trace(narrow_env(), [0.0, 1.0])
        for call in (lambda: kappa_full_curve(trace, -1.0),
                     lambda: kappa_secular_channel_curve(trace, -1.0),
                     lambda: state_kappa_curve(trace, -1.0, source="symmetric"),
                     lambda: state_kappa_curve(trace, -1.0, source="oracle"),
                     lambda: kappa_full(narrow_env(), -1.0, 1.0)):
            with pytest.raises(DomainError, match="r must be non-negative"):
                call()


def _twb_state(r):
    # the blocks the oracle source starts from: math.cosh/sinh, not numpy's
    cm = np.diag([math.cosh(2.0 * r)] * 4)
    cm[0, 2] = cm[2, 0] = math.sinh(2.0 * r)
    cm[1, 3] = cm[3, 1] = -math.sinh(2.0 * r)
    return TwoModeGaussianState(np.zeros(4), cm, validate_uncertainty=False)


class TestBatchedOracleSource:
    @pytest.mark.parametrize("method", [METHOD_CLOSED, METHOD_QUADRATURE])
    @pytest.mark.parametrize("omega_lo,delta", [(1.0, 1e-3), (10.0, 1.0)])
    @pytest.mark.parametrize("r", [0.0, 1.0, 2.0])
    def test_bit_identical_to_per_point(self, method, omega_lo, delta, r):
        trace = build_trace(narrow_env(omega_lo=omega_lo, delta=delta),
                            np.linspace(0.0, 3.0, 31), method)
        a0, c0 = math.cosh(2.0 * r), math.sinh(2.0 * r)
        for channel in (trace, trace.secular_approximation()):
            batched = state_kappa_curve(channel, r, "oracle")
            cms = [per_point.assemble_cm(a0, c0, snap)
                   for snap in snapshots_from_trace(channel)]
            states = [TwoModeGaussianState(np.zeros(4), cm,
                                           validate_uncertainty=False)
                      for cm in cms]
            assert np.array_equal(batched, [nu_min_pt(s) for s in states])
            assert np.array_equal(batched,
                                  [per_point.nu_min_pt(cm) for cm in cms])
            # the complex form: two eigensolves, each within 16 eps
            # max|lambda| (see TestOracleSourceAgainstMpmath)
            for nu, cm in zip(batched, cms):
                lo, hi = per_point.nu_min_pt_complex(cm)
                assert abs(nu - lo) <= 32 * EPS * hi

    def test_errors_match_per_point(self):
        trace = build_trace(narrow_env(), np.linspace(0.0, 2.0, 5))
        bad = replace(trace, delta_gamma=trace.delta_gamma - 10.0)
        snap = snapshots_from_trace(bad)[0]
        with pytest.raises(DomainError) as one:
            nu_min_pt(apply_channel(_twb_state(0.5), snap))
        with pytest.raises(DomainError) as stack:
            state_kappa_curve(bad, 0.5, source="oracle")
        assert str(stack.value) == str(one.value)


@pytest.fixture
def eigvals_inputs(monkeypatch):
    """Every array passed to np.linalg.eigvals, recorded."""
    inputs, eigvals = [], np.linalg.eigvals

    def record(a):
        inputs.append(a)
        return eigvals(a)
    monkeypatch.setattr(np.linalg, "eigvals", record)
    return inputs


def _omega_sigma_pt(cms):
    # the product form of the matrix the PT eigensolve reads
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    return symplectic_form() @ flip @ cms @ flip


class TestRealPtMatrix:
    """The oracle eigensolve reads Omega*sigma_pt, built by row permutation
    and signs: the product form entry for entry, in float64."""

    def test_equals_product_on_random_stacks(self, eigvals_inputs):
        a = np.random.default_rng(0).normal(size=(200, 4, 4))
        cms = a @ a.transpose(0, 2, 1) + np.eye(4)
        _nu_min_pt_stack(cms)
        assert np.all(eigvals_inputs[0] == _omega_sigma_pt(cms))

    @pytest.mark.parametrize("delta", FIG2_PANELS["b"]["delta"])
    def test_equals_product_on_fig2b(self, eigvals_inputs, delta):
        trace = build_trace(narrow_env(delta=delta),
                            np.linspace(0.0, 30.0, 600))
        cms = evolve_covariances(make_twb(1.0), trace)
        _nu_min_pt_stack(cms)
        assert np.all(eigvals_inputs[0] == _omega_sigma_pt(cms))

    def test_fig2b_eigensolves_are_real(self, eigvals_inputs, tmp_path):
        # one batched eigensolve per curve, and none complex
        assert main(["fig2", "--panel", "b", "--kappa", "oracle", "--mode",
                     "full", "--out", str(tmp_path / "f.csv")]) == 0
        assert [a.dtype for a in eigvals_inputs] == [np.float64] * 5


def _nu_mp(trace, r, k):
    """The smallest and the largest PT symplectic eigenvalue at row ``k`` of
    ``trace`` for a twin beam of squeezing ``r`` on the unit scale, by
    mpmath at the working precision: the covariance assembled from the
    trace's float columns with cosh, sinh, exp, cos and sin in mpmath, and
    mpmath.eig of Omega*sigma_pt as a matrix product."""
    col = {name: mpmath.mpf(float(getattr(trace, name)[k]))
           for name in ("tau_grid", "gamma_int", "delta_gamma", "sec_delta_co",
                        "sec_delta_si", "sec_pi_co", "sec_pi_si")}
    decay = mpmath.exp(-col["gamma_int"])
    a = mpmath.cosh(2 * mpmath.mpf(r)) * decay + col["delta_gamma"]
    c = mpmath.sinh(2 * mpmath.mpf(r)) * decay
    u1 = col["sec_delta_co"] - col["sec_pi_si"]
    u2 = -(col["sec_delta_si"] + col["sec_pi_co"])
    v1 = c * mpmath.cos(2 * col["tau_grid"])
    v2 = -c * mpmath.sin(2 * col["tau_grid"])
    cm = mpmath.matrix([[a + u1, u2, v1, v2], [u2, a - u1, v2, -v1],
                        [v1, v2, a + u1, u2], [v2, -v1, u2, a - u1]])
    flip = mpmath.diag([1, 1, 1, -1])
    omega = mpmath.matrix([[0, 1, 0, 0], [-1, 0, 0, 0],
                           [0, 0, 0, 1], [0, 0, -1, 0]])
    moduli = [abs(v) for v in mpmath.eig(omega * flip * cm * flip,
                                         left=False, right=False)]
    return min(moduli), max(moduli)


class TestOracleSourceAgainstMpmath:
    """The oracle source against a 60-digit PT eigensolve of the same
    trace, on every 12th of 600 rows over [0, 30]. The eigensolve's error
    scale is eps * max|lambda| / min|lambda| relative (PT_EIGEN_COND_MAX);
    the oracle source stays within 16 times it on every row (measured: up
    to 9.6 times, at rows where all four moduli nearly coincide)."""

    @pytest.mark.parametrize("delta,r", [
        *((delta, 1.0) for delta in FIG2_PANELS["b"]["delta"]), (1e-2, 2.0)])
    def test_within_the_eigensolve_bound(self, delta, r):
        trace = build_trace(narrow_env(delta=delta),
                            np.linspace(0.0, 30.0, 600))
        nu = state_kappa_curve(trace, r, "oracle")
        with mpmath.workdps(60):
            for k in range(0, 600, 12):
                lo, hi = _nu_mp(trace, r, k)
                assert abs(nu[k] - lo) <= 16 * EPS * hi, k


# Rows of np.linspace(0, 30, 300001) where the real eigensolve of
# Omega*sigma_pt does not converge on the secular channel of (1, 1e-2) at
# r = 0.5: there the four PT moduli nearly coincide
UNCONVERGED = (105505, 105619, 105852, 108866, 109511, 109894, 109986, 111367)


@pytest.mark.xfail(strict=True, raises=NumericError, reason="the real "
                   "Hessenberg QR of Omega*sigma_pt does not converge where "
                   "the four PT moduli nearly coincide")
def test_oracle_eigensolve_converges_where_moduli_coincide():
    # the eight times and tau_max: the dense grid of the 300,001-point sweep
    times = np.append(np.linspace(0.0, 30.0, 300001)[list(UNCONVERGED)], 30.0)
    trace = build_trace(narrow_env(delta=1e-2),
                        times).secular_approximation()
    nu = state_kappa_curve(trace, 0.5, "oracle")
    with mpmath.workdps(60):
        for k in range(len(times)):
            lo, hi = _nu_mp(trace, 0.5, k)
            assert abs(nu[k] - lo) <= 16 * EPS * hi, k


class TestSuddenDeath:
    def test_no_environment(self):
        assert sudden_death_time(1.0, 0.0, 1.0, "secular") is None

    def test_secular_baseline(self):
        # exponential already dead near the crossing: tau_SD ~ sqrt(2/(J0*delta))
        got = sudden_death_time(1.0, 0.01, 1.0, "secular")
        assert got == pytest.approx(math.sqrt(200.0), rel=0.10)

    def test_weak_dependence_on_squeezing(self):
        times = [sudden_death_time(r, 0.01, 1.0, "secular")
                 for r in (0.5, 1.0, 2.0, 10.0)]
        assert max(times) - min(times) < 0.05 * min(times)

    def test_pointwise_domination_orders_death_times(self):
        # kappa(r=2) <= kappa(r=0.5) pointwise, so death comes no sooner
        low = sudden_death_time(0.5, 0.02, 1.0, "secular")
        high = sudden_death_time(2.0, 0.02, 1.0, "secular")
        assert high >= low

    def test_full_source(self):
        got = sudden_death_time(1.0, 0.01, 1.0, "full")
        assert got == pytest.approx(math.sqrt(200.0), rel=0.10)

    def test_beyond_horizon_is_none(self):
        assert sudden_death_time(1.0, 1e-4, 1.0, "secular", tau_max=30.0) is None

    def test_unknown_source(self):
        with pytest.raises(UsageError):
            sudden_death_time(1.0, 0.01, 1.0, "closed")

    @pytest.mark.parametrize("source", ["secular", "full"])
    @pytest.mark.parametrize("tau_max", [0.0, -1.0, math.inf, -math.inf,
                                         math.nan])
    def test_tau_max_must_be_finite_and_positive(self, source, tau_max):
        # refused before any grid is built, by either source, and also where
        # the environment is absent
        for j0_delta in (0.01, 0.0):
            with pytest.raises(DomainError, match="tau_max"):
                sudden_death_time(1.0, j0_delta, 1.0, source, tau_max=tau_max)

    @pytest.mark.parametrize("source", ["secular", "full"])
    @pytest.mark.parametrize("args,name", [
        ((math.inf, 0.01, 1.0), "r"), ((1.0, 0.01, math.inf), "omega_lo"),
        ((-1.0, 0.01, 1.0), "r"), ((1.0, math.nan, 1.0), "j0_delta")])
    def test_parameters_must_be_finite_and_non_negative(self, source, args,
                                                        name):
        # unrefused, r = inf would give the secular source a death time
        # (14.14)
        with pytest.raises(DomainError, match=f"^{name} must be"):
            sudden_death_time(*args, source)

    def test_bisection_tolerance(self):
        got = sudden_death_time(1.0, 0.01, 1.0, "secular")
        assert abs(kappa_secular(1.0, 0.01, 1.0, got) - 1.0) < 2e-7

    def test_strictly_decreasing_in_bandwidth(self):
        j0_deltas = (1e-3, 10.0 ** -2.5, 1e-2, 10.0 ** -1.5, 1e-1)
        times = [sudden_death_time(1.0, jd, 1.0, "secular") for jd in j0_deltas]
        assert all(a > b for a, b in zip(times, times[1:]))


class TestBandLocationOrdering:
    def test_higher_band_location_lowers_kappa(self):
        # raising the band location only increases the damping exponent, so
        # the closed-form kappa can only drop, and the two curves meet again
        # once the exponential term is dead
        taus = np.linspace(0.0, 30.0, 301)
        for r in (0.01, 0.5, 0.9):
            low = kappa_secular(r, 1e-3, 1.0, taus)
            high = kappa_secular(r, 1e-3, 3.0, taus)
            assert np.all(high <= low + 1e-15)
            assert abs(high[-1] - low[-1]) < 1e-12


class TestLastUpcrossing:
    def test_never_below_threshold(self):
        tau = np.linspace(0.0, 10.0, 101)
        values = 1.5 + 0.1 * tau
        assert find_last_upcrossing(tau, values, 1.0, lambda t: 1.5 + 0.1 * t) is None

    def test_still_below_at_horizon(self):
        tau = np.linspace(0.0, 10.0, 101)
        values = np.full_like(tau, 0.5)
        assert find_last_upcrossing(tau, values, 1.0, lambda t: 0.5) is None

    def test_revival_dip_is_skipped(self):
        # curve crosses up, dips back below, then crosses up for good:
        # the reported time is the final crossing
        def fn(t):
            return 0.5 + 0.4 * np.sin(t) + 0.08 * t

        tau = np.linspace(0.0, 20.0, 2001)
        got = find_last_upcrossing(tau, fn(tau), 1.0, fn)
        assert got is not None
        assert fn(got) == pytest.approx(1.0, abs=1e-5)
        fine = np.linspace(got + 1e-4, 20.0, 1000)
        assert np.all(fn(fine) > 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [0, 40, 100])
    def test_non_finite_sample_named(self, bad, at):
        # refused wherever it sits, before the bracket is read, with or
        # without a point function
        tau = np.linspace(0.0, 10.0, 101)
        values = 0.5 + 0.1 * tau
        values[at] = bad
        for point_fn in (None, lambda t: 0.5 + 0.1 * t):
            with pytest.raises(NumericError, match="kappa: not finite"):
                find_last_upcrossing(tau, values, 1.0, point_fn)

    @pytest.mark.parametrize("tau,error", [
        ([0.0, 2.0, 1.0, 3.0], UsageError), ([0.0, 1.0, 1.0, 3.0], UsageError),
        ([0.0, 1.0, math.nan, 3.0], DomainError),
        ([0.0, 1.0, 2.0], UsageError)], ids=["unordered", "repeated", "nan",
                                               "short"])
    def test_grid_checked_as_build_trace_checks_it(self, tau, error):
        # the grid check of build_trace, and values of the grid's length
        with pytest.raises(error, match="^(tau|values)"):
            find_last_upcrossing(tau, [0.5, 0.6, 0.8, 1.2], 1.0)

    def test_spline_by_default(self):
        def fn(t):
            return 0.5 + 0.4 * np.sin(t) + 0.08 * t

        tau = np.linspace(0.0, 20.0, 2001)
        assert find_last_upcrossing(tau, fn(tau), 1.0) == \
            pytest.approx(find_last_upcrossing(tau, fn(tau), 1.0, fn), abs=1e-5)

    @pytest.mark.parametrize("panel", ["b", "c"])
    def test_fig2_death_within_tolerance_of_the_trace(self, panel):
        # the trace's own crossing: the same trace (same dense grid) at
        # 2,001 extra times inside the bracket, interpolated linearly
        grid, deaths = np.linspace(0.0, 30.0, 600), 0
        for delta in FIG2_PANELS[panel]["delta"]:
            for omega_lo in FIG2_PANELS[panel]["omega"]:
                env = narrow_env(delta=delta, omega_lo=omega_lo)
                for secular in (False, True):
                    def kappa(times):
                        trace = build_trace(env, times)
                        if secular:
                            trace = trace.secular_approximation()
                        return state_kappa_curve(trace, 1.0, "symmetric")
                    values = kappa(grid)
                    tau_sd = find_last_upcrossing(grid, values, 1.0)
                    if tau_sd is None:
                        continue
                    deaths += 1
                    idx = int(np.nonzero(values < 1.0)[0][-1])
                    fine = np.linspace(grid[idx], grid[idx + 1], 2003)
                    k = kappa(np.append(fine, grid[-1]))[:-1]
                    j = int(np.nonzero(k < 1.0)[0][-1])
                    own = fine[j] + (1.0 - k[j]) / (k[j + 1] - k[j]) * (
                        fine[j + 1] - fine[j])
                    assert abs(tau_sd - own) <= BISECT_XTOL
        assert deaths >= 8

    @pytest.mark.parametrize("tau,values,want", [
        ([0.0, 1.3], [0.2, 1.7], 0.6933336019515992),
        ([0.0, 0.4, 1.5], [0.3, 0.8, 1.6], 0.5916009187698364),
        ([0.0, 0.5, 1.25, 1.5, 2.5, 2.75, 4.0],
         [0.6, 0.8, 1.1, 0.9, 0.7, 1.2, 1.5], 2.662156581878662)],
        ids=["2", "3", "7"])
    def test_short_grid_fits_all_its_samples(self, tau, values, want):
        # a grid shorter than the eight-sample window is fitted whole: the
        # time of the whole-curve spline, bit for bit
        assert find_last_upcrossing(np.array(tau), np.array(values),
                                    1.0) == want

    def test_revival_exists_before_death_at_high_band_location(self):
        # full source, band far above the mode frequency: negativity shows a
        # strictly increasing stretch before it dies
        env = narrow_env(delta=0.01, omega_lo=10.0)
        death = sudden_death_time(1.0, 0.01, 10.0, "full")
        taus = np.linspace(0.0, death * 0.999, 1500)
        kappa = kappa_full_curve(build_trace(env, taus, METHOD_CLOSED), 1.0)
        e_n = np.where(kappa < 1.0, -2.0 * np.log(kappa), 0.0)
        diffs = np.diff(e_n)
        first_drop = np.argmax(diffs < 0.0)
        assert np.any(diffs[first_drop + 1:] > 1e-10)
