import math
from dataclasses import replace

import numpy as np
import pytest

from bandgauss.coefficients import (METHOD_CLOSED, METHOD_QUADRATURE,
                                    EnvironmentParams, build_trace)
from bandgauss.dynamics import (R_MAX, ChannelSnapshot, TwbSpec,
                                TwoModeGaussianState, apply_channel,
                                check_covariances, evolve_covariances,
                                evolve_mean, make_twb, rotation,
                                snapshots_from_trace, symplectic_form)
from bandgauss.errors import DomainError, UnsupportedStateError
from bandgauss.spectral import SpectralDensity

import per_point


def narrow_env(j0=1.0, omega_lo=1.0, delta=1e-3):
    return EnvironmentParams(SpectralDensity(j0, omega_lo, delta))


def evolve_at(state, env, tau, method=METHOD_CLOSED, include_secular=True):
    """Covariance after the channel at one time: the trace over [tau]."""
    return evolve_covariances(state, build_trace(env, [tau], method),
                              include_secular)[0]


class TestState:
    def test_rejects_asymmetric_matrix(self):
        cm = np.eye(4)
        cm[0, 1] = 1e-6
        with pytest.raises(DomainError):
            TwoModeGaussianState(np.zeros(4), cm)

    def test_rejects_indefinite_matrix(self):
        with pytest.raises(DomainError):
            TwoModeGaussianState(np.zeros(4), -np.eye(4))

    def test_rejects_sub_uncertainty_matrix(self):
        with pytest.raises(DomainError):
            TwoModeGaussianState(np.zeros(4), 0.5 * np.eye(4))

    def test_uncertainty_check_optional(self):
        state = TwoModeGaussianState(np.zeros(4), 0.5 * np.eye(4),
                                     validate_uncertainty=False)
        assert state.min_uncertainty_eig(state.cm) == pytest.approx(-0.5)

    def test_arrays_frozen(self):
        state = make_twb(0.3)
        with pytest.raises(ValueError):
            state.cm[0, 0] = 5.0


class TestMakeTwb:
    def test_vacuum(self):
        np.testing.assert_array_equal(make_twb(0.0).cm, np.eye(4))

    def test_half_squeezing_entries(self):
        state = make_twb(0.5)
        assert state.cm[0, 0] == pytest.approx(math.cosh(1.0), rel=1e-15)
        assert state.cm[0, 2] == pytest.approx(math.sinh(1.0), rel=1e-15)
        assert state.cm[1, 3] == pytest.approx(-math.sinh(1.0), rel=1e-15)

    def test_pure_state_determinant(self):
        assert np.linalg.det(make_twb(0.9).cm) == pytest.approx(1.0, abs=1e-10)

    def test_negative_squeezing_rejected(self):
        with pytest.raises(DomainError):
            make_twb(-0.1)
        with pytest.raises(DomainError):
            TwbSpec(-1.0)

    @pytest.mark.parametrize("r", [math.nan, math.inf, 400.0,
                                   math.nextafter(R_MAX, math.inf)])
    def test_non_finite_or_overflowing_squeezing_rejected(self, r):
        with pytest.raises(DomainError, match="r must be non-negative"):
            TwbSpec(r)

    def test_largest_squeezing_has_finite_blocks(self):
        assert TwbSpec(R_MAX).r == R_MAX
        assert math.isfinite(math.cosh(2.0 * R_MAX))


class TestRotation:
    def test_identity_at_zero(self):
        np.testing.assert_array_equal(rotation(0.0), np.eye(2))

    def test_quarter_period(self):
        np.testing.assert_allclose(rotation(math.pi / 2.0),
                                   [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)

    def test_orthogonality(self):
        r = rotation(1.234)
        np.testing.assert_allclose(r.T @ r, np.eye(2), atol=1e-15)


def zero_snapshot(tau=0.0):
    return ChannelSnapshot(tau=tau, gamma_int=0.0, delta_gamma=0.0,
                           secular=(0.0, 0.0, 0.0, 0.0), angle=tau)


class TestEvolveMean:
    def test_zero_mean_stays_zero(self):
        state = make_twb(0.5)
        np.testing.assert_array_equal(evolve_mean(state, zero_snapshot(2.0)),
                                      np.zeros(4))

    def test_pure_rotation(self):
        state = TwoModeGaussianState([1.0, 0.0, 0.0, 0.0], np.eye(4))
        out = evolve_mean(state, zero_snapshot(math.pi / 2.0))
        np.testing.assert_allclose(out, [0.0, -1.0, 0.0, 0.0], atol=1e-15)

    def test_pure_damping(self):
        state = TwoModeGaussianState([1.0, 0.0, 0.0, 0.0], np.eye(4))
        snap = ChannelSnapshot(0.0, math.log(4.0), 0.0, (0, 0, 0, 0), 0.0)
        np.testing.assert_allclose(evolve_mean(state, snap),
                                   [0.5, 0.0, 0.0, 0.0], rtol=1e-15)


class TestChannel:
    def test_zero_time_is_identity(self):
        env = narrow_env()
        state = make_twb(0.7)
        for method in (METHOD_CLOSED, METHOD_QUADRATURE):
            trace = build_trace(env, [0.0], method)
            np.testing.assert_allclose(evolve_covariances(state, trace)[0],
                                       state.cm, atol=1e-15)
            np.testing.assert_array_equal(
                evolve_mean(state, snapshots_from_trace(trace)[0]), state.mean)

    def test_secular_vacuum_diagonal(self):
        # vacuum through the secular channel: diagonal exp(-Gamma) + DeltaGamma
        env = narrow_env()
        evolved = evolve_at(make_twb(0.0), env, 2.0, include_secular=False)
        want = math.exp(-1e-3 * 16.0 / 6.0) + 2e-3
        np.testing.assert_allclose(np.diag(evolved), want, rtol=1e-14)

    def test_secular_squeezed_diagonal(self):
        # r = 0.9 at tau = 3: cosh(1.8)*exp(-0.0135) + 0.0045 on the diagonal
        env = narrow_env()
        evolved = evolve_at(make_twb(0.9), env, 3.0, include_secular=False)
        want = math.cosh(1.8) * math.exp(-0.0135) + 0.0045
        assert evolved[0, 0] == pytest.approx(want, rel=1e-13)
        assert evolved[1, 1] == pytest.approx(want, rel=1e-13)

    def test_correlation_block_rotation(self):
        # C block entries have magnitudes sinh(2)*exp(-Gamma)*{|cos|,|sin|}(2*tau)
        env = narrow_env()
        tau = 2.0
        c = evolve_at(make_twb(1.0), env, tau)[:2, 2:]
        scale = math.sinh(2.0) * math.exp(-1e-3 * 16.0 / 6.0)
        assert abs(c[0, 0]) == pytest.approx(scale * abs(math.cos(4.0)), rel=1e-12)
        assert abs(c[0, 1]) == pytest.approx(scale * abs(math.sin(4.0)), rel=1e-12)
        # orientation from conjugating diag(c, -c) with the rotation
        rot = rotation(tau)
        c0 = np.diag([math.sinh(2.0), -math.sinh(2.0)])
        np.testing.assert_allclose(c, math.exp(-1e-3 * 16.0 / 6.0) * rot @ c0 @ rot.T,
                                   rtol=1e-12)

    def test_correlation_block_norm_preserved(self):
        # Frobenius norm of the C block is |c|*exp(-Gamma)*sqrt(2) at any time
        env = narrow_env()
        for tau in (0.3, 1.7, 5.0, 12.0):
            trace = build_trace(env, [tau], METHOD_CLOSED)
            evolved = evolve_covariances(make_twb(0.8), trace)[0]
            want = math.sinh(1.6) * math.exp(-trace.gamma_int[0]) * math.sqrt(2.0)
            assert np.linalg.norm(evolved[:2, 2:]) == pytest.approx(want, rel=1e-12)

    def test_diagonal_blocks_identical(self):
        env = narrow_env()
        evolved = evolve_at(make_twb(1.0), env, 3.3)
        np.testing.assert_allclose(evolved[:2, :2], evolved[2:, 2:],
                                   atol=1e-12)

    def test_positive_semidefinite_along_sweeps(self):
        for delta, omega_lo in ((1e-4, 1.0), (1e-3, 1.0), (1e-3, 3.0),
                                (1e-2, 10.0)):
            env = narrow_env(delta=delta, omega_lo=omega_lo)
            trace = build_trace(env, np.linspace(0.0, 30.0, 61), METHOD_CLOSED)
            for r in (0.1, 0.9):
                state = make_twb(r)
                for snap in snapshots_from_trace(trace):
                    evolved = apply_channel(state, snap)
                    assert np.min(np.linalg.eigvalsh(evolved.cm)) >= -1e-10

    def test_secular_equals_full_when_secular_terms_vanish(self):
        snap = ChannelSnapshot(tau=2.5, gamma_int=0.01, delta_gamma=0.004,
                               secular=(0.0, 0.0, 0.0, 0.0), angle=2.5)
        state = make_twb(0.6)
        full = apply_channel(state, snap, include_secular=True)
        secular = apply_channel(state, snap, include_secular=False)
        np.testing.assert_array_equal(full.cm, secular.cm)

    def test_purity_decay_bound(self):
        # det cm_t >= det cm_0 * exp(-4*Gamma), equality only at tau = 0
        env = narrow_env()
        state = make_twb(1.0)
        for tau in (0.5, 2.0, 8.0):
            trace = build_trace(env, [tau], METHOD_CLOSED)
            evolved = evolve_covariances(state, trace, include_secular=False)[0]
            floor = np.linalg.det(state.cm) * math.exp(-4.0 * trace.gamma_int[0])
            assert np.linalg.det(evolved) > floor

    def test_determinant_floor_along_sweeps(self):
        # raw det(cm_t) dips mid-sweep (damping kills the cosh*DeltaGamma
        # cross term before diffusion dominates); the monotone quantity is
        # the determinant relative to the damping floor, det * exp(4*Gamma),
        # which also keeps det(cm_t) >= det(cm_0)*exp(-4*Gamma) everywhere.
        for j0_delta, omega_lo in ((0.01, 1.0), (0.1, 1.0), (0.01, 10.0)):
            env = narrow_env(delta=j0_delta, omega_lo=omega_lo)
            trace = build_trace(env, np.linspace(0.0, 30.0, 121), METHOD_CLOSED)
            snaps = snapshots_from_trace(trace)
            dets = np.array([np.linalg.det(apply_channel(make_twb(1.0), snap,
                                                         include_secular=False).cm)
                             for snap in snaps])
            gammas = np.array([snap.gamma_int for snap in snaps])
            assert np.all(dets >= np.exp(-4.0 * gammas) - 1e-12)
            log_floored = np.log(dets) + 4.0 * gammas
            assert np.all(np.diff(log_floored) >= -1e-7)

    def test_rejects_non_symmetric_two_mode_states(self):
        env = narrow_env()
        cm = np.diag([2.0, 2.0, 3.0, 3.0])  # unequal diagonal blocks
        state = TwoModeGaussianState(np.zeros(4), cm)
        with pytest.raises(UnsupportedStateError):
            evolve_at(state, env, 1.0)
        cm = np.eye(4)
        cm[0, 2] = cm[2, 0] = 0.1
        cm[1, 3] = cm[3, 1] = 0.1  # correlation block not diag(c, -c)
        state = TwoModeGaussianState(np.zeros(4), cm, validate_uncertainty=False)
        with pytest.raises(UnsupportedStateError):
            evolve_at(state, env, 1.0)

    def test_uncertainty_bound_holds_in_validity_window(self):
        # inside the short-time window the channel output stays physical
        env = narrow_env()
        for tau in (0.1, 0.5, 1.0):
            evolved = evolve_at(make_twb(1.0), env, tau, METHOD_QUADRATURE)
            omega = symplectic_form()
            eigs = np.linalg.eigvalsh(evolved + 1j * omega)
            assert np.min(eigs) >= -1e-8


def _raised(fn):
    with pytest.raises((DomainError, UnsupportedStateError)) as info:
        fn()
    return type(info.value), str(info.value)


class TestEvolveCovariances:
    @pytest.mark.parametrize("method", [METHOD_CLOSED, METHOD_QUADRATURE])
    @pytest.mark.parametrize("omega_lo,delta", [(1.0, 1e-3), (10.0, 1.0)])
    @pytest.mark.parametrize("r", [0.0, 1.0, 2.0])
    def test_bit_identical_to_per_point(self, method, omega_lo, delta, r):
        trace = build_trace(narrow_env(omega_lo=omega_lo, delta=delta),
                            np.linspace(0.0, 3.0, 31), method)
        state = make_twb(r)
        snaps = snapshots_from_trace(trace)
        a, c = state.cm[0, 0], state.cm[0, 2]
        for include_secular in (True, False):
            # the stiff quadrature trace has Gamma < 0 at some times
            one_by_one = np.stack([apply_channel(state, snap,
                                                include_secular).cm
                                  for snap in snaps])
            stack = evolve_covariances(state, trace, include_secular)
            assert stack.shape == (31, 4, 4)
            scalar = np.stack([per_point.assemble_cm(a, c, snap,
                                                      include_secular)
                               for snap in snaps])
            assert np.array_equal(stack, one_by_one)
            assert np.array_equal(stack, scalar)

    def test_covariance_check_gates_negative_damping(self):
        # a transiently negative Gamma passes; an output that is not
        # positive semidefinite is still refused
        trace = build_trace(narrow_env(omega_lo=10.0, delta=1.0),
                            np.linspace(0.0, 3.0, 31), METHOD_QUADRATURE)
        assert np.min(trace.gamma_int) < 0.0
        evolve_covariances(make_twb(1.0), trace)
        not_psd = replace(trace, delta_gamma=trace.delta_gamma - 10.0)
        with pytest.raises(DomainError, match="positive semidefinite"):
            evolve_covariances(make_twb(1.0), not_psd)

    def test_errors_match_per_point(self):
        trace = build_trace(narrow_env(), np.linspace(0.0, 2.0, 5))
        twb = make_twb(0.5)
        lopsided = TwoModeGaussianState(np.zeros(4), np.diag([2.0, 2.0, 3.0, 3.0]))
        negative_damping = replace(trace, gamma_int=trace.gamma_int - 1e-9)
        not_psd = replace(trace, delta_gamma=trace.delta_gamma - 10.0)
        for state, bad in ((lopsided, trace), (twb, not_psd)):
            snap = snapshots_from_trace(bad)[0]
            want = _raised(lambda: apply_channel(state, snap))
            assert _raised(lambda: evolve_covariances(state, bad)) == want
        # Gamma < 0 is the non-Markovian signature, not an error: both paths
        # accept it alike
        one_by_one = np.stack([apply_channel(twb, snap).cm for snap
                               in snapshots_from_trace(negative_damping)])
        assert np.array_equal(evolve_covariances(twb, negative_damping),
                              one_by_one)

    def test_one_validator_for_stacks_and_states(self):
        bad = [np.eye(3), np.eye(4) + np.triu(np.ones((4, 4)), 1) * 1e-6,
               -np.eye(4), 0.5 * np.eye(4)]
        for cm in bad:
            want = _raised(lambda: TwoModeGaussianState(np.zeros(4), cm))
            assert _raised(lambda: check_covariances(
                np.stack([np.eye(cm.shape[0]), cm]))) == want
        check_covariances(np.stack([np.eye(4), 0.5 * np.eye(4)]),
                          validate_uncertainty=False)
