"""Properties of the closed-route channel over random environments: the
channel-evaluated secular kappa is the closed form, and the secular
approximation of every curve is the call on the trace with zero ``sec_*``
columns."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from bandgauss.coefficients import EnvironmentParams, build_trace
from bandgauss.dynamics import evolve_covariances, make_twb
from bandgauss.entanglement import (kappa_secular, kappa_secular_channel_curve,
                                    state_kappa_curve)
from bandgauss.errors import DomainError, NumericError
from bandgauss.spectral import SpectralDensity

CLOSED_ROUTE = dict(
    r=st.floats(0.0, 5.0),
    j0_delta=st.floats(1e-4, 1e-1),
    # a band at zero frequency has no damping: drawn on purpose
    omega_lo=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
    tau_max=st.floats(0.1, 30.0))
SEC_COLUMNS = ("sec_delta_co", "sec_delta_si", "sec_pi_co", "sec_pi_si")


def closed_trace(j0_delta, omega_lo, tau_max):
    # kappa depends on j0 and delta only through the product: j0 = 1
    env = EnvironmentParams(SpectralDensity(1.0, omega_lo, j0_delta))
    return build_trace(env, np.linspace(0.0, tau_max, 101))


def outcome(call):
    """The bytes of a call's result, or its error's type and message."""
    try:
        return call().tobytes()
    except (DomainError, NumericError) as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**CLOSED_ROUTE)
def test_channel_secular_kappa_is_the_closed_form(r, j0_delta, omega_lo,
                                                  tau_max):
    trace = closed_trace(j0_delta, omega_lo, tau_max)
    want = kappa_secular(r, j0_delta, omega_lo, trace.tau_grid)
    got = kappa_secular_channel_curve(trace, r)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(**CLOSED_ROUTE)
def test_secular_mode_is_the_secular_trace(r, j0_delta, omega_lo, tau_max):
    # the secular channel is the trace with zero sec_* columns: whatever
    # those columns held gives the same bytes or the same error, and the
    # diagonal blocks are a*exp(-Gamma) + DeltaGamma times I
    trace = closed_trace(j0_delta, omega_lo, tau_max)
    other = replace(trace, **{name: 1.0 + 3.0 * getattr(trace, name)
                              for name in SEC_COLUMNS})
    secular = trace.secular_approximation()
    state = make_twb(r)
    assert outcome(lambda: evolve_covariances(state, secular)) == \
        outcome(lambda: evolve_covariances(state, other.secular_approximation()))
    for source in ("symmetric", "oracle"):
        assert outcome(lambda: state_kappa_curve(secular, r, source)) == \
            outcome(lambda: state_kappa_curve(other.secular_approximation(),
                                              r, source))
    try:
        cms = evolve_covariances(state, secular)
    except DomainError:
        return
    diag = state.cm[0, 0] * np.exp(-trace.gamma_int) + trace.delta_gamma
    want = diag[:, None, None] * np.eye(2)
    assert np.array_equal(cms[:, :2, :2], want)
    assert np.array_equal(cms[:, 2:, 2:], want)
