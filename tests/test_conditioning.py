"""Output-conditioning gate: a last-bit change in one trace column moves no
output by more than 1e-12 relative.

Each integrated column of a trace (gamma_int, delta_gamma and the four
sec_*) is scaled by (1 + 1e-15) in turn, on 600 points over [0, 30] at
r in {0.01, 0.9, 2}. The outputs are kappa_full_curve, both sources of
state_kappa_curve on the full and the secular channel, and
evolve_covariances, relative to its largest entry.

The invariant formula in ``entanglement._nu_curve`` (kappa_full_curve and
the symmetric source) forms x^2 - i4 by subtraction. On the closed route
that amplifies the change to 3e-9 to 1.3e-8, so those cases are strict
expected failures until kappa is evaluated in a form free of that
cancellation. The oracle source moves by at most 3.5e-13, evolve by
1.2e-15, and the quadrature route's _nu_curve by 3.7e-13.
"""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from bandgauss.coefficients import (METHOD_CLOSED, METHOD_QUADRATURE,
                                    EnvironmentParams, build_trace)
from bandgauss.dynamics import evolve_covariances, make_twb
from bandgauss.entanglement import (find_last_upcrossing, kappa_full_curve,
                                    state_kappa_curve)
from bandgauss.spectral import SpectralDensity

GRID = np.linspace(0.0, 30.0, 600)
SQUEEZING = (0.01, 0.9, 2.0)
COLUMNS = ("gamma_int", "delta_gamma", "sec_delta_co", "sec_delta_si",
           "sec_pi_co", "sec_pi_si")
BUMP = 1.0 + 1e-15

# route -> (omega_lo, delta, beta, method), j0 = 1
ROUTES = {
    "closed-1-1e-3": (1.0, 1e-3, None, METHOD_CLOSED),
    "closed-10-1e-2": (10.0, 1e-2, None, METHOD_CLOSED),
    "quadrature-1-1e-2-beta2": (1.0, 1e-2, 2.0, METHOD_QUADRATURE),
    "quadrature-1-1e-2-lowT": (1.0, 1e-2, None, METHOD_QUADRATURE),
}

OUTPUTS = {
    "kappa_full_curve": kappa_full_curve,
    "symmetric": lambda trace, r: state_kappa_curve(trace, r, "symmetric"),
    "symmetric-secular": lambda trace, r: state_kappa_curve(
        trace.secular_approximation(), r, "symmetric"),
    "oracle": lambda trace, r: state_kappa_curve(trace, r, "oracle"),
    "oracle-secular": lambda trace, r: state_kappa_curve(
        trace.secular_approximation(), r, "oracle"),
    "evolve": lambda trace, r: evolve_covariances(make_twb(r), trace),
}

# the outputs that run through _nu_curve
NU_CURVE = ("kappa_full_curve", "symmetric", "symmetric-secular")


@lru_cache(maxsize=None)
def trace_of(omega_lo, delta, beta, method):
    env = EnvironmentParams(SpectralDensity(1.0, omega_lo, delta), beta)
    return build_trace(env, GRID, method)


def bumped(trace):
    """The trace with each column in turn scaled by BUMP."""
    for column in COLUMNS:
        yield replace(trace, **{column: getattr(trace, column) * BUMP})


def cases():
    for route, params in ROUTES.items():
        for output in OUTPUTS:
            marks = ()
            if params[3] == METHOD_CLOSED and output in NU_CURVE:
                marks = pytest.mark.xfail(
                    strict=True, reason="_nu_curve's x^2 - i4 cancels: a "
                    "1e-15 change moves kappa by up to 1.3e-8")
            yield pytest.param(route, output, id=f"{route}-{output}",
                               marks=marks)


@pytest.mark.parametrize("route,output", cases())
def test_last_bit_of_a_column_moves_no_output(route, output):
    trace, f = trace_of(*ROUTES[route]), OUTPUTS[output]
    worst = 0.0
    for r in SQUEEZING:
        base = f(trace, r)
        scale = np.max(np.abs(base)) if output == "evolve" else np.abs(base)
        for moved in bumped(trace):
            worst = max(worst, np.max(np.abs(f(moved, r) - base) / scale))
    assert worst <= 1e-12


@pytest.mark.parametrize("output", [o for o in OUTPUTS if o != "evolve"])
def test_last_bit_of_a_column_keeps_the_death_time(output):
    # the closed (1, 1e-2) route, where the curves cross kappa = 1 for the
    # last time near tau = 12 to 14
    trace, f = trace_of(1.0, 1e-2, None, METHOD_CLOSED), OUTPUTS[output]
    deaths = 0
    for r in SQUEEZING:
        want = find_last_upcrossing(GRID, f(trace, r), 1.0)
        deaths += want is not None
        for moved in bumped(trace):
            got = find_last_upcrossing(GRID, f(moved, r), 1.0)
            assert (got is None) == (want is None)
            assert want is None or abs(got - want) <= 1e-9
    assert deaths >= 2
