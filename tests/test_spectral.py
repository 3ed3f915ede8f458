import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bandgauss.coefficients import EnvironmentParams, build_trace
from bandgauss.entanglement import find_last_upcrossing, kappa_secular
from bandgauss.errors import DomainError
from bandgauss.oracle import (kernel_cos_thermal_gk, propagate_w_matrix,
                              quad_reference)
from bandgauss.spectral import (_GL_NODES, _GL_WEIGHTS, SERIES_CROSSOVER,
                                SpectralDensity, kernel_cos,
                                kernel_cos_thermal, kernel_sin)

import per_point


class TestSpectralDensity:
    @pytest.mark.parametrize("kwargs", [
        dict(j0=0.0, omega_lo=1.0, delta=1.0),
        dict(j0=-1.0, omega_lo=1.0, delta=1.0),
        dict(j0=1.0, omega_lo=1.0, delta=0.0),
        dict(j0=1.0, omega_lo=-0.1, delta=1.0),
        dict(j0=1.0, omega_lo=math.nan, delta=1e-3),
        dict(j0=math.inf, omega_lo=1.0, delta=1e-3),
        dict(j0=1.0, omega_lo=math.inf, delta=1e-3),
        dict(j0=1.0, omega_lo=1.0, delta=math.inf),
        dict(j0=1.0, omega_lo=1e308, delta=1e308),  # omega_hi overflows
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(DomainError):
            SpectralDensity(**kwargs)

    @pytest.mark.parametrize("name", ["j0", "omega_lo", "delta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_named(self, name, value):
        # refused where it enters, not later as a column that is not finite
        kwargs = dict(j0=1.0, omega_lo=1.0, delta=1e-3)
        kwargs[name] = value
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            SpectralDensity(**kwargs)


class TestOneBandTransform:
    """Both kernels share one evaluator; each keeps the bits of its own
    separate form, signed zeros and return types included."""

    @pytest.mark.parametrize("j0,omega_lo,delta", [
        (1.0, 1.0, 1e-3), (1.0, 0.0, 0.5), (2.5, 10.0, 1.0), (1e-3, 3.0, 1e-2)])
    @pytest.mark.parametrize("ours,ref", [
        (kernel_sin, per_point.kernel_sin), (kernel_cos, per_point.kernel_cos)],
        ids=["sin", "cos"])
    def test_same_bits_as_separate_forms(self, ours, ref, j0, omega_lo, delta):
        sd = SpectralDensity(j0, omega_lo, delta)
        edge = SERIES_CROSSOVER / sd.omega_hi
        times = [0.0, np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0),
                 *10.0 ** np.arange(-3.0, 4.0)]
        for s in [*times, *map(np.asarray, times), np.array(times),
                  np.array(times)[:, None]]:
            got, want = ours(sd, s), ref(sd, s)
            assert type(got) is type(want)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


class TestKernelSin:
    def test_zero_time_limit(self):
        sd = SpectralDensity(1.0, 1.0, 1.0)
        assert kernel_sin(sd, 0.0) == 0.0

    def test_at_pi(self):
        # (cos(pi) - cos(2*pi)) / pi = -2/pi
        sd = SpectralDensity(1.0, 1.0, 1.0)
        assert kernel_sin(sd, math.pi) == pytest.approx(-2.0 / math.pi, rel=1e-14)

    def test_linear_in_amplitude(self):
        sd = SpectralDensity(2.0, 1.0, 1.0)
        assert kernel_sin(sd, math.pi) == pytest.approx(-4.0 / math.pi, rel=1e-14)

    def test_series_branch_matches_exact(self):
        sd = SpectralDensity(1.0, 1.0, 0.5)
        # straddle the crossover s*(lo+delta) = 1e-4
        for s in (1e-5, 5e-5, 6.8e-5, 7e-5, 1e-4):
            brute = quad_reference(lambda w: math.sin(w * s), 1.0, 1.5, tol=1e-16)
            assert kernel_sin(sd, s) == pytest.approx(brute, rel=1e-10)

    def test_amplitude_bound(self):
        # |kernel_sin| <= j0 * min(delta, 2/s)
        for omega_lo in (0.1, 1.0, 10.0):
            for delta in (1e-3, 1.0):
                sd = SpectralDensity(1.0, omega_lo, delta)
                for s in np.linspace(0.01, 20.0, 80):
                    bound = min(delta, 2.0 / s) + 1e-12
                    assert abs(kernel_sin(sd, s)) <= bound

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            kernel_sin(SpectralDensity(1.0, 1.0, 1.0), -1.0)


class TestKernelCos:
    def test_zero_time_is_bandwidth(self):
        sd = SpectralDensity(1.0, 1.0, 1e-3)
        assert kernel_cos(sd, 0.0) == pytest.approx(1e-3, rel=1e-12)

    def test_at_pi_vanishes(self):
        # (sin(2*pi) - sin(pi)) / pi = 0
        sd = SpectralDensity(1.0, 1.0, 1.0)
        assert kernel_cos(sd, math.pi) == pytest.approx(0.0, abs=1e-15)

    def test_thermal_exceeds_low_t(self):
        sd = SpectralDensity(1.0, 1.0, 1.0)
        cold = kernel_cos(sd, 1.0)
        warm = kernel_cos_thermal(sd, 1.0, beta=10.0)
        assert warm > cold

    def test_thermal_against_reference(self):
        sd = SpectralDensity(1.0, 1.0, 1.0)
        beta = 2.0
        for s in (0.0, 0.5, 3.0):
            ref = quad_reference(
                lambda w: math.cos(w * s) / math.tanh(0.5 * beta * w),
                1.0, 2.0, tol=1e-14)
            assert kernel_cos_thermal(sd, s, beta=beta) == pytest.approx(ref, rel=1e-9)

    def test_low_t_is_large_beta_limit(self):
        # relative difference < 1e-6 at beta = 1e4/omega_lo for s in [0, 10]
        sd = SpectralDensity(1.0, 1.0, 1.0)
        beta = 1e4 / sd.omega_lo
        for s in (0.0, 0.1, 1.0, 5.0, 10.0):
            cold = kernel_cos(sd, s)
            warm = kernel_cos_thermal(sd, s, beta=beta)
            scale = max(abs(cold), sd.j0 * sd.delta)
            assert abs(warm - cold) / scale < 1e-6

    def test_zero_band_edge_rejected_at_finite_temperature(self):
        # coth(beta*w/2) ~ 2/(beta*w) makes the band integral diverge
        sd = SpectralDensity(1.0, 0.0, 1.0)
        with pytest.raises(DomainError, match="omega_lo"):
            kernel_cos_thermal(sd, 0.0, beta=1.0)
        with pytest.raises(DomainError, match="omega_lo"):
            kernel_cos_thermal(sd, np.array([0.0, 1.0]), beta=1.0)
        assert kernel_cos(sd, 0.0) == pytest.approx(1.0)

    def test_invalid_beta(self):
        sd = SpectralDensity(1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            kernel_cos_thermal(sd, 1.0, beta=0.0)
        with pytest.raises(DomainError):
            kernel_cos_thermal(sd, 1.0)
        for beta in (math.nan, -math.inf):
            with pytest.raises(DomainError, match="beta must be positive"):
                kernel_cos_thermal(sd, 1.0, beta=beta)

    def test_infinite_beta_is_the_zero_temperature_kernel(self):
        # beta = inf stays accepted: coth is 1 there, as in EnvironmentParams
        for lo, delta in ((1.0, 1e-3), (0.1, 1.0), (3.0, 2.0)):
            sd = SpectralDensity(1.0, lo, delta)
            s = np.linspace(0.0, 50.0, 101)
            got = kernel_cos_thermal(sd, s, beta=math.inf)
            dev = np.max(np.abs(got - kernel_cos(sd, s)))
            assert dev < 1e-12 * sd.j0 * sd.delta

    def test_non_finite_time_rejected(self):
        # the panel width pi/max(s) needs a finite largest time
        sd = SpectralDensity(1.0, 1.0, 1.0)
        with pytest.raises(DomainError, match="finite"):
            kernel_cos_thermal(sd, np.array([0.0, np.inf]), beta=1.0)


def thermal_scale(sd, beta):
    """Exact kernel at s = 0: j0*(2/beta)*ln(sinh(beta*hi/2)/sinh(beta*lo/2)).

    Written as beta*(hi-lo)/2 + ln(-expm1(-beta*hi)) - ln(-expm1(-beta*lo))
    so that it neither overflows at large beta nor cancels at small beta*lo.
    """
    lo, hi = sd.omega_lo, sd.omega_hi
    log_ratio = (0.5 * beta * (hi - lo) + math.log(-math.expm1(-beta * hi))
                 - math.log(-math.expm1(-beta * lo)))
    return sd.j0 * 2.0 / beta * log_ratio


class TestKernelCosThermal:
    """The Gauss-Legendre panel kernel against its references.

    Deviations are measured in units of the kernel at s = 0 (j0 times the
    band integral of coth), the natural size of the integrand's mass.
    """

    def test_rule_literals_are_leggauss(self):
        # the panel rule is written out; it must be numpy's, bit for bit
        nodes, weights = np.polynomial.legendre.leggauss(16)
        assert _GL_NODES.tobytes() == nodes.tobytes()
        assert _GL_WEIGHTS.tobytes() == weights.tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(omega_lo=st.floats(1e-3, 10.0), delta=st.floats(1e-3, 2.0),
           beta=st.floats(0.1, 1e3), s=st.floats(0.0, 50.0))
    def test_matches_gauss_kronrod(self, omega_lo, delta, beta, s):
        sd = SpectralDensity(1.0, omega_lo, delta)
        scale = thermal_scale(sd, beta)
        dev = abs(kernel_cos_thermal(sd, s, beta=beta)
                  - kernel_cos_thermal_gk(sd, s, beta))
        assert dev <= 1e-13 * scale

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(omega_lo=st.floats(1e-3, 10.0), delta=st.floats(1e-2, 2.0),
           beta=st.floats(0.1, 1e3))
    def test_zero_time_exact(self, omega_lo, delta, beta):
        sd = SpectralDensity(1.0, omega_lo, delta)
        assert kernel_cos_thermal(sd, 0.0, beta=beta) == pytest.approx(
            thermal_scale(sd, beta), rel=1e-12)

    def test_pole_near_band_edge(self):
        # coth(beta*w/2) ~ 2/(beta*w) just below the band: panels must grade
        # toward w = 0, which a rule of equal-width panels does not
        sd, beta = SpectralDensity(1.0, 1e-3, 0.5), 2.0
        scale = thermal_scale(sd, beta)
        times = np.array([0.0, 1.0, 5.0])
        n_panels = int(math.ceil(sd.delta * times.max() / math.pi))
        edges = np.linspace(sd.omega_lo, sd.omega_hi, n_panels + 1)
        x, wx = np.polynomial.legendre.leggauss(16)
        half = 0.5 * np.diff(edges)[:, None]
        w = (0.5 * (edges[1:] + edges[:-1])[:, None] + half * x).ravel()
        weights = (half * wx).ravel() / np.tanh(0.5 * beta * w)
        equal_width = np.cos(np.outer(times, w)) @ weights
        ref = np.array([kernel_cos_thermal_gk(sd, s, beta) for s in times])
        assert np.max(np.abs(equal_width - ref)) > 1e-3 * scale
        got = kernel_cos_thermal(sd, times, beta=beta)
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13 * scale)

    def test_scalar_calls_match_array_call(self):
        # 64 Gauss nodes make row blocks of 2048 times; straddle their edges
        sd, beta = SpectralDensity(1.0, 1.0, 1.0), 2.0
        times = np.linspace(0.0, 10.0, 8193)
        whole = kernel_cos_thermal(sd, times, beta=beta)
        assert whole.shape == times.shape
        scale = thermal_scale(sd, beta)
        for i in (0, 1, 2047, 2048, 2049, 4095, 4096, 6144, 8191, 8192):
            point = kernel_cos_thermal(sd, times[i], beta=beta)
            assert isinstance(point, float)
            assert abs(point - whole[i]) <= 1e-13 * scale


@pytest.mark.parametrize("omega_lo", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("delta", [1e-4, 1e-3, 1.0])
@pytest.mark.parametrize("s", [0.01, 0.1, 1.0, 10.0])
def test_closed_forms_match_brute_force(omega_lo, delta, s):
    # both kernels against adaptive-free Simpson reference, rel tol 1e-9
    sd = SpectralDensity(1.0, omega_lo, delta)
    ref_sin = quad_reference(lambda w: math.sin(w * s), omega_lo,
                             omega_lo + delta, tol=1e-15)
    ref_cos = quad_reference(lambda w: math.cos(w * s), omega_lo,
                             omega_lo + delta, tol=1e-15)
    assert kernel_sin(sd, s) == pytest.approx(ref_sin, rel=1e-9)
    assert kernel_cos(sd, s) == pytest.approx(ref_cos, rel=1e-9)


# Every public function of a time or a time grid, called with a bad time
# alone or in an ascending grid, and the name of its time argument.
_SD = SpectralDensity(1.0, 1.0, 1e-3)
_GRID = lambda bad: np.sort([0.0, 1.0, bad])  # NaN sorts last
TIME_ARGUMENTS = {
    "kernel_sin": (lambda t: kernel_sin(_SD, _GRID(t)), "s"),
    "kernel_cos": (lambda t: kernel_cos(_SD, t), "s"),
    "kernel_cos_thermal": (lambda t: kernel_cos_thermal(_SD, _GRID(t), 2.0),
                           "s"),
    "build_trace": (lambda t: build_trace(EnvironmentParams(_SD), _GRID(t)),
                    "tau_grid"),
    "kappa_secular": (lambda t: kappa_secular(1.0, 1e-3, 1.0, _GRID(t)),
                      "tau"),
    "propagate_w_matrix": (
        lambda t: propagate_w_matrix(EnvironmentParams(_SD), t), "tau"),
    "find_last_upcrossing": (
        lambda t: find_last_upcrossing(_GRID(t), np.full(3, 0.5), 1.0),
        "tau"),
}


@pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
@pytest.mark.parametrize("function", TIME_ARGUMENTS)
def test_one_time_check(function, bad):
    # a negative or non-finite time is refused by one check, the same way
    # wherever it enters, naming the argument
    call, name = TIME_ARGUMENTS[function]
    with pytest.raises(DomainError, match=f"^{name} must be "):
        call(bad)
