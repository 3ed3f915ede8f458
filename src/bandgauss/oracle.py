"""Independent verification paths for the primary numerics.

Every oracle here deliberately uses a different algorithm family from the
code it validates: the reference integrators are composite Simpson with
Richardson control and adaptive Gauss-Kronrod, one point at a time (the
primary integrals are running Simpson sums and exponential-integrator steps
on one fixed dense grid, and the finite-temperature kernel is a fixed graded
Gauss-Legendre rule applied to all times at once), the covariance
reconstruction integrates the raw rotated diffusion matrix instead of
assembling weighted trigonometric integrals, and the symplectic spectra come
from an eigensolver rather than the invariant formula. The
oracles ship with the library (not only the tests) so the command line can
emit verification tables on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import (METHOD_CLOSED, METHOD_QUADRATURE, EnvironmentParams,
                           build_trace, closed_form, require_method)
from .dynamics import evolve_covariances, make_twb, rotation
from .errors import DomainError, NumericError, UsageError
from .spectral import (SpectralDensity, kernel_cos, kernel_cos_thermal,
                       kernel_sin)

MAX_SIMPSON_POINTS = 2 ** 22

# Nodes of the direct propagator's uniform Simpson grid over [0, tau].
PROPAGATOR_NODES = 4097

# Tolerances of the adaptive Gauss-Kronrod references.
QUAD_EPSABS = 1e-12
QUAD_EPSREL = 1e-9

# The thermal-kernel reference checks a 1e-13 contract, so it runs tighter:
# relative 1e-12, and absolute 1e-14 of the band integral of j0*coth (the
# kernel at s = 0), which keeps the bound meaningful at every temperature.
THERMAL_EPSREL = 1e-12
THERMAL_EPSABS_SCALE = 1e-14


def quad_reference(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Composite-Simpson reference value of the integral of f over [a, b].

    Doubles the grid until the Richardson error estimate |S_2n - S_n|/15
    drops below ``tol`` (absolute, plus the same relative amount), then
    returns the extrapolated value.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("bounds must be finite")
    if tol <= 0.0:
        raise DomainError("tol must be positive")

    def simpson(n):
        x = np.linspace(a, b, n + 1)
        y = np.asarray([f(xi) for xi in x], dtype=float)
        h = (b - a) / n
        return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())

    n = 64
    prev = simpson(n)
    while n <= MAX_SIMPSON_POINTS:
        n *= 2
        cur = simpson(n)
        err = abs(cur - prev) / 15.0
        if err <= tol + tol * abs(cur):
            return cur + (cur - prev) / 15.0
        prev = cur
    raise NumericError(f"Simpson reference did not converge below {tol}")


def _chunked_quad(f, a: float, b: float, freq: float,
                  epsabs: float = QUAD_EPSABS,
                  epsrel: float = QUAD_EPSREL) -> float:
    """Adaptive quadrature of f over [a, b], split per oscillation half-period."""
    from scipy import integrate  # only the references need scipy
    n_chunks = max(1, int(math.ceil((b - a) * max(freq, 1e-12) / math.pi)))
    edges = np.linspace(a, b, n_chunks + 1)
    total = 0.0
    for left, right in zip(edges[:-1], edges[1:]):
        val, _ = integrate.quad(f, left, right, epsabs=epsabs, epsrel=epsrel,
                                limit=200)
        total += val
    return total


def kernel_cos_thermal_gk(spectral: SpectralDensity, s: float,
                          beta: float) -> float:
    """Gauss-Kronrod reference for the finite-temperature cosine kernel.

    Integrates j0*coth(beta*w/2)*cos(w*s) over the band adaptively, one
    point at a time, split into equal pieces of at most half an oscillation.
    """
    from scipy import integrate
    lo, hi = spectral.omega_lo, spectral.omega_hi
    coth = lambda w: spectral.j0 / math.tanh(0.5 * beta * w)
    scale, _ = integrate.quad(coth, lo, hi, epsabs=0.0, epsrel=THERMAL_EPSREL,
                              limit=200)
    return _chunked_quad(lambda w: coth(w) * math.cos(w * s), lo, hi, s,
                         epsabs=THERMAL_EPSABS_SCALE * scale,
                         epsrel=THERMAL_EPSREL)


def gamma_int_gk(env: EnvironmentParams, tau: float) -> float:
    """Gauss-Kronrod reference for the quadrature-route damping exponent.

    Uses the exact reordering
    2*int_0^tau gamma(s) ds = 2*int_0^tau (tau-s)*sin(s)*kernel_sin(s) ds,
    which collapses the double integral to a single one.
    """
    sd = env.spectral
    return _chunked_quad(
        lambda s: 2.0 * (tau - s) * math.sin(s) * kernel_sin(sd, s),
        0.0, tau, 1.0 + sd.omega_hi)


def secular_coeffs_gk(env: EnvironmentParams,
                      tau: float) -> tuple[float, float, float, float]:
    """Gauss-Kronrod reference for the closed-route weighted integrals.

    Integrates exp(Gamma(s) - Gamma(tau)) * x(s) * cos/sin(2s) for
    x = delta, pi with the closed-form Gamma, delta and pi, then rotates to
    the cos/sin(2(tau-s)) combinations (delta_co, delta_si, pi_co, pi_si).
    """
    sd = env.spectral
    c4 = sd.j0 * sd.delta * sd.omega_lo / 6.0
    g_tau = c4 * tau ** 4
    freq = 2.0 + sd.omega_hi

    def weighted(x_fn, trig):
        return _chunked_quad(
            lambda s: math.exp(c4 * s ** 4 - g_tau) * x_fn(s) * trig(2.0 * s),
            0.0, tau, freq)

    delta_fn = lambda s: sd.j0 * sd.delta * s
    pi_fn = lambda s: 0.5 * sd.j0 * sd.delta * s ** 2
    d_c, d_s = weighted(delta_fn, math.cos), weighted(delta_fn, math.sin)
    p_c, p_s = weighted(pi_fn, math.cos), weighted(pi_fn, math.sin)
    c2, s2 = math.cos(2.0 * tau), math.sin(2.0 * tau)
    return (c2 * d_c + s2 * d_s, s2 * d_c - c2 * d_s,
            c2 * p_c + s2 * p_s, s2 * p_c - c2 * p_s)


def _cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Own running Simpson integral on a uniform grid (odd point count)."""
    n = len(y)
    out = np.empty(n)
    out[0] = 0.0
    for k in range(0, n - 2, 2):
        out[k + 1] = out[k] + h / 12.0 * (5.0 * y[k] + 8.0 * y[k + 1] - y[k + 2])
        out[k + 2] = out[k] + h / 3.0 * (y[k] + 4.0 * y[k + 1] + y[k + 2])
    return out


def propagate_w_matrix(env: EnvironmentParams, tau: float,
                       method: str = METHOD_QUADRATURE) -> np.ndarray:
    """Direct 2x2 noise matrix of the channel by raw matrix quadrature.

    Integrates exp(Gamma(s)) R(s)^T M(s) R(s) over [0, tau] by composite
    Simpson on a uniform grid of ``PROPAGATOR_NODES`` (4,097) nodes, with
    M(s) = [[delta(s), -pi(s)/2], [-pi(s)/2, 0]], then undamps and
    unrotates. Twice the result reproduces the additive noise block of the
    assembled covariance evolution.
    """
    require_method(env, method)
    if not 0.0 <= tau < math.inf:
        raise DomainError(f"tau must be finite and non-negative, got {tau}")
    s = np.linspace(0.0, tau, PROPAGATOR_NODES)
    h = s[1] - s[0]

    if method == METHOD_CLOSED:
        _, delta_s, pi_s, _, big_gamma, _ = closed_form(env, s)
    else:
        sd, kc = env.spectral, np.asarray(env.thermal_cos_kernel(s))
        gamma_s = _cumulative_simpson(np.sin(s) * kernel_sin(sd, s), h)
        delta_s = _cumulative_simpson(np.cos(s) * kc, h)
        pi_s = _cumulative_simpson(np.sin(s) * kc, h)
        big_gamma = _cumulative_simpson(2.0 * gamma_s, h)

    # literal R^T M R per node, damping folded in as a bounded ratio
    rot = np.ascontiguousarray(np.moveaxis(rotation(s), -1, 0))
    m = np.zeros((len(s), 2, 2))
    m[:, 0, 0] = delta_s
    m[:, 0, 1] = -0.5 * pi_s
    m[:, 1, 0] = -0.5 * pi_s
    integrand = np.transpose(rot, (0, 2, 1)) @ m @ rot
    integrand *= np.exp(big_gamma - big_gamma[-1])[:, None, None]

    weights = np.ones(len(s))
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    w_scaled = h / 3.0 * np.einsum("i,ijk->jk", weights, integrand)

    r_tau = rotation(tau)
    return r_tau @ w_scaled @ r_tau.T


@dataclass(frozen=True)
class OracleReport:
    """One primary-vs-oracle comparison with its verdict."""

    name: str
    primary: float
    oracle: float
    abs_dev: float
    rel_dev: float
    tol: float
    passed: bool

    @classmethod
    def compare(cls, name: str, primary: float, oracle: float, tol: float,
                mode: str = "rel") -> "OracleReport":
        abs_dev = abs(primary - oracle)
        # against a zero oracle a deviation is relatively infinite; 0 and NaN
        # stay as they are
        rel_dev = (abs_dev / abs(oracle) if oracle != 0.0
                   else math.inf if abs_dev > 0.0 else abs_dev)
        dev = rel_dev if mode == "rel" else abs_dev
        # strict comparison so a zero tolerance fails every row by contract
        return cls(name=name, primary=float(primary), oracle=float(oracle),
                   abs_dev=abs_dev, rel_dev=rel_dev, tol=tol,
                   passed=bool(dev < tol))


def run_verification(tol_scale: float = 1.0) -> list[OracleReport]:
    """The library's standing cross-check suite.

    Covers the kernel closed forms against the Simpson reference, the
    finite-temperature kernel against per-point Gauss-Kronrod, the
    quadrature trace at beta = 200 against the low-temperature trace, the
    assembled covariance against the direct matrix propagator (low
    temperature and beta = 2), the PT eigensolver against the twin-beam
    spectrum, the symmetric trace route against the oracle one, and the
    damping-exponent derivative identity. Every primary value is read from
    a coefficient trace. Each row states its tolerance at scale 1, the
    shipped contract, and ``add`` is the one place that scales it by
    ``tol_scale``; 0 fails every row. A scale that is negative or not
    finite, or a missing scipy, raises ``UsageError``.
    """
    if not 0.0 <= tol_scale < math.inf:
        raise UsageError(f"tol_scale must be finite and non-negative, got "
                         f"{tol_scale}")
    try:
        import scipy.integrate  # the references' quadrature
    except ImportError as exc:
        raise UsageError("verify needs scipy: pip install "
                         "'bandgauss[verify]'") from exc
    from .entanglement import nu_min_pt, state_kappa_curve

    reports: list[OracleReport] = []

    def add(name, primary, oracle, tol, mode="rel"):
        reports.append(OracleReport.compare(name, primary, oracle,
                                            tol * tol_scale, mode))

    # kernel closed forms vs brute-force band quadrature
    for omega_lo in (0.1, 1.0, 10.0):
        for delta in (1e-4, 1e-3, 1.0):
            sd = SpectralDensity(1.0, omega_lo, delta)
            for s in (0.01, 0.1, 1.0, 10.0):
                ref_sin = quad_reference(lambda w: math.sin(w * s), sd.omega_lo,
                                         sd.omega_hi, tol=1e-14)
                ref_cos = quad_reference(lambda w: math.cos(w * s), sd.omega_lo,
                                         sd.omega_hi, tol=1e-14)
                add(f"kernel_sin[lo={omega_lo},delta={delta},s={s}]",
                    kernel_sin(sd, s), ref_sin, 1e-9)
                add(f"kernel_cos[lo={omega_lo},delta={delta},s={s}]",
                    kernel_cos(sd, s), ref_cos, 1e-9)

    # finite-temperature kernel vs per-point Gauss-Kronrod, in units of the
    # kernel at s = 0 (j0 times the band integral of coth); the first band
    # starts next to the coth pole at w = 0, the last needs many panels
    for omega_lo, delta, beta, times in ((1e-3, 0.5, 2.0, (0.0, 1.0, 5.0)),
                                         (1.0, 1e-3, 200.0, (0.0, 10.0)),
                                         (3.0, 1.0, 1.0, (30.0,))):
        sd = SpectralDensity(1.0, omega_lo, delta)
        scale = kernel_cos_thermal_gk(sd, 0.0, beta)
        for s in times:
            add(f"kernel_cos_thermal[lo={omega_lo},delta={delta},"
                f"beta={beta},s={s}]",
                kernel_cos_thermal(sd, s, beta=beta) / scale,
                kernel_cos_thermal_gk(sd, s, beta) / scale, 1e-13, "abs")

    env = EnvironmentParams(SpectralDensity(1.0, 1.0, 1e-3))
    env_warm = EnvironmentParams(env.spectral, beta=2.0)

    # low-temperature limit of the thermal route: at beta = 200 the band at
    # w >= 1 has coth - 1 ~ 1e-87, so the Gauss-Legendre thermal kernel must
    # reproduce the closed-form low-T kernel; in units of each column's
    # largest magnitude
    grid = np.linspace(0.0, 10.0, 101)
    cold = build_trace(env, grid, METHOD_QUADRATURE)
    near_cold = build_trace(EnvironmentParams(env.spectral, beta=200.0), grid,
                            METHOD_QUADRATURE)
    for column in ("delta_coef", "pi_coef", "delta_gamma", "sec_delta_co"):
        want = getattr(cold, column)
        dev = np.max(np.abs(getattr(near_cold, column) - want))
        add(f"low_t_limit[lo=1.0,delta=0.001,beta=200.0,{column}]",
            dev / np.max(np.abs(want)), 0.0, 1e-12, "abs")

    # assembled covariance vs direct matrix propagation. With quadrature
    # inputs both sides evaluate the same object, so the match is exact; the
    # closed route keeps the literal unweighted diffusion variance and agrees
    # with the propagator only to leading order, checked at short time.
    state = make_twb(1.0)
    def propagator_dev(env, method, tau):
        trace = build_trace(env, [tau], method)
        evolved = evolve_covariances(state, trace)[0]
        w_bar = propagate_w_matrix(env, tau, method)
        decay = math.exp(-trace.gamma_int[0])
        big_rot = np.kron(np.eye(2), rotation(tau))
        direct = decay * big_rot @ state.cm @ big_rot.T
        direct[:2, :2] += 2.0 * w_bar
        direct[2:, 2:] += 2.0 * w_bar
        return float(np.max(np.abs(evolved - direct)))

    for label, penv, taus in (("", env, (0.5, 1.0, 2.0, 5.0)),
                              ("beta=2,", env_warm, (0.5, 2.0))):
        for tau in taus:
            add(f"cm_vs_propagator[{METHOD_QUADRATURE},{label}tau={tau}]",
                propagator_dev(penv, METHOD_QUADRATURE, tau), 0.0, 1e-6,
                "abs")
    add(f"cm_vs_propagator_short_time[{METHOD_CLOSED},tau=0.5]",
        propagator_dev(env, METHOD_CLOSED, 0.5) / closed_form(env, 0.5)[5],
        0.0, 0.01, "abs")

    # PT eigensolver vs analytic twin-beam spectrum
    for r in (0.0, 0.1, 0.5, 1.0, 2.0):
        add(f"nu_min_pt[twb r={r}]", nu_min_pt(make_twb(r)),
            math.exp(-2.0 * r), 1e-10, "abs")

    # the symmetric trace route (the CLI's --kappa symmetric) vs the PT
    # eigensolve of the same trace's states, largest relative deviation
    narrow = SpectralDensity(1.0, 1.0, 1e-2)
    for label, penv, method in (
            ("closed-form,delta=0.001", env, METHOD_CLOSED),
            ("quadrature,delta=0.01", EnvironmentParams(narrow),
             METHOD_QUADRATURE),
            ("quadrature,delta=0.01,beta=2", EnvironmentParams(narrow, 2.0),
             METHOD_QUADRATURE)):
        trace = build_trace(penv, np.linspace(0.0, 10.0, 201), method)
        for r in (0.5, 2.0):
            oracle = state_kappa_curve(trace, r, "oracle")
            symmetric = state_kappa_curve(trace, r, "symmetric")
            add(f"kappa_symmetric_route_vs_oracle[{label},r={r}]",
                np.max(np.abs(symmetric / math.sqrt(2.0) - oracle) / oracle),
                0.0, 1e-10, "abs")

    # derivative identity: d/dtau Gamma = 2*gamma, both read from one trace
    h = 1e-4
    for tau in (0.1, 1.0, 5.0, 10.0):
        trace = build_trace(env, [tau - h, tau, tau + h], METHOD_QUADRATURE)
        add(f"dGamma_dtau_vs_2gamma[tau={tau}]",
            (trace.gamma_int[2] - trace.gamma_int[0]) / (2.0 * h),
            2.0 * trace.gamma[1], 1e-4)

    # diffusion variance: trace identity against the direct propagator
    for tau in (0.5, 2.0):
        w_bar = propagate_w_matrix(env, tau, METHOD_QUADRATURE)
        add(f"trace_2wbar_vs_2delta_gamma[tau={tau}]",
            float(np.trace(2.0 * w_bar)),
            2.0 * build_trace(env, [tau], METHOD_QUADRATURE).delta_gamma[0],
            1e-2)

    return reports
