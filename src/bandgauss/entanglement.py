"""Entanglement of the propagated two-mode states.

Negativity is driven by kappa, the minimum symplectic eigenvalue of the
partially transposed covariance matrix. Its printed formulas keep their own
normalisations, so every kappa is read on a named vacuum scale, the value
the vacuum gives:

* ``"1/2"`` -- the secular closed form :func:`kappa_secular`,
  (tau^2*J0*delta + exp(-2r - tau^4*J0*delta*Omega/6))/2, and the full
  channel :func:`kappa_full_curve`, so the two coincide at tau = 0;
* ``"1"`` -- the eigensolver :func:`nu_min_pt` and the ``oracle`` source;
* ``"sqrt2"`` -- the ``symmetric`` source, the symmetric-state invariant
  formula sqrt(2)*sqrt(I1 - I3 - sqrt((I1 - I3)^2 - I4)) evaluated along a
  trace (Serafini, Illuminati & De Siena, J. Phys. B 37, L21 (2004)).

Every curve over a :class:`CoefficientTrace` comes from one evaluator,
:func:`_kappa`, which owns the scales and checks r with
:class:`~bandgauss.dynamics.TwbSpec`; one trace per environment serves every
squeezing value, the secular curve is the call on its secular
approximation, and every source reads the trace's ``phase_space`` form.
Negativity uses the natural logarithm and the literal threshold kappa = 1.
"""

from __future__ import annotations

import math

import numpy as np

from .coefficients import (METHOD_CLOSED, CoefficientTrace, EnvironmentParams,
                           _check_grid, _NotAKnot, build_trace)
from .dynamics import (TwbSpec, TwoModeGaussianState, _assemble_cm,
                       check_covariances)
from .errors import DomainError, NumericError, UsageError
from .spectral import SpectralDensity, _check_times

RADICAND_TOL = 1e-12
BISECT_XTOL = 1e-6  # time tolerance of every sudden-death bisection

# Largest eps * max|lambda| / min|lambda| (about eps * exp(4r) for a twin
# beam: 6.6e-13 at r = 2, 1.5e-8 at r = 4.5), the relative error scale of
# the smallest PT eigenvalue, that the eigensolve accepts. Against a 60-digit
# eigensolve the error stays within 10 times it on the recipes' channels.
PT_EIGEN_COND_MAX = 1e-8

# Vacuum scales by name: (factor on the initial covariance blocks, factor
# on the minimum PT eigenvalue). The 1/2 scale halves the input state only.
_SCALES = {"1/2": (0.5, 1.0), "1": (1.0, 1.0), "sqrt2": (1.0, math.sqrt(2.0))}


def _nu_sq(x, i4):
    """Smallest PT symplectic eigenvalue squared: x - sqrt(x^2 - i4).

    Evaluated as i4 / (x + sqrt(x^2 - i4)), which is algebraically identical
    but avoids the catastrophic cancellation of the literal form when
    x^2 >> i4 (strong squeezing). An x^2 that is not finite (cosh(4r)^2 from
    r of about 89, or a hot bath's noise squared) raises ``NumericError``.
    """
    x_sq = x * x
    if not np.isfinite(x_sq).all():
        raise NumericError(f"kappa: (I1 - I3)^2 is not finite: I1 - I3 = "
                           f"{np.max(np.abs(x)):.3g} overflows the invariant formula")
    inner = _clamp_radicand(x_sq - i4, scale=np.maximum(1.0, x_sq))
    denom = x + np.sqrt(inner)
    if np.any(denom <= 0.0):
        raise NumericError("covariance matrix is unphysical: I1 - I3 <= 0")
    return _clamp_radicand(i4 / denom, scale=np.maximum(1.0, np.abs(x)))


def _clamp_radicand(value, scale=1.0):
    if np.any(value < -RADICAND_TOL * scale):
        raise NumericError(f"radicand {np.min(value)} is negative beyond tolerance; "
                           "covariance matrix is unphysical")
    return np.maximum(value, 0.0)


def _require_parameters(r, j0_delta, omega_lo):
    for name, val in (("r", r), ("j0_delta", j0_delta), ("omega_lo", omega_lo)):
        if not val >= 0.0:
            raise DomainError(f"{name} must be non-negative, got {val}")
        if val == math.inf:
            raise DomainError(f"{name} must be finite, got {val}")


def kappa_secular(r, j0_delta, omega_lo, tau):
    """Closed-form kappa under the secular approximation (vacuum -> 1/2).

    Accepts scalars or arrays in ``tau``. Depends on the spectral amplitude
    and bandwidth only through their product.
    """
    _require_parameters(r, j0_delta, omega_lo)
    t = _check_times(tau, "tau")
    # a band at zero frequency has no quartic term; an overflowing one decays
    # to exp(-inf) = 0, its limit
    with np.errstate(over="ignore", invalid="ignore"):
        quartic = t ** 4 * j0_delta * omega_lo / 6.0 if omega_lo else 0.0
        out = _SCALES["1/2"][0] * (t * t * j0_delta
                                   + np.exp(-2.0 * r - quartic))
    if not np.isfinite(out).all():
        raise NumericError(f"kappa: not finite from tau = "
                           f"{t[~np.isfinite(out)].min():g}")
    return float(out) if np.isscalar(tau) or t.ndim == 0 else out


def _nu_min_pt_stack(cms: np.ndarray) -> np.ndarray:
    """Minimum PT symplectic eigenvalue of each matrix of an (N, 4, 4) stack,
    by one batched real eigensolve.

    The real matrix Omega*sigma_pt is built by indexing: the partial
    transpose negates row and column 3, and Omega permutes the rows
    (1, 0, 3, 2) and negates rows 1 and 3, so row i is row (1, 0, 3, 2)[i]
    of the covariance with sign (+, -, -, -)[i] and column 3 negated. Every
    entry is a signed copy of one covariance entry, equal to the product
    ``symplectic_form() @ flip @ cm @ flip``. Its eigenvalues +-i*nu have the
    moduli of those of i*Omega*sigma_pt, which is solved instead where the
    real solve does not converge; the smallest has relative error
    about eps * max|lambda| / min|lambda| (eps * exp(4r) for a twin beam),
    which is refused above ``PT_EIGEN_COND_MAX``.
    """
    signs = np.array([[1.0], [-1.0], [-1.0], [-1.0]]) * [1.0, 1.0, 1.0, -1.0]
    m = cms[:, [1, 0, 3, 2]] * signs
    try:
        eigs = np.linalg.eigvals(m)
    except np.linalg.LinAlgError:
        # the real QR can fail where the four moduli nearly coincide; i*m
        # is exact, and its complex QR converges there
        try:
            eigs = np.linalg.eigvals(1j * m)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"eigendecomposition failed: {exc}; use "
                               "--kappa symmetric") from exc
    moduli = np.abs(eigs)
    nu = np.min(moduli, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.finfo(float).eps * np.max(moduli, axis=-1) / nu
    if not np.all(cond <= PT_EIGEN_COND_MAX):
        raise NumericError(
            f"PT eigensolve too ill-conditioned (eps*max|lambda|/min|lambda| = "
            f"{np.max(cond):.2g} > {PT_EIGEN_COND_MAX:g}; squeezing too strong "
            "for the eigensolver); use --kappa symmetric")
    return nu


def nu_min_pt(state: TwoModeGaussianState) -> float:
    """Minimum symplectic eigenvalue of the partial transpose, by eigensolver.

    Flips the second mode's momentum, forms the real matrix Omega*sigma_pt
    by row permutation and signs, and returns the smallest eigenvalue
    modulus, a stack of one through :func:`_nu_min_pt_stack`. Independent
    of the invariant formula.
    """
    return float(_nu_min_pt_stack(state.cm[None])[0])


def negativity(kappa):
    """Entanglement negativity max(0, -2*ln(kappa)); natural logarithm."""
    k = np.asarray(kappa, dtype=float)
    if not np.all(k > 0.0):
        raise DomainError("kappa must be positive (and not NaN)")
    out = np.maximum(0.0, -2.0 * np.log(k))
    return float(out) if np.isscalar(kappa) or k.ndim == 0 else out


# ---------------------------------------------------------------------------
# channel-resolved kappa curves
# ---------------------------------------------------------------------------

def _nu_curve(a0, c0, a_minus_c, trace: CoefficientTrace):
    """Minimum PT eigenvalue along ``trace``, initial blocks a0*I, diag(c0, -c0).

    Works on the determinant factorisation det(sigma) = det(A+C)*det(A-C)
    valid for the symmetric block form, with the traceless parts of A and C
    treated as 2-vectors. Callers pass ``a_minus_c`` = a0 - c0 separately:
    for twin beams that difference is exp(-2r) up to scale, and carrying it
    exactly keeps the result accurate at strong squeezing where cosh - sinh
    underflows the floating-point subtraction.
    """
    # an overflow is refused by _nu_sq, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        decay, (u1, u2), (v1, v2) = trace.phase_space(c0)
        alpha = a0 * decay + trace.delta_gamma
        corr = c0 * decay
        diff = a_minus_c * decay + trace.delta_gamma  # alpha - corr, cancellation-free
        k_sq = u1 ** 2 + u2 ** 2
        uv = u1 * v1 + u2 * v2
        i1 = alpha ** 2 - k_sq
        i3 = -(corr ** 2)
        # det(A +- C) = (alpha - corr)(alpha + corr) -+ 2 u.v - |u|^2
        base = diff * (alpha + corr)
        i4 = (base - 2.0 * uv - k_sq) * (base + 2.0 * uv - k_sq)
        return np.sqrt(_nu_sq(i1 - i3, i4))


def _kappa(trace: CoefficientTrace, r: float, scale: str,
           source: str = "symmetric") -> np.ndarray:
    """Twin-beam kappa of squeezing ``r`` at every time of ``trace`` on the
    vacuum ``scale``. ``source`` "symmetric" is the invariant formula,
    "oracle" validates the assembled covariances and runs one batched PT
    eigensolve, and "paper" is the secular closed form of the channel,
    (a - c)*exp(-Gamma) + DeltaGamma, which reads no ``sec_*`` column.
    """
    TwbSpec(r)
    block, gain = _SCALES[scale]
    a0, c0 = block * math.cosh(2.0 * r), block * math.sinh(2.0 * r)
    a_minus_c = block * math.exp(-2.0 * r)
    if source == "paper":
        nu = a_minus_c * trace.phase_space(c0)[0] + trace.delta_gamma
    elif source == "oracle":
        cms = _assemble_cm(a0, c0, trace)
        check_covariances(cms, validate_uncertainty=False)
        nu = _nu_min_pt_stack(cms)
    else:
        nu = _nu_curve(a0, c0, a_minus_c, trace)
    return gain * nu


def kappa_full_curve(trace: CoefficientTrace, r: float) -> np.ndarray:
    """Full-channel kappa (secular terms included) on the 1/2 vacuum scale,
    comparable point by point with :func:`kappa_secular`."""
    return _kappa(trace, r, "1/2")


def kappa_secular_channel_curve(trace: CoefficientTrace,
                                r: float) -> np.ndarray:
    """Channel-evaluated secular kappa (1/2 scale); on a closed-form trace it
    reproduces :func:`kappa_secular` to rounding."""
    return _kappa(trace, r, "1/2", "paper")


def kappa_full(env: EnvironmentParams, r: float, tau: float,
               method: str = METHOD_CLOSED) -> float:
    """Full-channel kappa at one time (1/2 scale): a trace of one point."""
    return float(_kappa(build_trace(env, [tau], method), r, "1/2")[0])


def state_kappa_curve(trace: CoefficientTrace, r: float,
                      source: str = "symmetric") -> np.ndarray:
    """Kappa on the grid of ``trace`` of the physical-scale state (vacuum
    CM = I): on the sqrt(2) scale from the "symmetric" source, on the unit
    scale from the "oracle" source."""
    if source not in ("symmetric", "oracle"):
        raise UsageError(f"unknown kappa source {source!r}")
    return _kappa(trace, r, "sqrt2" if source == "symmetric" else "1", source)


# ---------------------------------------------------------------------------
# sudden death
# ---------------------------------------------------------------------------

def _curve(tau, values, threshold):
    """The checked grid and samples, the samples at or above ``threshold``,
    and the brackets: each i where the samples change side between tau[i]
    and tau[i + 1]. A sample not finite raises ``NumericError``, and
    ``values`` not of ``tau``'s shape ``UsageError``."""
    tau, values = _check_grid(tau, "tau"), np.asarray(values, dtype=float)
    if values.shape != tau.shape:
        raise UsageError(f"values: shape {values.shape}, tau's {tau.shape}")
    if not np.isfinite(values).all():
        raise NumericError(f"kappa: not finite on the grid up to "
                           f"tau = {tau[-1]:g}")
    above = values >= threshold
    return tau, values, above, np.flatnonzero(above[1:] != above[:-1])


def _crossing(tau, values, threshold, i, point_fn=None) -> float:
    """The crossing in the bracket [tau[i], tau[i + 1]], bisected to
    BISECT_XTOL on ``point_fn``, or by default on the not-a-knot cubic
    through the eight samples around the bracket (all of a shorter grid).
    The bracket's end values are its samples, so it always straddles."""
    if point_fn is None:
        lo = max(0, min(i - 3, len(tau) - 8))
        spline = _NotAKnot(tau[lo:lo + 8]).fit([values[lo:lo + 8]])
        point_fn = lambda t: float(spline(t)[0])
    a, b = float(tau[i]), float(tau[i + 1])
    fa, fb = values[i] - threshold, values[i + 1] - threshold
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    while b - a > BISECT_XTOL:
        m = 0.5 * (a + b)
        fm = point_fn(m) - threshold
        if fm == 0.0:
            return m
        if (fa < 0.0) != (fm < 0.0):  # a product of tiny values underflows
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def crossing_windows(tau, values, threshold):
    """The (enter, leave) times of each interval where the sampled curve is
    at or above ``threshold``, in order; an end is None where its window is
    open at tau[0] or tau[-1]. Each end is bisected on the not-a-knot cubic
    through the eight samples around its own bracket."""
    tau, values, above, brackets = _curve(tau, values, threshold)
    ends = [_crossing(tau, values, threshold, i) for i in brackets]
    ends = [None] * bool(above[0]) + ends + [None] * bool(above[-1])
    return list(zip(ends[::2], ends[1::2]))


def find_last_upcrossing(tau, values, threshold, point_fn=None):
    """Time of the last upward crossing of ``threshold`` after which the
    sampled curve stays above it; None when there is no such crossing: the
    enter time of the last of :func:`crossing_windows` when that window is
    open at tau[-1] and ``values[0]`` is below the threshold. Bisects
    ``point_fn``, or by default the not-a-knot cubic through the eight
    samples around the bracket, whose crossing is within 6.1e-8 of the
    curve's own on 600 points. A sample not finite raises
    ``NumericError``, and ``values`` not of ``tau``'s shape
    ``UsageError``."""
    tau, values, above, brackets = _curve(tau, values, threshold)
    if above[0] or not above[-1]:
        return None
    return _crossing(tau, values, threshold, brackets[-1], point_fn)


def sudden_death_time(r: float, j0_delta: float, omega_lo: float,
                      kappa_source: str = "secular", *, tau_max: float = 100.0):
    """Earliest time after which negativity is zero through ``tau_max``.

    Detected as the last upward crossing of kappa through 1 (flat zero
    plateaus of the negativity itself would confuse a bracketing search) on
    8,001 points, "full" on the closed route, and bisected to BISECT_XTOL.
    Returns None when the curve never dies inside the horizon, including the
    degenerate j0_delta = 0 case where the environment is absent. A
    ``tau_max`` that is not finite and positive raises ``DomainError``.
    """
    if kappa_source not in ("secular", "full"):
        raise UsageError(f"unknown kappa source {kappa_source!r}")
    _require_parameters(r, j0_delta, omega_lo)
    if not 0.0 < tau_max < math.inf:
        raise DomainError(f"tau_max must be finite and positive, got {tau_max}")
    if j0_delta == 0.0:
        return None

    grid = np.linspace(0.0, tau_max, 8001)
    if kappa_source == "secular":
        values = kappa_secular(r, j0_delta, omega_lo, grid)
        point_fn = lambda t: kappa_secular(r, j0_delta, omega_lo, t)
    else:
        # kappa depends on j0 and delta only through the product: j0 = 1
        env = EnvironmentParams(SpectralDensity(1.0, omega_lo, j0_delta))
        values = kappa_full_curve(build_trace(env, grid), r)
        point_fn = None
    return find_last_upcrossing(grid, values, 1.0, point_fn)
