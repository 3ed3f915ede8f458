"""Entanglement of the propagated two-mode states.

Negativity is driven by the minimum symplectic eigenvalue of the partially
transposed covariance matrix. Three routes to that eigenvalue coexist:

* ``kappa_symmetric`` -- invariant formula for symmetric states,
  sqrt(2)*sqrt(I1 - I3 - sqrt((I1 - I3)^2 - I4)), on the vacuum = identity
  scale (so the vacuum gives sqrt(2));
* ``kappa_secular`` -- closed form under the secular approximation,
  (tau^2*J0*delta + exp(-2r - tau^4*J0*delta*Omega/6))/2, on the scale where
  the vacuum gives 1/2;
* ``nu_min_pt`` -- direct eigendecomposition of i*Omega*sigma_pt, the
  convention-independent oracle (vacuum gives 1); the ``oracle`` source of
  :func:`state_kappa_curve` runs it as one batched eigensolve over a trace.

The two printed formulas deliberately keep their inconsistent normalisations;
every consumer labels which route produced a number. ``kappa_full`` evaluates
the full channel (secular terms included) on the same 1/2 scale as
``kappa_secular`` so the two are directly comparable, coinciding at tau = 0
and wherever the secular terms are negligible. Negativity uses the natural
logarithm and the literal threshold kappa = 1.

:func:`kappa_full_curve` and :func:`state_kappa_curve` take an evaluated
:class:`CoefficientTrace`: the channel does not depend on the input state,
so one trace per environment serves every squeezing value and mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .coefficients import (METHOD_CLOSED, CoefficientTrace, EnvironmentParams,
                           build_trace, require_method)
from .dynamics import (TwoModeGaussianState, _assemble_cm, channel_snapshot,
                       check_covariances, symplectic_form)
from .errors import DomainError, NumericError, UsageError, UnsupportedStateError
from .spectral import SpectralDensity

RADICAND_TOL = 1e-12


@dataclass(frozen=True)
class SymplecticInvariants:
    """det of the diagonal block, the correlation block, and the full matrix."""

    i1: float
    i3: float
    i4: float


def invariants(state: TwoModeGaussianState | np.ndarray) -> SymplecticInvariants:
    """Symplectic invariants of a symmetric two-mode covariance matrix."""
    cm = state.cm if isinstance(state, TwoModeGaussianState) else np.asarray(state, float)
    if cm.shape != (4, 4):
        raise UnsupportedStateError("need a 4x4 covariance matrix")
    if np.max(np.abs(cm[:2, :2] - cm[2:, 2:])) > 1e-10:
        raise UnsupportedStateError("diagonal blocks differ; state is not symmetric")
    return SymplecticInvariants(
        i1=float(np.linalg.det(cm[:2, :2])),
        i3=float(np.linalg.det(cm[:2, 2:])),
        i4=float(np.linalg.det(cm)),
    )


def _nu_sq(x, i4):
    """Smallest PT symplectic eigenvalue squared: x - sqrt(x^2 - i4).

    Evaluated as i4 / (x + sqrt(x^2 - i4)), which is algebraically identical
    but avoids the catastrophic cancellation of the literal form when
    x^2 >> i4 (strong squeezing).
    """
    inner = _clamp_radicand(x * x - i4, scale=np.maximum(1.0, x * x))
    denom = x + np.sqrt(inner)
    if np.any(denom <= 0.0):
        raise NumericError("covariance matrix is unphysical: I1 - I3 <= 0")
    return _clamp_radicand(i4 / denom, scale=np.maximum(1.0, np.abs(x)))


def _clamp_radicand(value, scale=1.0):
    bad = value < -RADICAND_TOL * scale
    if np.any(bad):
        raise NumericError(f"radicand {np.min(value)} is negative beyond tolerance; "
                           "covariance matrix is unphysical")
    return np.maximum(value, 0.0)


def pt_nu_min(inv: SymplecticInvariants) -> float:
    """Minimum PT symplectic eigenvalue from the symmetric-state invariants."""
    return float(np.sqrt(_nu_sq(inv.i1 - inv.i3, inv.i4)))


def kappa_symmetric(inv: SymplecticInvariants) -> float:
    """Invariant-formula kappa, sqrt(2) times the minimum PT eigenvalue."""
    return math.sqrt(2.0) * pt_nu_min(inv)


def kappa_secular(r, j0_delta, omega_lo, tau):
    """Closed-form kappa under the secular approximation (vacuum -> 1/2).

    Accepts scalars or arrays in ``tau``. Depends on the spectral amplitude
    and bandwidth only through their product.
    """
    for name, val in (("r", r), ("j0_delta", j0_delta), ("omega_lo", omega_lo)):
        if val < 0.0:
            raise DomainError(f"{name} must be non-negative, got {val}")
    t = np.asarray(tau, dtype=float)
    if np.any(t < 0.0):
        raise DomainError("tau must be non-negative")
    out = 0.5 * (t * t * j0_delta + np.exp(-2.0 * r - t ** 4 * j0_delta * omega_lo / 6.0))
    return float(out) if np.isscalar(tau) or t.ndim == 0 else out


def _nu_min_pt_stack(cms: np.ndarray) -> np.ndarray:
    """Minimum PT symplectic eigenvalue of each matrix of an (N, 4, 4) stack,
    by one batched eigensolve."""
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    sigma_pt = flip @ cms @ flip
    try:
        eigs = np.linalg.eigvals(1j * symplectic_form() @ sigma_pt)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    return np.min(np.abs(eigs), axis=-1)


def nu_min_pt(state: TwoModeGaussianState) -> float:
    """Minimum symplectic eigenvalue of the partial transpose, by eigensolver.

    Flips the second mode's momentum, forms i*Omega*sigma_pt and returns the
    smallest eigenvalue modulus. Independent of the invariant formula.
    """
    return float(_nu_min_pt_stack(state.cm[None])[0])


def negativity(kappa):
    """Entanglement negativity max(0, -2*ln(kappa)); natural logarithm."""
    k = np.asarray(kappa, dtype=float)
    if np.any(k <= 0.0):
        raise DomainError("kappa must be positive")
    out = np.maximum(0.0, -2.0 * np.log(k))
    return float(out) if np.isscalar(kappa) or k.ndim == 0 else out


# ---------------------------------------------------------------------------
# channel-resolved kappa curves
# ---------------------------------------------------------------------------

def _env_for(j0_delta: float, omega_lo: float) -> EnvironmentParams:
    # kappa depends on j0 and delta only through the product, so fix j0 = 1.
    return EnvironmentParams(SpectralDensity(1.0, omega_lo, j0_delta), low_t=True)


def _nu_curve(a0, c0, a_minus_c, gamma_int, dgamma, sec4, tau):
    """Minimum PT eigenvalue along a trace, for initial blocks a0*I, diag(c0, -c0).

    Works on the determinant factorisation det(sigma) = det(A+C)*det(A-C)
    valid for the symmetric block form, with the traceless parts of A and C
    treated as 2-vectors. Callers pass ``a_minus_c`` = a0 - c0 separately:
    for twin beams that difference is exp(-2r) up to scale, and carrying it
    exactly keeps the result accurate at strong squeezing where cosh - sinh
    underflows the floating-point subtraction.
    """
    d_co, d_si, p_co, p_si = sec4
    decay = np.exp(-gamma_int)
    alpha = a0 * decay + dgamma
    corr = c0 * decay
    diff = a_minus_c * decay + dgamma          # alpha - corr, cancellation-free
    u1 = d_co - p_si
    u2 = -(d_si + p_co)
    v1 = corr * np.cos(2.0 * tau)
    v2 = -corr * np.sin(2.0 * tau)
    k_sq = u1 ** 2 + u2 ** 2
    uv = u1 * v1 + u2 * v2
    i1 = alpha ** 2 - k_sq
    i3 = -(corr ** 2)
    # det(A +- C) = (alpha - corr)(alpha + corr) -+ 2 u.v - |u|^2
    base = diff * (alpha + corr)
    i4 = (base - 2.0 * uv - k_sq) * (base + 2.0 * uv - k_sq)
    return np.sqrt(_nu_sq(i1 - i3, i4))


def kappa_full_curve(trace: CoefficientTrace, r: float) -> np.ndarray:
    """Full-channel kappa (secular terms included) on the 1/2 vacuum scale,
    on the grid of ``trace``.

    Comparable point by point with :func:`kappa_secular`; the two coincide
    exactly when the secular terms vanish.
    """
    if r < 0.0:
        raise DomainError(f"r must be non-negative, got {r}")
    return _nu_curve(0.5 * math.cosh(2.0 * r), 0.5 * math.sinh(2.0 * r),
                     0.5 * math.exp(-2.0 * r), trace.gamma_int,
                     trace.delta_gamma, trace.secular, trace.tau_grid)


def kappa_secular_channel_curve(env: EnvironmentParams, r: float, tau_grid,
                                method: str = METHOD_CLOSED) -> np.ndarray:
    """Channel-evaluated secular kappa (1/2 scale); with the closed-form
    method this reproduces :func:`kappa_secular` to rounding."""
    require_method(method)
    tau_grid = np.asarray(tau_grid, dtype=float)
    trace = build_trace(env, tau_grid, method)
    decay = np.exp(-trace.gamma_int)
    return 0.5 * math.exp(-2.0 * r) * decay + trace.delta_gamma


def kappa_full(env: EnvironmentParams, r: float, tau: float,
               method: str = METHOD_CLOSED) -> float:
    """Single-time full-channel kappa on the 1/2 vacuum scale."""
    snap = channel_snapshot(env, tau, method)
    return float(_nu_curve(0.5 * math.cosh(2.0 * r), 0.5 * math.sinh(2.0 * r),
                           0.5 * math.exp(-2.0 * r), snap.gamma_int,
                           snap.delta_gamma, snap.secular, snap.tau))


def state_kappa_curve(trace: CoefficientTrace, r: float,
                      include_secular: bool = True,
                      source: str = "symmetric") -> np.ndarray:
    """Kappa on the grid of ``trace`` for the physical-scale state
    (vacuum CM = I).

    ``source`` selects the route: "symmetric" applies the sqrt(2) invariant
    formula, "oracle" assembles the covariance matrix of every grid point,
    validates them and runs the PT eigensolver on the whole stack at once.
    """
    a0, c0 = math.cosh(2.0 * r), math.sinh(2.0 * r)
    if source == "symmetric":
        sec4 = trace.secular
        if not include_secular:
            sec4 = tuple(np.zeros_like(trace.tau_grid) for _ in range(4))
        return math.sqrt(2.0) * _nu_curve(a0, c0, math.exp(-2.0 * r),
                                          trace.gamma_int, trace.delta_gamma,
                                          sec4, trace.tau_grid)
    if source == "oracle":
        cms = _assemble_cm(a0, c0, trace.gamma_int, trace.delta_gamma,
                           trace.secular, trace.tau_grid, include_secular)
        check_covariances(cms, validate_uncertainty=False)
        return _nu_min_pt_stack(cms)
    raise UsageError(f"unknown kappa source {source!r}")


# ---------------------------------------------------------------------------
# sudden death
# ---------------------------------------------------------------------------

def _bisect(f, a: float, b: float, xtol: float) -> float:
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise NumericError("bisection bracket does not straddle the threshold")
    while b - a > xtol:
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m
        if fa * fm < 0.0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def find_last_upcrossing(tau, values, threshold, point_fn, xtol=1e-6):
    """Time of the last upward crossing of ``threshold`` after which the
    sampled curve stays above it; None when there is no such crossing."""
    below = values < threshold
    if not below[0] or below[-1]:
        return None
    idx = int(np.nonzero(below)[0][-1])
    return _bisect(lambda t: point_fn(t) - threshold,
                   float(tau[idx]), float(tau[idx + 1]), xtol)


def sudden_death_time(r: float, j0_delta: float, omega_lo: float,
                      kappa_source: str = "secular", *,
                      tau_max: float = 100.0, method: str = METHOD_CLOSED,
                      scan_points: int = 8001, xtol: float = 1e-6):
    """Earliest time after which negativity is zero through ``tau_max``.

    Detected as the last upward crossing of kappa through 1 (flat zero
    plateaus of the negativity itself would confuse a bracketing search).
    Returns None when the curve never dies inside the horizon, including the
    degenerate j0_delta = 0 case where the environment is absent.
    """
    if kappa_source not in ("secular", "full"):
        raise UsageError(f"unknown kappa source {kappa_source!r}")
    for name, val in (("r", r), ("j0_delta", j0_delta), ("omega_lo", omega_lo)):
        if val < 0.0:
            raise DomainError(f"{name} must be non-negative, got {val}")
    if j0_delta == 0.0:
        return None

    grid = np.linspace(0.0, tau_max, scan_points)
    if kappa_source == "secular":
        values = kappa_secular(r, j0_delta, omega_lo, grid)
        point_fn = lambda t: kappa_secular(r, j0_delta, omega_lo, t)
    else:
        trace = build_trace(_env_for(j0_delta, omega_lo), grid, method)
        values = kappa_full_curve(trace, r)
        # bisection refines on splines of the sampled curve; spline error is
        # orders of magnitude below the time tolerance
        spline = CubicSpline(grid, values)
        point_fn = lambda t: float(spline(t))
    return find_last_upcrossing(grid, values, 1.0, point_fn, xtol)
