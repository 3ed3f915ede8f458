"""Two-mode Gaussian states and their propagation through the noise channel.

Each mode sits in its own identical band-limited environment. The channel
damps the state by exp(-Gamma), rotates it at the mode frequency, and adds
the diffusion block built from the variance DeltaGamma plus the four
oscillatory-weighted integrals (the "secular terms"). The channel is the
coefficient trace: its phase-space form, and with it every sign
convention, is :meth:`~bandgauss.coefficients.CoefficientTrace.phase_space`.
The secular approximation, where the diagonal blocks evolve as
A0*exp(-Gamma) + DeltaGamma*I, is the channel of
``trace.secular_approximation()``, the same trace with its ``sec_*``
columns zero.

The channel does not depend on the input state, so one coefficient trace
serves every state: :func:`evolve_covariances` assembles and validates a
whole trace as one (N, 4, 4) array, and the state at a single time is the
row of a trace over ``[tau]``. A snapshot is a one-row trace, one per grid
time from :func:`snapshots_from_trace`; :func:`apply_channel` applies it
to the covariance and the mean vector. :func:`check_covariances` validates
stacks and single states alike, and is the gate on every output: Gamma
itself may dip below zero on the quadrature route, which is the
non-Markovian signature.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .coefficients import CoefficientTrace
from .errors import DomainError

_BLOCK_TOL = 1e-10


def symplectic_form() -> np.ndarray:
    """Two-mode symplectic form: direct sum of [[0, 1], [-1, 0]]."""
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((4, 4))
    out[:2, :2] = j
    out[2:, 2:] = j
    return out


@dataclass(frozen=True)
class TwoModeGaussianState:
    """Mean vector (x1, p1, x2, p2) and 4x4 covariance matrix.

    Vacuum has unit covariance in this scale. Construction enforces symmetry
    and positive semidefiniteness; the uncertainty bound is checked only when
    ``validate_uncertainty`` is set, because the short-time closed-form
    channel legitimately produces covariances below the vacuum floor at long
    times and those outputs are still useful diagnostics.
    """

    mean: np.ndarray
    cm: np.ndarray
    validate_uncertainty: bool = field(default=True, repr=False)

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float).reshape(4)
        cm = np.array(self.cm, dtype=float)
        check_covariances(cm[None], self.validate_uncertainty)
        mean.flags.writeable = False
        cm.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cm", cm)

    @staticmethod
    def min_uncertainty_eig(cm: np.ndarray):
        """Smallest eigenvalue of cm + i*Omega, >= 0 for physical states; one
        per matrix of an (N, 4, 4) stack."""
        return np.linalg.eigvalsh(cm + 1j * symplectic_form())[..., 0]


def check_covariances(cms: np.ndarray, validate_uncertainty: bool = True) -> None:
    """Raise DomainError unless every matrix of the (N, 4, 4) stack ``cms``
    is a covariance matrix: symmetric to 1e-12, positive semidefinite to
    -1e-10 and, when ``validate_uncertainty`` is set, within -1e-8 of the
    uncertainty bound. Both floors are relative to each matrix's scale,
    max(1, max|eigenvalue|), because the eigensolve rounds at that scale
    (about cosh(2r) for a twin beam). One batched eigensolve serves each
    check.
    """
    if cms.ndim != 3 or cms.shape[1:] != (4, 4):
        raise DomainError(f"covariance matrix must be 4x4, got {cms.shape[1:]}")
    if np.max(np.abs(cms - cms.transpose(0, 2, 1))) > 1e-12:
        raise DomainError("covariance matrix must be symmetric to 1e-12")
    eigs = np.linalg.eigvalsh(cms)
    scale = np.maximum(1.0, np.max(np.abs(eigs), axis=-1))
    if np.any(eigs[:, 0] < -1e-10 * scale):
        raise DomainError("covariance matrix must be positive semidefinite")
    if validate_uncertainty and np.any(
            TwoModeGaussianState.min_uncertainty_eig(cms) < -1e-8 * scale):
        raise DomainError("covariance matrix violates the uncertainty bound")


# Largest squeezing whose twin-beam blocks cosh(2r), sinh(2r) are finite.
R_MAX = 0.5 * math.acosh(sys.float_info.max)


@dataclass(frozen=True)
class TwbSpec:
    """Twin-beam (two-mode squeezed vacuum) preparation with squeezing r.

    The one check of a squeezing value: 0 <= r <= R_MAX (about 355.2),
    which also refuses NaN.
    """

    r: float

    def __post_init__(self):
        if not 0.0 <= self.r <= R_MAX:
            raise DomainError(f"r must be non-negative and at most {R_MAX:.4f} "
                              f"(cosh(2r) overflows beyond), got {self.r}")


def make_twb(spec: TwbSpec | float) -> TwoModeGaussianState:
    """Twin-beam state: diagonal blocks cosh(2r)*I, correlations +-sinh(2r)."""
    if not isinstance(spec, TwbSpec):
        spec = TwbSpec(float(spec))
    a, c = np.cosh(2.0 * spec.r), np.sinh(2.0 * spec.r)
    ai, cc = a * np.eye(2), np.diag([c, -c])
    return TwoModeGaussianState(np.zeros(4), np.block([[ai, cc], [cc, ai]]))


def rotation(tau: float) -> np.ndarray:
    """Free phase-space rotation over time tau (mode frequency = 1)."""
    c, s = np.cos(tau), np.sin(tau)
    return np.array([[c, s], [-s, c]])


def snapshots_from_trace(trace: CoefficientTrace) -> list[CoefficientTrace]:
    """One single-row trace per grid time of ``trace``."""
    columns = {k: v for k, v in vars(trace).items()
               if isinstance(v, np.ndarray)}
    return [replace(trace, **{k: v[i:i + 1] for k, v in columns.items()})
            for i in range(len(trace.tau_grid))]


def _twb_block_values(state: TwoModeGaussianState) -> tuple[float, float]:
    """Extract (a, c) from a symmetric state with A = B = a*I, C = diag(c, -c)."""
    cm = state.cm
    a = 0.5 * cm[0, 0] + 0.5 * cm[1, 1]  # no overflow up to r = 355.24
    c = cm[0, 2]
    ai, cc = a * np.eye(2), np.diag([c, -c])
    if np.max(np.abs(cm - np.block([[ai, cc], [cc, ai]]))) > _BLOCK_TOL:
        raise DomainError(
            "channel needs a symmetric state with equal diagonal blocks a*I "
            "and correlation block diag(c, -c)")
    return float(a), float(c)


def _pairs(x, y, z) -> np.ndarray:
    """The symmetric 2x2 matrices [[x, y], [y, z]], one per time."""
    return np.stack([np.stack([x, y], -1), np.stack([y, z], -1)], -2)


def _assemble_cm(a: float, c: float, trace: CoefficientTrace) -> np.ndarray:
    """Covariance matrices after the channel of ``trace`` for initial blocks
    a*I and diag(c, -c), one (4, 4) matrix per time, from the trace's
    :meth:`~bandgauss.coefficients.CoefficientTrace.phase_space` form."""
    decay, (u1, u2), (v1, v2) = trace.phase_space(c)
    dg, ad = trace.delta_gamma, a * decay
    # a*decay*I + (DeltaGamma*I + u): the output bytes depend on this order
    a_t = _pairs(ad + (dg + u1), ad * 0.0 + u2, ad + (dg - u1))
    c_t = _pairs(v1, v2, -v1)
    return np.block([[a_t, c_t], [c_t, a_t]])


def evolve_mean(state: TwoModeGaussianState,
                snapshot: CoefficientTrace) -> np.ndarray:
    """Mean vector after the channel of a one-row trace:
    exp(-Gamma/2) * (R (+) R) * mean."""
    r = rotation(snapshot.tau_grid[0])
    block = np.zeros((4, 4))
    block[:2, :2] = r
    block[2:, 2:] = r
    return float(np.exp(-0.5 * snapshot.gamma_int[0])) * (block @ state.mean)


def apply_channel(state: TwoModeGaussianState,
                  snapshot: CoefficientTrace) -> TwoModeGaussianState:
    """Propagate a symmetric two-mode state through the channel of a
    one-row trace."""
    cm = evolve_covariances(state, snapshot)[0]
    return TwoModeGaussianState(evolve_mean(state, snapshot), cm,
                                validate_uncertainty=False)


def evolve_covariances(state: TwoModeGaussianState,
                       trace: CoefficientTrace) -> np.ndarray:
    """Covariance matrices of ``state`` after the channel at every time of
    ``trace``, shape (N, 4, 4).

    The same matrices, checks and errors as :func:`apply_channel` on each
    snapshot of the trace, computed as arrays in one pass.
    """
    cms = _assemble_cm(*_twb_block_values(state), trace)
    check_covariances(cms, validate_uncertainty=False)
    return cms
