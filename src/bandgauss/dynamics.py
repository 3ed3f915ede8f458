"""Two-mode Gaussian states and their propagation through the noise channel.

Each mode sits in its own identical band-limited environment. The channel
damps the state by exp(-Gamma), rotates it at the mode frequency, and adds
the diffusion block built from the variance DeltaGamma plus the four
oscillatory-weighted integrals (the "secular terms"). Dropping those terms
gives the secular approximation, where the diagonal blocks evolve as
A0*exp(-Gamma) + DeltaGamma*I.

Sign conventions of the added noise block are fixed by conjugating the
diffusion matrix with the rotation, i.e. by the direct propagator that
:func:`bandgauss.oracle.propagate_w_matrix` implements; the oracle check is
the arbiter for them.

The channel does not depend on the input state, so one coefficient trace
serves every state: :func:`evolve_covariances` assembles and validates a
whole trace as one (N, 4, 4) array; :func:`apply_channel` is the same
assembly at one time. :func:`check_covariances` validates stacks and single
states alike, and is the gate on every output: Gamma itself may dip below
zero on the quadrature route, which is the non-Markovian signature.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coefficients import (METHOD_CLOSED, CoefficientTrace, EnvironmentParams,
                           build_trace)
from .errors import DomainError, UnsupportedStateError

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
    def min_uncertainty_eig(cm: np.ndarray) -> float:
        """Smallest eigenvalue of cm + i*Omega; >= 0 for physical states.

        ``cm`` may also be an (N, 4, 4) stack; the minimum is then over all
        of its matrices.
        """
        return float(np.min(np.linalg.eigvalsh(cm + 1j * symplectic_form())))

    @property
    def block_a(self) -> np.ndarray:
        return self.cm[:2, :2]

    @property
    def block_b(self) -> np.ndarray:
        return self.cm[2:, 2:]

    @property
    def block_c(self) -> np.ndarray:
        return self.cm[:2, 2:]


def check_covariances(cms: np.ndarray, validate_uncertainty: bool = True) -> None:
    """Raise DomainError unless every matrix of the (N, 4, 4) stack ``cms``
    is a covariance matrix: symmetric to 1e-12, positive semidefinite to
    -1e-10 and, when ``validate_uncertainty`` is set, within -1e-8 of the
    uncertainty bound. One batched eigensolve serves each check.
    """
    if cms.ndim != 3 or cms.shape[1:] != (4, 4):
        raise DomainError(f"covariance matrix must be 4x4, got {cms.shape[1:]}")
    if np.max(np.abs(cms - cms.transpose(0, 2, 1))) > 1e-12:
        raise DomainError("covariance matrix must be symmetric to 1e-12")
    if np.min(np.linalg.eigvalsh(cms)) < -1e-10:
        raise DomainError("covariance matrix must be positive semidefinite")
    if validate_uncertainty and TwoModeGaussianState.min_uncertainty_eig(cms) < -1e-8:
        raise DomainError("covariance matrix violates the uncertainty bound")


@dataclass(frozen=True)
class TwbSpec:
    """Twin-beam (two-mode squeezed vacuum) preparation with squeezing r."""

    r: float

    def __post_init__(self):
        if self.r < 0.0:
            raise DomainError(f"squeezing parameter must be >= 0, got {self.r}")


def make_twb(spec: TwbSpec | float) -> TwoModeGaussianState:
    """Twin-beam state: diagonal blocks cosh(2r)*I, correlations +-sinh(2r)."""
    if not isinstance(spec, TwbSpec):
        spec = TwbSpec(float(spec))
    a = np.cosh(2.0 * spec.r)
    c = np.sinh(2.0 * spec.r)
    cm = np.diag([a, a, a, a])
    cm[0, 2] = cm[2, 0] = c
    cm[1, 3] = cm[3, 1] = -c
    return TwoModeGaussianState(np.zeros(4), cm)


def rotation(tau: float) -> np.ndarray:
    """Free phase-space rotation over time tau (mode frequency = 1)."""
    c, s = np.cos(tau), np.sin(tau)
    return np.array([[c, s], [-s, c]])


@dataclass(frozen=True)
class ChannelSnapshot:
    """Channel data at a single time: damping exponent, diffusion variance,
    the four weighted integrals (delta_co, delta_si, pi_co, pi_si), and the
    rotation angle."""

    tau: float
    gamma_int: float
    delta_gamma: float
    secular: tuple[float, float, float, float]
    angle: float


def channel_snapshot(env: EnvironmentParams, tau: float,
                     method: str = METHOD_CLOSED) -> ChannelSnapshot:
    """Evaluate the channel coefficients at one time: the end of a trace
    over [0, tau]."""
    return snapshots_from_trace(build_trace(env, [tau], method))[0]


def snapshots_from_trace(trace: CoefficientTrace) -> list[ChannelSnapshot]:
    """One snapshot per grid point of an evaluated coefficient trace."""
    return [
        ChannelSnapshot(
            tau=float(t),
            gamma_int=float(trace.gamma_int[i]),
            delta_gamma=float(trace.delta_gamma[i]),
            secular=tuple(float(v[i]) for v in trace.secular),
            angle=float(t),
        )
        for i, t in enumerate(trace.tau_grid)
    ]


def _twb_block_values(state: TwoModeGaussianState) -> tuple[float, float]:
    """Extract (a, c) from a symmetric state with A = B = a*I, C = diag(c, -c)."""
    cm = state.cm
    a = 0.5 * (cm[0, 0] + cm[1, 1])
    c = cm[0, 2]
    expected = np.diag([a, a, a, a])
    expected[0, 2] = expected[2, 0] = c
    expected[1, 3] = expected[3, 1] = -c
    if np.max(np.abs(cm - expected)) > _BLOCK_TOL:
        raise UnsupportedStateError(
            "channel needs a symmetric state with equal diagonal blocks a*I "
            "and correlation block diag(c, -c)")
    return float(a), float(c)


def _assemble_cm(a: float, c: float, gamma_int, delta_gamma, secular, angle,
                 include_secular: bool) -> np.ndarray:
    """Covariance matrices after the channel for initial blocks a*I and
    diag(c, -c), shape (..., 4, 4) for channel data of shape (...): one
    matrix per time of a trace, or a single (4, 4) matrix for scalars.

    The added noise block is DeltaGamma*I plus, when ``include_secular`` is
    set, the rotated traceless combination of the weighted integrals. The
    rotation by 2*angle and the relative signs follow from conjugating the
    diffusion matrix with the free rotation.
    """
    dg = np.asarray(delta_gamma, dtype=float)
    noise = np.zeros(dg.shape + (2, 2))
    if include_secular:
        d_co, d_si, p_co, p_si = secular
        diag = d_co - p_si
        noise[..., 0, 0], noise[..., 1, 1] = dg + diag, dg - diag
        noise[..., 0, 1] = noise[..., 1, 0] = -(d_si + p_co)
    else:
        noise[..., 0, 0] = noise[..., 1, 1] = dg
    decay = np.exp(-np.asarray(gamma_int, dtype=float))[..., None, None]
    a_t = a * decay * np.eye(2) + noise
    c2, s2 = np.cos(2.0 * angle), np.sin(2.0 * angle)
    # correlation block rotates as R C0 R^T with C0 = diag(c, -c)
    rot = np.moveaxis(np.array([[c2, -s2], [-s2, -c2]]), (0, 1), (-2, -1))
    c_t = c * decay * rot
    cm = np.zeros(dg.shape + (4, 4))
    cm[..., :2, :2] = a_t
    cm[..., 2:, 2:] = a_t
    cm[..., :2, 2:] = c_t
    cm[..., 2:, :2] = np.swapaxes(c_t, -1, -2)
    return cm


def evolve_mean(state: TwoModeGaussianState,
                snapshot: ChannelSnapshot) -> np.ndarray:
    """Mean vector after the channel: exp(-Gamma/2) * (R (+) R) * mean."""
    r = rotation(snapshot.angle)
    block = np.zeros((4, 4))
    block[:2, :2] = r
    block[2:, 2:] = r
    return float(np.exp(-0.5 * snapshot.gamma_int)) * (block @ state.mean)


def apply_channel(state: TwoModeGaussianState, snapshot: ChannelSnapshot,
                  include_secular: bool = True) -> TwoModeGaussianState:
    """Propagate a symmetric two-mode state through the channel snapshot."""
    a, c = _twb_block_values(state)
    cm = _assemble_cm(a, c, snapshot.gamma_int, snapshot.delta_gamma,
                      snapshot.secular, snapshot.angle, include_secular)
    return TwoModeGaussianState(evolve_mean(state, snapshot), cm,
                                validate_uncertainty=False)


def evolve_covariances(state: TwoModeGaussianState, trace: CoefficientTrace,
                       include_secular: bool = True) -> np.ndarray:
    """Covariance matrices of ``state`` after the channel at every time of
    ``trace``, shape (N, 4, 4).

    The same matrices, checks and errors as :func:`apply_channel` on each
    snapshot of the trace, computed as arrays in one pass.
    """
    a, c = _twb_block_values(state)
    cms = _assemble_cm(a, c, trace.gamma_int, trace.delta_gamma,
                       trace.secular, trace.tau_grid, include_secular)
    check_covariances(cms, validate_uncertainty=False)
    return cms


def evolve_cm_full(state: TwoModeGaussianState, env: EnvironmentParams,
                   tau: float, method: str = METHOD_CLOSED) -> TwoModeGaussianState:
    """Evolved state with the secular terms included."""
    return apply_channel(state, channel_snapshot(env, tau, method),
                         include_secular=True)


def evolve_cm_secular(state: TwoModeGaussianState, env: EnvironmentParams,
                      tau: float, method: str = METHOD_CLOSED) -> TwoModeGaussianState:
    """Evolved state in the secular approximation (weighted integrals dropped)."""
    return apply_channel(state, channel_snapshot(env, tau, method),
                         include_secular=False)
