"""Per-point references for the array forms of the channel and the PT
eigensolver: the scalar arithmetic, one matrix at a time, that the batched
code must reproduce bit for bit."""

import numpy as np

from bandgauss.dynamics import symplectic_form


def assemble_cm(a, c, snap, include_secular):
    """Covariance after the channel at one snapshot, for blocks a*I and
    diag(c, -c)."""
    decay = np.exp(-snap.gamma_int)
    dg = snap.delta_gamma
    if include_secular:
        d_co, d_si, p_co, p_si = snap.secular
        diag = d_co - p_si
        off = -(d_si + p_co)
        noise = np.array([[dg + diag, off], [off, dg - diag]])
    else:
        noise = np.array([[dg, 0.0], [0.0, dg]])
    a_t = a * decay * np.eye(2) + noise
    c2, s2 = np.cos(2.0 * snap.angle), np.sin(2.0 * snap.angle)
    c_t = c * decay * np.array([[c2, -s2], [-s2, -c2]])
    cm = np.zeros((4, 4))
    cm[:2, :2] = a_t
    cm[2:, 2:] = a_t
    cm[:2, 2:] = c_t
    cm[2:, :2] = c_t.T
    return cm


def nu_min_pt(cm):
    """Minimum PT symplectic eigenvalue of one 4x4 covariance matrix."""
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    eigs = np.linalg.eigvals(1j * symplectic_form() @ (flip @ cm @ flip))
    return float(np.min(np.abs(eigs)))
