"""Per-point references for the array forms of the channel and the PT
eigensolver, and for the weighted recurrence: the scalar arithmetic, one
matrix or one indexed element at a time, that the library code must
reproduce bit for bit."""

import math

import numpy as np

from bandgauss.coefficients import _STIFF_PAIR_GAP, _etd_step
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


def weighted_cumulative(s, x, big_gamma):
    """The weighted recurrence y' = x - Gamma'*y, indexing the numpy arrays
    element by element: Simpson pairs, and exponential-integrator steps
    where the exponent jumps by more than _STIFF_PAIR_GAP over a pair."""
    n = len(s)
    h = s[1] - s[0]
    y = np.empty(n)
    y[0] = 0.0
    for k in range(0, n - 2, 2):
        g0, g1, g2 = big_gamma[k], big_gamma[k + 1], big_gamma[k + 2]
        if abs(g2 - g0) > _STIFF_PAIR_GAP:
            y[k + 1] = _etd_step(y[k], x[k], x[k + 1], g1 - g0, h)
            y[k + 2] = _etd_step(y[k + 1], x[k + 1], x[k + 2], g2 - g1, h)
            continue
        w0 = math.exp(g0 - g1)
        w2 = math.exp(g2 - g1)
        y[k + 1] = y[k] * w0 + h / 12.0 * (5.0 * w0 * x[k] + 8.0 * x[k + 1]
                                           - w2 * x[k + 2])
        v0 = math.exp(g0 - g2)
        v1 = math.exp(g1 - g2)
        y[k + 2] = y[k] * v0 + h / 3.0 * (v0 * x[k] + 4.0 * v1 * x[k + 1]
                                          + x[k + 2])
    return y
