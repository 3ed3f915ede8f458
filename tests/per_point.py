"""Per-point references for the array forms of the channel and the PT
eigensolver, for the weighted recurrence, for the spline's tridiagonal
sweeps and for the CSV writer: the scalar arithmetic, one matrix, one
indexed element, one row or one cell at a time, that the library code must
reproduce bit for bit. The two band kernels are kept in their separate
forms, each evaluating both branches everywhere, and the PT eigensolve in
its complex form too, which agrees with the real one to rounding."""

import math

import numpy as np

from bandgauss.cli import _fmt
from bandgauss.coefficients import (METHOD_CLOSED, _STIFF_PAIR_GAP,
                                    CoefficientTrace)
from bandgauss.dynamics import symplectic_form
from bandgauss.spectral import SERIES_CROSSOVER


def kernel_sin(spectral, s):
    """Sine transform of the band, product form with a series near 0."""
    s_arr = np.asarray(s, dtype=float)
    lo, hi, j0 = spectral.omega_lo, spectral.omega_hi, spectral.j0
    small = s_arr * hi < SERIES_CROSSOVER
    s_safe = np.where(small, 1.0, s_arr)
    exact = 2.0 * j0 * np.sin(0.5 * s_arr * (lo + hi)) \
        * np.sin(0.5 * s_arr * spectral.delta) / s_safe
    series = j0 * s_arr * ((hi * hi - lo * lo) / 2.0
                           - s_arr * s_arr * (hi ** 4 - lo ** 4) / 24.0)
    out = np.where(small, series, exact)
    return float(out) if np.isscalar(s) or s_arr.ndim == 0 else out


def kernel_cos(spectral, s):
    """Zero-temperature cosine transform of the band, likewise."""
    s_arr = np.asarray(s, dtype=float)
    lo, hi, j0 = spectral.omega_lo, spectral.omega_hi, spectral.j0
    small = s_arr * hi < SERIES_CROSSOVER
    s_safe = np.where(small, 1.0, s_arr)
    exact = 2.0 * j0 * np.cos(0.5 * s_arr * (lo + hi)) \
        * np.sin(0.5 * s_arr * spectral.delta) / s_safe
    series = j0 * (spectral.delta
                   - s_arr * s_arr * (hi ** 3 - lo ** 3) / 6.0)
    out = np.where(small, series, exact)
    return float(out) if np.isscalar(s) or s_arr.ndim == 0 else out


def snapshot(tau, gamma_int=0.0, delta_gamma=0.0, secular=(0.0,) * 4):
    """A one-row trace at ``tau`` with the given channel columns and zero
    rates."""
    row = lambda v: np.array([float(v)])
    return CoefficientTrace(row(tau), *(row(0.0),) * 4, row(gamma_int),
                            row(delta_gamma), *map(row, secular),
                            METHOD_CLOSED)


def assemble_cm(a, c, snap):
    """Covariance after the channel at one snapshot (a one-row trace), for
    blocks a*I and diag(c, -c)."""
    decay = np.exp(-snap.gamma_int[0])
    dg = snap.delta_gamma[0]
    d_co, d_si, p_co, p_si = (snap.sec_delta_co[0], snap.sec_delta_si[0],
                              snap.sec_pi_co[0], snap.sec_pi_si[0])
    diag = d_co - p_si
    off = -(d_si + p_co)
    noise = np.array([[dg + diag, off], [off, dg - diag]])
    a_t = a * decay * np.eye(2) + noise
    c2, s2 = np.cos(2.0 * snap.tau_grid[0]), np.sin(2.0 * snap.tau_grid[0])
    c_t = c * decay * np.array([[c2, -s2], [-s2, -c2]])
    cm = np.zeros((4, 4))
    cm[:2, :2] = a_t
    cm[2:, 2:] = a_t
    cm[:2, 2:] = c_t
    cm[2:, :2] = c_t.T
    return cm


def nu_min_pt(cm):
    """Minimum PT symplectic eigenvalue of one 4x4 covariance matrix: the
    real matrix Omega*sigma_pt entry by entry, row i of it being row
    (1, 0, 3, 2)[i] of the covariance with sign (+, -, -, -)[i] and column 3
    negated, and its smallest eigenvalue modulus."""
    row_of, row_sign = (1, 0, 3, 2), (1.0, -1.0, -1.0, -1.0)
    col_sign = (1.0, 1.0, 1.0, -1.0)
    m = np.array([[row_sign[i] * col_sign[j] * cm[row_of[i], j]
                   for j in range(4)] for i in range(4)])
    return float(np.min(np.abs(np.linalg.eigvals(m))))


def nu_min_pt_complex(cm):
    """The smallest and the largest PT symplectic eigenvalue of one 4x4
    covariance matrix by the complex form: the eigenvalue moduli of
    i*Omega*sigma_pt, with sigma_pt = flip @ cm @ flip."""
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    moduli = np.abs(np.linalg.eigvals(1j * symplectic_form()
                                      @ (flip @ cm @ flip)))
    return float(np.min(moduli)), float(np.max(moduli))


def _etd_step(y, x0, x1, a, h):
    """One exponential-integrator step of y' = x - Gamma'*y with x linear and
    Gamma' constant; ``a`` is the damping-exponent change over the step."""
    a = max(a, -600.0)
    ema = math.exp(-a)
    if abs(a) < 1e-4:
        phi0 = 0.5 - a / 3.0 + a * a / 8.0
        phi1 = 0.5 - a / 6.0 + a * a / 24.0
    else:
        phi0 = (1.0 - ema * (1.0 + a)) / (a * a)
        phi1 = (a - 1.0 + ema) / (a * a)
    return y * ema + h * (x0 * phi0 + x1 * phi1)


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


def tridiagonal_sweeps(x, b):
    """The knot-slope system's solution for the right-hand side ``b`` and
    its row factors, on Python floats one row at a time: the factorization
    (x-only), the forward sweep and the back substitution, in LAPACK
    dgtsv's operation order without row interchanges."""
    dx, n = np.diff(x), len(x)
    d = [0.0, *(2 * (dx[:-1] + dx[1:])).tolist(), 0.0]
    du, dl = [0.0, *dx[:-1].tolist()], [*dx[1:].tolist(), 0.0]
    if n <= 3:
        (d[0], du[0]), (d[-1], dl[-1]) = (1.0, n - 2.0), (1.0, n - 2.0)
    else:
        (d[0], du[0]), (d[-1], dl[-1]) = ((float(dx[1]), float(x[2] - x[0])),
                                          (float(dx[-2]), float(x[-1] - x[-3])))
    pivot, facts, pivots = d[0], [], [d[0]]
    for dl_i, du_i, d_next in zip(dl, du, d[1:]):
        fact = dl_i / pivot
        pivot = d_next - fact * du_i
        facts.append(fact)
        pivots.append(pivot)
    lo, rows = b[0], []
    for fact, nxt in zip(facts, b[1:]):
        rows.append(lo)
        lo = nxt - fact * lo
    rows.append(lo)
    # dgtsv's zero subdiagonal still subtracts 0.0 * x2, which against a
    # negative x2 turns -0.0 into +0.0
    s, x1, x2 = [], 0.0, 0.0
    for bi, du_i, d_i in zip(reversed(rows), [0.0, *du[::-1]], pivots[::-1]):
        x1, x2 = (bi - du_i * x1 - 0.0 * x2) / d_i, x1
        s.append(x1)
    return np.array(s[::-1]), np.array(facts)


def write_csv(path, header, rows):
    """The CSV writer formatting every cell as it comes."""
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")
