"""Numeric kernels: Hermite tables, the P1 chain solve and the hat series.

All three are plain numpy, vectorized over points, cells or levels.
"""

import numpy as np

#: Name of the one kernel implementation; kept for run reports.
ACCEL_BACKEND = "numpy"

# 3-point Gauss-Legendre on [0, 1]
_REF_POINTS = np.array([0.5 - np.sqrt(15.0) / 10.0, 0.5, 0.5 + np.sqrt(15.0) / 10.0])
_REF_WEIGHTS = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])
_REF_POINTS.setflags(write=False)
_REF_WEIGHTS.setflags(write=False)


def hermite_matrix(x, kmax):
    """Normalized probabilists' Hermite values ``H_0..H_kmax`` at each x."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((x.size, kmax + 1))
    out[:, 0] = 1.0
    if kmax >= 1:
        out[:, 1] = x
    for k in range(1, kmax):
        out[:, k + 1] = (x * out[:, k] - np.sqrt(k) * out[:, k - 1]) / np.sqrt(k + 1)
    return out


def fem_system(aq, fq, h, flux):
    """Nodal P1 Galerkin solution on n cells of width h, one per leading index.

    aq: (..., n, 3) coefficient values, fq: (n, 3) right-hand-side values
    (shared), both at the per-cell `_REF_POINTS`.  Returns u of shape
    (..., n+1) with u[..., 0] = 0 and the natural condition a u' = flux at
    the right end.  The stiffness matrix is a chain of cell conductances
    s_i (each summed in a fixed order), so the flux through cell i is the
    load of all nodes right of it, q_i = sum_{k>i} load_k, and
    u_{i+1} = u_i + q_i / s_i.  Raises ZeroDivisionError unless every s_i > 0.
    """
    w = _REF_WEIGHTS.tolist()
    s = (aq[..., 0] * w[0] + aq[..., 1] * w[1] + aq[..., 2] * w[2]) / h
    if not np.all(s > 0.0):
        raise ZeroDivisionError("nonpositive cell conductance")
    cell_load = h * (fq * _REF_WEIGHTS)
    load = np.zeros(fq.shape[0] + 1)
    load[:-1] += cell_load @ (1.0 - _REF_POINTS)
    load[1:] += cell_load @ _REF_POINTS
    load[-1] += flux
    q = np.cumsum(load[:0:-1])[::-1]
    u = np.zeros(s.shape[:-1] + (load.size,))
    np.cumsum(q / s, axis=-1, out=u[..., 1:])
    return u


def hat_series(t, z, jmax, scale):
    """Sum of scaled dyadic hat functions: series over levels 0..jmax.

    z is flattened level-major: z[2**j - 1 + k] multiplies the hat at
    level j, shift k.  Levels are summed in order, so each value is the
    left-to-right sum of its nonzero terms.  Used by the piecewise-linear
    bridge generator.
    """
    out = np.zeros(t.shape[0])
    for j in range(jmax + 1):
        pos = t * 2.0 ** j
        k = np.floor(pos)
        hat = 1.0 - 2.0 * np.abs(pos - k - 0.5)
        live = (k >= 0) & (k < 2 ** j) & (hat > 0.0)
        idx = np.where(live, k, 0.0).astype(np.intp) + (2 ** j - 1)
        out += np.where(live, z[idx] * scale * 2.0 ** (-j / 2.0) * hat, 0.0)
    return out
