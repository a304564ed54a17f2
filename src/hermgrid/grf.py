"""Gaussian-random-field inputs: series generators and circulant sampling.

Provides the sine-series and piecewise-linear (hat) generators of the
Brownian bridge, half-integer Matern covariances in closed form, a smooth
compactly supported cutoff for kernel periodization, and exact sampling of
stationary 1-d fields on a uniform grid through a circulant embedding
diagonalized by the FFT.
"""

from math import comb, factorial
from typing import NamedTuple

import numpy as np

from . import _accel
from .errors import NotPositiveDefinite, UnsupportedSmoothness

_EIG_TOL = 1e-10


def brownian_bridge_kl(n_modes: int, horizon: float, t, z) -> float:
    """Sine-series bridge value ``sum_k z_k sqrt(2T)/(k pi) sin(k pi t / T)``."""
    z = np.asarray(z, dtype=np.float64)
    if z.size < n_modes:
        raise ValueError("need one coefficient per mode")
    k = np.arange(1, n_modes + 1)
    t_arr = np.asarray(t, dtype=np.float64)
    shapes = np.sin(np.multiply.outer(t_arr, k) * np.pi / horizon)
    amps = np.sqrt(2.0 * horizon) / (k * np.pi)
    out = shapes @ (amps * z[:n_modes])
    return float(out) if np.ndim(t) == 0 else out


#: Height normalization of the hat-series bridge generator.  The raw dyadic
#: hats peak at 1, which would give the bridge four times its variance at
#: the midpoint; halving restores the target covariance t(T-t)/T.
HAT_SCALE = 0.5


def levy_ciesielski(levels: int, t, z) -> float:
    """Piecewise-linear bridge value from dyadic hat contributions.

    ``z`` maps (level j, shift k) to a coefficient for ``0 <= j <= levels``
    and ``0 <= k < 2**j``; a flat array in level-major order (entry
    ``2**j - 1 + k``) is accepted too.  At each t a single shift per level
    contributes, scaled by ``HAT_SCALE * 2**(-j/2)``.
    """
    if isinstance(z, dict):
        flat = np.zeros(2 ** (levels + 1) - 1)
        for (j, k), val in z.items():
            if not 0 <= j <= levels:
                raise ValueError(f"level {j} outside 0..{levels}")
            if not 0 <= k < 2 ** j:
                raise ValueError(f"shift {k} invalid at level {j}")
            flat[2 ** j - 1 + k] = val
    else:
        flat = np.asarray(z, dtype=np.float64)
        if flat.size < 2 ** (levels + 1) - 1:
            raise ValueError("coefficient array too short for requested levels")
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if not np.all(np.isfinite(t_arr)):
        raise ValueError("t must be finite")
    out = _accel.hat_series(t_arr, flat, levels, HAT_SCALE)
    return float(out[0]) if np.ndim(t) == 0 else out


def matern_cov(x, corr_length: float, smoothness: float):
    """Stationary Matern correlation in closed form (smoothness 1/2, 3/2, 5/2)."""
    if not corr_length > 0:
        raise ValueError("correlation length must be positive")
    r = np.abs(np.asarray(x, dtype=np.float64)) / corr_length
    if abs(smoothness - 0.5) < 1e-12:
        out = np.exp(-r)
    elif abs(smoothness - 1.5) < 1e-12:
        s = np.sqrt(3.0) * r
        out = (1.0 + s) * np.exp(-s)
    elif abs(smoothness - 2.5) < 1e-12:
        s = np.sqrt(5.0) * r
        out = (1.0 + s + s ** 2 / 3.0) * np.exp(-s)
    else:
        raise UnsupportedSmoothness(
            f"no closed form for smoothness {smoothness}; use 1/2, 3/2 or 5/2"
        )
    return float(out) if np.ndim(x) == 0 else out


class CovarianceSpec(NamedTuple):
    """Stationary Matern correlation with unit value at the origin; ``kind``
    is a label (the exponential kernel is smoothness 1/2)."""

    kind: str
    corr_length: float = 1.0
    smoothness: float = 0.5

    @classmethod
    def exponential(cls, corr_length: float) -> "CovarianceSpec":
        return cls("exponential", corr_length)

    @classmethod
    def matern(cls, corr_length: float, smoothness: float) -> "CovarianceSpec":
        matern_cov(0.0, corr_length, smoothness)  # reject unsupported values now
        return cls("matern", corr_length, smoothness)

    def rho(self, x):
        return matern_cov(x, self.corr_length, self.smoothness)


def bspline_cutoff(t, kappa: float, order: int):
    """Even cutoff: 1 inside ``[-kappa/2, kappa/2]``, 0 outside ``[-kappa, kappa]``.

    The blend is the integrated cardinal B-spline of the given order, so
    the function has ``order - 1`` continuous derivatives.  Orders above 10
    are rejected: there the alternating sum below cancels past 1e-11.
    """
    if not kappa > 1.0:
        raise ValueError("kappa must exceed 1")
    if not 1 <= order <= 10:
        raise ValueError(f"spline order must lie in 1..10, got {order}")
    t_arr = np.abs(np.atleast_1d(np.asarray(t, dtype=np.float64)))
    out = np.zeros_like(t_arr)
    out[t_arr <= kappa / 2.0] = 1.0
    blend = (t_arr > kappa / 2.0) & (t_arr < kappa)
    if np.any(blend):
        a = 2.0 * order * (1.0 - t_arr[blend] / kappa)
        acc = np.zeros_like(a)
        for i in range(order + 1):
            acc += (-1) ** i * comb(order, i) * np.maximum(a - i, 0.0) ** order
        out[blend] = acc / factorial(order)
    return float(out[0]) if np.ndim(t) == 0 else out


class EmbeddingPlan(NamedTuple):
    """Circulant extension of a stationary kernel on a uniform grid.

    The original grid has ``m + 1`` points on [-1/2, 1/2]; the extension
    lives on ``2 * ell * m`` points covering a period of length
    ``2 * ell``.  Eigenvalues come from one FFT of the (even) first row;
    ``amplitudes`` scales the normals of frequencies 0..s/2 in every draw.
    """

    spec: CovarianceSpec
    m: int
    ell: float
    grid: np.ndarray
    first_row: np.ndarray
    eigenvalues: np.ndarray
    amplitudes: np.ndarray
    positive: bool
    cutoff: tuple = None

    @property
    def n_points(self) -> int:
        return self.m + 1

    @property
    def extended_size(self) -> int:
        return self.first_row.size


def circulant_embed_1d(spec: CovarianceSpec, m: int, ell: float,
                       cutoff: tuple = None) -> EmbeddingPlan:
    """Periodize a kernel onto a circulant row and diagonalize it by FFT.

    Without a cutoff the kernel is wrapped by the minimum-image rule, which
    reproduces it exactly for lags up to the half-period.  With
    ``cutoff=(kappa, order)`` the kernel is first multiplied by the smooth
    compactly supported `bspline_cutoff`; the original correlations on
    [-1, 1] survive whenever ``2 ell - kappa >= 1``.

    A failed eigenvalue positivity check (the half-period is too small) is
    recorded in ``positive``; sampling from such a plan raises
    `NotPositiveDefinite`.
    """
    if m < 1:
        raise ValueError("grid size m must be positive")
    h = 1.0 / m
    s_float = 2.0 * ell * m
    s = int(round(s_float)) if np.isfinite(s_float) else 0
    if abs(s_float - s) > 1e-9 or s % 2 != 0 or s < 2:
        raise ValueError("2 * ell * m must be a positive even integer")

    lags = np.minimum(np.arange(s), s - np.arange(s)) * h  # even by construction
    if cutoff is None:
        row = spec.rho(lags)
    else:
        kappa, order = cutoff
        shifts = 2.0 * ell * np.arange(-2, 3)
        row = np.zeros(s)
        for shift in shifts:
            x = lags + shift
            row += spec.rho(x) * bspline_cutoff(x, kappa, order)
    eigenvalues = np.fft.fft(row)
    spread = np.max(np.abs(eigenvalues.real)) or 1.0
    if np.max(np.abs(eigenvalues.imag)) > 1e-12 * spread:
        raise AssertionError("even row must have a real spectrum")
    eigenvalues = eigenvalues.real
    positive = bool(eigenvalues.min() >= -_EIG_TOL * max(eigenvalues.max(), 0.0))
    grid = -0.5 + h * np.arange(m + 1)
    lam = np.clip(eigenvalues[: s // 2 + 1], 0.0, None)
    amplitudes = np.sqrt(lam / 2.0)  # paired frequencies 1..s/2-1 split the variance
    amplitudes[[0, -1]] = np.sqrt(lam[[0, -1]])
    plan = EmbeddingPlan(spec, m, float(ell), grid, row, eigenvalues, amplitudes,
                         positive, cutoff)
    for array in (grid, row, eigenvalues, amplitudes):
        array.setflags(write=False)
    return plan


def _normals(seed: int, size: int, n_rows: int = 1) -> np.ndarray:
    """Counter-based standard normals, one stream per seed: an (n_rows, size)
    stack whose row i is the first ``size`` draws of
    ``Generator(Philox(key=seed + i))``.

    One generator serves every row: resetting its key and counter is
    cheaper than building a new one, and leaves it in the same state."""
    bits = np.random.Philox(key=np.uint64(seed))
    gen, state = np.random.Generator(bits), bits.state
    out = np.empty((n_rows, size))
    for i, row in enumerate(out):
        state["state"]["key"][0] = seed + i
        bits.state = state
        gen.standard_normal(out=row)
    return out


def _synthesize(plan: EmbeddingPlan, draws: np.ndarray) -> np.ndarray:
    """Colour i.i.d. normals by the circulant square root via one inverse FFT."""
    if not plan.positive:
        raise NotPositiveDefinite(
            "embedding is not positive semidefinite; increase the half-period"
        )
    s = plan.extended_size
    half = s // 2
    amp = plan.amplitudes
    spectrum = np.empty(draws.shape[:-1] + (s,), dtype=np.complex128)
    spectrum[..., 0] = amp[0] * draws[..., 0]
    spectrum[..., half] = amp[half] * draws[..., half]
    spectrum[..., 1:half] = amp[1:half] * (draws[..., 1:half] + 1j * draws[..., :half:-1])
    spectrum[..., :half:-1] = np.conj(spectrum[..., 1:half])
    field = np.fft.ifft(spectrum, axis=-1).real * np.sqrt(s)
    return field[..., : plan.n_points]


def sample_grf(plan: EmbeddingPlan, seed: int, n_samples: int = None) -> np.ndarray:
    """Exact draw of the field on the original grid, deterministic in seed.

    With ``n_samples``, a stack shaped (n_samples, m + 1) whose row i is
    bitwise ``sample_grf(plan, seed + i)``, coloured by one inverse FFT.
    """
    rows = 1 if n_samples is None else n_samples
    if rows < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    if not 0 <= seed <= 2 ** 64 - rows:
        raise ValueError(f"seeds {seed}..{seed + rows - 1} must lie in [0, 2**64 - 1]")
    field = _synthesize(plan, _normals(seed, plan.extended_size, rows))
    return field[0] if n_samples is None else field
