"""Parametric 1-d log-Gaussian diffusion problems and Bayesian integrands.

The boundary value problem on (0, 1) fixes the solution at the left end
and prescribes the diffusive flux at the right end; its solution has the
closed form ``u(x) = -int_0^x exp(-b(y, s)) F(s) ds`` with ``b`` the
affine-parametric log-coefficient and ``F`` the antiderivative of the
right-hand side.  Quantities of interest are exposed as parametric maps
(exact closed form, or P1 finite elements on a uniform mesh) feeding the
sparse-grid operators.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _accel
from .errors import (
    DegenerateNormalization,
    QuadratureNonconvergence,
    SingularSystem,
)
from .indexset import IndexSet
from .multilevel import LevelAllocation, ml_quadrature
from .smolyak import quadrature

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_MAX_DOUBLINGS = 12


@dataclass(frozen=True)
class RepresentationSystem:
    """Basis ``psi_j`` of the affine-parametric log-coefficient."""

    kind: str
    d_max: int
    decay: float = 0.0
    amplitude: float = 1.0

    @classmethod
    def sin_decay(cls, decay: float, d_max: int) -> "RepresentationSystem":
        """Modes ``sin((j+1) pi x) (j+1)**(-decay)`` on the unit interval."""
        if not decay > 1.0:
            raise ValueError("decay must exceed 1 for a summable system")
        return cls("sin", d_max, decay=decay)

    @classmethod
    def constant_mode(cls, amplitude: float) -> "RepresentationSystem":
        """Single constant mode; the workhorse analytic test problem."""
        if not 0 < amplitude < np.inf:
            raise ValueError("amplitude must be positive and finite")
        return cls("constant", 1, amplitude=amplitude)

    @classmethod
    def blocks(cls, d_max: int, amplitude: float = 1.0) -> "RepresentationSystem":
        """Indicator blocks of an equispaced partition of (0, 1)."""
        if not 0 < amplitude < np.inf:
            raise ValueError("amplitude must be positive and finite")
        return cls("blocks", d_max, amplitude=amplitude)

    def basis_matrix(self, x) -> np.ndarray:
        """Values ``psi_j(x_i)`` with shape (len(x), d_max)."""
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if self.kind == "sin":
            j = np.arange(1, self.d_max + 1)
            return np.sin(np.multiply.outer(x, j) * np.pi) * j ** (-self.decay)
        if self.kind == "constant":
            return np.full((x.size, 1), self.amplitude)
        out = np.zeros((x.size, self.d_max))
        idx = np.clip((x * self.d_max).astype(int), 0, self.d_max - 1)
        out[np.arange(x.size), idx] = self.amplitude
        return out

    @property
    def sup_norms(self) -> np.ndarray:
        """Per-mode uniform norms; the decay vector of the weight families."""
        if self.kind == "sin":
            return np.arange(1, self.d_max + 1, dtype=np.float64) ** (-self.decay)
        return np.full(self.d_max, self.amplitude)


def _f_one(x):
    return np.ones_like(np.asarray(x, dtype=np.float64))


def _antiderivative_identity(x):
    return np.asarray(x, dtype=np.float64)


@dataclass
class ModelProblem1D:
    """Diffusion problem data: representation system, load, and QoI."""

    system: RepresentationSystem
    f: object = _f_one
    F: object = _antiderivative_identity
    qoi: tuple = ("point", 1.0)
    _quad_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def truncated(self, y) -> np.ndarray:
        y = np.atleast_1d(np.asarray(y, dtype=np.float64))
        out = np.zeros(self.system.d_max)
        take = min(y.size, self.system.d_max)
        out[:take] = y[:take]
        return out


def log_coeff_eval(problem: ModelProblem1D, y, x):
    """Affine-parametric log-coefficient ``b(y, x) = sum_j y_j psi_j(x)``."""
    yt = problem.truncated(y)
    vals = problem.system.basis_matrix(x) @ yt
    return float(vals[0]) if np.ndim(x) == 0 else vals


def coeff_eval(problem: ModelProblem1D, y, x):
    """Diffusion coefficient ``exp(b(y, x))``; positive for every parameter."""
    out = np.exp(log_coeff_eval(problem, y, x))
    return float(out) if np.ndim(x) == 0 else out


def _panel_rule(problem: ModelProblem1D, x_upper: float, level: int):
    """Cached composite Gauss-Legendre data on (0, x_upper) with 2**level
    panels: nodes, weights, basis values and ``F`` at the nodes."""
    key = (float(x_upper), level)
    hit = problem._quad_cache.get(key)
    if hit is None:
        panels = 2 ** level
        width = x_upper / panels
        starts = width * np.arange(panels)
        nodes = (starts[:, None] + width * 0.5 * (_GL_NODES[None, :] + 1.0)).ravel()
        weights = np.tile(width * 0.5 * _GL_WEIGHTS, panels)
        basis = problem.system.basis_matrix(nodes)
        f_anti = np.asarray(problem.F(nodes), dtype=np.float64)
        hit = (nodes, weights, basis, f_anti)
        problem._quad_cache[key] = hit
    return hit


def exact_solution_1d(problem: ModelProblem1D, y, x: float,
                      tol: float = 1e-12) -> float:
    """Closed-form solution ``-int_0^x exp(-b(y, s)) F(s) ds``.

    The integral is evaluated by panel-doubling composite Gauss-Legendre
    until two consecutive refinements agree to ``tol`` (relative to size).
    """
    if x == 0.0:
        return 0.0
    yt = problem.truncated(y)
    previous = None
    for level in range(_MAX_DOUBLINGS + 1):
        _, weights, basis, f_anti = _panel_rule(problem, x, level)
        value = -float(weights @ (np.exp(-(basis @ yt)) * f_anti))
        if previous is not None and abs(value - previous) <= tol * (1.0 + abs(value)):
            return value
        previous = value
    raise QuadratureNonconvergence(
        f"integral for x={x} did not stabilize within {_MAX_DOUBLINGS} doublings"
    )


def expected_qoi_oracle(problem: ModelProblem1D) -> float:
    """Gaussian average of the problem QoI, in closed form for every system.

    ``b(y, s)`` is linear in the standard Gaussian ``y``, so the lognormal
    moment identity gives ``E[exp(-b(y, s))] = exp(g(s))`` with
    ``g = sum_j psi_j**2 / 2``.  Hence ``E[u(x0, .)] = -int_0^x0 exp(g) F``
    and, for the mean QoI, ``-int_0^1 (1 - s) exp(g) F ds``; the integral
    is panel-doubled until two refinements agree to 1e-13 (relative to
    size).  ``exp(max g)`` is factored out of the sum, so for the constant
    mode the sum is ``int F`` itself and the value is the separable
    ``-exp(c**2 / 2) * int_0^x0 F`` to the last bit.
    """
    kind = problem.qoi[0]
    if kind not in ("point", "mean"):
        raise ValueError(f"unknown QoI kind {kind!r}")
    x_upper = float(problem.qoi[1]) if kind == "point" else 1.0
    previous = None
    for level in range(_MAX_DOUBLINGS + 1):
        nodes, weights, basis, f_anti = _panel_rule(problem, x_upper, level)
        g = 0.5 * np.sum(basis ** 2, axis=1)
        top = float(g.max())
        integrand = np.exp(g - top) * f_anti
        if kind == "mean":
            integrand = integrand * (1.0 - nodes)
        value = -float(weights @ integrand) * float(np.exp(top))
        if previous is not None and abs(value - previous) <= 1e-13 * (1.0 + abs(value)):
            return value
        previous = value
    raise QuadratureNonconvergence(
        f"Gaussian average of the {kind} QoI did not stabilize within "
        f"{_MAX_DOUBLINGS} doublings"
    )


def fem_solve_1d(problem: ModelProblem1D, y, n_cells: int) -> np.ndarray:
    """Nodal values of the P1 Galerkin solution on a uniform mesh.

    Essential condition ``u(0) = 0``; the right-end natural condition
    carries the flux ``-F(1)`` so the discrete and closed-form solutions
    agree in the mesh limit.  Cell integrals use 3-point Gauss, exact for
    the polynomial orders tested.
    """
    if n_cells < 1:
        raise ValueError("need at least one cell")
    yt = problem.truncated(y)
    h = 1.0 / n_cells
    ref = _accel._REF_POINTS
    points = (np.arange(n_cells)[:, None] + ref[None, :]) * h
    flat = points.ravel()
    a_vals = np.exp(problem.system.basis_matrix(flat) @ yt).reshape(n_cells, 3)
    f_vals = np.asarray(problem.f(flat), dtype=np.float64).reshape(n_cells, 3)
    flux = -float(problem.F(1.0))
    try:
        return _accel.fem_system(a_vals, f_vals, h, flux)
    except ZeroDivisionError as exc:  # a coefficient that underflows to 0 or is nan
        raise SingularSystem("FEM system is singular") from exc


def _qoi_from_nodal(problem: ModelProblem1D, nodal: np.ndarray) -> float:
    kind = problem.qoi[0]
    n = nodal.size - 1
    if kind == "point":
        x0 = float(problem.qoi[1])
        pos = x0 * n
        i = min(int(pos), n - 1)
        frac = pos - i
        return float((1.0 - frac) * nodal[i] + frac * nodal[i + 1])
    if kind == "mean":
        return float((0.5 * nodal[0] + nodal[1:-1].sum() + 0.5 * nodal[-1]) / n)
    raise ValueError(f"unknown QoI kind {kind!r}")


def _qoi_exact(problem: ModelProblem1D, y) -> float:
    kind = problem.qoi[0]
    if kind == "point":
        return exact_solution_1d(problem, y, float(problem.qoi[1]))
    if kind == "mean":
        previous = None
        for level in range(3, _MAX_DOUBLINGS + 1):
            nodes, weights, _, _ = _panel_rule(problem, 1.0, level)
            vals = [exact_solution_1d(problem, y, float(xn)) for xn in nodes]
            value = float(weights @ np.asarray(vals))
            if previous is not None and abs(value - previous) <= 1e-10 * (1.0 + abs(value)):
                return value
            previous = value
        raise QuadratureNonconvergence("mean QoI integral did not stabilize")
    raise ValueError(f"unknown QoI kind {kind!r}")


class ParametricMapFn:
    """Thread-safe evaluable map from a parameter vector to an output vector."""

    def __init__(self, fn, output_dim: int, cost: int = 1, label: str = ""):
        self._fn = fn
        self.output_dim = int(output_dim)
        self.cost = int(cost)
        self.label = label

    def __call__(self, y) -> np.ndarray:
        out = np.atleast_1d(np.asarray(self._fn(y), dtype=np.float64))
        if out.size != self.output_dim:
            raise ValueError(
                f"map {self.label or '<anonymous>'} returned {out.size} values, "
                f"expected {self.output_dim}"
            )
        return out


def as_parametric_map(problem: ModelProblem1D, fidelity) -> ParametricMapFn:
    """Wrap the problem QoI as a parametric map.

    ``fidelity`` is ``("exact",)`` for the closed form or ``("fem", n)``
    for the P1 solution on ``n`` cells (its per-evaluation cost equals the
    cell count, connecting to the multilevel work sequence).
    """
    if fidelity[0] == "exact":
        return ParametricMapFn(
            lambda y: _qoi_exact(problem, y), 1, cost=1, label="exact-qoi"
        )
    if fidelity[0] == "fem":
        n_cells = int(fidelity[1])
        return ParametricMapFn(
            lambda y: _qoi_from_nodal(problem, fem_solve_1d(problem, y, n_cells)),
            1,
            cost=n_cells,
            label=f"fem-{n_cells}-qoi",
        )
    raise ValueError(f"unknown fidelity {fidelity!r}")


# -- Bayesian inversion -----------------------------------------------------

@dataclass(frozen=True)
class BayesSetup:
    """Forward observations, data, and Gaussian noise for the inverse problem."""

    forward: object
    data: np.ndarray
    noise_cov: np.ndarray
    noise_cov_inv_sqrt: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        data = np.atleast_1d(np.asarray(self.data, dtype=np.float64))
        cov = np.atleast_2d(np.asarray(self.noise_cov, dtype=np.float64))
        if cov.shape != (data.size, data.size):
            raise ValueError("noise covariance shape must match the data length")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ValueError("noise covariance must be symmetric")
        eigvals, eigvecs = np.linalg.eigh(cov)
        if np.any(eigvals <= 0):
            raise ValueError("noise covariance must be positive definite")
        inv_sqrt = eigvecs @ np.diag(eigvals ** -0.5) @ eigvecs.T
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "noise_cov", cov)
        object.__setattr__(self, "noise_cov_inv_sqrt", inv_sqrt)


def posterior_density(setup: BayesSetup, y) -> float:
    """Unnormalized posterior ``exp(-misfit/2)`` in (0, 1]."""
    observed = np.atleast_1d(np.asarray(setup.forward(y), dtype=np.float64))
    shifted = setup.noise_cov_inv_sqrt @ (setup.data - observed)
    return float(np.exp(-0.5 * float(shifted @ shifted)))


@dataclass(frozen=True)
class PosteriorEstimate:
    numerator: np.ndarray
    normalization: float
    mean: np.ndarray


def posterior_expectation(setup: BayesSetup, phi, selector,
                          forward_levels=None) -> PosteriorEstimate:
    """Sparse-grid ratio estimator of the posterior expectation of ``phi``.

    ``selector`` is an IndexSet (single-level quadrature) or a
    LevelAllocation (multilevel; supply ``forward_levels`` with one forward
    map per discretization level).  Returns the weighted numerator, the
    normalization constant, and their ratio; a non-positive normalization
    raises `DegenerateNormalization` since coarse signed rules can produce
    one.
    """
    def joint_with(forward_map):
        inner_setup = BayesSetup(forward_map, setup.data, setup.noise_cov)

        def joint(y):
            density = posterior_density(inner_setup, y)
            phi_val = np.atleast_1d(np.asarray(phi(y), dtype=np.float64))
            return np.concatenate([phi_val * density, [density]])

        return joint

    if isinstance(selector, IndexSet):
        vec = quadrature(selector, joint_with(setup.forward))
    elif isinstance(selector, LevelAllocation):
        if forward_levels is None:
            raise ValueError("multilevel selector needs forward_levels")
        vec = ml_quadrature(selector, [joint_with(fm) for fm in forward_levels])
    else:
        raise TypeError("selector must be an IndexSet or LevelAllocation")

    normalization = float(vec[-1])
    numerator = vec[:-1]
    if normalization <= 0:
        raise DegenerateNormalization(
            f"quadrature of the posterior density returned {normalization}"
        )
    return PosteriorEstimate(numerator, normalization, numerator / normalization)
