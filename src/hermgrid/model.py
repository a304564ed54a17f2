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
_BLOCK = 1 << 16  # values in one kernel temporary; rows go through in blocks


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
        """``y`` cut to at most d_max coordinates, row by row for a stack; the
        coordinates past its width are 0 and left out."""
        y = np.atleast_1d(np.asarray(y, dtype=np.float64))
        return y[..., :self.system.d_max]


def _log_coeff(rows, basis) -> np.ndarray:
    """``b(y, s)`` for each row of ``rows`` at the points of ``basis``, summed
    mode by mode over the modes the rows hold (the rest have coordinate 0),
    so a row's values do not depend on the others (a matrix product's would)."""
    if rows.shape[1] == 0:
        return np.zeros((len(rows), len(basis)))
    out = rows[:, :1] * basis[:, 0]
    for j in range(1, min(rows.shape[1], basis.shape[1])):
        out += rows[:, j:j + 1] * basis[:, j]
    return out


def _panel_rule(problem: ModelProblem1D, x_upper: float, level: int):
    """Cached composite Gauss-Legendre data on (0, x_upper): 2**level panels
    on each piece between the block edges inside it (one piece for the other
    systems), with the nodes, weights, basis values and ``F`` at the nodes."""
    key = (float(x_upper), level)
    hit = problem._quad_cache.get(key)
    if hit is None:
        edges = [0.0, x_upper]
        if problem.system.kind == "blocks":  # exp(-b) jumps at k / d_max
            d = problem.system.d_max
            edges[1:1] = [k / d for k in range(1, d) if k / d < x_upper]
        width = np.diff(edges)[:, None] / 2 ** level  # one row a piece
        starts = (np.array(edges[:-1])[:, None] + width * np.arange(2 ** level)).ravel()
        half = np.repeat(width.ravel() * 0.5, 2 ** level)[:, None]
        nodes = (starts[:, None] + half * (_GL_NODES[None, :] + 1.0)).ravel()
        weights = (half * _GL_WEIGHTS).ravel()
        basis = problem.system.basis_matrix(nodes)
        f_anti = np.asarray(problem.F(nodes), dtype=np.float64)
        hit = (nodes, weights, basis, f_anti)
        problem._quad_cache[key] = hit
    return hit


def _doubled(values_at, n: int, tol: float, what: str) -> np.ndarray:
    """n integrals, ``values_at(level, rows)`` those of ``rows`` on 2**level
    panels: each stops at the first level that agrees with the one before
    it to ``tol`` (relative to size)."""
    out, active, previous = np.zeros(n), np.arange(n), None
    for level in range(_MAX_DOUBLINGS + 1):
        value = values_at(level, active)
        if previous is not None:
            done = np.abs(value - previous) <= tol * (1.0 + np.abs(value))
            out[active[done]] = value[done]
            active, value = active[~done], value[~done]
        if not active.size:
            return out
        previous = value
    raise QuadratureNonconvergence(f"{what} did not stabilize within {_MAX_DOUBLINGS} doublings")


def _qoi_span(problem: ModelProblem1D) -> tuple:
    """Upper limit of the QoI's integral over s, and whether it is the mean."""
    kind = problem.qoi[0]
    if kind not in ("point", "mean"):
        raise ValueError(f"unknown QoI kind {kind!r}")
    return (float(problem.qoi[1]), False) if kind == "point" else (1.0, True)


def exact_solution_1d(problem: ModelProblem1D, y, x: float, tol: float = 1e-12,
                      mean: bool = False):
    """Closed-form solution ``-int_0^x exp(-b(y, s)) F(s) ds`` at one
    parameter vector (a float), or at each row of an (n, d) stack.

    With ``mean`` the weight ``1 - s`` goes under the integral, which for
    ``x = 1`` is the mean of u over (0, 1).  Composite Gauss-Legendre
    panels are doubled row by row (`_doubled`) until two consecutive
    refinements agree to ``tol`` (relative to size).
    """
    rows = problem.truncated(np.atleast_2d(y))

    def values_at(level, active):
        nodes, weights, basis, f_anti = _panel_rule(problem, x, level)
        wf = weights * f_anti * (1.0 - nodes) if mean else weights * f_anti
        step, value = max(1, _BLOCK // nodes.size), np.empty(active.size)
        for i in range(0, active.size, step):
            b = _log_coeff(rows[active[i:i + step]], basis)
            value[i:i + step] = -(np.exp(-b) * wf).sum(axis=1)
        return value

    values = (_doubled(values_at, len(rows), tol, f"integral for x={x}") if x
              else np.zeros(len(rows)))
    return float(values[0]) if np.ndim(y) < 2 else values


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
    x_upper, mean = _qoi_span(problem)

    def values_at(level, _):
        nodes, weights, basis, f_anti = _panel_rule(problem, x_upper, level)
        g = 0.5 * np.sum(basis ** 2, axis=1)
        top = float(g.max())
        integrand = np.exp(g - top) * f_anti
        if mean:
            integrand = integrand * (1.0 - nodes)
        return np.array([-float(weights @ integrand) * float(np.exp(top))])

    return float(_doubled(values_at, 1, 1e-13, f"Gaussian average of the {problem.qoi[0]} QoI")[0])


def fem_solve_1d(problem: ModelProblem1D, y, n_cells: int) -> np.ndarray:
    """Nodal values of the P1 Galerkin solution on a uniform mesh, at one
    parameter vector (n_cells + 1 values) or at each row of an (n, d) stack.

    Essential condition ``u(0) = 0``; the right-end natural condition
    carries the flux ``-F(1)`` so the discrete and closed-form solutions
    agree in the mesh limit.  Cell integrals use 3-point Gauss, exact for
    the polynomial orders tested; the mesh data are cached on the problem.
    """
    if n_cells < 1:
        raise ValueError("need at least one cell")
    hit = problem._quad_cache.get(n_cells)
    if hit is None:
        flat = ((np.arange(n_cells)[:, None] + _accel._REF_POINTS) * (1.0 / n_cells)).ravel()
        f_vals = np.asarray(problem.f(flat), dtype=np.float64).reshape(n_cells, 3)
        hit = problem._quad_cache[n_cells] = (
            problem.system.basis_matrix(flat), f_vals, -float(problem.F(1.0)))
    basis, f_vals, flux = hit
    rows = problem.truncated(np.atleast_2d(y))
    out = np.empty((len(rows), n_cells + 1))
    step = max(1, _BLOCK // basis.shape[0])
    for i in range(0, len(rows), step):
        a_vals = np.exp(_log_coeff(rows[i:i + step], basis)).reshape(-1, n_cells, 3)
        try:
            out[i:i + step] = _accel.fem_system(a_vals, f_vals, 1.0 / n_cells, flux)
        except ZeroDivisionError as exc:  # a coefficient that underflows to 0 or is nan
            raise SingularSystem("FEM system is singular") from exc
    return out if np.ndim(y) > 1 else out[0]


def _qoi_from_nodal(problem: ModelProblem1D, nodal: np.ndarray) -> np.ndarray:
    kind = problem.qoi[0]
    n = nodal.shape[-1] - 1
    if kind == "point":
        x0 = float(problem.qoi[1])
        pos = x0 * n
        i = min(int(pos), n - 1)
        frac = pos - i
        return (1.0 - frac) * nodal[..., i] + frac * nodal[..., i + 1]
    if kind == "mean":
        return (0.5 * nodal[..., 0] + nodal[..., 1:-1].sum(axis=-1) + 0.5 * nodal[..., -1]) / n
    raise ValueError(f"unknown QoI kind {kind!r}")


class ParametricMapFn:
    """Parametric map: ``fn`` maps an (n, d) stack of parameter vectors to
    (n, output_dim) values, row i from row i alone, so a node's value does
    not depend on the nodes that share its batch."""

    def __init__(self, fn, output_dim: int, cost: int = 1, label: str = ""):
        self.fn = fn
        self.output_dim = int(output_dim)
        self.cost = int(cost)
        self.label = label

    def batch(self, stack) -> np.ndarray:
        """Values at each row of ``stack``, shape (len(stack), output_dim)."""
        out = np.asarray(self.fn(stack), dtype=np.float64)
        if out.shape != (len(stack), self.output_dim):
            raise ValueError(f"map {self.label or '<anonymous>'} returned shape "
                             f"{out.shape}, expected {(len(stack), self.output_dim)}")
        return out

    def __call__(self, y) -> np.ndarray:
        return self.batch(np.atleast_1d(np.asarray(y, dtype=np.float64))[None])[0]


def as_parametric_map(problem: ModelProblem1D, fidelity) -> ParametricMapFn:
    """Wrap the problem QoI as a parametric map.

    ``fidelity`` is ``("exact",)`` for the closed form or ``("fem", n)``
    for the P1 solution on ``n`` cells (its per-evaluation cost equals the
    cell count, connecting to the multilevel work sequence).
    """
    if fidelity[0] == "exact":
        x_upper, mean = _qoi_span(problem)
        return ParametricMapFn(
            lambda rows: exact_solution_1d(problem, rows, x_upper, mean=mean)[:, None],
            1, cost=1, label="exact-qoi",
        )
    if fidelity[0] == "fem":
        n_cells = int(fidelity[1])
        return ParametricMapFn(
            lambda rows: _qoi_from_nodal(problem, fem_solve_1d(problem, rows, n_cells))[:, None],
            1,
            cost=n_cells,
            label=f"fem-{n_cells}-qoi",
        )
    raise ValueError(f"unknown fidelity {fidelity!r}")


# -- Bayesian inversion -----------------------------------------------------

@dataclass(frozen=True)
class BayesSetup:
    """Forward observations, data, and Gaussian noise for the inverse problem."""

    forward: object  # a ParametricMapFn, evaluated on stacks
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


def posterior_density(setup: BayesSetup, y):
    """Unnormalized posterior ``exp(-misfit/2)`` in (0, 1] at one parameter
    vector (a float), or at each row of an (n, d) stack; the whitening and
    the misfit are sums over a row's own last axis."""
    residual = setup.data - setup.forward.batch(np.atleast_2d(np.asarray(y, dtype=np.float64)))
    shifted = (residual[:, None, :] * setup.noise_cov_inv_sqrt).sum(axis=-1)
    density = np.exp(-0.5 * (shifted * shifted).sum(axis=-1))
    return float(density[0]) if np.ndim(y) < 2 else density


@dataclass(frozen=True)
class PosteriorEstimate:
    numerator: np.ndarray
    normalization: float
    mean: np.ndarray


def posterior_expectation(setup: BayesSetup, phi, selector,
                          forward_levels=None) -> PosteriorEstimate:
    """Sparse-grid ratio estimator of the posterior expectation of ``phi``
    (a `ParametricMapFn`, like the forward maps).

    ``selector`` is an IndexSet (single-level quadrature) or a
    LevelAllocation (multilevel; supply ``forward_levels`` with one forward
    map per discretization level).  Returns the weighted numerator, the
    normalization constant, and their ratio; a non-positive normalization
    raises `DegenerateNormalization` since coarse signed rules can produce
    one.
    """
    def joint_with(forward_map):
        inner_setup = BayesSetup(forward_map, setup.data, setup.noise_cov)

        def joint(rows):
            density = posterior_density(inner_setup, rows)
            return np.column_stack([phi.batch(rows) * density[:, None], density])

        return ParametricMapFn(joint, phi.output_dim + 1, label="posterior-joint")

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
