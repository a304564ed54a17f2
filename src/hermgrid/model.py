"""Parametric 1-d log-Gaussian diffusion problems and Bayesian integrands.

The boundary value problem on (0, 1) fixes the solution at the left end
and prescribes the diffusive flux at the right end; its solution has the
closed form ``u(x) = -int_0^x exp(-b(y, s)) F(s) ds`` with ``b`` the
affine-parametric log-coefficient and ``F`` the antiderivative of the
right-hand side.  Quantities of interest are exposed as parametric maps
(exact closed form, or P1 finite elements on a uniform mesh) feeding the
sparse-grid operators, and by their Wiener-Hermite coefficients.
"""

import math
from typing import NamedTuple

import numpy as np

from . import _accel
from .errors import (
    DegenerateNormalization,
    Frozen,
    QuadratureNonconvergence,
    SingularSystem,
)
from .indexset import IndexSet, MultiIndex
from .multilevel import LevelAllocation, ml_quadrature
from .smolyak import quadrature

# The 12-point Gauss-Legendre rule on (-1, 1), bit for bit numpy's leggauss(12),
# mirrored from its six positive nodes (row 0) and their weights (row 1)
_GL_HALF = np.array([
    [0.1252334085114689, 0.3678314989981802, 0.5873179542866175, 0.7699026741943047,
     0.9041172563704748, 0.9815606342467192],
    [0.2491470458134027, 0.2334925365383546, 0.20316742672306573, 0.16007832854334642,
     0.10693932599531907, 0.04717533638651141]])
_GL_NODES, _GL_WEIGHTS = np.hstack((_GL_HALF[:, ::-1] * [[-1.0], [1.0]], _GL_HALF))
_GL_NODES.setflags(write=False)
_GL_WEIGHTS.setflags(write=False)
_MAX_DOUBLINGS = 12
CLOSED_FORM_TOL = 1e-13  # where `_doubled` stops the closed-form Gaussian sums
_BLOCK = 1 << 16  # values in one kernel temporary; rows go through in blocks


class RepresentationSystem(Frozen):
    """Basis ``psi_j`` of the affine-parametric log-coefficient: ``basis`` maps
    a float array x and a count k to the (len(x), k) values ``psi_j(x_i)`` of
    the first k modes, ``sup_norms`` holds the per-mode uniform norms (the decay
    vector of the weight families) and ``edges`` the increasing points of (0, 1)
    where a mode jumps.  Systems compare by identity."""

    __slots__ = ("basis", "sup_norms", "edges", "d_max")

    def __init__(self, basis, sup_norms, edges: tuple = ()):
        norms = np.array(sup_norms, dtype=np.float64)
        norms.setflags(write=False)
        self._fields(basis, norms, tuple(edges), norms.size)

    @classmethod
    def sin_decay(cls, decay: float, d_max: int) -> "RepresentationSystem":
        """Modes ``sin((j+1) pi x) (j+1)**(-decay)`` on the unit interval."""
        j = np.arange(1, d_max + 1)
        norms = j ** (-decay)
        if not (decay > 1.0 and np.all(norms > 0)):
            raise ValueError(f"decay {decay}: must exceed 1 for a summable system, with no "
                             "norm (j+1)**(-decay) underflowing to 0")
        return cls(lambda x, k: np.sin(np.multiply.outer(x, j[:k]) * np.pi) * norms[:k], norms)

    @classmethod
    def constant_mode(cls, amplitude: float) -> "RepresentationSystem":
        """Single constant mode; the workhorse analytic test problem."""
        if not 0 < amplitude < np.inf:
            raise ValueError("amplitude must be positive and finite")
        return cls(lambda x, k: np.full((x.size, min(k, 1)), amplitude), [amplitude])

    @classmethod
    def blocks(cls, d_max: int, amplitude: float = 1.0) -> "RepresentationSystem":
        """Indicator blocks of an equispaced partition of (0, 1)."""
        if not 0 < amplitude < np.inf:
            raise ValueError("amplitude must be positive and finite")
        block = lambda x: np.clip((x * d_max).astype(int), 0, d_max - 1)[:, None]  # of each x
        return cls(lambda x, k: amplitude * (block(x) == np.arange(k)),
                   np.full(d_max, amplitude), [k / d_max for k in range(1, d_max)])

    def basis_matrix(self, x, k=None) -> np.ndarray:
        """Values ``psi_j(x_i)`` of the first k modes (default d_max), shape (len(x), k)."""
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        return self.basis(x, self.d_max if k is None else k)


def _f_one(x):
    return np.ones_like(np.asarray(x, dtype=np.float64))


def _antiderivative_identity(x):
    return np.asarray(x, dtype=np.float64)


class ModelProblem1D:
    """Diffusion problem data: representation system, load, and QoI, with a
    cache of the panel rules built for it."""

    def __init__(self, system: RepresentationSystem, f=_f_one, F=_antiderivative_identity,
                 qoi: tuple = ("point", 1.0)):
        if qoi[0] not in ("point", "mean"):
            raise ValueError(f"unknown QoI kind {qoi[0]!r}")
        self.system, self.f, self.F, self.qoi = system, f, F, qoi
        # upper limit of the QoI's integral over s, and whether it is the mean
        self.span = (1.0, True) if qoi[0] == "mean" else (float(qoi[1]), False)
        self._quad_cache = {}

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
    on each piece between the system's edges inside it, with the nodes,
    weights, basis values and ``F`` at the nodes."""
    key = (float(x_upper), level)
    hit = problem._quad_cache.get(key)
    if hit is None:
        edges = [0.0, *(e for e in problem.system.edges if e < x_upper), x_upper]
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


def _lognormal_mean(problem: ModelProblem1D, level: int) -> tuple:
    """The QoI's panel weights and basis on 2**level panels, ``exp(g - max g) F``
    (times ``1 - s`` for the mean QoI; ``g = |psi|**2 / 2``) and ``exp(max g)``."""
    x_upper, mean = problem.span
    nodes, weights, basis, f_anti = _panel_rule(problem, x_upper, level)
    g = 0.5 * np.sum(basis ** 2, axis=1)
    top = float(g.max())
    integrand = np.exp(g - top) * f_anti * (1.0 - nodes) if mean else np.exp(g - top) * f_anti
    return weights, basis, integrand, float(np.exp(top))


def hermite_coefficients(problem: ModelProblem1D, indices) -> np.ndarray:
    """Wiener-Hermite coefficients ``E[u H_nu]`` of the problem QoI, one per
    multi-index of ``indices`` (dimensions below d_max).  With normalized H_n,
    ``E[exp(-y psi) H_n(y)] = exp(psi**2 / 2) (-psi)**n / sqrt(n!)``, so ``u_nu
    = -int_0^x0 exp(g) prod_j (-psi_j)**nu_j / sqrt(nu_j!) F ds``, each one
    panel sum (`_lognormal_mean`), doubled to `CLOSED_FORM_TOL` (`_doubled`)."""
    entries = [nu.entries for nu in indices]

    def values_at(level, active):
        weights, basis, integrand, scale = _lognormal_mean(problem, level)
        terms = (math.prod(((-basis[:, j]) ** e / math.sqrt(math.factorial(e))
                            for j, e in entries[k]), start=integrand) for k in active)
        return np.array([-float(weights @ term) * scale for term in terms])

    return _doubled(values_at, len(entries), CLOSED_FORM_TOL,
                    f"Wiener-Hermite coefficients of the {problem.qoi[0]} QoI")


def expected_qoi_oracle(problem: ModelProblem1D) -> float:
    """Gaussian average ``u_0`` of the problem QoI (`hermite_coefficients`); for the
    constant mode it is ``-exp(c**2 / 2) * int_0^x0 F`` to the last bit."""
    return float(hermite_coefficients(problem, [MultiIndex()])[0])


def second_moment(problem: ModelProblem1D) -> float:
    """``E[u**2]`` of the problem QoI: the tensor panel sum of ``E[exp(-b(y, s)
    - b(y, t))] = exp(g(s) + g(t) + psi(s) . psi(t))`` times ``F(s) F(t)`` (see
    `_lognormal_mean`), doubled to `CLOSED_FORM_TOL`, with psi(s) . psi(t)
    summed mode by mode (`_log_coeff`) in blocks of s."""
    def values_at(level, _):
        weights, basis, integrand, scale = _lognormal_mean(problem, level)
        half = weights * integrand
        step, inner = max(1, _BLOCK // half.size), np.empty(half.size)
        for i in range(0, half.size, step):
            inner[i:i + step] = (np.exp(_log_coeff(basis[i:i + step], basis)) * half).sum(axis=1)
        return np.array([float(half @ inner) * scale * scale])

    return float(_doubled(values_at, 1, CLOSED_FORM_TOL, "second moment of the QoI")[0])


def l2_errors(problem: ModelProblem1D, polys) -> tuple:
    """Gaussian L2 distances from the problem QoI to each scalar
    `HermitePolynomial` of ``polys``, and the floor below which none reads.
    By Parseval ``||u - p||**2 = sum_nu (u_nu - c_nu)**2 + E[u**2] - sum_nu
    u_nu**2`` over p's coefficients c_nu.  Each closed-form sum is known to
    `CLOSED_FORM_TOL` times (1 + its size), so the square is known to that
    times ``1 + E[u**2] + 2 sum_nu |u_nu| (1 + |u_nu|)`` (every nu of
    ``polys``): the floor is its root."""
    indices = list(dict.fromkeys(nu for poly in polys for nu in poly.coefficients))
    exact = dict(zip(indices, hermite_coefficients(problem, indices)))
    moment, size = second_moment(problem), np.abs(list(exact.values()))
    floor = math.sqrt(CLOSED_FORM_TOL * (1.0 + moment + 2.0 * float(size @ (1.0 + size))))
    errors = []
    for poly in polys:
        u, c = np.array([(exact[nu], value[0]) for nu, value in poly.coefficients.items()]).T
        square = float(np.sum((u - c) ** 2)) + moment - float(np.sum(u * u))
        errors.append(math.sqrt(max(square, floor * floor)))
    return errors, floor


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
        hit = problem._quad_cache[n_cells] = [
            flat, f_vals, -float(problem.F(1.0)), np.empty((flat.size, 0))]
    flat, f_vals, flux, basis = hit
    rows = problem.truncated(np.atleast_2d(y))
    if basis.shape[1] < rows.shape[1]:  # as wide as the widest stack the mesh served
        basis = hit[3] = problem.system.basis_matrix(flat, rows.shape[1])
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
    x0, mean = problem.span
    n = nodal.shape[-1] - 1
    if mean:
        return (0.5 * nodal[..., 0] + nodal[..., 1:-1].sum(axis=-1) + 0.5 * nodal[..., -1]) / n
    pos = x0 * n
    i = min(int(pos), n - 1)
    frac = pos - i
    return (1.0 - frac) * nodal[..., i] + frac * nodal[..., i + 1]


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
        """Values at each row of ``stack``, shape (len(stack), output_dim), in C order."""
        out = np.ascontiguousarray(self.fn(stack), dtype=np.float64)
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
        x_upper, mean = problem.span
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

class BayesSetup(Frozen):
    """Forward observations, data, and Gaussian noise for the inverse problem."""

    # forward is a ParametricMapFn, evaluated on stacks; noise_cov_inv_sqrt is derived
    __slots__ = ("forward", "data", "noise_cov", "noise_cov_inv_sqrt")

    def __init__(self, forward, data: np.ndarray, noise_cov: np.ndarray):
        data = np.atleast_1d(np.asarray(data, dtype=np.float64))
        cov = np.atleast_2d(np.asarray(noise_cov, dtype=np.float64))
        if cov.shape != (data.size, data.size):
            raise ValueError("noise covariance shape must match the data length")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ValueError("noise covariance must be symmetric")
        eigvals, eigvecs = np.linalg.eigh(cov)
        if np.any(eigvals <= 0):
            raise ValueError("noise covariance must be positive definite")
        self._fields(forward, data, cov, eigvecs @ np.diag(eigvals ** -0.5) @ eigvecs.T)


def posterior_density(setup: BayesSetup, y):
    """Unnormalized posterior ``exp(-misfit/2)`` in (0, 1] at one parameter
    vector (a float), or at each row of an (n, d) stack; the whitening and
    the misfit are sums over a row's own last axis."""
    residual = setup.data - setup.forward.batch(np.atleast_2d(np.asarray(y, dtype=np.float64)))
    shifted = (residual[:, None, :] * setup.noise_cov_inv_sqrt).sum(axis=-1)
    density = np.exp(-0.5 * (shifted * shifted).sum(axis=-1))
    return float(density[0]) if np.ndim(y) < 2 else density


class PosteriorEstimate(NamedTuple):
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
