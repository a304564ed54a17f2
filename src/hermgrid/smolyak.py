"""Single-level Smolyak operators on downward closed index sets.

The interpolation operator is assembled as a signed combination of tensor
Gauss-Hermite interpolants and stored in the tensor Hermite basis, so the
Gaussian-weighted L2 norm of any interpolant is the Euclidean norm of its
coefficients.  Quadrature is the weighted node sum with the same signed
combination (equivalently the constant coefficient of the interpolant).
"""

import heapq
import itertools
from functools import lru_cache

import numpy as np

from .errors import EmptyIndexSet, NotDownwardClosed
from .hermite import MAX_LEVEL, gauss_hermite_rule, hermite_eval_all
from .indexset import IndexSet, MultiIndex


class CombinationExpansion:
    """Nonzero signed coefficients of the telescoped tensor-operator sum."""

    def __init__(self, terms: dict, source: IndexSet):
        self.terms = dict(terms)
        self.source = source

    def __len__(self):
        return len(self.terms)

    def items_sorted(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())


def combination_coeffs(index_set: IndexSet) -> CombinationExpansion:
    """Signed counts ``sum_{e in {0,1}^inf, nu+e in set} (-1)**|e|`` per member.

    Terms with coefficient 0 are omitted.  Requires a nonempty downward
    closed set (coefficients vanish automatically outside it).
    """
    _require_admissible(index_set)
    acc = {}
    for mu in index_set:
        support = mu.support
        for picks in itertools.product((0, 1), repeat=len(support)):
            nu = mu
            for dim, used in zip(support, picks):
                if used:
                    nu = nu.decremented(dim)
            sign = -1 if sum(picks) % 2 else 1
            acc[nu] = acc.get(nu, 0) + sign
    return CombinationExpansion(
        {nu: c for nu, c in acc.items() if c != 0}, index_set
    )


class SparseGrid:
    """Interpolation points of a Smolyak operator.

    ``points`` is the union of all tensor grids of the generating set;
    ``evaluation_points`` restricts the union to tensor grids with nonzero
    combination coefficient, which is exactly where the operators evaluate
    the target function (and what the point-count bound refers to).
    """

    def __init__(self, points, evaluation_points, provenance: IndexSet):
        self.points = points
        self.evaluation_points = evaluation_points
        self.provenance = provenance

    def __len__(self):
        return len(self.points)


def _require_admissible(index_set: IndexSet):
    if len(index_set) == 0:
        raise EmptyIndexSet("operator requires a nonempty index set")
    if not index_set.downward_closed:
        raise NotDownwardClosed("operator requires a downward closed index set")


def _tensor_point_keys(entries):
    """Keys of a tensor grid: sorted (dim, node) pairs, zeros dropped.

    ``entries`` are the (dim, exp) pairs of the multi-index.  Nodes come
    from the shared per-level rule cache, so equal nodes across
    multi-indices are bitwise identical and deduplicate exactly.
    """
    axes = []
    for dim, exp in entries:
        nodes = gauss_hermite_rule(exp).nodes
        axes.append([(dim, float(v)) for v in nodes])
    keys = []
    for combo in itertools.product(*axes):
        keys.append(tuple((d, v) for d, v in combo if v != 0.0))
    return keys


def _key_to_vector(key, dim_count) -> np.ndarray:
    y = np.zeros(max(dim_count, 1))
    for d, v in key:
        y[d] = v
    return y


def evaluation_point_count(index_set: IndexSet) -> int:
    """Number of distinct nodes the operators evaluate on (cheap count)."""
    expansion = combination_coeffs(index_set)
    keys = set()
    for nu in expansion.terms:
        keys.update(_tensor_point_keys(nu.entries))
    return len(keys)


def largest_threshold_set(surrogate, budget: int, d_max: int) -> IndexSet:
    """Largest threshold set ``{nu : 1/surrogate(nu) >= eps}`` on at most ``budget`` nodes.

    Walks the nested threshold family once, best-first in increasing
    surrogate value (a child enters the heap once all its backward
    neighbours are in), and keeps the combination coefficients and a
    reference count of the evaluation-node keys up to date, so the node
    count of every prefix equals `evaluation_point_count`.  Values within a
    relative 1e-12 of a group's first value, and tied children pushed
    meanwhile, join that group; only group boundaries are candidate sets.
    The walk stops once a prefix has more members than the budget (the
    operators reproduce P_Lambda, so they need at least |Lambda| nodes) or
    meets an exponent above MAX_LEVEL, whose rule does not exist.
    """
    origin = (0,) * d_max
    heap = [(surrogate(MultiIndex()), origin)]
    members, coeffs, nodes = [], {}, {}
    best = 0

    def count_nodes(mu, step):
        for key in _tensor_point_keys([(j, e) for j, e in enumerate(mu) if e]):
            total = nodes.get(key, 0) + step
            if total:
                nodes[key] = total
            else:
                del nodes[key]

    while heap and len(members) <= budget:
        bound = heap[0][0] * (1.0 + 1e-12)
        while heap and heap[0][0] <= bound:
            _, nu = heapq.heappop(heap)
            if max(nu) > MAX_LEVEL:
                return IndexSet(MultiIndex.from_exponents(m) for m in members[:best])
            members.append(nu)
            support = [j for j in range(d_max) if nu[j]]
            for picks in itertools.product((0, 1), repeat=len(support)):
                mu = list(nu)
                for j, used in zip(support, picks):
                    mu[j] -= used
                mu = tuple(mu)
                old = coeffs.get(mu, 0)
                coeffs[mu] = new = old + (-1) ** sum(picks)
                if not old or not new:
                    count_nodes(mu, 1 if new else -1)
            for j in range(d_max):
                child = nu[:j] + (nu[j] + 1,) + nu[j + 1:]
                if all(child[:i] + (child[i] - 1,) + child[i + 1:] in coeffs
                       for i in support if i != j):
                    heapq.heappush(
                        heap, (surrogate(MultiIndex.from_exponents(child)), child)
                    )
        if len(nodes) <= budget:
            best = len(members)
    return IndexSet(MultiIndex.from_exponents(m) for m in members[:best])


def sparse_grid_points(index_set: IndexSet) -> SparseGrid:
    """Distinct interpolation points generated by an index set."""
    if len(index_set) == 0:
        raise EmptyIndexSet("grid requires a nonempty index set")
    expansion = combination_coeffs(index_set) if index_set.downward_closed else None
    dim_count = index_set.dimension()
    all_keys = {}
    eval_keys = {}
    for nu in index_set:
        active = expansion is not None and nu in expansion.terms
        for key in _tensor_point_keys(nu.entries):
            all_keys.setdefault(key, None)
            if active or expansion is None:
                eval_keys.setdefault(key, None)
    points = tuple(_key_to_vector(k, dim_count) for k in sorted(all_keys))
    eval_points = tuple(_key_to_vector(k, dim_count) for k in sorted(eval_keys))
    return SparseGrid(points, eval_points, index_set)


class HermitePolynomial:
    """Polynomial stored by its coefficients in the tensor Hermite basis.

    Coefficients are vectors in the (abstract) output space, so scalar
    problems carry length-1 arrays.  The Gaussian-weighted L2 norm equals
    the Euclidean norm of the stacked coefficients.
    """

    def __init__(self, coefficients: dict, output_dim: int):
        self.coefficients = {
            nu: np.asarray(c, dtype=np.float64) for nu, c in coefficients.items()
        }
        self.output_dim = int(output_dim)

    def coefficient(self, nu: MultiIndex) -> np.ndarray:
        hit = self.coefficients.get(nu)
        if hit is None:
            return np.zeros(self.output_dim)
        return hit

    def support(self) -> IndexSet:
        return IndexSet(self.coefficients.keys())

    def items_sorted(self):
        return sorted(self.coefficients.items(), key=lambda kv: kv[0].sort_key())

    def eval(self, y) -> np.ndarray:
        """Value ``sum_nu c_nu H_nu(y)`` as an output-space vector."""
        y = np.atleast_1d(np.asarray(y, dtype=np.float64))
        max_exp = {}
        for nu in self.coefficients:
            for dim, exp in nu.entries:
                max_exp[dim] = max(max_exp.get(dim, 0), exp)
        tables = {
            dim: hermite_eval_all(kmax, y[dim] if dim < y.size else 0.0)
            for dim, kmax in max_exp.items()
        }
        out = np.zeros(self.output_dim)
        for nu, coeff in self.items_sorted():
            factor = 1.0
            for dim, exp in nu.entries:
                factor *= tables[dim][exp]
            out += factor * coeff
        return out

    def l2_norm(self) -> float:
        """Gaussian-weighted L2 norm via the coefficient Euclidean norm."""
        total = 0.0
        for coeff in self.coefficients.values():
            total += float(np.dot(coeff, coeff))
        return np.sqrt(total)

    def scaled(self, factor: float) -> "HermitePolynomial":
        return HermitePolynomial(
            {nu: factor * c for nu, c in self.coefficients.items()}, self.output_dim
        )

    def plus(self, other: "HermitePolynomial", sign: float = 1.0) -> "HermitePolynomial":
        if other.output_dim != self.output_dim:
            raise ValueError("output dimensions differ")
        acc = {nu: c.copy() for nu, c in self.coefficients.items()}
        for nu, c in other.coefficients.items():
            if nu in acc:
                acc[nu] = acc[nu] + sign * c
            else:
                acc[nu] = sign * c
        return HermitePolynomial(acc, self.output_dim)

    def minus(self, other: "HermitePolynomial") -> "HermitePolynomial":
        return self.plus(other, sign=-1.0)

    def to_csv(self) -> str:
        header = "nu," + ",".join(f"coeff_{i}" for i in range(self.output_dim))
        lines = [header]
        for nu, coeff in self.items_sorted():
            lines.append(str(nu) + "," + ",".join(repr(float(v)) for v in coeff))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "HermitePolynomial":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        header = lines[0].split(",")
        output_dim = len(header) - 1
        coeffs = {}
        for line in lines[1:]:
            parts = line.split(",")
            nu = MultiIndex.parse(parts[0])
            coeffs[nu] = np.array([float(v) for v in parts[1:]])
        return cls(coeffs, output_dim)


def zero_polynomial(output_dim: int = 1) -> HermitePolynomial:
    return HermitePolynomial({}, output_dim)


@lru_cache(maxsize=None)
def _projection_matrix(level: int) -> np.ndarray:
    """Exact change of basis from nodal values to Hermite coefficients.

    Row k holds ``w_i H_k(x_i)`` over the level's rule, which integrates
    ``p * H_k`` exactly for any polynomial p of degree <= level.
    """
    rule = gauss_hermite_rule(level)
    table = hermite_eval_all(level, rule.nodes)  # (n+1, n+1): node x degree
    return (table * rule.weights[:, None]).T


class _GridEvaluation:
    """Shared per-operator evaluation cache: one call of u per distinct point."""

    def __init__(self, index_set: IndexSet, u, dim_count=None):
        _require_admissible(index_set)
        self.expansion = combination_coeffs(index_set)
        self.dim_count = index_set.dimension() if dim_count is None else dim_count
        keys = {}
        per_term_keys = {}
        for nu, _ in self.expansion.items_sorted():
            term_keys = _tensor_point_keys(nu.entries)
            per_term_keys[nu] = term_keys
            for key in term_keys:
                keys.setdefault(key, None)
        self.key_rows = {key: i for i, key in enumerate(sorted(keys))}
        self.per_term_keys = per_term_keys
        values = []
        for key in sorted(keys):
            val = np.atleast_1d(
                np.asarray(u(_key_to_vector(key, self.dim_count)), dtype=np.float64)
            )
            values.append(val)
        self.values = np.vstack(values) if values else np.zeros((0, 1))
        self.output_dim = self.values.shape[1]

    def value_tensor(self, nu: MultiIndex) -> np.ndarray:
        """Values of u on the tensor grid of nu, shaped by local exponents."""
        rows = [self.key_rows[key] for key in self.per_term_keys[nu]]
        shape = tuple(exp + 1 for _, exp in nu.entries)
        return self.values[rows].reshape(shape + (self.output_dim,))


def interpolate(index_set: IndexSet, u) -> HermitePolynomial:
    """Smolyak interpolant of ``u``, exact on the span of monomials in the set.

    ``u`` maps a real parameter vector (length = active dimension count of
    the set, padded with zeros) to an output-space vector or scalar.
    """
    grid = _GridEvaluation(index_set, u)
    acc = {}
    for nu, sigma in grid.expansion.items_sorted():
        tensor = grid.value_tensor(nu)
        for axis, (_, exp) in enumerate(nu.entries):
            proj = _projection_matrix(exp)
            tensor = np.moveaxis(np.tensordot(proj, tensor, axes=(1, axis)), 0, axis)
        dims = nu.support
        shape = tensor.shape[:-1]
        for local in np.ndindex(*shape):
            mu = MultiIndex(
                tuple((d, int(e)) for d, e in zip(dims, local) if e != 0)
            )
            contrib = sigma * tensor[local]
            if mu in acc:
                acc[mu] = acc[mu] + contrib
            else:
                acc[mu] = contrib.copy()
    return HermitePolynomial(acc, grid.output_dim)


def interpolant_eval(poly: HermitePolynomial, y) -> np.ndarray:
    """Evaluate an interpolant at a parameter vector."""
    return poly.eval(y)


def quadrature(index_set: IndexSet, u) -> np.ndarray:
    """Smolyak quadrature of ``u`` against the Gaussian product measure.

    Equals the constant coefficient of `interpolate` on the same inputs;
    exact for monomials whose index lies in the set or carries no exponent
    equal to 1.
    """
    grid = _GridEvaluation(index_set, u)
    out = np.zeros(grid.output_dim)
    for nu, sigma in grid.expansion.items_sorted():
        tensor = grid.value_tensor(nu)
        flat = tensor.reshape(-1, grid.output_dim)
        w = np.ones(1)
        for _, exp in nu.entries:
            w = np.multiply.outer(w, gauss_hermite_rule(exp).weights).ravel()
        out += sigma * (w @ flat)
    return out


def l2_norm(poly: HermitePolynomial) -> float:
    return poly.l2_norm()
