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


def combination_coeffs(index_set: IndexSet) -> dict:
    """Signed counts ``sum_{e in {0,1}^inf, nu+e in set} (-1)**|e|`` per member.

    Terms with coefficient 0 are omitted; the rest come in
    `MultiIndex.sort_key` order.  Requires a nonempty downward closed set
    (coefficients vanish automatically outside it).
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
    return {nu: acc[nu] for nu in sorted((nu for nu, c in acc.items() if c),
                                         key=MultiIndex.sort_key)}


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


def _grid(index_set: IndexSet):
    """The signed terms of the Smolyak operators on the set and their nodes.

    Returns `combination_coeffs`, each term's rows among the sorted
    distinct nodes of the grids with nonzero coefficient (in the C order
    of the term's tensor grid), and those nodes as an
    ``(n, max(dimension, 1))`` array with inactive coordinates 0.
    """
    terms = combination_coeffs(index_set)
    term_keys = [_tensor_point_keys(nu.entries) for nu in terms]
    keys = sorted(set().union(*term_keys))
    row = {key: i for i, key in enumerate(keys)}
    nodes = np.zeros((len(keys), max(index_set.dimension(), 1)))
    for i, key in enumerate(keys):
        for d, v in key:
            nodes[i, d] = v
    return terms, [[row[key] for key in ks] for ks in term_keys], nodes


def evaluation_point_count(index_set: IndexSet) -> int:
    """Number of distinct nodes the operators evaluate on."""
    return len(_grid(index_set)[2])


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


def sparse_grid_points(index_set: IndexSet) -> np.ndarray:
    """Evaluation points of the operators, one row per distinct node.

    These are the nodes of the tensor grids with nonzero combination
    coefficient, in the order `quadrature` and `interpolate` evaluate
    them; `evaluation_point_count` is their number.
    """
    return _grid(index_set)[2]


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


def _evaluate(index_set: IndexSet, u):
    """`_grid` with the nodes replaced by the values of ``u`` on them, one
    call of ``u`` per node, as an (n, outputs) array."""
    terms, rows, nodes = _grid(index_set)
    values = np.vstack([np.atleast_1d(np.asarray(u(y), dtype=np.float64)) for y in nodes])
    return terms, rows, values


def interpolate(index_set: IndexSet, u) -> HermitePolynomial:
    """Smolyak interpolant of ``u``, exact on the span of monomials in the set.

    ``u`` maps a real parameter vector (length = active dimension count of
    the set, padded with zeros) to an output-space vector or scalar.
    """
    terms, rows, values = _evaluate(index_set, u)
    acc = {}
    for (nu, sigma), term_rows in zip(terms.items(), rows):
        shape = tuple(exp + 1 for _, exp in nu.entries)
        tensor = values[term_rows].reshape(shape + values.shape[1:])
        for axis, (_, exp) in enumerate(nu.entries):
            proj = _projection_matrix(exp)
            tensor = np.moveaxis(np.tensordot(proj, tensor, axes=(1, axis)), 0, axis)
        dims = nu.support
        for local in np.ndindex(*shape):
            mu = MultiIndex(
                tuple((d, int(e)) for d, e in zip(dims, local) if e != 0)
            )
            contrib = sigma * tensor[local]
            if mu in acc:
                acc[mu] = acc[mu] + contrib
            else:
                acc[mu] = contrib.copy()
    return HermitePolynomial(acc, values.shape[1])


def quadrature(index_set: IndexSet, u) -> np.ndarray:
    """Smolyak quadrature of ``u`` against the Gaussian product measure.

    Equals the constant coefficient of `interpolate` on the same inputs;
    exact for monomials whose index lies in the set or carries no exponent
    equal to 1.
    """
    terms, rows, values = _evaluate(index_set, u)
    out = np.zeros(values.shape[1])
    for (nu, sigma), term_rows in zip(terms.items(), rows):
        w = np.ones(1)
        for _, exp in nu.entries:
            w = np.multiply.outer(w, gauss_hermite_rule(exp).weights).ravel()
        out += sigma * (w @ values[term_rows])
    return out
