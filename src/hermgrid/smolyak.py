"""Single-level Smolyak operators on downward closed index sets.

The interpolation operator is assembled as a signed combination of tensor
Gauss-Hermite interpolants and stored in the tensor Hermite basis, so the
Gaussian-weighted L2 norm of any interpolant is the Euclidean norm of its
coefficients.  Quadrature is the weighted node sum with the same signed
combination (equivalently the constant coefficient of the interpolant).

A nonzero Gauss-Hermite node is fixed by (dim, level, index), and the
level-l rule holds 0 exactly when l is even.  So grid nu holds the node
patterns (S, nu|_S), S every odd-exponent dimension of supp nu plus any
subset of the even ones; the distinct-node count sums, over the distinct
patterns of the grids with nonzero coefficient, prod_{j in S} (nu_j + 1 -
[nu_j even]).  A study plans the terms of every row first, then calls each
map once per fidelity, on the union of the rows' node patterns, and sums
every row from the shared values.

The operators take a `ParametricMapFn` (or a `_Shared` one); they and the
studies call every map through `_evaluate`, once per distinct map on the
patterns of all the terms it serves.  Only these caches share work across
calls: `_terms` and `_set_patterns` per recent set content, `_term_layout`,
`_term_weights` and `_pattern_nodes` per term or pattern (the arrays
read-only), `_projection_matrix` per level, and a `_Shared` map's read-only
values by pattern and weighted sums by term.  A grid whose exponents are
all odd is one pattern, so its values are that pattern's, in C order
already.  A threshold walk's grid patterns last one walk.
"""

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import EmptyIndexSet, NotDownwardClosed, ThresholdTooSmall
from .hermite import MAX_LEVEL, gauss_hermite_rule, hermite_eval_all
from .indexset import TIE, IndexSet, MultiIndex, ThresholdWalk


def combination_coeffs(index_set: IndexSet) -> dict:
    """Signed counts ``sum_{e in {0,1}^inf, nu+e in set} (-1)**|e|`` per member.

    Terms with coefficient 0 are omitted; the rest come in
    `MultiIndex.sort_key` order.  Requires a nonempty downward closed set
    (coefficients vanish automatically outside it).
    """
    _require_admissible(index_set)
    return _signed_terms(index_set)


def _signed_terms(members) -> dict:
    """The nonzero sums of the members' signed down-neighbours (`_downs`), in
    `MultiIndex.sort_key` order: `combination_coeffs`, linear in the members."""
    acc = {}
    for mu in members:
        for nu, sign in _downs(mu.entries):
            acc[nu] = acc.get(nu, 0) + sign
    terms = sorted((nu for nu, c in acc.items() if c),
                   key=lambda nu: (sum(e for _, e in nu), nu))
    return {MultiIndex(nu): acc[nu] for nu in terms}


def _downs(entries) -> list:
    """``(nu - e, (-1)**|e|)`` as entry tuples, for every e in {0,1}^supp(nu)."""
    downs = [((), 1)]
    for d, e in entries:
        low = ((d, e - 1),) if e > 1 else ()
        downs = [q for mu, s in downs for q in ((mu + ((d, e),), s), (mu + low, -s))]
    return downs


@lru_cache(maxsize=256)
def _terms(index_set: IndexSet) -> dict:
    """`combination_coeffs` of the set, computed once per set content (sets
    hash and compare by members) while it stays among the 256 most recently
    used; equal sets from other rows or walks share the one dict."""
    return combination_coeffs(index_set)


def _require_admissible(index_set: IndexSet):
    if len(index_set) == 0:
        raise EmptyIndexSet("operator requires a nonempty index set")
    if not index_set.downward_closed:
        raise NotDownwardClosed("operator requires a downward closed index set")


def _patterns(entries):
    """Node patterns of the tensor grid with these (dim, exp) entries: the
    (dim, level) pairs of a node's nonzero coordinates, that is every odd
    entry plus any subset of the even ones, the last entry's choice varying fastest."""
    out = [()]
    for d, e in entries:
        out = [q for p in out for q in ((p + ((d, e),),) if e % 2 else (p + ((d, e),), p))]
    return out


def _pattern_size(pattern) -> int:
    """Number of nodes with this pattern: the nonzero nodes of each level."""
    return math.prod(e + e % 2 for _, e in pattern)


def evaluation_point_count(index_set: IndexSet) -> int:
    """Number of distinct nodes the operators evaluate on, counted by pattern
    (an exponent above MAX_LEVEL raises `LevelTooLarge` from its rule)."""
    return sum(map(_pattern_size, _set_patterns(index_set)))


def largest_threshold_set(surrogate, budgets, d_max: int, cap: int = 10_000_000) -> list:
    """Largest threshold set ``{nu : 1/surrogate(nu) >= eps}`` on at most ``b``
    nodes, for each budget ``b`` in the sequence ``budgets``, in its order.

    Walks the nested threshold family once (`ThresholdWalk`: the surrogate
    must be monotone with anisotropy ordering, which the walk checks only
    from each pusher), and keeps the combination coefficients and a
    reference count of the grids' node patterns up to date, so the node
    count of every prefix equals `evaluation_point_count`.  Values within a
    relative `TIE` of a group's first value, and tied children pushed
    meanwhile, join that group; only group boundaries are candidate sets,
    and each budget keeps the longest whose node count fits it.
    A group is popped first; the walk stops once more members than the
    largest budget are popped, inside a group too (the operators reproduce
    P_Lambda, so they need at least |Lambda| nodes), or at a group with an
    exponent above MAX_LEVEL, whose rule does not exist; a walk that would
    pop past ``cap`` members first raises `ThresholdTooSmall`.  Equal prefixes
    come back as one `IndexSet` object.
    """
    walk = ThresholdWalk(surrogate, d_max)
    coeffs, patterns, grids = {}, {}, {}  # grids: each grid's patterns and their sizes
    nodes, best, limit = 0, [0] * len(budgets), max(budgets, default=-1)

    while True:
        boundary = len(walk.members)
        bound = walk.head * (1.0 + TIE)
        while walk.head <= bound and len(walk.members) <= limit:
            if len(walk.members) >= cap:
                raise ThresholdTooSmall(f"budget {limit}: the threshold walk reached the cap "
                                        f"of {cap} members")
            walk.pop()
        group = walk.members[boundary:]
        # a group past the largest budget, or with an exponent without a rule, joins no set
        if len(walk.members) > limit or max((e for nu in group for _, e in nu.entries),
                                            default=0) > MAX_LEVEL:
            sets = {k: IndexSet(walk.members[:k]) for k in best}
            return [sets[k] for k in best]
        for nu in group:
            for mu, sign in _downs(nu.entries):
                old = coeffs.get(mu, 0)
                coeffs[mu] = new = old + sign
                if not old or not new:
                    step = 1 if new else -1
                    if mu not in grids:
                        grids[mu] = [(p, _pattern_size(p)) for p in _patterns(mu)]
                    for p, size in grids[mu]:
                        refs = patterns.get(p, 0)
                        patterns[p] = refs + step
                        if not refs or not refs + step:  # the pattern came or went
                            nodes += step * size
        best = [len(walk.members) if nodes <= b else k for b, k in zip(budgets, best)]


def sparse_grid_points(index_set: IndexSet) -> np.ndarray:
    """Evaluation points of the operators, one row per distinct node.

    These are the nodes of the tensor grids with nonzero combination
    coefficient, pattern by pattern in the order the operators evaluate
    them; `evaluation_point_count` is their number.
    """
    width = max(index_set.dimension(), 1)
    return np.vstack([_pattern_nodes(p, width) for p in _set_patterns(index_set)])


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
        for nu, coeff in sorted(self.coefficients.items(), key=lambda kv: kv[0].sort_key()):
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

    def __add__(self, other: "HermitePolynomial") -> "HermitePolynomial":
        """Coefficientwise sum; `ValueError` when the output dimensions differ."""
        if other.output_dim != self.output_dim:
            raise ValueError("output dimensions differ")
        acc = dict(self.coefficients)
        for nu, c in other.coefficients.items():
            acc[nu] = acc[nu] + c if nu in acc else c
        return HermitePolynomial(acc, self.output_dim)

    def __sub__(self, other: "HermitePolynomial") -> "HermitePolynomial":
        return self + HermitePolynomial({nu: -c for nu, c in other.coefficients.items()},
                                        other.output_dim)


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


@lru_cache(maxsize=1 << 14)
def _pattern_nodes(pattern, width: int) -> np.ndarray:
    """The pattern's nodes in C order over its (dim, level) pairs, ``width``
    coordinates a row (0 off the pattern); read-only."""
    nodes = np.zeros((_pattern_size(pattern), width))
    nodes[:, [d for d, _ in pattern]] = list(itertools.product(
        *([x for x in gauss_hermite_rule(e).nodes.tolist() if x] for _, e in pattern)))
    nodes.setflags(write=False)
    return nodes


@lru_cache(maxsize=1 << 14)
def _term_weights(entries) -> np.ndarray:
    """The C-order quadrature weights of the tensor grid with these entries."""
    w = np.ones(1)
    for _, exp in entries:
        w = np.multiply.outer(w, gauss_hermite_rule(exp).weights).ravel()
    w.setflags(write=False)
    return w


@lru_cache(maxsize=1 << 14)
def _term_layout(entries) -> tuple:
    """The patterns of the tensor grid with these entries, and the order that
    takes their nodes, pattern after pattern, to the grid's C order: the
    inverse of a stable sort of the grid by pattern number (which even
    entries sit at their zero node, numbered in `_patterns` order)."""
    shape = [gauss_hermite_rule(e).nodes.size for _, e in entries]  # LevelTooLarge past MAX_LEVEL
    if all(e % 2 for _, e in entries):  # one pattern, in C order already
        return _patterns(entries), np.arange(math.prod(shape))
    rank, bit = np.zeros(shape, np.intp), 1
    for axis, (_, e) in reversed(list(enumerate(entries))):
        if e % 2 == 0:
            rank[(slice(None),) * axis + (e // 2,)] += bit
            bit *= 2
    grouped, order = np.argsort(rank.ravel(), kind="stable"), np.empty(rank.size, np.intp)
    order[grouped] = np.arange(rank.size)
    return _patterns(entries), order


def _term_patterns(terms) -> tuple:
    """The node patterns of the terms' grids, in first-occurrence order."""
    return tuple(dict.fromkeys(p for nu in terms for p in _term_layout(nu.entries)[0]))


@lru_cache(maxsize=256)
def _set_patterns(index_set: IndexSet) -> tuple:
    """The node patterns of the `_terms` grids."""
    return _term_patterns(_terms(index_set))


class _Shared:
    """A map's values at every node it was evaluated on, by node pattern (a
    nonzero node is fixed by its (dim, level, index) triples, whatever the
    padding): ``values[pattern]`` holds them in `_pattern_nodes` order, and
    ``sums[entries]`` the weighted sum over a term's grid once `weighted_sum`
    formed it.  The map's ``batch`` method is called on stacks."""

    def __init__(self, u):
        self.rows, self.values, self.sums = u.batch, {}, {}

    def evaluate(self, patterns):
        """One map call on the nodes of the patterns not evaluated yet, if any,
        in first-occurrence order and padded to the widest pattern given."""
        patterns = dict.fromkeys(patterns)
        if new := [p for p in patterns if p not in self.values]:
            width = max(p[-1][0] + 1 if p else 1 for p in patterns)
            fresh = self.rows(np.vstack([_pattern_nodes(p, width) for p in new]))
            fresh.setflags(write=False)  # `grid` hands out one pattern's values as they are
            ends = list(itertools.accumulate(map(_pattern_size, new), initial=0))
            self.values.update((p, fresh[a:b]) for p, a, b in zip(new, ends, ends[1:]))

    def grid(self, entries) -> np.ndarray:
        """Values on the tensor grid with these entries, in C order; not to be written."""
        patterns, order = _term_layout(entries)
        if len(patterns) == 1:
            return self.values[patterns[0]]
        return np.concatenate([self.values[p] for p in patterns])[order]

    def weighted_sum(self, entries) -> np.ndarray:
        """``w @ grid(entries)`` with the grid's quadrature weights w."""
        if entries not in self.sums:
            self.sums[entries] = _term_weights(entries) @ self.grid(entries)
        return self.sums[entries]


def _shared(u):
    """``u`` as a `_Shared` map (a shared one as it is); `TypeError` without ``batch``."""
    if not isinstance(u, _Shared) and not hasattr(u, "batch"):
        raise TypeError(f"expected a ParametricMapFn, got {type(u).__name__}")
    return u if isinstance(u, _Shared) else _Shared(u)


def _evaluate(levels) -> list:
    """The ``(terms, u)`` pairs as a list, each `_Shared` ``u`` called once
    on the node patterns of all its pairs' terms that it was not evaluated
    on: in pair order, each terms' in `sparse_grid_points` order."""
    levels, patterns = list(levels), {}
    for terms, u in levels:
        patterns.setdefault(u, []).extend(_term_patterns(terms))
    for u, group in patterns.items():
        u.evaluate(group)
    return levels


def _projection_sum(levels) -> HermitePolynomial:
    """``sum sigma * I_nu(u)`` over the ``(terms, u)`` pairs in order, each
    ``u`` a `_Shared` map evaluated on its terms' grids."""
    acc = {}
    for terms, u in levels:
        for nu, sigma in terms.items():
            term_values = u.grid(nu.entries)
            shape = tuple(exp + 1 for _, exp in nu.entries)
            tensor = term_values.reshape(shape + term_values.shape[1:])
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
    return HermitePolynomial(acc, term_values.shape[1])


def _weighted_sum(levels) -> np.ndarray:
    """``sum sigma * S_nu(u)`` over the ``(terms, u)`` pairs in order, from 0."""
    return sum((sigma * u.weighted_sum(nu.entries) for terms, u in levels
                for nu, sigma in terms.items()), np.zeros(1))


def interpolate(index_set: IndexSet, u) -> HermitePolynomial:
    """Smolyak interpolant of ``u``, exact on the span of monomials in the set.

    ``u`` is a `ParametricMapFn` (or a `_Shared` one), called on an (n, d)
    stack of nodes; d is the set's dimension (nodes are padded with zeros).
    """
    return _projection_sum(_evaluate([(_terms(index_set), _shared(u))]))


def quadrature(index_set: IndexSet, u) -> np.ndarray:
    """Smolyak quadrature of ``u`` against the Gaussian product measure.

    Equals the constant coefficient of `interpolate` on the same inputs;
    exact for monomials whose index lies in the set or carries no exponent
    equal to 1.
    """
    return _weighted_sum(_evaluate([(_terms(index_set), _shared(u))]))
