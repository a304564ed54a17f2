"""Shared test helpers: oracles and randomized structures."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from hermgrid._accel import _REF_POINTS, _REF_WEIGHTS, fem_system
from hermgrid.cli import _format
from hermgrid.errors import (
    EmptyAllocation,
    LevelTooLarge,
    QuadratureNonconvergence,
    ThresholdTooSmall,
)
from hermgrid.hermite import MAX_LEVEL, gauss_hermite_rule
from hermgrid.indexset import IndexSet, MultiIndex
from hermgrid.model import (_BLOCK, _MAX_DOUBLINGS, ParametricMapFn, _log_coeff, _panel_rule,
                            as_parametric_map)
from hermgrid.multilevel import LevelAllocation, construct_levels, default_work_sequence, work
from hermgrid.smolyak import _shared, combination_coeffs, evaluation_point_count, interpolate


def gaussian_moment(degree: int) -> float:
    """Exact standard-normal moment: 0 for odd degree, (d-1)!! for even."""
    if degree % 2:
        return 0.0
    out = 1
    k = degree - 1
    while k > 1:
        out *= k
        k -= 2
    return float(out)


def golub_welsch_rule(n: int):
    """Level-n Gauss-Hermite nodes and weights from scipy's tridiagonal
    eigensolver, symmetrized and normalized like `gauss_hermite_rule`: the
    path the dense numpy solve replaced.  Skips the test without scipy."""
    eigh_tridiagonal = pytest.importorskip("scipy.linalg").eigh_tridiagonal
    if n == 0:
        return np.zeros(1), np.ones(1)
    off = np.sqrt(np.arange(1, n + 1, dtype=np.float64))
    vals, vecs = eigh_tridiagonal(np.zeros(n + 1), off)
    order = np.argsort(vals)
    nodes = vals[order]
    weights = vecs[0, order] ** 2
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    return nodes, weights / weights.sum()


def shifted(nu: MultiIndex, dim: int, step: int) -> MultiIndex:
    """``nu`` with the exponent in ``dim`` moved by ``step``, built from its
    entry tuples (an exponent that reaches 0 drops its pair)."""
    exponents = dict(nu.entries)
    exponents[dim] = exponents.get(dim, 0) + step
    return MultiIndex(tuple(sorted((d, e) for d, e in exponents.items() if e)))


def downward_closed_oracle(index_set) -> bool:
    """Slow oracle for `is_downward_closed`: every member's predecessor in
    each support dimension, built as a `MultiIndex`, is a member."""
    members = set(index_set)
    return all(shifted(nu, dim, -1) in members for nu in members for dim in nu.support)


def random_downward_closed(rng, dims: int, max_size: int) -> IndexSet:
    """Grow a random downward closed set by admissible completions."""
    members = {MultiIndex()}
    target = rng.integers(1, max_size + 1)
    while len(members) < target:
        nu = list(members)[rng.integers(0, len(members))]
        dim = int(rng.integers(0, dims))
        candidate = shifted(nu, dim, 1)
        admissible = all(
            shifted(candidate, d, -1) in members for d in candidate.support
        )
        if admissible:
            members.add(candidate)
    return IndexSet(members)


def random_monotone_allocation(rng, dims: int, max_size: int, top: int) -> LevelAllocation:
    """Random levels in 0..top on a `random_downward_closed` set, never rising
    along it (so every Gamma_j is downward closed): ``top`` at the origin, and
    each other member's level drawn up to the least level of its single-step
    predecessors."""
    levels = {}
    for nu in random_downward_closed(rng, dims, max_size):  # predecessors first
        cap = min((levels[shifted(nu, d, -1)] for d in nu.support), default=top)
        levels[nu] = int(rng.integers(0, cap + 1)) if nu.entries else top
    return LevelAllocation(levels, default_work_sequence(top))


def grid_node_keys(nu: MultiIndex) -> set:
    """`node_key` of every node of the tensor grid of ``nu``."""
    rules = [gauss_hermite_rule(e).nodes.tolist() for _, e in nu.entries]
    return {tuple((d, v) for d, v in zip(nu.support, point) if v)
            for point in itertools.product(*rules)}


def summation_bound(pairs) -> np.ndarray:
    """``n * eps * sum |c * s|`` over ``n`` (coefficient, value) pairs: to first
    order in eps, how far any order of summing the products ``c * s`` can
    land from their exact sum."""
    total = sum(abs(c) * np.abs(s) for c, s in pairs)
    return len(pairs) * np.finfo(np.float64).eps * total


def product_map(rows) -> np.ndarray:
    """(n, 2) values: the product over columns of 1 + sin((j + 1) y_j) / 3,
    and its cosine.  Each factor is elementwise and a zero column is a factor
    of exactly 1, so a row's values depend neither on its batch nor on its
    padding."""
    acc = np.ones(rows.shape[0])
    for j in range(rows.shape[1]):
        acc = acc * (1.0 + np.sin((j + 1) * rows[:, j]) / 3.0)
    return np.stack([acc, np.cos(acc)], axis=1)


def quadrature_oracle(index_set: IndexSet, fn, output_dim: int) -> np.ndarray:
    """Cold per-term Smolyak quadrature of the batched map ``fn``: each
    signed term's weights and its tensor grid's values built afresh, in C
    order, and summed in term order like `quadrature`."""
    width = max(index_set.dimension(), 1)
    out = np.zeros(output_dim)
    for nu, sigma in combination_coeffs(index_set).items():
        rules = [gauss_hermite_rule(e) for _, e in nu.entries]
        rows = np.zeros((math.prod(r.nodes.size for r in rules), width))
        for (dim, _), grid in zip(nu.entries,
                                  np.meshgrid(*(r.nodes for r in rules), indexing="ij")):
            rows[:, dim] = grid.ravel()
        w = np.ones(1)
        for rule in rules:
            w = np.multiply.outer(w, rule.weights).ravel()
        out += sigma * (w @ fn(rows))
    return out


def random_product_surrogate(rng, dims: int):
    """Monotone, anisotropy-ordered product weight with growth >= 1.5 per step.

    Returns (callable, activation, growth) where
    ``c(nu) = prod_j activation_j**(nu_j > 0) * growth_j**nu_j`` and both
    parameter vectors are nondecreasing in the dimension.
    """
    growth = np.sort(rng.uniform(1.5, 3.5, dims))
    activation = np.sort(rng.uniform(1.0, 4.0, dims))

    def surrogate(nu):
        out = 1.0
        for dim, exp in nu.entries:
            out *= activation[dim] * growth[dim] ** exp
        return out

    return surrogate, activation, growth


def tied_product_surrogate(rng, dims: int):
    """Monotone, anisotropy-ordered product weight with exact ties.

    ``c(nu) = prod_{j in supp nu} 2**k_j * nu_j**s`` with ``s`` 2 or 3 and
    ``k`` nondecreasing in runs of one to three equal values (equal weights
    across dimensions, as in `blocks`), starting at 0 or 1; at 0 the unit
    index e_0 ties the empty index, as sindecay's rho_0 = 1 does.
    Returns (callable, k, s).
    """
    k, level = [], int(rng.integers(0, 2))
    while len(k) < dims:
        k += [level] * int(rng.integers(1, 4))
        level += 1
    k, s = k[:dims], int(rng.integers(2, 4))

    def surrogate(nu):
        out = 1.0
        for dim, exp in nu.entries:
            out *= 2.0 ** k[dim] * float(exp) ** s
        return out

    return surrogate, k, s


def counting(surrogate):
    """``surrogate`` with a log: returns (callable, list of the indices it saw)."""
    calls = []

    def counted(nu):
        calls.append(nu)
        return surrogate(nu)

    return counted, calls


def brute_force_threshold(surrogate, eps: float, dims: int, box: int) -> set:
    """All indices in the box whose surrogate reciprocal clears the threshold."""
    out = set()
    for combo in itertools.product(range(box + 1), repeat=dims):
        nu = MultiIndex.from_exponents(combo)
        if 1.0 / surrogate(nu) >= eps:
            out.add(nu)
    return out


def pad(y, length: int) -> np.ndarray:
    """Zero-extend a parameter vector (inactive grid coordinates are 0)."""
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if y.size >= length:
        return y
    out = np.zeros(length)
    out[: y.size] = y
    return out


def node_key(y):
    """A node's nonzero (dim, coordinate) pairs: its identity at any padding."""
    return tuple((j, v) for j, v in enumerate(np.asarray(y, dtype=float).tolist()) if v)


def pointwise(fn, output_dim: int = 1) -> ParametricMapFn:
    """The per-point map ``fn`` (a 1-d node in, an output vector or scalar
    out) as a `ParametricMapFn` that calls it once per row of a stack."""
    return ParametricMapFn(lambda rows: np.array(
        [np.atleast_1d(np.asarray(fn(y), dtype=np.float64)) for y in rows]), output_dim)


def monomial_map(nu: MultiIndex) -> ParametricMapFn:
    """The monomial ``y**nu`` as a scalar parametric map, called per point."""
    needed = nu.max_dim()

    def fn(y):
        y = pad(y, needed)
        out = 1.0
        for dim, exp in nu.entries:
            out *= float(y[dim]) ** exp
        return [out]

    return pointwise(fn)


def merged_coefficients(a, b, sign: float) -> dict:
    """Dict-merge oracle for ``a + b`` (``sign`` 1) and ``a - b`` (``sign`` -1)
    on `HermitePolynomial`s: a's terms in order, each plus ``sign`` times b's
    term, then b's other terms times ``sign``."""
    out = {nu: c.copy() for nu, c in a.coefficients.items()}
    for nu, c in b.coefficients.items():
        out[nu] = out[nu] + sign * c if nu in out else sign * c
    return out


def tensor_moment(nu: MultiIndex) -> float:
    """Gaussian product moment of the monomial ``y**nu``."""
    out = 1.0
    for _, exp in nu.entries:
        out *= gaussian_moment(exp)
    return out


def gauss_hermite_ratio(n_points: int, phi, density):
    """Independent ratio oracle ``(Z'/Z, Z)`` from an n-point Gauss-Hermite rule.

    Nodes and weights come from numpy's probabilists' rule
    (``numpy.polynomial.hermite_e.hermegauss``), not from hermgrid, with the
    weights normalized to the standard normal measure.  ``density`` and
    ``phi`` are vectorized scalar functions of ``y``; the oracle returns
    ``sum(w * phi * density) / sum(w * density)`` and ``sum(w * density)``.
    """
    nodes, weights = hermegauss(n_points)
    weights = weights / weights.sum()
    values = density(nodes)
    normalization = float(weights @ values)
    return float(weights @ (phi(nodes) * values)) / normalization, normalization


def listed_point_count(index_set: IndexSet) -> int:
    """Listing oracle for `evaluation_point_count`: every node of every grid
    with nonzero combination coefficient, counted once.

    A node is keyed by its sorted (dim, coordinate) pairs with zeros dropped.
    Nodes come from the shared per-level rule cache, so equal nodes of
    different grids are bitwise equal and deduplicate exactly.
    """
    keys = set()
    for nu in combination_coeffs(index_set):
        axes = [[(dim, float(v)) for v in gauss_hermite_rule(exp).nodes]
                for dim, exp in nu.entries]
        keys.update(tuple((d, v) for d, v in combo if v != 0.0)
                    for combo in itertools.product(*axes))
    return len(keys)


def combination_coeffs_oracle(index_set: IndexSet) -> dict:
    """`combination_coeffs` pick by pick: for each member and each e in
    {0,1}^supp, nu - e built by a generator over the picks, signed by their
    parity, then the nonzero terms in `MultiIndex.sort_key` order."""
    acc = {}
    for mu in index_set:
        for picks in itertools.product((0, 1), repeat=len(mu.entries)):
            nu = tuple((d, e - used) for (d, e), used in zip(mu.entries, picks) if e - used)
            acc[nu] = acc.get(nu, 0) + (-1 if sum(picks) % 2 else 1)
    terms = sorted((nu for nu, c in acc.items() if c), key=lambda nu: (sum(e for _, e in nu), nu))
    return {MultiIndex(nu): acc[nu] for nu in terms}


def pattern_nodes_oracle(pattern, width: int) -> np.ndarray:
    """`smolyak._pattern_nodes` by `np.meshgrid` over the nonzero nodes of
    each (dim, level) pair: the pattern's nodes in C order, ``width``
    coordinates a row."""
    axes = [gauss_hermite_rule(e).nodes for _, e in pattern]
    nodes = np.zeros((math.prod(e + e % 2 for _, e in pattern), width))
    for (dim, _), grid in zip(pattern, np.meshgrid(*(a[a != 0.0] for a in axes), indexing="ij")):
        nodes[:, dim] = grid.ravel()
    return nodes


def term_layout_oracle(entries) -> tuple:
    """`smolyak._term_layout` by flat C-order indices: the patterns as a
    product over each entry's choices (an even level may sit at its zero
    node), each pattern's nodes located in the grid with `np.ix_` and
    `np.ravel_multi_index`, then the argsort of their concatenation."""
    choices = [((d, e),) if e % 2 else ((d, e), None) for d, e in entries]
    patterns = [tuple(p for p in combo if p) for combo in itertools.product(*choices)]
    shape = [e + 1 for _, e in entries]
    rows = [np.ravel(np.ravel_multi_index(np.ix_(*[
        np.flatnonzero(gauss_hermite_rule(e).nodes) if (d, e) in p else [e // 2]
        for d, e in entries]), shape)) for p in patterns]
    return patterns, np.argsort(np.concatenate(rows))


def surrogate_weight_oracle(family, nu: MultiIndex) -> float:
    """`surrogate_weight` entry by entry from ``family.rho``, numpy-scalar
    arithmetic included: ``prod_j max(1, K rho_j)**(2k) nu_j**(r - tau)``."""
    out = 1.0
    for dim, e in nu.entries:
        out *= max(1.0, family.K * family.rho[dim]) ** (2 * family.k) * float(e) ** (
            family.r - family.tau
        )
    return out


def lattice_threshold_set(surrogate, eps: float, d_max: int,
                          cap: int = 10_000_000, stats: dict = None) -> IndexSet:
    """Lattice DFS oracle for `build_threshold_set`, independent of its walk.

    Walks dense ``d_max`` exponent lists depth-first with a memo of the
    acceptance test ``1/surrogate(nu) >= eps``; ``stats["tests"]`` counts
    the tests (at most ``4 |result| + 1``).  Assumes the surrogate is
    monotone with anisotropy ordering; raises ``ThresholdTooSmall`` once the
    result exceeds ``cap`` members.
    """
    memo = {}

    def accept(dense_nu) -> bool:
        key = tuple(dense_nu)
        hit = memo.get(key)
        if hit is None:
            hit = 1.0 / surrogate(MultiIndex.from_exponents(dense_nu)) >= eps
            memo[key] = hit
        return hit

    tests = 0
    nu = [0] * d_max
    tests += 1
    if not accept(nu):
        if stats is not None:
            stats["tests"] = tests
        return IndexSet([])
    members = [MultiIndex()]

    while True:
        d = 0
        while True:
            tests += 1
            if d < d_max:
                nu[d] += 1
                ok = accept(nu)
                nu[d] -= 1
                if ok:
                    break
            # candidate rejected (or beyond the truncation dimension)
            if d < d_max and nu[d] != 0:
                nu[d] = 0
                d += 1
            else:
                support = [j for j in range(d_max) if nu[j] != 0]
                if support:
                    d = support[0]
                else:
                    if stats is not None:
                        stats["tests"] = tests
                    return IndexSet(members)
        nu[d] += 1
        members.append(MultiIndex.from_exponents(nu))
        if len(members) > cap:
            raise ThresholdTooSmall(
                f"threshold set exceeded cap of {cap} members (eps={eps})"
            )


def bisect_epsilon(cost, budget: float, lo: float = 1e-30, hi: float = 1e6,
                   iters: int = 40) -> float:
    """Geometric bisection of ``cost(eps) <= budget`` over [lo, hi].

    ``cost`` must be nonincreasing in eps and 0 at ``hi``.  The result is
    feasible and, after 40 steps on [1e-30, 1e6], within about 7.5e-11
    relative of the infimum of the feasible eps.  Raises ``ValueError``
    when no probe priced above the budget: the infimum may then lie below
    ``lo``, and the result would be clamped to it.
    """
    priced_over = False
    for _ in range(iters):
        mid = math.sqrt(lo * hi)
        if cost(mid) <= budget:
            hi = mid
        else:
            lo, priced_over = mid, True
    if not priced_over:
        raise ValueError(f"no probe in [{lo}, {hi}] priced above budget {budget}")
    return hi


def bisection_threshold_set(surrogate, budget: int, d_max: int,
                            cap: int = 10_000_000, lo: float = 1e-30) -> IndexSet:
    """Slow oracle for `largest_threshold_set`: 40 geometric eps bisections.

    Every probe rebuilds the threshold set and recounts its nodes; a set
    with more than ``cap`` members, or an exponent without a rule, costs
    infinity.  Assumes the node count never falls as eps falls, and sees
    no set whose members need eps below ``lo``.
    """

    def cost(eps):
        try:
            selected = lattice_threshold_set(surrogate, eps, d_max, cap=cap)
            return evaluation_point_count(selected) if len(selected) else 0
        except (ThresholdTooSmall, LevelTooLarge):
            return math.inf

    return lattice_threshold_set(surrogate, bisect_epsilon(cost, budget, lo=lo), d_max)


def scan_threshold_set(surrogate, budget: int, d_max: int,
                       count=evaluation_point_count) -> IndexSet:
    """Exact oracle for `largest_threshold_set`: every threshold set in turn.

    Lowers eps to the largest reciprocal surrogate outside the current set,
    so each step yields the next larger threshold set, rebuilt and recounted
    from scratch by ``count``; keeps the largest on at most ``budget`` nodes.
    Stops at the first set with more than ``budget`` members (it needs more
    nodes than that) or with an exponent that has no rule.
    """
    best = IndexSet([])
    eps = 1.0 / surrogate(MultiIndex())
    while True:
        try:
            selected = lattice_threshold_set(surrogate, eps, d_max, cap=budget)
            if count(selected) <= budget:
                best = selected
        except (ThresholdTooSmall, LevelTooLarge):
            return best
        eps = max(
            1.0 / surrogate(shifted(nu, dim, 1))
            for nu in selected
            for dim in range(d_max)
            if shifted(nu, dim, 1) not in selected
        )


def floor_level_loop(values, budget: float) -> int:
    """Loop oracle for `WorkSequence.floor_level` on one budget."""
    level = 0
    for l, v in enumerate(values):
        if v <= budget:
            level = l
    return level


def construct_levels_loop(c_surrogate, d_surrogate, q1, alpha, eps, work_sequence,
                          d_max, cap=10_000_000) -> LevelAllocation:
    """Loop oracle for `construct_levels`: one dict entry per member.

    Takes the set's members in the walk's order, by ``(c_surrogate(nu),
    nu.entries)``, sums the weights left to right in that order and floors
    each member's cost bound with `floor_level_loop`.
    """
    selected = lattice_threshold_set(c_surrogate, eps, d_max, cap=cap)
    if len(selected) == 0:
        raise EmptyAllocation(f"threshold {eps} admits no multi-indices")
    selected = sorted(selected, key=lambda nu: (c_surrogate(nu), nu.entries))
    exponent = -1.0 / (1.0 + 2.0 * alpha)
    d_values = {nu: float(d_surrogate(nu)) ** exponent for nu in selected}
    total = 0.0
    for nu in selected:  # not sum(), which compensates from Python 3.12 on
        total += d_values[nu]
    prefactor = eps ** (-(0.5 - q1 / 4.0) / alpha) * total ** (1.0 / (2.0 * alpha))
    levels = {
        nu: floor_level_loop(work_sequence.values, prefactor * d_values[nu])
        for nu in selected
    }
    return LevelAllocation(levels, work_sequence)


def gamma_sets(allocation: LevelAllocation) -> list:
    """The nested sets Gamma_1, ..., Gamma_top of the indices at or above
    each level."""
    return [IndexSet(nu for nu, l in allocation.levels.items() if l >= j)
            for j in range(1, allocation.max_level + 1)]


def telescope(allocation: LevelAllocation, u_levels, operator, zero):
    """Oracle for `ml_quadrature` (``operator`` `quadrature`, ``zero``
    ``np.zeros(1)``) and `ml_interpolate` (`interpolate`, the zero
    polynomial): ``sum_j operator(Gamma_j, u_j) - operator(Gamma_{j+1}, u_j)``
    as two single-level operators a level, added in level order (the empty
    set above the top is 0)."""
    top = allocation.max_level
    if top == 0:
        return zero
    if len(u_levels) < top:
        raise ValueError(f"need {top} level approximations, got {len(u_levels)}")
    gammas, maps = gamma_sets(allocation), [_shared(u) for u in u_levels[:top]]
    terms = [operator(g, u) - operator(h, u) for g, h, u in zip(gammas, gammas[1:], maps)]
    terms.append(operator(gammas[-1], maps[-1]))
    return sum(terms[1:], terms[0])


def work_level_major(allocation: LevelAllocation) -> int:
    """Oracle for `hermgrid.multilevel.work`: the same total accumulated
    level by level, over the nested sets of `gamma_sets`."""
    sw = allocation.work_sequence
    return sum(sw.values[j] * sum(math.prod(e + 1 for _, e in nu.entries) for nu in gamma)
               for j, gamma in enumerate(gamma_sets(allocation), start=1))


def ml_work_oracle(surrogate, q1, alpha, work_sequence, d_max, cap=10_000_000):
    """Slow oracle for `MemberTable.price`: a fresh allocation per eps."""

    def cost(eps):
        try:
            alloc = construct_levels(surrogate, surrogate, q1, alpha, eps,
                                     work_sequence, d_max, cap)
        except EmptyAllocation:
            return 0
        except ThresholdTooSmall:
            return math.inf
        if max((e for nu in alloc.levels for _, e in nu.entries), default=0) > MAX_LEVEL:
            return math.inf
        return work(alloc)

    return cost


def event_midpoints(table, work_sequence, top=math.inf):
    """Brute-force scan of a `MemberTable`'s price events, for
    `MemberTable.eps_for_budget`: every entry (log ``t``) and, between two
    distinct entries, every level step of the rows entered (log eps
    ``(log d_i + log S/(2 alpha) - log W_l)/gamma`` with ``S`` summed over
    the rows left to right, in row order), in descending log eps; yields the midpoint
    of each gap wider than 1e-12 between consecutive events below ``top``,
    down to the walk's next member.
    """
    t = np.append(np.sort(table.t)[::-1], 1.0 / table.walk.head)
    log_t = np.log(t)
    gamma = (0.5 - table.q1 / 4.0) / table.alpha
    log_w = np.log(np.asarray(work_sequence.values[1:], dtype=np.float64))
    previous = None
    for n in range(1, log_t.size):
        hi, lo = log_t[n - 1], log_t[n]
        if lo >= top or lo == hi:
            continue
        rows = [i for i in range(len(table.members)) if table.t[i] >= t[n - 1]]
        total = 0.0
        for i in rows:  # not sum(), which compensates from Python 3.12 on
            total += float(table.d[i])
        steps = ((np.log(table.d[rows])[:, None] + math.log(total) / (2.0 * table.alpha)
                  - log_w) / gamma).ravel()
        for x in [hi] + sorted(steps[(steps > lo) & (steps < hi)].tolist(), reverse=True):
            if previous is not None and previous - x > 1e-12 and (previous + x) / 2 < top:
                yield (previous + x) / 2
            previous = x
    if previous is not None and previous - log_t[-1] > 1e-12 and (previous + log_t[-1]) / 2 < top:
        yield (previous + log_t[-1]) / 2


def scan_budget_eps(table, budget, work_sequence):
    """Exact oracle for `MemberTable.eps_for_budget` on the rows the table
    holds: the midpoint just above the first event group priced over the
    budget (`MemberTable.price` at the midpoint below it), inf above the
    first entry; past the table's last midpoint, its next member is taken
    to price inf (the table stops growing at ``cap``)."""
    above = math.inf
    for x in event_midpoints(table, work_sequence):
        if table.price(math.exp(x), work_sequence) > budget:
            break
        above = math.exp(x)
    return above


def bisection_ml_allocation(surrogate, q1, alpha, budget, work_sequence, d_max,
                            cap=10_000_000):
    """Slow oracle for `hermgrid.cli._ml_allocation_for_budget`: 40 eps
    bisections, each probe a fresh `construct_levels` call."""
    eps = bisect_epsilon(ml_work_oracle(surrogate, q1, alpha, work_sequence, d_max, cap),
                         budget)
    try:
        return construct_levels(surrogate, surrogate, q1, alpha, eps, work_sequence,
                                d_max, cap)
    except EmptyAllocation:
        return None


def fem_system_loop(aq, fq, h, flux):
    """Loop oracle for `hermgrid._accel.fem_system`: assembly plus elimination.

    Assembles the P1 system cell by cell with the 3-point rule and solves
    for the interior unknowns by forward elimination on the tridiagonal
    system and back substitution.
    """
    n = aq.shape[0]
    g = _REF_WEIGHTS.shape[0]
    s = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for q in range(g):
            acc += _REF_WEIGHTS[q] * aq[i, q]
        s[i] = acc / h

    load = np.zeros(n + 1)
    for i in range(n):
        for q in range(g):
            load[i] += h * _REF_WEIGHTS[q] * fq[i, q] * (1.0 - _REF_POINTS[q])
            load[i + 1] += h * _REF_WEIGHTS[q] * fq[i, q] * _REF_POINTS[q]
    load[n] += flux

    diag = np.zeros(n)
    rhs = np.zeros(n)
    for i in range(n):
        left = s[i]
        right = s[i + 1] if i + 1 < n else 0.0
        diag[i] = left + right
        rhs[i] = load[i + 1]
    low = np.zeros(n)
    for i in range(1, n):
        low[i] = -s[i]

    for i in range(1, n):
        if diag[i - 1] == 0.0:
            raise ZeroDivisionError
        m = low[i] / diag[i - 1]
        diag[i] -= m * (-s[i])
        rhs[i] -= m * rhs[i - 1]
    u = np.zeros(n + 1)
    if diag[n - 1] == 0.0:
        raise ZeroDivisionError
    u[n] = rhs[n - 1] / diag[n - 1]
    for i in range(n - 2, -1, -1):
        u[i + 1] = (rhs[i] + s[i + 1] * u[i + 2]) / diag[i]
    return u


def fem_system_exact(aq, fq, h, flux) -> list:
    """Exact oracle for `hermgrid._accel.fem_system`, as a list of Fractions.

    Every float input (and the reference rule) is taken at its exact binary
    value; the same assembly as `fem_system_loop` and the tridiagonal
    elimination then run in rational arithmetic, with no rounding at all.
    """
    n = aq.shape[0]
    h, flux = Fraction(h), Fraction(flux)
    points = [Fraction(x) for x in _REF_POINTS]
    weights = [Fraction(w) for w in _REF_WEIGHTS]
    s = [sum(w * Fraction(a) for w, a in zip(weights, row)) / h for row in aq.tolist()]
    load = [Fraction(0)] * (n + 1)
    for i, row in enumerate(fq.tolist()):
        for x, w, f in zip(points, weights, row):
            load[i] += h * w * Fraction(f) * (1 - x)
            load[i + 1] += h * w * Fraction(f) * x
    load[n] += flux
    diag = [s[i] + (s[i + 1] if i + 1 < n else 0) for i in range(n)]
    rhs = load[1:]
    for i in range(1, n):
        m = -s[i] / diag[i - 1]
        diag[i] += m * s[i]
        rhs[i] -= m * rhs[i - 1]
    u = [Fraction(0)] * (n + 1)
    u[n] = rhs[n - 1] / diag[n - 1]
    for i in range(n - 2, -1, -1):
        u[i + 1] = (rhs[i] + s[i + 1] * u[i + 2]) / diag[i]
    return u


def hat_series_loop(t, z, jmax, scale):
    """Loop oracle for `hermgrid._accel.hat_series`: one point at a time.

    z is flattened level-major: z[2**j - 1 + k] multiplies the hat at
    level j, shift k.
    """
    n = t.shape[0]
    out = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for j in range(jmax + 1):
            pos = t[i] * 2.0 ** j
            k = int(np.floor(pos))
            if k < 0 or k >= 2 ** j:
                continue
            s = pos - k
            hat = 1.0 - 2.0 * abs(s - 0.5)
            if hat > 0.0:
                acc += z[2 ** j - 1 + k] * scale * 2.0 ** (-j / 2.0) * hat
        out[i] = acc
    return out


def synthesize_loop(plan, draws):
    """Per-call oracle for `hermgrid.grf._synthesize`.

    Clips and square-roots the eigenvalues on every call and fills the
    spectrum through ``arange`` index arrays, as sampling did before the
    plan carried its amplitudes.
    """
    s = plan.extended_size
    half = s // 2
    lam = np.clip(plan.eigenvalues, 0.0, None)
    spectrum = np.zeros(draws.shape[:-1] + (s,), dtype=np.complex128)
    spectrum[..., 0] = np.sqrt(lam[0]) * draws[..., 0]
    spectrum[..., half] = np.sqrt(lam[half]) * draws[..., half]
    k = np.arange(1, half)
    amp = np.sqrt(lam[k] / 2.0)
    spectrum[..., k] = amp * (draws[..., k] + 1j * draws[..., s - k])
    spectrum[..., s - k] = np.conj(spectrum[..., k])
    field = np.fft.ifft(spectrum, axis=-1).real * np.sqrt(s)
    return field[..., : plan.n_points]


def sample_file_text(grid, values) -> str:
    """Oracle text of one grf sample file.

    One row of floats per grid point, joined by the `write_csv` formatting,
    as the study wrote each file before it formatted them from a template.
    """
    rows = [[float(x), float(v)] for x, v in zip(grid, values)]
    lines = ["x,value"] + [",".join(_format(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def log_coeff_point(problem, y, x) -> float:
    """``b(y, x)`` at one parameter vector and one point: the basis row at x
    times the truncated vector (the per-point form the batched maps replaced)."""
    return float(problem.system.basis_matrix(x)[0] @ problem.truncated(y))


def panel_integral_point(problem, y, x_upper: float, mean: bool = False,
                         tol: float = 1e-12) -> float:
    """Per-point oracle for the exact map's panel sum at one parameter vector.

    ``-int_0^x_upper exp(-b(y, s)) F(s) [(1 - s) if mean] ds`` on the
    model's panels, one matrix-vector product and one dot product per
    level, doubled until two levels agree to ``tol``: the code the batched
    kernel replaced (for ``mean``, with the ``1 - s`` weight added).
    """
    if x_upper == 0.0:
        return 0.0
    yt = problem.truncated(y)
    previous = None
    for level in range(_MAX_DOUBLINGS + 1):
        nodes, weights, basis, f_anti = _panel_rule(problem, x_upper, level)
        integrand = np.exp(-(basis @ yt)) * f_anti
        if mean:
            integrand = integrand * (1.0 - nodes)
        value = -float(weights @ integrand)
        if previous is not None and abs(value - previous) <= tol * (1.0 + abs(value)):
            return value
        previous = value
    raise QuadratureNonconvergence(f"integral for x={x_upper} did not stabilize")


def panel_integral_fsum(problem, y, x_upper: float, mean: bool = False,
                        tol: float = 1e-12) -> float:
    """`panel_integral_point` with every sum taken by `math.fsum`: the mode
    sum of ``b`` at each node and the weighted node sum of each level."""
    if x_upper == 0.0:
        return 0.0
    yt = problem.truncated(y).tolist()
    previous = None
    for level in range(_MAX_DOUBLINGS + 1):
        nodes, weights, basis, f_anti = _panel_rule(problem, x_upper, level)
        terms = []
        for s, w, row, f in zip(nodes.tolist(), weights.tolist(), basis.tolist(),
                                f_anti.tolist()):
            b = math.fsum(c * v for c, v in zip(row, yt))
            terms.append(w * math.exp(-b) * f * ((1.0 - s) if mean else 1.0))
        value = -math.fsum(terms)
        if previous is not None and abs(value - previous) <= tol * (1.0 + abs(value)):
            return value
        previous = value
    raise QuadratureNonconvergence(f"integral for x={x_upper} did not stabilize")


def mean_qoi_nested(problem, y) -> float:
    """Oracle for the exact mean QoI: the mean of u over (0, 1) as an outer
    panel sum of point solutions at the nodes of 8, 16, ... panels, doubled
    until two levels agree to 1e-10 (the map's code before the single panel
    sum replaced it)."""
    previous = None
    for level in range(3, _MAX_DOUBLINGS + 1):
        nodes, weights, _, _ = _panel_rule(problem, 1.0, level)
        vals = [panel_integral_point(problem, y, float(xn)) for xn in nodes]
        value = float(weights @ np.asarray(vals))
        if previous is not None and abs(value - previous) <= 1e-10 * (1.0 + abs(value)):
            return value
        previous = value
    raise QuadratureNonconvergence("mean QoI integral did not stabilize")


def fem_cell_data(problem, y, n_cells: int):
    """Coefficient and load values at the 3-point rule of every cell, for one
    parameter vector, through one matrix-vector product."""
    flat = ((np.arange(n_cells)[:, None] + _REF_POINTS[None, :]) * (1.0 / n_cells)).ravel()
    aq = np.exp(problem.system.basis_matrix(flat) @ problem.truncated(y)).reshape(n_cells, 3)
    fq = np.asarray(problem.f(flat), dtype=np.float64).reshape(n_cells, 3)
    return aq, fq, 1.0 / n_cells, -float(problem.F(1.0))


def fem_solve_point(problem, y, n_cells: int) -> np.ndarray:
    """Per-point oracle for `hermgrid.model.fem_solve_1d`: one parameter
    vector, its cell data from `fem_cell_data` and the chain solve with the
    conductances as matrix-vector products (the code the batch replaced)."""
    aq, fq, h, flux = fem_cell_data(problem, y, n_cells)
    s = (aq @ _REF_WEIGHTS) / h
    cell_load = h * (fq * _REF_WEIGHTS)
    load = np.zeros(n_cells + 1)
    load[:-1] += cell_load @ (1.0 - _REF_POINTS)
    load[1:] += cell_load @ _REF_POINTS
    load[-1] += flux
    q = np.cumsum(load[:0:-1])[::-1]
    u = np.zeros(load.size)
    np.cumsum(q / s, out=u[1:])
    return u


def fem_solve_full_basis(problem, y, n_cells: int) -> np.ndarray:
    """Bitwise oracle for `hermgrid.model.fem_solve_1d`: the same mode sum,
    row blocks and chain solve on a basis of all d_max modes at every
    Gauss point of the mesh, rebuilt on each call (the map before its mesh
    cache held only the modes the stacks carry)."""
    flat = ((np.arange(n_cells)[:, None] + _REF_POINTS) * (1.0 / n_cells)).ravel()
    f_vals = np.asarray(problem.f(flat), dtype=np.float64).reshape(n_cells, 3)
    basis, flux = problem.system.basis_matrix(flat), -float(problem.F(1.0))
    rows = problem.truncated(np.atleast_2d(y))
    out = np.empty((len(rows), n_cells + 1))
    step = max(1, _BLOCK // basis.shape[0])
    for i in range(0, len(rows), step):
        a_vals = np.exp(_log_coeff(rows[i:i + step], basis)).reshape(-1, n_cells, 3)
        out[i:i + step] = fem_system(a_vals, f_vals, 1.0 / n_cells, flux)
    return out if np.ndim(y) > 1 else out[0]


def interpolant_difference(problem, index_set: IndexSet, bigger: IndexSet) -> float:
    """Slow oracle for `hermgrid.model.l2_errors`: the Gaussian L2 distance
    from the exact map's Smolyak interpolant on ``index_set`` to the one on
    ``bigger``, which stands in for the map.  By the triangle inequality it
    lies within the larger interpolant's own error of the exact distance."""
    target = as_parametric_map(problem, ("exact",))
    return (interpolate(bigger, target) - interpolate(index_set, target)).l2_norm()


def prefix_sums(values) -> list:
    """Correctly rounded prefix sums: entry k equals ``math.fsum(values[:k+1])``
    (an exact running `Fraction` rounded once, in linear time)."""
    total, out = Fraction(0), []
    for v in values:
        total += Fraction(v)
        out.append(float(total))
    return out


def fem_solve_fsum(problem, y, n_cells: int) -> np.ndarray:
    """`fem_solve_point` with every sum correctly rounded: the mode sum of the
    log-coefficient and each conductance by `math.fsum`, and the flux
    through each cell (its loads and the end flux) and the running sum of
    the chain solve by `prefix_sums`."""
    flat = ((np.arange(n_cells)[:, None] + _REF_POINTS[None, :]) * (1.0 / n_cells)).ravel()
    yt = problem.truncated(y).tolist()
    a = [math.exp(math.fsum(c * v for c, v in zip(row, yt)))
         for row in problem.system.basis_matrix(flat).tolist()]
    f = np.asarray(problem.f(flat), dtype=np.float64).tolist()
    h, w, x = 1.0 / n_cells, _REF_WEIGHTS.tolist(), _REF_POINTS.tolist()
    s = [math.fsum(w[q] * a[3 * i + q] for q in range(3)) / h for i in range(n_cells)]
    # the flux through cell i is every load term right of node i plus the end
    # flux: the right part of cell i and both parts of each later cell
    total, flux = Fraction(-float(problem.F(1.0))), [0.0] * n_cells
    for i in reversed(range(n_cells)):
        total += sum(Fraction(h * w[q] * f[3 * i + q] * x[q]) for q in range(3))
        flux[i] = float(total)
        total += sum(Fraction(h * w[q] * f[3 * i + q] * (1.0 - x[q])) for q in range(3))
    steps = [qc / si for qc, si in zip(flux, s)]
    return np.array([0.0] + prefix_sums(steps))


def posterior_density_point(setup, y) -> float:
    """Per-point oracle for `hermgrid.model.posterior_density`: whitening as a
    matrix-vector product and the misfit as a dot product."""
    observed = setup.forward(y)
    shifted = setup.noise_cov_inv_sqrt @ (setup.data - observed)
    return float(np.exp(-0.5 * float(shifted @ shifted)))


def posterior_density_fsum(setup, y) -> float:
    """`posterior_density_point` with the whitening and misfit sums by `math.fsum`."""
    residual = (setup.data - setup.forward(y)).tolist()
    shifted = [math.fsum(m * r for m, r in zip(row, residual))
               for row in setup.noise_cov_inv_sqrt.tolist()]
    return math.exp(-0.5 * math.fsum(v * v for v in shifted))


def ulps(got, want, scale) -> float:
    """Largest |got - want| in units in the last place of ``scale``."""
    diff = np.max(np.abs(np.asarray(got, dtype=np.float64) - np.asarray(want, dtype=np.float64)))
    return float(diff / np.spacing(abs(float(scale))))
