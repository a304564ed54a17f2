"""Multilevel Smolyak operators: level allocation, nested sets, and work.

A level allocation assigns each multi-index a discretization level for the
underlying approximation family (for instance FEM meshes of growing
resolution).  The induced nested index sets drive telescoped interpolation
and quadrature sums whose cost is measured by an abstract work sequence.
"""

import bisect
import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyAllocation, ThresholdTooSmall
from .hermite import MAX_LEVEL
# build_threshold_set has no caller here; perfbench/layers.py hooks this name
from .indexset import IndexSet, MultiIndex, ThresholdWalk, build_threshold_set  # noqa: F401
from .smolyak import HermitePolynomial, _shared, interpolate, quadrature, zero_polynomial


@dataclass(frozen=True)
class WorkSequence:
    """Strictly increasing per-level cost measures with ``values[0] == 0``.

    ``growth_constant`` bounds the partial sums, the level count against
    the log of the cost, and the level-to-level growth; all three bounds
    are validated on the stored prefix.
    """

    values: tuple
    growth_constant: float = 2.0

    def __post_init__(self):
        vals = tuple(int(v) for v in self.values)
        if len(vals) < 1 or vals[0] != 0:
            raise ValueError("work sequence must start at 0")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("work sequence must be strictly increasing")
        if any(v < 0 for v in vals):
            raise ValueError("work values must be nonnegative")
        kw = self.growth_constant
        for l in range(1, len(vals)):
            if sum(vals[: l + 1]) > kw * vals[l]:
                raise ValueError("partial-sum bound violated")
            if l > kw * (1.0 + math.log(vals[l])):
                raise ValueError("level-count bound violated")
            if vals[l] > kw * (1.0 + vals[l - 1]):
                raise ValueError("growth bound violated")
        object.__setattr__(self, "values", vals)

    @property
    def max_level(self) -> int:
        return len(self.values) - 1

    def cumulative(self, level: int) -> int:
        """Total cost of carrying one point through levels 1..level."""
        return sum(self.values[1 : level + 1])

    def floor_level(self, budget):
        """Largest level whose cost does not exceed ``budget``, elementwise
        (exact while the values stay below 2**53)."""
        return np.searchsorted(np.asarray(self.values, dtype=np.float64), budget,
                               side="right") - 1


def default_work_sequence(max_level: int, growth_constant: float = 2.0) -> WorkSequence:
    """Doubling cost model: 0, 2, 4, 8, ..., 2**max_level."""
    if max_level < 1:
        raise ValueError("max_level must be positive")
    return WorkSequence((0,) + tuple(2 ** l for l in range(1, max_level + 1)),
                        growth_constant)


@dataclass(frozen=True)
class LevelAllocation:
    """Map from multi-indices to discretization levels (zeros dropped)."""

    levels: dict
    work_sequence: WorkSequence

    def __post_init__(self):
        object.__setattr__(
            self, "levels", {nu: int(l) for nu, l in self.levels.items() if l > 0}
        )

    @property
    def max_level(self) -> int:
        return max(self.levels.values(), default=0)


_TIE = 1e-12  # events closer in log eps chain into one group (`largest_threshold_set`'s tie)


class MemberTable:
    """The threshold family of ``c_surrogate``, one row a member, lowered on demand.

    Rows are appended as one `ThresholdWalk` pops them, so no member is built
    twice, ``t = 1/c(nu)`` never rises along the rows, and the rows with
    ``t >= e`` are the threshold set at any ``e`` above the walk's head.
    ``order`` lists the rows in `IndexSet.sorted_members` order; ``d`` holds
    ``d(nu)**(-1/(1+2 alpha))``, ``points`` the tensor point count
    ``prod_j (nu_j + 1)`` and ``max_exp`` the largest exponent.
    """

    def __init__(self, c_surrogate, d_surrogate, q1: float, alpha: float, eps: float,
                 d_max: int, cap: int = 10_000_000):
        if not 0.0 < q1 < 2.0:
            raise ValueError("q1 must lie in (0, 2)")
        if not 0.0 < alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        self.q1, self.alpha, self.cap, self.d_surrogate = q1, alpha, cap, d_surrogate
        self.walk = ThresholdWalk(c_surrogate, d_max)
        self.members, self._d, self._points, self._max_exp = self.walk.members, [], [], []
        self._keys, self._order = [], []
        self._append(0)
        self.lower(eps)

    def lower(self, eps: float):
        """Append the rows with ``t >= eps``; `ThresholdTooSmall` past ``cap``."""
        start = len(self.members)
        try:
            self.walk.lower(eps, self.cap)
        finally:
            if len(self.members) > start:
                self._append(start)

    def _append(self, start: int):
        exponent = -1.0 / (1.0 + 2.0 * self.alpha)
        for i, nu in enumerate(self.members[start:], start):
            self._d.append(float(self.d_surrogate(nu)) ** exponent)
            self._points.append(_point_factor(nu))
            self._max_exp.append(max((e for _, e in nu.entries), default=0))
            self._keys.append(nu.sort_key())
            bisect.insort(self._order, i, key=self._keys.__getitem__)
        self.t, self.order = 1.0 / np.array(self.walk.values), np.array(self._order, np.intp)
        self.d, self.points = np.array(self._d), np.array(self._points, np.int64)
        self.max_exp, self._t_in_order = np.array(self._max_exp), self.t[self.order]

    def levels(self, eps: float, work_sequence: WorkSequence) -> tuple:
        """Rows of the threshold set at ``eps`` (one the table reaches), in
        member order, and their levels, each the highest whose cost is at
        most ``eps**(-(1/2 - q1/4)/alpha) * d * S**(1/(2 alpha))`` with ``S``
        the sum of ``d`` over the rows, in member order."""
        rows = self.order[self._t_in_order >= eps]
        total = sum(self.d[rows].tolist())
        prefactor = (eps ** (-(0.5 - self.q1 / 4.0) / self.alpha)
                     * total ** (1.0 / (2.0 * self.alpha)))
        return rows, work_sequence.floor_level(prefactor * self.d[rows])

    def allocation(self, eps: float, work_sequence: WorkSequence) -> "LevelAllocation":
        """The `levels` at ``eps`` as an allocation (zeros dropped), lowering
        the table to ``eps``; `ThresholdTooSmall` past ``cap``."""
        self.lower(eps)
        rows, levels = self.levels(eps, work_sequence)
        members = (self.members[i] for i in rows.tolist())
        return LevelAllocation(dict(zip(members, levels.tolist())), work_sequence)

    def price(self, eps: float, work_sequence: WorkSequence):
        """``work(construct_levels(eps))``, lowering the table to ``eps``: an
        integer dot product over the rows, or inf past ``cap`` members or when
        a row at level 1 or above has an exponent without a rule (MAX_LEVEL)."""
        try:
            self.lower(eps)
        except ThresholdTooSmall:
            return math.inf
        rows, levels = self.levels(eps, work_sequence)
        if np.any(self.max_exp[rows[levels > 0]] > MAX_LEVEL):
            return math.inf
        cumulative = np.cumsum(work_sequence.values)  # level 0 costs 0
        return int(np.dot(self.points[rows], cumulative[levels]))

    def eps_for_budget(self, budget, work_sequence: WorkSequence):
        """An eps whose `price` is the largest at most ``budget`` (inf when only
        the empty set fits), by a sweep over the price's events in log eps:
        entries at ``log t`` and, between entries, level steps at ``(log d_i
        + log S/(2 alpha) - log W_l)/gamma``, ``gamma = (1/2 - q1/4)/alpha``.
        Events less than `_TIE` apart form one group and prices are read at
        the midpoints between groups.  The price never falls with eps, so
        binary searches over the entry intervals (by their lowest midpoint)
        and inside one find the first group over the budget; the result is
        the midpoint above it.  The table grows a quarter at a time until
        its last interval prices over the budget or reaches ``cap``."""
        log_w = np.log(np.asarray(work_sequence.values[1:], dtype=np.float64))
        gamma = (0.5 - self.q1 / 4.0) / self.alpha
        price = lambda x: self.price(math.exp(x), work_sequence)

        def midpoints(k):  # interval k: the first ends[k] rows, down to the next t
            n = ends[k]
            hi, lo = log_t[n - 1], log_t[n] if n < log_t.size else head
            total = sum(self.d[self.order[self.order < n]].tolist())
            x = (log_d[:n, None] + math.log(total) / (2.0 * self.alpha) - log_w) / gamma
            x = np.concatenate(([hi], np.sort(x[(x > lo) & (x < hi)])[::-1], [lo]))
            return ((x[:-1] + x[1:]) / 2.0)[x[:-1] - x[1:] > _TIE]

        def lowest(k):  # the lowest midpoint of intervals 0..k
            return next((m[-1] for j in range(k, -1, -1) if (m := midpoints(j)).size), None)

        over = lambda k: (x := lowest(k)) is not None and price(x) > budget

        while True:
            log_t, log_d, head = np.log(self.t), np.log(self.d), np.log(1.0 / self.walk.head)
            ends = (np.flatnonzero(log_t[:-1] - log_t[1:] > _TIE) + 1).tolist()
            if log_t.size and log_t[-1] - head > _TIE:  # the last group is whole
                ends.append(log_t.size)
            start = len(self.members)
            if start >= self.cap or over(len(ends) - 1):
                break
            with contextlib.suppress(ThresholdTooSmall):
                while len(self.members) < start + max(1, start // 4):
                    self.walk.lower(1.0 / self.walk.head, self.cap)
            self._append(start)
        k = bisect.bisect_left(range(len(ends)), True, key=over)
        inside = midpoints(k) if k < len(ends) else np.empty(0)  # past cap every one fits
        m = bisect.bisect_left(range(inside.size), True, key=lambda i: price(inside[i]) > budget)
        x = inside[m - 1] if m else lowest(k - 1)
        return math.inf if x is None else math.exp(x)


def construct_levels(
    c_surrogate,
    d_surrogate,
    q1: float,
    alpha: float,
    eps: float,
    work_sequence: WorkSequence,
    d_max: int,
    cap: int = 10_000_000,
) -> LevelAllocation:
    """Allocate discretization levels over the threshold set of ``c_surrogate``.

    Every member of the threshold set receives its `MemberTable.levels`
    level; indices outside the set stay at level 0.
    """
    table = MemberTable(c_surrogate, d_surrogate, q1, alpha, eps, d_max, cap)
    if not table.members:
        raise EmptyAllocation(f"threshold {eps} admits no multi-indices")
    return table.allocation(eps, work_sequence)


def gamma_sets(allocation: LevelAllocation) -> list:
    """Nested downward closed sets of indices at or above each level."""
    out = []
    for j in range(1, allocation.max_level + 1):
        out.append(IndexSet(nu for nu, l in allocation.levels.items() if l >= j))
    return out


def _point_factor(nu: MultiIndex) -> int:
    return math.prod(exp + 1 for _, exp in nu.entries)


def work(allocation: LevelAllocation) -> int:
    """Total cost: per-index tensor point count times cumulative level cost."""
    sw = allocation.work_sequence
    return sum(
        _point_factor(nu) * sw.cumulative(l) for nu, l in allocation.levels.items()
    )


def ml_interpolate(allocation: LevelAllocation, u_levels) -> HermitePolynomial:
    """Telescoped multilevel interpolant over the allocation's nested sets.

    ``u_levels[j-1]``, the level-j approximation of the target map, is called
    once per node of its two sets; the empty set above the top level is 0.
    """
    top = allocation.max_level
    if top == 0:
        return zero_polynomial()
    if len(u_levels) < top:
        raise ValueError(f"need {top} level approximations, got {len(u_levels)}")
    gammas = gamma_sets(allocation)
    result = None
    for j in range(1, top + 1):
        u = _shared(u_levels[j - 1])
        term = interpolate(gammas[j - 1], u)
        if j < top and len(gammas[j]) > 0:
            term = term.minus(interpolate(gammas[j], u))
        result = term if result is None else result.plus(term)
    return result


def ml_quadrature(allocation: LevelAllocation, u_levels) -> np.ndarray:
    """Telescoped multilevel quadrature; matches the constant coefficient of
    `ml_interpolate` on the same inputs and calls each level map as often."""
    top = allocation.max_level
    if top == 0:
        return np.zeros(1)
    if len(u_levels) < top:
        raise ValueError(f"need {top} level approximations, got {len(u_levels)}")
    gammas = gamma_sets(allocation)
    result = None
    for j in range(1, top + 1):
        u = _shared(u_levels[j - 1])
        term = quadrature(gammas[j - 1], u)
        if j < top and len(gammas[j]) > 0:
            term = term - quadrature(gammas[j], u)
        result = term if result is None else result + term
    return result

