"""Multilevel Smolyak operators: level allocation, net coefficients, and work.

A level allocation assigns each multi-index a discretization level for the
underlying approximation family (for instance FEM meshes of growing
resolution).  Its nested sets Gamma_j, the indices at level j or above,
define ``sum_j (A(Gamma_j) - A(Gamma_{j+1})) u_j`` for the Smolyak operator
A, summed from the net coefficients of each level; its cost is measured by
an abstract work sequence.
"""

import bisect
import contextlib
import math
import sys
from functools import cache

import numpy as np

from .errors import EmptyAllocation, Frozen, NotDownwardClosed, ThresholdTooSmall
from .hermite import MAX_LEVEL
# build_threshold_set and quadrature have no caller here; perfbench/layers.py hooks these names
from .indexset import TIE, MultiIndex, ThresholdWalk, build_threshold_set  # noqa: F401
from .smolyak import quadrature  # noqa: F401
from .smolyak import (HermitePolynomial, _evaluate, _projection_sum, _shared, _signed_terms,
                      _weighted_sum, zero_polynomial)


_LOG_MAX = math.log(sys.float_info.max)  # the largest argument of exp below inf


class WorkSequence(Frozen):
    """Strictly increasing per-level cost measures with ``values[0] == 0``.

    ``growth_constant`` bounds the partial sums, which implies the level count
    ``l <= kw (1 + log v_l)``, and the level-to-level growth; both bounds are
    validated on the stored prefix.  ``float_values`` and ``cumulative_costs``
    (level 0 costs 0) are read-only float64 and exact integer arrays of the
    values (of Python ints once a sum passes int64).
    """

    __slots__ = ("values", "growth_constant", "float_values", "cumulative_costs")

    def __init__(self, values: tuple, growth_constant: float = 2.0):
        vals = tuple(int(v) for v in values)
        if len(vals) < 1 or vals[0] != 0:
            raise ValueError("work sequence must start at 0")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("work sequence must be strictly increasing")
        kw = growth_constant
        for l in range(1, len(vals)):
            if sum(vals[: l + 1]) > kw * vals[l]:
                raise ValueError("partial-sum bound violated")
            if vals[l] > kw * (1.0 + vals[l - 1]):
                raise ValueError("growth bound violated")
        floats = np.array(vals, dtype=np.float64)
        costs = np.cumsum(np.array(vals, object), dtype=np.int64 if sum(vals) < 2 ** 63 else object)
        floats.flags.writeable = costs.flags.writeable = False
        self._fields(vals, growth_constant, floats, costs)

    def cumulative(self, level: int) -> int:
        """Total cost of carrying one point through levels 1..level."""
        return int(self.cumulative_costs[level])

    def floor_level(self, budget):
        """Largest level whose cost does not exceed ``budget``, elementwise
        (exact while the values stay below 2**53)."""
        return np.searchsorted(self.float_values, budget, side="right") - 1


def default_work_sequence(max_level: int, growth_constant: float = 2.0) -> WorkSequence:
    """Doubling cost model: 0, 2, 4, 8, ..., 2**max_level."""
    if max_level < 1:
        raise ValueError("max_level must be positive")
    return WorkSequence((0,) + tuple(2 ** l for l in range(1, max_level + 1)),
                        growth_constant)


class LevelAllocation(Frozen):
    """Map from multi-indices to discretization levels (zeros dropped)."""

    __slots__ = ("levels", "work_sequence")

    def __init__(self, levels: dict, work_sequence: WorkSequence):
        self._fields({nu: int(l) for nu, l in levels.items() if l > 0}, work_sequence)

    @property
    def max_level(self) -> int:
        return max(self.levels.values(), default=0)


class MemberTable:
    """The threshold family of ``c_surrogate``, one row a member, lowered on demand.

    Rows are appended as one `ThresholdWalk` pops them, so no member is built
    twice, ``t = 1/c(nu)`` never rises along the rows, and the first rows, those
    with ``t >= e``, are the threshold set at any ``e`` above the walk's head.
    ``d`` holds ``d(nu)**(-1/(1+2 alpha))`` and ``s`` its running sums, left to
    right; ``points`` the tensor point count ``prod_j (nu_j + 1)`` and
    ``max_exp`` the largest exponent.  The table starts empty; `lower`,
    `allocation`, `price` and `eps_for_budget` grow it.
    """

    def __init__(self, c_surrogate, d_surrogate, q1: float, alpha: float, d_max: int,
                 cap: int = 10_000_000):
        if not 0.0 < q1 < 2.0:
            raise ValueError("q1 must lie in (0, 2)")
        if not 0.0 < alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        self.q1, self.alpha, self.cap, self.d_surrogate = q1, alpha, cap, d_surrogate
        self.gamma = (0.5 - q1 / 4.0) / alpha  # the level bounds' power of 1/eps
        self.walk = ThresholdWalk(c_surrogate, d_max)
        self.members = self.walk.members
        self.t = self.d = self.s = np.empty(0)
        self.points = self.max_exp = np.empty(0, np.int64)

    def lower(self, eps: float):
        """Append the rows with ``t >= eps``; `ThresholdTooSmall`, appending none, past ``cap``."""
        self.walk.lower(eps, self.cap)
        self._append()

    def _append(self):
        """Append a row for each member popped since the last append."""
        if (start := self.t.size) == len(self.members):
            return
        exponent, new = -1.0 / (1.0 + 2.0 * self.alpha), self.members[start:]
        same = self.d_surrogate is self.walk.surrogate  # then d(nu) is the walk's value
        d = self.walk.values[start:] if same else map(self.d_surrogate, new)
        add = lambda rows, values: np.concatenate((rows, np.array(values, rows.dtype)))
        self.t = add(self.t, 1.0 / np.array(self.walk.values[start:]))
        self.d = add(self.d, [float(v) ** exponent for v in d])
        self.points = add(self.points, list(map(_point_factor, new)))
        self.max_exp = add(self.max_exp, [max((e for _, e in nu.entries), default=0) for nu in new])
        self.s = self.d.cumsum()
        self.s.flags.writeable = False

    def levels(self, eps: float, work_sequence: WorkSequence) -> tuple:
        """Rows of the threshold set at ``eps`` (one the table reaches), the
        first n, and their levels, each the highest whose cost is at most
        ``eps**(-(1/2 - q1/4)/alpha) * d * S**(1/(2 alpha))`` with ``S = s[n-1]``
        (0 without rows)."""
        n = int(np.count_nonzero(self.t >= eps))
        rows, total = np.arange(n), float(self.s[n - 1]) if n else 0.0
        try:
            prefactor = eps ** -self.gamma * total ** (0.5 / self.alpha)
        except OverflowError:  # a factor past the doubles: the product in logs, saturated
            log_s = math.log(total) if total else -math.inf  # no rows: S = 0
            log = (-(0.5 - self.q1 / 4.0) * math.log(eps) + 0.5 * log_s) / self.alpha
            prefactor = math.exp(log) if log <= _LOG_MAX else math.inf
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
        integer dot product over the rows, or inf past ``cap`` members (every
        walked one appended) or when a row at level 1 or above has an
        exponent without a rule (MAX_LEVEL)."""
        try:
            self.lower(eps)
        except ThresholdTooSmall:
            self._append()
            return math.inf
        rows, levels = self.levels(eps, work_sequence)
        if np.any(self.max_exp[rows[levels > 0]] > MAX_LEVEL):
            return math.inf
        return int(np.dot(self.points[rows], work_sequence.cumulative_costs[levels]))

    def eps_for_budget(self, budget, work_sequence: WorkSequence):
        """An eps whose `price` is the largest at most ``budget`` (inf when only
        the empty set fits), by a sweep over the price's events in log eps:
        entries at ``log t`` and, between entries, level steps at ``(log d_i
        + log S/(2 alpha) - log W_l)/gamma``, ``gamma = (1/2 - q1/4)/alpha``.
        Events less than `TIE` apart form one group and prices are read at
        the midpoints between groups.  The price never falls with eps, so
        binary searches over the entry intervals (by their lowest midpoint)
        and inside one find the first group over the budget; the result is
        the midpoint above it.  The table grows a quarter at a time until
        its last interval prices over the budget or reaches ``cap``."""
        log_w = np.log(work_sequence.float_values[1:])
        price = lambda x: self.price(math.exp(x), work_sequence)

        @cache  # cleared whenever the table grows
        def midpoints(k):  # interval k: the first ends[k] rows, down to the next t
            n = ends[k]
            hi, lo = log_t[n - 1], log_t[n] if n < log_t.size else head
            x = (log_d[:n, None] + math.log(self.s[n - 1]) / (2 * self.alpha) - log_w) / self.gamma
            x = np.concatenate(([hi], np.sort(x[(x > lo) & (x < hi)])[::-1], [lo]))
            return ((x[:-1] + x[1:]) / 2.0)[x[:-1] - x[1:] > TIE]

        def lowest(k):  # the lowest midpoint of intervals 0..k
            return next((m[-1] for j in range(k, -1, -1) if (m := midpoints(j)).size), None)

        over = lambda k: (x := lowest(k)) is not None and price(x) > budget

        while True:
            self._append()
            midpoints.cache_clear()
            log_t, log_d, head = np.log(self.t), np.log(self.d), np.log(1.0 / self.walk.head)
            ends = (np.flatnonzero(log_t[:-1] - log_t[1:] > TIE) + 1).tolist()
            if log_t.size and log_t[-1] - head > TIE:  # the last group is whole
                ends.append(log_t.size)
            start = len(self.members)
            if start >= self.cap or over(len(ends) - 1):
                break
            with contextlib.suppress(ThresholdTooSmall):
                while len(self.members) < start + max(1, start // 4):
                    self.walk.lower(1.0 / self.walk.head, self.cap)
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
    table = MemberTable(c_surrogate, d_surrogate, q1, alpha, d_max, cap)
    table.lower(eps)
    if not table.members:
        raise EmptyAllocation(f"threshold {eps} admits no multi-indices")
    return table.allocation(eps, work_sequence)


def _point_factor(nu: MultiIndex) -> int:
    return math.prod(exp + 1 for _, exp in nu.entries)


def work(allocation: LevelAllocation) -> int:
    """Total cost: per-index tensor point count times cumulative level cost."""
    sw = allocation.work_sequence
    return sum(_point_factor(nu) * sw.cumulative(l) for nu, l in allocation.levels.items())


def _net_levels(allocation: LevelAllocation) -> list:
    """The net terms of each level j = 1 .. max_level, in level order:
    ``c(Gamma_j) - c(Gamma_{j+1})``, the `_signed_terms` of the members at
    level j (empty without any).  `NotDownwardClosed` names a member above
    the level of one of its predecessors, which is when some Gamma_j is
    not downward closed."""
    levels = allocation.levels
    by_level = [[] for _ in range(allocation.max_level)]
    level_of = {nu.entries: l for nu, l in levels.items()}
    for mu, level in levels.items():
        for i, (d, e) in enumerate(entries := mu.entries):
            down = entries[:i] + (((d, e - 1),) if e > 1 else ()) + entries[i + 1:]
            if level_of.get(down, 0) < level:
                raise NotDownwardClosed(f"{mu} sits at level {level}, above its predecessor "
                                        f"{MultiIndex(down)} at level {level_of.get(down, 0)}")
        by_level[level - 1].append(mu)
    return [_signed_terms(members) for members in by_level]


def _plan(allocation: LevelAllocation, u_levels) -> list:
    """``(terms, u)`` for each level j of ``allocation``: its `_net_levels`
    and ``u_levels[j-1]`` as a `_Shared` map, for `_evaluate`."""
    if len(u_levels) < allocation.max_level:
        raise ValueError(f"need {allocation.max_level} level approximations, "
                         f"got {len(u_levels)}")
    return list(zip(_net_levels(allocation), map(_shared, u_levels)))


def ml_interpolate(allocation: LevelAllocation, u_levels) -> HermitePolynomial:
    """Multilevel interpolant, 0 below level 1: the `_net_levels` planned,
    each level map called once on their nodes (`_evaluate`), then summed.
    ``u_levels[j-1]`` is the level-j approximation of the target map; a
    level without nonzero net terms does not call it."""
    levels = _evaluate(_plan(allocation, u_levels))
    return _projection_sum(levels) if levels else zero_polynomial()


def ml_quadrature(allocation: LevelAllocation, u_levels) -> np.ndarray:
    """Multilevel quadrature, planned, evaluated and summed as `ml_interpolate`
    is, whose constant coefficient it matches on the same inputs."""
    return _weighted_sum(_evaluate(_plan(allocation, u_levels)))
