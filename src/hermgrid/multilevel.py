"""Multilevel Smolyak operators: level allocation, nested sets, and work.

A level allocation assigns each multi-index a discretization level for the
underlying approximation family (for instance FEM meshes of growing
resolution).  The induced nested index sets drive telescoped interpolation
and quadrature sums whose cost is measured by an abstract work sequence.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyAllocation
from .indexset import IndexSet, MultiIndex, build_threshold_set
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


class MemberTable:
    """The threshold set of ``c_surrogate`` at ``eps``, one row a member.

    Rows follow `IndexSet.sorted_members`.  ``t`` is the acceptance value
    ``1/c(nu)`` of `build_threshold_set`, ``d`` the weight
    ``d(nu)**(-1/(1+2 alpha))``, ``points`` the tensor point count
    ``prod_j (nu_j + 1)`` and ``max_exp`` the largest exponent.  The rows
    with ``t >= e`` are the threshold set at any ``e >= eps``.
    """

    def __init__(self, c_surrogate, d_surrogate, q1: float, alpha: float, eps: float,
                 d_max: int, cap: int = 10_000_000):
        if not 0.0 < q1 < 2.0:
            raise ValueError("q1 must lie in (0, 2)")
        if not 0.0 < alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        self.eps, self.q1, self.alpha = eps, q1, alpha
        self.members = build_threshold_set(c_surrogate, eps, d_max, cap=cap).sorted_members
        exponent = -1.0 / (1.0 + 2.0 * alpha)
        self.t = np.array([1.0 / c_surrogate(nu) for nu in self.members])
        self.d = np.array([float(d_surrogate(nu)) ** exponent for nu in self.members])
        self.points = tuple(_point_factor(nu) for nu in self.members)
        self.max_exp = np.array([max((e for _, e in nu.entries), default=0)
                                 for nu in self.members])

    def levels(self, eps: float, work_sequence: WorkSequence) -> tuple:
        """Rows of the threshold set at ``eps`` and their levels, each the highest
        whose cost is at most ``eps**(-(1/2 - q1/4)/alpha) * d * S**(1/(2 alpha))``
        with ``S`` the sum of ``d`` over the rows, in row order."""
        rows = np.flatnonzero(self.t >= eps)
        total = sum(self.d[rows].tolist())
        prefactor = (eps ** (-(0.5 - self.q1 / 4.0) / self.alpha)
                     * total ** (1.0 / (2.0 * self.alpha)))
        return rows, work_sequence.floor_level(prefactor * self.d[rows])

    def allocation(self, eps: float, work_sequence: WorkSequence) -> "LevelAllocation":
        """The `levels` of the rows at ``eps`` as an allocation (zeros dropped)."""
        rows, levels = self.levels(eps, work_sequence)
        if rows.size == 0:
            raise EmptyAllocation(f"threshold {eps} admits no multi-indices")
        members = (self.members[i] for i in rows.tolist())
        return LevelAllocation(dict(zip(members, levels.tolist())), work_sequence)


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
    return table.allocation(eps, work_sequence)


def gamma_sets(allocation: LevelAllocation) -> list:
    """Nested downward closed sets of indices at or above each level."""
    out = []
    for j in range(1, allocation.max_level + 1):
        out.append(IndexSet(nu for nu, l in allocation.levels.items() if l >= j))
    return out


def _point_factor(nu: MultiIndex) -> int:
    out = 1
    for _, exp in nu.entries:
        out *= exp + 1
    return out


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

