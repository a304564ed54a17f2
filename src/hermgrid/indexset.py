"""Multi-indices, product weight families, and threshold index sets.

A multi-index is a finitely supported sequence of nonnegative integer
exponents; it labels one tensor Hermite polynomial and one tensor grid.
Weight families assign each multi-index a computable surrogate size, and
`ThresholdWalk` takes the indices best-first in increasing surrogate, so
every threshold set ``{nu : 1/surrogate(nu) >= eps}`` is a prefix of one
walk, at most three surrogate calls a member whatever the truncation.
"""

import heapq
from functools import cached_property
from math import comb, factorial, inf, sqrt

import numpy as np

from .errors import Frozen, ThresholdTooSmall


class MultiIndex(Frozen):
    """Finitely supported exponent sequence, stored sparsely.

    ``entries`` is a tuple of (dimension, exponent) pairs with strictly
    increasing 0-based dimensions and positive exponents, so equality and
    hashing are structural.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: tuple = ()):
        prev = -1
        for dim, exp in entries:
            if dim <= prev:
                raise ValueError("dimensions must be strictly increasing")
            if exp <= 0 or int(exp) != exp:
                raise ValueError("stored exponents must be positive integers")
            prev = dim
        object.__setattr__(self, "entries", entries)  # not `_fields`: the walk's hot path

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self):
        return hash((self.entries,))

    def __repr__(self):
        return f"MultiIndex({self.entries!r})"

    @classmethod
    def from_dict(cls, mapping) -> "MultiIndex":
        pairs = tuple(sorted((int(d), int(e)) for d, e in mapping.items() if e != 0))
        return cls(pairs)

    @classmethod
    def from_exponents(cls, exponents) -> "MultiIndex":
        """Build from a dense exponent list, dropping zeros."""
        return cls(tuple((j, int(e)) for j, e in enumerate(exponents) if e != 0))

    @property
    def order(self) -> int:
        """Total degree (sum of exponents)."""
        return sum(e for _, e in self.entries)

    @property
    def support(self) -> tuple:
        return tuple(d for d, _ in self.entries)

    def max_dim(self) -> int:
        """Largest active dimension plus one (0 for the empty index)."""
        return self.entries[-1][0] + 1 if self.entries else 0

    def sort_key(self):
        return (self.order, self.entries)

    def __str__(self) -> str:
        if not self.entries:
            return "-"
        return " ".join(f"{d}:{e}" for d, e in self.entries)


class IndexSet:
    """Finite set of multi-indices with a cached downward-closure flag."""

    def __init__(self, members):
        self._members = frozenset(members)

    @cached_property
    def sorted_members(self) -> tuple:
        return tuple(sorted(self._members, key=MultiIndex.sort_key))

    @cached_property
    def downward_closed(self) -> bool:
        return is_downward_closed(self)

    @property
    def members(self) -> frozenset:
        return self._members

    def dimension(self) -> int:
        """Number of coordinates needed to address every member."""
        return max((nu.max_dim() for nu in self._members), default=0)

    def __iter__(self):
        return iter(self.sorted_members)

    def __len__(self):
        return len(self._members)

    def __contains__(self, nu):
        return nu in self._members

    def __eq__(self, other):
        if isinstance(other, IndexSet):
            return self._members == other._members
        return NotImplemented

    def __hash__(self):
        return hash(self._members)

    def __repr__(self):
        return f"IndexSet({len(self._members)} members)"


def is_downward_closed(index_set) -> bool:
    """True iff every member keeps all its single-step predecessors inside
    (compared as entry tuples: the exponent at position i lowered, or the
    pair dropped at exponent 1)."""
    members = {nu.entries for nu in index_set}
    return all(e[:i] + (((d, k - 1),) if k > 1 else ()) + e[i + 1:] in members
               for e in members for i, (d, k) in enumerate(e))


# -- weight families ------------------------------------------------------

def degree_weight(nu: MultiIndex, tau: float, lam: float = 1.0) -> float:
    """Product weight ``prod_j (1 + lam * nu_j)**tau`` (1 on the empty index)."""
    out = 1.0
    for _, e in nu.entries:
        out *= (1.0 + lam * e) ** tau
    return out


def binomial_weight(nu: MultiIndex, r: int, rho) -> float:
    """Product over dims of ``sum_{l=0..r} C(nu_j, l) rho_j**(2l)``.

    Factors for dimensions outside the support are 1; binomials vanish for
    ``l > nu_j``.
    """
    rho = np.asarray(rho, dtype=np.float64)
    out = 1.0
    for dim, e in nu.entries:
        if dim >= rho.size:
            raise ValueError(f"dimension {dim} outside weight family truncation")
        out *= sum(comb(e, l) * rho[dim] ** (2 * l) for l in range(r + 1))
    return out


def _root_factorial(r: int) -> float:
    """``sqrt(r!)`` as a double; ``r!`` exceeds the double range past r = 170."""
    if r > 170:
        raise ValueError(f"r must be at most 170, got {r}")
    return sqrt(factorial(r))


class WeightFamily(Frozen):
    """Parameter bundle producing the computable threshold surrogates.

    ``b`` holds the positive decay weights of the representation system
    (nonincreasing, so earlier dimensions matter more), ``p`` the
    summability exponent in (0, 1), and ``k`` selects the interpolation
    (1) or quadrature (2) variant.  The derived ``rho`` sequence is
    ``b_j**(p-1) * xi / (4 sqrt(r!) ||b||_p)``.
    """

    # derived: rho, factors (max(1, K rho_j)**(2k) as floats), table (see surrogate_weight)
    __slots__ = ("b", "p", "xi", "r", "tau", "k", "K", "rho", "factors", "table")

    def __init__(self, b: np.ndarray, p: float, xi: float, r: int, tau: float, k: int,
                 K: float):
        b = np.asarray(b, dtype=np.float64)
        if b.ndim != 1 or b.size == 0 or np.any(b <= 0):
            raise ValueError("b must be a nonempty positive vector")
        if np.any(np.diff(b) > 0):
            raise ValueError("b must be nonincreasing (anisotropy ordering)")
        if not 0.0 < p < 1.0:
            raise ValueError("p must lie in (0, 1)")
        if not (0 < xi < np.inf and 0 < K < np.inf and tau >= 0):
            raise ValueError("xi, K must be positive and finite and tau nonnegative")
        if k not in (1, 2):
            raise ValueError("k must be 1 (interpolation) or 2 (quadrature)")
        if not r > max(tau, k):
            raise ValueError("r must exceed max(tau, k)")
        norm_p = float(np.sum(b ** p)) ** (1.0 / p)
        rho = b ** (p - 1.0) * xi / (4.0 * _root_factorial(r) * norm_p)
        try:  # rho is nondecreasing, so the last factor is the largest
            factors = tuple(max(1.0, K * x) ** (2 * k) for x in rho.tolist())
        except OverflowError:
            factors = (inf,)
        if factors[-1] == inf:
            raise ValueError(f"K = {K!r} overflows the factor max(1, K rho_j)**{2 * k}")
        b.setflags(write=False)
        rho.setflags(write=False)
        self._fields(b, p, xi, r, tau, k, K, rho, factors, {})

    @property
    def d_max(self) -> int:
        return self.b.size

    def beta(self, nu: MultiIndex) -> float:
        return binomial_weight(nu, self.r, self.rho)


def surrogate_weight(family: WeightFamily, nu: MultiIndex) -> float:
    """Computable product surrogate ``prod_j max(1, K rho_j)**(2k) nu_j**(r-tau)``.

    Monotone increasing in the exponents and anisotropy-ordered whenever
    ``rho`` is nondecreasing (guaranteed by nonincreasing ``b``).  The factor
    of each (dim, exp) entry is computed once per family, in ``family.table``.
    """
    out, table, factors = 1.0, family.table, family.factors
    for entry in nu.entries:
        try:
            out *= table[entry]
        except KeyError:
            dim, e = entry
            if dim >= len(factors):
                raise ValueError(f"dimension {dim} outside weight family truncation") from None
            out *= table.setdefault(entry, factors[dim] * float(e) ** (family.r - family.tau))
    return out


# -- threshold set construction -------------------------------------------

_new_index, _set_entries = object.__new__, MultiIndex.entries.__set__

TIE = 1e-12  # relative gap below which the walk's values (or their logs) form one group


class ThresholdWalk:
    """Best-first walk of the threshold family of ``surrogate`` on ``d_max``
    dimensions: `pop` takes members in nondecreasing surrogate value.

    Every index has one pusher, so a pop pushes at most three indices:
    ``nu`` with its last exponent raised, ``nu`` plus exponent 1 in the
    first dimension past its support and, when ``nu`` ends in exponent 1,
    ``nu`` with that 1 moved one dimension on.  A pushed value below its
    pusher's raises `ValueError`; only these edges are checked, so a surrogate
    not monotone elsewhere passes.  ``calls`` counts the surrogate calls, and
    ``members`` and ``values`` list the popped indices and their values.
    """

    def __init__(self, surrogate, d_max: int):
        if d_max < 1:
            raise ValueError(f"d_max must be positive, got {d_max}")
        self.surrogate, self.d_max, self.calls = surrogate, d_max, 1
        self.members, self.values = [], []
        self.heap = [(surrogate(MultiIndex()), (), MultiIndex())]

    @property
    def head(self) -> float:
        """The smallest value not popped yet (every pop pushes: d_max >= 1)."""
        return self.heap[0][0]

    def pop(self) -> tuple:
        """The next member as (value, MultiIndex)."""
        value, entries, index = heapq.heappop(self.heap)
        dim, exp = entries[-1] if entries else (-1, 0)
        children = [entries[:-1] + ((dim, exp + 1),)] if entries else []
        if dim + 1 < self.d_max:
            children.append(entries + ((dim + 1, 1),))
            if exp == 1:
                children.append(entries[:-1] + ((dim + 1, 1),))
        for child in children:
            mu = _new_index(MultiIndex)  # valid by construction: no `__init__` checks
            _set_entries(mu, child)
            pushed = self.surrogate(mu)
            self.calls += 1
            if pushed < value:
                raise ValueError(f"surrogate {pushed} at {mu} is below {value} at {index}: "
                                 "it must be monotone with anisotropy ordering")
            heapq.heappush(self.heap, (pushed, child, mu))
        self.members.append(index)
        self.values.append(value)
        return value, index

    def lower(self, eps: float, cap: int):
        """Pop every member with ``1/value >= eps``; `ThresholdTooSmall` past ``cap``."""
        while 1.0 / self.head >= eps:
            if len(self.members) >= cap:
                raise ThresholdTooSmall(
                    f"threshold set exceeded cap of {cap} members (eps={eps})")
            self.pop()


def build_threshold_set(
    surrogate,
    eps: float,
    d_max: int,
    cap: int = 10_000_000,
    stats: dict = None,
) -> IndexSet:
    """All multi-indices whose decreasing surrogate stays at or above ``eps``.

    ``surrogate`` maps a MultiIndex to a positive real, monotone increasing
    with anisotropy ordering (activating an earlier dimension never costs
    more); the result is then exactly ``{nu : 1/surrogate(nu) >= eps}``.
    `ThresholdWalk` checks the order only from each pusher (`ValueError`), so
    a surrogate that breaks it elsewhere can return a set not downward closed.

    The walk calls the surrogate at most ``3 |result| + 1`` times; pass a
    ``stats`` dict to read back the count as ``stats["tests"]``.

    Raises ``ThresholdTooSmall`` once the result exceeds ``cap`` members.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    walk = ThresholdWalk(surrogate, d_max)
    walk.lower(eps, cap)
    if stats is not None:
        stats["tests"] = walk.calls
    return IndexSet(walk.members)
