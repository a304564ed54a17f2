"""Multi-indices, product weight families, and threshold index sets.

A multi-index is a finitely supported sequence of nonnegative integer
exponents; it labels one tensor Hermite polynomial and one tensor grid.
Weight families assign each multi-index a computable surrogate size, and
`build_threshold_set` enumerates all indices whose surrogate reciprocal
stays above a threshold, walking the lattice in linear time in the output
size.
"""

from dataclasses import dataclass, field
from functools import cached_property
from math import comb, factorial, sqrt

import numpy as np

from .errors import ThresholdTooSmall


@dataclass(frozen=True)
class MultiIndex:
    """Finitely supported exponent sequence, stored sparsely.

    ``entries`` is a tuple of (dimension, exponent) pairs with strictly
    increasing 0-based dimensions and positive exponents, so equality and
    hashing are structural.
    """

    entries: tuple = ()

    def __post_init__(self):
        prev = -1
        for dim, exp in self.entries:
            if dim <= prev:
                raise ValueError("dimensions must be strictly increasing")
            if exp <= 0 or int(exp) != exp:
                raise ValueError("stored exponents must be positive integers")
            prev = dim

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


@dataclass(frozen=True)
class WeightFamily:
    """Parameter bundle producing the computable threshold surrogates.

    ``b`` holds the positive decay weights of the representation system
    (nonincreasing, so earlier dimensions matter more), ``p`` the
    summability exponent in (0, 1), and ``k`` selects the interpolation
    (1) or quadrature (2) variant.  The derived ``rho`` sequence is
    ``b_j**(p-1) * xi / (4 sqrt(r!) ||b||_p)``.
    """

    b: np.ndarray
    p: float
    xi: float
    r: int
    tau: float
    k: int
    K: float
    rho: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        b = np.asarray(self.b, dtype=np.float64)
        if b.ndim != 1 or b.size == 0 or np.any(b <= 0):
            raise ValueError("b must be a nonempty positive vector")
        if np.any(np.diff(b) > 0):
            raise ValueError("b must be nonincreasing (anisotropy ordering)")
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must lie in (0, 1)")
        if not (0 < self.xi < np.inf and 0 < self.K < np.inf and self.tau >= 0):
            raise ValueError("xi, K must be positive and finite and tau nonnegative")
        if self.k not in (1, 2):
            raise ValueError("k must be 1 (interpolation) or 2 (quadrature)")
        if not self.r > max(self.tau, self.k):
            raise ValueError("r must exceed max(tau, k)")
        norm_p = float(np.sum(b ** self.p)) ** (1.0 / self.p)
        rho = b ** (self.p - 1.0) * self.xi / (4.0 * _root_factorial(self.r) * norm_p)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "rho", rho)
        self.b.setflags(write=False)
        self.rho.setflags(write=False)

    @property
    def d_max(self) -> int:
        return self.b.size

    def beta(self, nu: MultiIndex) -> float:
        return binomial_weight(nu, self.r, self.rho)


def surrogate_weight(family: WeightFamily, nu: MultiIndex) -> float:
    """Computable product surrogate ``prod_j max(1, K rho_j)**(2k) nu_j**(r-tau)``.

    Monotone increasing in the exponents and anisotropy-ordered whenever
    ``rho`` is nondecreasing (guaranteed by nonincreasing ``b``).
    """
    out = 1.0
    for dim, e in nu.entries:
        if dim >= family.rho.size:
            raise ValueError(f"dimension {dim} outside weight family truncation")
        out *= max(1.0, family.K * family.rho[dim]) ** (2 * family.k) * float(e) ** (
            family.r - family.tau
        )
    return out


# -- threshold set construction -------------------------------------------

def build_threshold_set(
    surrogate,
    eps: float,
    d_max: int,
    cap: int = 10_000_000,
    stats: dict = None,
) -> IndexSet:
    """All multi-indices whose decreasing surrogate stays at or above ``eps``.

    ``surrogate`` maps a MultiIndex to a positive real.  It must be
    monotone increasing with anisotropy ordering (activating an earlier
    dimension never costs more), and the walk thresholds the reciprocal:
    the result is exactly ``{nu : 1/surrogate(nu) >= eps}``.

    The lattice walk evaluates its acceptance test at most ``4 |result| + 1``
    times; pass a ``stats`` dict to read back the counter.

    Raises ``ThresholdTooSmall`` once the result exceeds ``cap`` members.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")

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
