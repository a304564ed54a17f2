"""Univariate normalized probabilists' Hermite polynomials and Gauss rules.

The polynomial family ``H_0, H_1, ...`` is orthonormal with respect to the
standard Gaussian measure on the real line and satisfies the three-term
recurrence ``sqrt(k+1) H_{k+1}(x) = x H_k(x) - sqrt(k) H_{k-1}(x)`` with
``H_0 = 1`` and ``H_1(x) = x``.  Level-``n`` quadrature uses the ``n+1``
roots of ``H_{n+1}`` (so level 0 is the single node 0 with weight 1) and
integrates polynomials of degree up to ``2n+1`` exactly against the
standard Gaussian weight.
"""

from functools import lru_cache

import numpy as np

from . import _accel
from .errors import Frozen, LevelTooLarge

#: Largest supported quadrature level; node separation in double precision is
#: untested beyond this.
MAX_LEVEL = 64


class HermiteRule(Frozen):
    """Nodes and weights of the (n+1)-point Gauss-Hermite rule at level n.

    Nodes are ascending, symmetric about 0 (with an exact 0 node for even
    ``n``); weights are positive and sum to 1.  Both arrays are read-only.
    """

    __slots__ = ("level", "nodes", "weights")

    def __init__(self, level: int, nodes: np.ndarray, weights: np.ndarray):
        nodes.setflags(write=False)
        weights.setflags(write=False)
        self._fields(level, nodes, weights)


def hermite_eval_all(k_max: int, x) -> np.ndarray:
    """Values ``[H_0(x), ..., H_{k_max}(x)]`` in one recurrence pass.

    ``x`` may be a scalar (returns shape ``(k_max+1,)``) or a 1-d array
    (returns shape ``(len(x), k_max+1)``).
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    table = _accel.hermite_matrix(arr, k_max)
    if np.isscalar(x) or np.ndim(x) == 0:
        return table[0]
    return table


@lru_cache(maxsize=None)
def gauss_hermite_rule(n: int) -> HermiteRule:
    """Level-n Gauss-Hermite rule: ``n+1`` nodes, exact to degree ``2n+1``.

    Nodes are the ascending eigenvalues of the dense (n+1) x (n+1) Jacobi
    matrix with zero diagonal and off-diagonals ``sqrt(1) .. sqrt(n)``
    (Golub-Welsch, solved by numpy's ``eigh``, so no scipy import); weights
    come from the squared first eigenvector components, positive by
    construction.
    """
    if n < 0:
        raise ValueError("level must be nonnegative")
    if n > MAX_LEVEL:
        raise LevelTooLarge(f"level {n} exceeds configured maximum {MAX_LEVEL}")
    if n == 0:
        return HermiteRule(0, np.zeros(1), np.ones(1))
    off = np.sqrt(np.arange(1, n + 1, dtype=np.float64))
    nodes, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    weights = vecs[0] ** 2
    # enforce exact symmetry; the middle node of an odd-size rule becomes 0
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    weights = weights / weights.sum()
    return HermiteRule(n, nodes, weights)
