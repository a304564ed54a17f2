"""Shared test helpers: oracles and randomized structures."""

import itertools
import math
from fractions import Fraction

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from hermgrid._accel import _REF_POINTS, _REF_WEIGHTS
from hermgrid.cli import _format, bisect_epsilon
from hermgrid.errors import EmptyAllocation, LevelTooLarge, ThresholdTooSmall
from hermgrid.hermite import MAX_LEVEL, gauss_hermite_rule
from hermgrid.indexset import IndexSet, MultiIndex, build_threshold_set
from hermgrid.multilevel import LevelAllocation, construct_levels, work
from hermgrid.smolyak import combination_coeffs, evaluation_point_count


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


def random_downward_closed(rng, dims: int, max_size: int) -> IndexSet:
    """Grow a random downward closed set by admissible completions."""
    members = {MultiIndex()}
    target = rng.integers(1, max_size + 1)
    while len(members) < target:
        nu = list(members)[rng.integers(0, len(members))]
        dim = int(rng.integers(0, dims))
        candidate = nu.incremented(dim)
        admissible = all(
            candidate.decremented(d) in members for d in candidate.support
        )
        if admissible:
            members.add(candidate)
    return IndexSet(members)


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


def monomial_map(nu: MultiIndex):
    """The monomial ``y**nu`` as a scalar parametric map."""
    needed = nu.max_dim()

    def fn(y):
        y = pad(y, needed)
        out = 1.0
        for dim, exp in nu.entries:
            out *= float(y[dim]) ** exp
        return [out]

    return fn


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
            selected = build_threshold_set(surrogate, eps, d_max, cap=cap)
            return evaluation_point_count(selected) if len(selected) else 0
        except (ThresholdTooSmall, LevelTooLarge):
            return math.inf

    return build_threshold_set(surrogate, bisect_epsilon(cost, budget, lo=lo), d_max)


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
            selected = build_threshold_set(surrogate, eps, d_max, cap=budget)
            if count(selected) <= budget:
                best = selected
        except (ThresholdTooSmall, LevelTooLarge):
            return best
        eps = max(
            1.0 / surrogate(nu.incremented(dim))
            for nu in selected
            for dim in range(d_max)
            if nu.incremented(dim) not in selected
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

    Sums the weights over the set in `IndexSet` iteration order and floors
    each member's cost bound with `floor_level_loop`.
    """
    selected = build_threshold_set(c_surrogate, eps, d_max, cap=cap)
    if len(selected) == 0:
        raise EmptyAllocation(f"threshold {eps} admits no multi-indices")
    exponent = -1.0 / (1.0 + 2.0 * alpha)
    d_values = {nu: float(d_surrogate(nu)) ** exponent for nu in selected}
    total = sum(d_values[nu] for nu in selected)
    prefactor = eps ** (-(0.5 - q1 / 4.0) / alpha) * total ** (1.0 / (2.0 * alpha))
    levels = {
        nu: floor_level_loop(work_sequence.values, prefactor * d_values[nu])
        for nu in selected
    }
    return LevelAllocation(levels, work_sequence)


def ml_work_oracle(surrogate, q1, alpha, work_sequence, d_max, cap=10_000_000):
    """Slow oracle for `hermgrid.cli.ml_work_cost`: a fresh allocation per eps."""

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


def bisection_ml_allocation(surrogate, q1, alpha, budget, work_sequence, d_max,
                            cap=10_000_000):
    """Slow oracle for `hermgrid.cli.ml_allocation_for_budget`: 40 eps
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
