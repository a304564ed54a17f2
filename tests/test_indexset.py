"""Multi-indices, weight families, and the threshold-set walk."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermgrid.errors import NotDownwardClosed, ThresholdTooSmall
from hermgrid.hermite import MAX_LEVEL
from hermgrid.indexset import (
    IndexSet,
    MultiIndex,
    ThresholdWalk,
    WeightFamily,
    binomial_weight,
    build_threshold_set,
    degree_weight,
    is_downward_closed,
    surrogate_weight,
)
from hermgrid.model import ParametricMapFn
from hermgrid.smolyak import largest_threshold_set, quadrature

from util import (
    brute_force_threshold,
    counting,
    downward_closed_oracle,
    lattice_threshold_set,
    random_downward_closed,
    random_product_surrogate,
    shifted,
    surrogate_weight_oracle,
    tied_product_surrogate,
)

mi = MultiIndex.from_dict


class TestMultiIndex:
    def test_canonical_and_validation(self):
        assert mi({2: 1, 0: 3}).entries == ((0, 3), (2, 1))
        assert mi({0: 0, 1: 2}) == mi({1: 2})
        with pytest.raises(ValueError):
            MultiIndex(((0, 1), (0, 2)))
        with pytest.raises(ValueError):
            MultiIndex(((0, -1),))

    def test_order_support_exponent(self):
        nu = mi({0: 2, 3: 1})
        assert nu.order == 3
        assert nu.support == (0, 3)
        assert nu.max_dim() == 4 and MultiIndex().max_dim() == 0

    def test_render_empty(self):
        assert str(MultiIndex()) == "-"


class TestWeights:
    def test_degree_weight(self):
        assert degree_weight(MultiIndex(), 3.0, 1.0) == 1.0
        assert degree_weight(mi({0: 2, 1: 1}), 1.0, 1.0) == pytest.approx(6.0)
        assert degree_weight(mi({0: 1}), 2.0, 1.0) == pytest.approx(4.0)

    def test_binomial_weight(self):
        assert binomial_weight(MultiIndex(), 3, np.ones(4)) == 1.0
        assert binomial_weight(mi({0: 2, 1: 1}), 1, (1.0, 1.0)) == pytest.approx(6.0)
        assert binomial_weight(mi({0: 1}), 2, (2.0,)) == pytest.approx(5.0)

    def test_surrogate_weight_small_rho(self):
        # xi tiny makes K * rho_j <= 1, so only the exponent factor remains
        family = WeightFamily(b=np.ones(2), p=0.5, xi=1e-6, r=5, tau=3.0, k=1, K=1.0)
        assert np.all(family.K * family.rho <= 1.0)
        assert surrogate_weight(family, MultiIndex()) == 1.0
        assert surrogate_weight(family, mi({0: 2, 1: 3})) == pytest.approx(36.0)

    def test_surrogate_weight_large_rho(self):
        # xi chosen so rho_0 = 2 exactly
        xi = 2.0 * 4.0 * math.sqrt(math.factorial(5))
        family = WeightFamily(b=np.ones(1), p=0.5, xi=xi, r=5, tau=3.0, k=2, K=1.0)
        assert family.rho[0] == pytest.approx(2.0)
        assert surrogate_weight(family, mi({0: 2})) == pytest.approx(64.0)

    def test_rho_formula(self):
        b = np.array([1.0, 0.25, 1.0 / 9.0])
        family = WeightFamily(b=b, p=0.5, xi=3.0, r=4, tau=3.0, k=1, K=1.0)
        norm = float(np.sum(b ** 0.5)) ** 2
        expected = b ** (-0.5) * 3.0 / (4.0 * math.sqrt(24) * norm)
        np.testing.assert_allclose(family.rho, expected, rtol=1e-14)
        # at r = 170, the largest r whose r! is a double, the formula holds bitwise
        family = WeightFamily(b=b, p=0.5, xi=3.0, r=170, tau=3.0, k=1, K=1.0)
        norm = float(np.sum(b ** 0.5)) ** (1.0 / 0.5)
        expected = b ** (0.5 - 1.0) * 3.0 / (4.0 * math.sqrt(math.factorial(170)) * norm)
        np.testing.assert_array_equal(family.rho, expected)

    def test_family_validation(self):
        with pytest.raises(ValueError):
            WeightFamily(b=np.array([1.0, 2.0]), p=0.5, xi=1.0, r=4, tau=3.0, k=1, K=1.0)
        with pytest.raises(ValueError):
            WeightFamily(b=np.ones(2), p=1.5, xi=1.0, r=4, tau=3.0, k=1, K=1.0)
        with pytest.raises(ValueError):
            WeightFamily(b=np.ones(2), p=0.5, xi=1.0, r=3, tau=3.0, k=1, K=1.0)
        with pytest.raises(ValueError):
            WeightFamily(b=np.ones(2), p=0.5, xi=1.0, r=4, tau=3.0, k=3, K=1.0)
        # r! leaves the double range past 170; xi and K must be finite
        for r in (171, 500):
            with pytest.raises(ValueError, match=f"r must be at most 170, got {r}"):
                WeightFamily(b=np.ones(2), p=0.5, xi=1.0, r=r, tau=3.0, k=1, K=1.0)
        with pytest.raises(ValueError, match="xi, K must be positive and finite"):
            WeightFamily(b=np.ones(2), p=0.5, xi=math.inf, r=4, tau=3.0, k=1, K=1.0)
        with pytest.raises(ValueError, match="xi, K must be positive and finite"):
            WeightFamily(b=np.ones(2), p=0.5, xi=1.0, r=4, tau=3.0, k=1, K=math.inf)

    @given(st.dictionaries(st.integers(0, 3), st.integers(1, 6), max_size=4))
    @settings(max_examples=50)
    def test_weights_at_least_one(self, entries):
        nu = MultiIndex.from_dict(entries)
        family = WeightFamily(b=np.ones(4), p=0.5, xi=1.0, r=4, tau=3.0, k=1, K=1.0)
        assert degree_weight(nu, 3.0, 1.0) >= 1.0
        assert binomial_weight(nu, 4, family.rho) >= 1.0
        assert surrogate_weight(family, nu) >= 1.0
        if not nu.entries:
            assert degree_weight(nu, 3.0, 1.0) == 1.0
            assert binomial_weight(nu, 4, family.rho) == 1.0
            assert surrogate_weight(family, nu) == 1.0

    @given(st.lists(st.floats(0.05, 20.0), min_size=2, max_size=8), st.floats(0.05, 0.95),
           st.floats(0.0, 6.0), st.integers(1, 2), st.integers(1, 6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_surrogate_weight_matches_per_entry_oracle(self, b, p, tau, k, extra, data):
        # K puts K rho_j below 1 up to some dimension and above 1 after it;
        # b values an ulp apart would give K rho_j == 1.0 on both sides of the
        # cut, so they are rounded apart first
        b = np.sort(np.unique(np.round(b, 6)))[::-1]
        if b.size < 2:
            b = np.array([2.0, 1.0])
        r = math.floor(max(tau, k)) + extra
        base = WeightFamily(b=b, p=p, xi=1.0, r=r, tau=tau, k=k, K=1.0)
        cut = data.draw(st.integers(0, b.size - 2))
        family = WeightFamily(b=b, p=p, xi=1.0, r=r, tau=tau, k=k,
                              K=1.0 / math.sqrt(base.rho[cut] * base.rho[cut + 1]))
        assert min(family.K * family.rho) < 1.0 < max(family.K * family.rho)
        nu = MultiIndex.from_dict(data.draw(st.dictionaries(
            st.integers(0, b.size - 1), st.integers(1, MAX_LEVEL), max_size=b.size)))
        got = surrogate_weight(family, nu)
        assert type(got) is float and got == surrogate_weight_oracle(family, nu)

    @pytest.mark.parametrize("k", [1, 2])
    def test_binomial_dominates_surrogate(self, k):
        # the ratio beta / (c * p) factorizes over dimensions, so a valid
        # global constant is the product of fitted per-dimension minima;
        # verify the fitted constant on a multi-dimensional box it never saw
        import itertools

        b = 4.0 ** -np.arange(4, dtype=float)
        xi = 4.0 * math.sqrt(math.factorial(5)) * float(np.sum(b ** 0.5)) ** 2
        family = WeightFamily(b=b, p=0.5, xi=xi, r=5, tau=3.0, k=k, K=1.0)

        def ratio(nu):
            lhs = surrogate_weight(family, nu) * degree_weight(nu, family.tau, 1.0)
            return family.beta(nu) / lhs

        c0 = 1.0
        for dim in range(4):
            sweep = min(
                ratio(mi({dim: e})) for e in range(max(k, 1), 41)
            )
            c0 *= min(1.0, sweep)
        assert c0 > 0.0

        for combo in itertools.product(range(7), repeat=4):
            if any(0 < e < k for e in combo):
                continue  # the bound is claimed on F_k only
            nu = MultiIndex.from_exponents(combo)
            lhs = c0 * surrogate_weight(family, nu) * degree_weight(nu, 3.0, 1.0)
            assert lhs <= family.beta(nu) * (1.0 + 1e-12)


class TestDownwardClosed:
    def test_examples(self):
        assert is_downward_closed(IndexSet([MultiIndex()]))
        assert is_downward_closed(IndexSet([MultiIndex(), mi({0: 1}), mi({0: 2})]))
        assert not is_downward_closed(IndexSet([mi({0: 1})]))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(1, 40), st.data())
    def test_entry_tuples_match_predecessor_oracle(self, seed, dims, size, data):
        closed = random_downward_closed(np.random.default_rng(seed), dims, size)
        assert is_downward_closed(closed) and downward_closed_oracle(closed)
        members = closed.sorted_members
        # any member dropped (a maximal one keeps the set closed) ...
        dropped = data.draw(st.sampled_from(members))
        cut = IndexSet(nu for nu in members if nu != dropped)
        assert is_downward_closed(cut) == downward_closed_oracle(cut)
        # ... and a member's predecessor dropped
        predecessors = sorted({shifted(nu, d, -1) for nu in members for d in nu.support},
                              key=MultiIndex.sort_key)
        if predecessors:
            dropped = data.draw(st.sampled_from(predecessors))
            cut = IndexSet(nu for nu in members if nu != dropped)
            assert not is_downward_closed(cut) and not downward_closed_oracle(cut)


class TestThresholdWalk:
    def test_spec_example(self):
        def c(nu):
            out = 1.0
            for d, e in nu.entries:
                out *= 2.0 ** (e * (d + 1))
            return out

        stats = {}
        result = build_threshold_set(c, 1.0 / 8.0, d_max=3, stats=stats)
        expected = brute_force_threshold(c, 1.0 / 8.0, dims=3, box=4)
        assert set(result.members) == expected
        assert result.downward_closed
        assert stats["tests"] <= 4 * len(result) + 1

    def test_empty_when_threshold_excludes_origin(self):
        result = build_threshold_set(lambda nu: 1.0, 1.5, d_max=2)
        assert len(result) == 0

    def test_cap(self):
        with pytest.raises(ThresholdTooSmall):
            build_threshold_set(
                lambda nu: 1.001 ** nu.order, 1e-12, d_max=2, cap=50
            )
        # the ladder {0, e_0, ..., 4 e_0} fits a cap of 5 members, not 4
        assert len(build_threshold_set(lambda nu: 2.0 ** nu.order, 2.0 ** -4, 1, cap=5)) == 5
        with pytest.raises(ThresholdTooSmall):
            build_threshold_set(lambda nu: 2.0 ** nu.order, 2.0 ** -4, 1, cap=4)

    def test_refusals(self):
        for eps in (0.0, -1.0):
            with pytest.raises(ValueError, match="eps must be positive"):
                build_threshold_set(lambda nu: 1.0, eps, d_max=2)
        # a walk on no dimension would pop the origin and then find nothing left
        with pytest.raises(ValueError, match="d_max must be positive, got 0"):
            build_threshold_set(lambda nu: 1.0, 0.5, d_max=0)
        with pytest.raises(ValueError, match="d_max must be positive, got 0"):
            largest_threshold_set(lambda nu: 1.0, [5], 0)

    def test_randomized_against_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(12):
            dims = int(rng.integers(1, 5))
            surrogate, _, growth = random_product_surrogate(rng, dims)
            eps = 10.0 ** rng.uniform(-3, -0.5)
            box = int(math.log(1.0 / eps) / math.log(growth.min())) + 1
            stats = {}
            result = build_threshold_set(surrogate, eps, d_max=dims, stats=stats)
            assert set(result.members) == brute_force_threshold(
                surrogate, eps, dims, box
            )
            assert result.downward_closed
            assert stats["tests"] <= 4 * len(result) + 1

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 64), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_walk_on_tied_surrogates(self, seed, d_max, t):
        surrogate, _, _ = tied_product_surrogate(np.random.default_rng(seed), d_max)
        counted, calls = counting(surrogate)
        walk = ThresholdWalk(counted, d_max)
        eps = 2.0 ** -t  # values are exact, so some sit on the threshold
        values = []
        while 1.0 / walk.head >= eps:
            values.append(walk.pop()[0])
        assert values == sorted(values)
        # every index has one pusher: none is pushed twice
        assert len(set(calls)) == len(calls) == walk.calls <= 3 * len(values) + 1
        stats = {}
        built = build_threshold_set(surrogate, eps, d_max, stats=stats)
        assert built == IndexSet(walk.members) == lattice_threshold_set(surrogate, eps, d_max)
        assert stats["tests"] == walk.calls

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.booleans(), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_walk_pops_by_value_then_entries(self, seed, d_max, tied, t):
        # every child's entries sort after its pusher's, so the heap pops the
        # threshold set in (value, entries) order, ties included; the
        # multilevel oracle sums the weights in this order
        make = tied_product_surrogate if tied else random_product_surrogate
        surrogate, _, _ = make(np.random.default_rng(seed), d_max)
        walk = ThresholdWalk(surrogate, d_max)
        walk.lower(2.0 ** -t, 10 ** 6)
        assert walk.members == sorted(lattice_threshold_set(surrogate, 2.0 ** -t, d_max),
                                      key=lambda nu: (surrogate(nu), nu.entries))

    @given(st.integers(0, 2 ** 32 - 1), st.lists(st.integers(1, 300), min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_budget_walk_cost_independent_of_truncation(self, seed, budgets):
        surrogate, _, _ = tied_product_surrogate(np.random.default_rng(seed), 1024)
        narrow, narrow_calls = counting(surrogate)
        wide, wide_calls = counting(surrogate)
        sets = largest_threshold_set(narrow, budgets, 64)
        assert max(s.dimension() for s in sets) < 64
        assert largest_threshold_set(wide, budgets, 1024) == sets
        # truncation past the walk's dimensions costs no surrogate call
        assert len(wide_calls) == len(narrow_calls)

    @pytest.mark.parametrize("g, eps, box, size, lattice_size", [
        ((3.0, 1.5, 1.2), 0.1, 12, 61, 55),
        ((5.0, 1.1), 1e-3, 72, 195, 195),
    ])
    def test_unordered_surrogate_raises(self, g, eps, box, size, lattice_size):
        # activating dimension 1 costs less than dimension 0, so the walk
        # names the first index out of order; the unchecked lattice DFS
        # silently misses members of the first set
        c = lambda nu: math.prod(g[d] ** e for d, e in nu.entries)
        assert len(brute_force_threshold(c, eps, len(g), box)) == size
        assert len(lattice_threshold_set(c, eps, len(g))) == lattice_size
        message = re.escape(f"surrogate {g[1]} at 1:1 is below {g[0]} at 0:1")
        with pytest.raises(ValueError, match=message):
            build_threshold_set(c, eps, len(g))
        with pytest.raises(ValueError, match=message):
            largest_threshold_set(c, [100], len(g))

    def test_unordered_surrogate_off_the_push_edges_passes(self):
        # 1:1 costs more than 0:1 1:1 above it, but the walk compares each
        # pushed value only with its pusher's (0:1 pushes both), so the set at
        # eps = 1/3.5 lacks 1:1 and no ValueError is raised; only an operator
        # on the set notices
        values = {(): 1.0, ((0, 1),): 2.0, ((1, 1),): 10.0, ((0, 1), (1, 1)): 3.0}
        c = lambda nu: values.get(nu.entries, 100.0 + nu.order)
        selected = build_threshold_set(c, 1 / 3.5, 2)
        assert selected.members == {MultiIndex(), mi({0: 1}), mi({0: 1, 1: 1})}
        assert not selected.downward_closed
        with pytest.raises(NotDownwardClosed):
            quadrature(selected, ParametricMapFn(lambda rows: rows[:, :1], 1))

    @given(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=64), st.floats(0.1, 0.9),
           st.floats(0.1, 10.0), st.integers(3, 12), st.floats(0.0, 1.0),
           st.sampled_from([1, 2]), st.floats(1e-2, 1e6))
    @settings(max_examples=40, deadline=None)
    def test_weight_family_surrogates_are_ordered(self, b, p, xi, r, tau_frac, k, K):
        family = WeightFamily(b=np.sort(b)[::-1], p=p, xi=xi, r=r, tau=tau_frac * (r - 1),
                              k=k, K=K)
        walk = ThresholdWalk(lambda nu: surrogate_weight(family, nu), family.d_max)
        values = [walk.pop()[0] for _ in range(500)]
        assert values == sorted(values)
