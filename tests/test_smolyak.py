"""Single-level Smolyak interpolation and quadrature."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hermgrid import smolyak
from hermgrid.cli import resolve_config
from hermgrid.errors import EmptyIndexSet, LevelTooLarge, NotDownwardClosed, ThresholdTooSmall
from hermgrid.hermite import MAX_LEVEL, gauss_hermite_rule, hermite_eval_all
from hermgrid.indexset import (IndexSet, MultiIndex, ThresholdWalk, degree_weight,
                               surrogate_weight)
from hermgrid.model import ParametricMapFn
from hermgrid.smolyak import (
    HermitePolynomial,
    _shared,
    combination_coeffs,
    evaluation_point_count,
    interpolate,
    largest_threshold_set,
    quadrature,
    sparse_grid_points,
    zero_polynomial,
)

from util import (
    bisection_threshold_set,
    combination_coeffs_oracle,
    counting,
    listed_point_count,
    merged_coefficients,
    monomial_map,
    node_key,
    pad,
    pattern_nodes_oracle,
    pointwise,
    product_map,
    quadrature_oracle,
    random_downward_closed,
    random_product_surrogate,
    scan_threshold_set,
    tensor_moment,
    term_layout_oracle,
)

mi = MultiIndex.from_dict


def ladder(n, dim=0):
    """1-d index ladder {0, 1, ..., n} in the given dimension."""
    return IndexSet(
        [MultiIndex()] + [mi({dim: k}) for k in range(1, n + 1)]
    )


class TestCombination:
    def test_single_member(self):
        terms = combination_coeffs(IndexSet([MultiIndex()]))
        assert terms == {MultiIndex(): 1}

    def test_univariate_ladder_telescopes(self):
        terms = combination_coeffs(ladder(2))
        assert terms == {mi({0: 2}): 1}

    def test_cross(self):
        lam = IndexSet([MultiIndex(), mi({0: 1}), mi({1: 1})])
        terms = combination_coeffs(lam)
        assert terms == {MultiIndex(): -1, mi({0: 1}): 1, mi({1: 1}): 1}

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_matches_pick_by_pick_oracle(self, seed, dims, size):
        lam = random_downward_closed(np.random.default_rng(seed), dims, size)
        assert list(combination_coeffs(lam).items()) == list(
            combination_coeffs_oracle(lam).items())

    def test_coefficients_sum_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            lam = random_downward_closed(rng, 3, 20)
            assert sum(combination_coeffs(lam).values()) == 1

    def test_requires_downward_closed_nonempty(self):
        with pytest.raises(NotDownwardClosed):
            combination_coeffs(IndexSet([mi({0: 1})]))
        with pytest.raises(EmptyIndexSet):
            combination_coeffs(IndexSet([]))


class TestSparseGrid:
    def test_origin_only(self):
        grid = sparse_grid_points(IndexSet([MultiIndex()]))
        np.testing.assert_array_equal(grid, [[0.0]])

    def test_evaluation_points_skip_cancelled_grids(self):
        # the level-0 grid {0} cancels in {0, 1}; ladder(2) keeps only level 2
        grid = sparse_grid_points(ladder(1))
        assert grid.shape == (2, 1)
        assert sorted(float(p[0]) for p in grid) == pytest.approx([-1.0, 1.0])
        grid = sparse_grid_points(ladder(2))
        np.testing.assert_allclose(sorted(grid[:, 0]), [-np.sqrt(3), 0.0, np.sqrt(3)],
                                   atol=1e-14)

    def test_point_count_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            lam = random_downward_closed(rng, 3, 20)
            bound = sum(degree_weight(nu, 1.0, 1.0) for nu in combination_coeffs(lam))
            assert evaluation_point_count(lam) <= bound + 1e-9

    def test_nodes_are_the_distinct_nodes_of_the_signed_grids(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            lam = random_downward_closed(rng, 3, 20)
            nodes = sparse_grid_points(lam)
            expected = set()
            for nu in combination_coeffs(lam):
                rules = [gauss_hermite_rule(e).nodes for _, e in nu.entries]
                for combo in itertools.product(*rules):
                    point = np.zeros(nodes.shape[1])
                    point[list(nu.support)] = combo
                    expected.add(tuple(point))
            assert len(nodes) == len(expected) == evaluation_point_count(lam)
            assert {tuple(row) for row in nodes} == expected

    @pytest.mark.parametrize("operator", [quadrature, interpolate])
    def test_one_call_per_node_in_row_order(self, operator):
        rng = np.random.default_rng(17)
        for _ in range(10):
            lam = random_downward_closed(rng, 3, 20)
            calls = []

            def u(y):
                calls.append(np.array(y))
                return float(np.sum(y))

            operator(lam, pointwise(u))
            assert len(calls) == evaluation_point_count(lam)
            np.testing.assert_array_equal(np.array(calls), sparse_grid_points(lam))

    def test_terms_in_sort_key_order_without_zeros(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            terms = combination_coeffs(random_downward_closed(rng, 3, 20))
            keys = [nu.sort_key() for nu in terms]
            assert keys == sorted(keys) and 0 not in terms.values()

    def test_points_require_downward_closed(self):
        with pytest.raises(NotDownwardClosed):
            sparse_grid_points(IndexSet([MultiIndex(), mi({0: 1, 1: 1})]))


class TestPatternCount:
    def test_zero_node_exactly_at_even_levels_and_nonzero_nodes_distinct(self):
        # so a nonzero node is fixed by (dim, level, index) and 0 is shared
        seen = set()
        for level in range(MAX_LEVEL + 1):
            nodes = gauss_hermite_rule(level).nodes.tolist()
            assert nodes.count(0.0) == (level % 2 == 0)
            nonzero = [v for v in nodes if v != 0.0]
            assert len(set(nonzero)) == len(nonzero) and seen.isdisjoint(nonzero)
            seen.update(nonzero)
        assert len(seen) == 2112

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 40))
    @example(0, 1, 40)  # the ladder to level 34: even and odd levels
    @example(1, 2, 30)  # even and odd exponents together in 2-d grids
    @settings(max_examples=100, deadline=None)
    def test_matches_listing_oracle(self, seed, dims, size):
        lam = random_downward_closed(np.random.default_rng(seed), dims, size)
        count = evaluation_point_count(lam)
        assert count == listed_point_count(lam) == len(sparse_grid_points(lam))

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 150))
    @settings(max_examples=40, deadline=None)
    def test_walk_matches_listing_scan(self, seed, dims, budget):
        surrogate, _, _ = random_product_surrogate(np.random.default_rng(seed), dims)
        assert largest_threshold_set(surrogate, [budget], dims)[0] == scan_threshold_set(
            surrogate, budget, dims, count=listed_point_count
        )

    def test_level_above_max_raises(self):
        assert evaluation_point_count(ladder(MAX_LEVEL)) == listed_point_count(
            ladder(MAX_LEVEL)
        )
        with pytest.raises(LevelTooLarge):
            evaluation_point_count(ladder(MAX_LEVEL + 1))
        cross = IndexSet(ladder(MAX_LEVEL + 1).members | {mi({1: 1})})
        with pytest.raises(LevelTooLarge):
            evaluation_point_count(cross)


def sindecay_surrogate(d_max):
    """Quadrature surrogate of the CLI's default weights on the sine system."""
    study = resolve_config("quad", {"system": "sindecay", "d_max": str(d_max)}, 0)
    family = study.weight_family(2)
    return lambda nu: surrogate_weight(family, nu)


class TestLargestThresholdSet:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 300))
    @settings(max_examples=100, deadline=None)
    def test_matches_bisection_oracle(self, seed, dims, budget):
        surrogate, _, _ = random_product_surrogate(np.random.default_rng(seed), dims)
        selected, = largest_threshold_set(surrogate, [budget], dims)
        assert len(selected) == 0 or evaluation_point_count(selected) <= budget
        # a set of more than `budget` members needs more than `budget` nodes
        # (test_node_count_at_least_members), so the oracle may prune it; its
        # eps range reaches the steepest surrogates' 300-member sets
        bisected = bisection_threshold_set(surrogate, budget, dims, cap=budget, lo=1e-300)
        if selected != bisected:
            # bisection can stop short where the node count falls as eps falls
            assert bisected.members < selected.members
            assert selected == scan_threshold_set(surrogate, budget, dims)

    def test_beats_bisection_where_node_count_falls(self):
        # threshold sets of 29..32 members need 73, 77, 77, 75 nodes: the
        # 32-member set fits 75, but bisection stops at 29 after probing 30
        surrogate, _, _ = random_product_surrogate(np.random.default_rng(3279273494), 5)
        selected, = largest_threshold_set(surrogate, [75], 5)
        assert len(selected) == 32 and evaluation_point_count(selected) == 75
        assert selected == scan_threshold_set(surrogate, 75, 5)
        assert len(bisection_threshold_set(surrogate, 75, 5, cap=75, lo=1e-300)) == 29

    def test_node_count_at_least_members(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            lam = random_downward_closed(rng, 4, 40)
            assert evaluation_point_count(lam) >= len(lam)

    def test_one_ulp_ties_stay_together(self):
        # members 22-26 share the value 2**18 up to one ulp; splitting them
        # would pick a 22-member set
        selected, = largest_threshold_set(sindecay_surrogate(16), [50], 16)
        assert len(selected) == 21
        assert evaluation_point_count(selected) == 47

    def test_budget_one_is_empty(self):
        # rho_0 = 1 ties e_0 with the empty index, and their set needs 2 nodes
        assert largest_threshold_set(sindecay_surrogate(16), [1], 16) == [IndexSet([])]
        assert largest_threshold_set(sindecay_surrogate(16), [2], 16) == [
            IndexSet([MultiIndex(), mi({0: 1})])
        ]

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.booleans(),
           st.lists(st.integers(1, 300), min_size=1, max_size=6))
    @example(0, 1, False, [300, 20, 65, 66, 20])  # the ladder stops at MAX_LEVEL
    @example(0, 3, True, [1, 2, 10, 4])  # exact ties across dimensions
    @settings(max_examples=80, deadline=None)
    def test_one_walk_answers_every_budget(self, seed, dims, tied, budgets):
        if tied:  # symmetric in the dimensions: whole groups tie exactly
            surrogate = lambda nu: 2.0 ** nu.order * 3.0 ** len(nu.entries)
        else:
            surrogate, _, _ = random_product_surrogate(np.random.default_rng(seed), dims)
        walked = largest_threshold_set(surrogate, budgets, dims)
        assert walked == [largest_threshold_set(surrogate, [b], dims)[0] for b in budgets]
        # equal sets come back as one object, so their terms are computed once
        assert len({id(s) for s in walked}) == len({s.members for s in walked})

    def test_one_walk_on_the_sine_system(self):
        # one-ulp ties (see above), up to a budget four times the one below it
        budgets = [25, 50, 100, 200, 800]
        surrogate = sindecay_surrogate(16)
        assert largest_threshold_set(surrogate, budgets, 16) == [
            largest_threshold_set(surrogate, [b], 16)[0] for b in budgets
        ]

    def test_stops_below_missing_rule(self):
        surrogate, _, _ = random_product_surrogate(np.random.default_rng(0), 1)
        assert largest_threshold_set(surrogate, [300], 1) == [ladder(MAX_LEVEL)]

    def test_walk_past_the_cap_raises_naming_the_budget(self):
        # the ladder's walk stops by itself after MAX_LEVEL + 2 pops (the last
        # one past the rules) and, at budget 10, after 11: a cap of that many
        # members holds, one less raises
        surrogate, _, _ = random_product_surrogate(np.random.default_rng(0), 1)
        for budget, pops in ((300, MAX_LEVEL + 2), (10, 11)):
            assert largest_threshold_set(surrogate, [budget], 1, cap=pops) == \
                largest_threshold_set(surrogate, [budget], 1)
            message = f"budget {budget}: the threshold walk reached the cap of {pops - 1} members"
            with pytest.raises(ThresholdTooSmall, match=message):
                largest_threshold_set(surrogate, [budget], 1, cap=pops - 1)

    def test_complete_only_when_the_rules_run_out(self):
        # the ladder is complete at its last set with rules, of 65 nodes; a
        # budget below that cuts it short
        surrogate, _, _ = random_product_surrogate(np.random.default_rng(0), 1)
        walked = largest_threshold_set(surrogate, [64, 65, 300], 1)
        assert walked[1] is walked[2] == ladder(MAX_LEVEL) != walked[0]
        # e_1 ties the missing rule's e_0 * 65 and is walked first; the set
        # before their group is still the last one with rules
        tied = lambda nu: 2.0 ** (dict(nu.entries).get(0, 0) + 65 * dict(nu.entries).get(1, 0))
        selected, = largest_threshold_set(tied, [300], 2)
        assert selected == ladder(MAX_LEVEL)

    @pytest.mark.parametrize("d_max", [12, 64])
    def test_tie_group_past_the_budget_is_left_unfinished(self, monkeypatch, d_max):
        # every 0/1 index ties the origin at 1, as on `blocks`: the first group
        # has 2**d_max members, and no budget fits it (nodes >= members)
        pops, pop = [], ThresholdWalk.pop
        monkeypatch.setattr(ThresholdWalk, "pop", lambda walk: pops.append(1) or pop(walk))
        surrogate, calls = counting(lambda nu: math.prod(float(e) ** 2 for _, e in nu.entries))
        walked = largest_threshold_set(surrogate, [25, 50], d_max)
        assert walked == [IndexSet([])] * 2
        assert len(pops) <= 52 and len(calls) <= 3 * 52 + 1


class TestInterpolate:
    def test_constant(self):
        poly = interpolate(IndexSet([MultiIndex()]), pointwise(lambda y: 3.0))
        assert poly.coefficients.keys() == {MultiIndex()}
        assert poly.eval([0.4])[0] == pytest.approx(3.0)

    def test_square_in_hermite_basis(self):
        poly = interpolate(ladder(2), pointwise(lambda y: y[0] ** 2))
        assert poly.coefficient(MultiIndex())[0] == pytest.approx(1.0, abs=1e-12)
        assert poly.coefficient(mi({0: 2}))[0] == pytest.approx(np.sqrt(2), rel=1e-12)
        assert abs(poly.coefficient(mi({0: 1}))[0]) < 1e-14
        assert poly.eval([2.0])[0] == pytest.approx(4.0, rel=1e-12)

    def test_truncation_error_against_dense_quadrature(self):
        # distance of H_3 to its degree-2 interpolant, measured two ways
        target = lambda y: hermite_eval_all(3, float(y[0]))[3]
        poly = interpolate(ladder(2), pointwise(target))
        diff_sq = poly + HermitePolynomial({mi({0: 3}): np.array([-1.0])}, 1)
        parseval = diff_sq.l2_norm()
        rule = gauss_hermite_rule(40)
        vals = np.array([target([x]) - poly.eval([x])[0] for x in rule.nodes])
        dense = np.sqrt(np.sum(rule.weights * vals ** 2))
        assert parseval == pytest.approx(dense, rel=1e-10)

    def test_lagrange_form_agreement(self):
        lam = IndexSet(
            [MultiIndex(), mi({0: 1}), mi({1: 1}), mi({0: 1, 1: 1}), mi({0: 2})]
        )
        u = lambda y: float(np.sin(y[0]) + y[1] ** 2 + 0.3 * y[0] * y[1])
        poly = interpolate(lam, pointwise(u))
        expansion = combination_coeffs(lam)
        rng = np.random.default_rng(2)
        for _ in range(20):
            y = rng.uniform(-3, 3, 2)
            direct = 0.0
            for nu, sigma in expansion.items():
                axes = [gauss_hermite_rule(e).nodes for _, e in nu.entries]
                term = 0.0
                for combo in itertools.product(*[range(a.size) for a in axes]):
                    point = np.zeros(2)
                    weight = 1.0
                    for (dim, _), pick, nodes in zip(nu.entries, combo, axes):
                        point[dim] = nodes[pick]
                        for other in range(nodes.size):
                            if other != pick:
                                weight *= (y[dim] - nodes[other]) / (
                                    nodes[pick] - nodes[other]
                                )
                    term += u(point) * weight
                direct += sigma * term
            assert poly.eval(y)[0] == pytest.approx(direct, rel=1e-10, abs=1e-10)

    def test_polynomial_reproduction_randomized(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            lam = random_downward_closed(rng, 3, 15)
            coeffs = {nu: rng.uniform(-2, 2) for nu in lam}

            def u(y):
                return sum(c * monomial_map(nu)(y)[0] for nu, c in coeffs.items())

            poly = interpolate(lam, pointwise(u))
            scale = 1.0 + sum(abs(c) for c in coeffs.values())
            for _ in range(20):
                y = rng.uniform(-3, 3, 3)
                assert abs(poly.eval(y)[0] - u(y)) <= 1e-9 * scale

    def test_vector_outputs_componentwise(self):
        poly = interpolate(ladder(2), pointwise(lambda y: [y[0] ** 2, 2.0], 2))
        np.testing.assert_allclose(
            poly.coefficient(mi({0: 2})), [np.sqrt(2), 0.0], atol=1e-13
        )
        np.testing.assert_allclose(poly.eval([1.5]), [2.25, 2.0], rtol=1e-12)

    def test_eval_examples(self):
        assert HermitePolynomial({MultiIndex(): np.array([2.5])}, 1).eval(
            [9.9]
        )[0] == pytest.approx(2.5)
        poly = HermitePolynomial(
            {mi({0: 2}): np.array([np.sqrt(2)]), MultiIndex(): np.array([1.0])}, 1
        )
        assert poly.eval([2.0])[0] == pytest.approx(4.0)
        lin = HermitePolynomial({mi({0: 1}): np.array([1.0])}, 1)
        assert lin.eval([-1.5])[0] == pytest.approx(-1.5)


class TestQuadrature:
    def test_odd_monomial_outside_set(self):
        assert quadrature(IndexSet([MultiIndex()]), pointwise(lambda y: y[0]))[0] == 0.0

    def test_second_moment(self):
        assert quadrature(ladder(2), pointwise(lambda y: y[0] ** 2))[0] == pytest.approx(1.0)

    def test_lognormal_moment(self):
        got = quadrature(ladder(10), pointwise(lambda y: np.exp(0.5 * y[0])))[0]
        assert got == pytest.approx(np.exp(0.125), abs=1e-10)

    def test_exactness_on_set_and_unit_exponents(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            lam = random_downward_closed(rng, 3, 15)
            for nu in lam:
                got = quadrature(lam, monomial_map(nu))[0]
                assert got == pytest.approx(tensor_moment(nu), abs=1e-9)
            # indices with a unit exponent are integrated exactly even outside
            probe = mi({0: 1, 1: 2})
            got = quadrature(lam, monomial_map(probe))[0]
            assert got == pytest.approx(0.0, abs=1e-9)

    def test_matches_constant_coefficient(self):
        rng = np.random.default_rng(31)
        for _ in range(6):
            lam = random_downward_closed(rng, 2, 12)
            u = pointwise(lambda y: float(np.exp(0.3 * pad(y, 2)[0]) * np.cos(0.5 * pad(y, 2)[1])))
            q = quadrature(lam, u)[0]
            c = interpolate(lam, u).coefficient(MultiIndex())[0]
            assert abs(q - c) <= 1e-12


class TestShared:
    @pytest.mark.parametrize("operator", [quadrature, interpolate])
    def test_bare_callable_is_refused(self, operator):
        with pytest.raises(TypeError, match="got function"):
            operator(ladder(2), lambda y: y[0] ** 2)
        with pytest.raises(TypeError, match="got ufunc"):
            operator(ladder(2), np.sin)

    def test_wrapping_twice_is_one_cache(self):
        calls = []

        def u(y):
            calls.append(tuple((j, v) for j, v in enumerate(y.tolist()) if v))
            return float(np.sum(np.cos(y)))

        once = _shared(pointwise(u))
        assert _shared(once) is once
        lam = random_downward_closed(np.random.default_rng(5), 3, 14)
        quadrature(lam, once)
        interpolate(lam, _shared(once))
        quadrature(lam, once)
        assert len(calls) == len(set(calls)) == len(sparse_grid_points(lam))


    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([quadrature, interpolate]))
    @settings(max_examples=40, deadline=None)
    def test_one_call_per_set_on_its_new_nodes(self, seed, operator):
        # each call passes the map one stack: the set's nodes not evaluated by
        # an earlier call, in `sparse_grid_points` order
        rng = np.random.default_rng(seed)
        stacks, seen = [], set()

        def fn(rows):
            stacks.append(rows.copy())
            return np.cos(rows).sum(axis=1, keepdims=True)

        shared = _shared(ParametricMapFn(fn, 1))
        for _ in range(3):
            lam = random_downward_closed(rng, 4, 15)
            made = len(stacks)
            operator(lam, shared)
            points = sparse_grid_points(lam)
            new = [row for row in points if node_key(row) not in seen]
            assert len(stacks) == made + bool(new)
            if new:
                np.testing.assert_array_equal(stacks[-1], new)
            seen.update(node_key(row) for row in points)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_warm_term_sums_match_cold_oracle(self, seed):
        # sets drawn from one stream share low terms, so later quadratures
        # reuse the map's weighted term sums; a repeat reuses all of them
        rng = np.random.default_rng(seed)
        shared = _shared(ParametricMapFn(product_map, 2))
        for _ in range(4):
            lam = random_downward_closed(rng, 4, 15)
            cold = quadrature_oracle(lam, product_map, 2).tobytes()
            assert quadrature(lam, shared).tobytes() == cold
            assert all(nu.entries in shared.sums for nu in combination_coeffs(lam))
            assert quadrature(lam, shared).tobytes() == cold


@st.composite
def grid_entries(draw, max_dims: int):
    """(dim, level) pairs with increasing dims, at most two levels above 4 (up
    to MAX_LEVEL), so a grid has at most 65**2 * 5**(max_dims - 2) nodes."""
    dims = sorted(draw(st.sets(st.integers(0, 7), max_size=max_dims)))
    big = draw(st.permutations(dims))[:2]
    return tuple((d, draw(st.integers(1, MAX_LEVEL if d in big else 4))) for d in dims)


class TestKernelOracles:
    @given(grid_entries(3), st.integers(0, 4))
    @example(((0, MAX_LEVEL), (3, MAX_LEVEL - 1)), 0)
    @example((), 0)
    @settings(max_examples=150, deadline=None)
    def test_pattern_nodes_match_meshgrid(self, entries, pad_width):
        for pattern in smolyak._patterns(entries):
            width = max((d + 1 for d, _ in pattern), default=1) + pad_width
            got = smolyak._pattern_nodes.__wrapped__(pattern, width)
            want = pattern_nodes_oracle(pattern, width)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @given(grid_entries(4))
    @example(((0, MAX_LEVEL), (2, 2), (7, MAX_LEVEL)))
    @example(((1, MAX_LEVEL - 1),))
    @example(())
    @settings(max_examples=150, deadline=None)
    def test_term_layout_matches_ravel_multi_index(self, entries):
        patterns, order = smolyak._term_layout.__wrapped__(entries)
        want_patterns, want_order = term_layout_oracle(entries)
        assert patterns == want_patterns
        assert order.dtype == want_order.dtype and order.tobytes() == want_order.tobytes()

    @given(grid_entries(3), st.sampled_from(["C", "F", "reversed"]))
    @example((), "C")
    @example(((0, MAX_LEVEL), (2, 3), (7, MAX_LEVEL)), "reversed")
    @settings(max_examples=60, deadline=None)
    def test_single_pattern_grid_matches_gather(self, entries, layout):
        # a grid with only odd exponents is one pattern: `grid` hands out the
        # stored values, read-only, where the general path concatenates the
        # patterns and gathers them into C order; maps may return any layout
        entries = tuple((d, e - 1 + e % 2) for d, e in entries)
        fn = {"C": product_map, "F": lambda rows: np.asfortranarray(product_map(rows)),
              "reversed": lambda rows: product_map(rows)[:, ::-1]}[layout]
        shared = _shared(ParametricMapFn(fn, 2))
        patterns, order = term_layout_oracle(entries)
        assert len(patterns) == 1
        shared.evaluate(patterns)
        gathered = np.concatenate([shared.values[p] for p in patterns])[order]
        got = shared.grid(entries)
        assert got.shape == gathered.shape and got.tobytes() == gathered.tobytes()
        with pytest.raises(ValueError):
            got[0] = 0.0
        weighted = smolyak._term_weights(entries) @ gathered
        assert shared.weighted_sum(entries).tobytes() == weighted.tobytes()


class TestCaches:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 25))
    @settings(max_examples=40, deadline=None)
    def test_terms_shared_by_set_content(self, seed, dims, size):
        lam = random_downward_closed(np.random.default_rng(seed), dims, size)
        twin = IndexSet(lam.members)
        assert smolyak._terms(twin) is smolyak._terms(lam)
        assert smolyak._terms(lam) == combination_coeffs(lam)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 25))
    @settings(max_examples=40, deadline=None)
    def test_cached_arrays_read_only_and_points_fresh(self, seed, dims, size):
        lam = random_downward_closed(np.random.default_rng(seed), dims, size)
        width = max(lam.dimension(), 1)
        patterns = smolyak._set_patterns(lam)
        for nu in combination_coeffs(lam):
            weights = smolyak._term_weights(nu.entries)
            with pytest.raises(ValueError):
                weights[0] = 0.0
        for p in patterns:
            with pytest.raises(ValueError):
                smolyak._pattern_nodes(p, width)[0] = 0.0
        points = sparse_grid_points(lam)
        expected = np.vstack([smolyak._pattern_nodes(p, width) for p in patterns])
        np.testing.assert_array_equal(points, expected)
        points[:] = 7.0  # a fresh, writable copy: the cached nodes stay
        np.testing.assert_array_equal(sparse_grid_points(lam), expected)


class TestArithmetic:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_sum_and_difference_match_dict_merge(self, seed, output_dim):
        rng = np.random.default_rng(seed)
        keys = list(random_downward_closed(rng, 3, 12))

        def poly():
            picked = [keys[i] for i in rng.permutation(len(keys)) if rng.random() < 0.6]
            values = rng.standard_normal((len(picked), output_dim))
            values[rng.random(values.shape) < 0.2] = -0.0
            return HermitePolynomial(dict(zip(picked, values)), output_dim)

        a, b = poly(), poly()
        for got, sign in ((a + b, 1.0), (a - b, -1.0)):
            want = merged_coefficients(a, b, sign)
            assert list(got.coefficients) == list(want) and got.output_dim == output_dim
            assert all(got.coefficients[nu].tobytes() == c.tobytes() for nu, c in want.items())

    def test_unequal_output_dims_raise(self):
        a = HermitePolynomial({MultiIndex(): np.ones(2)}, 2)
        with pytest.raises(ValueError, match="output dimensions differ"):
            a + zero_polynomial(1)
        with pytest.raises(ValueError, match="output dimensions differ"):
            a - zero_polynomial(3)


class TestNorms:
    def test_examples(self):
        assert HermitePolynomial({MultiIndex(): np.array([3.0])}, 1).l2_norm() == 3.0
        poly = HermitePolynomial(
            {MultiIndex(): np.array([1.0]), mi({0: 2}): np.array([np.sqrt(2)])}, 1
        )
        assert poly.l2_norm() == pytest.approx(np.sqrt(3.0), rel=1e-14)
        assert zero_polynomial().l2_norm() == 0.0

    def test_interpolant_norm_bounded_by_degree_weight(self):
        rng = np.random.default_rng(41)
        for _ in range(6):
            lam = random_downward_closed(rng, 2, 12)
            entries = {
                0: int(rng.integers(0, 4)),
                1: int(rng.integers(0, 4)),
            }
            mu = MultiIndex.from_dict({d: e for d, e in entries.items() if e})
            if mu.order > 6:
                continue
            target = lambda y: float(
                np.prod([hermite_eval_all(e, y[d])[e] for d, e in mu.entries] or [1.0])
            )
            poly = interpolate(lam, pointwise(target))
            assert poly.l2_norm() <= degree_weight(mu, 3.0, 1.0) * (1 + 1e-10)
