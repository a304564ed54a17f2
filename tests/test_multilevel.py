"""Level allocation, multilevel operators, work model, and (k, nu) sets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermgrid import multilevel, smolyak
from hermgrid.errors import EmptyAllocation, NotDownwardClosed, ThresholdTooSmall
from hermgrid.indexset import IndexSet, MultiIndex, build_threshold_set
from hermgrid.multilevel import (
    LevelAllocation,
    MemberTable,
    WorkSequence,
    construct_levels,
    default_work_sequence,
    ml_interpolate,
    ml_quadrature,
    work,
)
from hermgrid.smolyak import (
    _shared,
    combination_coeffs,
    interpolate,
    quadrature,
    sparse_grid_points,
)

from util import (
    coefficients_by_index,
    construct_levels_loop,
    floor_level_loop,
    gamma_sets,
    grid_node_keys,
    node_key,
    pointwise,
    random_downward_closed,
    random_monotone_allocation,
    random_product_surrogate,
    shifted,
    summation_bound,
    work_level_major,
)

mi = MultiIndex.from_dict


class TestWorkSequence:
    def test_doubling_examples(self):
        assert default_work_sequence(3).values == (0, 2, 4, 8)
        assert default_work_sequence(1).values == (0, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkSequence((1, 2, 4))
        with pytest.raises(ValueError):
            WorkSequence((0, 4, 4))
        with pytest.raises(ValueError):
            WorkSequence((0, 2, 3), growth_constant=1.0)  # partial sums exceed

    @pytest.mark.parametrize("top", [62, 63, 64, 70])
    def test_cumulative_costs_stay_exact_past_int64(self, top):
        # at top 63 the costs pass 2**63, where numpy would store float64 sums
        sw = default_work_sequence(top)
        sums = [sum(sw.values[1:l + 1]) for l in range(top + 1)]
        assert [sw.cumulative(l) for l in range(top + 1)] == sums
        assert all(type(sw.cumulative(l)) is int for l in range(top + 1))

    def test_partial_sum_bound_and_no_levels_are_refused(self):
        with pytest.raises(ValueError, match="partial-sum bound violated"):
            WorkSequence((0, 2, 3, 4))  # 9 > 2 * 4 at level 3, every other bound kept
        with pytest.raises(ValueError, match="max_level must be positive"):
            default_work_sequence(0)

    @given(st.floats(1.01, 1e4), st.integers(1, 2000),
           st.lists(st.integers(0, 10 ** 6), max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_partial_sum_bound_implies_the_level_count_bound(self, kw, top, extra):
        # the least values the partial-sum bound admits, plus drawn extras:
        # along them l <= kw (1 + log v_l) holds, so no sequence the
        # constructor accepts could fail that check
        vals, total = [0], 0
        for l in range(1, top + 1):
            v = max(vals[-1] + 1, math.ceil(total / (kw - 1))) + (extra[l - 1:l] or [0])[0]
            while total + v > kw * v:  # the constructor's comparison, in floats
                v += max(1, v >> 40)
            if v > 1e300:
                break
            vals.append(v)
            total += v
        assert not any(sum(vals[:l + 1]) > kw * vals[l] for l in range(1, len(vals)))
        assert all(l <= kw * (1.0 + math.log(v)) for l, v in enumerate(vals[1:], start=1))

    def test_floor_level(self):
        sw = default_work_sequence(3)
        assert sw.floor_level(1.189) == 0
        assert sw.floor_level(2.0) == 1
        assert sw.floor_level(100.0) == 3

    @given(st.integers(1, 30), st.lists(st.floats(0.0, 2.0 ** 32), max_size=20))
    def test_floor_level_matches_loop(self, top, budgets):
        sw = default_work_sequence(top)
        edges = [float(v) for v in sw.values] + [float(np.nextafter(v, 0)) for v in sw.values[1:]]
        budgets = np.array(budgets + edges)
        expected = [floor_level_loop(sw.values, b) for b in budgets.tolist()]
        assert sw.floor_level(budgets).tolist() == expected

    @given(st.integers(1, 60), st.floats(2.0, 4.0))
    def test_arrays_match_the_values(self, top, growth_constant):
        # built once per sequence, where `floor_level` and `MemberTable.price`
        # used to convert the values on every call
        sw = default_work_sequence(top, growth_constant)
        floats, costs = np.asarray(sw.values, dtype=np.float64), np.cumsum(sw.values)
        assert sw.float_values.dtype == floats.dtype
        assert sw.float_values.tobytes() == floats.tobytes()
        assert sw.cumulative_costs.dtype == costs.dtype
        assert sw.cumulative_costs.tobytes() == costs.tobytes()
        assert [sw.cumulative(l) for l in range(top + 1)] == sw.cumulative_costs.tolist()
        for array in (sw.float_values, sw.cumulative_costs):
            with pytest.raises(ValueError):
                array[0] = 1


class TestConstructLevels:
    def test_empty_threshold_raises(self):
        with pytest.raises(EmptyAllocation):
            construct_levels(lambda nu: 1.0, lambda nu: 1.0, 1.0, 1.0, 1.5,
                             default_work_sequence(3), 1)

    def test_single_index_level_zero(self):
        alloc = construct_levels(
            lambda nu: 1.0 if not nu.entries else 1e12,
            lambda nu: 1.0, 1.0, 1.0, 0.5, default_work_sequence(3), 1,
        )
        # delta = 0.5**-0.25 ~ 1.189 < sw_1 = 2, so the only index sits at level 0
        assert alloc.levels == {}
        assert alloc.max_level == 0

    def test_two_index_closed_form(self):
        c = lambda nu: 1.0 if nu.order <= 1 else 1e12
        d = lambda nu: 4.0 if nu.entries else 1.0
        sw = default_work_sequence(3)
        alloc = construct_levels(c, d, 1.0, 1.0, 0.01, sw, 1)
        total = 1.0 + 4.0 ** (-1.0 / 3.0)
        for nu, d_val in ((MultiIndex(), 1.0), (mi({0: 1}), 4.0)):
            delta = 0.01 ** -0.25 * d_val ** (-1.0 / 3.0) * total ** 0.5
            expected = max(j for j, v in enumerate(sw.values) if v <= delta)
            assert alloc.levels.get(nu, 0) == expected

    def test_deterministic(self):
        c = lambda nu: 2.0 ** nu.order
        sw = default_work_sequence(5)
        a1 = construct_levels(c, c, 1.0, 1.0, 1e-3, sw, 3)
        a2 = construct_levels(c, c, 1.0, 1.0, 1e-3, sw, 3)
        assert a1.levels == a2.levels

    def test_monotone_levels_give_downward_closed_gammas(self):
        c = lambda nu: 2.0 ** nu.order * np.prod(
            [float(d + 1) ** e for d, e in nu.entries] or [1.0]
        )
        alloc = construct_levels(c, c, 1.0, 1.0, 1e-4, default_work_sequence(6), 3)
        gammas = gamma_sets(alloc)
        assert len(gammas) == alloc.max_level
        for gamma in gammas:
            assert gamma.downward_closed
        for first, second in zip(gammas, gammas[1:]):
            assert set(second.members) <= set(first.members)


class TestMemberTable:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.floats(0.1, 1.9),
           st.floats(0.25, 3.0), st.floats(-7.0, 0.3), st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_construct_levels_matches_loop_oracle(self, seed, dims, q1, alpha,
                                                  log_eps, top):
        rng = np.random.default_rng(seed)
        c, _, _ = random_product_surrogate(rng, dims)
        d, _, _ = random_product_surrogate(rng, dims)
        args = (c, d, q1, alpha, 10.0 ** log_eps, default_work_sequence(top), dims, 3000)
        try:
            expected = construct_levels_loop(*args)
        except (EmptyAllocation, ThresholdTooSmall) as exc:
            with pytest.raises(type(exc)):
                construct_levels(*args)
            return
        alloc = construct_levels(*args)
        assert alloc.levels == expected.levels
        assert list(alloc.levels) == list(expected.levels)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.floats(0.25, 3.0),
           st.lists(st.floats(-4.0, 0.0), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_rows_grown_in_steps_match_one_build(self, seed, dims, alpha, log_eps):
        # a table lowered step by step, reading d off the walk (one surrogate
        # for c and d), holds bitwise the rows of one lowered once that calls d
        c, _, _ = random_product_surrogate(np.random.default_rng(seed), dims)
        grown, once = MemberTable(c, c, 1.0, alpha, dims), MemberTable(c, lambda nu: c(nu), 1.0,
                                                                       alpha, dims)
        for x in sorted(log_eps, reverse=True):
            grown.lower(10.0 ** x)
        once.lower(10.0 ** min(log_eps))
        for name in ("t", "d", "points", "s"):
            got, want = getattr(grown, name), getattr(once, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

    def test_weight_sum_in_member_order(self):
        # weights 1, 1e-16, 1e-16, 1e-16 sum to 1.0 left to right in the walk's
        # order (here, in 1-d, also member order) and to 1 + 2**-52 backwards;
        # at eps just above 1/4 that moves the empty index across the level-1 cost 2
        c = lambda nu: 1.5 ** nu.order
        d = lambda nu: 1.0 if nu.order == 0 else 1e32
        sw = default_work_sequence(3)
        eps = float(np.nextafter(0.25, 1.0))
        expected = construct_levels_loop(c, d, 1.0, 0.5, eps, sw, 1)
        assert len(expected.levels) == 0
        assert construct_levels(c, d, 1.0, 0.5, eps, sw, 1).levels == expected.levels

    def test_weight_sum_in_the_walks_order(self):
        # the walk pops (), 0:1, 0:2, 1:1 (c = 1, 2, 3, 3.5), whose weights
        # 5e-17, 5e-17, 5e-17, 1 sum left to right to 1 + 2**-52; member order
        # puts 1:1 before 0:2 and sums to 1.0, leaving 1:1 below the level-1
        # cost 2 at eps just above 1/4
        values = {(): 1.0, ((0, 1),): 2.0, ((0, 2),): 3.0, ((1, 1),): 3.5}
        c = lambda nu: values.get(nu.entries, 10.0 * (1 + nu.order))
        d = lambda nu: 1.0 if nu.entries == ((1, 1),) else 0.5e-16 ** -2
        sw = default_work_sequence(3)
        eps = float(np.nextafter(0.25, 1.0))
        assert construct_levels(c, d, 1.0, 0.5, eps, sw, 2).levels == {mi({1: 1}): 1}
        assert construct_levels_loop(c, d, 1.0, 0.5, eps, sw, 2).levels == {mi({1: 1}): 1}
        table = MemberTable(c, d, 1.0, 0.5, 2)
        table.lower(eps)
        assert table.members == [MultiIndex(), mi({0: 1}), mi({0: 2}), mi({1: 1})]
        assert table.s[-1] == 1.0 + 2.0 ** -52

    def test_rows_above_threshold_form_smaller_sets(self):
        c, _, _ = random_product_surrogate(np.random.default_rng(5), 3)
        table = MemberTable(c, c, 1.0, 1.0, 3)
        table.lower(1e-4)
        sw = default_work_sequence(8)
        for eps in (1e-4, 1e-3, float(table.t[7]), 0.5, 2.0):
            rows, levels = table.levels(eps, sw)
            assert all(table.t[rows] >= eps)
            if rows.size == 0:
                with pytest.raises(EmptyAllocation):
                    construct_levels(c, c, 1.0, 1.0, eps, sw, 3)
                continue
            alloc = construct_levels(c, c, 1.0, 1.0, eps, sw, 3)
            assert {table.members[i] for i in rows} == set(
                build_threshold_set(c, eps, 3).members
            )
            assert {table.members[i]: l for i, l in zip(rows, levels) if l} == alloc.levels

    def test_budget_eps_never_splits_near_ties(self):
        # e_0 and e_1 enter a relative 1e-13 apart: one event group, so no
        # budget reads its allocation between them
        activation = [2.0, 2.0 * (1.0 + 1e-13)]
        c = lambda nu: math.prod(activation[d] * 3.0 ** e for d, e in nu.entries)
        table = MemberTable(c, c, 1.0, 1.0, 2)
        table.lower(1.0)
        sw = default_work_sequence(6)
        t0, t1 = 1.0 / c(mi({0: 1})), 1.0 / c(mi({1: 1}))
        assert t1 < t0
        for budget in range(1, 400):
            eps = table.eps_for_budget(budget, sw)
            assert not t1 < eps < t0
            assert table.price(eps, sw) <= budget

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.floats(0.1, 1.9),
           st.floats(0.25, 3.0),
           st.lists(st.tuples(st.floats(-8.0, 0.5), st.integers(1, 3000)),
                    min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_empty_start_answers_like_origin_start(self, seed, dims, q1, alpha, probes):
        c, _, _ = random_product_surrogate(np.random.default_rng(seed), dims)
        empty, lowered = (MemberTable(c, c, q1, alpha, dims, 300) for _ in range(2))
        assert not empty.members
        lowered.lower(1.0 / c(MultiIndex()))
        sw = default_work_sequence(8)

        def allocation(table, eps):
            try:
                return table.allocation(eps, sw).levels
            except ThresholdTooSmall:
                return None

        for log_eps, budget in probes:
            eps = 10.0 ** log_eps
            assert empty.price(eps, sw) == lowered.price(eps, sw)
            assert allocation(empty, eps) == allocation(lowered, eps)
            assert empty.eps_for_budget(budget, sw) == lowered.eps_for_budget(budget, sw)

    def test_tiny_alpha_saturates_at_the_top_level(self):
        # at alpha = 1e-300 the factor eps**(-(1/2 - q1/4)/alpha) overflows a
        # double; with both factors at least 1 the level's limit is the top
        c = lambda nu: 2.0 ** nu.order
        table = MemberTable(c, c, 1.0, 1e-300, 2)
        table.lower(0.1)
        sw = default_work_sequence(6)
        rows, levels = table.levels(0.1, sw)
        assert rows.size == len(build_threshold_set(c, 0.1, 2)) and set(levels.tolist()) == {6}
        rows, levels = table.levels(1.0, sw)  # the origin alone: both factors are 1
        assert levels.tolist() == [0]
        # a d surrogate above 1 at the origin makes S < 1: here eps**(-1/4) S**(1/2) < 1,
        # so the prefactor's limit is 0 and every row stays at level 0
        small = MemberTable(c, lambda nu: 1e3 * c(nu), 1.0, 1e-300, 2)
        small.lower(0.1)
        rows, levels = small.levels(0.1, sw)
        assert rows.size == len(build_threshold_set(c, 0.1, 2)) and set(levels.tolist()) == {0}
        # a c above 1 at the origin leaves no rows above eps = 0.5: S = 0, nothing to pay
        assert MemberTable(lambda nu: 10 * c(nu), c, 1.0, 1e-300, 2).price(0.5, sw) == 0

    def test_validation(self):
        c = lambda nu: 2.0 ** nu.order
        with pytest.raises(ValueError):
            MemberTable(c, c, 2.0, 1.0, 2)
        with pytest.raises(ValueError):
            MemberTable(c, c, 1.0, 0.0, 2)
        # every level floors to 0 at alpha = inf, so a budget search never ends
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            MemberTable(c, c, 1.0, math.inf, 2)

    def test_no_dimensions_is_refused(self):
        with pytest.raises(ValueError, match="d_max must be positive, got 0"):
            MemberTable(lambda nu: 2.0 ** nu.order, lambda nu: 1.0, 1.0, 1.0, 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_past_the_cap_are_appended_only_when_read(self, seed):
        c, _, _ = random_product_surrogate(np.random.default_rng(seed), 3)
        sw = default_work_sequence(8)
        table, fresh = (MemberTable(c, c, 1.0, 1.0, 3, 50) for _ in range(2))
        with pytest.raises(ThresholdTooSmall):
            table.allocation(1e-300, sw)  # a failed eps row: the study stops here
        assert len(table.members) == 50 and table.t.size == 0
        eps = 1.0 / c(table.members[20])  # a later read appends the walked rows first
        assert table.allocation(eps, sw).levels == fresh.allocation(eps, sw).levels
        assert table.t.size == table.s.size == len(table.members) == 50
        with pytest.raises(ThresholdTooSmall):
            fresh.allocation(1e-300, sw)
        assert fresh.price(1e-300, sw) == math.inf  # the budget path reads on
        assert fresh.t.size == len(fresh.members) == 50
        assert fresh.t.tolist() == table.t.tolist() and fresh.s.tolist() == table.s.tolist()


    def test_price_is_exact_past_int64_and_inf_for_points_past_it(self):
        # one chain of members 0:1 .. k-1:1 (2**k tensor points each), every one
        # at level 3 (cumulative cost 14): up to k = 62 the price 14 (2**63 - 1)
        # passes int64; the member with 63 ones has points past it, so no price
        chain = lambda nu: (1.0 + nu.order / 100.0
                            if nu.entries == tuple((j, 1) for j in range(nu.order)) else 1e300)
        sw = default_work_sequence(3)
        table = MemberTable(chain, lambda nu: 1e-40, 1.0, 0.5, 64)
        eps = 1.0 / (1.0 + 62 / 100.0)
        assert table.price(eps, sw) == 14 * (2 ** 63 - 1) == work(table.allocation(eps, sw))
        assert table.price(1.0 / (1.0 + 63 / 100.0), sw) == math.inf
        assert table.points.tolist() == [2 ** k for k in range(63)] + [-1]
        assert table.top == 2 ** 62


class TestGammaSets:
    def test_reading(self):
        sw = default_work_sequence(3)
        alloc = LevelAllocation({MultiIndex(): 2, mi({0: 1}): 1}, sw)
        gammas = gamma_sets(alloc)
        assert gammas[0] == IndexSet([MultiIndex(), mi({0: 1})])
        assert gammas[1] == IndexSet([MultiIndex()])

    def test_all_zero(self):
        alloc = LevelAllocation({MultiIndex(): 0}, default_work_sequence(2))
        assert gamma_sets(alloc) == []


class TestTelescoping:
    def test_constant_levels_collapse_to_single_level(self):
        lam = IndexSet([MultiIndex(), mi({0: 1}), mi({0: 2}), mi({1: 1})])
        sw = default_work_sequence(3)
        alloc = LevelAllocation({nu: 2 for nu in lam}, sw)
        v = pointwise(lambda y: float(np.sin(y[0]) + np.cos(y[1] if len(y) > 1 else 0.0)))
        ml = coefficients_by_index(ml_interpolate(alloc, [v, v]))
        sl = coefficients_by_index(interpolate(lam, v))
        zero = np.zeros(1)
        for nu in ml.keys() | sl.keys():
            np.testing.assert_allclose(ml.get(nu, zero), sl.get(nu, zero), atol=1e-14)
        np.testing.assert_allclose(
            ml_quadrature(alloc, [v, v]), quadrature(lam, v), atol=1e-14
        )

    def test_single_level_identity(self):
        lam = IndexSet([MultiIndex(), mi({0: 1})])
        alloc = LevelAllocation({nu: 1 for nu in lam}, default_work_sequence(2))
        v = pointwise(lambda y: float(np.exp(0.2 * y[0])))
        ml = coefficients_by_index(ml_interpolate(alloc, [v]))
        sl = coefficients_by_index(interpolate(lam, v))
        zero = np.zeros(1)
        for nu in ml.keys() | sl.keys():
            np.testing.assert_allclose(ml.get(nu, zero), sl.get(nu, zero), atol=1e-15)

    def test_zero_maps(self):
        lam = IndexSet([MultiIndex(), mi({0: 1})])
        alloc = LevelAllocation({nu: 2 for nu in lam}, default_work_sequence(2))
        zero = pointwise(lambda y: 0.0)
        ml = ml_interpolate(alloc, [zero, zero])
        assert np.linalg.norm(ml.coefficients) == 0.0

    def test_quadrature_examples(self):
        sw = default_work_sequence(2)
        lam = IndexSet([MultiIndex(), mi({0: 1}), mi({0: 2})])
        alloc = LevelAllocation({nu: 2 for nu in lam}, sw)
        square = pointwise(lambda y: y[0] ** 2)
        assert ml_quadrature(alloc, [square, square])[0] == pytest.approx(1.0)
        const = pointwise(lambda y: 4.25)
        assert ml_quadrature(alloc, [const, const])[0] == pytest.approx(4.25)

    def test_bare_callable_is_refused(self):
        alloc = LevelAllocation({MultiIndex(): 1}, default_work_sequence(2))
        with pytest.raises(TypeError, match="got function"):
            ml_quadrature(alloc, [lambda y: 1.0])
        with pytest.raises(TypeError, match="got function"):
            ml_interpolate(alloc, [lambda y: 1.0])

    def test_quadrature_matches_interpolant_constant_coefficient(self):
        sw = default_work_sequence(3)
        lam1 = IndexSet([MultiIndex(), mi({0: 1}), mi({0: 2}), mi({1: 1})])
        levels = {nu: (2 if nu.order <= 1 else 1) for nu in lam1}
        alloc = LevelAllocation(levels, sw)
        maps = [pointwise(lambda y: float(np.exp(0.3 * y[0]))),
                pointwise(lambda y: float(np.exp(0.3 * y[0]) + 0.1 * y[0]))]
        q = ml_quadrature(alloc, maps)
        p = ml_interpolate(alloc, maps)
        assert abs(q[0] - coefficients_by_index(p)[MultiIndex()][0]) <= 1e-12


class TestSharedLevelValues:
    """Level j's net coefficients are ``c(Gamma_j) - c(Gamma_{j+1})`` exactly;
    its map is called once per node of its nonzero net terms, nodes the two
    nested sets hold; and the sums lie within the rounding bound of a
    `math.fsum` of the same terms."""

    def build(self, rng, dims=3, size=25, top=4):
        alloc = random_monotone_allocation(rng, dims, size, top)
        calls = [[] for _ in range(top)]

        def level_map(j):
            def u(y):
                calls[j].append(node_key(y))
                return [np.exp(0.3 * np.sum(y)) + j, float(y[0]) ** 2 / (j + 1)]
            return pointwise(u, 2)

        return alloc, [_shared(level_map(j)) for j in range(top)], calls

    def net_levels(self, alloc, maps, calls):
        """The (terms, map) pairs of the levels with net terms, checked
        against the nested sets and the calls made so far."""
        levels = list(zip(multilevel._net_levels(alloc), maps))  # the maps hold every value
        net = {id(u): terms for terms, u in levels}
        gammas = gamma_sets(alloc) + [IndexSet([])]
        for j, u in enumerate(maps):
            want = dict(combination_coeffs(gammas[j]))
            if len(gammas[j + 1]):
                for nu, c in combination_coeffs(gammas[j + 1]).items():
                    want[nu] = want.get(nu, 0) - c
            got = net.get(id(u), {})
            assert got == {nu: c for nu, c in want.items() if c}
            assert list(got) == sorted(got, key=MultiIndex.sort_key)
            nodes = set().union(*map(grid_node_keys, got))
            assert len(calls[j]) == len(set(calls[j])) and set(calls[j]) == nodes
            served = [g for g in gammas[j:j + 2] if len(g)]
            assert nodes <= {node_key(y) for g in served for y in sparse_grid_points(g)}
        return levels

    def check_quadrature(self, alloc, maps, calls):
        got = ml_quadrature(alloc, maps)
        pairs = [(c, u.weighted_sum(nu.entries)) for terms, u in self.net_levels(alloc, maps, calls)
                 for nu, c in terms.items()]
        want = [math.fsum(c * s[k] for c, s in pairs) for k in range(2)]
        assert np.all(np.abs(got - want) <= summation_bound(pairs))

    def check_interpolate(self, alloc, maps, calls):
        got = ml_interpolate(alloc, maps)
        per_term = [(c, coefficients_by_index(smolyak._projection_sum([({nu: 1}, u)])))
                    for terms, u in self.net_levels(alloc, maps, calls)
                    for nu, c in terms.items()]
        assert set(got.indices) == set().union(*(t for _, t in per_term))
        for mu, coeff in zip(got.indices, got.coefficients):
            pairs = [(c, t[mu]) for c, t in per_term if mu in t]
            want = [math.fsum(c * s[k] for c, s in pairs) for k in range(2)]
            assert np.all(np.abs(coeff - want) <= summation_bound(pairs))

    @pytest.mark.parametrize("seed", range(8))
    def test_quadrature(self, seed):
        self.check_quadrature(*self.build(np.random.default_rng(seed)))

    @pytest.mark.parametrize("seed", range(8))
    def test_interpolate(self, seed):
        self.check_interpolate(*self.build(np.random.default_rng(seed)))

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 30),
           st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_random_monotone_allocations(self, seed, dims, size, top):
        self.check_quadrature(*self.build(np.random.default_rng(seed), dims, size, top))
        self.check_interpolate(*self.build(np.random.default_rng(seed), dims, size, top))


class TestAdmissibility:
    """Every Gamma_j must be downward closed: each member's single-step
    predecessors sit at its level or above."""

    one = pointwise(lambda y: 1.0)

    @pytest.mark.parametrize("operator", [ml_quadrature, ml_interpolate])
    @pytest.mark.parametrize("levels, named", [
        ({(): 1, ((0, 1),): 2}, "0:1"),  # above its predecessor's level
        ({(): 2, ((0, 2),): 1}, "0:2"),  # its predecessor missing
        ({(): 2, ((0, 1),): 2, ((1, 1),): 1, ((0, 1), (1, 1)): 2}, "0:1 1:1"),
    ])
    def test_raises_naming_the_member(self, operator, levels, named):
        alloc = LevelAllocation({MultiIndex(nu): l for nu, l in levels.items()},
                                default_work_sequence(2))
        with pytest.raises(NotDownwardClosed, match=f"^{named} sits"):
            operator(alloc, [self.one, self.one])

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 3), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_raises_exactly_when_a_gamma_is_not_closed(self, seed, dims, top, shift):
        # random levels on a downward closed set, or on one whose members were
        # shifted up at random (so predecessors go missing)
        rng = np.random.default_rng(seed)
        members = {shifted(nu, int(rng.integers(0, dims)), int(shift and rng.integers(0, 2)))
                   for nu in random_downward_closed(rng, dims, 12)}
        alloc = LevelAllocation({nu: int(rng.integers(0, top + 1)) for nu in members},
                                default_work_sequence(top))
        closed = all(g.downward_closed for g in gamma_sets(alloc))
        for operator in (ml_quadrature, ml_interpolate):
            if closed:
                operator(alloc, [self.one] * top)
            else:
                with pytest.raises(NotDownwardClosed):
                    operator(alloc, [self.one] * top)

    @pytest.mark.parametrize("operator", [ml_quadrature, ml_interpolate])
    def test_too_few_level_maps(self, operator):
        alloc = LevelAllocation({MultiIndex(): 3}, default_work_sequence(3))
        with pytest.raises(ValueError, match="need 3 level approximations, got 2"):
            operator(alloc, [self.one, self.one])

    def test_no_level_above_zero_gives_zero(self):
        alloc = LevelAllocation({MultiIndex(): 0, mi({0: 1}): 0}, default_work_sequence(2))
        q = ml_quadrature(alloc, [])
        assert q.shape == (1,) and q[0] == 0.0
        p = ml_interpolate(alloc, [])
        assert p.indices == () and p.coefficients.shape == (0, 1)

    def test_empty_levels_call_no_map(self):
        # levels 1 and 2 hold no member: their net terms cancel, so only the
        # level-3 map is called
        calls = []
        maps = [pointwise(lambda y, j=j: calls.append(j) or float(j)) for j in range(3)]
        alloc = LevelAllocation({MultiIndex(): 3}, default_work_sequence(3))
        assert ml_quadrature(alloc, maps)[0] == 2.0
        assert calls == [2]


class TestWork:
    def test_examples(self):
        sw = default_work_sequence(2)
        assert work(LevelAllocation({MultiIndex(): 0}, sw)) == 0
        assert work(LevelAllocation({MultiIndex(): 2, mi({0: 1}): 1}, sw)) == 10
        assert work(LevelAllocation({MultiIndex(): 1}, default_work_sequence(1))) == 2

    def test_two_accumulation_orders_agree(self):
        rng = np.random.default_rng(9)
        sw = default_work_sequence(6)
        for _ in range(100):
            lam = random_downward_closed(rng, 3, 12)
            top = int(rng.integers(1, 5))
            levels = {nu: max(0, top - nu.order) for nu in lam}
            alloc = LevelAllocation(levels, sw)
            assert work(alloc) == work_level_major(alloc)
