"""Level allocation, telescoped operators, work model, and (k, nu) sets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermgrid.errors import EmptyAllocation, ThresholdTooSmall
from hermgrid.indexset import IndexSet, MultiIndex, build_threshold_set
from hermgrid.multilevel import (
    LevelAllocation,
    MemberTable,
    WorkSequence,
    construct_levels,
    default_work_sequence,
    gamma_sets,
    ml_interpolate,
    ml_quadrature,
    work,
)
from hermgrid.smolyak import interpolate, quadrature, sparse_grid_points

from util import (
    construct_levels_loop,
    floor_level_loop,
    node_key,
    random_downward_closed,
    random_product_surrogate,
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

    def test_weight_sum_in_member_order(self):
        # weights 1, 1e-16, 1e-16, 1e-16 sum to 1.0 in member order and to
        # 1 + 2**-52 backwards; at eps just above 1/4 that moves the empty
        # index across the level-1 cost 2
        c = lambda nu: 1.5 ** nu.order
        d = lambda nu: 1.0 if nu.order == 0 else 1e32
        sw = default_work_sequence(3)
        eps = float(np.nextafter(0.25, 1.0))
        expected = construct_levels_loop(c, d, 1.0, 0.5, eps, sw, 1)
        assert len(expected.levels) == 0
        assert construct_levels(c, d, 1.0, 0.5, eps, sw, 1).levels == expected.levels

    def test_rows_above_threshold_form_smaller_sets(self):
        c, _, _ = random_product_surrogate(np.random.default_rng(5), 3)
        table = MemberTable(c, c, 1.0, 1.0, 1e-4, 3)
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
        table = MemberTable(c, c, 1.0, 1.0, 1.0, 2)
        sw = default_work_sequence(6)
        t0, t1 = 1.0 / c(mi({0: 1})), 1.0 / c(mi({1: 1}))
        assert t1 < t0
        for budget in range(1, 400):
            eps = table.eps_for_budget(budget, sw)
            assert not t1 < eps < t0
            assert table.price(eps, sw) <= budget

    def test_validation(self):
        c = lambda nu: 2.0 ** nu.order
        with pytest.raises(ValueError):
            MemberTable(c, c, 2.0, 1.0, 0.1, 2)
        with pytest.raises(ValueError):
            MemberTable(c, c, 1.0, 0.0, 0.1, 2)
        # every level floors to 0 at alpha = inf, so a budget search never ends
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            MemberTable(c, c, 1.0, math.inf, 0.1, 2)


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
        v = lambda y: float(np.sin(y[0]) + np.cos(y[1] if len(y) > 1 else 0.0))
        ml = ml_interpolate(alloc, [v, v])
        sl = interpolate(lam, v)
        union = set(ml.coefficients) | set(sl.coefficients)
        for nu in union:
            np.testing.assert_allclose(
                ml.coefficient(nu), sl.coefficient(nu), atol=1e-14
            )
        np.testing.assert_allclose(
            ml_quadrature(alloc, [v, v]), quadrature(lam, v), atol=1e-14
        )

    def test_single_level_identity(self):
        lam = IndexSet([MultiIndex(), mi({0: 1})])
        alloc = LevelAllocation({nu: 1 for nu in lam}, default_work_sequence(2))
        v = lambda y: float(np.exp(0.2 * y[0]))
        ml = ml_interpolate(alloc, [v])
        sl = interpolate(lam, v)
        for nu in set(ml.coefficients) | set(sl.coefficients):
            np.testing.assert_allclose(ml.coefficient(nu), sl.coefficient(nu), atol=1e-15)

    def test_zero_maps(self):
        lam = IndexSet([MultiIndex(), mi({0: 1})])
        alloc = LevelAllocation({nu: 2 for nu in lam}, default_work_sequence(2))
        zero = lambda y: 0.0
        ml = ml_interpolate(alloc, [zero, zero])
        assert ml.l2_norm() == 0.0

    def test_quadrature_examples(self):
        sw = default_work_sequence(2)
        lam = IndexSet([MultiIndex(), mi({0: 1}), mi({0: 2})])
        alloc = LevelAllocation({nu: 2 for nu in lam}, sw)
        square = lambda y: y[0] ** 2
        assert ml_quadrature(alloc, [square, square])[0] == pytest.approx(1.0)
        const = lambda y: 4.25
        assert ml_quadrature(alloc, [const, const])[0] == pytest.approx(4.25)

    def test_quadrature_matches_interpolant_constant_coefficient(self):
        sw = default_work_sequence(3)
        lam1 = IndexSet([MultiIndex(), mi({0: 1}), mi({0: 2}), mi({1: 1})])
        levels = {nu: (2 if nu.order <= 1 else 1) for nu in lam1}
        alloc = LevelAllocation(levels, sw)
        maps = [lambda y: float(np.exp(0.3 * y[0])),
                lambda y: float(np.exp(0.3 * y[0]) + 0.1 * y[0])]
        q = ml_quadrature(alloc, maps)
        p = ml_interpolate(alloc, maps)
        assert abs(q[0] - p.coefficient(MultiIndex())[0]) <= 1e-12


class TestSharedLevelValues:
    """Each level map is called once per distinct node of the two sets it
    serves, and the sums equal the unshared telescoped sums bit for bit."""

    def build(self, seed):
        lam = random_downward_closed(np.random.default_rng(seed), 3, 25)
        levels = {nu: max(1, 4 - nu.order) for nu in lam}  # nested gammas
        alloc = LevelAllocation(levels, default_work_sequence(4))
        calls = [[] for _ in range(alloc.max_level)]

        def level_map(j):
            def u(y):
                calls[j].append(node_key(y))
                return [np.exp(0.3 * np.sum(y)) + j, float(y[0]) ** 2 / (j + 1)]
            return u

        return alloc, [level_map(j) for j in range(alloc.max_level)], calls

    def check_calls(self, alloc, calls):
        gammas = gamma_sets(alloc)
        for j, made in enumerate(calls):
            served = [g for g in gammas[j:j + 2] if len(g)]
            nodes = {node_key(y) for g in served for y in sparse_grid_points(g)}
            assert len(made) == len(set(made)) and set(made) == nodes

    @pytest.mark.parametrize("seed", range(8))
    def test_quadrature(self, seed):
        alloc, maps, calls = self.build(seed)
        got = ml_quadrature(alloc, maps)
        self.check_calls(alloc, calls)
        gammas, top = gamma_sets(alloc), alloc.max_level
        want = None
        for j in range(1, top + 1):
            term = quadrature(gammas[j - 1], maps[j - 1])
            if j < top and len(gammas[j]) > 0:
                term = term - quadrature(gammas[j], maps[j - 1])
            want = term if want is None else want + term
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("seed", range(8))
    def test_interpolate(self, seed):
        alloc, maps, calls = self.build(seed)
        got = ml_interpolate(alloc, maps)
        self.check_calls(alloc, calls)
        gammas, top = gamma_sets(alloc), alloc.max_level
        want = None
        for j in range(1, top + 1):
            term = interpolate(gammas[j - 1], maps[j - 1])
            if j < top and len(gammas[j]) > 0:
                term = term.minus(interpolate(gammas[j], maps[j - 1]))
            want = term if want is None else want.plus(term)
        assert got.coefficients.keys() == want.coefficients.keys()
        for nu, coeff in want.coefficients.items():
            np.testing.assert_array_equal(got.coefficients[nu], coeff)


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
