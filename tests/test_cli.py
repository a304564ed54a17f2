"""Study runner: configuration, CSV output, reproducibility, exit codes."""

import filecmp
import gc
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hermgrid import cli, multilevel, smolyak
from hermgrid.cli import (
    _ml_allocation_for_budget,
    evaluation_point_count,
    fit_rate,
    main,
    parse_config,
    resolve_config,
    run_bayes,
    run_grf,
    run_interp_study,
    run_ml_study,
    run_quad_study,
    threshold_set_for_budget,
)
from hermgrid.errors import ConfigError, HermgridError, OutputError
from hermgrid.grf import CovarianceSpec, circulant_embed_1d, sample_grf
from hermgrid.hermite import MAX_LEVEL
from hermgrid.indexset import MultiIndex, WeightFamily, surrogate_weight
from hermgrid.model import ParametricMapFn, as_parametric_map
from hermgrid.multilevel import MemberTable, construct_levels, default_work_sequence, work
from hermgrid.smolyak import sparse_grid_points

import determinism
from util import (
    bisect_epsilon,
    bisection_ml_allocation,
    event_midpoints,
    ml_work_oracle,
    random_product_surrogate,
    sample_file_text,
    scan_budget_eps,
    surrogate_weight_oracle,
)

CONSTANT_CFG = "system = constant:0.5\nqoi = point\nx0 = 1.0\n"
SIN_CFG = (
    "system = sindecay\nr_decay = 3.0\nd_max = 4\nqoi = point\nx0 = 1.0\n"
    "alpha = 1.0\n"
)


# Sample values and grid points: any float, with signed zeros, subnormals,
# extremes and integral values drawn often.
SAMPLE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,
                     1e300, -1e-300, 1e-300, -1e300, 1.0, -3.0, 2.0 ** 53, 1e16]),
    st.floats(),
)


def write_cfg(tmp_path, text, name="study.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestConfigParsing:
    def test_comments_and_values(self, tmp_path):
        path = write_cfg(
            tmp_path, "# heading\nsystem = constant:0.25  # inline\nx0 = 0.5\n"
        )
        cfg = parse_config(path)
        assert cfg == {"system": "constant:0.25", "x0": "0.5"}

    def test_unknown_key(self, tmp_path):
        path = write_cfg(tmp_path, "wibble = 3\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(path)

    def test_missing_separator(self, tmp_path):
        path = write_cfg(tmp_path, "system constant\n")
        with pytest.raises(ConfigError, match=":1:"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.cfg")

    def test_config_that_is_not_utf8_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "study.cfg"
        path.write_bytes(b"system = constant:0.5\n# \xff\n")
        with pytest.raises(ConfigError, match="cannot read config .*study.cfg"):
            parse_config(path)
        out = tmp_path / "out"
        assert main(["quad", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot read config")
        assert not out.exists()

    def test_duplicate_key(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "d_max = 4\n# note\nd_max = 6\n")
        with pytest.raises(ConfigError, match=":3: duplicate key 'd_max', first on line 1"):
            parse_config(path)
        out = tmp_path / "out"
        assert main(["quad", "--config", str(path), "--out", str(out)]) == 2
        assert "duplicate key 'd_max'" in capsys.readouterr().err
        assert not out.exists()

    def test_build_problem_variants(self):
        build_problem = lambda cfg: resolve_config("quad", cfg, 0).problem
        p = build_problem({"system": "constant:0.5"})
        assert p.system.d_max == 1 and p.system.sup_norms.tolist() == [0.5]
        assert p.system.edges == ()
        p = build_problem({"system": "sindecay", "r_decay": "2.5", "d_max": "4"})
        assert p.system.d_max == 4 and p.system.edges == ()
        assert p.system.sup_norms.tolist() == [k ** -2.5 for k in range(1, 5)]
        p = build_problem({"system": "blocks:0.5", "d_max": "3", "qoi": "mean"})
        assert p.system.d_max == 3 and p.system.sup_norms.tolist() == [0.5] * 3
        assert p.system.edges == (1 / 3, 2 / 3) and p.qoi == ("mean",)
        with pytest.raises(ConfigError):
            build_problem({"system": "fourier"})
        with pytest.raises(ConfigError):
            build_problem({"qoi": "corner"})

    def test_budget_validation(self):
        with pytest.raises(ConfigError):
            resolve_config("quad", {"budgets": "10,10"}, 0)
        with pytest.raises(ConfigError):
            resolve_config("quad", {"budgets": "10,abc"}, 0)
        study = resolve_config("quad", {"budgets": "10,20"}, 0)
        assert study.budgets == (10, 20)

    @pytest.mark.parametrize("kind", ["quad", "interp", "ml-quad", "ml-interp", "grf"])
    @pytest.mark.parametrize("budgets", [(0,), (-5, 3)])
    def test_nonpositive_budgets_rejected(self, tmp_path, capsys, kind, budgets):
        with pytest.raises(ConfigError):
            resolve_config(kind, {}, 0, budgets=budgets)
        out = tmp_path / "out"
        text = ",".join(str(b) for b in budgets)
        assert main([kind, "--out", str(out), f"--budgets={text}"]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_bayes_budgets_are_levels(self, tmp_path):
        assert resolve_config("bayes", {}, 0, budgets=(0, 2)).budgets == (0, 2)
        with pytest.raises(ConfigError):
            resolve_config("bayes", {}, 0, budgets=(-5, 3))
        assert main(["bayes", "--out", str(tmp_path / "out"), "--budgets=-5,3"]) == 2
        assert main(["bayes", "--out", str(tmp_path / "ok"), "--budgets=0"]) == 0

    def test_eps_grid_validation(self):
        study = resolve_config("quad", {"eps_grid": "1e-2,1e-4"}, 0)
        assert study.eps_grid == (1e-2, 1e-4)
        with pytest.raises(ConfigError):
            resolve_config("quad", {"eps_grid": "1e-4,1e-2"}, 0)
        with pytest.raises(ConfigError):
            resolve_config("quad", {"eps_grid": "0.1,-0.2"}, 0)

    def test_eps_grid_drives_rows(self, tmp_path):
        study = resolve_config(
            "quad", {"system": "constant:0.5", "eps_grid": "1e-2,1e-4,1e-8"}, 0
        )
        rows = run_quad_study(study, tmp_path)
        assert len(rows) == 3
        errors = [row[2] for row in rows]
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_study_record_holds_one_resolved_field_per_key(self, tmp_path):
        assert cli.StudyConfig._fields == ("kind", "problem", "seed", "raw", *cli._KEYS)
        study = resolve_config("ml-quad", {"system": "sindecay", "d_max": "4"}, 0)
        assert (study.q1, study.budgets, study.eps_grid) == (1.0, (256, 1024, 4096, 16384), ())
        assert (study.p, study.d_max, study.kappa) == (0.5, 4, None)
        cfg = {"q1": "0.5", "budgets": "8,16", "eps_grid": "1e-2,1e-3"}
        study = resolve_config("ml-quad", cfg, 0)
        assert (study.q1, study.budgets, study.eps_grid) == (0.5, (8, 16), (1e-2, 1e-3))
        assert study.raw == cfg
        # --budgets over the key, the key over the study's default
        assert resolve_config("ml-quad", cfg, 0, budgets=(32,)).budgets == (32,)
        path = write_cfg(tmp_path, "budgets = 1,2\n")
        assert main(["bayes", "--config", str(path), "--out", str(tmp_path / "a"),
                     "--budgets", "3"]) == 0
        assert "budgets = 3" in (tmp_path / "a" / "meta.txt").read_text().splitlines()


class TestHelpers:
    def test_bisect_epsilon_monotone_cost(self):
        cost = lambda eps: 100.0 / eps
        eps = bisect_epsilon(cost, 1000.0)
        assert cost(eps) <= 1000.0
        assert cost(eps / 1.01) > 990.0

    def test_fit_rate(self):
        ns = [10, 20, 40, 80]
        errs = [1.0 / n ** 2 for n in ns]
        assert fit_rate(ns, errs) == pytest.approx(-2.0, abs=1e-12)
        assert fit_rate(ns[:3], errs[:3]) is None
        assert fit_rate(ns, [0.0, 0.0, 0.0, 0.0]) is None
        assert fit_rate([65] * 4, errs) is None  # no spread in log budget
        assert fit_rate([10, 65, 65, 65], errs) is not None

    @given(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=16), st.floats(0.1, 0.9),
           st.floats(0.1, 10.0), st.integers(3, 12), st.floats(0.0, 1.0),
           st.sampled_from([1, 2]), st.floats(1e-2, 1e6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_table_surrogate_matches_surrogate_weight(self, b, p, xi, r, tau_frac, k, K, data):
        family = WeightFamily(b=np.sort(b)[::-1], p=p, xi=xi, r=r, tau=tau_frac * (r - 1),
                              k=k, K=K)
        assert family.table == {}
        indices = data.draw(st.lists(st.dictionaries(
            st.integers(0, family.d_max - 1), st.integers(1, MAX_LEVEL + 2), max_size=4)))
        for entries in indices * 2:  # the first pass fills the family's table, the second reads it
            nu = MultiIndex.from_dict(entries)
            got = surrogate_weight(family, nu)
            assert type(got) is float
            assert got.hex() == float(surrogate_weight_oracle(family, nu)).hex()
        assert set(family.table) == {entry for e in indices for entry in e.items()}
        exp = data.draw(st.integers(1, 5))
        outside = MultiIndex.from_dict({0: 1, family.d_max: exp})
        message = f"dimension {family.d_max} outside weight family truncation"
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                surrogate_weight(family, outside)
            assert (family.d_max, exp) not in family.table

    def test_threshold_set_respects_budget(self):
        study = resolve_config("quad", {"system": "sindecay", "d_max": "4"}, 0)
        budgets = (10, 50, 200)
        for budget, selected in zip(budgets, threshold_set_for_budget(study, 2, budgets)):
            assert evaluation_point_count(selected) <= budget


def sin_study(**overrides):
    cfg = {"system": "sindecay", "r_decay": "3.0", "d_max": "4", "alpha": "1.0"}
    return resolve_config("ml-quad", {**cfg, **overrides}, 0)


def study_surrogate(study, k):
    family = study.weight_family(k)
    return lambda nu: surrogate_weight(family, nu)


def study_cost(study, k):
    """The study's shared multilevel cost, as `run_ml_study` makes it."""
    family = study.weight_family(k)
    surrogate = study_surrogate(study, k)
    return MemberTable(surrogate, surrogate, study.q1, study.alpha, family.d_max)


class TestMlBudgetSearch:
    """The table-priced search against a fresh `construct_levels` per probe."""

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.floats(0.1, 1.9),
           st.floats(0.25, 3.0), st.integers(1, 12),
           st.lists(st.floats(-9.0, 1.0), min_size=1, max_size=8),
           st.lists(st.integers(0, 34), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_cost_matches_fresh_allocation(self, seed, dims, q1, alpha, top,
                                           log_eps, picks):
        surrogate, _, _ = random_product_surrogate(np.random.default_rng(seed), dims)
        sw = default_work_sequence(top)
        cost = MemberTable(surrogate, surrogate, q1, alpha, dims, 500)
        oracle = ml_work_oracle(surrogate, q1, alpha, sw, dims, 500)
        # probes in the given order go above and below the table's eps;
        # exact reciprocals put a member right on the threshold
        probes = [10.0 ** x for x in log_eps]
        reciprocals = [
            1.0 / surrogate(MultiIndex.from_exponents([p % 7, p // 7][:dims]))
            for p in picks
        ]
        for eps in probes + reciprocals:
            assert cost.price(eps, sw) == oracle(eps)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.floats(0.1, 1.9),
           st.floats(0.25, 3.0), st.lists(st.floats(-9.0, 1.0), min_size=2))
    @settings(max_examples=50, deadline=None)
    def test_cost_nonincreasing_in_eps(self, seed, dims, q1, alpha, log_eps):
        surrogate, _, _ = random_product_surrogate(np.random.default_rng(seed), dims)
        cost = MemberTable(surrogate, surrogate, q1, alpha, dims, 500)
        costs = [cost.price(10.0 ** x, default_work_sequence(10)) for x in sorted(log_eps)]
        assert all(b <= a for a, b in zip(costs, costs[1:]))

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.floats(0.1, 1.9),
           st.floats(0.25, 3.0), st.integers(1, 3000))
    @settings(max_examples=40, deadline=None)
    def test_bisection_takes_the_oracle_path(self, seed, dims, q1, alpha, budget):
        surrogate, _, _ = random_product_surrogate(np.random.default_rng(seed), dims)
        sw = default_work_sequence(max(1, int(math.log2(budget))))
        cost = MemberTable(surrogate, surrogate, q1, alpha, dims, 300)
        oracle = ml_work_oracle(surrogate, q1, alpha, sw, dims, 300)
        try:
            eps = bisect_epsilon(lambda e: cost.price(e, sw), budget)
        except ValueError:  # every probe fits: the infimum lies below the floor
            with pytest.raises(ValueError):
                bisect_epsilon(oracle, budget)
            return
        assert eps == bisect_epsilon(oracle, budget)
        assert oracle(eps) <= budget

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.floats(0.1, 1.9),
           st.floats(0.25, 3.0),
           st.lists(st.tuples(st.floats(-12.0, 1.0), st.integers(1, 12),
                              st.integers(1, 5000)), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_shared_cost_decides_like_the_oracle(self, seed, dims, q1, alpha, probes):
        # one table serves every work sequence and budget, probed in any order;
        # a probe priced above its budget may read inf instead of its value
        surrogate, _, _ = random_product_surrogate(np.random.default_rng(seed), dims)
        cost = MemberTable(surrogate, surrogate, q1, alpha, dims, 500)

        def check(eps, sw, budget):
            value = cost.price(eps, sw)
            exact = ml_work_oracle(surrogate, q1, alpha, sw, dims, 500)(eps)
            assert (value <= budget) == (exact <= budget)
            assert value == exact or (value == math.inf and exact > budget)
            return exact

        for log_eps, top, budget in probes:
            sw = default_work_sequence(top)
            exact = check(10.0 ** log_eps, sw, budget)
            if exact < math.inf:  # a table eps priced exactly at the budget
                check(10.0 ** log_eps * (1.0 - 1e-9), sw, exact)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.floats(0.1, 1.9),
           st.floats(0.25, 3.0), st.integers(1, 2), st.lists(st.integers(0, 2), max_size=11),
           st.lists(st.integers(1, 5000), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_sweep_matches_event_scan(self, seed, dims, q1, alpha, first, steps, budgets):
        # W_l = 2 W_{l-1} + step keeps every bound of `WorkSequence`
        values = [0, first]
        for step in steps:
            values.append(2 * values[-1] + step)
        sw = multilevel.WorkSequence(tuple(values))
        surrogate, _, _ = random_product_surrogate(np.random.default_rng(seed), dims)
        table = MemberTable(surrogate, surrogate, q1, alpha, dims, 200)
        for budget in budgets:
            eps = table.eps_for_budget(budget, sw)
            expected = scan_budget_eps(table, budget, sw)
            assert table.allocation(eps, sw).levels == table.allocation(expected, sw).levels
            assert (eps == math.inf) == (expected == math.inf)
            assert table.price(eps, sw) <= budget

    def test_large_alpha_answer_is_exact(self):
        # at alpha = 20 the level bounds grow so slowly that 256 cell units
        # buy eps = 4.0e-29: 58968 members, 28 of them at level 1 or above
        study = sin_study(alpha="20")
        family = study.weight_family(2)
        calls = []
        surrogate = lambda nu: calls.append(nu) or surrogate_weight(family, nu)
        table = MemberTable(surrogate, surrogate, study.q1, study.alpha, family.d_max)
        alloc, sw = _ml_allocation_for_budget(table, 256)
        assert work(alloc) <= 256 and len(alloc.levels) == 28
        eps = table.eps_for_budget(256, sw)
        below = next(event_midpoints(table, sw, math.log(eps)))
        assert table.price(math.exp(below), sw) > 256
        # one walk, each member popped once: no table is rebuilt, and with one
        # surrogate for c and d the table reads each d weight off the walk
        assert len(set(table.members)) == len(table.members)
        assert len(calls) == table.walk.calls
        assert table.walk.calls <= 3 * len(table.members) + 1

    @pytest.mark.parametrize("overrides, k, budget", [
        ({}, 2, 4096),
        ({}, 2, 16384),
        ({}, 1, 1024),
        ({"r_decay": "2.0"}, 2, 4096),
        ({"system": "blocks:1.0"}, 2, 1024),
        ({"d_max": "8", "alpha": "0.5"}, 2, 1024),
        ({"alpha": "2.0", "p": "0.4"}, 2, 4096),
    ])
    def test_study_allocation_matches_bisection_oracle(self, overrides, k, budget):
        study = sin_study(**overrides)
        alloc, sw = _ml_allocation_for_budget(study_cost(study, k), budget)
        expected = bisection_ml_allocation(study_surrogate(study, k), study.q1,
                                           study.alpha, budget, sw,
                                           study.weight_family(k).d_max)
        assert alloc.levels == expected.levels

    @pytest.mark.parametrize("overrides, k", [
        ({}, 2),
        ({}, 1),
        ({"r_decay": "2.0"}, 2),
        ({"system": "blocks:1.0"}, 2),
        ({"d_max": "8", "alpha": "0.5"}, 2),
        ({"alpha": "2.0", "p": "0.4"}, 2),
    ])
    def test_shared_table_allocations_match_bisection_oracle(self, overrides, k):
        # the budget rows of a study share one table, lowered by each in turn
        study = sin_study(**overrides)
        cost = study_cost(study, k)
        for budget in (4096, 1024, 16384, 2048):
            alloc, sw = _ml_allocation_for_budget(cost, budget)
            expected = bisection_ml_allocation(study_surrogate(study, k), study.q1,
                                               study.alpha, budget, sw,
                                               study.weight_family(k).d_max)
            assert alloc.levels == expected.levels

    def test_bisection_steps_over_one_ulp_window(self):
        # eps = 6.809245424972145e-12 allocates 15712 <= 16384 cell units;
        # bisection resolves eps to ~7.5e-11 relative and settles on 15068
        study = sin_study()
        alloc, sw = _ml_allocation_for_budget(study_cost(study, 2), 16384)
        assert work(alloc) == 15068
        surrogate = study_surrogate(study, 2)
        expected = bisection_ml_allocation(surrogate, study.q1, study.alpha, 16384, sw, 4)
        assert alloc.levels == expected.levels
        window = construct_levels(surrogate, surrogate, study.q1, study.alpha,
                                  6.809245424972145e-12, sw, 4)
        assert work(window) == 15712

    def test_exponent_without_rule_costs_inf(self):
        surrogate = lambda nu: 1.05 ** nu.order
        sw = default_work_sequence(6)
        cost = MemberTable(surrogate, surrogate, 1.0, 1.0, 1)
        oracle = ml_work_oracle(surrogate, 1.0, 1.0, sw, 1)
        # member 70 is active at its own threshold; member 60 has a rule
        assert cost.price(1.0 / surrogate(MultiIndex(((0, 70),))), sw) == math.inf
        assert oracle(1.0 / surrogate(MultiIndex(((0, 70),)))) == math.inf
        finite = cost.price(1.0 / surrogate(MultiIndex(((0, 60),))), sw)
        assert 0 < finite < math.inf
        assert finite == oracle(1.0 / surrogate(MultiIndex(((0, 60),))))
        assert cost.price(2.0, sw) == 0


class TestQuadStudy:
    def test_constant_problem_converges(self, tmp_path):
        study = resolve_config(
            "quad", {"system": "constant:0.5"}, 0, budgets=(3, 5, 7, 10)
        )
        rows = run_quad_study(study, tmp_path)
        errors = [row[2] for row in rows]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[-1] <= 1e-8
        assert (tmp_path / "quad.csv").exists()
        header = (tmp_path / "quad.csv").read_text().splitlines()[0]
        assert header == "n_points,work,abs_error,fitted_rate"

    def test_reference_modes(self, tmp_path, capsys):
        # one reference for every problem: the closed-form Gaussian average
        study = resolve_config("quad", {"system": "sindecay", "d_max": "2"}, 0,
                               budgets=(3, 5))
        run_quad_study(study, tmp_path)
        meta = (tmp_path / "meta.txt").read_text().splitlines()
        assert "reference = analytic" in meta
        cfg = write_cfg(tmp_path, CONSTANT_CFG + "reference = dense\n")
        assert main(["quad", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--budgets", "3,5"]) == 2
        assert "unknown key 'reference'" in capsys.readouterr().err

    @pytest.mark.parametrize("text, budgets, points, share", [
        ("d_max = 6\n", "50,100,200", ["64", "64"], 1.0 / 2.0),
        ("d_max = 4\nqoi = mean\n", "25,50", ["16", "16"], 1.0 / 6.0),
    ], ids=["point-d6", "mean-d4"])
    def test_blocks_with_edges_off_the_dyadic_points(self, tmp_path, text, budgets, points,
                                                     share):
        # edges k/6, and the mean's weight over (0, 1) at k/4, fall inside the
        # dyadic panels of (0, x); the panels split there, so the exact map
        # converges.  Every row is the 2**d_max-point set of the first tie
        # group that fits (none fits 50 at d_max 6): -cosh(1) times the
        # share where E[u] has exp(1/2)
        cfg = write_cfg(tmp_path, "system = blocks\n" + text)
        out = tmp_path / "o"
        assert main(["quad", "--config", str(cfg), "--out", str(out),
                     "--budgets", budgets]) == 0
        rows = [line.split(",") for line in (out / "quad.csv").read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == points
        for row in rows:
            assert float(row[2]) == pytest.approx((math.exp(0.5) - math.cosh(1.0)) * share,
                                                  rel=1e-12)

    def test_blocks_row_scored_against_closed_form(self, tmp_path):
        # the first tie group of 256 nodes is the only set within 400 points,
        # and its error against -exp(1/2)/2 is far from 0
        study = resolve_config("quad", {"system": "blocks", "d_max": "8"}, 0,
                               budgets=(25, 50, 100, 200, 400))
        rows = run_quad_study(study, tmp_path)
        assert [row[0] for row in rows] == [256]
        assert rows[0][2] == pytest.approx(5.28e-2, rel=1e-3)

    def test_trivial_integrand_zero_error(self):
        study = resolve_config("quad", {}, 0, budgets=(3, 5, 7))
        ones = ParametricMapFn(lambda rows: np.ones((len(rows), 1)), 1)
        sets, _ = cli._study_sets(study, 2)
        assert sets
        for selected in sets:
            assert abs(float(smolyak.quadrature(selected, ones)[0]) - 1.0) <= 1e-14

    @pytest.mark.filterwarnings("error::numpy.exceptions.RankWarning")
    def test_rate_cell_empty_when_budgets_give_one_set(self, tmp_path):
        # the 1-d ladder stops at 65 points, so the last four default budgets
        # select the same set and there is no slope to fit
        out = tmp_path / "o"
        assert main(["quad", "--out", str(out)]) == 0
        lines = (out / "quad.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[-4:]] == ["65"] * 4
        assert lines[-1].split(",")[3] == ""


class TestInterpStudy:
    def test_monotone_decrease(self, tmp_path):
        study = resolve_config(
            "interp",
            {"system": "sindecay", "r_decay": "3.0", "d_max": "4"},
            0,
            budgets=(25, 100, 400),
        )
        rows = run_interp_study(study, tmp_path)
        errors = [row[1] for row in rows]
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_reference_self_consistency(self, tmp_path):
        study = resolve_config(
            "interp", {"system": "sindecay", "d_max": "2"}, 0, budgets=(64,)
        )
        from hermgrid.model import as_parametric_map
        from hermgrid.smolyak import interpolate

        ref_set, = threshold_set_for_budget(study, 1, [4 * 64])
        target = as_parametric_map(study.problem, ("exact",))
        reference = interpolate(ref_set, target)
        assert (reference - reference).l2_norm() == 0.0

    def test_rows_equal_to_the_last_set_of_the_family_are_written(self, tmp_path):
        # the 1-d ladder ends at 65 nodes, so budgets 100..800 all select it;
        # every row is resolved below the closed form's floor, so reads it
        out = tmp_path / "o"
        assert main(["interp", "--out", str(out)]) == 0
        lines = (out / "interp.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["25", "50"] + ["65"] * 4
        meta = (out / "meta.txt").read_text().splitlines()
        assert "reference = analytic" in meta
        floor, = [line.split(" = ")[1] for line in meta if line.startswith("l2_floor = ")]
        assert 0 < float(floor) < 1e-6
        assert all(line.split(",")[1] == floor for line in lines[1:])


class TestMlStudy:
    def test_constant_problem_error_decreases(self, tmp_path):
        # constant-coefficient FEM is nodally exact, so the telescoped sum
        # degenerates gracefully and the error tracks the quadrature set
        study = resolve_config(
            "ml-quad", {"system": "constant:0.5", "alpha": "1.0"},
            0, budgets=(32, 128, 512, 2048),
        )
        rows = run_ml_study(study, tmp_path, "quad")
        errors = [row[1] for row in rows]
        assert len(errors) >= 4
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_work_within_budget_and_decreasing_error(self, tmp_path):
        study = resolve_config(
            "ml-quad",
            {"system": "sindecay", "r_decay": "3.0", "d_max": "4", "alpha": "1.0"},
            0,
            budgets=(512, 2048, 8192, 32768),
        )
        rows = run_ml_study(study, tmp_path, "quad")
        assert len(rows) == 4
        for (spent, _), budget in zip(rows, study.budgets):
            assert spent <= budget
        errors = [row[1] for row in rows]
        assert errors[-1] < errors[0]
        assert sum(b < a for a, b in zip(errors, errors[1:])) >= 2

    def test_eps_grid_rows(self, tmp_path):
        cfg = write_cfg(tmp_path, "system = sindecay\nd_max = 4\neps_grid = 1e-2,1e-4,1e-6\n")
        assert main(["ml-quad", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert len((tmp_path / "out" / "ml_quad.csv").read_text().splitlines()) == 1 + 3

    def test_eps_grid_above_level_one_fails(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "system = sindecay\nd_max = 4\neps_grid = 10,5\n")
        assert main(["ml-quad", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure") and "eps grid 10.0,5.0" in err
        assert "no allocation within them reaches level 1" in err


class TestEpsRowCap:
    @pytest.mark.parametrize("kind", ["quad", "interp", "ml-quad", "ml-interp"])
    def test_eps_row_past_the_cap_exits_3_naming_it(self, tmp_path, capsys, monkeypatch, kind):
        # the first eps fits the cap; 1e-300 would walk millions of members
        monkeypatch.setattr(cli, "_EPS_CAP", 40)
        cfg = write_cfg(tmp_path, "system = sindecay\nd_max = 4\neps_grid = 1e-2,1e-300\n")
        assert main([kind, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure")
        assert "exceeded cap of 40 members (eps=1e-300)" in err

    @pytest.mark.parametrize("kind, name", [("ml-quad", "ml_quad.csv"),
                                            ("ml-interp", "ml_interp.csv")])
    def test_budget_rows_do_not_take_the_cap(self, tmp_path, monkeypatch, kind, name):
        cfg = write_cfg(tmp_path, SIN_CFG)
        args = [kind, "--config", str(cfg), "--budgets", "1024,4096", "--out"]
        assert main(args + [str(tmp_path / "out")]) == 0
        monkeypatch.setattr(cli, "_EPS_CAP", 1)
        assert main(args + [str(tmp_path / "capped")]) == 0
        assert filecmp.cmp(tmp_path / "out" / name, tmp_path / "capped" / name, shallow=False)


class TestBudgetRowCap:
    @pytest.mark.parametrize("overrides", ["alpha = 1e300\n", "alpha = 1.0\nq1 = 1.9999999\n",
                                           "alpha = 50\n"])
    def test_no_level_1_within_the_cap_exits_3_naming_the_budget(self, tmp_path, capsys,
                                                                 monkeypatch, overrides):
        # no allocation reaches level 1, so no price exceeds the budget: the
        # sweep would grow the shared table toward the library's 10**7 members
        monkeypatch.setattr(cli, "_BUDGET_CAP", 2000)
        cfg = write_cfg(tmp_path, SIN_CFG.replace("alpha = 1.0\n", overrides))
        assert main(["ml-quad", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--budgets", "256"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: budget 256: the search reached the cap "
                              "of 2000 members")

    def test_answer_past_the_cap_is_not_written(self, tmp_path, capsys, monkeypatch):
        # alpha = 20 needs 71 606 rows for its exact budget-256 answer; a table
        # capped below that used to write the capped table's answer as a row
        monkeypatch.setattr(cli, "_BUDGET_CAP", 20_000)
        cfg = write_cfg(tmp_path, SIN_CFG.replace("alpha = 1.0", "alpha = 20"))
        assert main(["ml-quad", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--budgets", "256"]) == 3
        assert "budget 256: the search reached the cap" in capsys.readouterr().err
        assert not (tmp_path / "out" / "ml_quad.csv").exists()

    def test_single_level_walk_past_the_cap_exits_3_naming_the_budget(self, tmp_path, capsys,
                                                                      monkeypatch):
        # interp's walk to 10**12 points would not stop before memory ran out
        monkeypatch.setattr(cli, "_BUDGET_CAP", 2000)
        cfg = write_cfg(tmp_path, "system = sindecay\nr_decay = 3.0\nd_max = 16\n")
        assert main(["interp", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--budgets", "1000000000000"]) == 3
        assert capsys.readouterr().err.startswith(
            "numerical failure: budget 1000000000000: the threshold walk reached "
            "the cap of 2000 members")
        assert not (tmp_path / "out" / "interp.csv").exists()

    def test_single_level_budgets_within_the_cap_exit_0(self, tmp_path, monkeypatch):
        # quad and interp both fit budgets 25 and 50 under a cap of 100 members:
        # interp walks no further than its own largest budget
        monkeypatch.setattr(cli, "_BUDGET_CAP", 100)
        cfg = write_cfg(tmp_path, "system = sindecay\nr_decay = 3.0\nd_max = 16\n")
        args = ["--config", str(cfg), "--budgets", "25,50", "--out"]
        assert main(["quad", *args, str(tmp_path / "quad")]) == 0
        assert main(["interp", *args, str(tmp_path / "interp")]) == 0
        for name in ("quad/quad.csv", "interp/interp.csv"):
            assert len((tmp_path / name).read_text().splitlines()) == 3

    def test_single_level_walk_that_stops_at_the_rules_keeps_the_cap(self, tmp_path):
        # quad's walk stops after 5836 pops at the first exponent without a rule
        cfg = write_cfg(tmp_path, "system = sindecay\nr_decay = 3.0\nd_max = 16\n")
        assert main(["quad", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--budgets", "1000000000000"]) == 0
        assert len((tmp_path / "out" / "quad.csv").read_text().splitlines()) == 2

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.floats(0.1, 1.9),
           st.floats(0.25, 3.0), st.integers(1, 40), st.integers(1, 3000))
    @settings(max_examples=40, deadline=None)
    def test_fails_exactly_when_every_price_of_the_capped_table_fits(self, seed, dims, q1,
                                                                     alpha, cap, budget):
        surrogate, _, _ = random_product_surrogate(np.random.default_rng(seed), dims)
        table = MemberTable(surrogate, surrogate, q1, alpha, dims, cap)
        try:
            _ml_allocation_for_budget(table, budget)
            failed = False
        except HermgridError as exc:
            failed = f"budget {budget}" in str(exc)
        sw = default_work_sequence(max(1, int(math.floor(math.log2(max(budget, 2))))))
        fits = all(table.price(math.exp(x), sw) <= budget for x in event_midpoints(table, sw))
        assert failed == (len(table.members) >= cap and fits)


class TestOneCallPerNodeAndFidelity:
    """Within a study every map is called once per fidelity, after every row
    is planned, and once per distinct node: the rows share one exact-map
    call, and the budget rows one FEM call per mesh size."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """One (fidelity, node keys) pair per map call."""
        made = []

        def counted(problem, fidelity):
            inner = as_parametric_map(problem, fidelity)

            def fn(rows):
                made.append((fidelity, [tuple((j, v) for j, v in enumerate(y.tolist()) if v)
                                        for y in rows]))
                return inner.fn(rows)

            return ParametricMapFn(fn, inner.output_dim, inner.cost, inner.label)

        monkeypatch.setattr(cli, "as_parametric_map", counted)
        return made

    @pytest.mark.parametrize("kind", ["ml-quad", "ml-interp"])
    def test_ml_study(self, tmp_path, calls, kind):
        study = resolve_config(kind, sin_study().raw, 0, budgets=(1024, 4096, 16384))
        run_ml_study(study, tmp_path, "quad" if kind == "ml-quad" else "interp")
        fem = [fidelity for fidelity, _ in calls if fidelity[0] == "fem"]
        assert len(fem) == len(set(fem)) >= 3
        nodes = [(fidelity, node) for fidelity, batch in calls for node in batch]
        assert len(nodes) == len(set(nodes))

    @pytest.mark.parametrize("kind, run", [("quad", run_quad_study),
                                           ("interp", run_interp_study)])
    def test_single_level_study(self, tmp_path, calls, kind, run):
        study = resolve_config(kind, {"system": "sindecay", "d_max": "6"}, 0,
                               budgets=(25, 50, 100))
        run(study, tmp_path)
        # both are scored in closed form: the rows' sets are all the map sees
        sets = threshold_set_for_budget(study, 2 if kind == "quad" else 1, (25, 50, 100))
        nodes = {tuple((j, v) for j, v in enumerate(y.tolist()) if v)
                 for selected in sets for y in sparse_grid_points(selected)}
        (fidelity, batch), = calls
        assert fidelity == ("exact",)
        assert len(batch) == len(set(batch)) and set(batch) == nodes


class TestOneBudgetSearchPerStudy:
    """A study walks the threshold family once, and every walk and every
    member-table build runs inside the budget-search functions."""

    @pytest.fixture
    def searches(self, monkeypatch):
        log, depth = [], [0]

        def inside(fn):
            def wrapped(*args):
                depth[0] += 1
                try:
                    return fn(*args)
                finally:
                    depth[0] -= 1
            return wrapped

        def record(kind, fn):
            def wrapped(*args, **kwargs):
                result = fn(*args, **kwargs)
                log.append((kind, depth[0] > 0, len(result)))
                return result
            return wrapped

        for name in ("threshold_set_for_budget", "_ml_allocation_for_budget"):
            monkeypatch.setattr(cli, name, inside(getattr(cli, name)))
        monkeypatch.setattr(cli, "largest_threshold_set",
                            record("walk", cli.largest_threshold_set))
        monkeypatch.setattr(multilevel, "build_threshold_set",
                            record("table", multilevel.build_threshold_set))
        return log

    @pytest.mark.parametrize("kind, run", [("quad", run_quad_study),
                                           ("interp", run_interp_study)])
    def test_single_level_study_walks_once(self, tmp_path, searches, kind, run):
        study = resolve_config(kind, {"system": "sindecay", "d_max": "6"}, 0,
                               budgets=(25, 50, 100))
        run(study, tmp_path)
        # one walk for the three rows
        assert searches == [("walk", True, 3)]

    def test_ml_study_lowers_one_table(self, tmp_path, searches, monkeypatch):
        tables = []
        init = multilevel.MemberTable.__init__
        monkeypatch.setattr(multilevel.MemberTable, "__init__",
                            lambda self, *args: tables.append(self) or init(self, *args))
        study = sin_study(budgets="4096,16384,65536")
        run_ml_study(study, tmp_path, "quad")
        # the reference is closed-form, and the budget rows build no set from
        # the origin: they share one table, lowered by resuming its walk
        assert searches == []
        table, = tables
        assert len(set(table.members)) == len(table.members) == 406
        assert table.walk.calls <= 3 * len(table.members) + 1

    @pytest.fixture
    def coeff_calls(self, monkeypatch):
        """The sets `combination_coeffs` is called on, from a cold term cache
        (it is process-wide, so an earlier test may hold these sets)."""
        seen = []
        inner = smolyak.combination_coeffs
        monkeypatch.setattr(smolyak, "combination_coeffs",
                            lambda index_set: seen.append(index_set) or inner(index_set))
        smolyak._terms.cache_clear()
        return seen

    @pytest.mark.parametrize("kind, run", [("quad", run_quad_study),
                                           ("interp", run_interp_study)])
    def test_combination_terms_once_per_set(self, tmp_path, coeff_calls, kind, run):
        study = resolve_config(kind, {"system": "sindecay", "r_decay": "3.0",
                                      "d_max": "16"}, 0, budgets=(25, 50, 100, 200))
        run(study, tmp_path)
        # one set per row
        assert len(coeff_calls) == len({id(s) for s in coeff_calls}) == 4

    def test_ml_level_maps_follow_net_terms(self, tmp_path, monkeypatch):
        # the mlquad-fem config: every row is planned before any map call, and
        # each FEM level map is then called once, on the nodes of every row's
        # nonzero net terms at its level (1653 rows and 44 846 cell units when
        # every level evaluated both of its nested sets)
        calls, make = [], cli.as_parametric_map

        def counted(problem, fidelity):
            u = make(problem, fidelity)
            if fidelity[0] != "fem":
                return u
            return ParametricMapFn(
                lambda rows: calls.append((fidelity[1], len(rows))) or u.fn(rows),
                u.output_dim, u.cost, u.label)

        monkeypatch.setattr(cli, "as_parametric_map", counted)
        run_ml_study(sin_study(budgets="4096,16384,65536"), tmp_path, "quad")
        assert sum(n for _, n in calls) == 1450
        assert sum(cells * n for cells, n in calls) == 34_938
        assert len(calls) == len({cells for cells, _ in calls}) == 11


def assert_no_child_left():
    # no running child and no zombie: the study waited for what it forked
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestGrfStudy:
    def test_report_and_sample_files(self, tmp_path):
        study = resolve_config(
            "grf",
            {"cov": "exponential", "corr_length": "1.0", "grid_m": "16", "ell": "2.0"},
            7,
            budgets=(40,),
        )
        report = run_grf(study, tmp_path)
        assert report["max_cov_deviation"] <= report["cov_tolerance"]
        sample_files = sorted(tmp_path.glob("sample_*.csv"))
        assert len(sample_files) == 40
        first = sample_files[0].read_text().splitlines()
        assert first[0] == "x,value"
        assert len(first) == 18  # header plus 17 grid points

    def test_sample_files_match_oracle(self, tmp_path):
        cfg = {"cov": "matern", "corr_length": "0.5", "smoothness": "2.5",
               "grid_m": "8", "ell": "2.0", "kappa": "3.0", "spline_order": "2"}
        run_grf(resolve_config("grf", cfg, 3, budgets=(6,)), tmp_path)
        plan = circulant_embed_1d(CovarianceSpec.matern(0.5, 2.5), 8, 2.0, cutoff=(3.0, 2))
        assert sorted(p.name for p in tmp_path.glob("sample_*.csv")) == [
            f"sample_{seed}.csv" for seed in range(3, 9)
        ]
        for seed in range(3, 9):
            expected = sample_file_text(plan.grid, sample_grf(plan, seed))
            assert (tmp_path / f"sample_{seed}.csv").read_bytes() == expected.encode()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 64).flatmap(lambda n: st.lists(
        st.tuples(SAMPLE_FLOATS, SAMPLE_FLOATS), min_size=n, max_size=n)))
    def test_sample_template_matches_oracle(self, rows):
        grid = np.array([x for x, _ in rows])
        values = np.array([v for _, v in rows])
        text = cli._sample_template(grid) % tuple(values.tolist())
        assert text == sample_file_text(grid, values)

    def test_each_seed_drawn_once_in_bounded_blocks(self, tmp_path, monkeypatch):
        # Every draw goes through the `hermgrid.cli` name, which the
        # benchmark's grf.sample_grf span hooks, and no call colours more than
        # `_SAMPLE_BLOCK` rows, so the spectrum stack stays small.  The forked
        # child's calls reach the log because it is a file opened for append.
        log = tmp_path / "calls.txt"

        def counted(plan, seed, n_samples):
            with open(log, "a") as calls:
                calls.write(f"{seed} {n_samples}\n")
            return sample_grf(plan, seed, n_samples)

        monkeypatch.setattr(cli, "sample_grf", counted)
        n = 2 * cli._SAMPLE_BLOCK + 5
        first = 2 ** 64 - n
        out = tmp_path / "out"
        out.mkdir()
        run_grf(resolve_config("grf", {"grid_m": "8"}, first, budgets=(n,)), out)
        calls = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        assert max(count for _, count in calls) <= cli._SAMPLE_BLOCK
        drawn = sorted(seed + i for seed, count in calls for i in range(count))
        assert drawn == list(range(first, first + n))

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_no_process_outlives_the_study(self, tmp_path, n):
        # at n = 1 this process's half of the seeds is empty
        report = run_grf(resolve_config("grf", {"grid_m": "8"}, 3, budgets=(n,)), tmp_path)
        assert_no_child_left()
        assert report["n_samples"] == n
        plan = circulant_embed_1d(CovarianceSpec.exponential(1.0), 8, 2.0)
        for seed in range(3, 3 + n):
            expected = sample_file_text(plan.grid, sample_grf(plan, seed))
            assert (tmp_path / f"sample_{seed}.csv").read_bytes() == expected.encode()
        assert len(list(tmp_path.glob("sample_*.csv"))) == n

    @pytest.mark.parametrize("n", [1, 2, 9, 2 * cli._SAMPLE_BLOCK + 5])
    def test_report_matches_dense_oracle(self, tmp_path, n):
        # the study keeps only each process's Gram matrix and row sum; the
        # oracle holds every draw and the dense target.  At n = 1 this
        # process's half is empty, and at 9 and 21 the halves end inside a
        # block; 17 grid rows end inside a block of the report too
        spec = CovarianceSpec.exponential(1.0)
        plan = circulant_embed_1d(spec, 16, 2.0)
        report = run_grf(resolve_config("grf", {"grid_m": "16"}, 3, budgets=(n,)), tmp_path)
        stack = sample_grf(plan, 3, n)
        target = spec.rho(plan.grid[:, None] - plan.grid[None, :])
        cov_dev = np.abs(stack.T @ stack / n - target).max()
        mean_dev = np.abs(stack.mean(axis=0)).max()
        assert report["max_cov_deviation"] == pytest.approx(cov_dev, rel=1e-12, abs=0)
        assert report["max_mean_deviation"] == pytest.approx(mean_dev, rel=1e-12, abs=0)

    def test_shared_memory_does_not_grow_with_the_sample_count(self, tmp_path, monkeypatch):
        # the child hands back its (m + 1)**2 Gram sums and m + 1 row sums
        lengths, mapping = [], cli.mmap.mmap

        def recorded(fileno, length, *args, **kwargs):
            lengths.append(length)
            return mapping(fileno, length, *args, **kwargs)

        monkeypatch.setattr(cli.mmap, "mmap", recorded)
        for n in (3, 40):
            out = tmp_path / str(n)
            out.mkdir()
            run_grf(resolve_config("grf", {"grid_m": "16"}, 0, budgets=(n,)), out)
        assert lengths == [17 * 18 * 8] * 2

    def test_failing_child_is_an_output_error(self, tmp_path, monkeypatch, capfd):
        def upper_half_fails(plan, seed, n_samples):
            if seed >= 8:
                raise RuntimeError("no draw for the upper half")
            return sample_grf(plan, seed, n_samples)

        monkeypatch.setattr(cli, "sample_grf", upper_half_fails)
        study = resolve_config("grf", {"grid_m": "8"}, 3, budgets=(10,))
        with pytest.raises(OutputError, match=r"samples 8\.\.12 exited with status 1"):
            run_grf(study, tmp_path)
        assert_no_child_left()
        assert "RuntimeError: no draw for the upper half" in capfd.readouterr().err
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
            f"sample_{seed}.csv" for seed in range(3, 8)
        ]


class TestBayesStudy:
    def test_rows(self, tmp_path):
        study = resolve_config("bayes", {}, 0, budgets=(4, 8, 16))
        rows = run_bayes(study, tmp_path)
        errors = [row[3] for row in rows]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert rows[-1][3] < 1e-7


def test_cli_import_loads_no_scipy():
    # the Gauss-Hermite rules need numpy only; importing scipy would more
    # than double the set-up time and peak memory of every CLI run
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import hermgrid.cli, sys; print(hermgrid.cli.__file__); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    origin, loaded = run.stdout.splitlines()
    assert Path(origin).resolve().parent == src / "hermgrid"
    assert loaded == "[]"


def test_cli_import_loads_no_argparse_dataclasses_or_polynomial():
    # each costs CLI start-up time that no study needs
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import hermgrid.cli, sys; print(sorted(m for m in sys.modules if m in "
            "('argparse', 'dataclasses', 'numpy.polynomial')))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.strip() == "[]"


def test_every_config_key_is_documented():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    missing = sorted(key for key in cli._KEYS
                     if f"`{key}`" not in readme)
    assert not missing, f"config keys absent from README.md: {missing}"
    # the key table's last column: a literal that parses to the default, or
    # words where the default is absent or worked out by the study
    documented = dict(re.findall(r"^\| `(\w+)` +\|.*\| (.+?) +\|$", readme, re.M))
    assert sorted(documented) == sorted(cli._KEYS)
    for key, cell in documented.items():
        parse, _, default = cli._KEYS[key]
        literal = re.fullmatch(r"`([^`]*)`", cell)
        assert (parse(literal[1]) if literal else None) == default, key


class TestMainEntry:
    def test_exit_codes(self, tmp_path):
        cfg = write_cfg(tmp_path, CONSTANT_CFG)
        out = tmp_path / "out"
        assert main(["quad", "--config", str(cfg), "--out", str(out),
                     "--budgets", "3,5"]) == 0
        bad = write_cfg(tmp_path, "nonsense = 1\n", "bad.cfg")
        assert main(["quad", "--config", str(bad), "--out", str(out)]) == 2
        npd = write_cfg(
            tmp_path,
            "cov = matern\nsmoothness = 1.5\ncorr_length = 2.0\n"
            "grid_m = 16\nell = 1.0\n",
            "npd.cfg",
        )
        assert main(["grf", "--config", str(npd), "--out", str(out)]) == 3

    @pytest.mark.parametrize("kind, cfg_text, budgets", [
        # every 0/1 index of blocks ties the origin: 1024 members, no set fits
        ("quad", "system = blocks\nd_max = 10\n", "25,50"),
        ("interp", "system = blocks\nd_max = 10\n", "25,50"),
        # at d_max 16 the walk leaves that group after 51 of its 65536 members
        ("quad", "system = blocks\nd_max = 16\n", "25,50"),
        # a level-1 member costs at least 2 cell units
        ("ml-quad", SIN_CFG, "1,2"),
        ("ml-interp", SIN_CFG, "1,2"),
    ])
    def test_study_without_rows_fails(self, tmp_path, capsys, kind, cfg_text, budgets):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, cfg_text)
        assert main([kind, "--config", str(cfg), "--out", str(out),
                     "--budgets", budgets]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure") and f"budgets {budgets}" in err
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("kind, cfg_text, budgets, code", [
        ("quad", CONSTANT_CFG, "3,5", 0),
        ("quad", "d_max = many\n", "3,5", 2),
        ("ml-quad", SIN_CFG, "1,2", 3),
        ("grf", "cov = exponential\ngrid_m = 16\n", "6", 0),  # forks a writer
    ])
    def test_import_heap_frozen_during_the_study_only(self, tmp_path, monkeypatch, kind,
                                                      cfg_text, budgets, code):
        frozen, parse = [], cli.parse_config
        monkeypatch.setattr(cli, "parse_config",
                            lambda path: frozen.append(gc.get_freeze_count()) or parse(path))
        cfg = write_cfg(tmp_path, cfg_text)
        assert gc.get_freeze_count() == 0
        assert main([kind, "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--budgets", budgets]) == code
        assert frozen[0] > 0 and gc.get_freeze_count() == 0

    def test_unknown_study_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["quadrature", "--out", str(out)])
        assert exc.value.code == 2
        assert "invalid choice: 'quadrature'" in capsys.readouterr().err
        assert not out.exists()

    def test_help_lists_every_study(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        choices = capsys.readouterr().out.split("{", 1)[1].split("}", 1)[0]
        assert sorted(choices.split(",")) == ["bayes", "grf", "interp", "ml-interp", "ml-quad",
                                              "quad"]

    def test_main_runs_every_study_through_the_table(self, tmp_path, capsys, monkeypatch):
        with pytest.raises(SystemExit):
            main(["--help"])
        choices = capsys.readouterr().out.split("{", 1)[1].split("}", 1)[0]
        assert choices.split(",") == list(cli._STUDIES)
        ran = []
        for kind, (budgets, _) in cli._STUDIES.items():
            monkeypatch.setitem(cli._STUDIES, kind, (budgets, lambda study, out: ran.append(
                (study.kind, study.budgets, out))))
        for kind in cli._STUDIES:
            assert main([kind, "--out", str(tmp_path / kind)]) == 0
        assert ran == [(kind, budgets, tmp_path / kind)
                       for kind, (budgets, _) in cli._STUDIES.items()]

    @pytest.mark.parametrize("args", [
        ["--seed", "5"], ["--seed=5"], ["--se", "5"], ["--s=5"],
        ["--seed", "7", "--seed", "5"],  # the last one given wins
    ])
    def test_option_forms(self, tmp_path, args):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, "")
        assert main(["--conf", str(cfg), "bayes", *args, "--o", str(out), "--budg=1"]) == 0
        meta = (out / "meta.txt").read_text().splitlines()
        assert "seed = 5" in meta and "budgets = 1" in meta

    def test_budgets_flag_must_be_integers(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["quad", "--out", str(out), "--budgets", "1,x"]) == 2
        assert "--budgets: expected comma-separated integers" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["bayes", "--out", str(out), "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("config error: --seed")

    @pytest.mark.parametrize("args, message", [
        (["bayes"], "required: --out"),
        (["bayes", "--out", "OUT", "--budgets"], "--budgets: expected one argument"),
        (["bayes", "--budgets", "--out", "OUT"], "--budgets: expected one argument"),
        (["bayes", "--out", "OUT", "--bogus", "1"], "unrecognized arguments: --bogus"),
        (["bayes", "--out", "OUT", "--seed", "five"], "invalid int value: 'five'"),
        (["bayes", "quad", "--out", "OUT"], "unrecognized arguments: quad"),
        (["--out", "OUT"], "required: command"),
    ])
    def test_usage_errors_exit_2(self, tmp_path, capsys, args, message):
        args = [str(tmp_path / "out") if a == "OUT" else a for a in args]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: hermgrid") and message in err
        assert not (tmp_path / "out").exists()

    def test_words_after_double_dash_are_positional(self, capsys):
        assert cli.parse_args(["--out", "o", "--", "bayes"])["command"] == "bayes"
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(["--out", "o", "--", "bayes", "--seed", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err

    def test_short_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["quad", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: hermgrid")

    @pytest.mark.parametrize("seed", [str(2 ** 64 + 5), "-1"], ids=["2**64+5", "-1"])
    def test_seed_outside_u64_is_config_error(self, tmp_path, capsys, seed):
        # neither is masked to 64 bits (2**64 + 5 would run as seed 5)
        out = tmp_path / "out"
        assert main(["grf", "--out", str(out), "--budgets", "2", f"--seed={seed}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "--seed" in err
        assert not out.exists()

    def test_bayes_level_above_max_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["bayes", "--out", str(out), f"--budgets={MAX_LEVEL + 1}"]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()
        assert main(["bayes", "--out", str(out), f"--budgets={MAX_LEVEL}"]) == 0

    def test_grf_seed_overflow_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        top = 2 ** 64 - 1
        assert main(["grf", "--out", str(out), "--seed", str(top - 1),
                     "--budgets", "3"]) == 2
        assert "2**64 - 1" in capsys.readouterr().err
        assert not out.exists() or not list(out.glob("sample_*.csv"))
        assert main(["grf", "--out", str(out), "--seed", str(top - 1),
                     "--budgets", "2"]) == 0
        assert sorted(p.name for p in out.glob("sample_*.csv")) == [
            f"sample_{top - 1}.csv", f"sample_{top}.csv"
        ]

    @pytest.mark.parametrize("out", ["file", "file/out"])
    def test_out_under_a_regular_file_exits_2(self, tmp_path, capsys, out):
        (tmp_path / "file").write_text("")
        assert main(["grf", "--out", str(tmp_path / out), "--budgets", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot write output") and str(tmp_path / out) in err

    @pytest.mark.parametrize("kind, name", [
        ("grf", "sample_3.csv"),  # a sample of this process's half
        ("grf", "grf_report.csv"),
        ("grf", "meta.txt"),
        ("quad", "quad.csv"),
    ])
    def test_unwritable_output_file_exits_2(self, tmp_path, capsys, kind, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)  # a directory cannot be opened for writing
        assert main([kind, "--out", str(out), "--budgets", "4", "--seed", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot write output") and name in err
        assert_no_child_left()

    def test_unwritable_sample_of_the_child_exits_2(self, tmp_path, capfd):
        out = tmp_path / "out"
        (out / "sample_6.csv").mkdir(parents=True)  # seeds 5 and 6 are the child's
        assert main(["grf", "--out", str(out), "--budgets", "4", "--seed", "3"]) == 2
        err = capfd.readouterr().err
        assert f"cannot write output: {out / 'sample_6.csv'}: Is a directory" in err
        assert "the process writing samples 5..6 exited with status 1" in err
        assert_no_child_left()

    def test_short_write_is_an_output_error(self, tmp_path, monkeypatch):
        write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:-1]))
        with pytest.raises(OutputError, match="wrote 2 of 3 bytes"):
            cli._write(tmp_path / "short.csv", "x,\n")

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_grf_without_samples_is_config_error(self, tmp_path, capsys, count):
        out = tmp_path / "out"
        assert main(["grf", "--out", str(out), f"--budgets={count}"]) == 2
        assert "at least one sample" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("kind, text, named", [
        ("ml-quad", "q1 = 3\n", "key 'q1'"),
        ("ml-interp", "q1 = 0\n", "key 'q1'"),
        ("ml-quad", "p = 0.7\n", "key 'q1'"),
        ("ml-quad", "alpha = -1\n", "key 'alpha'"),
        ("ml-interp", "alpha = 0\n", "key 'alpha'"),
        ("quad", "system = sindecay\nr_decay = 1\n", "key 'r_decay'"),
        ("quad", "system = constant:-1\n", "key 'system'"),
        ("quad", "system = constant:abc\n", "key 'system'"),
        ("quad", "system = blocks:0\n", "key 'system'"),
        ("grf", "ell = 0.3\n", "2 * ell * m"),
        ("grf", "grid_m = 0\n", "grid size m"),
        ("grf", "corr_length = -1\n", "correlation length"),
        ("grf", "kappa = 0.5\n", "kappa"),
        ("quad", "r = 2\n", "r must exceed max(tau, k)"),
        ("quad", "tau = -1\n", "tau nonnegative"),
        ("quad", "K = 0\n", "K must be positive"),
        ("quad", "xi = -1\n", "xi, K must be positive"),
        ("quad", "system = sindecay\nd_max = 0\n", "key 'd_max'"),
        ("grf", "cov = matern\nsmoothness = 1.0\n", "smoothness 1.0"),
        ("quad", "x0 = 1.5\n", "key 'x0'"),
        ("quad", "x0 = -0.2\n", "key 'x0'"),
        ("quad", "x0 = nan\n", "key 'x0'"),
        ("quad", "system = sindecay\nr_decay = nan\n", "key 'r_decay'"),
        ("quad", "system = constant:nan\n", "key 'system'"),
        ("quad", "system = blocks:nan\n", "key 'system'"),
        ("grf", "corr_length = nan\n", "correlation length"),
        ("grf", "cov = matern\ncorr_length = nan\n", "correlation length"),
        ("quad", "system = constant:inf\n", "key 'system'"),
        ("quad", "system = blocks:inf\n", "key 'system'"),
        ("grf", "kappa = nan\n", "kappa"),
        ("quad", "xi = nan\n", "xi, K must be positive"),
        ("quad", "K = nan\n", "xi, K must be positive"),
        ("quad", "eps_grid = nan\n", "key 'eps_grid'"),
        ("ml-quad", "alpha = inf\n", "key 'alpha': must be positive and finite"),
        ("quad", "system = sindecay\nd_max = 4\nr = 171\n", "r must be at most 170, got 171"),
        ("ml-quad", "system = sindecay\nd_max = 4\nr = 500\n", "r must be at most 170, got 500"),
        ("quad", "r = 171\nxi = 1\n", "r must be at most 170, got 171"),
        ("quad", "system = sindecay\nd_max = 4\nK = inf\n", "K must be positive and finite"),
        ("ml-quad", "xi = inf\n", "xi, K must be positive and finite"),
        ("grf", "ell = inf\n", "2 * ell * m"),
        ("quad", "system = sindecay:7\n", "key 'system'"),
        ("quad", "system = sindecay\nd_max = 8\nr_decay = 400\n", "key 'r_decay'"),
        ("quad", "p = abc\n", "key 'p': not a number"),
        ("quad", "d_max = 1.5\n", "key 'd_max': not an integer"),
        ("quad", "p = 1.5\n", "key 'p': must lie in (0, 1)"),
        ("quad", "p =\n", "empty value for 'p'"),
        ("quad", "f = two\n", "key 'f'"),
        ("grf", "kappa = 3.0\nspline_order = 30\n", "spline order must lie in 1..10, got 30"),
        ("grf", "kappa = 3.0\nspline_order = 171\n", "spline order must lie in 1..10, got 171"),
        ("quad", "system = constant:0.5\nr_decay = abc\n", "key 'r_decay': not a number"),
        ("grf", "cov = exponential\nsmoothness = xyz\n", "key 'smoothness': not a number"),
        ("quad", "qoi = mean\nx0 = abc\n", "key 'x0': not a number"),
        ("quad", "grid_m = abc\n", "key 'grid_m': not an integer"),
        ("quad", "cov = gauss\n", "key 'cov': unknown covariance 'gauss'"),
        ("quad", "system = sindecay\nd_max = 4\nK = 1e80\n",
         "weight keys r, tau, K, xi: K = 1e+80 overflows the factor max(1, K rho_j)**4"),
        ("quad", "system = sindecay\nd_max = 4\nxi = 1e300\nK = 1e300\n",
         "weight keys r, tau, K, xi: K = 1e+300 overflows"),
        ("quad", "system = constant:\n", "key 'system': no amplitude after ':'"),
        ("quad", "system = sindecay:\n", "key 'system': unknown system 'sindecay:'"),
        ("quad", "system = blocks:\n", "key 'system': no amplitude after ':'"),
        ("quad", "system = sindecay\nd_max = 16\np = 0.003\n", "key 'p': ||b||_p overflows"),
        ("quad", "system = sindecay\nd_max = 16\np = 0.003\nxi = 1\n",
         "key 'p': ||b||_p overflows"),
        ("quad", "system = sindecay\nd_max = 1025\n", "key 'd_max': must lie in 1..1024"),
        ("quad", "system = sindecay\nd_max = 1000000\n", "key 'd_max'"),
        ("quad", "system = sindecay\nd_max = 1000000000\n", "key 'd_max'"),
        ("quad", "system = blocks\nd_max = 100000000\n", "key 'd_max'"),
        ("grf", "grid_m = 4097\n", "key 'grid_m': must be at most 4096, got 4097"),
        ("grf", "grid_m = 20000000\n", "key 'grid_m'"),
        ("grf", "grid_m = 1000000000\n", "key 'grid_m'"),
        ("grf", "ell = 1e8\n", "key 'ell': 2 * ell * m must be at most 1048576"),
        ("grf", "grid_m = 4096\nell = 128.5\n", "key 'ell'"),
    ], ids=["q1-3", "q1-0", "p-0.7", "alpha-neg", "alpha-0", "r_decay-1", "constant-neg",
            "constant-abc", "blocks-0", "ell-0.3", "grid_m-0", "corr_length-neg",
            "kappa-0.5", "r-2", "tau-neg", "K-0", "xi-neg", "d_max-0", "smoothness-1.0",
            "x0-1.5", "x0-neg", "x0-nan", "r_decay-nan", "constant-nan", "blocks-nan",
            "corr_length-nan", "matern-corr_length-nan", "constant-inf", "blocks-inf",
            "kappa-nan", "xi-nan", "K-nan", "eps_grid-nan", "alpha-inf",
            "r-171", "r-500", "r-171-xi-1", "K-inf", "xi-inf", "ell-inf", "sindecay-arg",
            "r_decay-underflow", "p-abc", "d_max-1.5", "p-1.5", "p-empty", "f-two",
            "spline_order-30", "spline_order-171", "unread-r_decay-abc",
            "unread-smoothness-xyz", "unread-x0-abc", "unread-grid_m-abc", "cov-gauss",
            "K-1e80", "K-rho-inf", "constant-colon", "sindecay-colon", "blocks-colon",
            "p-0.003", "p-0.003-xi-1", "d_max-1025", "d_max-1e6", "d_max-1e9",
            "blocks-d_max-1e8", "grid_m-4097", "grid_m-2e7", "grid_m-1e9", "ell-1e8",
            "ell-128.5-grid_m-4096"])
    def test_rejected_values_are_config_errors(self, tmp_path, capsys, kind, text, named):
        cfg = write_cfg(tmp_path, text)
        assert main([kind, "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--budgets", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and named in err

    def test_tiny_alpha_puts_every_member_at_the_top_level(self, tmp_path, capsys):
        # eps**(-(1/2 - q1/4)/alpha) overflows a double: the level factor's
        # limit puts every member below eps = 1 at the top level, which no
        # budget affords, while an eps grid still allocates
        cfg = write_cfg(tmp_path, SIN_CFG.replace("alpha = 1.0", "alpha = 1e-300"))
        assert main(["ml-quad", "--config", str(cfg), "--out", str(tmp_path / "a"),
                     "--budgets", "256"]) == 3
        assert "no allocation within them reaches level 1" in capsys.readouterr().err
        grid = write_cfg(tmp_path, cfg.read_text() + "eps_grid = 0.5\n", "grid.cfg")
        assert main(["ml-quad", "--config", str(grid), "--out", str(tmp_path / "b")]) == 0
        study = resolve_config("ml-quad", parse_config(grid), 0)
        family = study.weight_family(2)
        surrogate = lambda nu: surrogate_weight(family, nu)
        alloc = construct_levels(surrogate, surrogate, study.q1, study.alpha, 0.5,
                                 default_work_sequence(20), family.d_max)
        assert len(alloc.levels) > 1 and set(alloc.levels.values()) == {20}
        row = (tmp_path / "b" / "ml_quad.csv").read_text().splitlines()[1]
        assert int(row.split(",")[0]) == work(alloc)

    def test_x0_at_the_left_end_runs(self, tmp_path):
        # [0, 1] is closed; the other end is CONSTANT_CFG's x0 = 1.0
        cfg = write_cfg(tmp_path, "system = constant:0.5\nx0 = 0\n")
        assert main(["quad", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--budgets", "3,5"]) == 0

    @pytest.mark.parametrize("text", ["p = 0.7\n", "q1 = 3\n", "alpha = -1\n"],
                             ids=["p-0.7", "q1-3", "alpha-neg"])
    def test_quad_ignores_multilevel_keys(self, tmp_path, text):
        cfg = write_cfg(tmp_path, CONSTANT_CFG + text)
        assert main(["quad", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--budgets", "3,5"]) == 0

    def test_n_cells_is_unknown_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SIN_CFG + "n_cells = 64\n")
        assert main(["ml-quad", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--budgets", "256"]) == 2
        assert "unknown key 'n_cells'" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, CONSTANT_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["quad", "--config", str(cfg), "--out", str(out),
                         "--seed", "9", "--budgets", "3,5,7"]) == 0
        match, mismatch, errors = filecmp.cmpfiles(
            out1, out2, [p.name for p in out1.iterdir()], shallow=False
        )
        assert not mismatch and not errors


#: Values the generated boundary test draws for any key ("default" leaves the
#: key out), and the size keys' one value past their bound
BOUNDARY_VALUES = ("default", "x!", "0", "1", "-1", "1e-300", "1e300", "inf", "-inf", "nan")
PAST_BOUND = {"d_max": "1025", "grid_m": "4097", "ell": "1e300"}


@st.composite
def boundary_studies(draw):
    """A study, 1-3 keys with values from `BOUNDARY_VALUES` (a size key also
    past its bound), and the --budgets for grf (1 to 3 samples)."""
    kind = draw(st.sampled_from(sorted(cli._STUDIES)))
    keys = draw(st.lists(st.sampled_from(sorted(cli._KEYS)), min_size=1, max_size=3,
                         unique=True))
    values = {key: draw(st.sampled_from(BOUNDARY_VALUES + (PAST_BOUND.get(key, "x!"),)))
              for key in keys}
    budgets = ["--budgets", str(draw(st.integers(1, 3)))] if kind == "grf" else []
    return kind, {key: value for key, value in values.items() if value != "default"}, budgets


@given(boundary_studies())
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_boundary_values_exit_0_2_or_3(tmp_path, monkeypatch, capsys, drawn):
    # small caps keep a tiny eps or an unreachable level 1 quick; every size
    # key is drawn small or past its bound, so no study outgrows the host
    monkeypatch.setattr(cli, "_EPS_CAP", 2000)
    monkeypatch.setattr(cli, "_BUDGET_CAP", 2000)
    kind, values, budgets = drawn
    cfg = {"system": "sindecay", "d_max": "4", **values}
    text = "".join(f"{key} = {value}\n" for key, value in cfg.items())
    out = tmp_path / f"out{len(list(tmp_path.iterdir()))}"
    path = write_cfg(tmp_path, text, f"{out.name}.cfg")
    assert main([kind, "--config", str(path), "--out", str(out), *budgets]) in (0, 2, 3)
    capsys.readouterr()


def test_determinism_digests_list_every_config_in_order():
    # a config added to tests/determinism.py without regenerating the file
    # fails here; the digests are not compared, since they depend on the
    # numpy build and the CPU
    lines = (Path(__file__).parent / "determinism.sha256").read_text().splitlines()
    assert all(re.fullmatch(r"\S+ 0 [0-9a-f]{64}", line) for line in lines)
    assert [line.split()[0] for line in lines] == [name for name, *_ in determinism.CONFIGS]
