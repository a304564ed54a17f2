"""Study runner: configuration, CSV output, reproducibility, exit codes."""

import filecmp
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermgrid import cli, multilevel, smolyak
from hermgrid.cli import (
    _ml_allocation_for_budget,
    build_problem,
    evaluation_point_count,
    fit_rate,
    main,
    ml_work_cost,
    parse_config,
    resolve_config,
    run_bayes,
    run_grf,
    run_interp_study,
    run_ml_study,
    run_quad_study,
    threshold_set_for_budget,
)
from hermgrid.errors import ConfigError
from hermgrid.grf import CovarianceSpec, circulant_embed_1d, sample_grf
from hermgrid.hermite import MAX_LEVEL
from hermgrid.indexset import MultiIndex, surrogate_weight
from hermgrid.model import ParametricMapFn, as_parametric_map
from hermgrid.multilevel import construct_levels, default_work_sequence, work
from hermgrid.smolyak import sparse_grid_points

from util import (
    bisect_epsilon,
    bisection_ml_allocation,
    event_midpoints,
    ml_work_oracle,
    random_product_surrogate,
    sample_file_text,
    scan_budget_eps,
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

    def test_duplicate_key(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "d_max = 4\n# note\nd_max = 6\n")
        with pytest.raises(ConfigError, match=":3: duplicate key 'd_max', first on line 1"):
            parse_config(path)
        out = tmp_path / "out"
        assert main(["quad", "--config", str(path), "--out", str(out)]) == 2
        assert "duplicate key 'd_max'" in capsys.readouterr().err
        assert not out.exists()

    def test_build_problem_variants(self):
        p = build_problem({"system": "constant:0.5"})
        assert p.system.kind == "constant"
        p = build_problem({"system": "sindecay", "r_decay": "2.5", "d_max": "4"})
        assert p.system.kind == "sin" and p.system.d_max == 4
        p = build_problem({"system": "blocks:0.5", "d_max": "3", "qoi": "mean"})
        assert p.system.kind == "blocks" and p.qoi == ("mean",)
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
    return ml_work_cost(study_surrogate(study, k), study.q1, study.alpha, family.d_max)


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
        cost = ml_work_cost(surrogate, q1, alpha, dims, 500)
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
        cost = ml_work_cost(surrogate, q1, alpha, dims, 500)
        costs = [cost.price(10.0 ** x, default_work_sequence(10)) for x in sorted(log_eps)]
        assert all(b <= a for a, b in zip(costs, costs[1:]))

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.floats(0.1, 1.9),
           st.floats(0.25, 3.0), st.integers(1, 3000))
    @settings(max_examples=40, deadline=None)
    def test_bisection_takes_the_oracle_path(self, seed, dims, q1, alpha, budget):
        surrogate, _, _ = random_product_surrogate(np.random.default_rng(seed), dims)
        sw = default_work_sequence(max(1, int(math.log2(budget))))
        cost = ml_work_cost(surrogate, q1, alpha, dims, 300)
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
        cost = ml_work_cost(surrogate, q1, alpha, dims, 500)

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
        table = ml_work_cost(surrogate, q1, alpha, dims, 200)
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
        table = ml_work_cost(surrogate, study.q1, study.alpha, family.d_max)
        alloc, sw = _ml_allocation_for_budget(table, 256)
        assert work(alloc) <= 256 and len(alloc.levels) == 28
        eps = table.eps_for_budget(256, sw)
        below = next(event_midpoints(table, sw, math.log(eps)))
        assert table.price(math.exp(below), sw) > 256
        # one walk, each member popped once: no table is rebuilt (the other
        # calls are one d weight a member and the origin's threshold)
        assert len(set(table.members)) == len(table.members)
        assert len(calls) == table.walk.calls + len(table.members) + 1
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
        cost = ml_work_cost(surrogate, 1.0, 1.0, 1)
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
        assert reference.minus(reference).l2_norm() == 0.0

    def test_row_equal_to_reference_set_is_refused(self, tmp_path, capsys):
        # on blocks one tie group of 256 nodes is the largest set both within
        # 400 and within 4 x 400 points, so the row would read 0
        cfg = write_cfg(tmp_path, "system = blocks\nd_max = 8\n")
        assert main(["interp", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--budgets", "25,50,100,200,400"]) == 3
        assert "row of 256 points" in capsys.readouterr().err

    def test_rows_equal_to_the_last_set_of_the_family_are_written(self, tmp_path):
        # the 1-d ladder ends at 65 nodes, so budgets 100..800 and the
        # reference all select it: rows resolved as far as the rules go
        out = tmp_path / "o"
        assert main(["interp", "--out", str(out)]) == 0
        lines = (out / "interp.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["25", "50"] + ["65"] * 4
        assert all(float(line.split(",")[1]) < 1e-14 for line in lines[1:3])
        assert all(line.split(",")[1] == "0.0" for line in lines[3:])
        assert "reference = interpolant-65-points" in (out / "meta.txt").read_text()


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


class TestOneCallPerNodeAndFidelity:
    """Within a study every map is called once per distinct node: the
    reference and the rows share the exact map, and the budget rows share
    one FEM map per mesh size."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made = []

        def counted(problem, fidelity):
            inner = as_parametric_map(problem, fidelity)

            def fn(rows):
                made.extend((fidelity, tuple((j, v) for j, v in enumerate(y.tolist()) if v))
                            for y in rows)
                return inner.fn(rows)

            return ParametricMapFn(fn, inner.output_dim, inner.cost, inner.label)

        monkeypatch.setattr(cli, "as_parametric_map", counted)
        return made

    @pytest.mark.parametrize("kind", ["ml-quad", "ml-interp"])
    def test_ml_study(self, tmp_path, calls, kind):
        study = resolve_config(kind, sin_study().raw, 0, budgets=(1024, 4096, 16384))
        run_ml_study(study, tmp_path, "quad" if kind == "ml-quad" else "interp")
        fem = [call for call in calls if call[0][0] == "fem"]
        assert len({call[0] for call in fem}) >= 3
        assert len(fem) == len(set(fem))

    @pytest.mark.parametrize("kind, run", [("quad", run_quad_study),
                                           ("interp", run_interp_study)])
    def test_single_level_study(self, tmp_path, calls, kind, run):
        study = resolve_config(kind, {"system": "sindecay", "d_max": "6"}, 0,
                               budgets=(25, 50, 100))
        run(study, tmp_path)
        # quad has a closed-form reference; interp adds the set at 4 x 100
        k, reference = (2, ()) if kind == "quad" else (1, (400,))
        sets = threshold_set_for_budget(study, k, (25, 50, 100) + reference)
        nodes = {tuple((j, v) for j, v in enumerate(y.tolist()) if v)
                 for selected in sets for y in sparse_grid_points(selected)}
        assert len(calls) == len(set(calls)) == len(nodes)


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
        # three rows, and for interp the reference interpolant's set
        assert searches == [("walk", True, 3 if kind == "quad" else 4)]

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
        # four rows, and for interp the reference interpolant's set
        assert len(coeff_calls) == len({id(s) for s in coeff_calls}) == (
            4 if kind == "quad" else 5)

    def test_ml_combination_terms_once_per_set_content(self, tmp_path, monkeypatch,
                                                       coeff_calls):
        # the rows' allocations repeat Gamma_j sets as new objects: the
        # mlquad-fem config builds 30 of them on 16 distinct contents
        gammas = []
        inner = multilevel.gamma_sets

        def recorded(allocation):
            sets = inner(allocation)
            gammas.extend(sets)
            return sets

        monkeypatch.setattr(multilevel, "gamma_sets", recorded)
        run_ml_study(sin_study(budgets="4096,16384,65536"), tmp_path, "quad")
        assert len(gammas) == 30 and len({id(s) for s in gammas}) == 30
        assert len(coeff_calls) == len(set(coeff_calls)) == len(set(gammas)) == 16


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

    def test_one_sample_grf_call_per_sample(self, tmp_path, monkeypatch):
        # One draw per file, through the `hermgrid.cli` name: the benchmark's
        # grf.sample_grf span hooks that name, and a batched draw of every
        # sample would hold the whole spectrum stack in memory at once.
        seeds = []

        def counted(plan, seed):
            seeds.append(seed)
            return sample_grf(plan, seed)

        monkeypatch.setattr(cli, "sample_grf", counted)
        first = 2 ** 64 - 5
        run_grf(resolve_config("grf", {"grid_m": "8"}, first, budgets=(5,)), tmp_path)
        assert seeds == list(range(first, first + 5))


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


def test_every_config_key_is_documented():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    missing = sorted(key for key in cli._PROBLEM_KEYS | cli._STUDY_KEYS
                     if f"`{key}`" not in readme)
    assert not missing, f"config keys absent from README.md: {missing}"


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
    ], ids=["q1-3", "q1-0", "p-0.7", "alpha-neg", "alpha-0", "r_decay-1", "constant-neg",
            "constant-abc", "blocks-0", "ell-0.3", "grid_m-0", "corr_length-neg",
            "kappa-0.5", "r-2", "tau-neg", "K-0", "xi-neg", "d_max-0", "smoothness-1.0",
            "x0-1.5", "x0-neg", "x0-nan", "r_decay-nan", "constant-nan", "blocks-nan",
            "corr_length-nan", "matern-corr_length-nan", "constant-inf", "blocks-inf",
            "kappa-nan", "xi-nan", "K-nan", "eps_grid-nan", "alpha-inf",
            "r-171", "r-500", "r-171-xi-1", "K-inf", "xi-inf"])
    def test_rejected_values_are_config_errors(self, tmp_path, capsys, kind, text, named):
        cfg = write_cfg(tmp_path, text)
        assert main([kind, "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--budgets", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and named in err

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
