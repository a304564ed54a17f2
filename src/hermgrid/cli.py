"""Reproducible convergence studies and sample generation.

Subcommands ``interp``, ``quad``, ``ml-interp``, ``ml-quad``, ``grf`` and
``bayes`` read a plain-text key-value configuration, run the study, and
emit CSV rows plus a ``meta.txt`` echoing the resolved configuration.
Reruns with identical configuration and seed produce byte-identical
output.  Exit codes: 0 success, 2 configuration error, 3 numerical
failure.
"""

import argparse
import math
import sys
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    HermgridError,
    UnsupportedSmoothness,
)
from .grf import CovarianceSpec, circulant_embed_1d, sample_grf
from .hermite import MAX_LEVEL
from .indexset import (IndexSet, MultiIndex, WeightFamily, _root_factorial, build_threshold_set,
                       surrogate_weight)
from .model import (
    BayesSetup,
    ModelProblem1D,
    ParametricMapFn,
    RepresentationSystem,
    as_parametric_map,
    expected_qoi_oracle,
    posterior_expectation,
)
from .multilevel import (
    MemberTable,
    construct_levels,  # noqa: F401 (no caller here; perfbench/layers.py hooks the name)
    default_work_sequence,
    ml_interpolate,
    ml_quadrature,
    work,
)
from .smolyak import _shared, evaluation_point_count, interpolate, largest_threshold_set, quadrature

_PROBLEM_KEYS = {"system", "r_decay", "d_max", "f", "qoi", "x0"}
_STUDY_KEYS = {
    "p", "xi", "r", "tau", "K", "q1", "alpha", "budgets", "eps_grid",
    "cov", "corr_length", "smoothness", "grid_m", "ell", "kappa",
    "spline_order",
}

_DEFAULT_BUDGETS = {
    "quad": (25, 50, 100, 200, 400, 800),
    "interp": (25, 50, 100, 200, 400, 800),
    "ml-quad": (256, 1024, 4096, 16384),
    "ml-interp": (256, 1024, 4096, 16384),
    "grf": (200,),
    "bayes": (2, 4, 6, 8, 12, 17),
}


def parse_config(path) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment."""
    values, lines = {}, {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _PROBLEM_KEYS | _STUDY_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}, first on line {lines[key]}")
        values[key], lines[key] = value, lineno
    return values


def _get_float(cfg, key, default):
    try:
        return float(cfg.get(key, default))
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not a number ({cfg[key]!r})") from exc


def _get_int(cfg, key, default):
    try:
        return int(cfg.get(key, default))
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not an integer ({cfg[key]!r})") from exc


def build_problem(cfg: dict) -> ModelProblem1D:
    """Instantiate the model problem from configuration keys."""
    system_spec = cfg.get("system", "constant:0.5")
    name, _, arg = system_spec.partition(":")
    d_max = _get_int(cfg, "d_max", 16)
    if d_max < 1 and name in ("sindecay", "blocks"):
        raise ConfigError(f"key 'd_max': must be at least 1, got {d_max}")
    try:
        if name == "constant":
            system = RepresentationSystem.constant_mode(float(arg) if arg else 0.5)
        elif name == "sindecay":
            system = RepresentationSystem.sin_decay(_get_float(cfg, "r_decay", 3.0), d_max)
        elif name == "blocks":
            system = RepresentationSystem.blocks(d_max, float(arg) if arg else 1.0)
        else:
            raise ConfigError(f"key 'system': unknown system {system_spec!r}")
    except ValueError as exc:
        key = "r_decay" if name == "sindecay" else "system"
        raise ConfigError(f"key {key!r}: {exc}") from exc
    if cfg.get("f", "one") != "one":
        raise ConfigError("key 'f': only the constant load 'one' is supported")
    qoi_kind = cfg.get("qoi", "point")
    if qoi_kind == "point":
        x0 = _get_float(cfg, "x0", 1.0)
        if not 0.0 <= x0 <= 1.0:
            raise ConfigError(f"key 'x0': must lie in [0, 1], got {x0!r}")
        qoi = ("point", x0)
    elif qoi_kind == "mean":
        qoi = ("mean",)
    else:
        raise ConfigError(f"key 'qoi': unknown kind {qoi_kind!r}")
    return ModelProblem1D(system, qoi=qoi)


@dataclass
class StudyConfig:
    """Resolved study parameters; weight defaults follow the problem decay."""

    kind: str
    problem: ModelProblem1D
    p: float
    xi: float  # 0 means: normalize so rho_j = b_j**(p-1)
    r: int
    tau: float
    K: float
    q1: float
    alpha: float
    budgets: tuple
    seed: int
    eps_grid: tuple = ()
    raw: dict = field(default_factory=dict)

    def weight_family(self, k: int) -> WeightFamily:
        b = self.problem.system.sup_norms
        xi = self.xi
        try:
            if xi == 0.0:
                norm_p = float(np.sum(b ** self.p)) ** (1.0 / self.p)
                xi = 4.0 * _root_factorial(self.r) * norm_p
            return WeightFamily(b=b, p=self.p, xi=xi, r=self.r, tau=self.tau,
                                k=k, K=self.K)
        except ValueError as exc:
            raise ConfigError(f"weight keys r, tau, K, xi: {exc}") from exc


def resolve_config(kind: str, cfg: dict, seed: int, budgets=None) -> StudyConfig:
    problem = build_problem(cfg)
    if budgets is None:
        if "budgets" in cfg:
            try:
                budgets = tuple(int(tok) for tok in cfg["budgets"].split(","))
            except ValueError as exc:
                raise ConfigError("key 'budgets': expected comma-separated integers") from exc
        else:
            budgets = _DEFAULT_BUDGETS[kind]
    budgets = tuple(budgets)
    if any(b <= a for a, b in zip(budgets, budgets[1:])):
        raise ConfigError("budgets must be strictly increasing")
    floor = 0 if kind == "bayes" else 1  # bayes budgets are levels
    if any(b < floor for b in budgets):
        need = "at least one sample" if kind == "grf" else f"budgets >= {floor}"
        raise ConfigError(f"{kind} needs {need}, got {min(budgets)}")
    if kind == "bayes" and max(budgets) > MAX_LEVEL:
        raise ConfigError(f"bayes levels must be at most {MAX_LEVEL}, got {max(budgets)}")
    if not 0 <= seed <= 2 ** 64 - 1:
        raise ConfigError(f"--seed must lie in [0, 2**64 - 1], got {seed}")
    eps_grid = ()
    if "eps_grid" in cfg:
        try:
            eps_grid = tuple(float(tok) for tok in cfg["eps_grid"].split(","))
        except ValueError as exc:
            raise ConfigError("key 'eps_grid': expected comma-separated reals") from exc
        if any(not e > 0 for e in eps_grid) or any(
            b >= a for a, b in zip(eps_grid, eps_grid[1:])
        ):
            raise ConfigError("key 'eps_grid': must be positive, strictly decreasing")
    p = _get_float(cfg, "p", 0.5)
    if not 0.0 < p < 1.0:
        raise ConfigError("key 'p': must lie in (0, 1)")
    q1 = _get_float(cfg, "q1", p / (1.0 - p))
    alpha = _get_float(cfg, "alpha", 1.0)
    if kind in ("ml-quad", "ml-interp"):
        if not 0.0 < q1 < 2.0:
            derived = "" if "q1" in cfg else f" (the default p/(1-p) at p = {p})"
            raise ConfigError(f"key 'q1': must lie in (0, 2), got {q1}{derived}")
        if not 0.0 < alpha < math.inf:
            raise ConfigError(f"key 'alpha': must be positive and finite, got {alpha}")
    return StudyConfig(
        kind=kind,
        problem=problem,
        p=p,
        xi=_get_float(cfg, "xi", 0.0),
        r=_get_int(cfg, "r", 12),
        tau=_get_float(cfg, "tau", 3.0),
        K=_get_float(cfg, "K", 1.0),
        q1=q1,
        alpha=alpha,
        budgets=budgets,
        seed=seed,
        eps_grid=eps_grid,
        raw=dict(cfg),
    )


# -- shared numerics --------------------------------------------------------

def threshold_set_for_budget(study: StudyConfig, k: int, budgets) -> list:
    """Largest threshold set whose evaluation-node count fits each point
    budget, all from one walk of the family."""
    family = study.weight_family(k)
    return largest_threshold_set(
        lambda nu: surrogate_weight(family, nu), budgets, family.d_max
    )


def fit_rate(ns, errors, window: int = 4):
    """OLS slope of log error against log budget over the trailing window."""
    pairs = [(n, e) for n, e in zip(ns, errors) if e > 0]
    tail = pairs[-window:]
    if len(pairs) < window or len({n for n, _ in tail}) < 2:
        return None  # too few points, or no spread in log budget to fit
    x = np.log([n for n, _ in tail])
    y = np.log([e for _, e in tail])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _sample_template(grid) -> str:
    return "x,value\n" + "".join(f"{x!r},%r\n" for x in grid.tolist())


def write_meta(out_dir: Path, study: StudyConfig, extra: dict = None):
    items = {
        "kind": study.kind,
        "seed": study.seed,
        "budgets": ",".join(str(b) for b in study.budgets),
        "p": study.p, "xi": study.xi, "r": study.r, "tau": study.tau,
        "K": study.K, "q1": study.q1, "alpha": study.alpha,
    }
    for key in sorted(study.raw):
        items[f"config.{key}"] = study.raw[key]
    for key in sorted(extra or {}):
        items[key] = (extra or {})[key]
    lines = [f"{k} = {_format(v)}" for k, v in sorted(items.items())]
    (out_dir / "meta.txt").write_text("\n".join(lines) + "\n")


# -- studies ----------------------------------------------------------------

def _no_rows(study: StudyConfig, why: str) -> HermgridError:
    """The failure of a study in which no budget (or eps) yields a row."""
    rows = "eps grid" if study.eps_grid else "budgets"
    values = ",".join(map(str, study.eps_grid or study.budgets))
    return HermgridError(f"{study.kind}: no row at {rows} {values}: {why}")


def _study_sets(study: StudyConfig, k: int, reference_budget=None) -> tuple:
    """One threshold set per row, from the eps grid or the largest fitting
    each budget, and the set at ``reference_budget`` (None without one);
    the budget rows and the reference set share one walk."""
    budgets = [] if study.eps_grid else list(study.budgets)
    if reference_budget:
        budgets.append(reference_budget)
    sets = threshold_set_for_budget(study, k, budgets)
    ref_set = sets.pop() if reference_budget else None
    if study.eps_grid:
        family = study.weight_family(k)
        surrogate = lambda nu: surrogate_weight(family, nu)
        sets = [build_threshold_set(surrogate, eps, family.d_max) for eps in study.eps_grid]
    return sets, ref_set


def run_quad_study(study: StudyConfig, out_dir: Path) -> list:
    """Single-level quadrature error against point budget.

    Errors are measured against the closed-form Gaussian average of the
    problem QoI (`expected_qoi_oracle`).  Rows follow the configured eps
    grid when one is present, otherwise the point budgets.
    """
    problem = study.problem
    target = _shared(as_parametric_map(problem, ("exact",)))
    sets, _ = _study_sets(study, 2)
    reference = expected_qoi_oracle(problem)
    rows = []
    ns, errs = [], []
    for selected in sets:
        if len(selected) == 0:
            continue
        n = evaluation_point_count(selected)
        value = float(quadrature(selected, target)[0])
        err = abs(value - reference)
        ns.append(n)
        errs.append(err)
        rows.append([n, n, err, None])
    if not rows:
        raise _no_rows(study, "every threshold set is empty")
    rows[-1][3] = fit_rate(ns, errs)
    write_csv(out_dir / "quad.csv", ("n_points", "work", "abs_error", "fitted_rate"), rows)
    write_meta(out_dir, study, {"reference": "analytic"})
    return rows


def run_interp_study(study: StudyConfig, out_dir: Path) -> list:
    """Single-level interpolation error (Gaussian L2, via coefficients)."""
    problem = study.problem
    target = _shared(as_parametric_map(problem, ("exact",)))
    sets, ref_set = _study_sets(study, 1, 4 * study.budgets[-1])
    if not any(len(selected) for selected in sets):
        raise _no_rows(study, "every threshold set is empty")
    reference = interpolate(ref_set, target)
    rows = []
    for selected in sets:
        # a row equal to a reference the budget cut short would read 0; equal
        # to the family's last set, it is as resolved as the rules allow
        if selected == ref_set and not ref_set.complete:
            raise HermgridError(
                f"interp row of {evaluation_point_count(selected)} points: its "
                f"set is the reference set (the largest fitting "
                f"{4 * study.budgets[-1]} points), so its error would read 0; "
                "lower the budgets"
            )
        if len(selected) == 0:
            continue
        poly = interpolate(selected, target)
        err = reference.minus(poly).l2_norm()
        rows.append([evaluation_point_count(selected), err])
    write_csv(out_dir / "interp.csv", ("n_points", "l2_error"), rows)
    label = f"interpolant-{evaluation_point_count(ref_set)}-points"
    write_meta(out_dir, study, {"reference": label})
    return rows


def ml_work_cost(surrogate, q1: float, alpha: float, d_max: int,
                 cap: int = 10_000_000) -> MemberTable:
    """The `MemberTable` a multilevel study's budget rows share (it does not
    depend on the work sequence), started at the origin's threshold:
    ``table.price(eps, work_sequence)`` is ``work(construct_levels(eps))``,
    and `MemberTable.eps_for_budget` sweeps its price events."""
    return MemberTable(surrogate, surrogate, q1, alpha, 1.0 / surrogate(MultiIndex()),
                       d_max, cap)


def _ml_allocation_for_budget(table: MemberTable, budget: int):
    """Allocation with the most work not exceeding the budget, and its work
    sequence, read off the study's shared table (`ml_work_cost`) at the eps
    of its event sweep."""
    levels = max(1, int(math.floor(math.log2(max(budget, 2)))))
    sw = default_work_sequence(levels)
    return table.allocation(table.eps_for_budget(budget, sw), sw), sw


def run_ml_study(study: StudyConfig, out_dir: Path, quantity: str) -> list:
    """Multilevel error against total work, FEM fidelities per level."""
    problem = study.problem
    k = 2 if quantity == "quad" else 1
    if quantity == "quad":
        reference, ref_label = expected_qoi_oracle(problem), "analytic"
    else:
        ref_set, = threshold_set_for_budget(study, 1, [2048])
        reference = interpolate(ref_set, as_parametric_map(problem, ("exact",)))
        ref_label = f"interpolant-{evaluation_point_count(ref_set)}-points"

    family = study.weight_family(k)
    # one value per multi-index: the walk's pushes and the table's d weights
    surrogate = cache(lambda nu: surrogate_weight(family, nu))
    table = ml_work_cost(surrogate, study.q1, study.alpha, family.d_max)
    if study.eps_grid:  # an eps above the origin's threshold allocates nothing
        sw = default_work_sequence(20)
        pairs = [(table.allocation(eps, sw), sw) for eps in study.eps_grid]
    else:
        pairs = [_ml_allocation_for_budget(table, budget) for budget in study.budgets]
    if all(alloc.max_level == 0 for alloc, _ in pairs):
        raise _no_rows(study, "no allocation within them reaches level 1")
    rows = []
    fem = cache(lambda cells: _shared(as_parametric_map(problem, ("fem", cells))))
    for alloc, sw in pairs:
        if alloc.max_level == 0:
            continue
        levels = [fem(cells) for cells in sw.values[1:alloc.max_level + 1]]
        spent = work(alloc)
        if quantity == "quad":
            value = float(ml_quadrature(alloc, levels)[0])
            err = abs(value - reference)
        else:
            poly = ml_interpolate(alloc, levels)
            err = reference.minus(poly).l2_norm()
        rows.append([spent, err])
    name = "ml_quad.csv" if quantity == "quad" else "ml_interp.csv"
    write_csv(out_dir / name, ("work", "error"), rows)
    write_meta(out_dir, study, {"reference": ref_label})
    return rows


def run_grf(study: StudyConfig, out_dir: Path) -> dict:
    """Seeded field samples plus an empirical covariance report."""
    n_samples = study.budgets[-1]
    if study.seed + n_samples - 1 > 2 ** 64 - 1:
        raise ConfigError(
            f"--seed {study.seed}: {n_samples} samples run past the largest seed 2**64 - 1"
        )
    cfg = study.raw
    kind = cfg.get("cov", "exponential")
    corr_length = _get_float(cfg, "corr_length", 1.0)
    m = _get_int(cfg, "grid_m", 64)
    ell = _get_float(cfg, "ell", 2.0)
    cutoff = None
    if "kappa" in cfg:
        cutoff = (_get_float(cfg, "kappa", 2.0), _get_int(cfg, "spline_order", 1))
    try:
        if kind == "exponential":
            spec = CovarianceSpec.exponential(corr_length)
        elif kind == "matern":
            spec = CovarianceSpec.matern(corr_length, _get_float(cfg, "smoothness", 0.5))
        else:
            raise ConfigError(f"key 'cov': unknown covariance {kind!r}")
        plan = circulant_embed_1d(spec, m, ell, cutoff=cutoff)
    except (ValueError, UnsupportedSmoothness) as exc:
        raise ConfigError(f"covariance or grid keys: {exc}") from exc
    if not plan.positive:
        suggested = 2.0 * ell
        raise HermgridError(
            f"embedding not positive semidefinite; retry with ell >= {suggested}"
        )
    samples = np.empty((n_samples, plan.n_points))
    template = _sample_template(plan.grid)  # the x column is the same in every file
    for i in range(n_samples):
        seed = study.seed + i
        samples[i] = sample_grf(plan, seed)  # one draw per file keeps peak memory flat
        (out_dir / f"sample_{seed}.csv").write_text(template % tuple(samples[i].tolist()))
    target = spec.rho(plan.grid[:, None] - plan.grid[None, :])
    empirical = (samples.T @ samples) / n_samples
    cov_dev = float(np.abs(empirical - target).max())
    mean_dev = float(np.abs(samples.mean(axis=0)).max())
    report = {
        "n_samples": n_samples,
        "max_cov_deviation": cov_dev,
        "cov_tolerance": 4.0 * math.sqrt(2.0 / n_samples),
        "max_mean_deviation": mean_dev,
        "mean_tolerance": 3.0 / math.sqrt(n_samples),
    }
    write_csv(
        out_dir / "grf_report.csv",
        ("n_samples", "max_cov_deviation", "cov_tolerance",
         "max_mean_deviation", "mean_tolerance"),
        [[report["n_samples"], report["max_cov_deviation"], report["cov_tolerance"],
          report["max_mean_deviation"], report["mean_tolerance"]]],
    )
    write_meta(out_dir, study, {"cov": kind, "grid_m": m, "ell": ell})
    return report


def run_bayes(study: StudyConfig, out_dir: Path) -> list:
    """Conjugate linear-Gaussian benchmark: budgets are univariate levels."""
    forward = ParametricMapFn(lambda rows: rows[:, :1], 1, label="identity-observation")
    setup = BayesSetup(forward, [1.0], [[1.0]])
    phi = ParametricMapFn(lambda rows: rows[:, :1], 1, label="mean-functional")
    rows = []
    for level in study.budgets:
        selected = IndexSet([MultiIndex.from_exponents([j]) for j in range(level + 1)])
        estimate = posterior_expectation(setup, phi, selected)
        rows.append([
            level,
            evaluation_point_count(selected),
            float(estimate.mean[0]),
            abs(float(estimate.mean[0]) - 0.5),
            estimate.normalization,
        ])
    write_csv(out_dir / "bayes.csv",
              ("level", "n_points", "posterior_mean", "abs_error", "normalization"),
              rows)
    write_meta(out_dir, study, {"posterior": "conjugate-linear-gaussian"})
    return rows


# -- entry point -------------------------------------------------------------

def _run(kind: str, args) -> int:
    cfg = parse_config(args.config) if args.config else {}
    budgets = None
    if args.budgets:
        try:
            budgets = tuple(int(tok) for tok in args.budgets.split(","))
        except ValueError:
            raise ConfigError("--budgets: expected comma-separated integers")
    study = resolve_config(kind, cfg, args.seed, budgets)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if kind == "quad":
        run_quad_study(study, out_dir)
    elif kind == "interp":
        run_interp_study(study, out_dir)
    elif kind == "ml-quad":
        run_ml_study(study, out_dir, "quad")
    elif kind == "ml-interp":
        run_ml_study(study, out_dir, "interp")
    elif kind == "grf":
        run_grf(study, out_dir)
    elif kind == "bayes":
        run_bayes(study, out_dir)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hermgrid",
        description="Sparse-grid Gauss-Hermite convergence studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in ("interp", "quad", "ml-interp", "ml-quad", "grf", "bayes"):
        cmd = sub.add_parser(kind)
        cmd.add_argument("--config", default=None, help="key = value study file")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--budgets", default=None, help="comma-separated budgets")
    try:
        args = parser.parse_args(argv)
        return _run(args.command, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HermgridError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
