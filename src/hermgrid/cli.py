"""Reproducible convergence studies and sample generation.

Studies ``interp``, ``quad``, ``ml-interp``, ``ml-quad``, ``grf`` and
``bayes`` read a plain-text key-value configuration, run the study, and
emit CSV rows plus a ``meta.txt`` echoing the resolved configuration.
Reruns with identical configuration and seed produce byte-identical
output.  Exit codes: 0 success, 2 configuration error or unwritable
output, 3 numerical failure.
"""

import gc
import math
import mmap
import os
import sys
from collections import namedtuple
from functools import cache, partial
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    HermgridError,
    OutputError,
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
    l2_errors,
    posterior_expectation,
)
from .multilevel import (
    MemberTable,
    _plan,
    construct_levels,  # noqa: F401 (no caller here; perfbench/layers.py hooks the name)
    default_work_sequence,
    work,
)
from .smolyak import (_evaluate, _projection_sum, _shared, _terms, _weighted_sum,
                      evaluation_point_count, interpolate, largest_threshold_set, quadrature)


def _list(parse):
    return lambda text: tuple(parse(tok) for tok in text.split(","))


#: Config key -> its parser, the complaint when a value does not parse, and
#: its default.  A None default is absent (``kappa``) or worked out by
#: `resolve_config` (``q1`` from ``p``, ``budgets`` from the study, ``eps_grid``
#: empty).
_KEYS = {
    "system": (str, None, "constant:0.5"),
    "r_decay": (float, "not a number", 3.0),
    "d_max": (int, "not an integer", 16),
    "f": (str, None, "one"),
    "qoi": (str, None, "point"),
    "x0": (float, "not a number", 1.0),
    "p": (float, "not a number", 0.5),
    "xi": (float, "not a number", 0.0),
    "r": (int, "not an integer", 12),
    "tau": (float, "not a number", 3.0),
    "K": (float, "not a number", 1.0),
    "q1": (float, "not a number", None),
    "alpha": (float, "not a number", 1.0),
    "budgets": (_list(int), "expected comma-separated integers", None),
    "eps_grid": (_list(float), "expected comma-separated reals", None),
    "cov": (str, None, "exponential"),
    "corr_length": (float, "not a number", 1.0),
    "smoothness": (float, "not a number", 0.5),
    "grid_m": (int, "not an integer", 64),
    "ell": (float, "not a number", 2.0),
    "kappa": (float, "not a number", None),
    "spline_order": (int, "not an integer", 1),
}


def parse_config(path) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment.  Values stay strings."""
    values, lines = {}, {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}, first on line {lines[key]}")
        values[key], lines[key] = value, lineno
    return values


def _parse(key: str, text: str, name: str):
    """``text`` read by the parser of `_KEYS` ``key``; ``name`` heads the complaint."""
    parse, complaint, _ = _KEYS[key]
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"{name}: {complaint} ({text!r})") from exc


def _config_values(cfg: dict) -> dict:
    """Every key of `_KEYS`: its value in ``cfg`` parsed (read or not), or its default."""
    return {key: _parse(key, cfg[key], f"key {key!r}") if key in cfg else default
            for key, (_, _, default) in _KEYS.items()}


def _modes(d_max: int) -> int:
    if not 1 <= d_max <= _MAX_MODES:
        raise ConfigError(f"key 'd_max': must lie in 1..{_MAX_MODES}, got {d_max}")
    return d_max


#: System name -> the key of its number ('system': the amplitude after ':',
#: which no other system takes), the amplitude's default, and its constructor
_SYSTEMS = {
    "constant": ("system", 0.5, lambda a, d_max: RepresentationSystem.constant_mode(a)),
    "sindecay": ("r_decay", None,
                 lambda a, d_max: RepresentationSystem.sin_decay(a, _modes(d_max))),
    "blocks": ("system", 1.0, lambda a, d_max: RepresentationSystem.blocks(_modes(d_max), a)),
}

#: Covariance name -> its kernel, from the study record
_KERNELS = {
    "exponential": lambda study: CovarianceSpec.exponential(study.corr_length),
    "matern": lambda study: CovarianceSpec.matern(study.corr_length, study.smoothness),
}

#: Members of an eps row's threshold set or multilevel table and of the budget
#: rows' walk or multilevel table; the largest d_max, grid_m and circulant extension
#: 2 * ell * grid_m (README: time and memory)
_EPS_CAP, _BUDGET_CAP = 1_000_000, 100_000
_MAX_MODES, _MAX_GRID, _MAX_EXTENSION = 1024, 4096, 1 << 20


def _problem(values: dict) -> ModelProblem1D:
    spec = values["system"]
    name, colon, arg = spec.partition(":")
    key, default, make = _SYSTEMS.get(name, ("system", None, None))
    if make is None or colon and key != "system":
        raise ConfigError(f"key 'system': unknown system {spec!r}")
    if colon and not arg:
        raise ConfigError(f"key 'system': no amplitude after ':' in {spec!r}")
    try:
        number = float(arg or default) if key == "system" else values[key]
        system = make(number, values["d_max"])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from exc
    if values["f"] != "one":
        raise ConfigError("key 'f': only the constant load 'one' is supported")
    qoi = (values["qoi"],)
    if qoi == ("point",):
        x0 = values["x0"]
        if not 0.0 <= x0 <= 1.0:
            raise ConfigError(f"key 'x0': must lie in [0, 1], got {x0!r}")
        qoi += (x0,)
    try:
        return ModelProblem1D(system, qoi=qoi)
    except ValueError as exc:
        raise ConfigError(f"key 'qoi': {exc}") from exc


class StudyConfig(namedtuple("StudyConfig", ("kind", "problem", "seed", "raw", *_KEYS))):
    """The study, its problem, seed and config text, and one field per `_KEYS`
    key holding its resolved value."""

    __slots__ = ()

    def weight_family(self, k: int) -> WeightFamily:
        """The weights of ``k``; ``xi = 0`` normalizes so rho_j = b_j**(p-1)."""
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
        except OverflowError:  # ||b||_p = (sum_j b_j**p)**(1/p), here or in WeightFamily
            raise ConfigError(f"key 'p': ||b||_p overflows a double at p = {self.p!r}") from None


def resolve_config(kind: str, cfg: dict, seed: int, budgets=None) -> StudyConfig:
    values = _config_values(cfg)
    problem = _problem(values)
    if values["cov"] not in _KERNELS:
        raise ConfigError(f"key 'cov': unknown covariance {values['cov']!r}")
    budgets = values["budgets"] = tuple(budgets or values["budgets"] or _STUDIES[kind][0])
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
    eps_grid = values["eps_grid"] = values["eps_grid"] or ()
    if any(not e > 0 for e in eps_grid) or any(b >= a for a, b in zip(eps_grid, eps_grid[1:])):
        raise ConfigError("key 'eps_grid': must be positive, strictly decreasing")
    p = values["p"]
    if not 0.0 < p < 1.0:
        raise ConfigError("key 'p': must lie in (0, 1)")
    q1 = values["q1"] = p / (1.0 - p) if values["q1"] is None else values["q1"]
    alpha = values["alpha"]
    if kind in ("ml-quad", "ml-interp"):
        if not 0.0 < q1 < 2.0:
            derived = "" if "q1" in cfg else f" (the default p/(1-p) at p = {p})"
            raise ConfigError(f"key 'q1': must lie in (0, 2), got {q1}{derived}")
        if not 0.0 < alpha < math.inf:
            raise ConfigError(f"key 'alpha': must be positive and finite, got {alpha}")
    return StudyConfig(kind, problem, seed, dict(cfg), **values)


# -- shared numerics --------------------------------------------------------

def threshold_set_for_budget(study: StudyConfig, k: int, budgets) -> list:
    """Largest threshold set whose evaluation-node count fits each point
    budget, all from one walk of the family (`ThresholdTooSmall` past
    ``_BUDGET_CAP`` members)."""
    family = study.weight_family(k)
    return largest_threshold_set(partial(surrogate_weight, family), budgets, family.d_max,
                                 _BUDGET_CAP)


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


def _write(path: Path, text: str):
    """Write ``text`` to ``path`` with one ``os.write``; any OS failure or a
    short write is an `OutputError`."""
    data = text.encode()
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            written = os.write(fd, data)
        finally:
            os.close(fd)
    except OSError as exc:
        raise OutputError(f"{path}: {exc.strerror or exc}") from exc
    if written != len(data):
        raise OutputError(f"{path}: wrote {written} of {len(data)} bytes")


def write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format(v) for v in row))
    _write(path, "\n".join(lines) + "\n")


def _sample_template(grid) -> str:
    return "x,value\n" + "".join(f"{x!r},%r\n" for x in grid.tolist())


def write_meta(out_dir: Path, study: StudyConfig, extra: dict = None):
    items = {key: getattr(study, key)
             for key in ("kind", "seed", "p", "xi", "r", "tau", "K", "q1", "alpha")}
    items["budgets"] = ",".join(str(b) for b in study.budgets)
    items.update((f"config.{key}", value) for key, value in study.raw.items())
    items.update(extra or {})
    lines = [f"{k} = {_format(v)}" for k, v in sorted(items.items())]
    _write(out_dir / "meta.txt", "\n".join(lines) + "\n")


# -- studies ----------------------------------------------------------------

def _no_rows(study: StudyConfig, why: str) -> HermgridError:
    """The failure of a study in which no budget (or eps) yields a row."""
    rows = "eps grid" if study.eps_grid else "budgets"
    values = ",".join(map(str, study.eps_grid or study.budgets))
    return HermgridError(f"{study.kind}: no row at {rows} {values}: {why}")


def _study_sets(study: StudyConfig, k: int) -> tuple:
    """The nonempty threshold set of each row (an eps's, or the largest fitting
    a budget, one walk for all), and the exact map, called once on their nodes."""
    if study.eps_grid:
        family = study.weight_family(k)
        surrogate = partial(surrogate_weight, family)
        sets = [build_threshold_set(surrogate, eps, family.d_max, _EPS_CAP)
                for eps in study.eps_grid]
    else:
        sets = threshold_set_for_budget(study, k, study.budgets)
    if not (sets := [selected for selected in sets if len(selected)]):
        raise _no_rows(study, "every threshold set is empty")
    target = _shared(as_parametric_map(study.problem, ("exact",)))
    _evaluate((_terms(selected), target) for selected in sets)
    return sets, target


def run_quad_study(study: StudyConfig, out_dir: Path) -> list:
    """Single-level quadrature error against point budget.

    Errors are measured against the closed-form Gaussian average of the
    problem QoI (`expected_qoi_oracle`).  Rows follow the configured eps
    grid when one is present, otherwise the point budgets.
    """
    sets, target = _study_sets(study, 2)
    reference = expected_qoi_oracle(study.problem)
    ns = [evaluation_point_count(selected) for selected in sets]
    errs = [abs(float(quadrature(selected, target)[0]) - reference) for selected in sets]
    rows = [[n, n, err, None] for n, err in zip(ns, errs)]
    rows[-1][3] = fit_rate(ns, errs)
    write_csv(out_dir / "quad.csv", ("n_points", "work", "abs_error", "fitted_rate"), rows)
    write_meta(out_dir, study, {"reference": "analytic"})
    return rows


def run_interp_study(study: StudyConfig, out_dir: Path) -> list:
    """Single-level interpolation error: the Gaussian L2 distance from the
    QoI, against its closed-form Wiener-Hermite coefficients (`l2_errors`)."""
    sets, target = _study_sets(study, 1)
    errors, floor = l2_errors(study.problem, [interpolate(selected, target) for selected in sets])
    rows = [[evaluation_point_count(selected), err] for selected, err in zip(sets, errors)]
    write_csv(out_dir / "interp.csv", ("n_points", "l2_error"), rows)
    write_meta(out_dir, study, {"reference": "analytic", "l2_floor": floor})
    return rows


def _ml_allocation_for_budget(table: MemberTable, budget: int):
    """Allocation with the most work not exceeding the budget, and its work
    sequence, read off the study's shared `MemberTable` at the eps of its
    event sweep; a sweep stopped by the table's cap (it answers as for an
    unbounded budget) is a `HermgridError` naming the budget."""
    levels = max(1, int(math.floor(math.log2(max(budget, 2)))))
    sw = default_work_sequence(levels)
    eps = table.eps_for_budget(budget, sw)
    if len(table.members) >= table.cap and eps == table.eps_for_budget(math.inf, sw):
        raise HermgridError(f"budget {budget}: the search reached the cap of {table.cap} "
                            "members with every allocation still within the budget")
    return table.allocation(eps, sw), sw


def run_ml_study(study: StudyConfig, out_dir: Path, quantity: str) -> list:
    """Multilevel error against total work, FEM fidelities per level."""
    problem = study.problem
    family = study.weight_family(2 if quantity == "quad" else 1)
    surrogate = partial(surrogate_weight, family)
    table = MemberTable(surrogate, surrogate, study.q1, study.alpha, family.d_max,
                        _EPS_CAP if study.eps_grid else _BUDGET_CAP)
    if study.eps_grid:  # an eps above the origin's threshold allocates nothing
        sw = default_work_sequence(20)
        pairs = [(table.allocation(eps, sw), sw) for eps in study.eps_grid]
    else:
        pairs = [_ml_allocation_for_budget(table, budget) for budget in study.budgets]
    if all(alloc.max_level == 0 for alloc, _ in pairs):
        raise _no_rows(study, "no allocation within them reaches level 1")
    fem = cache(lambda cells: _shared(as_parametric_map(problem, ("fem", cells))))
    planned = [(alloc, _plan(alloc, [fem(cells) for cells in sw.values[1:alloc.max_level + 1]]))
               for alloc, sw in pairs if alloc.max_level]
    _evaluate(level for _, levels in planned for level in levels)
    meta = {"reference": "analytic"}
    if quantity == "quad":
        reference = expected_qoi_oracle(problem)
        errors = [abs(float(_weighted_sum(levels)[0]) - reference) for _, levels in planned]
    else:
        errors, meta["l2_floor"] = l2_errors(problem, [_projection_sum(levels)
                                                       for _, levels in planned])
    rows = [[work(alloc), err] for (alloc, _), err in zip(planned, errors)]
    name = "ml_quad.csv" if quantity == "quad" else "ml_interp.csv"
    write_csv(out_dir / name, ("work", "error"), rows)
    write_meta(out_dir, study, meta)
    return rows


#: Seeds per `sample_grf` call and grid rows per report step in the grf study:
#: a block's normals, spectrum and Gram update stay small whatever the sample
#: count.  The update is an einsum, O(m²) per draw (costs in the README).
_SAMPLE_BLOCK = 8


def _write_samples(plan, seed: int, n_samples: int, out_dir: Path) -> np.ndarray:
    """Draw the seeds ``seed .. seed + n_samples - 1`` and write one
    ``sample_<seed>.csv`` each; return the sums over the draws x of x x^T
    (m + 1 rows) and of x (the last row).

    A forked child draws and writes the upper half of the seeds while this
    process does the lower half, both in blocks of `_SAMPLE_BLOCK` rows that
    each adds into sums of its own.  The child's live in a shared anonymous
    mapping sized by the grid, added here once the child has exited.  The
    child reports any failure on stderr and leaves through ``os._exit``; a
    child that does not exit 0 is an `OutputError` here once waited for.
    """
    shape = (plan.n_points + 1, plan.n_points)
    shared = np.frombuffer(mmap.mmap(-1, shape[0] * shape[1] * 8)).reshape(shape)
    template = _sample_template(plan.grid)  # the x column is the same in every file

    def draw_and_write(rows: range, sums: np.ndarray) -> np.ndarray:
        for start in range(rows.start, rows.stop, _SAMPLE_BLOCK):
            block = sample_grf(plan, seed + start, min(_SAMPLE_BLOCK, rows.stop - start))
            for i, values in enumerate(block.tolist(), seed + start):
                _write(out_dir / f"sample_{i}.csv", template % tuple(values))
            sums[:-1] += np.einsum("ki,kj->ij", block, block)  # no BLAS threads in 2 processes
            sums[-1] += block.sum(axis=0)
        return sums

    half = n_samples // 2
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            draw_and_write(range(half, n_samples), shared)
            status = 0
        except BaseException as exc:
            reason = exc if isinstance(exc, OutputError) else f"{type(exc).__name__}: {exc}"
            os.write(2, f"cannot write output: {reason}\n".encode())
        finally:
            os._exit(status)
    try:
        sums = draw_and_write(range(half), np.zeros(shape))
    finally:
        _, status = os.waitpid(pid, 0)
    if status:
        raise OutputError(
            f"the process writing samples {seed + half}..{seed + n_samples - 1} "
            f"exited with status {os.waitstatus_to_exitcode(status)}"
        )
    sums += shared
    return sums


def run_grf(study: StudyConfig, out_dir: Path) -> dict:
    """Seeded field samples plus an empirical covariance report."""
    n_samples = study.budgets[-1]
    if study.seed + n_samples - 1 > 2 ** 64 - 1:
        raise ConfigError(f"--seed {study.seed}: {n_samples} samples run past the "
                          "largest seed 2**64 - 1")
    kind, m, ell = study.cov, study.grid_m, study.ell
    if m > _MAX_GRID:
        raise ConfigError(f"key 'grid_m': must be at most {_MAX_GRID}, got {m}")
    if 2.0 * ell * m > _MAX_EXTENSION:
        raise ConfigError(f"key 'ell': 2 * ell * m must be at most {_MAX_EXTENSION} "
                          f"(m = grid_m), got {2.0 * ell * m!r}")
    cutoff = None if study.kappa is None else (study.kappa, study.spline_order)
    try:
        spec = _KERNELS[kind](study)
        plan = circulant_embed_1d(spec, m, ell, cutoff=cutoff)
    except (ValueError, UnsupportedSmoothness) as exc:
        raise ConfigError(f"covariance or grid keys: {exc}") from exc
    if not plan.positive:
        raise HermgridError(f"embedding not positive semidefinite; retry with ell >= {2.0 * ell}")
    sums = _write_samples(plan, study.seed, n_samples, out_dir)
    sums /= n_samples  # the empirical covariance, then the empirical mean
    deviation, grid = sums[:-1], plan.grid
    for start in range(0, grid.size, _SAMPLE_BLOCK):  # less the target, in row blocks
        rows = slice(start, start + _SAMPLE_BLOCK)
        deviation[rows] -= spec.rho(grid[rows, None] - grid[None, :])
    report = {
        "n_samples": n_samples,
        "max_cov_deviation": float(max(deviation.max(), -deviation.min())),
        "cov_tolerance": 4.0 * math.sqrt(2.0 / n_samples),
        "max_mean_deviation": float(np.abs(sums[-1]).max()),
        "mean_tolerance": 3.0 / math.sqrt(n_samples),
    }
    write_csv(out_dir / "grf_report.csv", report.keys(), [report.values()])
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
        mean = float(estimate.mean[0])
        rows.append([level, evaluation_point_count(selected), mean, abs(mean - 0.5),
                     estimate.normalization])
    write_csv(out_dir / "bayes.csv",
              ("level", "n_points", "posterior_mean", "abs_error", "normalization"),
              rows)
    write_meta(out_dir, study, {"posterior": "conjugate-linear-gaussian"})
    return rows


# -- entry point -------------------------------------------------------------

#: Study name -> its default budgets and its runner
_STUDIES = {
    "quad": ((25, 50, 100, 200, 400, 800), run_quad_study),
    "interp": ((25, 50, 100, 200, 400, 800), run_interp_study),
    "ml-quad": ((256, 1024, 4096, 16384), lambda study, out: run_ml_study(study, out, "quad")),
    "ml-interp": ((256, 1024, 4096, 16384),
                  lambda study, out: run_ml_study(study, out, "interp")),
    "grf": ((200,), run_grf),
    "bayes": ((2, 4, 6, 8, 12, 17), run_bayes),
}

_FLAGS = ("config", "out", "seed", "budgets", "help")
_CHOICES = "{%s}" % ",".join(_STUDIES)
_USAGE = f"""usage: hermgrid [-h] [--config CONFIG] --out OUT [--seed SEED]
                [--budgets BUDGETS]
                {_CHOICES}
"""
_HELP = f"""{_USAGE}
Sparse-grid Gauss-Hermite convergence studies

positional arguments:
  {_CHOICES}
                        study to run

options:
  -h, --help            show this help message and exit
  --config CONFIG       key = value study file
  --out OUT             output directory
  --seed SEED
  --budgets BUDGETS     comma-separated budgets
"""


def _usage_error(message: str):
    sys.stderr.write(f"{_USAGE}hermgrid: error: {message}\n")
    raise SystemExit(2)


def _is_flag(word: str) -> bool:
    """A leading '-' makes a flag, unless the word is '-' alone, holds a
    space or reads as a negative number (``-5``, ``-.5``, ``-1.5``)."""
    number = word[1:].replace(".", "", 1).isdecimal() and word[-1] != "."
    return word[:1] == "-" and word != "-" and " " not in word and not number


def parse_args(argv) -> dict:
    """The study and the flag values of ``argv``, read as argparse read them:
    ``--flag value``, ``--flag=value`` or any unique prefix of a flag, the
    study anywhere (only positional words after ``--``), the last of a
    repeated flag.  ``-h`` or ``--help`` prints the help and exits 0; a
    usage error prints the usage and the error and exits 2."""
    args = {"command": None, "config": None, "out": None, "seed": 0, "budgets": None}
    extras, words, positional = [], iter(argv), False
    for word in words:
        name, eq, value = word.partition("=")
        match = [f for f in _FLAGS if f"--{f}".startswith(name)] if len(name) > 2 else []
        if (positional or not _is_flag(word)) and args["command"] is None:
            if word not in _STUDIES:
                choices = ", ".join(map(repr, _STUDIES))
                _usage_error(f"argument command: invalid choice: {word!r} (choose from {choices})")
            args["command"] = word
        elif positional or not _is_flag(word):
            extras.append(word)
        elif word == "--":
            positional = True
        elif word == "-h" or match == ["help"]:
            sys.stdout.write(_HELP)
            raise SystemExit(0)
        elif not name.startswith("--") or len(match) != 1:
            extras.append(word)
        else:
            flag = match[0]
            if not eq and ((value := next(words, None)) is None or _is_flag(value)):
                _usage_error(f"argument --{flag}: expected one argument")
            try:
                args[flag] = int(value) if flag == "seed" else value
            except ValueError:
                _usage_error(f"argument --seed: invalid int value: {value!r}")
    if missing := [name for name in ("command", "out") if args[name] is None]:
        missing = ", ".join(n if n == "command" else f"--{n}" for n in missing)
        _usage_error(f"the following arguments are required: {missing}")
    if extras:
        _usage_error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _run(args: dict) -> int:
    cfg = parse_config(args["config"]) if args["config"] else {}
    budgets = _parse("budgets", args["budgets"], "--budgets") if args["budgets"] else None
    study = resolve_config(args["command"], cfg, args["seed"], budgets)
    out_dir = Path(args["out"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"{out_dir}: {exc.strerror or exc}") from exc
    _STUDIES[study.kind][1](study, out_dir)
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    gc.freeze()  # collections in the study (or a forked grf child) skip the import-time heap
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OutputError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    except HermgridError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    finally:
        gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
