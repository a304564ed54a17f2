"""The three fixed CLI studies the benchmark runs, and their output checks.

Why these three: ``quad-sin16`` spends about 95% of its time in the
budget search (threshold-set builds, combination coefficients, point
counts) and runs no FEM; ``mlquad-fem`` spends about 75% in budget search
and about 20% in FEM map calls, the only workload that runs FEM;
``grf-write`` spends about 70% writing 1000 sample files and about 20%
sampling the field, and runs no index-set, Smolyak or model code.
``interp`` repeats the combinatorics of ``quad-sin16`` at twice its cost;
``bayes`` is all set-up.

The sizes keep one study between about 1 and 3 s on 2 cores, so that a
run takes the median of 5 to 15 studies; the machine's speed varies from
one second to the next, and the median of two long studies follows it.

Each check returns a list of problems (empty when the output is correct)
and a dict of values to record.  A check reads the study's output
directory; `digest` hashes it for the same-seed repeat comparison.
"""

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

# Final errors at the commit that introduced the benchmark.  A run whose
# final error is worse than this by more than ERROR_SLACK fails its check,
# so a faster budget path that picks a worse set shows as a failed run.
ERROR_SLACK = 0.10


@dataclass(frozen=True)
class Workload:
    name: str
    study: str
    config: str
    budgets: tuple
    uses_seed: bool

    def cli_args(self, config_path, out_dir, seed) -> list:
        args = [self.study, "--config", str(config_path), "--out", str(out_dir),
                "--budgets", ",".join(str(b) for b in self.budgets)]
        if self.uses_seed:
            args += ["--seed", str(seed)]
        return args


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "quad-sin16", "quad",
            "system = sindecay\nr_decay = 3.0\nd_max = 16\n",
            (25, 50, 100, 200), False,
        ),
        Workload(
            "mlquad-fem", "ml-quad",
            "system = sindecay\nr_decay = 3.0\nd_max = 4\nalpha = 1.0\n",
            (4096, 16384, 65536), False,
        ),
        Workload(
            "grf-write", "grf",
            "cov = matern\ncorr_length = 0.5\nsmoothness = 1.5\ngrid_m = 256\n"
            "ell = 4.0\nkappa = 3.0\nspline_order = 2\n",
            (1000,), True,
        ),
    )
}

REFERENCE_FINAL_ERROR = {
    "quad-sin16": 3.853148445864818e-07,
    "mlquad-fem": 1.3991715992478504e-06,
}


def _rows(path: Path):
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


def _strictly_falling(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def _check_final_error(name, error, problems):
    limit = REFERENCE_FINAL_ERROR[name] * (1.0 + ERROR_SLACK)
    if not error <= limit:
        problems.append(f"final error {error!r} above {limit!r}")


def check_quad(workload, out_dir: Path, seed):
    problems = []
    rows = _rows(out_dir / "quad.csv")
    if len(rows) != len(workload.budgets):
        return [f"{len(rows)} rows, expected {len(workload.budgets)}"], {}
    n_points = [int(r["n_points"]) for r in rows]
    errors = [float(r["abs_error"]) for r in rows]
    for n, budget in zip(n_points, workload.budgets):
        if n > budget:
            problems.append(f"n_points {n} above budget {budget}")
    if not _strictly_falling(errors):
        problems.append(f"abs_error not strictly falling: {errors}")
    rate = float(rows[-1]["fitted_rate"] or "nan")
    if not rate <= -1.0:
        problems.append(f"fitted_rate {rate} above -1")
    _check_final_error(workload.name, errors[-1], problems)
    return problems, {"final_error": errors[-1], "fitted_rate": rate}


def check_mlquad(workload, out_dir: Path, seed):
    problems = []
    rows = _rows(out_dir / "ml_quad.csv")
    if len(rows) != len(workload.budgets):
        return [f"{len(rows)} rows, expected {len(workload.budgets)}"], {}
    work = [int(r["work"]) for r in rows]
    errors = [float(r["error"]) for r in rows]
    for w, budget in zip(work, workload.budgets):
        if w > budget:
            problems.append(f"work {w} above budget {budget}")
    if not _strictly_falling(errors):
        problems.append(f"error not strictly falling: {errors}")
    _check_final_error(workload.name, errors[-1], problems)
    return problems, {"final_error": errors[-1]}


def check_grf(workload, out_dir: Path, seed):
    """Sample files and report; the deviations are recorded, not gated
    (they are statistical and random in the seed)."""
    problems = []
    n_samples = workload.budgets[-1]
    samples = sorted(out_dir.glob("sample_*.csv"))
    if len(samples) != n_samples:
        problems.append(f"{len(samples)} sample files, expected {n_samples}")
    expected = {f"sample_{seed + i}.csv" for i in range(n_samples)}
    if {p.name for p in samples} != expected:
        problems.append("sample file names do not follow the seed")
    for path in samples:
        lines = path.read_text().splitlines()
        values = [line.split(",") for line in lines[1:]]
        if lines[0] != "x,value" or len(values) != 257 or not all(
            len(v) == 2 and math.isfinite(float(v[0])) and math.isfinite(float(v[1]))
            for v in values
        ):
            problems.append(f"{path.name}: expected 257 finite (x, value) rows")
            break
    report = _rows(out_dir / "grf_report.csv")
    if len(report) != 1 or int(report[0]["n_samples"]) != n_samples:
        problems.append("grf_report.csv does not report the sample count")
        return problems, {}
    row = {k: float(v) for k, v in report[0].items()}
    return problems, {
        "max_cov_deviation": row["max_cov_deviation"],
        "cov_within_tolerance": row["max_cov_deviation"] <= row["cov_tolerance"],
        "max_mean_deviation": row["max_mean_deviation"],
        "mean_within_tolerance": row["max_mean_deviation"] <= row["mean_tolerance"],
    }


CHECKS = {"quad": check_quad, "ml-quad": check_mlquad, "grf": check_grf}


def check(workload, out_dir: Path, seed):
    """Problems and recorded values of one study's output directory."""
    if not (out_dir / "meta.txt").is_file():
        return ["meta.txt missing"], {}
    try:
        return CHECKS[workload.study](workload, out_dir, seed)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"], {}


def digest(out_dir: Path) -> str:
    """SHA-256 over every output file's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()
