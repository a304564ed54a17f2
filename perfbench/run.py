"""Benchmark of three hermgrid CLI studies, end to end and layer by layer.

    python3 perfbench/run.py --workload quad-sin16 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 120

Every study runs in a fresh interpreter (`child.py`), one at a time, from
the ``src/`` tree next to this directory; nothing is installed.  With
``--trace 0`` the run repeats the study, at least `MIN_STUDIES` times and
then while another repeat is expected to end within ``--seconds``, and
reports medians of ``study_s`` (wall time inside ``hermgrid.cli.main``),
``setup_s`` (spawn to the call of ``main``: interpreter start, imports,
config parse, taken from every study and topped up to `SETUP_SAMPLES`
by set-up-only children) and ``peak_rss_mb``.

Both times are scaled to a fixed machine speed: each child also times a
fixed calibration workload that does not use hermgrid (`child.calibrate`),
and a time is multiplied by `CALIBRATION_REFERENCE_S` over that child's
median calibration round.  On a shared host the same study's wall time
drifts by 20-40% over minutes, and the calibration drifts with it; the
unscaled medians are the per-layer metric ``process.study_wall_s`` and,
with every sample, in the result file.

With ``--trace 1`` the run alternates untraced and traced studies, reports
the per-layer metrics of `layers` as medians over the traced studies,
their overhead against the untraced ones, and the three kernel timings.

Every study's output is checked (`workloads.check`), and repeats with the
same seed must give the same output digest; a run that exits non-zero or
fails a check counts in ``failed``.  ``--workload all`` interleaves the
workloads and alternates their order every round.  Each invocation writes
the environment, each run's start time and all samples to
``.perfbench/results/``; study outputs are deleted after their check.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import datetime
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import COUNTERS, TIME_METRICS
from workloads import WORKLOADS, check, digest

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".perfbench"
RUN_DIR = WORK / "runs" / str(os.getpid())

HARD_LIMIT_S = 170.0  # every invocation ends well within 180 s
MIN_STUDIES = 2  # the same-seed digest comparison needs a repeat
SETUP_SAMPLES = 11
KERNELS_S = 15.0  # rough duration of the kernels child, for the time budget
# One calibration round on a quiet 2-core Xeon host; only sets the scale.
CALIBRATION_REFERENCE_S = 0.015

END_TO_END = {"study_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
KERNELS = ("accel.hermite_matrix_ms", "accel.fem_16384_ms", "accel.hat_series_ms")
PER_LAYER_UNITS = {
    **{name: "s" for name in TIME_METRICS},
    **{name: "count" for name in COUNTERS},
    "cli.bytes_written": "B",
    "multilevel.work_predicted": "cell_units",
    "model.fem_cell_units": "cell_units",
    **{name: "ms" for name in KERNELS},
    "trace.overhead_pct": "%",
    "process.study_wall_s": "s",
    "process.calibration_ms": "ms",
}


class Budget:
    """Wall-clock bookkeeping of one invocation."""

    def __init__(self, seconds):
        self.start = time.monotonic()
        self.seconds = seconds

    def elapsed(self):
        return time.monotonic() - self.start

    def fits(self, estimate):
        return self.elapsed() + estimate <= self.seconds

    def child_timeout(self):
        return HARD_LIMIT_S - self.elapsed()


def scaled(seconds, out):
    """``seconds`` at the calibration speed of `CALIBRATION_REFERENCE_S`."""
    return seconds * CALIBRATION_REFERENCE_S / statistics.median(out["calibration_s"])


def spawn(budget, mode, *args):
    """Run one child to completion; return (result dict or None, spawn time, stderr)."""
    result = RUN_DIR / f"{mode}.json"
    result.unlink(missing_ok=True)
    timeout = budget.child_timeout()
    if timeout <= 0:
        return None, None, "time limit reached before start"
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), mode, str(result), *args],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, t_spawn, f"killed after {timeout:.0f} s"
    if proc.returncode != 0 or not result.is_file():
        return None, t_spawn, proc.stderr.strip()[-2000:] or f"exit {proc.returncode}"
    out = json.loads(result.read_text())
    result.unlink()
    return out, t_spawn, ""


class WorkloadRun:
    """Samples, run records and failures of one workload in one invocation."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.config = RUN_DIR / f"{workload.name}.cfg"
        self.config.write_text(workload.config)
        self.records = []
        self.digests = set()

    def studies(self, traced):
        """Studies whose ``main`` returned 0, including those that failed a check."""
        return [r for r in self.records
                if r["kind"] == "study" and r["trace"] == traced and "values" in r]

    def setup_samples(self):
        return [r["setup_s"] for r in self.records if "setup_s" in r]

    def setup_probe(self, budget):
        record = {"kind": "setup", "start": _now()}
        out, t_spawn, err = spawn(budget, "setup", str(self.config))
        record["ok"] = out is not None
        if out is None:
            record["error"] = err
        else:
            record["setup_wall_s"] = out["t_ready"] - t_spawn
            record["setup_s"] = scaled(record["setup_wall_s"], out)
            record["calibration_s"] = out["calibration_s"]
        self.records.append(record)

    def study(self, budget, traced):
        out_dir = RUN_DIR / f"{self.workload.name}-out"
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = self.workload.cli_args(self.config, out_dir, self.seed)
        record = {"kind": "study", "trace": traced, "start": _now()}
        out, t_spawn, err = spawn(budget, "study", "1" if traced else "0",
                                  str(self.config), "--", *argv)
        problems = [err] if out is None else []
        if out is not None:
            record.update(study_s=scaled(out["study_s"], out), study_wall_s=out["study_s"],
                          calibration_s=out["calibration_s"], peak_rss_mb=out["peak_rss_mb"])
            if not traced:
                record["setup_wall_s"] = out["t_ready"] - t_spawn
                record["setup_s"] = scaled(record["setup_wall_s"], out)
            if out["exit_code"] != 0:
                problems.append(f"hermgrid exited with code {out['exit_code']}")
            else:
                found, values = check(self.workload, out_dir, self.seed)
                problems += found
                record["values"] = values
                record["digest"] = digest(out_dir)
                self.digests.add(record["digest"])
                if len(self.digests) > 1:
                    problems.append("output digest differs from an earlier repeat")
            if traced:
                record["layers"] = out["layers"]
        shutil.rmtree(out_dir, ignore_errors=True)
        record["ok"] = not problems
        if problems:
            record["problems"] = problems
        self.records.append(record)

    def attempted(self):
        return sum(1 for r in self.records if r["kind"] == "study")

    def failed(self):
        failed = sum(1 for r in self.records if r["kind"] == "study" and not r["ok"])
        counts = [{k: r["layers"][k] for k in COUNTERS} for r in self.studies(True)]
        if any(c != counts[0] for c in counts):
            failed += 1  # counters must repeat exactly
        return failed

    def end_to_end(self):
        runs, setup = self.studies(False), self.setup_samples()
        if not runs or not setup:
            return None
        return {
            "study_s": statistics.median(r["study_s"] for r in runs),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        }

    def per_layer(self, kernels):
        traced, plain = self.studies(True), self.studies(False)
        if not traced or not plain:
            return None
        out = {k: statistics.median(r["layers"][k] for r in traced) for k in TIME_METRICS}
        out.update({k: traced[0]["layers"][k] for k in COUNTERS})
        out.update(kernels)
        out["trace.overhead_pct"] = 100.0 * (
            statistics.median(r["study_s"] for r in traced)
            / statistics.median(r["study_s"] for r in plain) - 1.0
        )
        out["process.study_wall_s"] = statistics.median(r["study_wall_s"] for r in plain)
        out["process.calibration_ms"] = 1e3 * statistics.median(
            t for r in plain for t in r["calibration_s"])
        return out


def _now():
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="milliseconds")


def _git_commit():
    """Commit of the checkout from .git, without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_untraced(runs, budget):
    """Rounds of one study per workload, alternating order; each study's
    spawn-to-``main`` time is a set-up sample, and set-up-only children
    top the samples up to `SETUP_SAMPLES`."""
    rounds = 0
    while True:
        start = budget.elapsed()
        for run in (runs if rounds % 2 == 0 else runs[::-1]):
            run.study(budget, traced=False)
        rounds += 1
        enough = all(run.attempted() >= MIN_STUDIES for run in runs)
        if budget.child_timeout() <= 0 or (enough and not budget.fits(budget.elapsed() - start)):
            break
    for run in runs:
        for _ in range(SETUP_SAMPLES - len(run.setup_samples())):
            run.setup_probe(budget)


def run_traced(runs, budget):
    """Untraced/traced pairs, alternating which side goes first; returns the
    kernel timings (None if that child failed)."""
    pairs = 0
    while True:
        start = budget.elapsed()
        for run in (runs if pairs % 2 == 0 else runs[::-1]):
            for traced in ((False, True) if pairs % 2 == 0 else (True, False)):
                run.study(budget, traced)
        pairs += 1
        if budget.child_timeout() <= 0 or not budget.fits(budget.elapsed() - start + KERNELS_S):
            break
    kernels, _, err = spawn(budget, "kernels")
    if kernels is None:
        print(f"perfbench: kernel timing failed: {err}", file=sys.stderr)
    return kernels


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    # SystemExit inside subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "hermgrid" / "cli.py").is_file():
        print(f"perfbench: no hermgrid source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    try:
        return measure(args)
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)


def measure(args):
    budget = Budget(args.seconds)
    env, _, err = spawn(budget, "env")
    if env is None:
        print(f"perfbench: cannot import hermgrid: {err}", file=sys.stderr)
        return 1
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = [WorkloadRun(WORKLOADS[name], args.seed) for name in names]
    if args.trace:
        kernels = run_traced(runs, budget)
        if kernels is None:
            return 1
    else:
        run_untraced(runs, budget)

    metrics, table = {}, []
    for run in runs:
        values = run.per_layer(kernels) if args.trace else run.end_to_end()
        units = PER_LAYER_UNITS if args.trace else END_TO_END
        prefix = f"{run.workload.name}:" if len(runs) > 1 else ""
        if values is None:
            print(f"perfbench: {run.workload.name}: no study completed", file=sys.stderr)
            for record in run.records:
                for problem in record.get("problems", []) + [record.get("error", "")]:
                    if problem:
                        print(f"  {problem}", file=sys.stderr)
            return 1
        for name, unit in units.items():
            metrics[prefix + name] = {"value": values[name], "unit": unit}
        table.append((run, values, units))

    attempted = sum(run.attempted() for run in runs)
    failed = sum(run.failed() for run in runs)
    report = {
        "command": [sys.executable, *sys.argv],
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "env": env,
        "workloads": {run.workload.name: run.records for run in runs},
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
    }
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    path = WORK / "results" / f"{stamp}-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1))

    print(f"hermgrid benchmark  python {env['python'].split()[0]}  numpy {env['numpy']}  "
          f"scipy {env['scipy']}  nproc {os.cpu_count()}  backend {env['accel_backend']}  "
          f"numba {'yes' if env['numba_imports'] else 'missing'}")
    for run, values, units in table:
        plain = run.studies(False)
        print(f"{run.workload.name}: {run.attempted()} studies, "
              f"{len(run.setup_samples())} set-up samples, runs_failed {run.failed()}/{run.attempted()}")
        for name, unit in units.items():
            print(f"  {name:32s} {values[name]:>16.6g} {unit}")
        final = [r["values"]["final_error"] for r in plain if "final_error" in r.get("values", {})]
        if final and not args.trace:
            print(f"  {'final_error':32s} {final[-1]:>16.6g}")
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
