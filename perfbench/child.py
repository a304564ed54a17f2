"""One measurement in a fresh interpreter; `run.py` starts it and reads its result.

    python3 perfbench/child.py setup   RESULT CONFIG
    python3 perfbench/child.py study   RESULT TRACE CONFIG -- CLI_ARGS...
    python3 perfbench/child.py kernels RESULT
    python3 perfbench/child.py env     RESULT

``setup`` stops where a study would call ``hermgrid.cli.main``, after the
imports and the config parse.  ``study`` times one ``main`` call, with the
layer wrappers of `layers` installed when TRACE is 1.  Both also time a
fixed calibration workload (`calibrate`; a study does so before and after
``main``), which `run.py` uses to take the machine's momentary speed out
of the figures.  ``kernels`` times the three `hermgrid._accel` kernels on
fixed inputs.  ``env`` reports the interpreter, packages and numeric
backend.  Each writes one JSON object to
RESULT; ``t_ready`` is CLOCK_MONOTONIC, so the parent can subtract its own
spawn time from it.
"""

import gc
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALIBRATION_ROUNDS = 3  # before the timed part and again after it


def _calibration_round(np):
    """A fixed mix of the work hermgrid does (tuple-keyed dicts, float
    formatting, numpy array passes without BLAS), independent of hermgrid."""
    counts = {}
    for i in range(20_000):
        key = (i % 61, i % 17, i & 3)
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items())
    ",".join(f"{i / 7.0:.17g}" for i in range(3_000))
    v = np.sin(np.arange(20_000) * 1e-3)
    for _ in range(8):
        v = np.sort(np.cumsum(v) % 1.7)


def calibrate():
    """Seconds per calibration round, one per round, with the collector off
    so that the heap left by the timed part does not enter the timing."""
    import numpy as np

    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(CALIBRATION_ROUNDS):
            start = time.perf_counter()
            _calibration_round(np)
            times.append(time.perf_counter() - start)
        return times
    finally:
        if enabled:
            gc.enable()


def _import_cli():
    sys.path.insert(0, str(ROOT / "src"))
    from hermgrid import cli

    if Path(cli.__file__).resolve().parent != ROOT / "src" / "hermgrid":
        raise SystemExit(f"imported hermgrid from {cli.__file__}, not from {ROOT / 'src'}")
    return cli


def setup(config):
    cli = _import_cli()
    cli.parse_config(config)
    t_ready = time.monotonic()
    return {"t_ready": t_ready, "calibration_s": calibrate()}


def study(trace, config, argv):
    cli = _import_cli()
    cli.parse_config(config)
    recorder = None
    if trace == "1":
        from layers import Recorder, install

        recorder = Recorder()
        install(recorder)
    t_ready = time.monotonic()
    calibration = calibrate()
    start = time.perf_counter()
    code = cli.main(argv)
    study_s = time.perf_counter() - start
    out = {
        "t_ready": t_ready,
        "calibration_s": calibration + calibrate(),
        "exit_code": code,
        "study_s": study_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        out["layers"] = recorder.summary()
    return out


def _median_ms(fn, repeats=3):
    fn()  # warm-up
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2] * 1e3


def kernels():
    """Kernel inputs: 200k-point degree-24 Hermite table, 16 384-cell P1 solve,
    100k-point 13-level hat series (fixed, seed 0)."""
    _import_cli()
    import numpy as np

    from hermgrid import _accel
    from hermgrid.grf import levy_ciesielski
    from hermgrid.model import ModelProblem1D, RepresentationSystem, fem_solve_1d

    rng = np.random.default_rng(0)
    x = rng.standard_normal(200_000)
    problem = ModelProblem1D(RepresentationSystem.sin_decay(3.0, 16))
    y = rng.standard_normal(16)
    ts = rng.uniform(0.0, 1.0, 100_000)
    z = rng.standard_normal(2 ** 13 - 1)
    return {
        "accel.hermite_matrix_ms": _median_ms(lambda: _accel.hermite_matrix(x, 24)),
        "accel.fem_16384_ms": _median_ms(lambda: fem_solve_1d(problem, y, 16_384)),
        "accel.hat_series_ms": _median_ms(lambda: levy_ciesielski(12, ts, z)),
    }


def env():
    _import_cli()
    import numpy
    import scipy

    from hermgrid import _accel

    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version,
        "executable": sys.executable,
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads_env": {
            key: os.environ.get(key)
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "accel_backend": _accel.ACCEL_BACKEND,
        "numba_imports": numba_imports,
    }


def main(argv):
    mode, result = argv[0], Path(argv[1])
    if mode == "setup":
        out = setup(argv[2])
    elif mode == "study":
        sep = argv.index("--")
        out = study(argv[2], argv[3], argv[sep + 1:])
    elif mode == "kernels":
        out = kernels()
    elif mode == "env":
        out = env()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result.write_text(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
