"""Timings of the hot kernels on both acceleration lanes.

Run without arguments to benchmark the numba lane and the pure-numpy lane
(selected via ``HERMGRID_PURE_NUMPY=1``) in separate interpreter processes
and print both tables:

    python3 benchmarks/bench_kernels.py

When numba is not importable both lanes are the same code, so only the
numpy lane is timed, once, and the output says that numba is missing.
"""

import os
import subprocess
import sys
import time

import numpy as np


def timeit(fn, repeats=5):
    fn()  # warm up (includes jit compilation on the numba lane)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def run_lane():
    from hermgrid import _accel
    from hermgrid.grf import levy_ciesielski
    from hermgrid.model import ModelProblem1D, RepresentationSystem, fem_solve_1d

    rng = np.random.default_rng(0)

    x = rng.standard_normal(200_000)
    t_herm = timeit(lambda: _accel.hermite_matrix(x, 24))

    problem = ModelProblem1D(RepresentationSystem.sin_decay(3.0, 16))
    y = rng.standard_normal(16)
    t_fem = timeit(lambda: fem_solve_1d(problem, y, 16_384))

    ts = rng.uniform(0.0, 1.0, 100_000)
    z = rng.standard_normal(2 ** 13 - 1)
    t_hat = timeit(lambda: levy_ciesielski(12, ts, z))

    print(f"lane: {_accel.ACCEL_BACKEND}")
    print(f"  hermite recurrence (200k pts, degree 24): {t_herm * 1e3:8.2f} ms")
    print(f"  P1 assembly + solve (16384 cells):        {t_fem * 1e3:8.2f} ms")
    print(f"  dyadic hat series (100k pts, 13 levels):  {t_hat * 1e3:8.2f} ms")


def main():
    if os.environ.get("HERMGRID_BENCH_CHILD") == "1":
        run_lane()
        return
    here = os.path.abspath(__file__)
    lanes = ("0", "1")
    try:
        import numba  # noqa: F401
    except ImportError:
        print("numba is not importable: timing the numpy lane only", flush=True)
        lanes = ("1",)
    for pure in lanes:
        env = dict(os.environ, HERMGRID_BENCH_CHILD="1", HERMGRID_PURE_NUMPY=pure)
        subprocess.run([sys.executable, here], env=env, check=True)


if __name__ == "__main__":
    main()
