"""Layer counters are deterministic: two traced studies agree with each other
and with the counts recorded when the benchmark was introduced.

    python3 -m pytest perfbench/test_counters.py    # about 15 s
"""

import shutil

import pytest

from run import RUN_DIR, Budget, WorkloadRun
from workloads import WORKLOADS

EXPECTED = {
    "quad-sin16": {
        "cli.threshold_builds": 205,
        "indexset.members_built": 18208,
        "smolyak.combination_terms": 9218,
        "model.fem_calls": 0,
        "model.fem_calls_distinct": 0,
        "model.fem_cell_units": 0,
        "multilevel.work_predicted": 0,
    },
    "mlquad-fem": {
        "cli.threshold_builds": 164,
        "indexset.members_built": 52231,
        "smolyak.combination_terms": 7281,
        "model.fem_calls": 3261,
        "model.fem_calls_distinct": 1718,
        "model.fem_cell_units": 77064,
        "multilevel.work_predicted": 83808,
    },
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_traced_counters_repeat_and_match_recorded_values(name):
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    try:
        run = WorkloadRun(WORKLOADS[name], seed=0)
        budget = Budget(0)
        run.study(budget, traced=True)
        run.study(budget, traced=True)
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)
    assert [r.get("problems") for r in run.records] == [None, None]
    first, second = ({k: r["layers"][k] for k in EXPECTED[name]} for r in run.records)
    assert first == second
    assert first == EXPECTED[name]
