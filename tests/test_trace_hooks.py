"""The benchmark's trace hooks still resolve against the library.

`perfbench/layers.py` wraps library functions by (module, attribute) name,
reads two lru_cache counters and sorts parametric-map calls by their
label.  A renamed or deleted function would only show when a traced
benchmark runs, so these tests load that file by path and check each hook
without installing it, and run small traced studies in a child interpreter
(installing patches the library for the whole process).
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from hermgrid import smolyak
from hermgrid.hermite import gauss_hermite_rule
from hermgrid.model import (
    ModelProblem1D,
    RepresentationSystem,
    as_parametric_map,
    fem_solve_1d,
)

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_boundaries_are_callable_attributes():
    boundaries = load_layers()._BOUNDARIES
    assert boundaries
    for module_name, attr, _ in boundaries:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr}"


def test_cache_counters_exist():
    assert gauss_hermite_rule.cache_info().misses >= 0
    assert smolyak._projection_matrix.cache_info().misses >= 0


def test_map_labels_match_the_call_classifier():
    source = LAYERS.read_text()
    assert 'self.label == "exact-qoi"' in source
    assert 'self.label.startswith("fem-")' in source
    problem = ModelProblem1D(RepresentationSystem.constant_mode(0.5))
    exact = as_parametric_map(problem, ("exact",))
    fem = as_parametric_map(problem, ("fem", 8))
    assert (exact.label, exact.cost) == ("exact-qoi", 1)
    assert (fem.label, fem.cost) == ("fem-8-qoi", 8)


TRACED_STUDIES = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_layers", sys.argv[1])
layers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layers)
from hermgrid import cli
recorder = layers.Recorder()
layers.install(recorder)
codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps({"codes": codes, "summary": recorder.summary()}))
"""


def test_traced_studies_report_every_counter(tmp_path):
    config = tmp_path / "sin.cfg"
    config.write_text("system = sindecay\nr_decay = 3.0\nd_max = 4\nalpha = 1.0\n")
    argvs = [
        ["quad", "--config", str(config), "--out", str(tmp_path / "q"), "--budgets", "10,25"],
        ["ml-quad", "--config", str(config), "--out", str(tmp_path / "m"),
         "--budgets", "256,1024"],
    ]
    src = Path(smolyak.__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, "-c", TRACED_STUDIES, str(LAYERS), json.dumps(argvs)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert result["codes"] == [0, 0]
    missing = set(load_layers().COUNTERS) - set(result["summary"])
    assert not missing


def test_fem_solve_of_one_vector_is_one_solution():
    # the kernel timing of the benchmark solves one 1-d parameter vector
    problem = ModelProblem1D(RepresentationSystem.sin_decay(3.0, 16))
    y = np.random.default_rng(0).standard_normal(16)
    nodal = fem_solve_1d(problem, y, 16_384)
    assert nodal.shape == (16_385,)
    np.testing.assert_array_equal(nodal, fem_solve_1d(problem, y[None], 16_384)[0])
