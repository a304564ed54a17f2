"""The benchmark's trace hooks still resolve against the library.

`perfbench/layers.py` wraps library functions by (module, attribute) name,
reads two lru_cache counters and sorts parametric-map calls by their
label.  A renamed or deleted function would only show when a traced
benchmark runs, so these tests load that file by path and check each hook
without installing it.
"""

import importlib
import importlib.util
from pathlib import Path

from hermgrid import smolyak
from hermgrid.hermite import gauss_hermite_rule
from hermgrid.model import ModelProblem1D, RepresentationSystem, as_parametric_map

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
