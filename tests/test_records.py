"""The package's record classes: value semantics, immutability, validation."""

import numpy as np
import pytest

from hermgrid.errors import UnsupportedSmoothness
from hermgrid.grf import CovarianceSpec, circulant_embed_1d
from hermgrid.hermite import gauss_hermite_rule
from hermgrid.indexset import MultiIndex, WeightFamily
from hermgrid.model import (BayesSetup, ModelProblem1D, ParametricMapFn, PosteriorEstimate,
                            RepresentationSystem)
from hermgrid.multilevel import LevelAllocation, WorkSequence, default_work_sequence

IDENTITY = ParametricMapFn(lambda rows: rows[:, :1], 1)
FAMILY = dict(b=np.array([1.0, 0.5]), p=0.5, xi=1.0, r=4, tau=1.0, k=1, K=1.0)


def test_multi_index_is_a_value():
    a, b = MultiIndex(((0, 1), (3, 2))), MultiIndex.from_dict({3: 2, 0: 1, 5: 0})
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash((a.entries,))
    assert a != MultiIndex(((0, 1),)) and a != a.entries
    assert {a: "x"}[b] == "x"
    assert frozenset([a, b, MultiIndex(), MultiIndex(())]) == {b, MultiIndex()}
    assert MultiIndex.from_exponents([1, 0, 0, 2]) in frozenset([a, b])


# (record, one of its fields), for every class whose instances are immutable
FROZEN = [
    pytest.param(lambda: CovarianceSpec.matern(0.5, 1.5), "corr_length", id="CovarianceSpec"),
    pytest.param(lambda: circulant_embed_1d(CovarianceSpec.exponential(1.0), 8, 2.0),
                 "positive", id="EmbeddingPlan"),
    pytest.param(lambda: gauss_hermite_rule(3), "nodes", id="HermiteRule"),
    pytest.param(lambda: MultiIndex(((0, 1),)), "entries", id="MultiIndex"),
    pytest.param(lambda: WeightFamily(**FAMILY), "rho", id="WeightFamily"),
    pytest.param(lambda: RepresentationSystem.sin_decay(3.0, 4), "d_max",
                 id="RepresentationSystem"),
    pytest.param(lambda: BayesSetup(IDENTITY, [1.0], [[1.0]]), "data", id="BayesSetup"),
    pytest.param(lambda: PosteriorEstimate(np.ones(1), 1.0, np.ones(1)), "normalization",
                 id="PosteriorEstimate"),
    pytest.param(lambda: default_work_sequence(3), "values", id="WorkSequence"),
    pytest.param(lambda: LevelAllocation({MultiIndex(): 1}, default_work_sequence(1)),
                 "levels", id="LevelAllocation"),
]


@pytest.mark.parametrize("make, name", FROZEN)
def test_fields_cannot_be_assigned(make, name):
    record = make()
    value = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    assert getattr(record, name) is value


@pytest.mark.parametrize("build, error", [
    (lambda: MultiIndex(((1, 1), (0, 1))), ValueError),
    (lambda: MultiIndex(((0, 0),)), ValueError),
    (lambda: WeightFamily(**{**FAMILY, "b": np.array([0.5, 1.0])}), ValueError),
    (lambda: WeightFamily(**{**FAMILY, "r": 1}), ValueError),
    (lambda: WorkSequence((1, 2)), ValueError),
    (lambda: WorkSequence((0, 2, 2)), ValueError),
    (lambda: RepresentationSystem.sin_decay(1.0, 4), ValueError),
    (lambda: RepresentationSystem.constant_mode(0.0), ValueError),
    (lambda: RepresentationSystem.blocks(4, -1.0), ValueError),
    (lambda: CovarianceSpec.matern(1.0, 1.0), UnsupportedSmoothness),
    (lambda: CovarianceSpec.matern(0.0, 0.5), ValueError),
    (lambda: BayesSetup(IDENTITY, [1.0, 2.0], [[1.0]]), ValueError),
], ids=["MultiIndex-order", "MultiIndex-zero", "WeightFamily-b", "WeightFamily-r",
        "WorkSequence-start", "WorkSequence-increase", "sin_decay", "constant_mode",
        "blocks", "matern-smoothness", "matern-length", "BayesSetup"])
def test_bad_input_raises_as_before(build, error):
    with pytest.raises(error):
        build()


def test_systems_compare_by_identity_and_hold_read_only_norms():
    a, b = RepresentationSystem.blocks(4, 0.5), RepresentationSystem.blocks(4, 0.5)
    assert a == a and a != b and len({a, b}) == 2
    assert a.sup_norms.tolist() == [0.5] * 4 and a.edges == (0.25, 0.5, 0.75)
    with pytest.raises(ValueError):
        a.sup_norms[0] = 1.0


def test_constructors_keep_their_signatures():
    system = RepresentationSystem.sin_decay(3.0, 16)
    a, b = ModelProblem1D(system), ModelProblem1D(system, qoi=("mean",))
    assert (a.system, a.qoi, b.qoi) == (system, ("point", 1.0), ("mean",))
    assert a._quad_cache == {} and a._quad_cache is not b._quad_cache
    assert WorkSequence([0, 2.0, 4]).values == (0, 2, 4)
    assert WorkSequence((0, 2), growth_constant=3.0).growth_constant == 3.0
    alloc = LevelAllocation({MultiIndex(): 2, MultiIndex(((0, 1),)): 0}, default_work_sequence(2))
    assert alloc.levels == {MultiIndex(): 2} and alloc.max_level == 2
    family = WeightFamily(**{**FAMILY, "b": [1.0, 0.5]})
    assert family.b.dtype == np.float64 and not family.b.flags.writeable
    assert family.d_max == 2 and len(family.factors) == 2
    setup = BayesSetup(forward=IDENTITY, data=2.0, noise_cov=4.0)
    assert setup.data.shape == (1,) and setup.noise_cov_inv_sqrt.tolist() == [[0.5]]
    assert CovarianceSpec.exponential(2.0) == CovarianceSpec("exponential", 2.0, 0.5)
