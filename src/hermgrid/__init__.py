"""Sparse-grid Gauss-Hermite interpolation and quadrature for Gaussian
product measures, with multilevel variants, Gaussian-random-field input
generators, and a log-Gaussian diffusion model problem."""

from .hermite import (
    MAX_LEVEL,
    HermiteRule,
    gauss_hermite_rule,
    hermite_eval_all,
)
from .indexset import (
    IndexSet,
    MultiIndex,
    WeightFamily,
    binomial_weight,
    build_threshold_set,
    degree_weight,
    is_downward_closed,
    surrogate_weight,
)
from .smolyak import (
    HermitePolynomial,
    combination_coeffs,
    interpolate,
    largest_threshold_set,
    quadrature,
    sparse_grid_points,
)
from .multilevel import (
    LevelAllocation,
    WorkSequence,
    construct_levels,
    default_work_sequence,
    ml_interpolate,
    ml_quadrature,
    work,
)
from .grf import (
    CovarianceSpec,
    EmbeddingPlan,
    brownian_bridge_kl,
    bspline_cutoff,
    circulant_embed_1d,
    levy_ciesielski,
    matern_cov,
    sample_grf,
)
from .model import (
    BayesSetup,
    ModelProblem1D,
    ParametricMapFn,
    PosteriorEstimate,
    RepresentationSystem,
    as_parametric_map,
    exact_solution_1d,
    expected_qoi_oracle,
    fem_solve_1d,
    posterior_density,
    posterior_expectation,
)

__version__ = "0.1.0"
