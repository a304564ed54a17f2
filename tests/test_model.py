"""Log-Gaussian diffusion model problems and Bayesian integrands."""

import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hermgrid import _accel, model
from hermgrid.cli import resolve_config, threshold_set_for_budget
from hermgrid.errors import DegenerateNormalization, QuadratureNonconvergence, SingularSystem
from hermgrid.indexset import IndexSet, MultiIndex
from hermgrid.multilevel import LevelAllocation, default_work_sequence
from hermgrid.model import (
    BayesSetup,
    ModelProblem1D,
    ParametricMapFn,
    RepresentationSystem,
    as_parametric_map,
    exact_solution_1d,
    expected_qoi_oracle,
    fem_solve_1d,
    hermite_coefficients,
    l2_errors,
    posterior_density,
    posterior_expectation,
    second_moment,
)
from hermgrid.smolyak import _shared, combination_coeffs, interpolate, quadrature
from util import (
    fem_cell_data,
    fem_solve_fsum,
    fem_solve_full_basis,
    fem_solve_point,
    fem_system_exact,
    fem_system_loop,
    log_coeff_point,
    mean_qoi_nested,
    panel_integral_fsum,
    panel_integral_point,
    posterior_density_fsum,
    posterior_density_point,
    gamma_sets,
    interpolant_difference,
    summation_bound,
    telescope,
    ulps,
)

mi = MultiIndex.from_dict
GL3, GW3 = np.polynomial.legendre.leggauss(3)


def ladder(n):
    return IndexSet([MultiIndex()] + [mi({0: k}) for k in range(1, n + 1)])


def constant_problem(amplitude=0.5, **kw):
    return ModelProblem1D(RepresentationSystem.constant_mode(amplitude), **kw)


def sin_problem(decay=3.0, d_max=8, **kw):
    return ModelProblem1D(RepresentationSystem.sin_decay(decay, d_max), **kw)


def test_panel_rule_literals_are_leggauss_12():
    nodes, weights = np.polynomial.legendre.leggauss(12)
    assert model._GL_NODES.tobytes() == nodes.tobytes()
    assert model._GL_WEIGHTS.tobytes() == weights.tobytes()


@pytest.mark.parametrize("array", [model._GL_NODES, model._GL_WEIGHTS,
                                   _accel._REF_POINTS, _accel._REF_WEIGHTS],
                         ids=["GL_NODES", "GL_WEIGHTS", "REF_POINTS", "REF_WEIGHTS"])
def test_module_rules_are_read_only(array):
    assert not array.flags.writeable
    with pytest.raises(ValueError):
        array[0] = 0.5


class TestCoefficient:
    def test_zero_parameter_gives_unit_coefficient(self):
        problem = sin_problem()
        for x in (0.1, 0.5, 0.9):
            assert np.exp(log_coeff_point(problem, np.zeros(8), x)) == 1.0

    def test_constant_mode(self):
        problem = constant_problem(0.5)
        assert np.exp(log_coeff_point(problem, [2.0], 0.77)) == pytest.approx(np.e)

    def test_sin_mode(self):
        problem = sin_problem(3.0, 4)
        x = 0.25
        expected = np.exp(np.sin(np.pi * x))
        got = np.exp(log_coeff_point(problem, [1.0, 0.0, 0.0, 0.0], x))
        assert got == pytest.approx(expected)

    @given(st.sampled_from(["sindecay", "constant", "blocks"]), st.integers(1, 12),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    @example("blocks", 4, [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_first_k_modes_are_the_full_basis_columns(self, kind, d_max, xs):
        system = {"sindecay": lambda: RepresentationSystem.sin_decay(2.5, d_max),
                  "constant": lambda: RepresentationSystem.constant_mode(0.7),
                  "blocks": lambda: RepresentationSystem.blocks(d_max, 1.3)}[kind]()
        full = system.basis_matrix(xs)
        assert full.shape == (len(xs), system.d_max)
        for k in range(system.d_max + 1):
            got = system.basis_matrix(xs, k)
            assert got.shape == (len(xs), k) and got.tobytes() == full[:, :k].tobytes()

    def test_truncation_ignores_extra_coordinates(self):
        problem = sin_problem(3.0, 2)
        a = log_coeff_point(problem, [0.3, -0.2], 0.4)
        b = log_coeff_point(problem, [0.3, -0.2, 99.0, -5.0], 0.4)
        assert a == b
        stack = problem.truncated([[0.3, -0.2], [0.3, -0.2]])
        np.testing.assert_array_equal(stack, problem.truncated([[0.3, -0.2, 99.0, -5.0]] * 2))


class TestExactSolution:
    def test_dirichlet_anchor(self):
        assert exact_solution_1d(constant_problem(), [1.3], 0.0) == 0.0

    def test_separable_closed_form(self):
        problem = constant_problem(0.5)
        for t, x in ((1.0, 0.7), (-0.4, 0.3), (2.0, 1.0)):
            expected = -np.exp(-0.5 * t) * x ** 2 / 2.0
            got = exact_solution_1d(problem, [t], x)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_zero_parameter(self):
        problem = sin_problem()
        got = exact_solution_1d(problem, np.zeros(8), 1.0)
        assert got == pytest.approx(-0.5, rel=1e-12)

    def test_derivative_identity(self):
        problem = sin_problem(3.0, 6)
        rng = np.random.default_rng(19)
        h = 1e-5
        for _ in range(50):
            y = rng.standard_normal(6)
            x = rng.uniform(0.05, 0.95)
            left = exact_solution_1d(problem, y, x - h)
            right = exact_solution_1d(problem, y, x + h)
            fd = (right - left) / (2 * h)
            expected = -np.exp(-log_coeff_point(problem, y, x)) * x
            assert abs(fd - expected) <= 1e-6 * (1.0 + abs(expected))


def tensor_average(problem, n):
    """Gaussian average of the exact QoI by the n-point Gauss-Hermite rule
    in every dimension (numpy's `hermegauss`)."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(n)
    weights = weights / np.sqrt(2.0 * np.pi)
    qoi = as_parametric_map(problem, ("exact",))
    total = 0.0
    for idx in itertools.product(range(n), repeat=problem.system.d_max):
        total += np.prod(weights[list(idx)]) * qoi(nodes[list(idx)])[0]
    return total


class TestOracle:
    def test_values(self):
        # constant mode: E[u(x0)] = -exp(c**2 / 2) x0**2 / 2
        for amplitude, x0 in [(1e-14, 1.0), (0.5, 1.0), (1.0, 0.5), (2.0, 0.3), (0.5, 0.0)]:
            problem = constant_problem(amplitude, qoi=("point", x0))
            expected = -np.exp(amplitude ** 2 / 2.0) * x0 ** 2 / 2.0
            assert expected_qoi_oracle(problem) == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_constant_mode_mean_closed_form(self):
        # E[int_0^1 u] = -exp(c**2 / 2) int_0^1 x**2 / 2 dx = -exp(c**2 / 2) / 6
        for amplitude in (0.5, 1.0, 2.0):
            problem = constant_problem(amplitude, qoi=("mean",))
            expected = -np.exp(amplitude ** 2 / 2.0) / 6.0
            assert expected_qoi_oracle(problem) == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_unresolved_integral_raises(self):
        # a jump of F at 1/3 falls inside a dyadic panel at every level, so
        # doubling never meets 1e-13: the oracle reports it instead of a value
        problem = constant_problem(0.5, F=lambda s: np.where(np.asarray(s) < 1.0 / 3.0, 0.0, 1.0))
        with pytest.raises(QuadratureNonconvergence):
            expected_qoi_oracle(problem)

    @pytest.mark.parametrize("qoi", [("point", 0.7), ("mean",)])
    def test_system_from_a_basis_alone(self, qoi):
        # two constant modes a and b make b(y, s) = a y_1 + b y_2, which has
        # the law of one constant mode hypot(a, b): a system built from its
        # basis and norms alone needs no other code to be averaged
        a, b = 0.4, 0.3
        system = RepresentationSystem(lambda x, k: np.tile([a, b][:k], (x.size, 1)), [a, b])
        problem = ModelProblem1D(system, qoi=qoi)
        want = expected_qoi_oracle(constant_problem(math.hypot(a, b), qoi=qoi))
        assert expected_qoi_oracle(problem) == pytest.approx(want, rel=1e-14, abs=0.0)
        square = IndexSet([mi({0: i, 1: j}) for i in range(5) for j in range(5)])
        value = quadrature(square, as_parametric_map(problem, ("exact",)))[0]
        assert abs(value - want) <= 1e-6 * abs(want)

    @pytest.mark.parametrize("problem, orders", [
        (sin_problem(3.0, 3), (6, 9)),
        (ModelProblem1D(RepresentationSystem.blocks(2, 1.0)), (8, 12)),
        (sin_problem(3.0, 2, qoi=("mean",)), (6, 9)),
    ], ids=["sindecay-point", "blocks-point", "sindecay-mean"])
    def test_matches_dense_quadrature_within_its_error(self, problem, orders):
        # the gap between two successive tensor orders bounds the finer one's error
        coarse, fine = (tensor_average(problem, n) for n in orders)
        assert abs(expected_qoi_oracle(problem) - fine) <= abs(fine - coarse)


def sindecay_rows(d_max: int, budgets):
    """The interp study's problem, and the exact map's interpolant on the
    set of each budget."""
    study = resolve_config("interp", {"system": "sindecay", "d_max": str(d_max)}, 0,
                           budgets=budgets)
    target = as_parametric_map(study.problem, ("exact",))
    sets = threshold_set_for_budget(study, 1, budgets)
    return study.problem, sets, [interpolate(selected, target) for selected in sets]


class TestHermiteCoefficients:
    @pytest.mark.parametrize("qoi, integral", [(("point", 1.0), 0.5), (("mean",), 1.0 / 6.0)])
    @pytest.mark.parametrize("amplitude", [0.5, 1.0, 2.0])
    def test_constant_mode_closed_form(self, amplitude, qoi, integral):
        # u_n = -exp(c**2 / 2) (-c)**n / sqrt(n!) int F and E[u**2] =
        # exp(2 c**2) (int F)**2, int F = 1/2 (or int (1 - s) s ds = 1/6)
        problem = constant_problem(amplitude, qoi=qoi)
        got = hermite_coefficients(problem, [mi({0: n}) for n in range(31)])
        for n, value in enumerate(got.tolist()):
            want = (-integral * math.exp(amplitude ** 2 / 2.0) * (-amplitude) ** n
                    / math.sqrt(math.factorial(n)))
            assert value == pytest.approx(want, rel=1e-14, abs=0.0)
        assert second_moment(problem) == pytest.approx(
            math.exp(2.0 * amplitude ** 2) * integral ** 2, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("problem", [
        sin_problem(3.0, 4),
        ModelProblem1D(RepresentationSystem.blocks(3, 1.0), qoi=("point", 0.6)),
        sin_problem(2.5, 6, qoi=("mean",)),
    ], ids=["sindecay-point", "blocks-point", "sindecay-mean"])
    def test_average_is_the_zero_coefficient_whatever_else_is_asked(self, problem):
        # each coefficient is its own panel sum, doubled on its own
        others = [mi({0: 1}), mi({0: 2, 1: 1}), mi({2: 5})]
        got = hermite_coefficients(problem, [*others, MultiIndex()])
        assert got[-1] == expected_qoi_oracle(problem)
        assert got[:-1].tolist() == hermite_coefficients(problem, others).tolist()

    def test_interpolant_coefficients_converge_to_the_closed_form(self):
        problem, _, polys = sindecay_rows(4, (25, 100, 400, 1600))
        first = list(polys[0].coefficients)
        exact = hermite_coefficients(problem, first)
        gaps = [float(np.max(np.abs([poly.coefficient(nu)[0] for nu in first] - exact)))
                for poly in polys]
        assert all(b < a / 5.0 for a, b in zip(gaps, gaps[1:])) and gaps[-1] < 1e-7

    @given(st.integers(2, 4), st.integers(4, 60))
    @settings(max_examples=15, deadline=None)
    def test_exact_error_agrees_with_a_larger_interpolant(self, d_max, budget):
        # |e - ||I_big - I_small||| <= e_big, less the floor's rounding on each
        problem, (small, big), polys = sindecay_rows(d_max, (budget, 4 * budget))
        (error, big_error), floor = l2_errors(problem, polys)
        assert abs(error - interpolant_difference(problem, small, big)) <= big_error + 2 * floor


def h1_seminorm_error(problem, y, n_cells):
    nodal = fem_solve_1d(problem, y, n_cells)
    h = 1.0 / n_cells
    total = 0.0
    for i in range(n_cells):
        pts = (i + 0.5 * (GL3 + 1.0)) * h
        slope = (nodal[i + 1] - nodal[i]) / h
        exact = -np.exp(-(problem.system.basis_matrix(pts) @ problem.truncated(y))) * pts
        total += (h / 2.0) * float(np.sum(GW3 * (slope - exact) ** 2))
    return np.sqrt(total)


class TestFem:
    def test_hand_solved_two_cells(self):
        # a == 1, f == 1: tridiagonal solve by hand gives the nodal values
        # of -x^2/2 exactly (P1 on this problem is nodally exact)
        nodal = fem_solve_1d(constant_problem(), [0.0], 2)
        np.testing.assert_allclose(nodal, [0.0, -0.125, -0.5], atol=1e-14)

    def test_left_boundary_always_pinned(self):
        rng = np.random.default_rng(3)
        problem = sin_problem()
        for _ in range(5):
            nodal = fem_solve_1d(problem, rng.standard_normal(8), 17)
            assert nodal[0] == 0.0

    def test_first_order_h1_convergence(self):
        problem = sin_problem(3.0, 6)
        rng = np.random.default_rng(5)
        for _ in range(3):
            y = rng.standard_normal(6)
            errors = [h1_seminorm_error(problem, y, n) for n in (8, 16, 32, 64)]
            rates = [np.log2(errors[i] / errors[i + 1]) for i in range(3)]
            assert all(0.8 <= rate <= 1.2 for rate in rates)

    def test_apriori_bound(self):
        # |u_h|_H1 <= exp(max |b|) * ||F||_L2  (f == 1 gives ||F|| = 1/sqrt(3))
        problem = sin_problem(3.0, 8)
        rng = np.random.default_rng(8)
        xs = np.linspace(0.0, 1.0, 513)
        dual_norm = 1.0 / np.sqrt(3.0)
        for _ in range(50):
            y = rng.standard_normal(8)
            nodal = fem_solve_1d(problem, y, 64)
            slopes = np.diff(nodal) * 64.0
            h1 = np.sqrt(np.sum(slopes ** 2) / 64.0)
            b_max = np.abs(problem.system.basis_matrix(xs) @ problem.truncated(y)).max()
            assert h1 <= np.exp(b_max) * dual_norm * 1.05


def random_fem_inputs(seed, n):
    """Cell data of a rough log-normal coefficient, a positive load and a flux."""
    rng = np.random.default_rng(seed)
    aq = np.exp(rng.normal(0.0, 1.5, (n, 3)))
    fq = rng.uniform(0.1, 2.0, (n, 3))
    return aq, fq, 1.0 / n, float(rng.uniform(-2.0, 2.0))


def model_fem_inputs(seed, n):
    """The cell data `fem_solve_1d` assembles for one sine-system draw."""
    problem = sin_problem(3.0, 8)
    y = np.random.default_rng(seed).standard_normal(8)
    return problem, y, fem_cell_data(problem, y, n)


def relative_error_to_exact(u, exact, scale=None):
    """Largest error against the exact values, over ``scale`` (default max|exact|)."""
    scale = max(abs(v) for v in exact) if scale is None else scale
    return float(max(abs(Fraction(a) - b) for a, b in zip(u.tolist(), exact)) / scale)


class TestFemSystemKernel:
    # The elimination loop is the less accurate side: on the rough inputs
    # its own error reaches 5e-13 at 64 cells, so it is compared on the
    # model problem's inputs and the rough ones go to the exact solve.
    @given(st.integers(1, 32), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_elimination_loop(self, n, seed):
        problem, y, inputs = model_fem_inputs(seed, n)
        got = fem_solve_1d(problem, y, n)
        want = fem_system_loop(*inputs)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @given(st.integers(1, 64), st.integers(0, 2 ** 32 - 1))
    @example(1, 18341930)  # load 0.6431 and flux -0.6392 cancel to max|u| 0.0033
    @settings(max_examples=40, deadline=None)
    def test_matches_exact_solve(self, n, seed):
        # The error is measured on the summation condition scale, the exact
        # solve on absolute loads and flux: no floating-point solve gets
        # within 1e-14 of a max|u| that cancellation left small.  Without
        # cancellation (flux >= 0; the loads are positive) it is max|u|.
        aq, fq, h, flux = inputs = random_fem_inputs(seed, n)
        got = _accel.fem_system(*inputs)
        scale = max(abs(v) for v in fem_system_exact(aq, np.abs(fq), h, abs(flux)))
        assert relative_error_to_exact(got, fem_system_exact(*inputs), scale) <= 1e-14

    def test_matches_exact_solve_on_model_problem(self):
        problem, y, inputs = model_fem_inputs(11, 256)
        exact = fem_system_exact(*inputs)
        assert relative_error_to_exact(fem_solve_1d(problem, y, 256), exact) <= 1e-14

    def test_vanishing_conductance_is_singular(self):
        aq = np.ones((4, 3))
        aq[2] = 0.0
        with pytest.raises(ZeroDivisionError):
            _accel.fem_system(aq, np.ones((4, 3)), 0.25, -1.0)
        with pytest.raises(SingularSystem):
            fem_solve_1d(constant_problem(0.5), [-2000.0], 8)


class TestParametricMaps:
    def test_exact_wrapper_values(self):
        problem = sin_problem()
        wrapper = as_parametric_map(problem, ("exact",))
        assert wrapper(np.zeros(8))[0] == pytest.approx(-0.5, rel=1e-12)
        again = wrapper(np.zeros(8))[0]
        assert wrapper(np.zeros(8))[0] == again

    def test_fem_converges_to_exact(self):
        problem = sin_problem(3.0, 4)
        rng = np.random.default_rng(13)
        y = rng.standard_normal(4)
        exact = as_parametric_map(problem, ("exact",))(y)[0]
        errors = [
            abs(as_parametric_map(problem, ("fem", n))(y)[0] - exact)
            for n in (16, 32, 64, 128)
        ]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        rate = np.log2(errors[0] / errors[-1]) / 3.0
        assert rate >= 0.8  # at least first order at fixed parameter

    def test_costs(self):
        problem = sin_problem()
        assert as_parametric_map(problem, ("exact",)).cost == 1
        assert as_parametric_map(problem, ("fem", 32)).cost == 32

    def test_refusals(self):
        wrong = ParametricMapFn(lambda rows: rows[:, :2], 1, label="two-columns")
        with pytest.raises(ValueError, match=r"map two-columns returned shape \(3, 2\), "
                                             r"expected \(3, 1\)"):
            wrong.batch(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="unknown fidelity \\('spectral', 8\\)"):
            as_parametric_map(sin_problem(), ("spectral", 8))
        with pytest.raises(ValueError, match="need at least one cell"):
            fem_solve_1d(sin_problem(), np.zeros(8), 0)

    def test_mean_qoi(self):
        problem = constant_problem(0.5)
        problem_mean = ModelProblem1D(problem.system, qoi=("mean",))
        fem_map = as_parametric_map(problem_mean, ("fem", 256))
        exact_map = as_parametric_map(problem_mean, ("exact",))
        y = [0.7]
        # closed form: mean of -e^{-ct} x^2/2 over (0,1) = -e^{-ct}/6
        expected = -np.exp(-0.5 * 0.7) / 6.0
        assert exact_map(y)[0] == pytest.approx(expected, rel=1e-9)
        assert fem_map(y)[0] == pytest.approx(expected, rel=1e-3)


class TestPosterior:
    def setup_method(self):
        self.linear = BayesSetup(
            ParametricMapFn(lambda rows: rows[:, :1], 1), [1.0], [[1.0]]
        )

    def test_density_examples(self):
        assert posterior_density(self.linear, [1.0]) == 1.0
        twos = ParametricMapFn(lambda rows: np.full((len(rows), 1), 2.0), 1)
        fixed = BayesSetup(twos, [0.0], [[1.0]])
        assert posterior_density(fixed, [3.3]) == pytest.approx(np.exp(-2.0))

    def test_density_bounds(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            y = rng.standard_normal(1)
            value = posterior_density(self.linear, y)
            assert 0.0 < value <= 1.0

    def test_noise_validation(self):
        with pytest.raises(ValueError):
            BayesSetup(ParametricMapFn(lambda rows: rows[:, :1], 1), [1.0], [[0.0]])
        with pytest.raises(ValueError):
            BayesSetup(
                ParametricMapFn(lambda rows: rows[:, [0, 0]], 2),
                [1.0, 0.0],
                [[1.0, 0.5], [0.4, 1.0]],
            )

    def test_trivial_density_normalization(self):
        ones = ParametricMapFn(lambda rows: np.ones((len(rows), 1)), 1)
        matched = BayesSetup(ones, [1.0], [[1.0]])
        phi = ParametricMapFn(lambda rows: rows[:, :1] ** 2, 1)
        estimate = posterior_expectation(matched, phi, ladder(2))
        assert estimate.normalization == pytest.approx(1.0, abs=1e-15)
        assert estimate.mean[0] == pytest.approx(1.0, rel=1e-12)

    def test_constant_functional_is_unbiased(self):
        phi = ParametricMapFn(lambda rows: np.ones((len(rows), 1)), 1)
        estimate = posterior_expectation(self.linear, phi, ladder(6))
        assert estimate.mean[0] == pytest.approx(1.0, rel=1e-12)

    def test_conjugate_mean_converges(self):
        phi = ParametricMapFn(lambda rows: rows[:, :1], 1)
        errors = [
            abs(posterior_expectation(self.linear, phi, ladder(n)).mean[0] - 0.5)
            for n in (4, 8, 12, 16, 20)
        ]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[-1] <= 1e-9

    def test_degenerate_normalization_reported(self):
        # signed coarse rule on a spiky density can return Z <= 0
        spiky = BayesSetup(
            ParametricMapFn(lambda rows: 40.0 * np.sin(2.0 * rows[:, :1]), 1), [0.0], [[0.01]]
        )
        phi = ParametricMapFn(lambda rows: rows[:, :1], 1)
        with pytest.raises(DegenerateNormalization):
            posterior_expectation(spiky, phi, ladder(3))

    def test_selector_refusals(self):
        phi = ParametricMapFn(lambda rows: rows[:, :1], 1)
        with pytest.raises(TypeError, match="selector must be an IndexSet or LevelAllocation"):
            posterior_expectation(self.linear, phi, list(ladder(2)))
        alloc = LevelAllocation({nu: 1 for nu in ladder(2)}, default_work_sequence(1))
        with pytest.raises(ValueError, match="multilevel selector needs forward_levels"):
            posterior_expectation(self.linear, phi, alloc)

    def test_multilevel_selector(self):
        lam = ladder(8)
        alloc = LevelAllocation({nu: 1 for nu in lam}, default_work_sequence(1))
        phi = ParametricMapFn(lambda rows: rows[:, :1], 1)
        single = posterior_expectation(self.linear, phi, lam)
        multi = posterior_expectation(
            self.linear, phi, alloc, forward_levels=[self.linear.forward]
        )
        assert multi.mean[0] == pytest.approx(single.mean[0], abs=1e-14)
        assert multi.normalization == pytest.approx(single.normalization, abs=1e-14)

    def test_multilevel_selector_with_two_fem_levels(self):
        # two distinct forward levels: the joint map [phi * density, density]
        # of each level enters with its level's net terms, within the rounding
        # bound of the telescoped pair of single-level quadratures per level
        problem = sin_problem(3.0, 2)
        forward = [as_parametric_map(problem, ("fem", cells)) for cells in (4, 16)]
        setup = BayesSetup(forward[-1], [0.4], [[0.09]])
        phi = ParametricMapFn(lambda rows: 1.0 + rows[:, :1] - rows[:, 1:2] ** 2, 1)
        levels = {(): 2, ((0, 1),): 2, ((1, 1),): 2, ((0, 2),): 1, ((0, 1), (1, 1)): 1,
                  ((0, 3),): 1, ((1, 2),): 1}
        alloc = LevelAllocation({MultiIndex(nu): l for nu, l in levels.items()},
                                default_work_sequence(2))

        def joint(forward_map):
            inner = BayesSetup(forward_map, setup.data, setup.noise_cov)

            def fn(rows):
                density = posterior_density(inner, rows)
                return np.column_stack([phi.batch(rows) * density[:, None], density])

            return _shared(ParametricMapFn(fn, 2))

        maps = [joint(f) for f in forward]
        want = telescope(alloc, maps, quadrature, np.zeros(1))
        gammas, pairs = gamma_sets(alloc), []
        for j, u in enumerate(maps):
            for sign, gamma in zip((1, -1), gammas[j:j + 2]):
                pairs += [(sign * c, u.weighted_sum(nu.entries))
                          for nu, c in combination_coeffs(gamma).items()]
        estimate = posterior_expectation(setup, phi, alloc, forward_levels=forward)
        got = np.append(estimate.numerator, estimate.normalization)
        assert np.all(np.abs(got - want) <= 2 * summation_bound(pairs))
        # the two levels differ: the fine map alone gives another value
        single = posterior_expectation(setup, phi, IndexSet(alloc.levels))
        assert abs(single.numerator[0] - estimate.numerator[0]) > 1e-4


SYSTEMS = {
    "sindecay": lambda **kw: sin_problem(3.0, 6, **kw),
    "constant": lambda **kw: constant_problem(0.5, **kw),
    "blocks": lambda **kw: ModelProblem1D(RepresentationSystem.blocks(5, 1.0), **kw),
}
QOIS = [("point", 1.0), ("point", 0.37), ("mean",)]
# Largest deviation of a batched row, or of its per-point oracle, from the
# math.fsum oracle, in units in the last place of the oracle's largest value
# (the kernels sum in a different order, not in a different precision).
ULPS = 8


def bayes_setup(seed):
    """Three nonlinear observations of four parameters, correlated noise."""
    rng = np.random.default_rng(seed)
    mix = rng.normal(size=(3, 3))
    forward = ParametricMapFn(
        lambda rows: np.column_stack([rows[:, 0] * rows[:, 1], np.sin(rows[:, 2]),
                                      rows[:, 3] ** 2 - rows[:, 0]]), 3)
    return BayesSetup(forward, rng.normal(size=3), mix @ mix.T + np.eye(3))


class TestBatchedMaps:
    """Every batched map against the per-point code it replaced and against
    a `math.fsum` oracle, and each row independent of the rows beside it."""

    @given(st.sampled_from(sorted(SYSTEMS)), st.sampled_from(QOIS),
           st.integers(0, 2 ** 32 - 1), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_exact_rows_match_point_oracle(self, system, qoi, seed, n):
        problem = SYSTEMS[system](qoi=qoi)
        stack = np.random.default_rng(seed).normal(0.0, 2.0, (n, problem.system.d_max))
        got = as_parametric_map(problem, ("exact",)).batch(stack)[:, 0]
        x, mean = (qoi[1], False) if qoi[0] == "point" else (1.0, True)
        for value, y in zip(got.tolist(), stack):
            oracle = panel_integral_fsum(problem, y, x, mean)
            point = panel_integral_point(problem, y, x, mean)
            assert ulps(value, oracle, oracle) <= ULPS
            assert ulps(point, oracle, oracle) <= ULPS

    @given(st.sampled_from(sorted(SYSTEMS)), st.sampled_from([1, 2, 8, 32]),
           st.integers(0, 2 ** 32 - 1), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_fem_rows_match_point_oracle(self, system, n_cells, seed, n):
        problem = SYSTEMS[system]()
        stack = np.random.default_rng(seed).normal(0.0, 2.0, (n, problem.system.d_max))
        got = fem_solve_1d(problem, stack, n_cells)
        assert got.shape == (n, n_cells + 1)
        for row, y in zip(got, stack):
            oracle = fem_solve_fsum(problem, y, n_cells)
            scale = np.abs(oracle).max()
            assert ulps(row, oracle, scale) <= ULPS
            assert ulps(fem_solve_point(problem, y, n_cells), oracle, scale) <= ULPS

    @given(st.sampled_from(sorted(SYSTEMS)), st.sampled_from([1, 2, 8, 32]),
           st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_fem_equals_full_basis_oracle(self, system, n_cells, seed, n):
        # the mesh's basis widens from no modes to d_max as wider stacks
        # arrive, then serves every narrower one: no value may move a bit
        problem = SYSTEMS[system]()
        d_max, widest = problem.system.d_max, 0
        rng = np.random.default_rng(seed)
        for width in [*range(d_max + 3), *reversed(range(d_max + 3))]:
            stack = rng.normal(0.0, 2.0, (n, width))
            np.testing.assert_array_equal(fem_solve_1d(problem, stack, n_cells),
                                          fem_solve_full_basis(problem, stack, n_cells),
                                          strict=True)
            widest = max(widest, width)
            assert problem._quad_cache[n_cells][3].shape[1] == min(widest, d_max)
        y = rng.normal(0.0, 2.0, int(rng.integers(0, d_max + 3)))
        np.testing.assert_array_equal(fem_solve_1d(problem, y, n_cells),
                                      fem_solve_full_basis(problem, y, n_cells), strict=True)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 80), st.integers(1, 4),
           st.sampled_from(QOIS))
    @settings(max_examples=30, deadline=None)
    def test_narrow_stack_equals_zero_padded(self, seed, width, n, qoi):
        # the maps sum only the modes a stack holds; each term left out is
        # y_j psi_j = +-0.0, so the values match to the bit
        problem = sin_problem(3.0, 64, qoi=qoi)
        stack = np.random.default_rng(seed).normal(0.0, 2.0, (n, width))
        padded = np.zeros((n, 64))
        padded[:, :min(width, 64)] = stack[:, :64]
        for fidelity in [("exact",), ("fem", 16)]:
            fn = as_parametric_map(problem, fidelity).batch
            assert fn(stack).tobytes() == fn(padded).tobytes()

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_bayes_rows_match_point_oracle(self, seed, n):
        setup = bayes_setup(seed)
        stack = np.random.default_rng(seed + 1).normal(0.0, 1.0, (n, 4))
        got = posterior_density(setup, stack)
        for value, y in zip(got.tolist(), stack):
            oracle = posterior_density_fsum(setup, y)
            # exp(-m/2) turns the misfit's rounding, a few ulps of m/2, into
            # relative error: the bound grows with m/2 = -log(density)
            bound = ULPS * (1.0 - math.log(oracle))
            assert ulps(value, oracle, oracle) <= bound
            assert ulps(posterior_density_point(setup, y), oracle, oracle) <= bound

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 500), st.data(),
           st.sampled_from([model._BLOCK, 97]))
    @settings(max_examples=25, deadline=None)
    def test_row_alone_equals_row_in_batch(self, seed, n, data, block):
        # 64 cells are 192 coefficient values a row, so more than 341 rows
        # span two row blocks of the FEM kernel; a block of 97 values splits
        # every batch of the exact map too (at least 12 panel nodes a row)
        stack = np.random.default_rng(seed).normal(0.0, 2.0, (n, 6))
        i = data.draw(st.integers(0, n - 1))
        setup = bayes_setup(seed)
        maps = [as_parametric_map(sin_problem(3.0, 6, qoi=qoi), fidelity).batch
                for qoi in QOIS for fidelity in [("exact",), ("fem", 64)]]
        maps.append(lambda rows: posterior_density(setup, rows[:, :4]))
        with mock.patch.object(model, "_BLOCK", block):
            for fn in maps:
                np.testing.assert_array_equal(fn(stack)[i], fn(stack[i:i + 1])[0])


class TestExactMeanAndBlocks:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_mean_panel_sum_matches_nested_integral(self, seed):
        problem = sin_problem(3.0, 4, qoi=("mean",))
        y = np.random.default_rng(seed).standard_normal(4)
        got = as_parametric_map(problem, ("exact",))(y)[0]
        assert abs(got - mean_qoi_nested(problem, y)) <= 1e-10

    def test_constant_mode_mean(self):
        # the mean over (0, 1) of -exp(-c y) x**2 / 2
        for amplitude in (0.3, 0.5, 2.0):
            problem = constant_problem(amplitude, qoi=("mean",))
            stack = np.array([[-3.0], [-0.7], [0.0], [0.4], [2.5]])
            want = -np.exp(-amplitude * stack[:, 0]) / 6.0
            got = as_parametric_map(problem, ("exact",)).batch(stack)[:, 0]
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("d", [3, 5, 6, 7])
    def test_blocks_closed_form(self, d):
        # F(s) = s: u(x) = -sum_k exp(-a y_k) (min(x, (k+1)/d)**2 - (k/d)**2) / 2
        amplitude = 0.8
        problem = ModelProblem1D(RepresentationSystem.blocks(d, amplitude))
        rng = np.random.default_rng(d)
        stack = rng.normal(0.0, 2.0, (20, d))
        for x in (1.0, 0.5, 1.0 / 3.0, float(rng.uniform())):
            want = -sum(np.exp(-amplitude * stack[:, k])
                        * (min(x, (k + 1) / d) ** 2 - (k / d) ** 2) / 2.0
                        for k in range(d) if k / d < x)
            np.testing.assert_allclose(exact_solution_1d(problem, stack, x), want,
                                       rtol=1e-14, atol=0.0)
