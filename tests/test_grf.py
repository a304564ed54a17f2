"""Random-field generators: series expansions and circulant sampling."""

import numpy as np
import pytest

from hermgrid.errors import NotPositiveDefinite, UnsupportedSmoothness
from hermgrid.grf import (
    HAT_SCALE,
    CovarianceSpec,
    _normals,
    _synthesize,
    brownian_bridge_kl,
    bspline_cutoff,
    circulant_embed_1d,
    levy_ciesielski,
    matern_cov,
    sample_grf,
    sample_grf_batch,
)
from util import hat_series_loop, synthesize_loop

N_DRAWS = 100_000


class TestBridgeSeries:
    def test_vanishes_at_ends(self):
        z = np.ones(8)
        assert brownian_bridge_kl(8, 1.0, 0.0, z) == 0.0
        assert abs(brownian_bridge_kl(8, 1.0, 1.0, z)) < 1e-14
        assert levy_ciesielski(3, 0.0, np.ones(15)) == 0.0
        assert levy_ciesielski(3, 1.0, np.ones(15)) == 0.0

    def test_single_mode_values(self):
        got = brownian_bridge_kl(1, 1.0, 0.5, [1.0])
        assert got == pytest.approx(np.sqrt(2.0) / np.pi, rel=1e-14)
        assert levy_ciesielski(0, 0.5, {(0, 0): 1.0}) == pytest.approx(0.5)

    def test_dict_and_flat_coefficients_agree(self):
        rng = np.random.default_rng(0)
        flat = rng.standard_normal(2 ** 4 - 1)
        as_dict = {
            (j, k): flat[2 ** j - 1 + k] for j in range(4) for k in range(2 ** j)
        }
        for t in (0.2, 0.35, 0.77):
            assert levy_ciesielski(3, t, as_dict) == pytest.approx(
                levy_ciesielski(3, t, flat), rel=1e-15
            )

    def _mc_variance(self, coefficients, seed):
        rng = np.random.default_rng(seed)
        draws = rng.standard_normal((N_DRAWS, coefficients.size))
        values = draws @ coefficients
        return float(np.var(values)), float(np.std(values ** 2) / np.sqrt(N_DRAWS))

    def test_sine_series_midpoint_variance(self):
        modes = 200
        coefficients = np.array(
            [brownian_bridge_kl(modes, 1.0, 0.5, np.eye(modes)[i]) for i in range(modes)]
        )
        var, mc_sigma = self._mc_variance(coefficients, 101)
        assert abs(var - 0.25) <= 3.0 * mc_sigma + 0.25 / modes

    def test_hat_series_midpoint_variance(self):
        levels = 12
        active = []
        for j in range(levels + 1):
            k = int(np.floor(2 ** j * 0.5))
            if k < 2 ** j:
                value = levy_ciesielski(levels, 0.5, {(j, k): 1.0})
                if value != 0.0:
                    active.append(value)
        coefficients = np.array(active)
        var, mc_sigma = self._mc_variance(coefficients, 202)
        assert abs(var - 0.25) <= 3.0 * mc_sigma

    def test_generators_agree_on_covariance_scale(self):
        # both must see Var[B_(1/2)] = 1/4; this pins the hat normalization
        modes = 200
        kl = np.array(
            [brownian_bridge_kl(modes, 1.0, 0.5, np.eye(modes)[i]) for i in range(modes)]
        )
        lc = [levy_ciesielski(12, 0.5, {(0, 0): 1.0})]
        assert np.sum(kl ** 2) == pytest.approx(0.25, abs=2e-3)
        assert sum(v * v for v in lc) == pytest.approx(0.25, abs=1e-14)


class TestHatSeriesKernel:
    @pytest.mark.parametrize("levels", [0, 3, 12])
    def test_bitwise_equal_to_loop(self, levels):
        rng = np.random.default_rng(levels)
        dyadic = np.arange(-2 ** 10, 5 * 2 ** 10 + 1) / 2 ** 12  # [-0.25, 1.25]
        t = np.concatenate([rng.uniform(-0.2, 1.2, 2000), dyadic])
        z = rng.standard_normal(2 ** (levels + 1) - 1)
        got = levy_ciesielski(levels, t, z)
        assert got.tobytes() == hat_series_loop(t, z, levels, HAT_SCALE).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_t(self, bad):
        with pytest.raises(ValueError, match="finite"):
            levy_ciesielski(3, bad, np.ones(15))
        with pytest.raises(ValueError, match="finite"):
            levy_ciesielski(3, np.array([0.5, bad]), np.ones(15))


class TestMatern:
    def test_unit_at_origin(self):
        for smooth in (0.5, 1.5, 2.5):
            assert matern_cov(0.0, 2.0, smooth) == 1.0

    def test_closed_forms(self):
        assert matern_cov(1.0, 1.0, 0.5) == pytest.approx(np.exp(-1.0), rel=1e-14)
        expected = (1 + np.sqrt(3)) * np.exp(-np.sqrt(3))
        assert matern_cov(1.0, 1.0, 1.5) == pytest.approx(expected, rel=1e-14)
        s = np.sqrt(5.0)
        expected = (1 + s + 5.0 / 3.0) * np.exp(-s)
        assert matern_cov(1.0, 1.0, 2.5) == pytest.approx(expected, rel=1e-14)

    def test_even_and_bounded(self):
        xs = np.linspace(-3, 3, 31)
        vals = matern_cov(xs, 0.7, 1.5)
        np.testing.assert_allclose(vals, vals[::-1], rtol=1e-14)
        assert np.all(np.abs(vals) <= 1.0 + 1e-15)

    def test_unsupported(self):
        with pytest.raises(UnsupportedSmoothness):
            matern_cov(1.0, 1.0, 2.0)


class TestCutoff:
    def test_plateau_and_support(self):
        assert bspline_cutoff(0.0, 2.0, 1) == 1.0
        assert bspline_cutoff(1.0, 2.0, 3) == 1.0
        assert bspline_cutoff(2.0, 2.0, 1) == 0.0
        assert bspline_cutoff(-2.5, 2.0, 2) == 0.0

    def test_linear_midpoint(self):
        assert bspline_cutoff(1.5, 2.0, 1) == pytest.approx(0.5)
        assert bspline_cutoff(-1.5, 2.0, 1) == pytest.approx(0.5)

    def test_even_monotone_unit_interval(self):
        ts = np.linspace(-4.0, 4.0, 401)
        vals = bspline_cutoff(ts, 3.0, 4)
        np.testing.assert_allclose(vals, vals[::-1], atol=1e-14)
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        blend = vals[(ts >= 1.5) & (ts <= 3.0)]
        assert np.all(np.diff(blend) <= 1e-14)


class TestEmbedding:
    def test_positive_flag_matches_dense_eigensolve(self):
        spec = CovarianceSpec.exponential(1.0)
        plan = circulant_embed_1d(spec, 4, 2.0)
        assert plan.positive
        s = plan.extended_size
        dense = np.array([[plan.first_row[(i - j) % s] for j in range(s)] for i in range(s)])
        oracle = np.linalg.eigvalsh(dense)
        assert oracle.min() >= 0
        np.testing.assert_allclose(
            np.sort(plan.eigenvalues), np.sort(oracle), rtol=1e-10, atol=1e-12
        )

    def test_first_row_normalization_and_evenness(self):
        plan = circulant_embed_1d(CovarianceSpec.exponential(0.5), 8, 2.0)
        assert plan.first_row[0] == 1.0
        s = plan.extended_size
        for k in range(1, s):
            assert plan.first_row[k] == plan.first_row[s - k]

    def test_restriction_reproduces_kernel(self):
        spec = CovarianceSpec.matern(1.0, 1.5)
        plan = circulant_embed_1d(spec, 6, 2.0)
        s = plan.extended_size
        for i in range(plan.n_points):
            for j in range(plan.n_points):
                expected = spec.rho(plan.grid[i] - plan.grid[j])
                assert plan.first_row[(i - j) % s] == pytest.approx(expected, abs=1e-14)

    def test_cutoff_preserves_kernel_inside_unit_lag(self):
        spec = CovarianceSpec.exponential(1.0)
        plan = circulant_embed_1d(spec, 8, 2.0, cutoff=(3.0, 2))  # 2*ell - kappa = 1
        for k in range(9):  # lags up to 1
            assert abs(plan.first_row[k] - spec.rho(k / 8.0)) <= 1e-14

    def test_not_positive_definite_detected(self):
        spec = CovarianceSpec.matern(2.0, 1.5)
        plan = circulant_embed_1d(spec, 16, 1.0)
        assert not plan.positive
        with pytest.raises(NotPositiveDefinite):
            circulant_embed_1d(spec, 16, 1.0, strict=True)
        with pytest.raises(NotPositiveDefinite):
            sample_grf(plan, 0)

    def test_grid_size_validation(self):
        with pytest.raises(ValueError):
            circulant_embed_1d(CovarianceSpec.exponential(1.0), 4, 0.875)


class TestSampling:
    def test_deterministic_in_seed(self):
        plan = circulant_embed_1d(CovarianceSpec.exponential(1.0), 16, 2.0)
        a = sample_grf(plan, 123456789)
        b = sample_grf(plan, 123456789)
        np.testing.assert_array_equal(a, b)
        c = sample_grf(plan, 987654321)
        assert not np.array_equal(a, c)

    def test_batch_shape_and_determinism(self):
        plan = circulant_embed_1d(CovarianceSpec.exponential(1.0), 16, 2.0)
        x = sample_grf_batch(plan, 5, 10)
        y = sample_grf_batch(plan, 5, 10)
        assert x.shape == (10, 17)
        np.testing.assert_array_equal(x, y)

    def test_moments(self):
        plan = circulant_embed_1d(CovarianceSpec.exponential(1.0), 64, 2.0)
        samples = sample_grf_batch(plan, 7, N_DRAWS)
        target = plan.spec.rho(plan.grid[:, None] - plan.grid[None, :])
        empirical = samples.T @ samples / N_DRAWS
        assert np.abs(empirical - target).max() <= 4.0 * np.sqrt(2.0 / N_DRAWS)
        assert np.abs(samples.mean(axis=0)).max() <= 3.0 / np.sqrt(N_DRAWS)


# (spec, m, ell, cutoff): the three kernels with and without the smooth
# cutoff, plus the smallest embeddings (s = 2 and s = 4)
ORACLE_PLANS = [
    (CovarianceSpec.exponential(1.0), 16, 2.0, None),
    (CovarianceSpec.exponential(0.5), 16, 2.0, (3.0, 2)),
    (CovarianceSpec.matern(0.5, 1.5), 32, 3.0, None),
    (CovarianceSpec.matern(0.5, 1.5), 32, 4.0, (3.0, 2)),
    (CovarianceSpec.matern(0.3, 2.5), 24, 2.0, None),
    (CovarianceSpec.matern(0.3, 2.5), 24, 2.5, (4.0, 3)),
    (CovarianceSpec.exponential(1.0), 1, 1.0, None),
    (CovarianceSpec.exponential(1.0), 2, 1.0, None),
]


class TestSynthesisOracle:
    """Sampling from the plan's amplitudes is bitwise the per-call synthesis."""

    @pytest.mark.parametrize("spec, m, ell, cutoff", ORACLE_PLANS)
    def test_single_draws(self, spec, m, ell, cutoff):
        plan = circulant_embed_1d(spec, m, ell, cutoff=cutoff)
        assert plan.positive
        for seed in (0, 5, 12345, 2 ** 64 - 1):
            draws = _normals(seed, plan.extended_size)
            assert np.array_equal(sample_grf(plan, seed), synthesize_loop(plan, draws))

    @pytest.mark.parametrize("spec, m, ell, cutoff", ORACLE_PLANS)
    def test_batches(self, spec, m, ell, cutoff):
        plan = circulant_embed_1d(spec, m, ell, cutoff=cutoff)
        for seed, n in ((3, 1), (7, 25)):
            draws = _normals(seed, (n, plan.extended_size))
            batch = sample_grf_batch(plan, seed, n)
            assert batch.shape == (n, plan.n_points)
            assert np.array_equal(batch, synthesize_loop(plan, draws))

    def test_clipped_spectrum(self):
        plan = circulant_embed_1d(CovarianceSpec.matern(2.0, 1.5), 16, 1.0)
        assert not plan.positive and plan.eigenvalues.min() < 0.0
        draws = _normals(11, (4, plan.extended_size))
        assert np.array_equal(_synthesize(plan, draws), synthesize_loop(plan, draws))
        assert np.array_equal(_synthesize(plan, draws[0]), synthesize_loop(plan, draws[0]))

    def test_plan_arrays_are_read_only(self):
        plan = circulant_embed_1d(CovarianceSpec.exponential(1.0), 8, 2.0, cutoff=(3.0, 2))
        assert plan.amplitudes.shape == (plan.extended_size // 2 + 1,)
        for array in (plan.grid, plan.first_row, plan.eigenvalues, plan.amplitudes):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
