import numpy as np
import pytest

from varprop import (
    ContinuumConfig,
    discrete_vs_continuum,
    ode_residual_check,
    residual_refinement_ratio,
    second_difference,
)
from varprop.continuum import format_report, write_residual_csv
from varprop.errors import InvalidParameterError
from varprop.graph import graph_from_edges


class TestConfig:
    def test_minimum_grid(self):
        with pytest.raises(InvalidParameterError):
            ContinuumConfig(n_grid=8, lam=1.0)

    def test_positive_lambda(self):
        with pytest.raises(InvalidParameterError):
            ContinuumConfig(n_grid=64, lam=0.0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lambda(self, lam):
        with pytest.raises(InvalidParameterError, match="finite"):
            ContinuumConfig(n_grid=64, lam=lam)

    @pytest.mark.parametrize("n_grid", [16.5, 20.0, True])
    def test_non_integer_grid_rejected(self, n_grid):
        # 16.5 and 20.0 used to be accepted, and True to read as a grid of 1
        with pytest.raises(InvalidParameterError, match="an integer"):
            ContinuumConfig(n_grid=n_grid, lam=4)

    def test_numpy_integer_grid_accepted(self):
        assert ContinuumConfig(n_grid=np.int64(20), lam=4).n_grid == 20

    @pytest.mark.parametrize(
        "n_grid,lam,largest", [(511, 0.01, 262), (1023, 0.1, 828), (5999, 4.0, 4402)]
    )
    def test_grid_past_double_precision_rejected(self, n_grid, lam, largest):
        with pytest.raises(InvalidParameterError, match=f"largest n_grid accepted is {largest}$"):
            ContinuumConfig(n_grid=n_grid, lam=lam)
        ContinuumConfig(n_grid=largest, lam=lam)

    @pytest.mark.parametrize(
        "n_grid,lam,smallest", [(16, 1500.0, 21), (16, 2000.0, 24), (16, 5000.0, 37), (43, 1e4, 51)]
    )
    def test_grid_too_coarse_rejected(self, n_grid, lam, smallest):
        with pytest.raises(InvalidParameterError, match=f"smallest n_grid accepted is {smallest}$"):
            ContinuumConfig(n_grid=n_grid, lam=lam)
        with pytest.raises(InvalidParameterError, match="too coarse"):
            ContinuumConfig(n_grid=smallest - 1, lam=lam)
        cfg = ContinuumConfig(n_grid=smallest, lam=lam)
        assert 3.5 <= residual_refinement_ratio(cfg).ratio <= 4.5

    @pytest.mark.parametrize("n_grid,lam", [(128, 0.01), (1024, 1.0), (2048, 4.0)])
    def test_resolvable_refinement_accepted(self, n_grid, lam):
        assert 3.5 <= residual_refinement_ratio(ContinuumConfig(n_grid, lam)).ratio <= 4.5


class TestRefinableConfig:
    @pytest.mark.parametrize(
        "n_grid,lam,largest", [(132, 0.01, 131), (2202, 4.0, 2201), (4402, 4.0, 2201)]
    )
    def test_refined_grid_past_double_precision_rejected(self, n_grid, lam, largest):
        # the coarse grid itself is accepted; its 2*n_grid - 1 refinement is not
        ContinuumConfig(n_grid=n_grid, lam=lam)
        with pytest.raises(InvalidParameterError, match=f"largest n_grid accepted is {largest}$"):
            ContinuumConfig.refinable(n_grid, lam)
        with pytest.raises(InvalidParameterError, match=f"largest n_grid accepted is {largest}$"):
            residual_refinement_ratio(ContinuumConfig(n_grid=n_grid, lam=lam))
        assert ContinuumConfig.refinable(largest, lam) == ContinuumConfig(largest, lam)

    def test_no_grid_resolves_tiny_lambda(self):
        # at lam = 1e-4 double precision resolves 27 points: 16 pass, 2*16 - 1 do not
        ContinuumConfig(n_grid=16, lam=1e-4)
        with pytest.raises(InvalidParameterError, match="no n_grid resolves lam=0.0001"):
            ContinuumConfig.refinable(16, 1e-4)
        with pytest.raises(InvalidParameterError, match="no n_grid resolves lam=1e-05"):
            ContinuumConfig(n_grid=16, lam=1e-5)


class TestSecondDifference:
    def test_annihilates_affine_functions(self):
        x = np.linspace(0.0, 1.0, 50)
        v = 3.0 + 2.0 * x
        h = x[1] - x[0]
        assert np.abs(second_difference(v, h)).max() <= 1e-10

    def test_two_samples_rejected(self):
        with pytest.raises(InvalidParameterError, match="at least 3 samples"):
            second_difference([0.0, 1.0], 1.0)

    def test_matches_path_graph_laplacian(self):
        # interior rows of the unit path Laplacian are -h^2 times the stencil
        n = 32
        g = graph_from_edges(n, list(range(n - 1)), list(range(1, n)))
        x = np.linspace(0.0, 1.0, n)
        h = x[1] - x[0]
        v = np.cos(2.0 * x)
        from varprop import laplacian_apply

        lap = laplacian_apply(g, v)
        np.testing.assert_allclose(lap[1:-1], -h * h * second_difference(v, h), atol=1e-14)
        np.testing.assert_allclose(lap, g.laplacian_matrix() @ v, atol=1e-12)


class TestOdeResidual:
    def test_second_order_ratio_lambda4(self):
        report = residual_refinement_ratio(ContinuumConfig(n_grid=64, lam=4.0))
        assert 3.5 <= report.ratio <= 4.5
        assert report.fine.n_grid == 2 * 64 - 1
        assert report.fine.h == pytest.approx(report.coarse.h / 2)

    def test_residual_scales_with_h_squared(self):
        stats = ode_residual_check(ContinuumConfig(n_grid=128, lam=4.0))
        # leading error term is h^2 * lam^2 / 12
        predicted = stats.h**2 * 16.0 / 12.0
        assert stats.max_residual == pytest.approx(predicted, rel=0.05)


class TestPathGraphEigenvector:
    def test_plain_laplacian_null_space_is_constant(self):
        L = graph_from_edges(64, list(range(63)), list(range(1, 64))).laplacian_matrix()
        w, v = np.linalg.eigh(L.toarray())
        null = v[:, 0]
        assert abs(w[0]) <= 1e-12
        assert np.abs(null - null.mean()).max() <= 1e-8

    def test_correlation_at_grid_128(self):
        report = discrete_vs_continuum(ContinuumConfig(n_grid=128, lam=4.0))
        assert report.correlation >= 0.999
        assert report.shift > 0

    def test_fitted_lambda_converges_under_refinement(self):
        a = discrete_vs_continuum(ContinuumConfig(n_grid=128, lam=4.0))
        b = discrete_vs_continuum(ContinuumConfig(n_grid=256, lam=4.0))
        assert abs(a.fitted_lambda - b.fitted_lambda) / b.fitted_lambda <= 0.05
        # the first interior mode of the second difference operator
        assert b.fitted_lambda == pytest.approx(np.pi**2, rel=0.01)

    def test_analytic_mode_at_grid_2048(self):
        # the pencil's second eigenvector samples cos(pi x) exactly
        n = 2048
        report = discrete_vs_continuum(ContinuumConfig(n_grid=n, lam=4.0))
        assert report.shift == pytest.approx(2 * (n - 1) * (1 - np.cos(np.pi / (n - 1))), rel=1e-9)
        assert report.fitted_lambda == pytest.approx(np.pi**2, rel=1e-6)


class TestReportOutputs:
    def test_csv_output(self, tmp_path):
        cfg = ContinuumConfig(n_grid=16, lam=1.0)
        path = tmp_path / "resid.csv"
        write_residual_csv(cfg, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,value,residual"
        assert len(lines) == 1 + 14  # interior points only
        x, value, resid = map(float, lines[1].split(","))
        assert 0.0 < x < 1.0
        assert abs(value) <= 1.0

    def test_format_report_mentions_both_checks(self):
        cfg = ContinuumConfig(n_grid=64, lam=4.0)
        text = format_report(residual_refinement_ratio(cfg), discrete_vs_continuum(cfg))
        assert "refinement ratio" in text
        assert "correlation" in text
