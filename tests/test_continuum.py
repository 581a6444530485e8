import warnings

import numpy as np
import pytest

from helpers import dense_reference
from varprop import LabelSet, discrete_vs_continuum, laplacian_apply
from varprop.continuum import closed_form_checks, path_closed_form, path_graph, path_graph_shift
from varprop.errors import InvalidParameterError
from varprop.graph import graph_from_edges
from varprop.solvers import METHODS


class TestGrid:
    @pytest.mark.parametrize("check", [discrete_vs_continuum, closed_form_checks])
    @pytest.mark.parametrize("n_grid", [8, 15, 2202])
    def test_grid_outside_range_rejected(self, check, n_grid):
        with pytest.raises(InvalidParameterError, match="n_grid must be >= 16 and < 2202"):
            check(n_grid)

    @pytest.mark.parametrize("n_grid", [16.5, 20.0, True])
    def test_non_integer_grid_rejected(self, n_grid):
        # 16.5 and 20.0 used to be accepted, and True to read as a grid of 1
        with pytest.raises(InvalidParameterError, match="an integer"):
            discrete_vs_continuum(n_grid)

    def test_numpy_integer_grid_accepted(self):
        assert discrete_vs_continuum(np.int64(20)).n_grid == 20

    @pytest.mark.parametrize("n_grid", [16, 2201])
    def test_grid_range_ends_accepted(self, n_grid):
        assert discrete_vs_continuum(n_grid).n_grid == n_grid


@pytest.fixture(scope="module", params=[16, 128, 2201])
def checks(request):
    return {check.method: check for check in closed_form_checks(request.param)}


class TestClosedForms:
    @pytest.mark.parametrize("method", METHODS)
    def test_solver_matches_closed_form(self, checks, method):
        check = checks[method]
        assert check.error <= 1e-8
        weighted = method in ("v_laplace", "v_poisson")
        assert check.fractions == ((0.5, 0.9, 0.99) if weighted else (0.0,))
        # solve's near-bound warning fires for v_poisson at 0.9 lambda_2 and above only
        assert check.warned == ((0.9, 0.99) if method == "v_poisson" else ())

    def test_warnings_recorded_not_shown(self):
        # v_poisson warns at 0.9 and 0.99 lambda_2, but closed_form_checks keeps it
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            checks = closed_form_checks(16)
        assert shown == []
        assert checks[METHODS.index("v_poisson")].warned == (0.9, 0.99)

    @pytest.mark.parametrize("method", ["v_laplace", "v_poisson"])
    def test_flipped_lambda_misses_closed_form(self, method):
        # the scores at -lam miss the closed form far past the verdicts' 1e-8 bound
        n = 128
        g = path_graph(n)
        labels = LabelSet(k=2, entries=((0, 0), (n - 1, 1)))
        errors = []
        for fraction in (0.5, 0.9, 0.99):
            lam = fraction * path_graph_shift(n)
            exact = path_closed_form(method, n, lam)
            flipped = dense_reference(g, labels, method, -lam)
            errors.append(np.abs(flipped - exact).max() / np.abs(exact).max())
        assert max(errors) >= 0.1

    @pytest.mark.parametrize("n", [16, 33, 128])
    @pytest.mark.parametrize("method", METHODS)
    def test_closed_form_solves_the_defining_equations(self, method, n):
        # against the dense reference, which shares no code with solvers.py
        g = path_graph(n)
        labels = LabelSet(k=2, entries=((0, 0), (n - 1, 1)))
        for fraction in (0.5, 0.9, 0.99):
            lam = fraction * path_graph_shift(n)
            exact = path_closed_form(method, n, lam)
            np.testing.assert_allclose(exact, dense_reference(g, labels, method, lam),
                                       rtol=0, atol=1e-11 * np.abs(exact).max())


class TestSecondDifference:
    def test_matches_path_graph_laplacian(self):
        # interior rows of the unit path Laplacian are -h^2 times the stencil
        n = 32
        g = graph_from_edges(n, list(range(n - 1)), list(range(1, n)))
        x = np.linspace(0.0, 1.0, n)
        h = x[1] - x[0]
        v = np.cos(2.0 * x)
        stencil = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / (h * h)
        lap = laplacian_apply(g, v)
        np.testing.assert_allclose(lap[1:-1], -h * h * stencil, atol=1e-14)
        np.testing.assert_allclose(lap, g.laplacian_matrix() @ v, atol=1e-12)


class TestPathGraphEigenvector:
    def test_plain_laplacian_null_space_is_constant(self):
        L = graph_from_edges(64, list(range(63)), list(range(1, 64))).laplacian_matrix()
        w, v = np.linalg.eigh(L.toarray())
        null = v[:, 0]
        assert abs(w[0]) <= 1e-12
        assert np.abs(null - null.mean()).max() <= 1e-8

    def test_correlation_at_grid_128(self):
        report = discrete_vs_continuum(128)
        assert report.correlation >= 0.999
        assert report.shift > 0

    def test_fitted_lambda_converges_under_refinement(self):
        a = discrete_vs_continuum(128)
        b = discrete_vs_continuum(256)
        assert abs(a.fitted_lambda - b.fitted_lambda) / b.fitted_lambda <= 0.05
        # the first interior mode of the second difference operator
        assert b.fitted_lambda == pytest.approx(np.pi**2, rel=0.01)

    def test_analytic_mode_at_grid_2048(self):
        # the pencil's second eigenvector samples cos(pi x) exactly
        n = 2048
        report = discrete_vs_continuum(n)
        assert report.shift == pytest.approx(2 * (n - 1) * (1 - np.cos(np.pi / (n - 1))), rel=1e-9)
        assert report.fitted_lambda == pytest.approx(np.pi**2, rel=1e-6)
