import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigh, null_space
from scipy.sparse import csgraph
from scipy.sparse.linalg import cg as sparse_cg

from helpers import random_connected_graph, random_label_set
from varprop import (
    LabelSet,
    SolverConfig,
    dense_oracle_solve,
    estimate_stability_limit,
    graph_from_edges,
    laplacian_apply,
    objective_value,
    predict,
    solve,
    variance,
    weighted_mean,
)
from varprop.errors import (
    DivergenceError,
    IllPosedError,
    InvalidInputError,
    InvalidParameterError,
    OracleSizeError,
)


def path_graph(n):
    return graph_from_edges(n, list(range(n - 1)), list(range(1, n)))


def triangle():
    return graph_from_edges(3, [0, 0, 1], [1, 2, 2])


PATH3_LABELS = LabelSet(k=2, entries=((0, 0), (2, 1)))
K3_LABELS = LabelSet(k=2, entries=((0, 0), (1, 1)))


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lam=-0.1), dict(tol=0.0), dict(max_iter=0), dict(method="jacobi"),
            dict(lam=float("nan")), dict(lam=float("inf")),
            dict(tol=float("nan")), dict(tol=float("inf")),
            # below what double precision can reach
            dict(tol=1e-17), dict(tol=0.5 * np.finfo(float).eps),
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError):
            SolverConfig(**kwargs)

    def test_variance_on_labeled_is_not_settable(self):
        assert [f.name for f in fields(SolverConfig)] == ["lam", "tol", "max_iter", "method"]
        assert SolverConfig(method="v_poisson").variance_on_labeled is True
        with pytest.raises(TypeError):
            SolverConfig(variance_on_labeled=False)


class TestLaplace:
    def test_all_nodes_labeled_returns_clamped_values(self):
        g = triangle()
        ls = LabelSet(k=2, entries=((0, 0), (1, 1), (2, 0)))
        res = solve(g, ls, SolverConfig(method="laplace"))
        assert res.converged and res.iterations == 0
        np.testing.assert_array_equal(res.u, [[1, 0], [0, 1], [1, 0]])

    def test_path3_midpoint(self):
        res = solve(path_graph(3), PATH3_LABELS, SolverConfig(method="laplace"))
        np.testing.assert_allclose(res.u[1], [0.5, 0.5], atol=1e-12)

    def test_path4_harmonic_thirds(self):
        g = path_graph(4)
        ls = LabelSet(k=2, entries=((0, 0), (3, 1)))
        res = solve(g, ls, SolverConfig(method="laplace"))
        np.testing.assert_allclose(res.u[1], [2 / 3, 1 / 3], atol=1e-9)
        np.testing.assert_allclose(res.u[2], [1 / 3, 2 / 3], atol=1e-9)
        oracle = dense_oracle_solve(g, ls, SolverConfig(method="laplace"))
        np.testing.assert_allclose(res.u, oracle.u, atol=1e-9)

    def test_unlabeled_component_is_ill_posed(self):
        g = graph_from_edges(4, [0, 2], [1, 3])
        ls = LabelSet(k=2, entries=((0, 0), (1, 1)))
        with pytest.raises(IllPosedError, match="component"):
            solve(g, ls, SolverConfig(method="laplace"))

    def test_labeled_per_component_is_solvable(self):
        g = graph_from_edges(4, [0, 2], [1, 3])
        ls = LabelSet(k=2, entries=((0, 0), (2, 1)))
        res = solve(g, ls, SolverConfig(method="laplace"))
        assert res.converged
        np.testing.assert_allclose(res.u[1], [1.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(res.u[3], [0.0, 1.0], atol=1e-9)

    def test_unknown_labeled_node_rejected(self):
        with pytest.raises(InvalidInputError):
            solve(path_graph(3), LabelSet(k=2, entries=((7, 0),)), SolverConfig(method="laplace"))

    @pytest.mark.parametrize("seed", range(5))
    def test_maximum_principle(self, seed):
        g = random_connected_graph(seed + 50, 30)
        ls = random_label_set(seed, 30, 3, 2)
        res = solve(g, ls, SolverConfig(method="laplace"))
        y = ls.onehot_matrix()
        unlabeled = np.setdiff1d(np.arange(30), ls.nodes)
        for c in range(3):
            lo, hi = y[:, c].min(), y[:, c].max()
            assert res.u[unlabeled, c].min() >= lo - 1e-8
            assert res.u[unlabeled, c].max() <= hi + 1e-8


class TestNonConvergence:
    """At the iteration cap the result is the last iterate: ``u``,
    ``iterations`` and ``final_residual`` all describe iteration max_iter."""

    @pytest.fixture(scope="class")
    def problem(self):
        # laplace's residual rises at iteration 3 on this problem
        return random_connected_graph(1, 40), random_label_set(1, 40, 2, 1)

    def residual(self, g, ls, cfg, u):
        """Relative residual of ``u`` in ``cfg.method``'s system, from laplacian_apply."""
        y = ls.onehot_matrix()
        Lu = laplacian_apply(g, u)
        if cfg.method == "laplace":
            # rhs - L_uu u_u with rhs = -L_ul y is -(Lu) at the unlabeled rows
            unlabeled = np.setdiff1d(np.arange(g.n), ls.nodes)
            clamped = np.zeros_like(u)
            clamped[ls.nodes] = y
            rhs = -laplacian_apply(g, clamped)[unlabeled]
            return np.linalg.norm(Lu[unlabeled]) / np.linalg.norm(rhs)
        lam = cfg.lam if cfg.method == "v_poisson" else 0.0
        q = g.degree_weights[:, None]
        source = np.zeros_like(u)
        source[ls.nodes] = y - y.mean(axis=0)
        Au = Lu - lam * q * u
        Au -= q * Au.sum(axis=0)
        return np.linalg.norm(source - Au) / np.linalg.norm(source)

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 5])
    @pytest.mark.parametrize("method", ["laplace", "poisson", "v_poisson"])
    def test_result_is_the_last_iterate(self, problem, method, max_iter):
        g, ls = problem
        cfg = SolverConfig(method=method, max_iter=max_iter)
        res = solve(g, ls, cfg)
        assert not res.converged
        assert res.iterations == max_iter
        recomputed = self.residual(g, ls, cfg, res.u)
        np.testing.assert_allclose(res.final_residual, recomputed, rtol=1e-6)

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 5])
    def test_laplace_iterate_matches_reference_cg(self, problem, max_iter):
        g, ls = problem
        res = solve(g, ls, SolverConfig(method="laplace", max_iter=max_iter))
        unlabeled = np.setdiff1d(np.arange(g.n), ls.nodes)
        L = g.laplacian_matrix()
        A = L[unlabeled][:, unlabeled]
        rhs = -(L[unlabeled][:, ls.nodes] @ ls.onehot_matrix())
        jacobi = sparse.diags(1.0 / A.diagonal())
        for c in range(ls.k):
            ref, _ = sparse_cg(A, rhs[:, c], rtol=0.0, atol=0.0, maxiter=max_iter, M=jacobi)
            np.testing.assert_allclose(res.u[unlabeled, c], ref, rtol=1e-10, atol=1e-12)


class TestPoisson:
    def test_k3_closed_form(self):
        res = solve(triangle(), K3_LABELS, SolverConfig(method="poisson"))
        expected = np.array([[1 / 6, -1 / 6], [-1 / 6, 1 / 6], [0.0, 0.0]])
        np.testing.assert_allclose(res.u, expected, atol=1e-10)
        np.testing.assert_array_equal(predict(res.u), [0, 1, 0])

    def test_path3_hand_solution(self):
        res = solve(path_graph(3), PATH3_LABELS, SolverConfig(method="poisson"))
        expected = np.array([[0.5, -0.5], [0.0, 0.0], [-0.5, 0.5]])
        np.testing.assert_allclose(res.u, expected, atol=1e-9)

    def test_source_zero_sum(self):
        ls = random_label_set(3, 25, 3, 2)
        y = ls.onehot_matrix()
        source = y - y.mean(axis=0)
        np.testing.assert_allclose(source.sum(axis=0), 0.0, atol=1e-12)

    def test_zero_weighted_mean(self):
        g = random_connected_graph(9, 25)
        ls = random_label_set(9, 25, 3, 2)
        res = solve(g, ls, SolverConfig(method="poisson"))
        np.testing.assert_allclose(weighted_mean(g, res.u), 0.0, atol=1e-8)

    def test_single_label_degenerates_to_zero_with_warning(self):
        g = triangle()
        ls = LabelSet(k=2, entries=((0, 0),))
        with pytest.warns(RuntimeWarning, match="source vanished"):
            res = solve(g, ls, SolverConfig(method="poisson"))
        assert res.converged
        np.testing.assert_array_equal(res.u, 0.0)

    def test_disconnected_graph_rejected(self):
        g = graph_from_edges(4, [0, 2], [1, 3])
        ls = LabelSet(k=2, entries=((0, 0), (2, 1)))
        with pytest.raises(IllPosedError, match="connected"):
            solve(g, ls, SolverConfig(method="poisson"))


class TestVLaplace:
    def test_lambda_zero_matches_laplace(self):
        g = random_connected_graph(21, 30)
        ls = random_label_set(21, 30, 3, 2)
        a = solve(g, ls, SolverConfig(lam=0.0, method="v_laplace"))
        b = solve(g, ls, SolverConfig(method="laplace"))
        np.testing.assert_allclose(a.u, b.u, atol=1e-8)

    def test_path3_matches_single_unknown_solve(self):
        # one unknown: (2 - lam*q1 + lam*q1*q1) u1 = 1 - lam*q1*(ql @ y)
        lam, q1, ql_y = 0.1, 0.5, 0.25
        expected = (1.0 - lam * q1 * ql_y) / (2.0 - lam * q1 + lam * q1 * q1)
        res = solve(path_graph(3), PATH3_LABELS, SolverConfig(lam=lam, method="v_laplace"))
        np.testing.assert_allclose(res.u[1], [expected, expected], atol=1e-8)
        oracle = dense_oracle_solve(path_graph(3), PATH3_LABELS, SolverConfig(lam=lam, method="v_laplace"))
        np.testing.assert_allclose(res.u, oracle.u, atol=1e-8)

    def test_stationarity_at_unlabeled_nodes(self):
        g = random_connected_graph(31, 28)
        ls = random_label_set(31, 28, 2, 2)
        cfg = SolverConfig(lam=0.1, method="v_laplace")
        res = solve(g, ls, cfg)
        assert res.converged
        unl = np.setdiff1d(np.arange(28), ls.nodes)
        ubar = weighted_mean(g, res.u)
        resid = laplacian_apply(g, res.u)[unl] - 0.1 * g.degree_weights[unl, None] * (
            res.u[unl] - ubar
        )
        assert np.abs(resid).max() <= 1e-6

    @pytest.mark.parametrize("lam", [0.01, 0.1])
    def test_objective_dominance_over_laplace(self, lam):
        for seed in range(20):
            g = random_connected_graph(seed + 300, 30)
            ls = random_label_set(seed, 30, 2, 2)
            cfg = SolverConfig(lam=lam, method="v_laplace")
            u_v = dense_oracle_solve(g, ls, cfg).u
            u_l = dense_oracle_solve(g, ls, SolverConfig(method="laplace")).u
            assert objective_value(g, u_v, lam) <= objective_value(g, u_l, lam) + 1e-8

    def test_huge_lambda_diverges(self):
        g = random_connected_graph(41, 20)
        ls = random_label_set(41, 20, 2, 2)
        with pytest.raises(DivergenceError):
            solve(g, ls, SolverConfig(lam=1e6, method="v_laplace"))

    def test_past_coupled_bound_diverges_by_curvature(self):
        # the coupled operator loses definiteness at ~55.1 while the Jacobi
        # diagonal stays positive (its minimum is ~0.86 at lam=60), so the
        # raise comes from the curvature test inside the PCG
        g = random_connected_graph(7000, 40)
        ls = random_label_set(0, 40, 2, 1)
        with pytest.raises(DivergenceError, match="negative curvature"):
            solve(g, ls, SolverConfig(method="v_laplace", lam=60.0))
        assert solve(g, ls, SolverConfig(method="v_laplace", lam=50.0)).converged

    def test_converges_below_dirichlet_bound(self):
        # lambda_min of (L_uu, diag q_u) is ~5.62 here, so L_uu - lam diag(q_u)
        # is definite at lam=4; the coupled operator stays definite up to ~55.1
        g = random_connected_graph(7000, 40)
        ls = random_label_set(0, 40, 2, 1)
        cfg = SolverConfig(method="v_laplace", lam=4.0)
        res = solve(g, ls, cfg)
        assert res.converged
        oracle = dense_oracle_solve(g, ls, cfg)
        assert np.abs(res.u - oracle.u).max() <= 1e-6


class TestVPoisson:
    def test_lambda_zero_matches_poisson(self):
        g = random_connected_graph(22, 30)
        ls = random_label_set(22, 30, 3, 2)
        a = solve(g, ls, SolverConfig(lam=0.0, method="v_poisson"))
        b = solve(g, ls, SolverConfig(method="poisson"))
        np.testing.assert_allclose(a.u, b.u, atol=1e-8)

    def test_k3_closed_form_lambda_03(self):
        # on the zero-mean subspace of K3, L acts as 3I and q = 1/3
        cfg = SolverConfig(lam=0.3, method="v_poisson")
        res = solve(triangle(), K3_LABELS, cfg)
        source = np.array([[0.5, -0.5], [-0.5, 0.5], [0.0, 0.0]])
        np.testing.assert_allclose(res.u, source / 2.9, atol=1e-10)

    def test_zero_weighted_mean(self):
        g = random_connected_graph(23, 30)
        ls = random_label_set(23, 30, 2, 2)
        res = solve(g, ls, SolverConfig(lam=0.1, method="v_poisson"))
        np.testing.assert_allclose(weighted_mean(g, res.u), 0.0, atol=1e-8)

    def test_variance_amplification(self):
        for seed in range(20):
            g = random_connected_graph(seed + 400, 30)
            ls = random_label_set(seed, 30, 2, 2)
            u0 = dense_oracle_solve(g, ls, SolverConfig(method="poisson")).u
            u1 = dense_oracle_solve(g, ls, SolverConfig(lam=0.1, method="v_poisson")).u
            assert variance(g, u1) >= variance(g, u0) - 1e-10

    def test_huge_lambda_diverges(self):
        g = random_connected_graph(42, 20)
        ls = random_label_set(42, 20, 2, 2)
        with pytest.raises(DivergenceError):
            solve(g, ls, SolverConfig(lam=1e6, method="v_poisson"))

    def test_moderately_unstable_lambda_diverges_by_curvature(self, silence_runtime_warnings):
        g = random_connected_graph(5, 30)
        ls = random_label_set(5, 30, 2, 2)
        with pytest.raises(DivergenceError):
            solve(g, ls, SolverConfig(lam=100.0, method="v_poisson"))


def dense_v_poisson_bound(g):
    """Exact v_poisson bound: the smallest lam at which L - lam diag(q) is
    singular on {q^T u = 0}, that is lambda_2 of the pencil (L, diag q)."""
    q = g.degree_weights
    N = null_space(q[None, :])
    L = g.laplacian_matrix().toarray()
    return 1.0 / eigh(N.T @ np.diag(q) @ N, N.T @ L @ N, eigvals_only=True)[-1]


class TestStabilityBound:
    @pytest.mark.parametrize("trial", range(0, 50, 5))
    def test_estimate_is_dense_lambda2(self, trial):
        g = random_connected_graph(1000 + trial, 20 + trial % 31)
        ratio = estimate_stability_limit(g) / dense_v_poisson_bound(g)
        assert 1.0 - 1e-9 <= ratio <= 1.01

    def test_unit_edge(self):
        assert estimate_stability_limit(path_graph(2)) == pytest.approx(4.0, rel=1e-12)

    def test_disconnected_graph_is_zero(self):
        g = graph_from_edges(6, [0, 0, 1, 3, 3, 4], [1, 2, 2, 4, 5, 5])
        assert estimate_stability_limit(g) == 0.0

    def test_v_poisson_warns_near_its_bound(self):
        g = random_connected_graph(24, 30)
        ls = random_label_set(24, 30, 2, 2)
        bound = dense_v_poisson_bound(g)
        cfg = SolverConfig(method="v_poisson")
        with pytest.warns(RuntimeWarning, match="stability bound"):
            res = solve(g, ls, replace(cfg, lam=0.95 * bound))
        assert res.converged
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert solve(g, ls, replace(cfg, lam=0.8 * bound)).converged

    def test_v_laplace_converges_below_estimate_without_warning(self):
        g = random_connected_graph(7000, 40)
        ls = random_label_set(0, 40, 2, 1)
        cfg = SolverConfig(method="v_laplace", lam=0.98 * estimate_stability_limit(g))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve(g, ls, cfg)
        assert res.converged
        assert np.abs(res.u - dense_oracle_solve(g, ls, cfg).u).max() <= 1e-6


class TestPredict:
    def test_strict_argmax(self):
        np.testing.assert_array_equal(predict(np.array([[0.2, 0.7, 0.1]])), [1])

    def test_tie_breaks_low(self):
        np.testing.assert_array_equal(predict(np.array([[0.5, 0.5]])), [0])

    def test_negative_scores(self):
        np.testing.assert_array_equal(predict(np.array([[-0.1, -0.2]])), [0])

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            predict(np.zeros((0, 2)))


class TestDenseOracle:
    def test_size_cap(self):
        g = random_connected_graph(61, 501, extra_edges=0)
        ls = random_label_set(61, 501, 2, 1)
        with pytest.raises(OracleSizeError):
            dense_oracle_solve(g, ls, SolverConfig(method="laplace"))

    def test_lambda_zero_v_methods_match_base(self):
        g = random_connected_graph(62, 25)
        ls = random_label_set(62, 25, 2, 2)
        for base, vmeth in (("laplace", "v_laplace"), ("poisson", "v_poisson")):
            a = dense_oracle_solve(g, ls, SolverConfig(lam=0.0, method=vmeth)).u
            b = dense_oracle_solve(g, ls, SolverConfig(method=base)).u
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_oracle_ill_posed_on_uncovered_component(self):
        g = graph_from_edges(4, [0, 2], [1, 3])
        ls = LabelSet(k=2, entries=((0, 0), (1, 1)))
        with pytest.raises(IllPosedError):
            dense_oracle_solve(g, ls, SolverConfig(method="laplace"))


class TestSharedProperties:
    def test_determinism_bitwise(self):
        g = random_connected_graph(71, 35)
        ls = random_label_set(71, 35, 3, 2)
        for method in ("laplace", "poisson", "v_laplace", "v_poisson"):
            cfg = SolverConfig(lam=0.05, method=method)
            r1 = solve(g, ls, cfg)
            r2 = solve(g, ls, cfg)
            assert np.array_equal(r1.u, r2.u)
            assert r1.iterations == r2.iterations
            assert r1.final_residual == r2.final_residual

    def test_cached_graph_invariants_survive_solves(self):
        # every solve reads the Laplacian and component labels a graph caches,
        # so none of them may write into those arrays
        g = random_connected_graph(61, 30)
        ls = random_label_set(61, 30, 2, 2)
        L = g.laplacian_matrix()
        for lam in (0.0, 5.0):
            for method in ("laplace", "poisson", "v_laplace", "v_poisson"):
                solve(g, ls, SolverConfig(lam=lam, method=method))
        assert g.laplacian_matrix() is L
        assert (L - (sparse.diags(g.degrees) - g.adjacency)).count_nonzero() == 0
        ncomp, comp = csgraph.connected_components(g.adjacency, directed=False)
        assert g.components[0] == ncomp
        assert np.array_equal(g.components[1], comp)
        coo = g.adjacency.tocoo()
        twin = graph_from_edges(g.n, coo.row, coo.col, coo.data)
        assert twin.laplacian_matrix() is not L

    @pytest.mark.parametrize("method", ["laplace", "poisson", "v_poisson"])
    def test_permutation_equivariance(self, method):
        n = 24
        g = random_connected_graph(81, n)
        ls = random_label_set(81, n, 2, 2)
        cfg = SolverConfig(lam=0.05, method=method)
        base = solve(g, ls, cfg).u

        rng = np.random.Generator(np.random.Philox(81))
        perm = rng.permutation(n)
        coo = g.adjacency.tocoo()
        keep = coo.row < coo.col
        g_p = graph_from_edges(n, perm[coo.row[keep]], perm[coo.col[keep]], coo.data[keep])
        ls_p = LabelSet(k=ls.k, entries=tuple((int(perm[i]), c) for i, c in ls.entries))
        permuted = solve(g_p, ls_p, cfg).u
        np.testing.assert_allclose(permuted[perm], base, atol=1e-9)

    def test_converged_implies_residual_below_tol(self):
        # the residual is recomputed from public operators only, so a fault
        # in the system assembly that solve and the oracle share shows here
        g = random_connected_graph(91, 30)
        ls = random_label_set(91, 30, 2, 2)
        q = g.degree_weights
        y = ls.onehot_matrix()
        free = np.ones(g.n, dtype=bool)
        free[ls.nodes] = False
        for lam in (0.05, 5.0):
            for method in ("laplace", "poisson", "v_laplace", "v_poisson"):
                cfg = SolverConfig(lam=lam, method=method)
                res = solve(g, ls, cfg)
                assert res.converged
                assert res.final_residual <= cfg.tol
                assert np.all(np.isfinite(res.u))
                u = res.u
                shift = lam if method.startswith("v_") else 0.0
                lu = laplacian_apply(g, u)
                if method in ("laplace", "v_laplace"):
                    clamped = np.zeros_like(u)
                    clamped[ls.nodes] = y
                    r = lu[free] - shift * q[free, None] * (u[free] - q @ u)
                    scale = np.linalg.norm(laplacian_apply(g, clamped)[free])
                    assert np.abs(u[ls.nodes] - y).max() == 0.0
                else:
                    source = np.zeros_like(u)
                    source[ls.nodes] = y - y.mean(axis=0)
                    raw = source - (lu - shift * q[:, None] * u)
                    r = raw - q[:, None] * raw.sum(axis=0)
                    scale = np.linalg.norm(source)
                    assert np.linalg.norm(q @ u) <= 1e-12 * np.linalg.norm(u)
                assert np.linalg.norm(r) / scale <= 100 * cfg.tol, (lam, method)


class TestGradientCheck:
    def test_analytic_gradient_matches_central_differences(self):
        step = 1e-5
        for seed in range(20):
            n = 8 + (seed % 13)
            g = random_connected_graph(seed + 500, n)
            ls = random_label_set(seed, n, 2, 1)
            rng = np.random.Generator(np.random.Philox(seed + 900))
            u = rng.normal(size=(n, 2))
            u[ls.nodes] = ls.onehot_matrix()
            lam = 0.1
            unl = np.setdiff1d(np.arange(n), ls.nodes)
            ubar = weighted_mean(g, u)
            analytic = 2.0 * laplacian_apply(g, u)[unl] - 2.0 * lam * g.degree_weights[
                unl, None
            ] * (u[unl] - ubar)
            fd = np.zeros_like(analytic)
            for row, i in enumerate(unl):
                for c in range(2):
                    up = u.copy()
                    up[i, c] += step
                    down = u.copy()
                    down[i, c] -= step
                    fd[row, c] = (
                        objective_value(g, up, lam) - objective_value(g, down, lam)
                    ) / (2 * step)
            denom = max(np.linalg.norm(fd), 1e-12)
            assert np.linalg.norm(fd - analytic) / denom <= 1e-4
