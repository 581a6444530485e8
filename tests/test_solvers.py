import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigh, null_space
from scipy.sparse import csgraph
from scipy.sparse.linalg import cg as sparse_cg

from helpers import dense_reference, random_connected_graph, random_label_set
from varprop import (
    METHODS,
    Dataset,
    LabelSet,
    SolverConfig,
    build_knn_graph,
    derive_trial_seed,
    estimate_stability_limit,
    graph_from_edges,
    laplacian_apply,
    make_cluster_dataset,
    objective_value,
    predict,
    sample_label_set,
    solve,
    solvers,
    variance,
    weighted_mean,
)
from varprop.continuum import path_graph
from varprop.errors import (
    DivergenceError,
    IllPosedError,
    InvalidInputError,
    InvalidParameterError,
)


def triangle():
    return graph_from_edges(3, [0, 0, 1], [1, 2, 2])


PATH3_LABELS = LabelSet(k=2, entries=((0, 0), (2, 1)))
K3_LABELS = LabelSet(k=2, entries=((0, 0), (1, 1)))


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lam=-0.1), dict(tol=0.0), dict(max_iter=0), dict(method="jacobi"),
            # a float cap, even a whole one, would fail later inside the PCG
            dict(max_iter=10.0), dict(max_iter=2.5), dict(max_iter=float("nan")),
            dict(lam=float("nan")), dict(lam=float("inf")),
            dict(tol=float("nan")), dict(tol=float("inf")),
            # below what double precision can reach
            dict(tol=1e-17), dict(tol=0.5 * np.finfo(float).eps),
            # a bool is not a count or a weight, though Python counts it as 1
            dict(max_iter=True), dict(lam=True),
            # not a number at all
            dict(lam="0.1"), dict(lam=None),
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
        assert res.converged and res.iterations == 0 and res.final_residual == 0.0
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
        np.testing.assert_allclose(res.u, dense_reference(g, ls, "laplace", 0.0), atol=1e-9)

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
        """Relative residual of ``u`` in ``cfg.method``'s system, from laplacian_apply.

        The solved system has the first k - 1 class columns; the last one
        follows from the known row sum."""
        u, y = u[:, :-1], ls.onehot_matrix()[:, :-1]
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
        # block CG's m-th iterate on the first k - 1 columns B is the Galerkin
        # solution over the block Krylov space span{M^-1 B, (M^-1 A) M^-1 B, ...}
        # of m blocks, with M^-1 = D^-1 (s - A D^-1); the last column is 1
        # minus their sum
        g, ls = problem
        cfg = SolverConfig(method="laplace", max_iter=max_iter)
        res = solve(g, ls, cfg)
        unlabeled = np.setdiff1d(np.arange(g.n), ls.nodes)
        L = g.laplacian_matrix()
        A = L[unlabeled][:, unlabeled].toarray()
        rhs = -(L[unlabeled][:, ls.nodes] @ ls.onehot_matrix()[:, :-1])
        d = np.diag(A)[:, None]
        s = solvers._assemble(g, ls, cfg).shift

        def precondition(v):
            return (s * v - A @ (v / d)) / d

        newest = basis = np.linalg.qr(precondition(rhs))[0]
        for _ in range(max_iter - 1):
            fresh = precondition(A @ newest)
            for _ in range(2):
                fresh -= basis @ (basis.T @ fresh)
            newest = np.linalg.qr(fresh)[0]
            basis = np.hstack([basis, newest])
        ref = basis @ np.linalg.solve(basis.T @ A @ basis, basis.T @ rhs)
        ref = np.column_stack([ref, 1.0 - ref.sum(axis=1)])
        np.testing.assert_allclose(res.u[unlabeled], ref, rtol=1e-10, atol=1e-12)


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
        reference = dense_reference(path_graph(3), PATH3_LABELS, "v_laplace", lam)
        np.testing.assert_allclose(res.u, reference, atol=1e-8)

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
            u_v = dense_reference(g, ls, "v_laplace", lam)
            u_l = dense_reference(g, ls, "laplace", 0.0)
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
        assert np.abs(res.u - dense_reference(g, ls, "v_laplace", cfg.lam)).max() <= 1e-6


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
            u0 = dense_reference(g, ls, "poisson", 0.0)
            u1 = dense_reference(g, ls, "v_poisson", 0.1)
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
    @pytest.mark.parametrize(
        "seed, n",
        [pytest.param(1000 + trial, 20 + trial % 31, id=str(trial)) for trial in range(0, 50, 5)]
        # 400-node draws with lambda_3 close above lambda_2 (2.7% on draw
        # 1203): a run that stops before its lowest Ritz pair has converged
        # can return a value between them
        + [pytest.param(seed, 400, id=str(seed)) for seed in range(1200, 1210)],
    )
    def test_estimate_is_dense_lambda2(self, seed, n):
        g = random_connected_graph(seed, n)
        ratio = estimate_stability_limit(g) / dense_v_poisson_bound(g)
        # a Ritz value lies above lambda_2, up to rounding
        assert 1.0 - 1e-9 <= ratio <= 1.0 + 1e-6

    @pytest.mark.parametrize("seed", range(1200, 1210))
    def test_v_poisson_converges_just_below_estimate(self, seed):
        # an estimate 1% high would put 0.99 times it past lambda_2, where
        # v_poisson diverges
        g = random_connected_graph(seed, 400)
        cfg = SolverConfig(method="v_poisson", lam=0.99 * estimate_stability_limit(g))
        with pytest.warns(RuntimeWarning, match="stability bound"):
            res = solve(g, random_label_set(0, 400, 4, 2), cfg)
        assert res.converged

    def test_unit_edge(self):
        assert estimate_stability_limit(path_graph(2)) == pytest.approx(4.0, rel=1e-12)
        # unit path graphs: lambda_2 of (L, diag q) is 2(n-1)(1 - cos(pi/(n-1)))
        for n in (2, 16, 128, 1309, 2201):
            closed = 2 * (n - 1) * (1 - np.cos(np.pi / (n - 1)))
            assert estimate_stability_limit(path_graph(n)) == pytest.approx(closed, rel=1e-8)

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

    @pytest.fixture
    def estimates(self, monkeypatch):
        """Graphs passed to ``estimate_stability_limit``, counted through the solvers module."""
        seen = []
        estimate = solvers.estimate_stability_limit

        def counted(g):
            seen.append(g)
            return estimate(g)

        monkeypatch.setattr(solvers, "estimate_stability_limit", counted)
        return seen

    def test_lambda2_computed_once_per_graph(self, estimates):
        g = random_connected_graph(25, 30)
        for seed in range(4):
            ls = random_label_set(seed, 30, 3, 2)
            for lam in (0.05, 1.0, 3.0):
                solve(g, ls, SolverConfig(method="v_poisson", lam=lam))
        assert estimates == [g]
        twin = random_connected_graph(25, 30)
        solve(twin, random_label_set(0, 30, 3, 2), SolverConfig(method="v_poisson", lam=1.0))
        assert estimates == [g, twin]

    def test_lambda2_not_computed_without_variance_weight_on_poisson(self, estimates):
        g = random_connected_graph(26, 30)
        ls = random_label_set(26, 30, 3, 2)
        for method in ("laplace", "poisson", "v_laplace"):
            solve(g, ls, SolverConfig(method=method, lam=1.0))
        solve(g, ls, SolverConfig(method="v_poisson", lam=0.0))
        assert estimates == []

    def test_v_laplace_converges_below_estimate_without_warning(self):
        g = random_connected_graph(7000, 40)
        ls = random_label_set(0, 40, 2, 1)
        cfg = SolverConfig(method="v_laplace", lam=0.98 * estimate_stability_limit(g))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve(g, ls, cfg)
        assert res.converged
        assert np.abs(res.u - dense_reference(g, ls, "v_laplace", cfg.lam)).max() <= 1e-6


class TestBlockPCG:
    """The k class columns share one block iteration, whose rank-deficient
    blocks (dependent or zero columns) must still give the dense reference's answer."""

    @pytest.mark.parametrize("method", ["poisson", "v_poisson"])
    def test_two_class_sources_are_negatives(self, method):
        g = random_connected_graph(31, 40)
        ls = random_label_set(31, 40, 2, 2)
        cfg = SolverConfig(method=method, lam=0.5)
        # the two source columns are negatives of each other: a rank-one block
        res = solve(g, ls, cfg)
        assert res.converged
        np.testing.assert_allclose(res.u[:, 0], -res.u[:, 1], atol=1e-12)
        np.testing.assert_allclose(res.u, dense_reference(g, ls, method, cfg.lam), atol=1e-6)

    def test_zero_right_hand_side_column(self):
        # node 30 (class 0) hangs off node 0 (class 1), so no unlabeled node
        # touches class 0 and its right-hand-side column is zero
        base = random_connected_graph(32, 30)
        coo = base.adjacency.tocoo()
        keep = coo.row < coo.col
        g = graph_from_edges(31, np.append(coo.row[keep], 30), np.append(coo.col[keep], 0),
                             np.append(coo.data[keep], 1.0))
        ls = LabelSet(k=3, entries=((30, 0), (0, 1), (7, 1), (12, 2), (21, 2)))
        cfg = SolverConfig(method="laplace")
        res = solve(g, ls, cfg)
        assert res.converged
        unlabeled = np.setdiff1d(np.arange(g.n), ls.nodes)
        assert np.abs(res.u[unlabeled, 0]).max() <= 1e-12
        np.testing.assert_allclose(res.u, dense_reference(g, ls, "laplace", 0.0), atol=1e-6)

    @pytest.mark.parametrize("method", ["laplace", "v_laplace"])
    def test_single_class(self, method):
        g = random_connected_graph(33, 30)
        ls = LabelSet(k=1, entries=((3, 0), (17, 0)))
        cfg = SolverConfig(method=method, lam=0.5)
        res = solve(g, ls, cfg)
        assert res.converged
        np.testing.assert_allclose(res.u, dense_reference(g, ls, method, cfg.lam), atol=1e-6)
        np.testing.assert_allclose(res.u, 1.0, atol=1e-6)

    def test_block_without_positive_curvature_raises(self):
        # diag(1, 0) has no positive curvature along the right-hand side (0, 1)
        A = sparse.csr_array(np.diag([1.0, 0.0]))
        b = np.array([[0.0], [1.0]])
        with pytest.raises(DivergenceError, match="no search direction of positive curvature"):
            solvers._pcg(lambda v: A @ v, lambda r: 2.1 * r - A @ r, b, 1e-8, 10)

    @pytest.fixture(scope="class")
    def clusters(self):
        """A 600-node cluster graph with the first node of each of its 10 classes labeled."""
        X, y = make_cluster_dataset(n_samples=600, n_classes=10)
        first = [int(np.flatnonzero(y == c)[0]) for c in range(10)]
        return build_knn_graph(X, 10), LabelSet(k=10, entries=tuple((i, c) for c, i in enumerate(first)))

    @pytest.mark.parametrize("method", ["poisson", "v_poisson"])
    def test_dependent_column_adds_no_step(self, clusters, method):
        # a poisson source's columns sum to zero, so its last column adds
        # nothing to the block Krylov space; a kept roundoff-level
        # eigenvalue of W^T A W would cost extra steps here
        g, ls = clusters
        system = solvers._assemble(g, ls, SolverConfig(method=method, lam=5.0))
        # the system holds the first k - 1 source columns; the last is minus their sum
        source = np.column_stack([system.rhs, -system.rhs.sum(axis=1)])
        full = solvers._pcg(system.matvec, system.precondition, source, 1e-8, 1000)
        reduced = solvers._pcg(system.matvec, system.precondition, system.rhs, 1e-8, 1000)
        assert full[1] == reduced[1]
        np.testing.assert_allclose(full[0][:, :-1], reduced[0], rtol=0, atol=1e-12)

    def test_fortran_ordered_right_hand_side(self, clusters):
        # the in-place BLAS updates write only into C-ordered blocks, so _pcg
        # builds its own whatever the layout of b
        g, ls = clusters
        system = solvers._assemble(g, ls, SolverConfig(method="v_laplace", lam=5.0))
        args = system.matvec, system.precondition
        c_order = solvers._pcg(*args, system.rhs, 1e-8, 1000)
        f_order = solvers._pcg(*args, np.asfortranarray(system.rhs), 1e-8, 1000)
        assert f_order[3] and f_order[1] == c_order[1]
        np.testing.assert_array_equal(f_order[0], c_order[0])

    def test_fewer_iterations_than_any_column_alone(self, clusters):
        g, ls = clusters
        cfg = SolverConfig(method="laplace")
        res = solve(g, ls, cfg)
        assert res.converged
        unlabeled = np.setdiff1d(np.arange(g.n), ls.nodes)
        L = g.laplacian_matrix()
        A = L[unlabeled][:, unlabeled]
        rhs = -(L[unlabeled][:, ls.nodes] @ ls.onehot_matrix())
        jacobi = sparse.diags_array(1.0 / A.diagonal())
        counts = []
        for c in range(ls.k):
            steps = []
            _, info = sparse_cg(A, rhs[:, c], rtol=cfg.tol, M=jacobi, callback=steps.append)
            assert info == 0
            counts.append(len(steps))
        assert res.iterations < max(counts)


class TestFullLengthSystem:
    """Each method solves one full-length system on the graph's Laplacian:
    the poisson family with no projection, on a positive semidefinite
    operator whose range holds the source, and all methods on k - 1 class
    columns, the last recovered from the known row sum."""

    # block steps at (poisson, v_poisson) x (tol 1e-15, 2.3e-16) of the
    # k-column iteration that projected every step onto q^T u = 0
    PROJECTED_STEPS = {
        1200: (41, 42, 41, 42),
        1201: (41, 42, 41, 42),
        1202: (40, 42, 40, 42),
        1203: (42, 43, 41, 43),
        1204: (40, 42, 40, 42),
    }

    @pytest.mark.parametrize("seed", sorted(PROJECTED_STEPS))
    def test_poisson_family_converges_at_tight_tolerances(self, seed):
        g = random_connected_graph(seed, 400)
        ls = random_label_set(seed, 400, 4, 2)
        cases = [(method, tol) for method in ("poisson", "v_poisson") for tol in (1e-15, 2.3e-16)]
        for (method, tol), steps in zip(cases, self.PROJECTED_STEPS[seed]):
            cfg = SolverConfig(method=method, lam=0.1, tol=tol)
            res = solve(g, ls, cfg)
            assert res.converged and res.iterations <= steps, (method, tol, res.iterations)
            reference = dense_reference(g, ls, method, cfg.lam)
            np.testing.assert_allclose(res.u, reference, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("seed", sorted(PROJECTED_STEPS))
    def test_v_poisson_near_its_bound_matches_oracle(self, seed):
        # at 0.99 lambda_2 the operator's least nonzero eigenvalue is small,
        # and its null space 1 is still the only one
        g = random_connected_graph(seed, 400)
        ls = random_label_set(seed, 400, 4, 2)
        cfg = SolverConfig(method="v_poisson", lam=0.99 * dense_v_poisson_bound(g))
        with pytest.warns(RuntimeWarning, match="stability bound"):
            res = solve(g, ls, cfg)
        assert res.converged
        reference = dense_reference(g, ls, "v_poisson", cfg.lam)
        assert np.abs(res.u - reference).max() <= 1e-8 * np.abs(reference).max()

    @pytest.mark.parametrize(
        "n, method, frac, tol",
        [
            (301, "poisson", 0.0, 1e-12),
            (301, "v_poisson", 0.3, 1e-12),
            (129, "v_poisson", 0.5, 1e-12),
            (64, "v_poisson", 0.5, 1e-12),
            (100, "v_poisson", 0.3, 1e-10),
            (200, "v_poisson", 0.85, 1e-12),
        ],
    )
    def test_poisson_family_converges_at_tight_tolerance(self, n, method, frac, tol):
        # on a path the block's two columns drift into near dependence;
        # without the centered orthonormal basis these solves took thousands
        # of steps (3259 at n = 301 under the polynomial preconditioner, 2934
        # at n = 200 under Jacobi) or raised DivergenceError, and without the
        # centering alone v_poisson at n = 301 took 1261
        g = path_graph(n)
        ls = LabelSet(k=3, entries=((0, 0), (n // 3, 1), (n - 1, 2)))
        cfg = SolverConfig(method=method, lam=frac * estimate_stability_limit(g), tol=tol)
        res = solve(g, ls, cfg)
        assert res.converged and res.iterations <= 3 * n, res.iterations
        reference = dense_reference(g, ls, method, cfg.lam)
        assert np.abs(res.u - reference).max() <= 1e-10 * np.abs(reference).max()

    @pytest.mark.parametrize("n", [16, 65, 200])
    @pytest.mark.parametrize("method", ["laplace", "poisson", "v_poisson"])
    def test_preconditioner_definite_where_gershgorin_is_tight(self, method, n):
        # the path graph is bipartite, so lambda_max(D^-1 L) = 2, the
        # Gershgorin bound s / 1.05 itself; only the shift's 5% margin keeps
        # D^-1 (s - A D^-1) positive definite
        g = path_graph(n)
        ls = LabelSet(k=3, entries=((0, 0), (n // 3, 1), (n - 1, 2)))
        cfg = SolverConfig(method=method, lam=0.5 * estimate_stability_limit(g), tol=1e-12)
        system = solvers._assemble(g, ls, cfg)
        free = np.setdiff1d(np.arange(n), ls.nodes) if system.labeled is not None else np.arange(n)
        d = np.sqrt(system.diagonal[free])
        mu = np.linalg.eigvalsh(system.matvec(np.eye(n))[np.ix_(free, free)] / np.outer(d, d))[-1]
        assert mu <= system.shift / 1.05 * (1 + 1e-12)
        if method == "poisson":
            assert mu == pytest.approx(system.shift / 1.05, rel=1e-12)
        res = solve(g, ls, cfg)
        assert res.converged
        np.testing.assert_allclose(res.u, dense_reference(g, ls, method, cfg.lam), rtol=0, atol=1e-8)

    @pytest.mark.parametrize("method", ["laplace", "v_laplace"])
    def test_clamped_rhs_from_labeled_rows(self, method):
        # -(L[il]^T y) is the full product -(L @ clamped), since L is
        # symmetric and the clamped matrix vanishes off the labeled rows
        g = random_connected_graph(93, 200)
        ls = random_label_set(93, 200, 4, 3)
        cfg = SolverConfig(method=method, lam=5.0)
        system = solvers._assemble(g, ls, cfg)
        y, q = ls.onehot_matrix()[:, :-1], g.degree_weights
        clamped = np.zeros((g.n, ls.k - 1))
        clamped[ls.nodes] = y
        rhs = -(g.laplacian_matrix() @ clamped)
        rhs -= cfg.variance_weight * np.outer(system.c, q[ls.nodes] @ y)
        rhs[ls.nodes] = 0.0
        np.testing.assert_allclose(system.rhs, rhs, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("max_iter", [2, 10000])
    @pytest.mark.parametrize("method", ["laplace", "poisson", "v_laplace", "v_poisson"])
    def test_full_residual_within_sqrt_k_of_final_residual(self, method, max_iter):
        # the last column's residual is minus the sum of the other k - 1, so
        # the k-column residual, recomputed from public operators, is at most
        # sqrt(k) times the (k - 1)-column one that final_residual reports
        g = random_connected_graph(92, 60)
        ls = random_label_set(92, 60, 4, 2)
        cfg = SolverConfig(method=method, lam=5.0, max_iter=max_iter)
        res = solve(g, ls, cfg)
        assert res.converged is (max_iter > 2)
        if res.converged:
            assert res.final_residual <= cfg.tol
        u, q, y = res.u, g.degree_weights[:, None], ls.onehot_matrix()
        lam = cfg.variance_weight
        lu = laplacian_apply(g, u)
        if method in ("laplace", "v_laplace"):
            free = np.ones(g.n, dtype=bool)
            free[ls.nodes] = False
            clamped = np.zeros_like(u)
            clamped[ls.nodes] = y
            b = -(laplacian_apply(g, clamped) + lam * q * (q.T @ clamped))[free]
            r = (lam * q * (u - q.T @ u) - lu)[free]
        else:
            b = np.zeros_like(u)
            b[ls.nodes] = y - y.mean(axis=0)
            r = b - lu + lam * q * (u - q.T @ u)
        full = np.linalg.norm(r) / np.linalg.norm(b)
        assert full <= np.sqrt(ls.k) * res.final_residual + 1e-12


@pytest.fixture(scope="module")
def desk_graph():
    """The desk data, 2000 samples in 10 classes, on its 10-NN graph."""
    X, y = make_cluster_dataset(n_samples=2000, n_classes=10)
    return Dataset(name="desk", k=10, true_labels=y, graph=build_knn_graph(X, 10))


class TestAssembledOperators:
    @pytest.mark.parametrize("lam", [0.0, 5.0])
    @pytest.mark.parametrize("method", METHODS)
    def test_preconditioner_is_the_polynomial_in_the_operator(self, method, lam):
        # D^-1 (s r - (A + lam c c^T) D^-1 r), from the sparse M and the
        # rank-one term, on a block that is zero at the labeled rows
        g = random_connected_graph(93, 200)
        ls = random_label_set(93, 200, 4, 3)
        system = solvers._assemble(g, ls, SolverConfig(method=method, lam=lam))
        r = np.random.Generator(np.random.Philox(93)).normal(size=(g.n, 3))
        if system.labeled is not None:
            r[system.labeled] = 0.0
            assert not system.A[system.labeled].toarray().any()
        d = system.diagonal[:, None]
        expected = system.shift * r / d - system.matvec(r / d) / d
        got = system.precondition(r)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("lam", [0.0, 5.0])
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("case", ["random", "desk1", "desk5"])
    def test_operators_match_per_value_row_reference(self, desk_graph, case, method, lam):
        # A and M, bitwise, against a build from an explicit row for every
        # stored value: np.isin finds the clamped rows, a gather the row scales
        if case == "random":
            g, ls = random_connected_graph(93, 200), random_label_set(93, 200, 4, 3)
        else:
            g = desk_graph.graph
            ls = sample_label_set(desk_graph, int(case[-1]), derive_trial_seed(11, 0))
        cfg = SolverConfig(method=method, lam=lam)
        system = solvers._assemble(g, ls, cfg)
        L, lam = g.laplacian_matrix(), cfg.variance_weight
        rows = np.repeat(np.arange(g.n), np.diff(L.indptr))
        diag = np.flatnonzero(L.indices == rows)
        c = g.degree_weights.copy()
        values = L.data.copy()
        if method in ("laplace", "v_laplace"):
            c[ls.nodes] = 0.0
        values[diag] -= lam * c
        diagonal = values[diag] + lam * c**2
        if method in ("laplace", "v_laplace"):
            values[np.isin(rows, ls.nodes)] = 0.0
        m = -values / (diagonal[rows] * diagonal[L.indices])
        m[diag] += system.shift / diagonal
        assert system.A.data.tobytes() == values.tobytes()
        assert system.diagonal.tobytes() == diagonal.tobytes()
        assert system.M.data.tobytes() == m.tobytes()
        for op in (system.A, system.M):
            assert np.array_equal(op.indices, L.indices) and np.array_equal(op.indptr, L.indptr)

    def test_stream_schedule_takes_at_most_11_steps(self):
        # the (method, lam, labels per class) schedule of perfbench's
        # solve_stream workload, on its desk graph and seed-1 label sets
        schedule = (
            [("laplace", 0.1, 1), ("laplace", 0.1, 5), ("poisson", 0.1, 1), ("poisson", 0.1, 5)]
            + [("v_laplace", lam, m) for lam, m in ((0.1, 1), (0.1, 5), (5, 1), (5, 5), (20, 5), (40, 5))]
            + [("v_poisson", lam, m) for lam in (0.1, 5, 20, 40) for m in (1, 5)]
        )
        assert len(schedule) == 18
        X, y = make_cluster_dataset(n_samples=2000, n_classes=10)
        ds = Dataset(name="desk", k=10, true_labels=y, graph=build_knn_graph(X, 10))
        steps = []
        for index, (method, lam, m) in enumerate(2 * schedule):
            labels = sample_label_set(ds, m, derive_trial_seed(1, index))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # v_poisson near its bound
                res = solve(ds.graph, labels, SolverConfig(method=method, lam=lam))
            assert res.converged
            steps.append(res.iterations)
        assert max(steps) <= 11, steps


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


class TestDenseReference:
    """The test suite's dense reference reproduces the hand solutions."""

    @pytest.mark.parametrize(
        "g, ls, method, lam, expected",
        [
            (path_graph(4), LabelSet(k=2, entries=((0, 0), (3, 1))), "laplace", 0.0,
             [[1, 0], [2 / 3, 1 / 3], [1 / 3, 2 / 3], [0, 1]]),
            # one unknown: (2 - lam*q1 + lam*q1*q1) u1 = 1 - lam*q1*(ql @ y), at lam 0.1
            (path_graph(3), PATH3_LABELS, "v_laplace", 0.1,
             [[1, 0], [0.9875 / 1.975] * 2, [0, 1]]),
            (path_graph(3), PATH3_LABELS, "poisson", 0.0, [[0.5, -0.5], [0, 0], [-0.5, 0.5]]),
            (triangle(), K3_LABELS, "poisson", 0.0, [[1 / 6, -1 / 6], [-1 / 6, 1 / 6], [0, 0]]),
            # on the zero-mean subspace of K3, L acts as 3I and q = 1/3
            (triangle(), K3_LABELS, "v_poisson", 0.3, [[0.5 / 2.9, -0.5 / 2.9],
                                                      [-0.5 / 2.9, 0.5 / 2.9], [0, 0]]),
        ],
        ids=["path4-laplace", "path3-v_laplace", "path3-poisson", "k3-poisson", "k3-v_poisson"],
    )
    def test_hand_solutions(self, g, ls, method, lam, expected):
        np.testing.assert_allclose(dense_reference(g, ls, method, lam), expected, rtol=0, atol=1e-14)


class TestInvariants:
    """Metamorphic relations (Chen, Cheung & Yiu 1998): transformed inputs
    whose solutions are known transforms of the original one.  Each bound
    is a measured figure with its headroom stated beside it."""

    @staticmethod
    def scaled(g, scale):
        """``g`` with every edge weight times ``scale``."""
        coo = g.adjacency.tocoo()
        keep = coo.row < coo.col
        return graph_from_edges(g.n, coo.row[keep], coo.col[keep], scale * coo.data[keep])

    @pytest.mark.parametrize("method", METHODS)
    def test_class_relabeling(self, desk_graph, method, silence_runtime_warnings):
        # shifting class c to c + 1 (mod k) shifts u's columns; a different
        # set of k - 1 columns is solved, so u moves within the solve's
        # error: up to 8.6e-9 over 240 desk solves at the default tol, v_*
        # at 0.9 lambda_2, bounded here with about 10x headroom
        g = desk_graph.graph
        lam = 0.9 * estimate_stability_limit(g)
        for m in (1, 2, 5):
            ls = sample_label_set(desk_graph, m, derive_trial_seed(11, m))
            shifted = LabelSet(k=ls.k, entries=tuple((i, (c + 1) % ls.k) for i, c in ls.entries))
            cfg = SolverConfig(method=method, lam=lam)
            u = solve(g, ls, cfg).u
            assert np.abs(solve(g, shifted, cfg).u - np.roll(u, 1, axis=1)).max() <= 1e-7, m

    @pytest.mark.parametrize("seed", [94, 95])
    def test_weight_scaling_scales_lambda2(self, seed):
        # L scales by c and q does not: 1.4e-15 measured, 1e-13 bound
        g = random_connected_graph(seed, 200)
        scale = 7.3
        bound = estimate_stability_limit(self.scaled(g, scale))
        assert bound == pytest.approx(scale * estimate_stability_limit(g), rel=1e-13)

    @pytest.mark.parametrize("frac", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("seed", [94, 95])
    def test_weight_scaling(self, seed, method, frac, silence_runtime_warnings):
        # weights times c with lam times c: the clamped family's u is
        # unchanged and the poisson family's scales by 1/c.  The Jacobi-scaled
        # preconditioned operator is unchanged, so the step counts are equal.
        # Measured within 1.8e-14 relative; bounded at 1e-12
        g = random_connected_graph(seed, 200)
        ls = random_label_set(seed, 200, 4, 2)
        scale = 7.3
        lam = frac * estimate_stability_limit(g)
        res = solve(g, ls, SolverConfig(method=method, lam=lam))
        res_c = solve(self.scaled(g, scale), ls, SolverConfig(method=method, lam=scale * lam))
        assert res.converged and res_c.converged
        assert res_c.iterations == res.iterations
        expected = res.u if method in ("laplace", "v_laplace") else res.u / scale
        assert np.abs(res_c.u - expected).max() <= 1e-12 * np.abs(expected).max()


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

    @pytest.mark.parametrize("method", METHODS)
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
        # in the system assembly shows here even where no reference is run
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
