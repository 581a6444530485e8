"""Shared fixtures: seeded random graphs, label draws, and brute-force and dense references."""

import numpy as np

from varprop import Graph, LabelSet, graph_from_edges


def random_connected_graph(seed, n, extra_edges=None, wmin=0.5, wmax=1.0) -> Graph:
    """Random spanning tree plus extra edges; connected by construction."""
    rng = np.random.Generator(np.random.Philox(seed))
    src, dst = [], []
    for i in range(1, n):
        src.append(i)
        dst.append(int(rng.integers(0, i)))
    extra = 2 * n if extra_edges is None else extra_edges
    a = rng.integers(0, n, size=extra)
    b = rng.integers(0, n, size=extra)
    for i, j in zip(a, b):
        if i != j:
            src.append(int(i))
            dst.append(int(j))
    weights = rng.uniform(wmin, wmax, size=len(src))
    return graph_from_edges(n, src, dst, weights)


def random_label_set(seed, n, k, per_class) -> LabelSet:
    """per_class labeled nodes for each of k classes, drawn without replacement."""
    rng = np.random.Generator(np.random.Philox(seed + 10_000))
    nodes = rng.choice(n, size=k * per_class, replace=False)
    return LabelSet(k=k, entries=tuple((int(node), i % k) for i, node in enumerate(nodes)))


def brute_force_knn_weights(points, k) -> np.ndarray:
    """All-pairs reference for the self-tuning k-NN weights (dense, O(n^2))."""
    X = np.asarray(points, dtype=np.float64)
    n = X.shape[0]
    diff = X[:, None, :] - X[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    order = np.argsort(dist + np.where(np.eye(n, dtype=bool), np.inf, 0.0), axis=1, kind="stable")
    neighbors = order[:, :k]
    sigma = dist[np.arange(n), neighbors[:, -1]].copy()
    if np.any(sigma == 0):
        positive = sigma[sigma > 0]
        sigma[sigma == 0] = positive.min() if positive.size else 1.0
    W = np.zeros((n, n))
    for i in range(n):
        for j in neighbors[i]:
            W[i, j] = np.exp(-dist[i, j] ** 2 / (sigma[i] * sigma[j]))
    return np.maximum(W, W.T)


def brute_force_objective(g: Graph, u, lam) -> float:
    """Ordered-pair edge loop for the smoothness-minus-variance objective."""
    u = np.atleast_2d(np.asarray(u, dtype=np.float64).T).T
    coo = g.adjacency.tocoo()
    smooth = 0.0
    for i, j, w in zip(coo.row, coo.col, coo.data):
        d = u[i] - u[j]
        smooth += w * 0.5 * float(d @ d)
    q = g.degree_weights
    ubar = q @ u
    var = float(q @ np.einsum("ij,ij->i", u - ubar, u - ubar))
    return smooth - lam * var


def dense_reference(g: Graph, labels: LabelSet, method, lam) -> np.ndarray:
    """The (n, k) scores of ``method`` from its defining equations, by a dense solve.

    Built from ``g.adjacency`` alone, as L = D - W with q = d / sum(d), and
    all k class columns are solved.  ``lam`` weighs the variance term of
    the v_* methods and is ignored by laplace and poisson.  The clamped
    family fixes u = y on the labeled rows and solves the stationarity
    L_uu u - lam q_u (u - ubar) = -L_ul y with ubar = q_u^T u + q_l^T y,

        (L_uu - lam diag q_u + lam q_u q_u^T) u_u = -L_ul y - lam q_u (q_l^T y).

    The poisson family solves (L - lam diag q) u = s under q^T u = 0, as
    the bordered system [[L - lam diag q, q], [q^T, 0]], with s = y - ybar
    on the labeled rows and 0 elsewhere.
    """
    W = g.adjacency.toarray()
    d = W.sum(axis=1)
    L, q = np.diag(d) - W, d / d.sum()
    lam = lam if method in ("v_laplace", "v_poisson") else 0.0
    il, y = labels.nodes, labels.onehot_matrix()
    if method in ("laplace", "v_laplace"):
        iu = np.setdiff1d(np.arange(g.n), il)
        qu = q[iu]
        A = L[np.ix_(iu, iu)] - lam * np.diag(qu) + lam * np.outer(qu, qu)
        b = -L[np.ix_(iu, il)] @ y - lam * np.outer(qu, q[il] @ y)
        u = np.zeros((g.n, labels.k))
        u[il] = y
        u[iu] = np.linalg.solve(A, b)
        return u
    bordered = np.block([[L - lam * np.diag(q), q[:, None]], [q[None, :], np.zeros((1, 1))]])
    source = np.zeros((g.n + 1, labels.k))
    source[il] = y - y.mean(axis=0)
    return np.linalg.solve(bordered, source)[: g.n]
