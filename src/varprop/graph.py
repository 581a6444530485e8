"""In-memory weighted graphs, k-NN construction, and the discrete operators shared by all solvers.

Label functions are plain numpy arrays of shape (n, k): row i holds the k
class scores of node i.  Every operator also accepts a 1-D array as the
k = 1 case and returns a matching shape.  The edge-list file format is
read and written by ``varprop.data``.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .errors import InvalidInputError, InvalidParameterError

__all__ = [
    "Graph",
    "LabelSet",
    "build_knn_graph",
    "graph_from_edges",
    "laplacian_apply",
    "weighted_mean",
    "variance",
    "objective_value",
]


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected weighted graph in CSR form.

    ``adjacency`` is a ``scipy.sparse.csr_array`` with sorted indices, an
    exactly symmetric value pattern, positive stored weights and a zero
    diagonal.  ``degrees[i]`` is the row sum of ``adjacency`` and
    ``degree_weights`` are the degrees normalized to sum to one.  Build one
    with :func:`graph_from_edges` or :meth:`from_adjacency`, which apply the
    same rules.  Each graph builds its Laplacian and its component labels
    once, on first use.  Instances are safe to share between concurrent
    solver runs; treat every field and every cached array as read-only.
    """

    n: int
    adjacency: sparse.csr_array
    degrees: np.ndarray
    degree_weights: np.ndarray

    @property
    def edge_count(self) -> int:
        return self.adjacency.nnz // 2

    def laplacian_matrix(self) -> sparse.csr_array:
        """Combinatorial Laplacian D - W as CSR, built on first use; read-only."""
        return self._laplacian

    @cached_property
    def _laplacian(self) -> sparse.csr_array:
        return (sparse.diags_array(self.degrees) - self.adjacency).tocsr()

    @cached_property
    def components(self):
        """``(count, labels)`` of the connected components, computed on first use."""
        return csgraph.connected_components(self.adjacency, directed=False)

    @classmethod
    def from_adjacency(cls, matrix) -> "Graph":
        """Build a Graph from a symmetric weight matrix, dense or sparse.

        Checks that the matrix is square, finite and symmetric, then passes
        its stored nonzero entries to :func:`graph_from_edges`, which
        rejects negative weights, self-loops and isolated nodes.  All of
        these raise InvalidInputError; a 0 x 0 matrix raises
        InvalidParameterError.
        """
        W = sparse.coo_array(matrix, dtype=np.float64)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise InvalidInputError(f"adjacency must be square, got shape {W.shape}")
        W.sum_duplicates()
        if not np.all(np.isfinite(W.data)):
            raise InvalidInputError("adjacency contains non-finite weights")
        if (W != W.T).nnz:
            raise InvalidInputError("adjacency must be symmetric")
        W.eliminate_zeros()
        return graph_from_edges(W.shape[0], W.row, W.col, W.data)


@dataclass(frozen=True)
class LabelSet:
    """Labeled nodes with one-hot targets.

    ``entries`` are (node index, class index) pairs; node indices must be
    unique and class indices below ``k``.
    """

    k: int
    entries: tuple

    def __post_init__(self):
        if self.k < 1:
            raise InvalidParameterError("class count k must be >= 1")
        pairs = tuple((int(i), int(c)) for i, c in self.entries)
        if not pairs:
            raise InvalidInputError("at least one labeled node is required")
        nodes = [i for i, _ in pairs]
        if len(set(nodes)) != len(nodes):
            raise InvalidInputError("labeled node indices must be unique")
        if min(nodes) < 0:
            raise InvalidInputError("node indices must be nonnegative")
        if any(c < 0 or c >= self.k for _, c in pairs):
            raise InvalidInputError(f"class indices must lie in [0, {self.k})")
        object.__setattr__(self, "entries", pairs)

    @property
    def l(self) -> int:
        return len(self.entries)

    @property
    def nodes(self) -> np.ndarray:
        return np.array([i for i, _ in self.entries], dtype=np.int64)

    @property
    def classes(self) -> np.ndarray:
        return np.array([c for _, c in self.entries], dtype=np.int64)

    def onehot_matrix(self) -> np.ndarray:
        """(l, k) matrix with one row per entry, aligned with ``nodes``."""
        y = np.zeros((len(self.entries), self.k))
        y[np.arange(len(self.entries)), self.classes] = 1.0
        return y


def graph_from_edges(n, src, dst, weight=None) -> Graph:
    """Build a Graph from undirected edge arrays; every Graph is built here.

    Each edge may be listed in either orientation, or several times; all
    copies of an edge, i->j and j->i alike, merge by their maximum weight.
    Zero-weight edges are dropped.  Negative or non-finite weights,
    self-loops and isolated nodes raise InvalidInputError.
    """
    src = np.asarray(src, dtype=np.int64).ravel()
    dst = np.asarray(dst, dtype=np.int64).ravel()
    if weight is None:
        weight = np.ones(src.size)
    weight = np.asarray(weight, dtype=np.float64).ravel()
    if not (src.size == dst.size == weight.size):
        raise InvalidInputError("src, dst and weight arrays must have equal length")
    if n < 1:
        raise InvalidParameterError("node count must be >= 1")
    if src.size == 0:
        raise InvalidInputError("at least one edge is required")
    if src.min() < 0 or dst.min() < 0 or src.max() >= n or dst.max() >= n:
        raise InvalidInputError(f"edge endpoints must lie in [0, {n})")
    if not np.all(np.isfinite(weight)):
        raise InvalidInputError("edge weights must be finite")
    if weight.min() < 0:
        raise InvalidInputError("edge weights must be nonnegative")
    if np.any(src == dst):
        raise InvalidInputError("self-loops are not allowed")

    keep = weight > 0
    src, dst, weight = src[keep], dst[keep], weight[keep]
    if src.size == 0:
        raise InvalidInputError("all edges have zero weight")

    a = np.minimum(src, dst)
    b = np.maximum(src, dst)
    keys = a * np.int64(n) + b
    order = np.argsort(keys, kind="stable")
    keys, a, b, weight = keys[order], a[order], b[order], weight[order]
    first = np.flatnonzero(np.r_[True, np.diff(keys) != 0])
    merged = np.maximum.reduceat(weight, first)
    ua, ub = a[first], b[first]

    rows = np.concatenate([ua, ub])
    cols = np.concatenate([ub, ua])
    vals = np.concatenate([merged, merged])
    adjacency = sparse.csr_array((vals, (rows, cols)), shape=(n, n))
    degrees = adjacency.sum(axis=1)
    if np.any(degrees == 0):
        isolated = np.flatnonzero(degrees == 0)
        raise InvalidInputError(
            f"graph has {isolated.size} isolated node(s), e.g. node {isolated[0]}; "
            "degree weights vanish there and propagation is ill-posed"
        )
    return Graph(
        n=n,
        adjacency=adjacency,
        degrees=degrees,
        degree_weights=degrees / degrees.sum(),
    )


def build_knn_graph(features, k_neighbors) -> Graph:
    """Build a k-nearest-neighbor similarity graph with self-tuning Gaussian weights.

    Each node connects to its ``k_neighbors`` Euclidean nearest neighbors
    with weight exp(-|x_i - x_j|^2 / (sigma_i sigma_j)), where sigma_i is
    the distance from x_i to its k_neighbors-th nearest neighbor.  Nodes
    with sigma_i = 0 (exact duplicates) fall back to the smallest positive
    sigma over all nodes, or 1 if every sigma vanishes.  The directed edges
    go through :func:`graph_from_edges`, which symmetrizes with
    max(w_ij, w_ji), so every directed k-NN edge survives.

    The neighbor search is exact and deterministic: among equidistant
    candidates the lower index wins, so duplicate points always give the
    same graph.  It does O(n^2 d) work in blocks of rows; the temporaries
    of one block fit a fixed budget of a few megabytes, or one row (about
    16 n bytes) when n is larger.

    Parameters
    ----------
    features : (n, d) array
        One row per point; must be finite.
    k_neighbors : int
        Neighborhood size, 1 <= k_neighbors < n.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise InvalidInputError("features must be a 2-D matrix")
    n = X.shape[0]
    if n < 2:
        raise InvalidParameterError("need at least 2 points to build a graph")
    if not np.all(np.isfinite(X)):
        raise InvalidInputError("features contain NaN or Inf")
    k = int(k_neighbors)
    if k < 1 or k >= n:
        raise InvalidParameterError(
            f"k_neighbors must satisfy 1 <= k < n, got k={k_neighbors} with n={n}"
        )

    nbr, nbr_dist = _nearest(X, k)
    sigma = nbr_dist[:, -1].copy()
    if np.any(sigma == 0):
        positive = sigma[sigma > 0]
        sigma[sigma == 0] = positive.min() if positive.size else 1.0

    w = np.exp(-(nbr_dist**2) / (sigma[:, None] * sigma[nbr]))
    return graph_from_edges(n, np.repeat(np.arange(n), k), nbr, w)


# Bytes for the temporaries of one block of rows in _nearest: the GEMM
# distances, their argpartition indices and the exact-distance gather.
_KNN_BLOCK_BYTES = 4 << 20
# Spare candidates beyond k, so GEMM rounding near the k-th distance rarely
# forces an exact re-search of the row.
_KNN_SPARE = 4


def _nearest(X, k):
    """Exact k nearest neighbors of every row of ``X``, self excluded.

    Returns ``(indices, distances)``, both (n, k) and ordered by
    (distance, index), so ties go to the lower index.  Row blocks pick
    candidates by the GEMM form |x_i|^2 - 2 x_i.x_j + |x_j|^2 and recompute
    their distances term by term, because the GEMM form cancels.  A row
    whose first excluded candidate lies within the GEMM rounding bound of
    its k-th distance (ties, duplicates, large offsets) is searched again
    exactly over all points.
    """
    n, d = X.shape
    pool = min(n - 1, k + _KNN_SPARE)
    sq = np.einsum("ij,ij->i", X, X)
    norms = np.sqrt(sq)
    # |GEMM form - exact| <= (d + 4) eps (|x_i| + |x_j|)^2 for every j
    slack = (d + 4) * np.finfo(np.float64).eps * (norms + norms.max()) ** 2
    block = max(1, _KNN_BLOCK_BYTES // (16 * n + 8 * pool * d))
    gram = np.empty((min(block, n), n))
    idx = np.empty((n, k), dtype=np.int64)
    dist = np.empty((n, k))
    for lo in range(0, n, block):
        rows = np.arange(lo, min(lo + block, n))
        D = gram[: rows.size]
        np.matmul(-2.0 * X[lo : lo + rows.size], X.T, out=D)
        D += sq
        D += sq[rows, None]
        D[np.arange(rows.size), rows] = np.inf
        part = np.argpartition(D, pool, axis=1)
        edge = np.take_along_axis(D, part[:, pool : pool + 1], axis=1)[:, 0]
        cand = part[:, :pool]
        cand_dist = np.sqrt(_squared_distances(X, rows, cand))
        order = np.lexsort((cand, cand_dist))[:, :k]
        idx[rows] = np.take_along_axis(cand, order, axis=1)
        dist[rows] = np.take_along_axis(cand_dist, order, axis=1)
        # negated so that a NaN bound (overflowing features) also re-searches
        for i in rows[~(edge - slack[rows] > dist[rows, -1] ** 2)]:
            others = np.delete(np.arange(n), i)
            exact = np.sqrt(_squared_distances(X, np.array([i]), others[None, :])[0])
            best = np.lexsort((others, exact))[:k]
            idx[i], dist[i] = others[best], exact[best]
    return idx, dist


def _squared_distances(X, rows, cols):
    """|x_rows[r] - x_cols[r, c]|^2 summed term by term, within the block budget."""
    out = np.empty(cols.shape)
    step = max(1, _KNN_BLOCK_BYTES // (8 * X.shape[1] * rows.size))
    for s in range(0, cols.shape[1], step):
        diff = X[cols[:, s : s + step]]
        diff -= X[rows, None, :]
        out[:, s : s + step] = np.einsum("rcd,rcd->rc", diff, diff)
    return out


def _label_matrix(g: Graph, u):
    arr = np.asarray(u, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
        was_1d = True
    elif arr.ndim == 2:
        was_1d = False
    else:
        raise InvalidInputError("label function must be 1-D or 2-D")
    if arr.shape[0] != g.n:
        raise InvalidInputError(
            f"label function has {arr.shape[0]} rows for a graph with {g.n} nodes"
        )
    return arr, was_1d


def laplacian_apply(g: Graph, u):
    """Apply the combinatorial Laplacian: row i of the result is sum_j w_ij (u_i - u_j)."""
    mat, was_1d = _label_matrix(g, u)
    out = g.degrees[:, None] * mat - g.adjacency @ mat
    return out[:, 0] if was_1d else out


def weighted_mean(g: Graph, u):
    """Degree-weighted average sum_i q_i u_i; a scalar for 1-D input, else a k-vector."""
    mat, was_1d = _label_matrix(g, u)
    out = g.degree_weights @ mat
    return float(out[0]) if was_1d else out


def variance(g: Graph, u) -> float:
    """Degree-weighted spread sum_i q_i |u_i - mean|^2 around the weighted mean."""
    mat, _ = _label_matrix(g, u)
    dev = mat - g.degree_weights @ mat
    return float(g.degree_weights @ np.einsum("ij,ij->i", dev, dev))


def objective_value(g: Graph, u, lam: float) -> float:
    """Smoothness-minus-variance objective value.

    Computes the sum over ordered pairs (i, j) of w_ij * 0.5 * |u_i - u_j|^2
    minus ``lam`` times ``variance(g, u)``.  The pair sum equals
    trace(u^T L u), which is how it is evaluated.
    """
    if not 0 <= lam < math.inf:  # NaN fails too
        raise InvalidParameterError(f"lam must be finite and >= 0, got {lam}")
    mat, _ = _label_matrix(g, u)
    smooth = float(np.sum(mat * laplacian_apply(g, mat)))
    return smooth - float(lam) * variance(g, mat)
