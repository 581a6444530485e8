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

from .errors import (
    InvalidInputError,
    InvalidParameterError,
    checked_int,
    checked_lam,
    integer_array,
)

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
    same rules.  Each graph builds its Laplacian, the positions of its
    diagonal among the Laplacian's stored values, and its component labels
    once, on first use.  It also computes lambda_2 of the
    pencil (L, diag q) at most once, with ``estimate_stability_limit``, on
    the first v_poisson solve with ``lam > 0``, whose near-bound warning
    reads it.  Instances are safe to share between concurrent solver runs; treat
    every field and every cached array as read-only.
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
    def _diagonal_positions(self) -> np.ndarray:
        """Positions of the diagonal in the Laplacian's values, one per row:
        every node has a positive degree, so every row stores its diagonal."""
        L = self._laplacian
        return np.flatnonzero(L.indices == np.repeat(np.arange(self.n), np.diff(L.indptr)))

    @cached_property
    def components(self):
        """``(count, labels)`` of the connected components, computed on first use."""
        return csgraph.connected_components(self.adjacency, directed=False)

    @cached_property
    def _stability_limit(self) -> float:
        from .solvers import estimate_stability_limit  # solvers imports this module

        return estimate_stability_limit(self)

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

    ``entries`` are (node index, class index) pairs of integers, by
    :func:`errors.checked_int`: node indices unique and >= 0, class indices
    in [0, k).  A bad entry raises InvalidInputError.
    """

    k: int
    entries: tuple

    def __post_init__(self):
        checked_int(self.k, "class count k", low=1)
        try:
            pairs = tuple((checked_int(i, "node index", low=0),
                           checked_int(c, "class index", low=0, high=self.k))
                          for i, c in self.entries)
        except InvalidParameterError as exc:  # entries are input data, not parameters
            raise InvalidInputError(str(exc)) from None
        if not pairs:
            raise InvalidInputError("at least one labeled node is required")
        nodes = [i for i, _ in pairs]
        if len(set(nodes)) != len(nodes):
            raise InvalidInputError("labeled node indices must be unique")
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
    Zero-weight edges are dropped.  Endpoints without an integer dtype,
    negative or non-finite weights, self-loops and isolated nodes raise
    InvalidInputError; a node count that is not a positive integer, by
    :func:`errors.checked_int`, raises InvalidParameterError.
    """
    src = integer_array(src, "src").ravel()
    dst = integer_array(dst, "dst").ravel()
    if weight is None:
        weight = np.ones(src.size)
    weight = np.asarray(weight, dtype=np.float64).ravel()
    if not (src.size == dst.size == weight.size):
        raise InvalidInputError("src, dst and weight arrays must have equal length")
    n = checked_int(n, "node count", low=1)
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
    if n > 2 * src.size:
        # fewer edge ends than nodes: some node is isolated.  Caught here,
        # before a huge n sizes an array or overflows the keys src * n + dst
        ends = np.unique(np.concatenate([src, dst]))
        gaps = np.flatnonzero(ends != np.arange(ends.size))
        raise _isolated(n - ends.size, gaps[0] if gaps.size else ends.size)

    # a helper, so that its sort temporaries are freed before W.maximum(W.T)
    W = _directed_max(n, src, dst, weight)
    adjacency = W.maximum(W.T)
    degrees = adjacency.sum(axis=1)
    if np.any(degrees == 0):
        isolated = np.flatnonzero(degrees == 0)
        raise _isolated(isolated.size, isolated[0])
    return Graph(
        n=n,
        adjacency=adjacency,
        degrees=degrees,
        degree_weights=degrees / degrees.sum(),
    )


def _directed_max(n, src, dst, weight) -> sparse.csr_array:
    """(n, n) weights of the directed edges, the copies of each merged by their maximum."""
    keys = src * np.int64(n) + dst
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.flatnonzero(np.r_[True, np.diff(keys) != 0])
    merged = np.maximum.reduceat(weight[order], first)
    keys = keys[first]
    return sparse.csr_array((merged, (keys // n, keys % n)), shape=(n, n))


def _isolated(count, first) -> InvalidInputError:
    return InvalidInputError(
        f"graph has {count} isolated node(s), e.g. node {first}; "
        "degree weights vanish there and propagation is ill-posed"
    )


def build_knn_graph(features, k_neighbors) -> Graph:
    """Build a k-nearest-neighbor similarity graph with self-tuning Gaussian weights.

    Each node connects to its ``k_neighbors`` Euclidean nearest neighbors
    with weight exp(-|x_i - x_j|^2 / (sigma_i sigma_j)), where sigma_i is
    the distance from x_i to its k_neighbors-th nearest neighbor.  Nodes
    with sigma_i = 0 (exact duplicates) fall back to the smallest positive
    sigma over all nodes, or 1 if every sigma vanishes.  The directed edges
    go through :func:`graph_from_edges`, which symmetrizes with
    max(w_ij, w_ji), so every directed k-NN edge of positive weight
    survives.  A weight underflows to 0 when |x_i - x_j|^2 is about 745
    times sigma_i sigma_j or more, as for a point far from a tight cluster;
    that edge is dropped, and a node left with no edge raises
    InvalidInputError.

    The neighbor search is exact and deterministic: among equidistant
    candidates the lower index wins, so duplicate points always give the
    same graph.  It does O(n^2 d) work in blocks of rows.  Candidates come
    from a float32 GEMM on a centered copy of the features, and only the
    columns of the groups whose minimum is least are ranked.  Their
    distances are then summed term by term in float64, and a row that a
    derived float32 rounding bound cannot settle is searched again exactly
    in float64, so the graph is the one an all-float64 search gives.  The
    float32 copy (half the bytes of the features) and the temporaries of
    one block share a budget of max(4 MB, the bytes of the float64
    features), or the copy and one row (about 5 n + 8 (k + 4) d bytes)
    when n is larger.

    Parameters
    ----------
    features : (n, d) array
        One row per point; must be finite.
    k_neighbors : int
        Neighborhood size, 1 <= k_neighbors < n, an integer by
        :func:`errors.checked_int`.
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
    k = checked_int(k_neighbors, "k_neighbors", low=1, high=n)

    nbr, nbr_dist = _nearest(X, k)
    sigma = nbr_dist[:, -1].copy()
    if np.any(sigma == 0):
        positive = sigma[sigma > 0]
        sigma[sigma == 0] = positive.min() if positive.size else 1.0

    w = np.exp(-(nbr_dist**2) / (sigma[:, None] * sigma[nbr]))
    return graph_from_edges(n, np.repeat(np.arange(n), k), nbr, w)


# Floor on the bytes of _nearest's working set: the float32 copy of the
# centered features, and the temporaries of one block of rows (its float32
# candidate form, the group minima and the kept columns).  _nearest's budget
# is max(this, X.nbytes), and the copy, about half of X.nbytes, is paid for
# out of it: each block's GEMM reads all of the copy, and blocks that grow
# with X share that read among more rows.  A block holds 182 rows at
# 8000 x 256, and 145 at the desk size (2000 x 256, under the floor).
_KNN_BLOCK_BYTES = 4 << 20
# Bytes of float64 feature rows that _rank gathers at a time, outside the
# block budget: each chunk's candidates and, as many, the rows they are
# ranked for.  A fixed size, so that the exact re-search over n - 1
# candidates costs no more than a block's ranking.
_KNN_RANK_BYTES = 256 << 10
# Spare candidates beyond k, so float32 rounding near the k-th distance rarely
# forces an exact re-search of the row.
_KNN_SPARE = 4
# Columns per group: a row keeps the pool + 1 groups of least minimum and
# picks its candidates among their columns only, so its selection sorts
# n / 16 group minima and (k + 5) 16 columns, not n columns.
_KNN_GROUP = 16


def _nearest(X, k):
    """Exact k nearest neighbors of every row of ``X``, self excluded.

    Returns ``(indices, distances)``, both (n, k) and ordered by
    (distance, index), so ties go to the lower index.  Candidates come from
    a float32 copy c of the centered, scaled features: each block of rows
    forms |c_j|^2 - 2 c_i.c_j, takes the minimum over each group of
    ``_KNN_GROUP`` columns, keeps the pool + 1 groups of least minimum and
    picks its pool of candidates among their columns.  The pool's distances
    are then summed term by term in float64, on ``X`` itself.  Every column
    left out has a form no less than the first kept value left out; a row
    where that value, plus |c_i|^2, lies within the rounding slack derived
    in :func:`_candidate_copy` of its k-th distance (ties, duplicates) is
    searched again exactly over all points.
    """
    n, d = X.shape
    pool = min(n - 1, k + _KNN_SPARE)
    # the form's columns past n are +inf, so they are never candidates
    groups = max(-(-n // _KNN_GROUP), pool + 1)
    width = groups * _KNN_GROUP
    budget = max(_KNN_BLOCK_BYTES, X.nbytes) - 4 * n * d
    block = max(1, budget // (5 * width + 320 * (pool + 1)))
    C, sq, scale, slack = _candidate_copy(X, block)
    spans = groups * np.arange(_KNN_GROUP)[:, None]
    form = np.full((min(block, n), width), np.inf, dtype=np.float32)
    idx = np.empty((n, k), dtype=np.int64)
    dist = np.empty((n, k))
    for lo in range(0, n, block):
        rows = np.arange(lo, min(lo + block, n))
        D = _candidate_form(C, sq, lo, form[: rows.size])
        D[np.arange(rows.size), rows] = np.inf
        # column j lies in group j % groups: one reduction gives every minimum
        low = D.reshape(rows.size, _KNN_GROUP, groups).min(axis=1)
        part = np.argpartition(low, pool, axis=1)
        cols = (part[:, None, : pool + 1] + spans).reshape(rows.size, -1)
        kept = np.take_along_axis(D, cols, axis=1)
        part = np.argpartition(kept, pool, axis=1)
        # The kept groups' minima are pool + 1 kept values no greater than
        # any column of an unkept group, so every column left out is >= edge,
        # the first kept value left out.  A row's n - 1 >= pool other columns
        # are finite, self and padding +inf, so the pool holds real columns.
        edge = np.take_along_axis(kept, part[:, pool : pool + 1], axis=1)[:, 0]
        idx[rows], dist[rows] = _rank(X, rows, np.take_along_axis(cols, part[:, :pool], axis=1), k)
        # summed in float64, and negated so that a NaN bound also re-searches
        bound = edge.astype(np.float64) + sq[rows] - slack[rows]
        for i in rows[~(bound > (scale * dist[rows, -1]) ** 2)]:
            idx[i], dist[i] = _rank(X, [i], np.delete(np.arange(n), i)[None, :], k)
    return idx, dist


def _candidate_copy(X, block):
    """The float32 features of the candidate pass, and their rounding slack.

    Returns ``(C, sq, scale, slack)``.  Row j of ``C`` is (x_j - mu) * scale
    rounded to float32, with mu about the mean of ``X`` and ``scale`` the
    power of two that brings the largest entry into [1/2, 1), where float64
    allows.  ``sq[j]`` is |c_j|^2 in float32.  For every i and j, the form
    of :func:`_candidate_form` plus sq[i] lies within slack[i] of
    scale^2 |x_i - x_j|^2, with that distance summed term by term in
    float64.  ``X`` is converted ``block`` rows at a time.
    """
    n, d = X.shape
    # weights first, so that no partial sum exceeds the largest feature
    mu = np.full(n, 1.0 / n) @ X
    with np.errstate(over="ignore"):
        spread = np.maximum(X.max(axis=0) - mu, mu - X.min(axis=0)).max()
    if not np.isfinite(spread):
        # features more than 1.8e308 apart: only no shift keeps x - mu finite
        mu[:] = 0.0
        spread = np.abs(X).max()
    scale = math.ldexp(1.0, min(-math.frexp(spread)[1], 1023))
    C = np.empty((n, d), dtype=np.float32)
    for lo in range(0, n, block):
        c = X[lo : lo + block] - mu
        c *= scale
        C[lo : lo + block] = c
    norms2 = np.einsum("ij,ij->i", C, C, dtype=np.float64)
    # Rounding bound in the scaled units, for d < 2^22 (beyond it every row
    # is searched exactly), with u = 2^-24, g = d u / (1 - d u) and
    # r_i = |c_i| + max_j |c_j|, so that |c_i| + |c_j| <= r_i:
    #  - centering and cast: c = (x - mu) scale (1 + e) entrywise, with
    #    |e| <= u + 2^-53 + 2^-77; mu cancels in c_i - c_j, so |c_i - c_j|^2
    #    lies within (2|e| + e^2) / (1 - |e|)^2 r_i^2 <= 2.01 u r_i^2 of
    #    scale^2 |x_i - x_j|^2;
    #  - sq[j], |c_j|^2 rounded from float64 to float32: u |c_j|^2 <= u r_i^2;
    #  - -2 c_i.c_j by the float32 GEMM, in any summation order:
    #    2 g |c_i||c_j| <= g r_i^2 / 2;
    #  - adding sq[j] to it in float32: u (1 + g)(|c_j|^2 + 2|c_i||c_j|)
    #    <= u (1 + g) r_i^2;
    #  - sq[i] in place of |c_i|^2: u r_i^2 again;
    #  - the float64 norms, term-by-term distances, sums and comparison of
    #    _nearest: relative errors of (d + 8) 2^-53, below 0.1 u r_i^2;
    #  - float32 underflow, at most 2^-150 per rounding: below
    #    d 2^-147 + u r_i^2 / 8.
    # With g / 2 + u g <= g, the sum is at most (g + 5.3 u) r_i^2 + d 2^-147.
    u = 2.0**-24
    g = d * u / (1 - d * u) if d < 2**22 else math.inf
    r = np.sqrt(norms2) + math.sqrt(norms2.max())
    slack = (g + 6 * u) * r**2 + d * 2.0**-147
    return C, norms2.astype(np.float32), scale, slack


def _candidate_form(C, sq, lo, out):
    """|c_j|^2 - 2 c_i.c_j in float32 for the rows i = lo, lo + 1, ... of
    ``out`` and every row j of ``C``, written into out[:, :len(C)]; |c_i|^2,
    the same along a row, is left out."""
    D = out[:, : len(C)]
    np.matmul(C[lo : lo + len(out)] * np.float32(-2), C.T, out=D)
    D += sq
    return out


def _rank(X, rows, cand, k):
    """The ``k`` nearest of each row's candidates ``cand[r]``, as (indices,
    distances) ordered by (distance, index).  Distances are summed term by
    term, over ``_KNN_RANK_BYTES`` of gathered feature rows at a time."""
    flat, owner = cand.ravel(), np.repeat(rows, cand.shape[1])
    cand_dist = np.empty(flat.size)
    step = max(1, _KNN_RANK_BYTES // (16 * X.shape[1]))
    for lo in range(0, flat.size, step):
        diff = X[flat[lo : lo + step]]
        diff -= X[owner[lo : lo + step]]
        cand_dist[lo : lo + step] = np.sqrt(np.einsum("cd,cd->c", diff, diff))
    cand_dist = cand_dist.reshape(cand.shape)
    order = np.lexsort((cand, cand_dist))[:, :k]
    return np.take_along_axis(cand, order, axis=1), np.take_along_axis(cand_dist, order, axis=1)


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
    trace(u^T L u), which is how it is evaluated.  ``lam`` obeys
    :func:`errors.checked_lam`.
    """
    lam = checked_lam(lam)
    mat, _ = _label_matrix(g, u)
    smooth = float(np.sum(mat * laplacian_apply(g, mat)))
    return smooth - lam * variance(g, mat)
