"""Text file formats, dataset ingestion and the seeded label sampler.

Feature CSVs, label files, labeled-node files and edge lists are all read
through one line reader: blank lines are skipped and line numbers count
every line; only labeled-node files and edge lists skip ``#`` comments.
The sampler draws a fixed number of labeled nodes per class with a
counter-based 64-bit generator, so splits reproduce exactly on any
platform.
"""

import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy import sparse

from .errors import (
    FormatError,
    InsufficientLabelsError,
    InvalidInputError,
    InvalidParameterError,
)
from .graph import Graph, LabelSet, build_knn_graph, graph_from_edges

__all__ = [
    "Dataset",
    "load_feature_dataset",
    "load_graph_dataset",
    "read_feature_csv",
    "read_label_file",
    "read_labeled_nodes",
    "read_edgelist",
    "write_edgelist",
    "write_feature_csv",
    "write_label_file",
    "with_knn_graph",
    "sample_label_set",
    "derive_trial_seed",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    # SplitMix64 finalizer: the fixed-width mixing step under all sampling
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class _CounterStream:
    """Deterministic uint64 stream: value(i) = mix(base + i * golden)."""

    def __init__(self, *words: int):
        base = 0x243F6A8885A308D3
        for w in words:
            base = _mix64(base ^ _mix64(int(w)))
        self._base = base
        self._counter = 0

    def next_u64(self) -> int:
        value = _mix64((self._base + self._counter * _GOLDEN) & _MASK64)
        self._counter += 1
        return value

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), rejection sampled to avoid modulo bias."""
        if bound < 1:
            raise InvalidParameterError("bound must be >= 1")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % bound


def derive_trial_seed(base_seed: int, trial_index: int) -> int:
    """Per-trial seed derived from (base_seed, trial_index), order independent."""
    return _CounterStream(int(base_seed), 0x5EED, int(trial_index)).next_u64()


@dataclass(frozen=True)
class Dataset:
    """Feature- or graph-backed classification dataset.

    Exactly the label vector is mandatory; ``features`` and ``graph`` may
    each be present.  ``k`` counts classes, and every label must lie in
    [0, k).
    """

    name: str
    k: int
    true_labels: np.ndarray
    features: np.ndarray = None
    graph: Graph = None

    def __post_init__(self):
        labels = np.asarray(self.true_labels, dtype=np.int64)
        object.__setattr__(self, "true_labels", labels)
        if self.features is not None:
            object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        if self.features is None and self.graph is None:
            raise InvalidInputError("dataset needs features or a graph")
        if self.k < 1:
            raise InvalidParameterError("class count k must be >= 1")
        if labels.size == 0:
            raise InvalidInputError("dataset has no samples")
        if labels.min() < 0 or labels.max() >= self.k:
            raise InvalidInputError(f"labels must lie in [0, {self.k})")
        if self.features is not None and self.features.shape[0] != labels.size:
            raise InvalidInputError(
                f"features have {self.features.shape[0]} rows but {labels.size} labels given"
            )
        if self.graph is not None and self.graph.n != labels.size:
            raise InvalidInputError(
                f"graph has {self.graph.n} nodes but {labels.size} labels given"
            )

    @property
    def n(self) -> int:
        return self.true_labels.size

    def class_members(self, c: int) -> np.ndarray:
        return np.flatnonzero(self.true_labels == c)


def _lines(path, comments=False):
    """Yield ``(lineno, stripped text)`` of each nonblank line, numbering from 1
    over every line; ``#`` lines are skipped only when ``comments`` is set."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if text and not (comments and text.startswith("#")):
                yield lineno, text


def read_feature_csv(path) -> np.ndarray:
    """Parse a headerless CSV of floats into an (n, d) float64 matrix.

    Every row must have the same number of comma-separated fields, each a
    finite float; blank and whitespace-only lines are skipped.  A ragged
    row, a non-numeric or non-finite field, or a file without data rows
    raises FormatError, with the 1-based line number (blank lines counted)
    where a line is at fault.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            X = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
    except ValueError:
        pass
    else:
        if X.size and np.isfinite(X).all():
            return X
    # the line-by-line parse names the faulty line, and accepts whitespace-only lines
    rows = []
    for lineno, text in _lines(path):
        parts = text.split(",")
        if rows and len(parts) != len(rows[0]):
            raise FormatError(
                f"{path}: line {lineno}: expected {len(rows[0])} fields, found {len(parts)}"
            )
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise FormatError(f"{path}: line {lineno}: non-numeric field") from None
        if not all(math.isfinite(v) for v in values):
            raise FormatError(f"{path}: line {lineno}: non-finite value")
        rows.append(values)
    if not rows:
        raise FormatError(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64)


def read_label_file(path) -> np.ndarray:
    """Parse one integer class index per line."""
    labels = []
    for lineno, text in _lines(path):
        try:
            value = int(text)
        except ValueError:
            raise FormatError(f"{path}: line {lineno}: labels must be integers") from None
        if value < 0:
            raise FormatError(f"{path}: line {lineno}: negative label {value}")
        labels.append(value)
    if not labels:
        raise FormatError(f"{path}: no labels found")
    return np.array(labels, dtype=np.int64)


def read_labeled_nodes(path) -> LabelSet:
    """Parse a labeled-node file: one ``node class`` pair per line, '#' comments."""
    entries = []
    for lineno, text in _lines(path, comments=True):
        parts = text.split()
        if len(parts) != 2:
            raise FormatError(
                f"{path}: line {lineno}: expected 'node class', found {len(parts)} fields"
            )
        try:
            node, cls = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"{path}: line {lineno}: non-integer field") from None
        if node < 0 or cls < 0:
            raise FormatError(f"{path}: line {lineno}: negative index")
        entries.append((node, cls))
    if not entries:
        raise FormatError(f"{path}: no labeled nodes found")
    k = max(c for _, c in entries) + 1
    return LabelSet(k=k, entries=tuple(entries))


def read_edgelist(path, n=None) -> Graph:
    """Read an undirected edge-list text file.

    One edge per line as ``src dst weight`` with the weight optional
    (default 1.0), 0-indexed, each edge listed once in either orientation;
    lines starting with ``#`` and blank lines are ignored.  Self-loops are
    dropped with a warning and duplicate edges merge by maximum weight.
    When ``n`` is given, any endpoint >= n is a FormatError; otherwise n is
    inferred as the largest endpoint + 1.
    """
    src, dst, wgt = [], [], []
    for lineno, text in _lines(path, comments=True):
        parts = text.split()
        if len(parts) not in (2, 3):
            raise FormatError(
                f"{path}: line {lineno}: expected 'src dst [weight]', found {len(parts)} fields"
            )
        try:
            i = int(parts[0])
            j = int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise FormatError(f"{path}: line {lineno}: non-numeric field") from None
        if i < 0 or j < 0:
            raise FormatError(f"{path}: line {lineno}: negative node index")
        if not np.isfinite(w) or w < 0:
            raise FormatError(f"{path}: line {lineno}: weight must be finite and nonnegative")
        if n is not None and (i >= n or j >= n):
            raise FormatError(
                f"{path}: line {lineno}: node index {max(i, j)} exceeds node count {n}"
            )
        if i == j:
            warnings.warn(f"{path}: line {lineno}: self-loop on node {i} dropped")
            continue
        src.append(i)
        dst.append(j)
        wgt.append(w)
    if not src:
        raise FormatError(f"{path}: no edges found")
    count = n if n is not None else max(max(src), max(dst)) + 1
    return graph_from_edges(count, src, dst, wgt)


def write_edgelist(g: Graph, path) -> None:
    """Write the graph in the edge-list format read by :func:`read_edgelist`.

    Each undirected edge appears once as ``i j weight`` with i < j, sorted,
    and weights printed with full float64 precision.
    """
    coo = sparse.triu(g.adjacency, k=1).tocoo()
    order = np.lexsort((coo.col, coo.row))
    np.savetxt(path, np.column_stack([coo.row, coo.col, coo.data])[order], fmt="%d %d %.17g")


def _warn_on_empty_classes(labels: np.ndarray, k: int, name: str) -> None:
    counts = np.bincount(labels, minlength=k)
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        warnings.warn(
            f"{name}: classes {missing.tolist()} have no members; "
            "the per-class sampler will reject this dataset"
        )


def load_feature_dataset(features_path, labels_path, name: str = None) -> Dataset:
    """Load a feature CSV and its label file; k is inferred as max label + 1."""
    features = read_feature_csv(features_path)
    labels = read_label_file(labels_path)
    if features.shape[0] != labels.size:
        raise FormatError(
            f"features file has {features.shape[0]} rows but labels file has {labels.size} entries"
        )
    k = int(labels.max()) + 1
    name = name or Path(features_path).stem
    _warn_on_empty_classes(labels, k, name)
    return Dataset(name=name, k=k, true_labels=labels, features=features)


def load_graph_dataset(edges_path, labels_path, name: str = None) -> Dataset:
    """Load an edge-list graph and its label file.

    The node count comes from the label file; any edge endpoint at or past
    it is a FormatError.  Self-loops drop with a warning and duplicate
    edges merge by maximum weight (edge-list reader semantics).
    """
    labels = read_label_file(labels_path)
    graph = read_edgelist(edges_path, n=labels.size)
    k = int(labels.max()) + 1
    name = name or Path(edges_path).stem
    _warn_on_empty_classes(labels, k, name)
    return Dataset(name=name, k=k, true_labels=labels, graph=graph)


def write_feature_csv(path, features) -> None:
    """Write an (n, d) matrix as a headerless CSV, floats at full precision."""
    np.savetxt(path, np.asarray(features, dtype=np.float64), fmt="%.17g", delimiter=",")


def write_label_file(path, labels) -> None:
    """Write one integer class index per line."""
    np.savetxt(path, np.asarray(labels, dtype=np.int64), fmt="%d")


def with_knn_graph(ds: Dataset, k_neighbors: int) -> Dataset:
    """Return a copy of a feature dataset carrying its k-NN graph."""
    if ds.features is None:
        raise InvalidParameterError("dataset has no features to build a graph from")
    return replace(ds, graph=build_knn_graph(ds.features, k_neighbors))


def sample_label_set(ds: Dataset, labels_per_class: int, seed: int) -> LabelSet:
    """Deterministically draw ``labels_per_class`` nodes from every class.

    Sampling is a partial Fisher-Yates shuffle driven by a counter-based
    generator keyed on (seed, class index); identical inputs give identical
    label sets on every platform.
    """
    m = int(labels_per_class)
    if m < 1:
        raise InvalidParameterError("labels_per_class must be >= 1")
    entries = []
    for c in range(ds.k):
        members = ds.class_members(c)
        if members.size < m:
            raise InsufficientLabelsError(
                f"class {c} has {members.size} members, cannot draw {m} labels"
            )
        pool = members.tolist()
        stream = _CounterStream(int(seed), c)
        for i in range(m):
            j = i + stream.below(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        entries.extend((int(node), c) for node in pool[:m])
    entries.sort()
    return LabelSet(k=ds.k, entries=tuple(entries))
