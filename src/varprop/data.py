"""Text file formats, dataset ingestion and the seeded label sampler.

Feature CSVs, label files, labeled-node files and edge lists are all read
the same way: one line reader, whose blank lines are skipped and whose
line numbers count every line, feeds one ``np.loadtxt`` call, so numbers
have ``np.loadtxt``'s grammar in every format.  Only labeled-node files
and edge lists skip ``#`` comments.  Every error names the line of the
earliest faulty row.  The sampler draws a fixed number of labeled nodes
per class with a counter-based 64-bit generator, so splits reproduce
exactly on any platform.
"""

import itertools
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
    checked_int,
    integer_array,
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


def _stream(*words: int):
    """Deterministic uint64 stream keyed on ``words``: value(i) = mix(base + i * golden).

    Every word passes :func:`errors.checked_int`, with no bound: a seed of
    1.9 would otherwise key the stream of seed 1.
    """
    base = 0x243F6A8885A308D3
    for w in words:
        base = _mix64(base ^ _mix64(checked_int(w, "every seed word")))
    return (_mix64((base + i * _GOLDEN) & _MASK64) for i in itertools.count())


def derive_trial_seed(base_seed: int, trial_index: int) -> int:
    """Per-trial seed derived from (base_seed, trial_index), order independent."""
    return next(_stream(base_seed, 0x5EED, trial_index))


@dataclass(frozen=True)
class Dataset:
    """Feature- or graph-backed classification dataset.

    Exactly the label vector is mandatory; ``features`` and ``graph`` may
    each be present.  ``k`` counts classes, and every label must be an
    integer in [0, k).
    """

    name: str
    k: int
    true_labels: np.ndarray
    features: np.ndarray = None
    graph: Graph = None

    def __post_init__(self):
        labels = integer_array(self.true_labels, "true labels")
        object.__setattr__(self, "true_labels", labels)
        if self.features is not None:
            object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        if self.features is None and self.graph is None:
            raise InvalidInputError("dataset needs features or a graph")
        checked_int(self.k, "class count k", low=1)
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


def plain_ascii(text) -> bool:
    """True when ``text`` is ASCII without ``_``.

    On such text Python's ``int`` and ``float`` read numbers as
    ``np.loadtxt`` does; elsewhere they also accept digit separators and
    non-ASCII digits.  The text readers and the CLI's number flags share it.
    """
    return "_" not in text and text.isascii()


def _lines(path, comments=False):
    """Yield ``(lineno, stripped text)`` of each nonblank line, numbering from 1
    over every line; ``#`` lines are skipped only when ``comments`` is set.

    A data line that is not :func:`plain_ascii` is a FormatError; so is one
    with a byte the text encoding cannot decode, read as U+FFFD.
    """
    with open(path, errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if text and not (comments and text.startswith("#")):
                if not plain_ascii(text):
                    raise FormatError(f"{path}: line {lineno}: '_' or non-ASCII character")
                yield lineno, text


def _parse(path, dtype, delimiter=None, comments=False, default=None):
    """Parse the lines :func:`_lines` yields with one ``np.loadtxt`` call.

    Returns ``(rows, linenos, fault)``: an array of ``dtype``, the line
    number of each row, and None.  A structured ``dtype`` sets the field
    count and gives a 1-D array; with a plain one the first row sets the
    count and the array is 2-D.  ``default`` fills a missing last field.  A
    file without data rows is a FormatError.

    When loadtxt rejects the file, the lines are read again with ``int``
    and ``float``, only to name the first faulty one: ``rows`` and
    ``linenos`` then cover the lines before it, and ``fault`` is its
    FormatError, which :func:`_reject` raises unless an earlier row fails.
    """
    dtype = np.dtype(dtype)
    types = [dtype[name] for name in dtype.names] if dtype.names else None
    linenos = []

    def texts():
        for lineno, text in _lines(path, comments):
            linenos.append(lineno)
            if default is not None and len(text.split(delimiter)) == len(types) - 1:
                text += (delimiter or " ") + default
            yield text

    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            # older numpy (1.23 on) reads an int field such as '1.0' through float, and only warns
            warnings.filterwarnings("error", "loadtxt", DeprecationWarning)
            rows = np.loadtxt(texts(), dtype, comments=None, delimiter=delimiter,
                              ndmin=1 if types else 2)
    except (ValueError, DeprecationWarning) as exc:
        fault = FormatError(f"{path}: {exc}")  # unless int() or float() finds the line
    else:
        if not rows.size:
            raise FormatError(f"{path}: no data rows")
        return rows, np.array(linenos), None
    linenos.clear()
    rows = []
    try:
        for text in texts():
            where = f"{path}: line {linenos[-1]}:"
            fields = text.split(delimiter)
            types = types or [dtype] * len(fields)  # a plain dtype: the first row sets the width
            if len(fields) != len(types):
                width = len(types) if default is None else f"{len(types) - 1} or {len(types)}"
                raise FormatError(f"{where} expected {width} fields, found {len(fields)}")
            row = []
            for field, t in zip(fields, types):
                try:
                    row.append(t.type(int(field) if t.kind == "i" else float(field)))
                except (ValueError, OverflowError):
                    raise FormatError(f"{where} cannot read {field!r} as {t}") from None
            rows.append(tuple(row))
    except FormatError as exc:
        fault = exc
    return np.array(rows, dtype), np.array(linenos[:len(rows)]), fault


def _reject(path, linenos, fault, *checks):
    """Raise a FormatError for the earliest row that a ``(mask, message)``
    check flags, with the message of the first check flagging it; past the
    last row comes ``fault``, the parse fault of :func:`_parse`, if any."""
    flagged = [(int(np.argmax(mask)), k) for k, (mask, _) in enumerate(checks) if np.any(mask)]
    if flagged:
        row, k = min(flagged)
        raise FormatError(f"{path}: line {linenos[row]}: {checks[k][1]}")
    if fault is not None:
        raise fault


def read_feature_csv(path) -> np.ndarray:
    """Parse a headerless CSV of floats into an (n, d) float64 matrix.

    Every row must have the same number of comma-separated fields, each a
    finite float as ``np.loadtxt`` reads it; blank and whitespace-only lines
    are skipped.  A ragged row, a non-numeric or non-finite field, or a file
    without data rows raises FormatError, with the 1-based line number
    (blank lines counted) where a line is at fault.
    """
    X, linenos, fault = _parse(path, np.float64, delimiter=",")
    _reject(path, linenos, fault, (~np.isfinite(X).all(axis=-1), "non-finite value"))
    return X


def read_label_file(path) -> np.ndarray:
    """Parse one nonnegative integer class index per line."""
    rows, linenos, fault = _parse(path, [("label", np.int64)])
    _reject(path, linenos, fault, (rows["label"] < 0, "negative label"))
    return rows["label"]


def read_labeled_nodes(path) -> LabelSet:
    """Parse a labeled-node file: one ``node class`` pair per line, '#' comments."""
    rows, linenos, fault = _parse(path, [("node", np.int64), ("cls", np.int64)], comments=True)
    node, cls = rows["node"], rows["cls"]
    _reject(path, linenos, fault, ((node < 0) | (cls < 0), "negative index"))
    return LabelSet(k=int(cls.max()) + 1, entries=tuple(zip(node.tolist(), cls.tolist())))


def read_edgelist(path, n=None) -> Graph:
    """Read an undirected edge-list text file.

    One edge per line as ``src dst weight`` with the weight optional
    (default 1.0), 0-indexed, each edge listed once in either orientation;
    lines starting with ``#`` and blank lines are ignored.  Self-loops are
    dropped with a warning and duplicate edges merge by maximum weight.
    When ``n`` is given, any endpoint >= n is a FormatError; otherwise n is
    inferred as the largest endpoint + 1.
    """
    rows, linenos, fault = _parse(
        path, [("src", np.int64), ("dst", np.int64), ("weight", np.float64)],
        comments=True, default="1",
    )
    src, dst, w = rows["src"], rows["dst"], rows["weight"]
    _reject(
        path, linenos, fault,
        ((src < 0) | (dst < 0), "negative node index"),
        (~np.isfinite(w) | (w < 0), "weight must be finite and nonnegative"),
        (np.maximum(src, dst) >= (np.inf if n is None else n),
         f"node index exceeds node count {n}"),
    )
    loops = src == dst
    for lineno, node in zip(linenos[loops], src[loops]):
        warnings.warn(f"{path}: line {lineno}: self-loop on node {node} dropped")
    src, dst, w = src[~loops], dst[~loops], w[~loops]
    if not src.size:
        raise FormatError(f"{path}: no edges found")
    count = n if n is not None else int(max(src.max(), dst.max())) + 1
    return graph_from_edges(count, src, dst, w)


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
    label sets on every platform.  ``labels_per_class`` is an integer >= 1,
    by :func:`errors.checked_int`.
    """
    m = checked_int(labels_per_class, "labels_per_class", low=1)
    entries = []
    for c in range(ds.k):
        members = ds.class_members(c)
        if members.size < m:
            raise InsufficientLabelsError(
                f"class {c} has {members.size} members, cannot draw {m} labels"
            )
        pool = members.tolist()
        stream = _stream(seed, c)
        for i in range(m):
            # uniform in [0, bound): rejection sampling avoids modulo bias
            bound = len(pool) - i
            limit = (1 << 64) - ((1 << 64) % bound)
            j = i + next(v for v in stream if v < limit) % bound
            pool[i], pool[j] = pool[j], pool[i]
        entries.extend((int(node), c) for node in pool[:m])
    entries.sort()
    return LabelSet(k=ds.k, entries=tuple(entries))
