"""Graph-based semi-supervised label propagation with variance-regularized solvers.

Build a sparse similarity graph (or load one), clamp or source a handful
of labeled nodes, and propagate: ``laplace``, ``poisson``, and their
variance-regularized counterparts ``v_laplace`` and ``v_poisson``.
Includes closed-form checks of the solvers on the path graph, dataset
loaders, a seeded benchmark harness, and a CLI (``varprop``).
"""

from .bench import TrialReport, accuracy_on_unlabeled, emit_table, run_trials
from .continuum import PathGraphReport, discrete_vs_continuum
from .data import (
    Dataset,
    derive_trial_seed,
    load_feature_dataset,
    load_graph_dataset,
    read_edgelist,
    sample_label_set,
    with_knn_graph,
    write_edgelist,
)
from .graph import (
    Graph,
    LabelSet,
    build_knn_graph,
    graph_from_edges,
    laplacian_apply,
    objective_value,
    variance,
    weighted_mean,
)
from .solvers import (
    METHODS,
    SolveResult,
    SolverConfig,
    estimate_stability_limit,
    predict,
    solve,
)
from .synth import make_cluster_dataset

__version__ = "0.1.0"

__all__ = [
    "METHODS",
    "Dataset",
    "Graph",
    "LabelSet",
    "PathGraphReport",
    "SolveResult",
    "SolverConfig",
    "TrialReport",
    "accuracy_on_unlabeled",
    "build_knn_graph",
    "derive_trial_seed",
    "discrete_vs_continuum",
    "emit_table",
    "estimate_stability_limit",
    "graph_from_edges",
    "laplacian_apply",
    "load_feature_dataset",
    "load_graph_dataset",
    "make_cluster_dataset",
    "objective_value",
    "predict",
    "read_edgelist",
    "run_trials",
    "sample_label_set",
    "solve",
    "variance",
    "weighted_mean",
    "with_knn_graph",
    "write_edgelist",
]
