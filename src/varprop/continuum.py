"""One-dimensional consistency checks linking the discrete operators to u'' + lam*u = 0.

On a uniform grid the second central difference reproduces u'' to O(h^2),
so cos(sqrt(lam)*x) must satisfy the discrete equation with a residual
that shrinks roughly 4x when the spacing halves.  Independently, the
uniform path graph's pencil (L, diag q) has the closed-form second
eigenvalue 2(n-1)(1 - cos(pi/(n-1))), whose eigenvector samples cos(pi x):
the first Neumann mode on [0, 1], the same whatever ``lam`` the residual
check uses.  Both checks are cheap and back the ``verify-pde`` CLI command.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import InvalidParameterError, checked_int
from .graph import Graph, graph_from_edges

__all__ = [
    "ContinuumConfig",
    "ResidualStats",
    "RefinementReport",
    "PathGraphReport",
    "path_graph",
    "path_graph_shift",
    "second_difference",
    "ode_residual_check",
    "residual_refinement_ratio",
    "discrete_vs_continuum",
    "write_residual_csv",
    "format_report",
]


# Least ratio lam^2 h^4 / (48 eps max(1, sqrt(lam))) of the residual's truncation
# term lam^2 h^2 / 12 to its rounding floor, about 4 eps max(1, sqrt(lam)) / h^2.
# Swept over lam in [0.001, 1000], refinement failed below 1.49 and gave 3.58-4 above 2.
_RESOLUTION = 2.0
# Largest sqrt(lam) * h on the coarse grid: past it the grid does not resolve
# cos(sqrt(lam) x), the h^2 term does not lead the residual yet, and refinement
# failed on a correct stencil (every failing pair of a sweep over lam in
# [0.001, 1e4] had sqrt(lam) * h >= 2.31).
_MAX_PHASE_STEP = 2.0


def _check_grid(n_grid: int, lam: float, refined: bool) -> None:
    """Raise InvalidParameterError unless ``n_grid`` points, and with ``refined``
    their refinement to 2*n_grid - 1, resolve cos(sqrt(lam) x) in double precision."""
    checked_int(n_grid, "n_grid", low=16)
    if not 0 < lam < math.inf:  # NaN fails too
        raise InvalidParameterError(f"lam must be finite and > 0, got {lam}")
    root = math.sqrt(lam)
    n_min = max(16, math.ceil(root / _MAX_PHASE_STEP) + 1)
    scale = 48.0 * np.finfo(np.float64).eps * max(1.0, root)
    finest = math.floor((lam**2 / (_RESOLUTION * scale)) ** 0.25) + 1
    n_max = (finest + 1) // 2 if refined else finest
    refine = " once refined to 2*n_grid-1 points" if refined else ""
    if n_max < n_min:
        raise InvalidParameterError(f"no n_grid resolves lam={lam:g}: even n_grid={n_min} is too "
                                    f"fine{refine}; double precision resolves {finest} points")
    if n_grid < n_min:
        raise InvalidParameterError(f"n_grid={n_grid} is too coarse to resolve cos(sqrt(lam) x) "
                                    f"at lam={lam:g}; the smallest n_grid accepted is {n_min}")
    if n_grid > n_max:
        raise InvalidParameterError(f"n_grid={n_grid} is too fine for double precision at "
                                    f"lam={lam:g}{refine}; the largest n_grid accepted is {n_max}")


@dataclass(frozen=True)
class ContinuumConfig:
    """Grid size and equation weight for the 1-D checks, which sample the
    uniform density on [0, 1].  ``n_grid`` is an integer, by
    :func:`errors.checked_int`.  It runs from 16, or from the coarsest grid
    with sqrt(lam) * h <= 2 if that is larger, up to the largest grid whose
    O(h^2) residual double precision resolves at this ``lam``."""

    n_grid: int
    lam: float

    def __post_init__(self):
        _check_grid(self.n_grid, self.lam, refined=False)

    @classmethod
    def refinable(cls, n_grid: int, lam: float) -> "ContinuumConfig":
        """A config whose 2*n_grid - 1 refinement is accepted too; errors name the limits."""
        _check_grid(n_grid, lam, refined=True)
        return cls(n_grid, lam)


@dataclass(frozen=True)
class ResidualStats:
    n_grid: int
    h: float
    max_residual: float
    mean_residual: float


@dataclass(frozen=True)
class RefinementReport:
    coarse: ResidualStats
    fine: ResidualStats
    ratio: float


@dataclass(frozen=True)
class PathGraphReport:
    n_grid: int
    shift: float
    fitted_lambda: float
    correlation: float


def second_difference(values, h: float) -> np.ndarray:
    """(v[j-1] - 2*v[j] + v[j+1]) / h^2 at the interior grid points.

    Exactly annihilates affine sequences (up to rounding).
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size < 3:
        raise InvalidParameterError("need a 1-D array with at least 3 samples")
    return (v[:-2] - 2.0 * v[1:-1] + v[2:]) / (h * h)


def _cosine_residual(cfg: ContinuumConfig):
    """Grid, sampled cos(sqrt(lam)*x), and the discrete residual at interior points."""
    x = np.linspace(0.0, 1.0, cfg.n_grid)
    v = np.cos(math.sqrt(cfg.lam) * x)
    return x, v, second_difference(v, x[1] - x[0]) + cfg.lam * v[1:-1]


def ode_residual_check(cfg: ContinuumConfig) -> ResidualStats:
    """Residual statistics of the discrete u'' + lam*u = 0 for cos(sqrt(lam)*x)."""
    x, _, resid = _cosine_residual(cfg)
    return ResidualStats(
        n_grid=cfg.n_grid,
        h=float(x[1] - x[0]),
        max_residual=float(np.abs(resid).max()),
        mean_residual=float(np.abs(resid).mean()),
    )


def residual_refinement_ratio(cfg: ContinuumConfig) -> RefinementReport:
    """Residual ratio between spacing h and exactly h/2; second order gives ~4."""
    cfg = ContinuumConfig.refinable(cfg.n_grid, cfg.lam)  # names the largest coarse grid
    coarse = ode_residual_check(cfg)
    fine = ode_residual_check(ContinuumConfig(n_grid=2 * cfg.n_grid - 1, lam=cfg.lam))
    return RefinementReport(coarse=coarse, fine=fine, ratio=coarse.max_residual / fine.max_residual)


def path_graph(n: int) -> Graph:
    """The unit-weight path graph on ``n`` nodes: the uniform grid on [0, 1]."""
    return graph_from_edges(n, np.arange(n - 1), np.arange(1, n))


def path_graph_shift(n: int) -> float:
    """Second eigenvalue of the pencil (L, diag q) of :func:`path_graph`:
    2(n-1)(1 - cos(pi/(n-1))), written as 4(n-1) sin^2(pi/(2(n-1))) to
    avoid cancellation."""
    return 4.0 * (n - 1) * math.sin(math.pi / (2 * (n - 1))) ** 2


def discrete_vs_continuum(cfg: ContinuumConfig) -> PathGraphReport:
    """Match the first nontrivial path-graph eigenvector to cos(pi x).

    Builds the path graph on cfg.n_grid nodes and finds the smallest
    positive shift making L - shift*diag(q) singular: the second eigenpair
    of the tridiagonal pencil (L, diag q), solved in O(n) memory after
    scaling by diag(q)^(-1/2).  Reports the shift (closed form:
    :func:`path_graph_shift`), shift / h as ``fitted_lambda`` (pi^2 up to
    O(h^2)) and the absolute Pearson correlation of the eigenvector with
    cos(pi x) sampled on the grid.  ``cfg.lam`` changes none of them.
    """
    n = cfg.n_grid
    g = path_graph(n)
    L = g.laplacian_matrix()
    s = 1.0 / np.sqrt(g.degree_weights)
    d, e = L.diagonal() * s * s, L.diagonal(1) * s[:-1] * s[1:]
    vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=(1, 1))
    shift = float(vals[0])
    x = np.linspace(0.0, 1.0, n)
    return PathGraphReport(
        n_grid=n,
        shift=shift,
        fitted_lambda=shift / (x[1] - x[0]),
        correlation=abs(float(np.corrcoef(s * vecs[:, 0], np.cos(math.pi * x))[0, 1])),
    )


def write_residual_csv(cfg: ContinuumConfig, path) -> None:
    """Write (x, value, residual) rows for the interior grid points."""
    x, v, resid = _cosine_residual(cfg)
    np.savetxt(path, np.column_stack([x[1:-1], v[1:-1], resid]), fmt="%.17g", delimiter=",",
               header="x,value,residual", comments="")


def format_report(refinement: RefinementReport, path_report: PathGraphReport) -> str:
    """Plain-text summary of both checks."""
    lines = [
        f"ode residual  n={r.n_grid:<5d} h={r.h:.6g} "
        f"max={r.max_residual:.6g} mean={r.mean_residual:.6g}"
        for r in (refinement.coarse, refinement.fine)
    ]
    lines += [
        f"refinement ratio (expect ~4): {refinement.ratio:.4f}",
        f"path graph    n={path_report.n_grid} shift={path_report.shift:.6g} "
        f"fitted_lambda={path_report.fitted_lambda:.6g} "
        f"correlation={path_report.correlation:.8f}",
    ]
    return "\n".join(lines)
