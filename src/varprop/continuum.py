"""One-dimensional consistency checks linking the discrete operators to u'' + lam*u = 0.

On a uniform grid the second central difference reproduces u'' to O(h^2),
so cos(sqrt(lam)*x) must satisfy the discrete equation with a residual
that shrinks roughly 4x when the spacing halves.  Independently, the
first nontrivial generalized eigenvector of a uniform path graph (with
the degree-weight matrix on the right) must line up with the same
cos/sin family.  Both checks are cheap and back the ``verify-pde`` CLI
command.

Note the sinusoid frequency is sqrt(lam), as dimensional analysis of
u'' + lam*u = 0 requires.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import InvalidParameterError, ScanError
from .graph import graph_from_edges

__all__ = [
    "ContinuumConfig",
    "ResidualStats",
    "RefinementReport",
    "PathGraphReport",
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


@dataclass(frozen=True)
class ContinuumConfig:
    """Grid size and equation weight for the 1-D checks, which sample the
    uniform density on [0, 1].  ``n_grid`` runs from 16, or from the
    coarsest grid with sqrt(lam) * h <= 2 if that is larger, up to the
    largest grid whose O(h^2) residual double precision resolves at this
    ``lam``."""

    n_grid: int
    lam: float

    def __post_init__(self):
        if self.n_grid < 16:
            raise InvalidParameterError("n_grid must be >= 16")
        if not 0 < self.lam < math.inf:  # NaN fails too
            raise InvalidParameterError(f"lam must be finite and > 0, got {self.lam}")
        root = math.sqrt(self.lam)
        if root > _MAX_PHASE_STEP * (self.n_grid - 1):
            n_min = math.ceil(root / _MAX_PHASE_STEP) + 1
            raise InvalidParameterError(
                f"n_grid={self.n_grid} is too coarse to resolve cos(sqrt(lam) x) at "
                f"lam={self.lam:g}; the smallest n_grid accepted is {n_min}"
            )
        scale = 48.0 * np.finfo(np.float64).eps * max(1.0, root)
        n_max = math.floor((self.lam**2 / (_RESOLUTION * scale)) ** 0.25) + 1
        if self.n_grid > n_max:
            raise InvalidParameterError(
                f"n_grid={self.n_grid} is too fine for double precision at lam={self.lam:g}; "
                f"the largest n_grid accepted is {n_max}"
            )


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
    coarse = ode_residual_check(cfg)
    fine = ode_residual_check(ContinuumConfig(n_grid=2 * cfg.n_grid - 1, lam=cfg.lam))
    return RefinementReport(coarse=coarse, fine=fine, ratio=coarse.max_residual / fine.max_residual)


def _fit_sinusoid(x, v, omega0):
    """Frequency in [omega0/2, 3 omega0/2] of the best cos/sin fit of ``v``, and that fit."""
    # at module level scipy.optimize adds ~14 MB and 0.2 s to every import of varprop
    from scipy.optimize import minimize_scalar

    def fit(w):
        basis = np.column_stack([np.cos(w * x), np.sin(w * x)])
        coef, *_ = np.linalg.lstsq(basis, v, rcond=None)
        return basis @ coef

    best = minimize_scalar(lambda w: float(np.sum((fit(w) - v) ** 2)), method="bounded",
                           bounds=(0.5 * omega0, 1.5 * omega0), options={"xatol": 1e-10})
    return float(best.x), fit(best.x)


def _pearson(a, b) -> float:
    a = a - a.mean()
    b = b - b.mean()
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    if denom == 0:
        return 0.0
    return float(abs(a @ b) / denom)


def discrete_vs_continuum(cfg: ContinuumConfig) -> PathGraphReport:
    """Match the first nontrivial path-graph eigenvector to a fitted sinusoid.

    Builds a unit-weight path graph on cfg.n_grid nodes and finds the
    smallest positive shift making L - shift*diag(q) singular: the second
    eigenpair of the tridiagonal pencil (L, diag q), solved in O(n) memory
    after scaling by diag(q)^(-1/2).  It then least-squares fits the null
    vector with a cos/sin pair, minimizing the fit error over a bounded
    frequency range, and reports the Pearson correlation between vector and
    fit along with the fitted continuum eigenvalue (the squared frequency).
    """
    n = cfg.n_grid
    g = graph_from_edges(n, np.arange(n - 1), np.arange(1, n))
    L = g.laplacian_matrix()
    s = 1.0 / np.sqrt(g.degree_weights)
    d, e = L.diagonal() * s * s, L.diagonal(1) * s[:-1] * s[1:]
    vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=(1, 1))
    shift = float(vals[0])
    if not shift > 0:
        raise ScanError("no positive shift with a singular system found in the spectrum")
    v = s * vecs[:, 0]
    x = np.linspace(0.0, 1.0, n)
    h = x[1] - x[0]
    omega0 = math.sqrt(shift / h)
    omega, fit = _fit_sinusoid(x, v, omega0)
    return PathGraphReport(
        n_grid=n,
        shift=shift,
        fitted_lambda=omega * omega,
        correlation=_pearson(v, fit),
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
