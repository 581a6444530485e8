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
from scipy import linalg as dense_linalg

from .errors import InvalidParameterError, ScanError

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


@dataclass(frozen=True)
class ContinuumConfig:
    """Grid size and equation weight for the 1-D checks, which sample the
    uniform density on [0, 1]."""

    n_grid: int
    lam: float

    def __post_init__(self):
        if self.n_grid < 16:
            raise InvalidParameterError("n_grid must be >= 16")
        if not 0 < self.lam < math.inf:  # NaN fails too
            raise InvalidParameterError(f"lam must be finite and > 0, got {self.lam}")


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
    fine_cfg = ContinuumConfig(n_grid=2 * cfg.n_grid - 1, lam=cfg.lam)
    fine = ode_residual_check(fine_cfg)
    return RefinementReport(coarse=coarse, fine=fine, ratio=coarse.max_residual / fine.max_residual)


def _path_laplacian(n: int) -> np.ndarray:
    main = np.full(n, 2.0)
    main[0] = main[-1] = 1.0
    off = -np.ones(n - 1)
    return np.diag(main) + np.diag(off, 1) + np.diag(off, -1)


def _fit_sinusoid(x, v, omega0):
    def evaluate(w):
        basis = np.column_stack([np.cos(w * x), np.sin(w * x)])
        coef, *_ = np.linalg.lstsq(basis, v, rcond=None)
        fit = basis @ coef
        return fit, float(np.sum((fit - v) ** 2))

    lo, hi = 0.5 * omega0, 1.5 * omega0
    best_w, best_fit, best_sse = omega0, None, np.inf
    for _ in range(3):
        grid = np.linspace(lo, hi, 801)
        for w in grid:
            fit, sse = evaluate(w)
            if sse < best_sse:
                best_w, best_fit, best_sse = float(w), fit, sse
        step = (hi - lo) / 800.0
        lo, hi = best_w - 2 * step, best_w + 2 * step
    return best_w, best_fit


def _pearson(a, b) -> float:
    a = a - a.mean()
    b = b - b.mean()
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    if denom == 0:
        return 0.0
    return float(abs(a @ b) / denom)


def discrete_vs_continuum(cfg: ContinuumConfig) -> PathGraphReport:
    """Match the first nontrivial path-graph eigenvector to a fitted sinusoid.

    Builds a unit-weight path graph on cfg.n_grid nodes, finds the smallest
    positive shift making L - shift*diag(q) singular via a dense generalized
    eigensolve, least-squares fits the corresponding null vector with a
    cos/sin pair over a scanned frequency range, and reports the Pearson
    correlation between vector and fit along with the fitted continuum
    eigenvalue (the squared frequency).
    """
    n = cfg.n_grid
    L = _path_laplacian(n)
    degrees = L.diagonal().copy()
    q = degrees / degrees.sum()
    vals, vecs = dense_linalg.eigh(L, np.diag(q))
    positive = np.flatnonzero(vals > 1e-9 * max(vals.max(), 1.0))
    if positive.size == 0:
        raise ScanError("no positive shift with a singular system found in the spectrum")
    j = int(positive[0])
    shift = float(vals[j])
    v = vecs[:, j]
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
    with open(path, "w") as fh:
        fh.write("x,value,residual\n")
        for xi, vi, ri in zip(x[1:-1], v[1:-1], resid):
            fh.write(f"{xi:.17g},{vi:.17g},{ri:.17g}\n")


def format_report(refinement: RefinementReport, path_report: PathGraphReport) -> str:
    """Plain-text summary of both checks."""
    lines = [
        f"ode residual  n={refinement.coarse.n_grid:<5d} h={refinement.coarse.h:.6g} "
        f"max={refinement.coarse.max_residual:.6g} mean={refinement.coarse.mean_residual:.6g}",
        f"ode residual  n={refinement.fine.n_grid:<5d} h={refinement.fine.h:.6g} "
        f"max={refinement.fine.max_residual:.6g} mean={refinement.fine.mean_residual:.6g}",
        f"refinement ratio (expect ~4): {refinement.ratio:.4f}",
        f"path graph    n={path_report.n_grid} shift={path_report.shift:.6g} "
        f"fitted_lambda={path_report.fitted_lambda:.6g} "
        f"correlation={path_report.correlation:.8f}",
    ]
    return "\n".join(lines)
