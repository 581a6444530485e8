"""Independent residual check of a solver result.

The residual is recomputed from the public operators only
(``laplacian_apply``, ``Graph.degree_weights``, ``LabelSet.onehot_matrix``),
so it does not share code with the solver it checks.
"""

import numpy as np

from varprop import laplacian_apply

# The solvers stop at a relative residual of cfg.tol = 1e-8 on their own
# recurrence; the recomputed residual may drift above it by roundoff.
RESIDUAL_FACTOR = 100.0


def _rel(num, den):
    den = float(np.linalg.norm(den))
    return float(np.linalg.norm(num)) / den if den > 0 else float(np.linalg.norm(num))


def relative_residual(g, labels, cfg, u):
    """Relative residual of ``u`` against the equation of ``cfg.method``."""
    q = g.degree_weights
    y = labels.onehot_matrix()
    il = labels.nodes
    lu = laplacian_apply(g, u)
    if cfg.method in ("laplace", "v_laplace"):
        lam = cfg.lam if cfg.method == "v_laplace" else 0.0
        free = np.ones(g.n, dtype=bool)
        free[il] = False
        clamped = np.zeros_like(u)
        clamped[il] = y
        rhs = laplacian_apply(g, clamped)[free]
        r = lu[free] - lam * q[free][:, None] * (u[free] - q @ u)
        clamp_error = float(np.abs(u[il] - y).max())
        return max(_rel(r, rhs), clamp_error)
    lam = cfg.lam if cfg.method == "v_poisson" else 0.0
    source = np.zeros_like(u)
    source[il] = y - y.mean(axis=0)
    qmask = q.copy()
    if not cfg.variance_on_labeled:
        qmask[il] = 0.0
    raw = source - (lu - lam * qmask[:, None] * u)
    r = raw - q[:, None] * raw.sum(axis=0)
    mean_error = _rel(q @ u, u)
    return max(_rel(r, source), mean_error)


def check(g, labels, cfg, result):
    """Return ``(kind, residual)``: kind is None when the result passes,
    else "nonconverged" or "residual"."""
    res = relative_residual(g, labels, cfg, result.u)
    if not result.converged:
        return "nonconverged", res
    if not res <= RESIDUAL_FACTOR * cfg.tol:
        return "residual", res
    return None, res
