"""Closed-form checks of the four solvers and of the pencil on the unit path graph.

:func:`path_graph` on n nodes is the uniform grid on [0, 1], with spacing
1/(n - 1).  Label node 0 class 0 and node n - 1 class 1.  Then each
method's first score column u has a closed form, with h = (n - 1)/2 and
cos w = 1 - lam/(2(n - 1)):

    laplace     1 - i/(n - 1), affine (Zhu, Ghahramani & Lafferty 2003)
    poisson     -(i - h)/2, affine with zero q-mean
    v_laplace   1/2 - sin(w(i - h)) / (2 sin wh)
    v_poisson   sin(w(i - h)) / (2(sin w(h - 1) - cos w sin wh))

The second column is 1 - u for the clamped family and -u for the poisson
family.  An interior node has q_i = 1/(n - 1), so the v_* rows read
u_(i-1) + u_(i+1) = 2 cos(w) u_i there, the discrete u'' + lam*u = 0
(Strang, Computational Science and Engineering, 2007, ch. 1).  Both v_*
solutions are odd about h: the v_laplace mean ubar is 1/2, and the
v_poisson mean vanishes.  The ends fix the amplitude: u_0 = 1 for
v_laplace, and the source row cos(w) u_0 - u_1 = 1/2 for v_poisson.

Independently, the pencil (L, diag q) of the path has the closed-form
second eigenvalue 2(n-1)(1 - cos(pi/(n-1))), whose eigenvector samples
cos(pi x): the first Neumann mode on [0, 1].  Both checks back the
``verify-pde`` CLI command.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import checked_int
from .graph import Graph, LabelSet, graph_from_edges
from .solvers import METHODS, SolverConfig, solve

__all__ = [
    "ClosedFormCheck",
    "PathGraphReport",
    "closed_form_checks",
    "discrete_vs_continuum",
    "path_closed_form",
    "path_graph",
    "path_graph_shift",
]

# the fractions of the path's lambda_2 at which the v_* methods are checked;
# solve warns for v_poisson at the last two
_FRACTIONS = (0.5, 0.9, 0.99)


def _grid(n) -> int:
    """``n`` as an int from 16 to 2201; the 8 solves take about 2 s at 2201."""
    return checked_int(n, "n_grid", low=16, high=2202)


@dataclass(frozen=True)
class PathGraphReport:
    n_grid: int
    shift: float
    fitted_lambda: float
    correlation: float


@dataclass(frozen=True)
class ClosedFormCheck:
    """One method's solves on the labeled path against :func:`path_closed_form`.

    ``fractions`` are the fractions of lambda_2 solved at, (0.0,) for
    laplace and poisson.  ``error`` is the largest relative error
    max|u - exact| / max|exact| over them, and ``warned`` lists those whose
    solve warned.
    """

    method: str
    fractions: tuple
    error: float
    warned: tuple


def path_graph(n: int) -> Graph:
    """The unit-weight path graph on ``n`` nodes: the uniform grid on [0, 1]."""
    return graph_from_edges(n, np.arange(n - 1), np.arange(1, n))


def path_graph_shift(n: int) -> float:
    """Second eigenvalue of the pencil (L, diag q) of :func:`path_graph`:
    2(n-1)(1 - cos(pi/(n-1))), written as 4(n-1) sin^2(pi/(2(n-1))) to
    avoid cancellation."""
    return 4.0 * (n - 1) * math.sin(math.pi / (2 * (n - 1))) ** 2


def path_closed_form(method: str, n: int, lam: float) -> np.ndarray:
    """The (n, 2) scores of ``method`` at variance weight ``lam`` on
    :func:`path_graph` with node 0 in class 0 and node n - 1 in class 1,
    from the closed forms of the module docstring.  ``w`` is the arccosine
    of cos w as rounded, the value the solved rows carry.  Near lambda_2
    the v_poisson amplitude grows as 1/cos(wh): there a w free of that
    rounding missed the solve by 1.2e-9 relative at n = 2201, and this one
    by 4.4e-11."""
    i = np.arange(n)
    h = (n - 1) / 2
    cos_w = 1.0 - lam / (2 * (n - 1))
    w = math.acos(cos_w)
    if method == "laplace":
        u = 1.0 - i / (n - 1)
    elif method == "poisson":
        u = -(i - h) / 2
    elif method == "v_laplace":
        u = 0.5 - np.sin(w * (i - h)) / (2 * math.sin(w * h))
    else:
        u = np.sin(w * (i - h)) / (2 * (math.sin(w * (h - 1)) - cos_w * math.sin(w * h)))
    return np.column_stack([u, 1.0 - u if method in ("laplace", "v_laplace") else -u])


def closed_form_checks(n: int) -> list:
    """Solve each method on :func:`path_graph` (``n`` from 16 to 2201)
    with node 0 in class 0 and node n - 1 in class 1, and compare it with
    :func:`path_closed_form`.

    Each solve runs at the :class:`SolverConfig` defaults but ``lam``:
    laplace and poisson once, the v_* methods at 0.5, 0.9 and 0.99 times
    the path's lambda_2 (``estimate_stability_limit``).  The solves'
    warnings are recorded, not shown.  Returns one :class:`ClosedFormCheck`
    per method, in the order of ``METHODS``.
    """
    n = _grid(n)
    g = path_graph(n)
    labels = LabelSet(k=2, entries=((0, 0), (n - 1, 1)))
    checks = []
    for method in METHODS:
        fractions = _FRACTIONS if SolverConfig(method=method).variance_weight else (0.0,)
        errors, warned = [], []
        for f in fractions:
            lam = f * g._stability_limit
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                u = solve(g, labels, SolverConfig(lam=lam, method=method)).u
            exact = path_closed_form(method, n, lam)
            errors.append(float(np.abs(u - exact).max() / np.abs(exact).max()))
            if caught:
                warned.append(f)
        checks.append(ClosedFormCheck(method, fractions, max(errors), tuple(warned)))
    return checks


def discrete_vs_continuum(n: int) -> PathGraphReport:
    """Match the first nontrivial path-graph eigenvector to cos(pi x).

    Builds the path graph on ``n`` nodes (16 to 2201) and finds the
    smallest positive shift making L - shift*diag(q) singular: the second
    eigenpair of the tridiagonal pencil (L, diag q), solved in O(n) memory
    after scaling by diag(q)^(-1/2).  Reports the shift (closed form:
    :func:`path_graph_shift`), shift / h as ``fitted_lambda`` (pi^2 up to
    O(h^2)) and the absolute Pearson correlation of the eigenvector with
    cos(pi x) sampled on the grid.
    """
    n = _grid(n)
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
