"""The four label-propagation solvers and their dense reference counterpart.

``solve`` runs the method that ``SolverConfig.method`` names, and
``dense_oracle_solve`` is its dense reference.  Both take a Graph, a
LabelSet and a SolverConfig and return a SolveResult whose ``u`` is the
(n, k) label-score matrix.

``laplace``    clamps labeled nodes to their one-hot targets and makes u
               harmonic (Lu = 0) at every unlabeled node.
``poisson``    replaces clamping with point sources: Lu_i = y_i - ybar at
               labeled nodes and 0 elsewhere, where ybar is the mean of
               the labeled one-hot vectors, under the degree-weighted
               zero-mean constraint sum_i q_i u_i = 0.
``v_laplace``  keeps the clamping but changes the unlabeled stationarity
               to Lu_i = lam * q_i * (u_i - ubar), with ubar the degree
               weighted mean of u over all nodes.  At the default
               lam = 0.1 its desk accuracy equals laplace's; no run shows
               yet that the rewarded spread counters collapse (ROADMAP
               item 1).  Since ubar = q_u^T u_u + q_l^T y is linear in
               the unknowns, this is the single system
               (L_uu - lam diag(q_u) + lam q_u q_u^T) u_u
               = -L_ul y - lam q_u (q_l^T y),
               whose matvec adds the rank-one coupling to the sparse
               shifted block.
``v_poisson``  adds the same variance term to the poisson system, giving
               (L - lam * diag(q)) u = source under the zero-mean
               constraint (the constraint makes ubar vanish).

Each method's system is assembled once, by ``_assemble``; ``solve`` runs
one Jacobi-PCG on it and ``dense_oracle_solve`` factors it densely.

The variance term is maximized, so both v_* systems lose positive
definiteness once ``lam`` passes a graph-dependent stability bound.  For
the poisson family ``solve`` reads that bound from the coefficients of its
own PCG and warns, after the iteration, when ``lam`` is within 10% of it.
v_laplace is SPD for lam below 1/lambda_max(diag(q_u) - q_u q_u^T, L_uu),
which is at least lambda_2 of the pencil (L, diag q); ``solve`` does not
warn near it.  Breakdown raises DivergenceError.
"""

import math
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy import sparse
from scipy.linalg import eigvalsh_tridiagonal

from .errors import (
    DivergenceError,
    IllPosedError,
    InvalidInputError,
    InvalidParameterError,
    OracleSizeError,
)
from .graph import Graph, LabelSet

__all__ = [
    "METHODS",
    "SolverConfig",
    "SolveResult",
    "solve",
    "dense_oracle_solve",
    "predict",
    "estimate_stability_limit",
]

METHODS = ("laplace", "poisson", "v_laplace", "v_poisson")

_ORACLE_MAX_NODES = 500


@dataclass(frozen=True)
class SolverConfig:
    """Solver parameters: variance weight ``lam``, relative residual
    tolerance (at least machine epsilon), iteration cap and method selector.
    """

    lam: float = 0.1
    tol: float = 1e-8
    max_iter: int = 10000
    method: str = "laplace"
    # a constant, not a field: perfbench/checks.py still reads it
    variance_on_labeled: ClassVar[bool] = True

    def __post_init__(self):
        # written so that NaN fails each check
        if not 0 <= self.lam < math.inf:
            raise InvalidParameterError(f"lam must be finite and >= 0, got {self.lam}")
        if not np.finfo(float).eps <= self.tol < math.inf:
            raise InvalidParameterError(f"tol must be finite and >= machine epsilon, got {self.tol}")
        if self.max_iter < 1:
            raise InvalidParameterError("max_iter must be >= 1")
        if self.method not in METHODS:
            raise InvalidParameterError(
                f"unknown method {self.method!r}; choose one of {METHODS}"
            )

    @property
    def variance_weight(self) -> float:
        """Variance weight of the solved system: ``lam`` for the v_* methods, else 0.0."""
        return self.lam if self.method in ("v_laplace", "v_poisson") else 0.0


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solve.

    ``u`` is the (n, k) score matrix.  ``iterations`` is the PCG iteration
    count of the one linear system the method solves (0 for the trivial
    cases and for ``dense_oracle_solve``).  ``final_residual`` is the
    Frobenius norm of that system's residual relative to its right-hand
    side.  ``converged`` is False when ``max_iter`` ran out first; ``u`` is
    then the last iterate, the one ``final_residual`` describes.
    """

    u: np.ndarray
    iterations: int
    final_residual: float
    converged: bool


def _pcg(matvec, b, diag, tol, max_iter, project=None):
    """Jacobi-preconditioned conjugate gradients on the columns of ``b``.

    Returns ``(x, iterations, relative_residual, converged, coeffs)`` with
    the residual measured in the Frobenius norm relative to ``|b|`` and
    ``coeffs`` the per-iteration, per-column step and direction
    coefficients ``(alphas, betas)``.  When ``project`` is given it is
    applied to every preconditioned direction so the iterates stay inside
    the constraint subspace.  There are three exits: convergence returns
    the current iterate; running out of ``max_iter`` returns the last
    iterate with ``converged=False``; a direction of negative curvature
    raises DivergenceError.  Returning the last iterate is sound: each CG
    iterate minimizes the A-norm error over its Krylov space.  The work
    arrays are updated in place, and the (nonnegative) curvature scale is
    computed only when some ``pAp`` is negative.
    """
    bnorm = float(np.linalg.norm(b))
    x = np.zeros_like(b)
    alphas, betas = [], []
    if bnorm == 0.0:
        return x, 0, 0.0, True, (alphas, betas)
    D = np.broadcast_to(diag[:, None], b.shape).copy()
    r = b.copy()
    z = r / D
    if project is not None:
        z = project(z)
    p = z.copy()
    t = np.empty_like(b)
    rz = np.einsum("ij,ij->j", r, z)
    for iterations in range(1, max_iter + 1):
        Ap = matvec(p)
        pAp = np.einsum("ij,ij->j", p, Ap)
        if (pAp < 0).any() and (pAp < -1e-10 * np.einsum("ij,ij->j", np.abs(p), np.abs(Ap))).any():
            raise DivergenceError(
                "negative curvature encountered: the operator is not positive definite "
                "(for v_laplace and v_poisson, lam is past the stability bound)"
            )
        alpha = np.divide(rz, pAp, out=np.zeros_like(rz), where=pAp > 0)
        alphas.append(alpha)
        x += np.multiply(alpha, p, out=t)
        r -= np.multiply(alpha, Ap, out=t)
        rel = float(np.linalg.norm(r)) / bnorm
        if rel <= tol:
            return x, iterations, rel, True, (alphas, betas)
        np.divide(r, D, out=z)
        if project is not None:
            z = project(z)
        rz_new = np.einsum("ij,ij->j", r, z)
        beta = np.divide(rz_new, rz, out=np.zeros_like(rz), where=np.abs(rz) > 0)
        betas.append(beta)
        p *= beta
        p += z
        rz = rz_new
    return x, max_iter, rel, False, (alphas, betas)


def _smallest_ritz(alphas, betas) -> float:
    """Smallest Ritz value of the Jacobi-preconditioned operator of one ``_pcg`` run.

    Each column's coefficients define a Lanczos tridiagonal with diagonal
    ``1/a_i + b_(i-1)/a_(i-1)`` and off-diagonal ``sqrt(b_i)/a_i`` (Saad,
    Iterative Methods for Sparse Linear Systems, section 6.7), whose lowest
    eigenvalue approaches the operator's from above.  A column's recurrence
    ends at its first zero step; a zero right-hand-side column has none.
    """
    a = np.array(alphas)
    b = np.array(betas).reshape(-1, a.shape[1])
    theta = np.inf
    for aj, bj in zip(a.T, b.T):
        m = int(np.cumprod(aj > 0).sum())
        if m:
            aj, bj = aj[:m], bj[: m - 1]
            d = 1.0 / aj
            d[1:] += bj / aj[:-1]
            low = eigvalsh_tridiagonal(d, np.sqrt(bj) / aj[:-1], select="i", select_range=(0, 0))
            theta = min(theta, float(low[0]))
    return theta


def estimate_stability_limit(g: Graph) -> float:
    """lambda_2 of the pencil (L, diag q): the v_poisson stability bound.

    Every v_* system is positive definite for ``lam`` below lambda_2.  The
    value is the smallest Ritz value of one Jacobi-PCG solve of the
    ``lam = 0`` poisson system with a fixed right-hand side, times the total
    degree, and lies within 1% above lambda_2.  Returns 0.0 on a
    disconnected graph, where lambda_2 vanishes.
    """
    if g.components[0] != 1:
        return 0.0
    b = np.cos(1.3 * np.arange(g.n) + 0.9)[:, None]
    b -= b.mean()  # in the range of L, like every poisson source
    system = _System(A=g.laplacian_matrix(), rhs=b, lam=0.0, q=g.degree_weights)
    coeffs = _pcg(system.matvec, b, system.diagonal, 1e-12, g.n, project=system.project)[4]
    return _smallest_ritz(*coeffs) * float(g.degrees.sum())


@dataclass(frozen=True)
class _System:
    """One method's linear system ``(A + lam c c^T) x = rhs``.

    The clamped family (laplace, v_laplace) solves for the rows ``free``;
    ``clamped`` holds the one-hot targets at labeled rows.  The poisson
    family solves for all rows under the constraint ``q^T x = 0``: the
    range side of the operator and every search direction are projected.
    Only v_laplace has the rank-one mean coupling, ``c = q_u``.
    """

    A: sparse.csr_array
    rhs: np.ndarray
    lam: float
    coupling: np.ndarray = None
    free: np.ndarray = None
    clamped: np.ndarray = None
    q: np.ndarray = None

    @property
    def trivial(self) -> bool:
        """No unknowns (every node labeled) or a zero right-hand side."""
        return not self.rhs.any()

    @property
    def diagonal(self) -> np.ndarray:
        d = self.A.diagonal()
        if self.coupling is not None:
            d += self.lam * self.coupling**2
        return d

    def matvec(self, v):
        Av = self.A @ v
        if self.coupling is not None:
            Av += self.lam * np.einsum("i,j->ij", self.coupling, self.coupling @ v)
        if self.q is not None:
            # remove the constraint-multiplier direction from the range side
            Av -= np.einsum("i,j->ij", self.q, np.einsum("ij->j", Av))
        return Av

    @property
    def project(self):
        q = self.q
        # keep iterates in the zero q-mean subspace, in place
        return None if q is None else lambda v: np.subtract(v, q @ v, out=v)

    def result(self, x, iterations, final_residual, converged) -> SolveResult:
        u = x
        if self.free is not None:
            u = self.clamped.copy()
            u[self.free] = x
        return SolveResult(
            u=u, iterations=iterations, final_residual=final_residual, converged=converged
        )


def _assemble(g: Graph, labels: LabelSet, cfg: SolverConfig) -> _System:
    """Check the problem and build the system of ``cfg.method``.

    Raises InvalidInputError for unknown labeled nodes and IllPosedError
    when a clamped problem has an unlabeled component or a poisson-type
    problem has a disconnected graph.  Warns when the poisson source
    vanishes; the returned system is then trivial.
    """
    if labels.nodes.max() >= g.n:
        raise InvalidInputError(
            f"labeled node {labels.nodes.max()} does not exist in a {g.n}-node graph"
        )
    ncomp, comp = g.components
    lam = cfg.variance_weight
    q = g.degree_weights
    il = labels.nodes
    y = labels.onehot_matrix()

    if cfg.method in ("laplace", "v_laplace"):
        missing = ncomp - np.unique(comp[il]).size
        if missing:
            raise IllPosedError(
                f"{missing} connected component(s) contain no labeled node; "
                "propagation cannot reach them"
            )
        iu = np.setdiff1d(np.arange(g.n), il)
        clamped = np.zeros((g.n, labels.k))
        clamped[il] = y
        Lu = g.laplacian_matrix()[iu]
        A = Lu[:, iu]
        rhs = -(Lu[:, il] @ y)
        coupling = None
        if lam > 0:
            # L_uu u - lam q_u (u - ubar) = -L_ul y with ubar = q_u^T u + q_l^T y
            # moves the mean into the operator as the coupling lam q_u q_u^T
            coupling = q[iu]
            A = (A - lam * sparse.diags_array(coupling)).tocsr()
            rhs -= lam * np.outer(coupling, q[il] @ y)
        return _System(A=A, rhs=rhs, lam=lam, coupling=coupling, free=iu, clamped=clamped)

    if ncomp != 1:
        raise IllPosedError(
            f"poisson-type learning requires a connected graph, found {ncomp} components"
        )
    source = np.zeros((g.n, labels.k))
    source[il] = y - y.mean(axis=0)
    if not source.any():
        warnings.warn(
            "poisson source vanished (single labeled node or a single represented "
            "class); returning the zero solution",
            RuntimeWarning,
            stacklevel=3,
        )
    A = g.laplacian_matrix()
    if lam > 0:
        A = (A - lam * sparse.diags_array(q)).tocsr()
    return _System(A=A, rhs=source, lam=lam, q=q)


def solve(g: Graph, labels: LabelSet, cfg: SolverConfig) -> SolveResult:
    """Run the solver selected by ``cfg.method``: one Jacobi-PCG solve of its system.

    Checks run in this order: labeled nodes, component coverage or
    connectivity, the trivial cases (every node labeled, vanished poisson
    source), a nonpositive Jacobi diagonal, then negative curvature in the
    PCG; both of the last raise DivergenceError.  After the PCG, a poisson
    family solve with ``lam > 0`` warns when ``lam`` is at or above 0.9x
    the bound it read from its smallest Ritz value.
    """
    system = _assemble(g, labels, cfg)
    if system.trivial:
        return system.result(np.zeros_like(system.rhs), 0, 0.0, True)
    diag = system.diagonal
    if diag.min() <= 0:
        raise DivergenceError(
            f"variance weight lam={system.lam:g} drives the shifted diagonal nonpositive; "
            "it is past the stability bound"
        )
    x, iters, rel, conv, coeffs = _pcg(
        system.matvec, system.rhs, diag, cfg.tol, cfg.max_iter, project=system.project
    )
    if system.q is not None and system.lam > 0:
        # the Jacobi diagonal of L - lam diag(q) is q (S - lam), S the total degree
        bound = system.lam + _smallest_ritz(*coeffs) * (g.degrees.sum() - system.lam)
        if system.lam >= 0.9 * bound:
            warnings.warn(
                f"variance weight lam={system.lam:g} is at or above 0.9x the stability "
                f"bound {bound:.4g} read from this solve",
                RuntimeWarning,
                stacklevel=2,
            )
    return system.result(x, iters, rel, conv)


def predict(u) -> np.ndarray:
    """Argmax class decoding; ties resolve to the lowest class index."""
    arr = np.asarray(u)
    if arr.ndim != 2 or arr.size == 0:
        raise InvalidInputError("need a nonempty (n, k) score matrix")
    return np.argmax(arr, axis=1)


def dense_oracle_solve(g: Graph, labels: LabelSet, cfg: SolverConfig) -> SolveResult:
    """Dense-factorization reference solver for tests and verification.

    Assembles the same system as ``solve`` and factors it with
    numpy.linalg.solve: the sparse block densified plus the rank-one mean
    coupling of v_laplace, bordered by the zero-mean constraint for the
    poisson family.  ``final_residual`` is measured with the system's own
    matvec.  It never warns about stability and never raises
    DivergenceError; a singular system raises IllPosedError.  Capped at
    500 nodes.
    """
    if g.n > _ORACLE_MAX_NODES:
        raise OracleSizeError(
            f"dense oracle is capped at {_ORACLE_MAX_NODES} nodes, got {g.n}"
        )
    system = _assemble(g, labels, cfg)
    if system.trivial:
        return system.result(np.zeros_like(system.rhs), 0, 0.0, True)
    M = system.A.toarray()
    rhs = system.rhs
    if system.coupling is not None:
        M += system.lam * np.outer(system.coupling, system.coupling)
    if system.q is not None:
        q = system.q[:, None]
        M = np.block([[M, q], [q.T, np.zeros((1, 1))]])
        rhs = np.vstack([rhs, np.zeros((1, rhs.shape[1]))])
    try:
        x = np.linalg.solve(M, rhs)[: system.rhs.shape[0]]
    except np.linalg.LinAlgError as exc:
        raise IllPosedError(f"{cfg.method} system is singular: {exc}") from exc
    resid = system.rhs - system.matvec(x)
    rel = float(np.linalg.norm(resid)) / float(np.linalg.norm(system.rhs))
    return system.result(x, 0, rel, True)
