"""The four label-propagation solvers and their dense reference counterpart.

All solvers take a Graph, a LabelSet and a SolverConfig and return a
SolveResult whose ``u`` is the (n, k) label-score matrix.

``laplace``    clamps labeled nodes to their one-hot targets and makes u
               harmonic (Lu = 0) at every unlabeled node.
``poisson``    replaces clamping with point sources: Lu_i = y_i - ybar at
               labeled nodes and 0 elsewhere, where ybar is the mean of
               the labeled one-hot vectors, under the degree-weighted
               zero-mean constraint sum_i q_i u_i = 0.
``v_laplace``  keeps the clamping but changes the unlabeled stationarity
               to Lu_i = lam * q_i * (u_i - ubar), with ubar the degree
               weighted mean of u over all nodes.  Rewarding spread this
               way counteracts the near-constant collapse of clamped
               propagation at very low label rates.
``v_poisson``  adds the same variance term to the poisson system, giving
               (L - lam * diag(q)) u = source under the zero-mean
               constraint (the constraint makes ubar vanish).

Each method's system is assembled once, by ``_assemble``; ``solve`` runs
one Jacobi-PCG on it and ``dense_oracle_solve`` factors it densely.

The variance term is maximized, so both v_* systems lose positive
definiteness once ``lam`` passes a graph-dependent stability bound.  For
the poisson family ``solve`` reads that bound from the coefficients of its
own PCG and warns, after the iteration, when ``lam`` is within 10% of it;
v_laplace gets no such warning.  Breakdown raises DivergenceError.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.linalg import eigvalsh_tridiagonal
from scipy.sparse import csgraph

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
    "laplace_solve",
    "poisson_solve",
    "v_laplace_solve",
    "v_poisson_solve",
    "dense_oracle_solve",
    "predict",
    "estimate_stability_limit",
]

METHODS = ("laplace", "poisson", "v_laplace", "v_poisson")

_ORACLE_MAX_NODES = 500


@dataclass(frozen=True)
class SolverConfig:
    """Solver parameters: variance weight ``lam``, relative residual
    tolerance, iteration cap and method selector.

    ``variance_on_labeled`` only affects ``v_poisson``: when False the
    diagonal variance shift is applied at unlabeled nodes only.
    """

    lam: float = 0.1
    tol: float = 1e-8
    max_iter: int = 10000
    method: str = "laplace"
    variance_on_labeled: bool = True

    def __post_init__(self):
        if self.lam < 0:
            raise InvalidParameterError("lam must be >= 0")
        if self.tol <= 0:
            raise InvalidParameterError("tol must be > 0")
        if self.max_iter < 1:
            raise InvalidParameterError("max_iter must be >= 1")
        if self.method not in METHODS:
            raise InvalidParameterError(
                f"unknown method {self.method!r}; choose one of {METHODS}"
            )


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
    iterate minimizes the A-norm error over its Krylov space.
    """
    bnorm = float(np.linalg.norm(b))
    x = np.zeros_like(b)
    alphas, betas = [], []
    if bnorm == 0.0:
        return x, 0, 0.0, True, (alphas, betas)
    r = b.copy()
    z = r / diag[:, None]
    if project is not None:
        z = project(z)
    p = z.copy()
    rz = np.einsum("ij,ij->j", r, z)
    for iterations in range(1, max_iter + 1):
        Ap = matvec(p)
        pAp = np.einsum("ij,ij->j", p, Ap)
        scale = np.einsum("ij,ij->j", np.abs(p), np.abs(Ap))
        if np.any(pAp < -1e-10 * scale):
            raise DivergenceError(
                "negative curvature encountered: the operator is not positive definite "
                "(for v_laplace and v_poisson, lam is past the stability bound)"
            )
        alpha = np.divide(rz, pAp, out=np.zeros_like(rz), where=pAp > 0)
        alphas.append(alpha)
        x += alpha * p
        r -= alpha * Ap
        rel = float(np.linalg.norm(r)) / bnorm
        if rel <= tol:
            return x, iterations, rel, True, (alphas, betas)
        z = r / diag[:, None]
        if project is not None:
            z = project(z)
        rz_new = np.einsum("ij,ij->j", r, z)
        beta = np.divide(rz_new, rz, out=np.zeros_like(rz), where=np.abs(rz) > 0)
        betas.append(beta)
        p = z + beta * p
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
    ncomp, _ = csgraph.connected_components(g.adjacency, directed=False)
    if ncomp != 1:
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

    A: sparse.csr_matrix
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
            Av += self.lam * np.outer(self.coupling, self.coupling @ v)
        if self.q is not None:
            # remove the constraint-multiplier direction from the range side
            Av -= self.q[:, None] * Av.sum(axis=0)
        return Av

    @property
    def project(self):
        q = self.q
        # keep iterates in the zero q-mean subspace
        return None if q is None else lambda v: v - q @ v

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
    ncomp, comp = csgraph.connected_components(g.adjacency, directed=False)
    lam = cfg.lam if cfg.method in ("v_laplace", "v_poisson") else 0.0
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
            A = (A - lam * sparse.diags(coupling)).tocsr()
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
        qmask = q.copy()
        if not cfg.variance_on_labeled:
            qmask[il] = 0.0
        A = (A - lam * sparse.diags(qmask)).tocsr()
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


def laplace_solve(g: Graph, labels: LabelSet, cfg: SolverConfig = None) -> SolveResult:
    """Harmonic interpolation with labeled nodes clamped to their one-hot targets."""
    return solve(g, labels, replace(cfg or SolverConfig(), method="laplace"))


def poisson_solve(g: Graph, labels: LabelSet, cfg: SolverConfig = None) -> SolveResult:
    """Source-term propagation: Lu = y_i - ybar at labeled nodes, zero-mean constrained."""
    return solve(g, labels, replace(cfg or SolverConfig(), method="poisson"))


def v_laplace_solve(g: Graph, labels: LabelSet, cfg: SolverConfig = None) -> SolveResult:
    """Clamped propagation whose unlabeled stationarity is Lu_i = lam q_i (u_i - ubar).

    Since ubar = q_u^T u_u + q_l^T y is linear in the unknowns, this is the
    single system (L_uu - lam diag(q_u) + lam q_u q_u^T) u_u
    = -L_ul y - lam q_u (q_l^T y), solved with one PCG whose matvec adds
    the rank-one coupling to the sparse shifted block.  It is SPD for lam
    below 1/lambda_max(diag(q_u) - q_u q_u^T, L_uu), which is at least
    lambda_2 of the pencil (L, diag q); ``solve`` does not warn near it.
    """
    return solve(g, labels, replace(cfg or SolverConfig(), method="v_laplace"))


def v_poisson_solve(g: Graph, labels: LabelSet, cfg: SolverConfig = None) -> SolveResult:
    """Poisson propagation with the variance term: (L - lam diag(q)) u = source.

    The zero-mean constraint sum_i q_i u_i = 0 is enforced throughout, so
    the weighted mean of the solution vanishes.  With
    ``cfg.variance_on_labeled=False`` the diagonal shift applies at
    unlabeled nodes only.
    """
    return solve(g, labels, replace(cfg or SolverConfig(), method="v_poisson"))


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
