"""The four label-propagation solvers.

``solve`` runs the method that ``SolverConfig.method`` names: it takes a
Graph, a LabelSet and a SolverConfig and returns a SolveResult whose ``u``
is the (n, k) label-score matrix.

``laplace``    clamps labeled nodes to their one-hot targets and makes u
               harmonic (Lu = 0) at every unlabeled node.
``poisson``    replaces clamping with point sources: Lu_i = y_i - ybar at
               labeled nodes and 0 elsewhere, where ybar is the mean of
               the labeled one-hot vectors, under the degree-weighted
               zero-mean constraint sum_i q_i u_i = 0.
``v_laplace``  keeps the clamping but changes the unlabeled stationarity
               to Lu_i = lam * q_i * (u_i - ubar), with ubar the degree
               weighted mean of u over all nodes.  At the default
               lam = 0.1 its desk accuracy equals laplace's; at 0.9
               lambda_2 (``bench --lambda-frac 0.9``), with one label per
               class, it reads 24.6% where laplace reads 13.5% (20
               trials, seed 11).  Since ubar = q_u^T u_u + q_l^T y is
               linear in the unknowns, the mean moves into the operator
               as the rank-one coupling lam q_u q_u^T.
``v_poisson``  adds the same variance term to the poisson system, giving
               (L - lam * diag(q)) u = source under the zero-mean
               constraint (the constraint makes ubar vanish).

Each method's system is assembled once, by ``_assemble``, as one
full-length system on the graph's cached Laplacian,

    P (L - lam diag(c) + lam c c^T) P x = rhs,

where P zeroes the labeled rows of the clamped family, c is q with the
labeled entries zeroed (clamped family) or q itself (poisson family), and
lam is 0 for laplace and poisson.  P is folded into the stored operator:
its labeled rows hold zeros.  On {q^T u = 0} the poisson operator is
the constrained one, so no projection is needed: for lam up to lambda_2 it
is positive semidefinite with null space 1, every source lies in its
range, and the q-mean is removed from the answer once.  The class columns
of u sum to a known vector (1 on free nodes for the clamped family, 0 for
the poisson family), so only the first k - 1 are solved, by one block
PCG.  The columns share one block Krylov space, which takes in the
graph's slow cluster modes for every class together.  The preconditioner
is a degree-1 polynomial in the Jacobi-scaled operator B = D^-1 A,
M^-1 = D^-1 (s - A D^-1), with s 1.05 times a Gershgorin bound on the
spectrum of B.  It maps each eigenvalue mu of B to mu (s - mu), which
squeezes the bulk of the spectrum, and it is positive definite for every
system with a positive diagonal, since s exceeds every mu, bipartite
graphs (largest mu = 2) included.  ``_assemble`` builds it once per solve
as a sparse matrix on the Laplacian's index arrays (see ``_System``), so
each block step applies it with one sparse product, and the operator
with another.  On the desk graph a solve takes 9 to 11 block steps, where
plain Jacobi took 16 to 19 and k column-wise CGs in lockstep 24 to 28.
The poisson family keeps each search block centered and orthonormal,
which its null space needs (see ``_pcg``).

The variance term is maximized, so both v_* systems lose positive
definiteness once ``lam`` passes a graph-dependent stability bound.  For
v_poisson that bound is lambda_2 of the pencil (L, diag q), which
``estimate_stability_limit`` computes; ``solve`` computes it once per
graph and warns, after the iteration, when ``lam`` is within 10% of it.
v_laplace is SPD for lam below 1/lambda_max(diag(q_u) - q_u q_u^T, L_uu),
which is at least lambda_2; ``solve`` does not warn near it.  Breakdown
raises DivergenceError.
"""

import math
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy import sparse
from scipy.linalg import eigh_tridiagonal, lapack
from scipy.linalg.blas import dgemm

from .errors import (
    DivergenceError,
    IllPosedError,
    InvalidInputError,
    InvalidParameterError,
    checked_int,
    checked_lam,
)
from .graph import Graph, LabelSet

__all__ = [
    "METHODS",
    "SolverConfig",
    "SolveResult",
    "solve",
    "predict",
    "estimate_stability_limit",
]

METHODS = ("laplace", "poisson", "v_laplace", "v_poisson")

# estimate_stability_limit stops once its lowest Ritz pair's residual bound is
# this fraction of the Ritz value; it checks that at this step, then every
# max(_FIRST_RITZ_CHECK, m // 8) steps
_RITZ_STOP, _FIRST_RITZ_CHECK = 1e-10, 5


@dataclass(frozen=True)
class SolverConfig:
    """Solver parameters: variance weight ``lam`` (finite and >= 0, by
    :func:`errors.checked_lam`), relative residual tolerance (at least
    machine epsilon), cap on block PCG steps (an integer >= 1, by
    :func:`errors.checked_int`) and method selector.
    """

    lam: float = 0.1
    tol: float = 1e-8
    max_iter: int = 10000
    method: str = "laplace"
    # a constant, not a field: perfbench/checks.py still reads it
    variance_on_labeled: ClassVar[bool] = True

    def __post_init__(self):
        checked_lam(self.lam)
        if not np.finfo(float).eps <= self.tol < math.inf:  # NaN fails too
            raise InvalidParameterError(f"tol must be finite and >= machine epsilon, got {self.tol}")
        checked_int(self.max_iter, "max_iter", low=1)
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

    ``u`` is the (n, k) score matrix.  ``iterations`` is the number of
    block PCG steps on the one linear system the method solves, shared by
    its columns (0 for the trivial cases).
    Each step applies the operator twice: once to the search block and
    once in the preconditioner.  The system has the first k - 1 class
    columns only: the last column of ``u`` is recovered from the known row
    sum.  ``final_residual`` is the Frobenius norm of that (k - 1)-column
    system's residual relative to its right-hand side; the residual of all
    k columns is at most sqrt(k) times it, since the last column's
    residual is minus the sum of the others'.  ``converged`` is False when
    ``max_iter`` ran out first; ``u`` is then the last iterate, the one
    ``final_residual`` describes.
    """

    u: np.ndarray
    iterations: int
    final_residual: float
    converged: bool


def _addmul(out, a, b, alpha):
    """``out += alpha * a @ b`` in one BLAS pass, with no temporary.

    ``out`` must be C-ordered: dgemm writes in place only into the
    F-ordered transpose, and silently returns a copy for any other layout.
    """
    dgemm(alpha, b.T, a.T, beta=1.0, c=out.T, overwrite_c=True)


def _eigh(a):
    """Ascending eigenvalues and eigenvectors of a small symmetric matrix,
    from its lower triangle as ``np.linalg.eigh`` reads it.  LAPACK's dsyev
    is called directly: on a 9 x 9 block numpy's wrapper costs half again
    as much, and several times as much on 1 x 1."""
    theta, V, info = lapack.dsyev(a, lower=1)
    if info:
        raise np.linalg.LinAlgError("eigenvalue iteration did not converge")
    return theta, V


def _pcg(matvec, precondition, b, tol, max_iter, centered=False):
    """Block preconditioned conjugate gradients on all columns of ``b``.

    The k columns share one block Krylov space (O'Leary 1980): each step
    moves along a block ``W`` of k directions.  With ``Q = A W`` and
    ``G = W^T Q``, a step is ``X += W a`` and ``R -= Q a`` with
    ``a = G^+ W^T R``, and the next block is ``W = Z - W G^+ Q^T Z``, with
    ``Z = precondition(R)``, a new C-ordered block.  ``G^+`` is the
    pseudo-inverse over the eigenvalues of ``G`` above 1e-13 of the
    largest.  It drops the directions of a rank-deficient block (Ji & Li
    2017), such as a zero right-hand-side column.  With one column this is
    plain CG.  ``A`` may be positive semidefinite when ``b`` lies in its
    range (Kaasschieter 1988): ``G`` and ``W^T R`` do not see the
    null-space parts of ``W``, which reach only ``X``.  The preconditioner
    must be symmetric positive definite on the space that ``R`` spans, and
    ``b`` must be nonzero: ``solve`` returns trivial systems before it
    calls ``_pcg``.

    With ``centered`` the operator's null space is 1, as for the poisson
    family.  Each new block then loses its part along 1 and, if it has
    more than one column, is replaced by an orthonormal basis of its span:
    ``W U S^-1/2`` from the eigendecomposition ``U S U^T`` of its Gram
    matrix (SVQB; Stathopoulos & Wu 2002), without the directions whose
    Gram eigenvalue is below 1e-14 of the largest.  In exact arithmetic
    neither changes the iterates beyond the part of ``X`` along 1.  In
    floating point the columns of a block can drift into near dependence
    over many steps, and a combination of them that nearly cancels in the
    range keeps its part along 1, so ``G`` sees it with a curvature of
    roundoff; inverting that spoils every later step.  On path graphs at
    ``tol=1e-12`` such poisson-family solves took thousands of steps or
    raised DivergenceError, under Jacobi and under the polynomial
    preconditioner alike, where with the basis they converge.  The
    clamped family has no null space and converged on the same paths
    without it.

    Returns ``(x, iterations, relative_residual, converged)`` with the
    residual measured in the Frobenius norm relative to ``|b|`` and
    ``iterations`` the number of block steps.  There are three exits:
    convergence returns the current iterate; running out of ``max_iter``
    returns the last iterate with ``converged=False``; a block on which
    ``G`` has an eigenvalue below roundoff (negative curvature), or none
    above the drop threshold (no positive curvature), raises
    DivergenceError.  Returning the last
    iterate is sound: each block CG iterate minimizes the A-norm error of
    every column over the block Krylov space.
    """
    bnorm = float(np.linalg.norm(b))
    # C order whatever the layout of b, so that _addmul updates in place
    x = np.zeros(b.shape)
    r = np.array(b, order="C")
    ones = np.ones((b.shape[0], 1))  # the null space when centered

    def centered_basis(block):
        """The search block for ``block``, which it overwrites, when ``centered``."""
        _addmul(block, ones, ones.T @ block, -1.0 / len(block))
        if block.shape[1] == 1:
            return block
        sigma, U = _eigh(dgemm(1.0, block.T, block.T, trans_b=True))
        keep = sigma > 1e-14 * sigma[-1]
        if not keep.any():
            return block  # zero, so G = 0 raises below
        return block @ (U[:, keep] / np.sqrt(sigma[keep]))

    z = precondition(r)
    w = centered_basis(z) if centered else z
    for iterations in range(1, max_iter + 1):
        q = matvec(w)
        theta, V = _eigh(w.T @ q)
        # sum|W||Q| >= trace G, so the cheap first test only filters
        if theta[0] < -1e-10 * theta.sum() and theta[0] < -1e-10 * np.vdot(np.abs(w), np.abs(q)):
            raise DivergenceError(
                "negative curvature encountered: the operator is not positive definite "
                "(for v_laplace and v_poisson, lam is past the stability bound)"
            )
        keep = theta > 1e-13 * theta[-1]
        if not keep.any():
            raise DivergenceError(
                "no search direction of positive curvature left: the operator is singular "
                "(for v_laplace and v_poisson, lam is at the stability bound)"
            )
        V = V[:, keep]
        Gplus = (V / theta[keep]) @ V.T  # the pseudo-inverse over the kept eigenpairs
        a = Gplus @ (w.T @ r)
        _addmul(x, w, a, 1.0)
        _addmul(r, q, a, -1.0)
        rel = float(np.linalg.norm(r)) / bnorm
        if rel <= tol:
            return x, iterations, rel, True
        z = precondition(r)
        _addmul(z, w, Gplus @ (q.T @ z), -1.0)
        w = centered_basis(z) if centered else z
    return x, max_iter, rel, False


def estimate_stability_limit(g: Graph) -> float:
    """lambda_2 of the pencil (L, diag q): the v_poisson stability bound.

    Every v_* system is positive definite for ``lam`` below lambda_2.  The
    value is the lowest Ritz value of a plain Lanczos run, without
    reorthogonalization, on Q^-1/2 L Q^-1/2 with Q = diag q, from the fixed
    start vector ``cos(1.3 i + 0.9)``.  That operator is S L S with
    S = D^-1/2 and D the degrees, times the total degree, and its
    eigenvalues are those of the pencil.  Every step removes the part along
    its unit null vector sqrt(q), which rounding would otherwise bring back,
    and with it the eigenvalue 0.  The run stops when the lowest Ritz pair
    (theta_1, s) of its m-step tridiagonal has the residual bound
    ``beta_m |s_m| <= 1e-10 theta_1`` (Paige 1976; Parlett, The Symmetric
    Eigenvalue Problem, 1998), or after n - 1 steps, when the Krylov space
    fills the complement of the null vector; path graphs take all of them.
    Each check is a tridiagonal eigensolve of O(m), so the bound is checked
    at step 5 and then every max(5, m // 8) steps.  The value matches the
    dense lambda_2 to 5e-15 on random 400-node graphs, in 78 to 109 steps,
    to 2e-14 on the desk graph, in 40, and the closed form of a 2201-node
    path to 2e-10.

    The bound certifies that the value lies near *some* eigenvalue, not
    that it is lambda_2: a start vector with almost no part along the
    lambda_2 eigenvector could converge to lambda_3 first.  On the 400-node
    draw 1203 of the tests, where lambda_3 is 2.7% above lambda_2, that part
    is 1.2% of the unit start vector, which sufficed.

    Returns 0.0 on a disconnected graph, where lambda_2 vanishes.  ``solve``
    computes it once per graph, for the v_poisson near-bound warning.
    """
    if g.components[0] != 1:
        return 0.0
    L = g.laplacian_matrix()
    null = np.sqrt(g.degree_weights)  # a unit vector, since q sums to 1
    v = np.cos(1.3 * np.arange(g.n) + 0.9)
    v -= (null @ v) * null
    v /= np.linalg.norm(v)
    alphas, betas, v_old, beta = [], [], 0.0, 0.0
    check = _FIRST_RITZ_CHECK
    for m in range(1, g.n):
        w = L @ (v / null) / null - beta * v_old
        alphas.append(v @ w)
        w -= alphas[-1] * v
        w -= (null @ w) * null
        beta = float(np.linalg.norm(w))
        if m in (check, g.n - 1) or beta == 0.0:
            theta, ritz = eigh_tridiagonal(alphas, betas, select="i", select_range=(0, 0))
            if beta * abs(ritz[-1, 0]) <= _RITZ_STOP * theta[0]:
                break
            check = m + max(_FIRST_RITZ_CHECK, m // 8)
        betas.append(beta)
        v_old, v = v, w / beta
    return float(theta[0])


@dataclass(frozen=True)
class _System:
    """One method's system ``(A + lam c c^T) x = rhs`` over all n rows, and its preconditioner.

    ``A`` is ``L - lam diag(c)`` on the index arrays of the graph's cached
    Laplacian: ``L`` itself for poisson at ``lam = 0``, else a copy of its
    values.  ``rhs`` holds the first k - 1 class columns; ``result``
    recovers the last from the known row sum of ``u``.  The clamped family
    (laplace, v_laplace) has ``labeled`` rows, where ``u`` takes the
    targets ``y``; ``A`` stores zeros in those rows and ``c`` is q with
    them zeroed, so the operator maps a block that is zero there to one
    that is zero there, and every row of ``u`` sums to 1.  The poisson
    family has no labeled rows and ``c = q``: its operator is positive
    semidefinite with null space 1 while ``lam`` is below lambda_2, the
    source lies in its range, and ``result`` removes the q-mean; every row
    of ``u`` sums to 0.

    ``diagonal`` is the operator's Jacobi diagonal D, taken before the
    labeled rows are zeroed.  The preconditioner is the degree-1
    polynomial in the Jacobi-scaled operator B = D^-1 (A + lam c c^T)
    (Johnson, Micchelli & Paul 1983; Saad, Iterative Methods for Sparse
    Linear Systems, section 12.3), ``D^-1 (s - (A + lam c c^T) D^-1)``
    with ``s = shift``.  It maps an eigenvalue ``mu`` of B to
    ``mu (s - mu)`` and is symmetric positive definite on the free rows
    when ``s`` exceeds every ``mu``.  ``shift`` is 1.05 times the
    Gershgorin bound ``max(1 + radius / D)`` on that spectrum, with
    ``radius = deg + lam c (sum(c) - c)`` bounding the absolute
    off-diagonal row sums.  ``M`` holds its sparse part
    ``D^-1 (s - A D^-1)`` on ``A``'s index arrays, so each application is
    one sparse product, plus a rank-one update when ``lam > 0``.
    """

    A: sparse.csr_array
    M: sparse.csr_array
    rhs: np.ndarray
    diagonal: np.ndarray
    shift: float
    lam: float
    c: np.ndarray
    labeled: np.ndarray = None
    y: np.ndarray = None

    @property
    def trivial(self) -> bool:
        """No unknowns (every node labeled) or a zero right-hand side."""
        return not self.rhs.any()

    def matvec(self, w):
        """The operator on a block ``w`` that is zero at the labeled rows."""
        Aw = self.A @ w
        if self.lam > 0:
            _addmul(Aw, self.c[:, None], (self.c @ w)[None, :], self.lam)
        return Aw

    def precondition(self, r):
        """The preconditioner on a block ``r`` that is zero at the labeled rows."""
        z = self.M @ r
        if self.lam > 0:
            cd = self.c / self.diagonal  # D^-1 c
            _addmul(z, cd[:, None], (cd @ r)[None, :], -self.lam)
        return z

    def result(self, x, iterations, final_residual, converged) -> SolveResult:
        if self.labeled is None:
            # the q-mean, along the null space 1; einsum rounds each product,
            # so the mean of columns that cancel exactly is exactly 0
            x -= np.einsum("i,ij->j", self.c, x)
            u = np.column_stack([x, -x.sum(axis=1)])
        else:
            u = np.column_stack([x, 1.0 - x.sum(axis=1)])
            u[self.labeled] = self.y
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
    L = g.laplacian_matrix()
    c, labeled = q, None

    if cfg.method in ("laplace", "v_laplace"):
        missing = ncomp - np.unique(comp[il]).size
        if missing:
            raise IllPosedError(
                f"{missing} connected component(s) contain no labeled node; "
                "propagation cannot reach them"
            )
        c, labeled = q.copy(), il
        c[il] = 0.0
        # L_uu u - lam q_u (u - ubar) = -L_ul y with ubar = q_u^T u + q_l^T y
        # moves the mean into the operator as the coupling lam c c^T; L is
        # symmetric, so L_ul y comes from the l labeled rows
        rhs = -(L[il].T @ y[:, :-1]) - lam * np.outer(c, q[il] @ y[:, :-1])
        rhs[il] = 0.0
    else:
        if ncomp != 1:
            raise IllPosedError(
                f"poisson-type learning requires a connected graph, found {ncomp} components"
            )
        rhs = np.zeros((g.n, labels.k - 1))
        rhs[il] = (y - y.mean(axis=0))[:, :-1]
        if not rhs.any():
            warnings.warn(
                "poisson source vanished (single labeled node or a single represented "
                "class); returning the zero solution",
                RuntimeWarning,
                stacklevel=3,
            )
    diag, A, counts = g._diagonal_positions, L, np.diff(L.indptr)
    values = L.data.copy()
    values[diag] -= lam * c
    diagonal = values[diag] + lam * c**2
    if labeled is not None:
        # P folded in: the labeled rows vanish
        values[np.repeat(np.bincount(labeled, minlength=g.n) > 0, counts)] = 0.0
    if lam > 0 or labeled is not None:
        A = sparse.csr_array((values, L.indices, L.indptr), shape=L.shape)
    # off the diagonal |A_ij| <= w_ij + lam c_i c_j; D <= 0 is rejected by
    # solve before M is used
    with np.errstate(all="ignore"):
        shift = 1.05 * float(np.max(1.0 + (g.degrees + lam * c * (c.sum() - c)) / diagonal))
        m = -A.data / (np.repeat(diagonal, counts) * diagonal[L.indices])
        m[diag] += shift / diagonal
    return _System(
        A=A,
        M=sparse.csr_array((m, L.indices, L.indptr), shape=L.shape),
        rhs=rhs,
        diagonal=diagonal,
        shift=shift,
        lam=lam,
        c=c,
        labeled=labeled,
        y=y,
    )


def solve(g: Graph, labels: LabelSet, cfg: SolverConfig) -> SolveResult:
    """Run the solver selected by ``cfg.method``: one block PCG solve of its system.

    The first k - 1 class columns share the one block iteration, so
    ``iterations`` counts block steps; the last column follows from the
    known row sum.  Checks run in this order: labeled nodes, component
    coverage or connectivity, the trivial cases (every node labeled, one
    class, a zero right-hand side such as a vanished poisson source), a
    nonpositive Jacobi diagonal, then negative curvature in the PCG; both
    of the last raise DivergenceError.  After the PCG, a v_poisson solve
    with ``lam > 0`` warns when ``lam`` is at or above 0.9x the graph's
    lambda_2 (``estimate_stability_limit``, computed on the first such
    solve and cached with the graph).
    """
    system = _assemble(g, labels, cfg)
    if system.trivial:
        return system.result(np.zeros_like(system.rhs), 0, 0.0, True)
    if system.diagonal.min() <= 0:
        raise DivergenceError(
            f"variance weight lam={system.lam:g} drives the shifted diagonal nonpositive; "
            "it is past the stability bound"
        )
    x, iters, rel, conv = _pcg(
        system.matvec,
        system.precondition,
        system.rhs,
        cfg.tol,
        cfg.max_iter,
        centered=system.labeled is None,
    )
    if system.labeled is None and system.lam > 0:
        bound = g._stability_limit
        if system.lam >= 0.9 * bound:
            warnings.warn(
                f"variance weight lam={system.lam:g} is at or above 0.9x the stability "
                f"bound {bound:.4g}, lambda_2 of this graph",
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
