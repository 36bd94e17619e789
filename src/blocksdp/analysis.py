"""Diagnostics for the block-coordinate solver: the fast gradient-norm
formula, iteration-count bounds for both sampling schemes, lift-level
feasibility/objective checks, and a dual-certificate test for global
optimality that also yields the dual lower bound on the SDP optimum.

The certificate matrix S = Q - BlockDiag(A_1, ..., A_n) is assembled
sparse, in Q's block-CSR layout, so it stores at most nnz(Q) + n d^2
entries; its smallest eigenvalue comes from a dense solve up to
DENSE_EIG_CUTOFF rows and from eigsh on S itself (fixed start vector) above.
certify_global is the one place that derives quantities from freshly
recomputed couplings: the stationarity residual, the gradient norm, the
smallest eigenvalue and the lower bound all come from one S and one
eigen-solve.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.sparse import bsr_matrix
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .blockmat import BlockSparseSym
from .stiefel import (FactorPoint, compute_gcache, evaluate_cost,
                      feasibility_residual, sym_coupling)

# Certificate matrices up to this dimension get a dense eigenvalue solve;
# larger ones go to the iterative eigsh.
DENSE_EIG_CUTOFF = 2000


def grad_norm_sq_fast(point: FactorPoint) -> float:
    """Squared Frobenius norm of the Riemannian gradient from cached G_i.

    Evaluates 4 * sum_i (||G_i||_F^2 - ||A_i||_F^2) with
    A_i = 0.5 * (Y_i^T G_i + G_i^T Y_i).  Tiny negative values from roundoff
    are clamped to zero.  The per-block terms are summed in block order.
    """
    G = point.gcache
    A = sym_coupling(point.blocks, G)
    gsq = (G * G).sum(axis=(1, 2))
    value = 4.0 * float((gsq - (A * A).sum(axis=(1, 2))).cumsum()[-1])
    if value < 0.0 and value >= -1e-12 * (1.0 + 4.0 * float(gsq.sum())):
        value = 0.0
    return value


@dataclass
class BoundInputs:
    """Inputs to the iteration-count bounds.

    fstar may be any valid lower bound on the rank-restricted optimum; a
    looser bound only enlarges the returned K.
    """

    d: int
    n: int
    f0: float
    fstar: float
    eps: float
    c1: float | None = None
    c2: float | None = None

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError(f"target eps must be positive, got {self.eps}")
        if self.f0 < self.fstar:
            raise ValueError(f"initial cost {self.f0} below lower bound {self.fstar}")


def _iteration_bound(b: BoundInputs, scheme: str, const: str, scale) -> int:
    """ceil(2 d scale C (F0 - F*) / eps) with C the bound input named const."""
    c = getattr(b, const)
    if c is None:
        raise ValueError(f"{scheme} bound requires {const}")
    gap = b.f0 - b.fstar
    if gap == 0.0:
        return 0
    bound = 2.0 * b.d * scale * c * gap / b.eps
    if not math.isfinite(bound):
        raise ValueError(f"{scheme} iteration bound is {bound}; set an explicit cap "
                         f"(--max-iters, SolverConfig.max_iters)")
    return math.ceil(bound)


def iteration_bound_uniform(b: BoundInputs) -> int:
    """Iterations sufficient for uniform sampling: ceil(2 d n C1 (F0 - F*) / eps)."""
    return _iteration_bound(b, "uniform", "c1", b.n)


def iteration_bound_importance(b: BoundInputs) -> int:
    """Iterations sufficient for importance sampling: ceil(2 d C2 (F0 - F*) / eps)."""
    return _iteration_bound(b, "importance", "c2", 1.0)


def sdp_lift_check(point: FactorPoint, Q: BlockSparseSym):
    """Objective and constraint residual of the implicit lift X = Y^T Y.

    Returns (tr(Q X), max_i max-abs(Y_i^T Y_i - I)).  The lift is positive
    semidefinite by construction, so only the diagonal blocks are checked.
    """
    objective = evaluate_cost(point.blocks, Q)
    residual = float(feasibility_residual(point.blocks).max())
    return objective, residual


@dataclass
class CertificateReport:
    """Outcome of the dual-certificate check at a candidate solution.

    lower_bound is a rigorous lower bound on the SDP optimum (see
    certify_global), valid at any point, stationary or not.
    """

    lambda_min: float
    stationarity_residual: float
    grad_norm_sq: float
    verdict: str  # certified-global | first-order-only | not-stationary
    cert_tol: float
    lower_bound: float
    note: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def build_certificate_matrix(point: FactorPoint, Q: BlockSparseSym) -> bsr_matrix:
    """Sparse dn x dn certificate S = Q - BlockDiag(A_1, ..., A_n), block-CSR.

    The couplings are recomputed from Q (never from the incremental cache);
    A_i is symmetric by construction.
    """
    A = sym_coupling(point.blocks, compute_gcache(point.blocks, Q))
    n = Q.n
    return Q.mat - bsr_matrix((A, np.arange(n), np.arange(n + 1)), shape=Q.mat.shape)


def _smallest_eigenvalue(S: bsr_matrix):
    """Algebraically smallest eigenvalue; returns (value, converged)."""
    if S.shape[0] <= DENSE_EIG_CUTOFF:
        return float(np.linalg.eigvalsh(S.toarray())[0]), True
    v0 = np.random.default_rng(0).standard_normal(S.shape[0])  # the same value on every call
    try:
        vals = eigsh(S, k=1, which="SA", v0=v0, return_eigenvectors=False)
        return float(vals[0]), True
    except ArpackNoConvergence as exc:
        vals = exc.eigenvalues
        if len(vals):
            return float(vals[0]), False
        return float("nan"), False


def certify_global(point: FactorPoint, Q: BlockSparseSym,
                   cert_tol: float | None = None) -> CertificateReport:
    """Check global optimality of a (near-)critical point via the dual matrix.

    Builds S = Q - BlockDiag(A_i) from freshly recomputed couplings.  Block i
    of Y S is G_i - Y_i A_i, half the Riemannian gradient block, so the
    stationarity residual ||S Y^T||_F gives ||grad F||_F^2 = 4 ||S Y^T||_F^2.
    At an exact critical point S Y^T = 0; if additionally S is positive
    semidefinite, Y is a global minimizer of the rank-restricted problem and
    the lift Y^T Y solves the SDP, so the verdict is certified-global.  A
    stationarity residual above cert_tol * (1 + ||Q||_F) yields
    not-stationary; a decisively negative eigenvalue yields first-order-only.
    Eigenvalue-solver failures downgrade the verdict, never certify.

    The lower bound: for every feasible X of the lifted problem,
    tr(Q X) = tr(S X) + F(Y) with tr(S X) >= dn * min(lambda_min(S), 0)
    since tr(X) = dn; and F(Y) = sum_i tr(A_i) = -tr(S) because Q's
    diagonal blocks are zero.  It falls back to -C2(Q) when lambda_min is
    not finite.
    """
    if cert_tol is None:
        cert_tol = 1e-8 * (1.0 + Q.frobenius_norm())
    S = build_certificate_matrix(point, Q)
    residual = float(np.linalg.norm(S @ point.stacked().T))
    lam, converged = _smallest_eigenvalue(S)
    note = None
    if residual > cert_tol * (1.0 + Q.frobenius_norm()):
        verdict = "not-stationary"
    elif converged and lam >= -cert_tol:
        verdict = "certified-global"
    else:
        verdict = "first-order-only"
        if not converged:
            note = "eigenvalue solver did not converge; certificate downgraded"
    if math.isfinite(lam):
        bound = Q.d * Q.n * min(lam, 0.0) - float(S.diagonal().sum())
    else:
        bound = -Q.c2()
    return CertificateReport(lambda_min=lam, stationarity_residual=residual,
                             grad_norm_sq=4.0 * residual ** 2, verdict=verdict,
                             cert_tol=cert_tol, lower_bound=bound, note=note)
