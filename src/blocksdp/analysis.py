"""Diagnostics for the block-coordinate solver: the fast gradient-norm
formula, lift-level feasibility/objective checks, and a dual-certificate
test for global optimality that also yields the dual lower bound on the SDP
optimum.  The iteration-count bound is bcm.iteration_bound.

The certificate matrix S = Q - BlockDiag(A_1, ..., A_n) is assembled
sparse, in Q's block-CSR layout, so it stores at most nnz(Q) + n d^2
entries.  Up to DENSE_EIG_CUTOFF rows, S is scattered from its blocks into
a dense array and LAPACK's subset driver computes its smallest eigenvalue
alone.  Above, eigsh runs from a fixed start vector on S + g I, where g is
S's Gershgorin bound max_i sum_j |S_ij|, so that the spectrum lies in
[0, 2g], and stops at tol = eps / (2g): ARPACK's relative stopping rule
then bounds the Ritz residual r = ||S v - lambda v|| by the absolute
eps = EIG_TOL_FRACTION * cert_tol, even at lambda near 0.  The report
carries r as lambda_residual (0 on the dense branch).  A Ritz value is never
below lambda_min(S), so the verdict and the lower bound use lambda - r.
certify_global is the one place that derives quantities from freshly
recomputed couplings: the stationarity residual, the gradient norm, the
smallest eigenvalue and the lower bound all come from one S and one
eigen-solve.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.sparse import bsr_matrix
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .blockmat import BlockSparseSym
from .stiefel import (FactorPoint, compute_gcache, evaluate_cost,
                      feasibility_residual, sym_coupling)

# Certificate matrices up to this dimension get a dense eigenvalue solve;
# larger ones go to the iterative eigsh.
DENSE_EIG_CUTOFF = 2000
# eigsh's absolute accuracy, as a fraction of the certificate's cert_tol.
EIG_TOL_FRACTION = 0.1


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
    certify_global), valid at any point, stationary or not; it and the
    verdict use lambda_min - lambda_residual.
    """

    lambda_min: float
    lambda_residual: float  # ||S v - lambda_min v|| of the Ritz pair; 0 when dense
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


def _dense(S: bsr_matrix) -> np.ndarray:
    """S as a dense array: one scatter of its blocks (scipy's subtraction in
    build_certificate_matrix stores each block once) into zeros."""
    d = S.blocksize[0]
    n = S.shape[0] // d
    out = np.zeros((n, d, n, d))
    out[np.repeat(np.arange(n), np.diff(S.indptr)), :, S.indices, :] = S.data
    return out.reshape(S.shape)


def _smallest_eigenvalue(S: bsr_matrix, eps: float):
    """Algebraically smallest eigenvalue; returns (value, residual, converged).

    A non-finite S gives (nan, nan, False).  Up to DENSE_EIG_CUTOFF rows,
    LAPACK's subset driver computes it alone from the dense S scattered by
    _dense, with residual 0.  Above, eigsh runs on S + g I (g the Gershgorin
    bound, applied without a copy of S) to tol eps / (2g), and the shift is
    taken off the Ritz value, also off the partial one of ArpackNoConvergence;
    residual is ||S v - value v|| for the unit Ritz vector v, nan without one.
    """
    if not np.isfinite(S.data).all():
        return float("nan"), float("nan"), False
    if S.shape[0] <= DENSE_EIG_CUTOFF:
        vals = eigh(_dense(S), eigvals_only=True, subset_by_index=[0, 0], check_finite=False)
        return float(vals[0]), 0.0, True
    g = float(abs(S).sum(axis=1).max())
    if g == 0.0:
        return 0.0, 0.0, True
    shifted = LinearOperator(S.shape, matvec=lambda x: S @ x + g * x, dtype=S.dtype)
    v0 = np.random.default_rng(0).standard_normal(S.shape[0])  # the same value on every call
    try:
        vals, vecs = eigsh(shifted, k=1, which="SA", v0=v0, tol=eps / (2.0 * g))
        converged = True
    except ArpackNoConvergence as exc:
        vals, vecs = exc.eigenvalues, exc.eigenvectors
        if not len(vals):
            return float("nan"), float("nan"), False
        converged = False
    lam = float(vals[0]) - g
    v = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    return lam, float(np.linalg.norm(S @ v - lam * v)), converged


def certify_global(point: FactorPoint, Q: BlockSparseSym,
                   cert_tol: float | None = None) -> CertificateReport:
    """Check global optimality of a (near-)critical point via the dual matrix.

    Builds S = Q - BlockDiag(A_i) from freshly recomputed couplings.  Block i
    of Y S is G_i - Y_i A_i, half the Riemannian gradient block, so the
    stationarity residual ||S Y^T||_F gives ||grad F||_F^2 = 4 ||S Y^T||_F^2.
    At an exact critical point S Y^T = 0; if additionally S is positive
    semidefinite, Y is a global minimizer of the rank-restricted problem and
    the lift Y^T Y solves the SDP, so the verdict is certified-global.
    cert_tol bounds ||grad F||_F^2, as the solver's grad_tol does (its
    default 1e-8 (1 + ||Q||_F) is at least grad_tol's 1e-8): above it the
    point is not-stationary.  Else it is certified when -(lambda - r) <=
    cert_tol, lambda the eigenvalue solve's value and r its residual
    (lambda_residual), solved to EIG_TOL_FRACTION * cert_tol, and
    first-order-only otherwise.  Eigenvalue-solver failures downgrade the
    verdict, never certify; a cert_tol that is not finite and positive
    raises ValueError.

    The lower bound: for every feasible X of the lifted problem,
    tr(Q X) = tr(S X) + F(Y) with tr(S X) >= dn * min(lambda_min(S), 0)
    since tr(X) = dn; and F(Y) = sum_i tr(A_i) = -tr(S) because Q's
    diagonal blocks are zero.  lambda - r stands in for lambda_min(S): a
    Ritz value lies at or above lambda_min, and lambda - r at or below the
    eigenvalue its Ritz pair approximates.  It falls back to -C2(Q) when
    lambda is not finite.
    """
    if cert_tol is None:
        cert_tol = 1e-8 * (1.0 + Q.frobenius_norm())
    elif not 0.0 < cert_tol < math.inf:
        raise ValueError(f"cert_tol must be finite and positive, got {cert_tol}")
    S = build_certificate_matrix(point, Q)
    residual = float(np.linalg.norm(S @ point.stacked().T))
    grad_norm_sq = 4.0 * residual ** 2
    lam, lam_residual, converged = _smallest_eigenvalue(S, EIG_TOL_FRACTION * cert_tol)
    lam_low = lam - lam_residual
    note = None
    if grad_norm_sq > cert_tol:
        verdict = "not-stationary"
    elif converged and lam_low >= -cert_tol:
        verdict = "certified-global"
    else:
        verdict = "first-order-only"
        if not converged:
            note = "eigenvalue solver did not converge; certificate downgraded"
    if math.isfinite(lam_low):
        bound = Q.d * Q.n * min(lam_low, 0.0) - float(S.diagonal().sum())
    else:
        bound = -Q.c2()
    return CertificateReport(lambda_min=lam, lambda_residual=lam_residual,
                             stationarity_residual=residual, grad_norm_sq=grad_norm_sq,
                             verdict=verdict, cert_tol=cert_tol, lower_bound=bound, note=note)
