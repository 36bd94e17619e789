"""Stiefel-manifold blocks, the closed-form block minimizer, and the
projection-based Riemannian gradient (a reference for the benchmark and the
tests; the library's own gradient norms come from analysis).

A variable block is an r x d matrix Y with orthonormal columns (d <= r).
The full iterate is the row of blocks [Y_1 ... Y_n], stored as one
(n, r, d) array, together with the cached coupling matrices
G_i = sum_{j != i} Y_j Q_[j,i] in a second (n, r, d) array and the cost
F(Y) = tr(Q Y^T Y) = sum_i <G_i, Y_i>.  Block row i of the product
Q [Y_1 ... Y_n]^T is G_i^T, so all couplings come from one sparse product.

block_minimize is the one block minimizer: every step, single or batched,
calls it, and it refuses a non-finite coupling before its SVD.  It and the
projection take U V^T from the thin SVD, by numpy's svd_s gufunc called
directly (_svd): the call np.linalg.svd(M, full_matrices=False) makes, so the
same bytes, without the checks, np.errstate and namedtuple of its Python
wrapper, about half the cost of a small SVD.  A LAPACK failure shows as NaN
singular values, which both callers turn into np.linalg.LinAlgError; on a
numpy without svd_s, _svd is np.linalg.svd itself.  A stack of one-column
blocks (k, r, 1) whose every max-abs entry lies in [2^-459, 2^459] takes
LAPACK's Householder QR instead: for such a column dgesdd is that QR
followed by the SVD of the 1 x 1 factor R, so the QR alone gives the SVD's
own bytes.  The QR runs first and its |R_11| = ||a||_2 decides the range;
the max-abs entries are scanned only when a norm lies near an end of it
(see _column_frames).

Solution text format (YFACTOR):

    YFACTOR r d n

followed by n sections of r lines with d whitespace-separated values each
(block Y_i in row-major order), read and written by blockmat's row helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .blockmat import (BlockSparseSym, ParseError, _lapack_gufunc, _read_header, _read_rows,
                       _write_rows)

# Max-abs tolerance on Y^T Y - I for a block to count as feasible.
FEASIBILITY_TOL = 1e-10


def feasibility_residual(M: np.ndarray):
    """Max-abs entry of M^T M - I; one value per matrix of a stack (k, r, d)."""
    M = np.asarray(M, dtype=float)
    res = np.abs(np.swapaxes(M, -1, -2) @ M - np.eye(M.shape[-1])).max(axis=(-2, -1))
    return res if M.ndim > 2 else float(res)


def is_orthonormal(M: np.ndarray, tol: float = FEASIBILITY_TOL):
    """Whether the feasibility residual is within tol (False for NaN); per matrix of a stack."""
    return feasibility_residual(M) <= tol


def project_stiefel(M: np.ndarray) -> np.ndarray:
    """Closest matrix with orthonormal columns, U V^T from the thin SVD; for a
    stack (k, r, d), that of each matrix, from one batched SVD or, when d = 1
    and every max-abs entry lies in [2^-459, 2^459], from one batched QR with
    the same bytes (_column_frames).

    Raises ValueError for rank-deficient input (the projection is then not
    unique): a singular value at most 1e-12 times the largest, or a zero
    matrix.  The test is relative, so a column of any positive norm projects
    to x / ||x||.  The message names the number of deficient columns and, in
    a stack, the first deficient matrix.  Raises np.linalg.LinAlgError, a
    ValueError, for a non-finite entry, before the SVD (see block_minimize),
    and when the SVD fails.
    """
    M = np.asarray(M, dtype=float)
    if not np.isfinite(M).all():
        raise np.linalg.LinAlgError("cannot project a matrix with non-finite entries")
    Y, s = _polar_factor(M)
    if np.isnan(s).any():
        raise np.linalg.LinAlgError("SVD did not converge")
    deficient = (s <= 1e-12 * s[..., :1]).sum(axis=-1)
    if deficient.any():
        k = int(np.flatnonzero(deficient)[0])
        which = f" {k}" if M.ndim > 2 else ""
        raise ValueError(f"cannot project rank-deficient matrix{which}: "
                         f"{deficient.flat[k]} of {M.shape[-1]} columns deficient")
    return Y


# The thin SVD (U, s, V^T) of a matrix or a stack, as np.linalg.svd(M,
# full_matrices=False) gives it; NaN outputs where LAPACK fails.
_svd = _lapack_gufunc("svd_s", "d->ddd", partial(np.linalg.svd, full_matrices=False))


def _polar_factor(M: np.ndarray):
    """U V^T and the singular values of M, or of each matrix of a stack, as
    np.linalg.svd gives them: from one batched SVD, numpy's svd_s gufunc
    called directly (_svd), or, for a stack of columns that _column_frames
    takes, from one batched QR with the same bytes.  A failed SVD leaves NaN
    singular values, which the callers test for."""
    frames = _column_frames(M)
    if frames is not None:
        return frames
    U, s, Vt = _svd(M)
    return U @ Vt, s


# dgesdd's SMLNUM = sqrt(dlamch('S')) / dlamch('P') and BIGNUM = 1 / SMLNUM: it
# rescales a matrix whose max-abs entry lies outside [SMLNUM, BIGNUM] first.
_QR_RANGE = (2.0 ** -459, 2.0 ** 459)
# A bound on the relative rounding error of the QR's |R_11| = ||a||_2, far above
# that of a norm of r <= 2^20 entries: _column_frames widens its norm test by it.
_NORM_SLACK = 2.0 ** -20


def _np_qr_r_raw(a: np.ndarray) -> np.ndarray:
    """qr_r_raw's contract from np.linalg.qr(mode="raw"): factor a in place, return tau."""
    h, tau = np.linalg.qr(a, mode="raw")
    a[...] = h.swapaxes(-1, -2)
    return tau


# LAPACK's dgeqrf of each matrix of a stack, numpy's qr_r_raw gufunc called
# directly as np.linalg.qr(mode="raw") calls it: it overwrites its operand with
# R and the reflectors (the transpose of that mode's h) and returns tau.
_qr_r_raw = _lapack_gufunc("qr_r_raw", "d->d", _np_qr_r_raw)


def _column_frames(A: np.ndarray):
    """U V^T and the singular values (k, 1) of each matrix of a stack A (k, r, 1),
    k >= 1, from one batched Householder QR, bit for bit np.linalg.svd's; None
    for any other input or when a matrix's max-abs entry lies outside _QR_RANGE.

    Within that range dgesdd (jobz='S', M >= N = 1) is dgeqrf + dorgqr and the
    SVD of the 1 x 1 factor R: U = sign(R_11) Q, V^T = 1 and sigma = |R_11|.
    dgeqrf (_qr_r_raw, on a copy) leaves R_11 = beta and the reflector's tail
    in h[:, 1:], so dorg2r's column is q = [1 - tau, -tau h[:, 1:]].  The
    + 0.0 gives the SVD's +0.0 where q holds -0.0 (U V^T is a product that
    starts from +0.0).  The range test reads the QR's own |R_11| = ||a||_2
    first: the max-abs entry m satisfies m <= ||a||_2 <= sqrt(r) m, so every
    |R_11| in [sqrt(r) 2^-459, 2^459], narrowed by the rounding slack
    _NORM_SLACK, puts every m in range.  Only a stack with a norm outside
    that window takes the exact max-abs scan, so the decision is the scan's
    for every input.  A single block is left to the SVD, the faster call for
    one matrix.
    """
    if A.ndim != 3 or A.shape[2] != 1 or not len(A):
        return None
    a = np.array(A, dtype=float)
    tau = _qr_r_raw(a)
    h = a[:, :, 0]
    beta = h[:, :1]
    sigma = np.abs(beta)
    lo = _QR_RANGE[0] * math.sqrt(A.shape[1]) * (1.0 + _NORM_SLACK)
    if not (lo <= sigma.min() and sigma.max() <= _QR_RANGE[1] * (1.0 - _NORM_SLACK)):
        m = np.abs(A).max(axis=1)
        if not (_QR_RANGE[0] <= m.min() and m.max() <= _QR_RANGE[1]):  # NaN fails too
            return None
    q = h * -tau
    q[:, 0] = 1.0 - tau[:, 0]
    return (np.sign(beta) * q + 0.0)[:, :, None], sigma


def block_minimize(G: np.ndarray):
    """Minimize <G, Y> over r x d matrices Y with orthonormal columns, the one
    block minimizer of the solver.

    Returns (Y_star, ||G||_*): Y_star = U V^T from the thin SVD of -G, where
    <G, Y_star> = -||G||_*, the negated sum of the singular values.  A zero G
    gives a feasible frame and 0.  A stack G (k, r, d) gives k minimizers and
    an array of k norms, each bit-identical to its own call; a stack with
    d = 1 whose max-abs entries lie in [2^-459, 2^459] takes one batched QR
    with the same bytes (_column_frames).  At d = 1 the norm is the one
    singular value itself, not a sum over one entry.

    Raises ValueError for a non-finite entry, before the SVD: LAPACK's SVD of
    an r x d matrix with d >= 3 and an infinite entry in its first column
    does not return.  The test is one scalar, <G, G>, and G's entries are
    looked at only when it is not finite (squares may overflow).  Raises
    np.linalg.LinAlgError when the SVD fails: it then returns NaN singular
    values, so ||G||_* (their sum over the stack) is NaN, one scalar test.
    """
    G = np.asarray(G, dtype=float)
    if not math.isfinite(np.vdot(G, G)) and not np.isfinite(G).all():
        raise ValueError("block coupling matrix has non-finite entries")
    Y, s = _polar_factor(-G)
    nuc = s[..., 0] if s.shape[-1] == 1 else s.sum(axis=-1)
    if G.ndim == 2:
        nuc = float(nuc)
    if math.isnan(nuc if G.ndim == 2 else nuc.sum()):  # NaN singular values: the SVD failed
        raise np.linalg.LinAlgError("SVD did not converge")
    return Y, nuc


def sym_coupling(Y: np.ndarray, G: np.ndarray) -> np.ndarray:
    """The d x d symmetrized coupling 0.5 * (Y^T G + G^T Y), or a stack of them."""
    M = Y.swapaxes(-1, -2) @ G
    return 0.5 * (M + M.swapaxes(-1, -2))


def _stack(blocks) -> np.ndarray:
    """The r x dn matrix [Y_1 ... Y_n] of a stack of blocks (n, r, d)."""
    Y = np.asarray(blocks, dtype=float)
    n, r, d = Y.shape
    return Y.transpose(1, 0, 2).reshape(r, n * d)


def compute_gcache(blocks, Q: BlockSparseSym) -> np.ndarray:
    """From-scratch couplings G_i = sum_{j != i} Y_j Q_[j,i], as an (n, r, d) array."""
    GT = Q.mat @ _stack(blocks).T
    return np.ascontiguousarray(GT.reshape(Q.n, Q.d, -1).transpose(0, 2, 1))


# Stored blocks per chunk of evaluate_cost: its temporaries stay near
# _COST_CHUNK * r * d floats whatever the size of Q.
_COST_CHUNK = 1 << 12


def evaluate_cost(blocks, Q: BlockSparseSym) -> float:
    """F(Y) = tr(Q Y^T Y) = 2 sum_{i<j} <Y_j^T Y_i, Q_[i,j]^T>, summed in pair order.

    The pair terms are written into one array, a chunk of stored blocks of Q at a
    time (the pairs i < j among them), and then summed in sequence.  The blocks
    Y_i and Y_j of a chunk's pairs are gathered by ndarray.take, the same rows
    as fancy indexing at about a third of its cost."""
    Y = np.asarray(blocks, dtype=float)
    indptr, stored = Q.mat.indptr, len(Q.cols)
    terms = np.zeros(Q.num_blocks + 1)  # terms[0] = 0.0 starts the sum
    filled = 1
    for s in range(0, stored, _COST_CHUNK):
        e = min(s + _COST_CHUNK, stored)
        a, b = indptr.searchsorted([s, e - 1], side="right") - 1  # the rows of blocks s, e - 1
        i = np.repeat(np.arange(a, b + 1), np.diff(indptr[a:b + 2].clip(s, e)))
        j = Q.cols[s:e]
        up = j > i
        i, j, B = i[up], j[up], Q.mat.data[s:e][up]
        terms[filled:filled + len(B)] = np.sum((np.swapaxes(Y.take(j, axis=0), 1, 2)
                                                @ Y.take(i, axis=0))
                                               * np.swapaxes(B, 1, 2), axis=(1, 2))
        filled += len(B)
    return 2.0 * float(np.cumsum(terms, out=terms)[-1])


@dataclass
class FactorPoint:
    """Full iterate: blocks Y_i, cached couplings G_i, and cached cost."""

    blocks: np.ndarray  # (n, r, d)
    gcache: np.ndarray  # (n, r, d)
    cost: float

    @classmethod
    def from_blocks(cls, blocks, Q: BlockSparseSym, require_feasible: bool = True):
        """Copy r x d blocks, an (n, r, d) array or a sequence, into a point with fresh caches."""
        Y = np.array(blocks, dtype=float)
        if Y.ndim != 3:
            raise ValueError(f"blocks must form an (n, r, d) array, got shape {Y.shape}")
        n, r, d = Y.shape
        if n != Q.n:
            raise ValueError(f"{n} blocks for an n={Q.n} instance")
        if d != Q.d:
            raise ValueError(f"block width {d} != instance block dimension {Q.d}")
        if r < d:
            raise ValueError(f"rank r={r} smaller than block dimension d={d}")
        if require_feasible:
            bad = np.flatnonzero(~is_orthonormal(Y))
            if bad.size:
                k = int(bad[0])
                raise ValueError(
                    f"block {k} violates orthonormality (residual {feasibility_residual(Y[k]):.3e})")
        return cls(Y, compute_gcache(Y, Q), evaluate_cost(Y, Q))

    @property
    def n(self) -> int:
        return self.blocks.shape[0]

    @property
    def r(self) -> int:
        return self.blocks.shape[1]

    @property
    def d(self) -> int:
        return self.blocks.shape[2]

    def stacked(self) -> np.ndarray:
        """The iterate as a single r x dn matrix [Y_1 ... Y_n]."""
        return _stack(self.blocks)

    def refresh(self, Q: BlockSparseSym) -> float:
        """Recompute gcache and cost from scratch; returns |cost drift|."""
        self.gcache = compute_gcache(self.blocks, Q)
        fresh = evaluate_cost(self.blocks, Q)
        drift = abs(self.cost - fresh)
        self.cost = fresh
        return drift


def riemannian_grad_oracle(point: FactorPoint, Q: BlockSparseSym) -> np.ndarray:
    """Tangent-space projection of the ambient gradient, 2 proj_Y(YQ).

    Recomputes the couplings from Q directly, independent of the incremental
    cache, so the result can serve as a reference for the fast gradient-norm
    formula.  Block i of the returned r x dn matrix is 2 * (G_i - Y_i A_i).
    The library itself does not call it (certify_global gives the same
    norm); it stays here because the benchmark pipeline and its tracer call
    it by this name, and the test suite uses it as the reference gradient.
    """
    G = compute_gcache(point.blocks, Q)
    Y = point.blocks
    return _stack(2.0 * (G - Y @ sym_coupling(Y, G)))


def write_yfactor(blocks, path) -> None:
    """Write factor blocks in the YFACTOR text format (shortest round-trip float repr)."""
    blocks = np.asarray(blocks, dtype=float)
    n, r, d = blocks.shape
    _write_rows(path, f"YFACTOR {r} {d} {n}\n", blocks.reshape(n * r, d))


def read_yfactor(path, reproject: bool = True) -> np.ndarray:
    """Read YFACTOR blocks as an (n, r, d) array.

    Blocks whose orthonormality residual exceeds the feasibility tolerance
    are re-projected onto the manifold (text round-trips lose digits); pass
    reproject=False to get the raw file contents.
    """
    with open(path) as fh:
        r, d, n = _read_header(path, fh, "YFACTOR r d n")
        if not (1 <= d <= r and n >= 1):
            raise ParseError(path, 1, f"header needs 1 <= d <= r and n >= 1, got r={r}, d={d}, n={n}")
        lines, at, _, Y = _read_rows(path, fh, 1, 0, d, (
            f"expected {d} values per row, got {{got}}", "non-numeric value in {line!r}",
            "non-finite value in {line!r}"))
    if len(Y) != r * n:
        raise ParseError(path, lines, f"expected {r * n} data rows, found {len(Y)}")
    Y = Y.reshape(n, r, d)
    if reproject:
        for b in np.flatnonzero(~is_orthonormal(Y)):
            try:
                Y[b] = project_stiefel(Y[b])
            except ValueError as exc:
                raise ParseError(path, at[b * r], f"block {b + 1}: {exc}") from None
    return Y
