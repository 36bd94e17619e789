"""Stiefel-manifold blocks, the closed-form block minimizer, and the
projection-based Riemannian gradient (a reference for the benchmark and the
tests; the library's own gradient norms come from analysis).

A variable block is an r x d matrix Y with orthonormal columns (d <= r).
The full iterate is the row of blocks [Y_1 ... Y_n], stored as one
(n, r, d) array, together with the cached coupling matrices
G_i = sum_{j != i} Y_j Q_[j,i] in a second (n, r, d) array and the cost
F(Y) = tr(Q Y^T Y) = sum_i <G_i, Y_i>.  Block row i of the product
Q [Y_1 ... Y_n]^T is G_i^T, so all couplings come from one sparse product.

Solution text format (YFACTOR):

    YFACTOR r d n

followed by n sections of r lines with d whitespace-separated values each
(block Y_i in row-major order), read and written by blockmat's row helpers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockmat import BlockSparseSym, ParseError, _read_header, _read_rows, _write_rows

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
    stack (k, r, d), that of each matrix, from one batched SVD.

    Raises ValueError for rank-deficient input (the projection is then not
    unique), naming the number of deficient columns and, in a stack, the
    first deficient matrix.
    """
    M = np.asarray(M, dtype=float)
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    deficient = (s <= 1e-12 * np.maximum(1.0, s[..., :1])).sum(axis=-1)
    if deficient.any():
        k = int(np.flatnonzero(deficient)[0])
        which = f" {k}" if M.ndim > 2 else ""
        raise ValueError(f"cannot project rank-deficient matrix{which}: "
                         f"{deficient.flat[k]} of {M.shape[-1]} columns deficient")
    return U @ Vt


def random_stiefel(r: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Random feasible block: Gaussian r x d matrix projected to the manifold."""
    return project_stiefel(rng.standard_normal((r, d)))


def block_minimize(G: np.ndarray, current: np.ndarray | None = None):
    """Minimize <G, Y> over r x d matrices with orthonormal columns.

    Returns (Y_star, achieved) where Y_star = U V^T from the thin SVD of -G
    and achieved = <G, Y_star> = -nuclear_norm(G).  For exactly-zero G every
    feasible point is optimal: `current` is returned unchanged when supplied,
    the identity frame otherwise.
    """
    G = np.asarray(G, dtype=float)
    if not np.isfinite(G).all():
        raise ValueError("block coupling matrix has non-finite entries")
    if not G.any():
        r, d = G.shape
        Y = current if current is not None else np.eye(r, d)
        return np.array(Y, dtype=float), 0.0
    U, s, Vt = np.linalg.svd(-G, full_matrices=False)
    Y = U @ Vt
    return Y, -float(s.sum())


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


def evaluate_cost(blocks, Q: BlockSparseSym) -> float:
    """F(Y) = tr(Q Y^T Y) = 2 sum_{i<j} <Y_j^T Y_i, Q_[i,j]^T>, summed in pair order."""
    Y = np.asarray(blocks, dtype=float)
    i, j, B = Q.upper()
    terms = np.sum((np.swapaxes(Y[j], 1, 2) @ Y[i]) * np.swapaxes(B, 1, 2), axis=(1, 2))
    return 2.0 * float(np.cumsum(np.concatenate([[0.0], terms]))[-1])


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
    lines, (r, d, n) = _read_header(path, "YFACTOR r d n")
    if not (1 <= d <= r and n >= 1):
        raise ParseError(path, 1, f"header needs 1 <= d <= r and n >= 1, got r={r}, d={d}, n={n}")
    at, _, Y = _read_rows(path, lines, 1, 0, d, (
        f"expected {d} values per row, got {{got}}", "non-numeric value in {line!r}",
        "non-finite value in {line!r}"))
    if len(Y) != r * n:
        raise ParseError(path, len(lines), f"expected {r * n} data rows, found {len(Y)}")
    Y = Y.reshape(n, r, d)
    if reproject:
        for b in np.flatnonzero(~is_orthonormal(Y)):
            try:
                Y[b] = project_stiefel(Y[b])
            except ValueError as exc:
                raise ParseError(path, at[b * r], f"block {b + 1}: {exc}") from None
    return Y
