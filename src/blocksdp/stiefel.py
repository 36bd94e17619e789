"""Stiefel-manifold blocks, the closed-form block minimizer, and the
projection-based Riemannian gradient.

A variable block is an r x d matrix Y with orthonormal columns (d <= r).
The full iterate is the row of blocks [Y_1 ... Y_n] together with the
cached coupling matrices G_i = sum_{j != i} Y_j Q_[j,i] and the cost
F(Y) = tr(Q Y^T Y) = sum_i <G_i, Y_i>.

Solution text format (YFACTOR):

    YFACTOR r d n

followed by n sections of r lines with d whitespace-separated values each
(block Y_i in row-major order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockmat import BlockSparseSym, ParseError

# Max-abs tolerance on Y^T Y - I for a block to count as feasible.
FEASIBILITY_TOL = 1e-10


class StaleCacheError(RuntimeError):
    """Cached G_i disagrees with a from-scratch recomputation."""


def feasibility_residual(M: np.ndarray) -> float:
    """Max-abs entry of M^T M - I."""
    M = np.asarray(M, dtype=float)
    d = M.shape[1]
    return float(np.abs(M.T @ M - np.eye(d)).max())


def is_orthonormal(M: np.ndarray, tol: float = FEASIBILITY_TOL) -> bool:
    return feasibility_residual(M) <= tol


def project_stiefel(M: np.ndarray) -> np.ndarray:
    """Closest matrix with orthonormal columns, U V^T from the thin SVD.

    Raises ValueError for rank-deficient input (the projection is then not
    unique), naming the number of deficient columns.
    """
    M = np.asarray(M, dtype=float)
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    deficient = int(np.sum(s <= 1e-12 * max(1.0, s[0] if s.size else 0.0)))
    if deficient:
        raise ValueError(
            f"cannot project rank-deficient matrix: {deficient} of {M.shape[1]} columns deficient")
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
    """The d x d symmetrized coupling 0.5 * (Y^T G + G^T Y)."""
    M = Y.T @ G
    return 0.5 * (M + M.T)


def compute_gcache(blocks, Q: BlockSparseSym):
    """From-scratch coupling matrices G_i = sum_{j != i} Y_j Q_[j,i]."""
    r = blocks[0].shape[0]
    g = [np.zeros((r, Q.d)) for _ in range(Q.n)]
    for i, j, B in Q.pairs():
        # stored block is Q_[i,j]; Q_[j,i] = B^T
        g[j] += blocks[i] @ B
        g[i] += blocks[j] @ B.T
    return g


def evaluate_cost(blocks, Q: BlockSparseSym) -> float:
    """F(Y) = tr(Q Y^T Y), summed directly over stored pairs."""
    total = 0.0
    for i, j, B in Q.pairs():
        total += 2.0 * float(np.sum((blocks[j].T @ blocks[i]) * B.T))
    return total


@dataclass
class FactorPoint:
    """Full iterate: blocks Y_i, cached couplings G_i, and cached cost."""

    blocks: list
    gcache: list
    cost: float

    @classmethod
    def from_blocks(cls, blocks, Q: BlockSparseSym, require_feasible: bool = True):
        blocks = [np.array(B, dtype=float) for B in blocks]
        if len(blocks) != Q.n:
            raise ValueError(f"{len(blocks)} blocks for an n={Q.n} instance")
        r, d = blocks[0].shape
        if d != Q.d:
            raise ValueError(f"block width {d} != instance block dimension {Q.d}")
        if r < d:
            raise ValueError(f"rank r={r} smaller than block dimension d={d}")
        for k, B in enumerate(blocks):
            if B.shape != (r, d):
                raise ValueError(f"block {k} has shape {B.shape}, expected ({r},{d})")
            if require_feasible and not is_orthonormal(B):
                raise ValueError(
                    f"block {k} violates orthonormality (residual {feasibility_residual(B):.3e})")
        gcache = compute_gcache(blocks, Q)
        cost = evaluate_cost(blocks, Q)
        return cls(blocks, gcache, cost)

    @classmethod
    def random(cls, Q: BlockSparseSym, r: int, rng: np.random.Generator):
        return cls.from_blocks([random_stiefel(r, Q.d, rng) for _ in range(Q.n)], Q)

    @property
    def n(self) -> int:
        return len(self.blocks)

    @property
    def r(self) -> int:
        return self.blocks[0].shape[0]

    @property
    def d(self) -> int:
        return self.blocks[0].shape[1]

    def stacked(self) -> np.ndarray:
        """The iterate as a single r x dn matrix [Y_1 ... Y_n]."""
        return np.hstack(self.blocks)

    def cost_from_cache(self) -> float:
        return float(sum(np.vdot(g, y) for g, y in zip(self.gcache, self.blocks)))

    def refresh(self, Q: BlockSparseSym) -> float:
        """Recompute gcache and cost from scratch; returns |cost drift|."""
        self.gcache = compute_gcache(self.blocks, Q)
        fresh = evaluate_cost(self.blocks, Q)
        drift = abs(self.cost - fresh)
        self.cost = fresh
        return drift

    def gcache_residual(self, Q: BlockSparseSym) -> float:
        """Largest Frobenius gap between cached and recomputed G_i."""
        fresh = compute_gcache(self.blocks, Q)
        return max(float(np.linalg.norm(g - f)) for g, f in zip(self.gcache, fresh))


def riemannian_grad_oracle(point: FactorPoint, Q: BlockSparseSym,
                           verify_cache: bool = False) -> np.ndarray:
    """Tangent-space projection of the ambient gradient, 2 proj_Y(YQ).

    Recomputes the couplings from Q directly, independent of the incremental
    cache, so the result can serve as a reference for the fast gradient-norm
    formula.  Block i of the returned r x dn matrix is 2 * (G_i - Y_i A_i).
    With verify_cache=True, raises StaleCacheError if the point's cached G_i
    drift from the recomputation by more than 1e-8 in Frobenius norm.
    """
    fresh = compute_gcache(point.blocks, Q)
    if verify_cache:
        worst = max(float(np.linalg.norm(g - f)) for g, f in zip(point.gcache, fresh))
        if worst > 1e-8:
            raise StaleCacheError(f"cached couplings off by {worst:.3e} Frobenius")
    out = np.empty((point.r, point.d * point.n))
    d = point.d
    for i, (Y, G) in enumerate(zip(point.blocks, fresh)):
        out[:, i * d:(i + 1) * d] = 2.0 * (G - Y @ sym_coupling(Y, G))
    return out


def write_yfactor(blocks, path) -> None:
    """Write factor blocks in the YFACTOR text format."""
    blocks = [np.asarray(B, dtype=float) for B in blocks]
    r, d = blocks[0].shape
    with open(path, "w") as fh:
        fh.write(f"YFACTOR {r} {d} {len(blocks)}\n")
        for B in blocks:
            for row in B:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def read_yfactor(path, reproject: bool = True):
    """Read YFACTOR blocks.

    Blocks whose orthonormality residual exceeds the feasibility tolerance
    are re-projected onto the manifold (text round-trips lose digits); pass
    reproject=False to get the raw file contents.
    """
    with open(path) as fh:
        lines = [ln for ln in fh.readlines()]
    if not lines:
        raise ParseError(path, 1, "empty file, expected 'YFACTOR r d n' header")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "YFACTOR":
        raise ParseError(path, 1, f"bad header {lines[0].strip()!r}, expected 'YFACTOR r d n'")
    try:
        r, d, n = int(head[1]), int(head[2]), int(head[3])
    except ValueError:
        raise ParseError(path, 1, f"non-integer header fields in {lines[0].strip()!r}") from None
    if not (1 <= d <= r and n >= 1):
        raise ParseError(path, 1, f"header needs 1 <= d <= r and n >= 1, got r={r}, d={d}, n={n}")
    rows = [ln for ln in lines[1:] if ln.strip()]
    if len(rows) != r * n:
        raise ParseError(path, len(lines), f"expected {r * n} data rows, found {len(rows)}")
    blocks = []
    for b in range(n):
        data = []
        for k in range(r):
            lineno = 2 + b * r + k
            parts = rows[b * r + k].split()
            if len(parts) != d:
                raise ParseError(path, lineno, f"expected {d} values per row, got {len(parts)}")
            try:
                data.append([float(v) for v in parts])
            except ValueError:
                raise ParseError(path, lineno, f"non-numeric value in {rows[b * r + k].strip()!r}") from None
        B = np.array(data)
        if reproject and not is_orthonormal(B):
            try:
                B = project_stiefel(B)
            except ValueError as exc:
                raise ParseError(path, 2 + b * r, f"block {b + 1}: {exc}") from None
        blocks.append(B)
    return blocks
