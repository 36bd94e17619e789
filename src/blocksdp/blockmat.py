"""Block-sparse symmetric cost matrices.

The cost matrix of the solver is a dn x dn symmetric matrix built from
d x d blocks with all diagonal blocks equal to zero.  It is stored once, as
a scipy block-CSR matrix (`BlockSparseSym.mat`, blocksize d x d) holding
both orientations Q_[i,j] and Q_[j,i] = Q_[i,j]^T of every nonzero block,
with sorted block-column indices.  Block row i therefore lists the
neighbours of i and the blocks that couple them, and the matrix is
symmetric by construction.

Text format (BSM):

    BSM d n m
    i j b11 b12 ... bdd

with m data lines, 1-based indices i < j, and the d x d block in row-major
order.  Matrix Market coordinate files are accepted for d = 1.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import bsr_matrix


class ParseError(ValueError):
    """Malformed instance file; message carries path and line number."""

    def __init__(self, path, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = str(path)
        self.lineno = lineno


def nuclear_norm(M):
    """Sum of singular values of M (zero for an empty matrix).

    A stack of shape (k, r, d) gives an array of its k nuclear norms.
    """
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return np.zeros(M.shape[:-2]) if M.ndim > 2 else 0.0
    s = np.linalg.svd(M, compute_uv=False).sum(axis=-1)
    return s if M.ndim > 2 else float(s)


class BlockSparseSym:
    """Symmetric dn x dn matrix with zero diagonal blocks, stored blockwise.

    Built from blocks keyed by the ordered pair (i, j) with i < j; the
    (j, i) block is the transpose.  Exact-zero blocks are dropped.
    Instances are immutable after construction and safe to share across
    threads for reads.
    """

    def __init__(self, d: int, n: int, blocks: dict):
        if d < 1 or n < 1:
            raise ValueError(f"invalid dimensions d={d}, n={n}")
        self.d = int(d)
        self.n = int(n)
        keys, upper = [], []
        for (i, j), B in blocks.items():
            if not (0 <= i < j < n):
                raise ValueError(f"block key ({i},{j}) is not 0 <= i < j < n={n}")
            B = np.array(B, dtype=float)
            if B.shape != (d, d):
                raise ValueError(f"block ({i},{j}) has shape {B.shape}, expected ({d},{d})")
            if not np.isfinite(B).all():
                raise ValueError(f"block ({i},{j}) has non-finite entries")
            if B.any():
                keys.append((i, j))
                upper.append(B)
        ij = np.array(keys, dtype=np.intp).reshape(-1, 2)
        upper = np.array(upper).reshape(-1, d, d)
        rows = np.concatenate([ij[:, 0], ij[:, 1]])
        cols = np.concatenate([ij[:, 1], ij[:, 0]])
        order = np.lexsort((cols, rows))
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        data = np.concatenate([upper, upper.transpose(0, 2, 1)])[order]
        self.mat = bsr_matrix((data, cols[order], indptr), shape=(d * n, d * n),
                              blocksize=(d, d))
        # Each pair adds its nuclear norm to both of its columns, in input order.
        self._col_nuclear = np.bincount(ij.ravel(), weights=np.repeat(nuclear_norm(upper), 2),
                                        minlength=n)

    @property
    def num_blocks(self) -> int:
        return int(self.mat.indptr[-1]) // 2

    def block(self, i: int, j: int) -> np.ndarray:
        """Return Q_[i,j], or zeros when the pair is not stored.

        Returned arrays may alias internal storage and must not be written.
        """
        p0, p1 = self.mat.indptr[i], self.mat.indptr[i + 1]
        p = p0 + int(np.searchsorted(self.mat.indices[p0:p1], j))
        if p < p1 and self.mat.indices[p] == j:
            return self.mat.data[p]
        return np.zeros((self.d, self.d))

    def upper(self):
        """The stored pairs i < j in row order: index arrays i, j and blocks (m, d, d)."""
        rows = np.repeat(np.arange(self.n), np.diff(self.mat.indptr))
        up = self.mat.indices > rows
        return rows[up], self.mat.indices[up], self.mat.data[up]

    def pairs(self):
        """Iterate over (i, j, block) for the stored pairs i < j, in row order."""
        i, j, B = self.upper()
        return zip(i.tolist(), j.tolist(), B)

    def to_dense(self) -> np.ndarray:
        return self.mat.toarray()

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.mat.data))

    def column_nuclear_sums(self) -> np.ndarray:
        """Per-column sums of block nuclear norms, computed at construction."""
        return self._col_nuclear

    def c1(self) -> float:
        """max_i of the column sums of off-diagonal block nuclear norms."""
        return float(self._col_nuclear.max())

    def c2(self) -> float:
        """Sum of block nuclear norms over all ordered pairs i != j."""
        return float(self._col_nuclear.sum())


def from_block_dict(d: int, n: int, raw: dict):
    """Build a preprocessed matrix from sparse blocks keyed by (i, j), 0-based.

    Keys may appear in either orientation (a missing orientation counts as a
    zero block); diagonal keys contribute only to the returned trace offset.
    Returns (Q, offset): Q holds 0.5*(raw[i,j] + raw[j,i]^T) for i < j (exact
    zeros dropped) and offset sums the traces of the diagonal blocks, so that
    tr(R X) = tr(Q X) + offset for the matrix R assembled from raw and every X
    with identity diagonal blocks.
    """
    offset = 0.0
    acc = {}
    for (i, j), B in raw.items():
        B = np.asarray(B, dtype=float)
        if B.shape != (d, d):
            raise ValueError(f"block ({i},{j}) has shape {B.shape}, expected ({d},{d})")
        if not np.isfinite(B).all():
            raise ValueError(f"block ({i},{j}) has non-finite entries")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"block key ({i},{j}) out of range for n={n}")
        if i == j:
            offset += float(np.trace(B))
            continue
        key = (min(i, j), max(i, j))
        half = 0.5 * B if i < j else 0.5 * B.T
        if key in acc:
            acc[key] = acc[key] + half
        else:
            acc[key] = half
    blocks = {k: B for k, B in acc.items() if B.any()}
    return BlockSparseSym(d, n, blocks), offset


def write_bsm(Q: BlockSparseSym, path) -> None:
    """Write Q in the BSM text format (shortest round-trip float repr)."""
    with open(path, "w") as fh:
        fh.write(f"BSM {Q.d} {Q.n} {Q.num_blocks}\n")
        for i, j, B in Q.pairs():
            entries = " ".join(repr(float(v)) for v in B.ravel())
            fh.write(f"{i + 1} {j + 1} {entries}\n")


def read_bsm(path) -> BlockSparseSym:
    """Read a BSM text file; raises ParseError with the offending line number."""
    with open(path) as fh:
        lines = fh.readlines()
    if not lines:
        raise ParseError(path, 1, "empty file, expected 'BSM d n m' header")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "BSM":
        raise ParseError(path, 1, f"bad header {lines[0].strip()!r}, expected 'BSM d n m'")
    try:
        d, n, m = int(head[1]), int(head[2]), int(head[3])
    except ValueError:
        raise ParseError(path, 1, f"non-integer header fields in {lines[0].strip()!r}") from None
    if d < 1 or n < 1:
        raise ParseError(path, 1, f"header needs d >= 1 and n >= 1, got d={d}, n={n}")
    blocks = {}
    count = 0
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2 + d * d:
            raise ParseError(path, lineno, f"expected 2 indices + {d * d} block entries, got {len(parts)} fields")
        try:
            i, j = int(parts[0]), int(parts[1])
            vals = [float(v) for v in parts[2:]]
        except ValueError:
            raise ParseError(path, lineno, f"non-numeric field in {line.strip()!r}") from None
        if not (1 <= i < j <= n):
            raise ParseError(path, lineno, f"indices ({i},{j}) violate 1 <= i < j <= n={n}")
        key = (i - 1, j - 1)
        if key in blocks:
            raise ParseError(path, lineno, f"duplicate block ({i},{j})")
        B = np.array(vals).reshape(d, d)
        if not np.isfinite(B).all():
            raise ParseError(path, lineno, f"non-finite entries in block ({i},{j})")
        blocks[key] = B
        count += 1
    if count != m:
        raise ParseError(path, len(lines), f"header declares {m} blocks, file has {count}")
    return BlockSparseSym(d, n, blocks)


def read_matrix_market(path):
    """Read a Matrix Market coordinate file as a d=1 instance.

    Returns (Q, offset) after symmetrization; diagonal entries go into the
    offset.  Only 'coordinate real' (general or symmetric) files are accepted.
    """
    with open(path) as fh:
        lines = fh.readlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise ParseError(path, 1, "missing %%MatrixMarket header")
    head = lines[0].split()
    if len(head) < 5 or head[1] != "matrix" or head[2] != "coordinate":
        raise ParseError(path, 1, f"unsupported header {lines[0].strip()!r}")
    field, symmetry = head[3], head[4]
    if field not in ("real", "integer"):
        raise ParseError(path, 1, f"unsupported field type {field!r}")
    if symmetry not in ("general", "symmetric"):
        raise ParseError(path, 1, f"unsupported symmetry {symmetry!r}")
    idx = 1
    while idx < len(lines) and lines[idx].lstrip().startswith("%"):
        idx += 1
    if idx >= len(lines):
        raise ParseError(path, len(lines), "missing size line")
    size = lines[idx].split()
    if len(size) != 3:
        raise ParseError(path, idx + 1, f"bad size line {lines[idx].strip()!r}")
    try:
        rows, cols, nnz = (int(v) for v in size)
    except ValueError:
        raise ParseError(path, idx + 1, f"non-integer size line {lines[idx].strip()!r}") from None
    if rows != cols:
        raise ParseError(path, idx + 1, f"matrix is {rows}x{cols}, expected square")
    if rows < 1:
        raise ParseError(path, idx + 1, f"matrix is {rows}x{cols}, expected at least 1x1")
    raw = {}
    count = 0
    for lineno, line in enumerate(lines[idx + 1:], start=idx + 2):
        if not line.strip() or line.lstrip().startswith("%"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(path, lineno, f"expected 'i j value', got {line.strip()!r}")
        try:
            i, j = int(parts[0]) - 1, int(parts[1]) - 1
            v = float(parts[2])
        except ValueError:
            raise ParseError(path, lineno, f"non-numeric field in {line.strip()!r}") from None
        if not np.isfinite(v):
            raise ParseError(path, lineno, f"non-finite value {parts[2]!r}")
        if not (0 <= i < rows and 0 <= j < rows):
            raise ParseError(path, lineno, f"indices out of range for n={rows}")
        if (i, j) in raw:
            raise ParseError(path, lineno, f"duplicate entry ({i + 1},{j + 1})")
        raw[(i, j)] = np.array([[v]])
        if symmetry == "symmetric" and i != j:
            raw[(j, i)] = np.array([[v]])
        count += 1
    if count != nnz:
        raise ParseError(path, len(lines), f"size line declares {nnz} entries, file has {count}")
    return from_block_dict(1, rows, raw)
