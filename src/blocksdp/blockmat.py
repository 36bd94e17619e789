"""Block-sparse symmetric cost matrices and the rows of the text formats.

The cost matrix of the solver is a dn x dn symmetric matrix built from
d x d blocks with all diagonal blocks equal to zero.  It is stored once, as
a scipy block-CSR matrix (`BlockSparseSym.mat`, blocksize d x d) holding
both orientations Q_[i,j] and Q_[j,i] = Q_[i,j]^T of every nonzero block,
with sorted block-column indices.  Block row i therefore lists the
neighbours of i and the blocks that couple them, and the matrix is
symmetric by construction.  Block nuclear norms come in closed form, as
column norms, for d = 1.  For d > 1 C1, C2 and the stall test take them
from batched SVDs (`nuclear_norm`), and the importance weights from the
eigenvalues of the d x d Gram matrices (`gram_nuclear_norms`), which
overstate a rank-deficient block's norm by up to about 2e-8 relative.

Text format (BSM):

    BSM d n m
    i j b11 b12 ... bdd

with m data lines, 1-based indices i < j, and the d x d block in row-major
order.  Matrix Market coordinate files are accepted for d = 1.  Every text
format is read by `_read_rows` and written by `_write_rows`, with the checks
on whole arrays; a malformed file raises ParseError naming a faulty line.
`_read_rows` converts the data lines in one np.loadtxt pass over the open
file, taken in batches, and leaves any doubt to a row reader, so the
accepted inputs and the messages are the row reader's; the list of the
file's lines is built only when that pass meets a comment line or a doubt.
The readers hand index and block arrays to `BlockSparseSym.from_arrays`,
the one construction path, which sorts one int64 key r * n + c per stored
block, both orientations at once (hence n <= _N_MAX); a reader looks for
the line of a repeated pair only after construction has found one.
"""

from __future__ import annotations

import io
import math
import warnings
from functools import partial
from itertools import chain, compress, islice, repeat

import numpy as np
from scipy.sparse import bsr_matrix


class ParseError(ValueError):
    """Malformed instance file; message carries path and line number."""

    def __init__(self, path, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = str(path)
        self.lineno = int(lineno)


def _reject(bad, error) -> None:
    """Raise error(k) for the first k at which the mask bad is True."""
    if bad.any():
        raise error(int(bad.argmax()))


def _repeats(a, b):
    """Mask of the rows k whose pair (a[k], b[k]) occurs on an earlier row."""
    order = np.lexsort((b, a))  # stable: equal pairs stay in row order
    a, b = a[order], b[order]
    repeat = np.zeros(len(order), dtype=bool)
    repeat[order[1:]] = (a[1:] == a[:-1]) & (b[1:] == b[:-1])
    return repeat


def _int_array(values):
    """int64 array, or an array of Python ints when one overflows int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _read_header(path, fh, form: str):
    """The integers of the first line of the open file fh, a header `form` (e.g. 'BSM d n m')."""
    line = fh.readline()
    if not line:
        raise ParseError(path, 1, f"empty file, expected '{form}' header")
    head = line.split()
    if len(head) != len(form.split()) or head[0] != form.split()[0]:
        raise ParseError(path, 1, f"bad header {line.strip()!r}, expected '{form}'")
    try:
        return [int(v) for v in head[1:]]
    except ValueError:
        raise ParseError(path, 1, f"non-integer header fields in {line.strip()!r}") from None


# Characters per batch of lines that _read_rows' conversion pass reads from a file.
_BATCH_CHARS = 1 << 14


def _batches(fh, sizes: list):
    """The remaining lines of the open text file fh in batches of about _BATCH_CHARS
    characters, each batch's number of lines appended to sizes as it is read."""
    for batch in iter(partial(fh.readlines, _BATCH_CHARS), []):
        sizes.append(len(batch))
        yield batch


def _read_rows(path, fh, first: int, n_int: int, n_float: int, messages, comment=()):
    """The rows of the open text file fh, the lines after its first `first` but blank
    lines and those starting with `comment`: (lines, at, ints, floats), the file's
    line count, the line number of each row, and the integers (n_int, k) and finite
    floats (k, n_float) of the k rows, converted as int() and float() would.  A wrong
    field count, a non-number or a non-finite value raises ParseError with
    messages[0], [1] or [2], formatted with the stripped `line`, its `fields`, their
    count `got` and (for [2]) its integers `ints`.

    The rows are converted in one C-level pass (`_load_table`) over the lines of fh,
    read in batches of bounded size and counted, which skips blank lines.  When it
    gives one row per line, no line was blank and the line numbers are a range; when
    it gives fewer, one stream over the lines numbers the rows.  Only when that pass
    has any doubt (a comment line, whose first field never converts, or a row that
    int() and float() alone read) does the list of lines come back: its blank and
    comment lines are skipped, the pass made again on the rest, and the row reader
    `_convert_rows` takes over if it still has a doubt, so it alone accepts what
    only int() and float() read and names a faulty line."""
    skip = first  # the lines before the rows, from where fh.seek(0) goes
    if not fh.seekable():  # a pipe is read once: keep the rest of it
        fh, skip = io.StringIO(fh.read()), 0
    sizes = []
    table = _load_table(chain.from_iterable(_batches(fh, sizes)), n_int, n_float)
    if table is not None:
        lines = first + sum(sizes)
        if len(table[1]) == sum(sizes):  # no blank line
            return lines, range(first + 1, lines + 1), *table
        fh.seek(0)
        data = np.fromiter(map(bool, map(str.lstrip, islice(fh, skip, None))), bool)
        if np.count_nonzero(data) == len(table[1]):  # the pass skipped just the blank lines
            return lines, first + 1 + np.flatnonzero(data), *table
    fh.seek(0)
    body = list(islice(fh, skip, None))
    lines = first + len(body)
    heads = list(map(str.lstrip, body))
    data = np.fromiter(map(bool, heads), bool, len(heads))
    if comment:
        data &= ~np.fromiter(map(str.startswith, heads, repeat(comment)), bool, len(heads))
    at = first + 1 + np.flatnonzero(data)
    rows = list(compress(body, data))
    table = _load_table(rows, n_int, n_float)
    if table is None or len(table[1]) != len(rows):
        table = _convert_rows(path, at, rows, n_int, n_float, messages)
    return lines, at, *table


def _load_table(rows, n_int: int, n_float: int):
    """Integers (n_int, k) and floats (k, n_float) of the k rows that one np.loadtxt
    pass reads from rows, an iterable of lines, skipping blank lines; None when that
    pass raises, warns or meets a non-finite value.  loadtxt reads a subset of what
    int() and float() accept (ASCII digits, int64 range), to the same values."""
    dtype = np.dtype([("i", np.int64, (n_int,)), ("x", np.float64, (n_float,))])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(rows, dtype=dtype, comments=None, ndmin=1)
    except (ValueError, Warning):  # loadtxt's conversion and column-count errors
        return None
    if not np.isfinite(table["x"]).all():
        return None
    return table["i"].T, table["x"]


def _convert_rows(path, at, rows, n_int: int, n_float: int, messages):
    """_read_rows' conversion one row at a time, by int() and float()."""
    fields = list(map(str.split, rows))
    width = n_int + n_float

    def error(kind, k):
        f = fields[k]
        values = [int(v) for v in f[:n_int]] if kind == 2 else None  # all rows convert by then
        message = messages[kind].format(line=rows[k].strip(), fields=f, got=len(f), ints=values)
        return ParseError(path, at[k], message)

    _reject(np.fromiter(map(len, fields), np.intp, len(fields)) != width, partial(error, 0))
    flat = [v for f in fields for v in f]
    try:
        ints = _int_array([list(map(int, flat[c::width])) for c in range(n_int)])
        floats = np.array([list(map(float, flat[c::width])) for c in range(n_int, width)]).T
    except ValueError:
        for k, f in enumerate(fields):  # runs only once a conversion has failed
            try:
                [*map(int, f[:n_int]), *map(float, f[n_int:])]
            except ValueError:
                raise error(1, k) from None
    _reject(~np.isfinite(floats).all(axis=1), partial(error, 2))
    return ints.reshape(n_int, len(rows)), floats


def _write_rows(path, header: str, *columns) -> None:
    """Write header, then the rows of equal-length 2-D arrays: the repr of each
    .tolist() value (floats in their shortest round-trip form)."""
    line = " ".join(["%r"] * sum(c.shape[1] for c in columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(header)
        for s in range(0, len(columns[0]), 1 << 14):  # chunks of rows bound the memory
            rows = np.concatenate([c[s:s + (1 << 14)].astype(object) for c in columns], axis=1)
            fh.write(line * len(rows) % tuple(rows.ravel().tolist()))


# Sums of squares in [_SQ_MIN, _SQ_MAX] give a column norm, and the eigenvalues
# of a Gram matrix, to rounding: below, squared entries may have underflowed;
# above, overflowed.
_SQ_MIN = np.finfo(float).tiny / np.finfo(float).eps
_SQ_MAX = np.finfo(float).max


def nuclear_norm(M):
    """Sum of singular values of M (zero for an empty matrix), to rounding.

    A stack of shape (k, r, d) gives an array of its k nuclear norms.  A
    single column (d = 1) has one singular value, its Euclidean norm
    sqrt(sum g^2) (gram_nuclear_norms); the SVD serves d > 1, where C1, C2
    and the stall test need its accuracy on rank-deficient blocks.
    """
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return np.zeros(M.shape[:-2]) if M.ndim > 2 else 0.0
    if M.shape[-1] == 1:
        with np.errstate(over="ignore"):  # overflowing squares take the SVD
            s = gram_nuclear_norms(M)
    else:
        s = np.linalg.svd(M, compute_uv=False).sum(axis=-1)
    return s if M.ndim > 2 else float(s)


def gram_nuclear_norms(G):
    """The nuclear norms of a stack of r x d blocks (..., r, d), the importance
    weights, from the d x d Gram matrices G^T G: sum_j sqrt(max(lambda_j, 0))
    over their eigenvalues (np.linalg.eigvalsh); one block (r, d) gives an
    array of shape ().  At d = 1 that is the column norm sqrt(sum g^2),
    nuclear_norm's d = 1 case without its np.errstate.

    Blocks whose sum of squares is not finite or leaves [_SQ_MIN, _SQ_MAX]
    take the SVD: a NaN raises the SVD's LinAlgError (eigvalsh would give
    finite values for it), and a block whose squares underflow keeps its
    positive norm.  Squares of entries beyond about 1.3e154 overflow with a
    RuntimeWarning unless the caller ignores or rules out overflow.  At d > 1
    the sums of squares are formed only when <G, G> over the whole stack is
    not finite or some block's largest eigenvalue lies below _SQ_MIN.

    An eigenvalue of G^T G is off by about eps ||G||_2^2, so a singular value
    far below sqrt(eps) ||G||_2 comes out as up to about sqrt(eps) ||G||_2: on
    rank-deficient blocks the norms exceed the SVD's by up to about 2e-8
    relative; on well-conditioned ones they agree to about 1e-16.
    """
    if G.shape[-1] == 1:
        C = G.reshape(-1, G.shape[-2])
        sq = (C * C).sum(axis=1)
        s = np.sqrt(sq)
        if not (_SQ_MIN <= np.minimum.reduce(sq, initial=np.inf)
                and np.maximum.reduce(sq, initial=0.0) <= _SQ_MAX):
            far = ~((_SQ_MIN <= sq) & (sq <= _SQ_MAX))
            s[far] = np.linalg.svd(C[far, :, None], compute_uv=False)[:, 0]
        return s.reshape(G.shape[:-2])
    finite = math.isfinite(np.vdot(G, G))  # no entry NaN or inf, no square past the range
    if finite:
        s, top = _gram_norms(G)
        if np.minimum.reduce(top, axis=None, initial=np.inf) >= _SQ_MIN:
            return s
    sq = (G * G).sum(axis=(-2, -1))
    far = ~((_SQ_MIN <= sq) & (sq <= _SQ_MAX))
    if finite:
        s = np.array(s)  # one block's norm is a numpy scalar
    else:  # eigvalsh only on the blocks in range
        s = np.zeros(G.shape[:-2])
        s[~far] = _gram_norms(G[~far])[0]
    s[far] = np.linalg.svd(G[far], compute_uv=False).sum(axis=-1)
    return s


def _gram_norms(G):
    """gram_nuclear_norms of a stack of finite blocks (..., r, d) by the Gram
    eigenvalues alone, and the largest eigenvalue of each block."""
    lam = np.linalg.eigvalsh(G.swapaxes(-2, -1) @ G)
    return np.sqrt(np.maximum(lam, 0.0)).sum(axis=-1), lam[..., -1]


def _stack_blocks(d: int, blocks: dict):
    """Key arrays i, j and the d x d blocks (k, d, d) of a dict, in dict order."""
    keys, values = _int_array(list(blocks)).reshape(len(blocks), 2), list(blocks.values())
    try:  # the d x d sentinel makes a block of any other shape fail here
        return keys[:, 0], keys[:, 1], np.array([*values, np.zeros((d, d))], dtype=float)[:-1]
    except ValueError:
        k = next((k for k, B in enumerate(values) if np.shape(B) != (d, d)), None)
        if k is None:
            raise
    raise ValueError(f"block ({keys[k, 0]},{keys[k, 1]}) has shape {np.shape(values[k])}, "
                     f"expected ({d},{d})")


# The largest d or n: block indices are numpy intp.
_INTP_MAX = int(np.iinfo(np.intp).max)
# The largest n: construction sorts pairs by the int64 key i * n + j <= n^2 - 1.
_N_MAX = math.isqrt(2 ** 63 - 1)


def _check_dimensions(d: int, n: int) -> None:
    if d < 1 or n < 1:
        raise ValueError(f"invalid dimensions d={d}, n={n}")
    if max(d, n) > _INTP_MAX:
        raise ValueError(f"dimensions d={d}, n={n} exceed the index range {_INTP_MAX}")
    if n > _N_MAX:
        raise ValueError(f"n={n} exceeds the sort-key bound {_N_MAX}")


class BlockSparseSym:
    """Symmetric dn x dn matrix with zero diagonal blocks, stored blockwise.

    Built from blocks keyed by the ordered pair (i, j) with i < j, as a dict
    or as arrays (`from_arrays`); the (j, i) block is the transpose.
    Exact-zero blocks are dropped.
    Instances are immutable after construction and safe to share across
    threads for reads.
    """

    def __init__(self, d: int, n: int, blocks: dict):
        """The matrix of the blocks {(i, j): B}: from_arrays of its keys and blocks in dict order."""
        _check_dimensions(d, n)
        self._build(d, n, *_stack_blocks(d, blocks))

    @classmethod
    def from_arrays(cls, d: int, n: int, i, j, B) -> "BlockSparseSym":
        """The matrix with block B[k] (an array (k, d, d)) at the pair (i[k], j[k])."""
        _check_dimensions(d, n)
        Q = cls.__new__(cls)
        Q._build(d, n, i, j, np.asarray(B, dtype=float))
        return Q

    def _build(self, d, n, i, j, B) -> None:
        self.d = int(d)
        self.n = int(n)
        if not len(i) == len(j) == len(B) or B.ndim != 3:
            raise ValueError(f"{len(i)} and {len(j)} keys for blocks of shape {B.shape}")
        _reject(np.repeat(B.shape[1:] != (d, d), len(B)),  # the blocks of a stack share one shape
                lambda k: ValueError(f"block ({i[k]},{j[k]}) has shape {B.shape[1:]}, expected ({d},{d})"))
        _reject(~((0 <= i) & (i < j) & (j < n)),
                lambda k: ValueError(f"block key ({i[k]},{j[k]}) is not 0 <= i < j < n={n}"))
        _reject(~np.isfinite(B).all(axis=(1, 2)),
                lambda k: ValueError(f"block ({i[k]},{j[k]}) has non-finite entries"))
        m = len(B)
        i, j = i.astype(np.int64, copy=False), j.astype(np.int64, copy=False)
        # One sort key r * n + c per stored block (n <= _N_MAX): the input pairs (i, j),
        # then their transposes (j, i).
        key = np.empty(2 * m, dtype=np.int64)
        np.multiply(i, n, out=key[:m])
        key[:m] += j
        np.multiply(j, n, out=key[m:])
        key[m:] += i
        order = key.argsort()
        key = key[order]  # a pair given twice sorts next to itself, i < j first
        _reject(key[1:] == key[:-1],
                lambda k: ValueError(f"duplicate block ({key[k] // n},{key[k] % n})"))
        flip = order >= m  # stored as the transpose of its input block
        p = np.subtract(order, m, out=order, where=flip)  # the input block of each stored block
        nonzero = B.any(axis=(1, 2))
        kept = None if nonzero.all() else nonzero[p]  # exact-zero blocks are dropped
        stored = key if kept is None else key[kept]
        indptr = np.append(stored.searchsorted(np.arange(n) * n), len(stored))
        c = np.remainder(key, n, out=key)
        # Each pair adds its nuclear norm (0.0 for a zero block) to both of its columns,
        # in row order whatever the input order (inf past range).
        with np.errstate(over="ignore"):
            self._col_nuclear = np.bincount(c, nuclear_norm(B)[p], minlength=n)
        if kept is not None:
            c, p, flip = c[kept], p[kept], flip[kept]
        data = B[p]
        if d > 1:
            data[flip] = data[flip].transpose(0, 2, 1)
        self.mat = bsr_matrix((data, c, indptr), shape=(d * n, d * n), blocksize=(d, d))
        # The block columns of mat as intp: numpy casts int32 indices at every use.
        self.cols = c.astype(np.intp, copy=False)
        self._c1 = float(self._col_nuclear.max())

    @property
    def num_blocks(self) -> int:
        return int(self.mat.indptr[-1]) // 2

    def upper(self):
        """The stored pairs i < j in row order: index arrays i, j and blocks (m, d, d)."""
        rows = np.repeat(np.arange(self.n), np.diff(self.mat.indptr))
        up = self.mat.indices > rows
        return rows[up], self.mat.indices[up], self.mat.data[up]

    def to_dense(self) -> np.ndarray:
        return self.mat.toarray()

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.mat.data))

    def column_nuclear_sums(self) -> np.ndarray:
        """Per-column sums of block nuclear norms, computed at construction."""
        return self._col_nuclear

    def c1(self) -> float:
        """max_i of the column sums of off-diagonal block nuclear norms (inf past the range)."""
        return self._c1

    def c2(self) -> float:
        """Sum of block nuclear norms over all ordered pairs i != j (inf past the range)."""
        with np.errstate(over="ignore"):
            return float(self._col_nuclear.sum())

    def check_float_range(self) -> None:
        """ValueError unless 4 C1 C2 is finite.  At feasible points ||G_i||_F <=
        ||G_i||_* <= C1 and sum_i ||G_i||_F^2 <= C1 C2, so inside that range the
        gradient norm, the importance weight sums and the cost stay finite."""
        if not math.isfinite(4.0 * self.c1() * self.c2()):
            raise ValueError(f"block norms past the float range: C1 = {self.c1()}, C2 = {self.c2()}")


def _symmetrize(d: int, n: int, i, j, B):
    """The preprocessed matrix of the d x d blocks B[k] (an array (k, d, d)) at
    the distinct 0-based keys (i[k], j[k]) of a dn x dn matrix R.

    Keys may appear in either orientation (a missing orientation counts as a
    zero block); diagonal keys contribute only to the returned trace offset.
    Returns (Q, offset): Q holds 0.5*(R[i,j] + R[j,i]^T) for i < j (exact
    zeros dropped) and offset sums the traces of the diagonal blocks, so that
    tr(R X) = tr(Q X) + offset for every X with identity diagonal blocks.
    """
    # The constructor checks the off-diagonal blocks; diagonal ones only enter the offset.
    diag = i == j
    _reject(diag & ~((0 <= i) & (i < n)),
            lambda k: ValueError(f"block key ({i[k]},{j[k]}) out of range for n={n}"))
    _reject(diag & ~np.isfinite(B).all(axis=(1, 2)),
            lambda k: ValueError(f"block ({i[k]},{j[k]}) has non-finite entries"))
    offset = float(np.cumsum(np.concatenate([[0.0], np.trace(B[diag], axis1=1, axis2=2)]))[-1])
    a, b, half, flip = np.minimum(i, j)[~diag], np.maximum(i, j)[~diag], 0.5 * B[~diag], (i > j)[~diag]
    half[flip] = half[flip].transpose(0, 2, 1)
    order = np.lexsort((b, a))  # stable: a pair's two orientations adjacent, in key order
    a, b, half = a[order], b[order], half[order]
    start = np.flatnonzero(np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])][:len(a)])
    sums = np.add.reduceat(half, start) if len(half) else half
    seen = np.argsort(order[start])  # the pairs in order of first appearance
    return BlockSparseSym.from_arrays(d, n, a[start][seen], b[start][seen], sums[seen]), offset


def write_bsm(Q: BlockSparseSym, path) -> None:
    """Write Q in the BSM text format (shortest round-trip float repr)."""
    i, j, B = Q.upper()
    _write_rows(path, f"BSM {Q.d} {Q.n} {Q.num_blocks}\n", np.stack([i, j], axis=1) + 1,
                B.reshape(len(B), Q.d * Q.d))


def read_bsm(path) -> BlockSparseSym:
    """Read a BSM text file; raises ParseError with the offending line number."""
    with open(path) as fh:
        d, n, m = _read_header(path, fh, "BSM d n m")
        if d < 1 or n < 1:
            raise ParseError(path, 1, f"header needs d >= 1 and n >= 1, got d={d}, n={n}")
        if max(d, n) > _INTP_MAX:
            raise ParseError(path, 1, f"header d={d}, n={n} exceeds the index range {_INTP_MAX}")
        if n > _N_MAX:
            raise ParseError(path, 1, f"header n={n} exceeds the sort-key bound {_N_MAX}")
        lines, at, (i, j), X = _read_rows(path, fh, 1, 2, d * d, (
            f"expected 2 indices + {d * d} block entries, got {{got}} fields",
            "non-numeric field in {line!r}", "non-finite entries in block ({ints[0]},{ints[1]})"))
    _reject(~((1 <= i) & (i < j) & (j <= n)), lambda k: ParseError(
        path, at[k], f"indices ({i[k]},{j[k]}) violate 1 <= i < j <= n={n}"))
    try:
        Q = BlockSparseSym.from_arrays(d, n, i - 1, j - 1, X.reshape(-1, d, d))
    except ValueError:  # a pair given twice: name its later line
        _reject(_repeats(i, j), lambda k: ParseError(path, at[k], f"duplicate block ({i[k]},{j[k]})"))
        raise
    if len(i) != m:
        raise ParseError(path, lines, f"header declares {m} blocks, file has {len(i)}")
    return Q


def read_matrix_market(path):
    """Read a Matrix Market coordinate file as a d=1 instance.

    Returns (Q, offset) after symmetrization; diagonal entries go into the
    offset.  Only 'coordinate real' (general or symmetric) files are accepted.
    """
    with open(path) as fh:
        line = fh.readline()
        if not line.startswith("%%MatrixMarket"):
            raise ParseError(path, 1, "missing %%MatrixMarket header")
        head = line.split()
        if len(head) < 5 or head[1] != "matrix" or head[2] != "coordinate":
            raise ParseError(path, 1, f"unsupported header {line.strip()!r}")
        field, symmetry = head[3], head[4]
        if field not in ("real", "integer"):
            raise ParseError(path, 1, f"unsupported field type {field!r}")
        if symmetry not in ("general", "symmetric"):
            raise ParseError(path, 1, f"unsupported symmetry {symmetry!r}")
        idx, line = 1, fh.readline()  # idx lines read before line
        while line.lstrip().startswith("%"):
            idx, line = idx + 1, fh.readline()
        if not line:
            raise ParseError(path, idx, "missing size line")
        size = line.split()
        if len(size) != 3:
            raise ParseError(path, idx + 1, f"bad size line {line.strip()!r}")
        try:
            rows, cols, nnz = (int(v) for v in size)
        except ValueError:
            raise ParseError(path, idx + 1, f"non-integer size line {line.strip()!r}") from None
        if rows != cols:
            raise ParseError(path, idx + 1, f"matrix is {rows}x{cols}, expected square")
        if rows < 1:
            raise ParseError(path, idx + 1, f"matrix is {rows}x{cols}, expected at least 1x1")
        lines, at, (i, j), X = _read_rows(path, fh, idx + 1, 2, 1, (
            "expected 'i j value', got {line!r}", "non-numeric field in {line!r}",
            "non-finite value {fields[2]!r}"), comment="%")
    i, j = i - 1, j - 1
    _reject(~((0 <= i) & (i < rows) & (0 <= j) & (j < rows)),
            lambda k: ParseError(path, at[k], f"indices out of range for n={rows}"))
    # A symmetric file holds each entry once, in either orientation.
    symmetric = symmetry == "symmetric"
    _reject(_repeats(*((np.minimum(i, j), np.maximum(i, j)) if symmetric else (i, j))),
            lambda k: ParseError(path, at[k], f"duplicate entry ({i[k] + 1},{j[k] + 1})"))
    if len(i) != nnz:
        raise ParseError(path, lines, f"size line declares {nnz} entries, file has {len(i)}")
    if symmetric:
        off = i != j
        i, j, X = np.r_[i, j[off]], np.r_[j, i[off]], np.r_[X, X[off]]
    return _symmetrize(1, rows, i, j, X.reshape(-1, 1, 1))
