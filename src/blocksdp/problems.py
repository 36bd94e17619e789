"""Instance ingestion and synthetic generators.

Two problem families exercise the solver end to end: Max-Cut style d=1
instances, generated or read from weighted edge lists straight into a
BlockSparseSym (Q_ij = w_ij, so the cut value of a sign vector x is W/2 - F(x)/4
with W the total edge weight), and rotation synchronization for d in {2, 3}
with known ground truth, where each edge contributes -tr(R_ij Y_j^T Y_i) to
the cost and the noiseless optimum is -d * |E|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .blockmat import (_N_MAX, BlockSparseSym, ParseError, _int_array, _read_rows, _reject,
                       _repeats, read_bsm, read_matrix_market)

INSTANCE_FORMATS = ("bsm", "matrix-market", "edgelist")


def generate_maxcut(n: int, edge_prob: float, seed: int, weighted: bool = False) -> BlockSparseSym:
    """d=1 cost matrix Q_ij = w_ij of an Erdos-Renyi graph, unit weights or, when weighted,
    uniform(0, 1) ones.  Minimizing tr(Q X) over the elliptope relaxes Max-Cut: for x in
    {-1,+1}^n, cut(x) = W/2 - F(x)/4 with W the total edge weight."""
    if n < 2 or not (0.0 < edge_prob <= 1.0):
        raise ValueError(f"invalid generator parameters n={n}, edge_prob={edge_prob}")
    # One uniform draw per pair i < j in row order, each kept pair followed by its
    # weight's draw when weighted; drawn in blocks, which gives the same stream.
    rng = np.random.default_rng(seed)
    pairs = n * (n - 1) // 2
    kept, weights = [], []
    drawn = run = 0  # pair draws so far; length of the run of draws < edge_prob ending them
    while drawn < pairs or weighted and len(weights) < len(kept):
        u = rng.random(min(1 << 16, 2 * (pairs - drawn) + 1))
        low = u < edge_prob
        if weighted:
            # A weight draw follows each kept pair draw, so from the start and after each
            # draw >= edge_prob the draws alternate pair, weight, pair, ... while they stay
            # below edge_prob: draw t is a pair draw exactly when the run of draws below
            # edge_prob just before it has even length.
            t = np.arange(len(u))
            last = np.maximum.accumulate(np.where(low, -1 - run, t))
            is_pair = (t - np.r_[-1 - run, last[:-1]]) % 2 == 1
            run = len(u) - 1 - int(last[-1])
            weights.extend(u[~is_pair].tolist())
        else:
            is_pair = np.ones(len(u), dtype=bool)
        at = np.flatnonzero(is_pair)[:pairs - drawn]
        kept.extend((drawn + np.flatnonzero(low[at])).tolist())
        drawn += len(at)
    k = np.array(kept, dtype=np.int64)
    starts = np.cumsum(np.r_[0, np.arange(n - 1, 0, -1)])  # index of the pair (i, i + 1)
    i = np.searchsorted(starts, k, side="right") - 1
    w = np.array(weights[:len(kept)]) if weighted else np.ones(len(kept))
    return BlockSparseSym.from_arrays(1, n, i, k - starts[i] + i + 1, w.reshape(-1, 1, 1))


def random_rotation(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed d x d rotation (determinant +1)."""
    A = rng.standard_normal((d, d))
    Qm, R = np.linalg.qr(A)
    Qm = Qm * np.sign(np.diag(R))
    if np.linalg.det(Qm) < 0:
        Qm[:, -1] = -Qm[:, -1]
    return Qm


def _noise_rotation(d: int, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Rotation by a wrapped-Gaussian angle; random axis when d = 3."""
    if sigma == 0.0:
        return np.eye(d)
    theta = rng.normal(0.0, sigma)
    if d == 2:
        c, s = np.cos(theta), np.sin(theta)
        return np.array([[c, -s], [s, c]])
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    K = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return np.eye(3) + np.sin(theta) * K + (1.0 - np.cos(theta)) * (K @ K)


def _is_connected(n: int, pairs) -> bool:
    # Imported on use: loading csgraph costs a process about 1 MB that only this needs.
    from scipy.sparse.csgraph import connected_components

    if not pairs:
        return n == 1
    rows = [i for i, _ in pairs] + [j for _, j in pairs]
    cols = [j for _, j in pairs] + [i for i, _ in pairs]
    adj = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    ncomp, _ = connected_components(adj, directed=False)
    return ncomp == 1


@dataclass
class SyncInstance:
    """Relative-rotation measurements with optional ground truth."""

    n: int
    d: int
    edges: list  # (i, j, measurement) with i < j
    ground_truth: list | None
    noise: float

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def generate_rotsync(n: int, d: int, edge_prob: float, noise: float, seed: int,
                     max_attempts: int = 100) -> SyncInstance:
    """Sample ground-truth rotations and noisy relative measurements.

    The edge set is Erdos-Renyi, resampled until connected (recovery up to a
    global rotation needs connectivity); measurements are
    R_i R_j^T * noise_rotation(sigma=noise).
    """
    if n < 2:
        raise ValueError(f"need n >= 2 vertices, got {n}")
    if d not in (2, 3):
        raise ValueError(f"unsupported block dimension d={d}, expected 2 or 3")
    if not (0.0 < edge_prob <= 1.0):
        raise ValueError(f"edge_prob must be in (0, 1], got {edge_prob}")
    if not 0.0 <= noise < np.inf:
        raise ValueError(f"noise must be a finite nonnegative number, got {noise}")
    rng = np.random.default_rng(seed)
    truth = [random_rotation(d, rng) for _ in range(n)]
    for _ in range(max_attempts):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < edge_prob]
        if _is_connected(n, pairs):
            break
    else:
        raise ValueError(f"no connected graph after {max_attempts} attempts "
                         f"(n={n}, edge_prob={edge_prob})")
    edges = []
    for i, j in pairs:
        meas = truth[i] @ truth[j].T @ _noise_rotation(d, noise, rng)
        edges.append((i, j, meas))
    return SyncInstance(n=n, d=d, edges=edges, ground_truth=truth, noise=noise)


def sync_to_Q(inst: SyncInstance) -> BlockSparseSym:
    """Cost matrix with Q_[i,j] = -0.5 * measurement, so each edge adds
    -tr(R_ij Y_j^T Y_i) to the cost."""
    d = inst.d
    i, j, meas = zip(*inst.edges) if inst.edges else ((), (), np.zeros((0, d, d)))
    return BlockSparseSym.from_arrays(d, inst.n, _int_array(i), _int_array(j),
                                      -0.5 * np.array(meas, dtype=float))


def ground_truth_blocks(inst: SyncInstance):
    """Factor blocks attaining the noiseless optimum: Y_i = R_i^T at r = d."""
    if inst.ground_truth is None:
        raise ValueError("instance carries no ground truth")
    return [R.T.copy() for R in inst.ground_truth]


def read_edgelist(path) -> BlockSparseSym:
    """d=1 Q_ij = w_ij of 'i j w' lines (1-based, '#' lines skipped); n is the largest index."""
    with open(path) as fh:
        _, at, (i, j), w = _read_rows(path, fh, 0, 2, 1, (
            "expected 'i j w', got {line!r}", "non-numeric field in {line!r}",
            "non-finite weight {fields[2]!r}"), comment="#")
    _reject(i == j, lambda k: ParseError(path, at[k], f"self-loop on vertex {i[k]}"))
    _reject((i < 1) | (j < 1),
            lambda k: ParseError(path, at[k], f"indices must be >= 1, got ({i[k]},{j[k]})"))
    top = np.iinfo(np.int64).max
    _reject((i > top) | (j > top),
            lambda k: ParseError(path, at[k], f"indices must fit in int64, got ({i[k]},{j[k]})"))
    a, b = np.minimum(i, j), np.maximum(i, j)
    if not len(a):
        raise ParseError(path, 1, "no edges, expected 'i j w' lines")
    last = int(b.argmax())  # the line that sets n, checked before n sizes any array
    if b[last] > _N_MAX:
        raise ParseError(path, at[last], f"index {b[last]} exceeds the sort-key bound {_N_MAX}")
    try:
        return BlockSparseSym.from_arrays(1, int(b[last]), a - 1, b - 1, w.reshape(-1, 1, 1))
    except ValueError:  # a pair given twice: name its later line
        _reject(_repeats(a, b), lambda k: ParseError(path, at[k], f"duplicate edge ({a[k]},{b[k]})"))
        raise


def read_instance(path, fmt: str):
    """Load a preprocessed instance; returns (Q, trace_offset).

    fmt is one of 'bsm', 'matrix-market' (d = 1), 'edgelist' (d = 1).  BSM
    and edge-list files are zero-diagonal by construction (offset 0); Matrix
    Market diagonal entries are folded into the offset.
    """
    if fmt == "bsm":
        return read_bsm(path), 0.0
    if fmt == "matrix-market":
        return read_matrix_market(path)
    if fmt == "edgelist":
        return read_edgelist(path), 0.0
    raise ValueError(f"unknown instance format {fmt!r}; expected one of {INSTANCE_FORMATS}")
