"""Instance ingestion and synthetic generators.

Two problem families exercise the solver end to end: Max-Cut style d=1
instances built from weighted edge lists (Q_ij = w_ij, so the cut value of a
sign vector x is W/2 - F(x)/4 with W the total edge weight), and rotation
synchronization for d in {2, 3} with known ground truth, where each edge
contributes -tr(R_ij Y_j^T Y_i) to the cost and the noiseless optimum is
-d * |E|.  Edge lists are read and written by blockmat's row helpers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .blockmat import (BlockSparseSym, ParseError, _int_array, _read_rows, _reject, _repeats,
                       _write_rows, read_bsm, read_matrix_market)

INSTANCE_FORMATS = ("bsm", "matrix-market", "edgelist")


@dataclass
class EdgeListGraph:
    """Weighted undirected graph with 0-based vertices and i < j edges."""

    n: int
    edges: list  # (i, j, w)

    def __post_init__(self):
        i, j, w = zip(*self.edges) if self.edges else ((), (), ())
        i, j = _int_array(i), _int_array(j)
        _reject(~((0 <= i) & (i < j) & (j < self.n)), lambda k: ValueError(
            f"edge ({i[k]},{j[k]}) violates 0 <= i < j < n={self.n}"))
        _reject(_repeats(i, j), lambda k: ValueError(f"duplicate edge ({i[k]},{j[k]})"))
        _reject(~np.isfinite(np.array(w, dtype=float)), lambda k: ValueError(
            f"edge ({i[k]},{j[k]}) has non-finite weight {w[k]!r}"))

    @property
    def total_weight(self) -> float:
        return float(sum(w for _, _, w in self.edges))


def maxcut_to_Q(g: EdgeListGraph) -> BlockSparseSym:
    """d=1 cost matrix with Q_ij = w_ij on edges and zero diagonal.

    Minimizing tr(Q X) over the elliptope relaxes Max-Cut: for x in {-1,+1}^n,
    cut(x) = W/2 - F(x)/4.
    """
    blocks = {(i, j): np.array([[w]]) for i, j, w in g.edges}
    return BlockSparseSym(1, g.n, blocks)


def generate_maxcut(n: int, edge_prob: float, seed: int, weighted: bool = False) -> EdgeListGraph:
    """Erdos-Renyi graph; unit weights, or uniform(0, 1) when weighted."""
    if n < 2 or not (0.0 < edge_prob <= 1.0):
        raise ValueError(f"invalid generator parameters n={n}, edge_prob={edge_prob}")
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                w = float(rng.random()) if weighted else 1.0
                edges.append((i, j, w))
    return EdgeListGraph(n, edges)


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
    if noise < 0.0:
        raise ValueError(f"noise must be nonnegative, got {noise}")
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
    blocks = {(i, j): -0.5 * meas for i, j, meas in inst.edges}
    return BlockSparseSym(inst.d, inst.n, blocks)


def ground_truth_blocks(inst: SyncInstance):
    """Factor blocks attaining the noiseless optimum: Y_i = R_i^T at r = d."""
    if inst.ground_truth is None:
        raise ValueError("instance carries no ground truth")
    return [R.T.copy() for R in inst.ground_truth]


def read_edgelist(path) -> EdgeListGraph:
    """Parse 'i j w' lines (1-based; '#' lines skipped); n is the largest index seen."""
    with open(path) as fh:
        lines = fh.readlines()
    at, (i, j), w = _read_rows(path, lines, 0, 2, 1, (
        "expected 'i j w', got {line!r}", "non-numeric field in {line!r}",
        "non-finite weight {fields[2]!r}"), comment="#")
    _reject(i == j, lambda k: ParseError(path, at[k], f"self-loop on vertex {i[k]}"))
    _reject((i < 1) | (j < 1),
            lambda k: ParseError(path, at[k], f"indices must be >= 1, got ({i[k]},{j[k]})"))
    top = np.iinfo(np.int64).max
    _reject((i > top) | (j > top),
            lambda k: ParseError(path, at[k], f"indices must fit in int64, got ({i[k]},{j[k]})"))
    a, b = np.minimum(i, j), np.maximum(i, j)
    _reject(_repeats(a, b), lambda k: ParseError(path, at[k], f"duplicate edge ({a[k]},{b[k]})"))
    if not len(a):
        raise ParseError(path, 1, "no edges, expected 'i j w' lines")
    return EdgeListGraph(int(b.max()), list(zip((a - 1).tolist(), (b - 1).tolist(), w[:, 0].tolist())))


def write_edgelist(g: EdgeListGraph, path) -> None:
    """Write 'i j w' lines, 1-based, weights as floats (shortest round-trip repr)."""
    i, j, w = zip(*g.edges) if g.edges else ((), (), ())
    _write_rows(path, "", _int_array([i, j]).T + 1, np.array(w, dtype=float)[:, None])


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
        return maxcut_to_Q(read_edgelist(path)), 0.0
    raise ValueError(f"unknown instance format {fmt!r}; expected one of {INSTANCE_FORMATS}")
