"""Shared helpers: random instances, random feasible points, dense oracles,
cache checks, gauge alignment, the dict front-end of the symmetrizer, block
lookups, the lexsort construction oracle, a guard against construction, the
edge-list writer and failed stand-ins for the direct LAPACK kernels.

The dense helpers are the independent reference path used throughout the
suite: costs and gradients computed from the assembled dn x dn matrix with
plain numpy, never through the solver's incremental caches.  The cache
helpers compare a point's incremental caches with a recomputation.
"""

import numpy as np
import pytest

from blocksdp import (BlockSparseSym, FactorPoint, compute_gcache, project_stiefel,
                      riemannian_grad_oracle)
from blocksdp.blockmat import _stack_blocks, _symmetrize, _write_rows


class StaleCacheError(RuntimeError):
    """Cached G_i disagrees with a from-scratch recomputation."""


def random_instance(rng, d, n, density=0.7, scale=1.0):
    """Random block-sparse symmetric instance with at least one coupling."""
    blocks = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                blocks[(i, j)] = scale * rng.standard_normal((d, d))
    if not blocks:
        i, j = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
        blocks[(i, j)] = scale * rng.standard_normal((d, d))
    return BlockSparseSym(d, n, blocks)


def random_stiefel(r, d, rng):
    """Random feasible block: Gaussian r x d matrix projected to the manifold."""
    return project_stiefel(rng.standard_normal((r, d)))


def from_block_dict(d, n, raw):
    """(Q, trace offset) of the blocks {(i, j): B} of a dn x dn matrix, 0-based,
    keys in either orientation: the symmetrizer that reads Matrix Market files."""
    return _symmetrize(d, n, *_stack_blocks(d, raw))


def block(Q, i, j):
    """Q_[i,j], zeros when the pair is not stored."""
    d = Q.d
    return Q.mat.tocsr()[d * i:d * (i + 1), d * j:d * (j + 1)].toarray()


def pairs(Q):
    """(i, j, block) for the stored pairs i < j, in row order."""
    i, j, B = Q.upper()
    return zip(i.tolist(), j.tolist(), B)


def assert_same_matrix(a, b):
    """a and b hold the same bytes: blocks, block columns, row pointers and column sums."""
    assert (a.d, a.n) == (b.d, b.n)
    for name in ("data", "indices", "indptr"):
        x, y = getattr(a.mat, name), getattr(b.mat, name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
    assert a.column_nuclear_sums().tobytes() == b.column_nuclear_sums().tobytes()


def lexsort_arrays(n, i, j, B):
    """Block-CSR arrays (data, indices, indptr) of the blocks B[k] at the distinct
    pairs (i[k], j[k]), i < j, and their transposes, exact zeros dropped, sorted by
    np.lexsort on (row, column): the reference for BlockSparseSym's construction."""
    rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
    order = np.lexsort((cols, rows))
    kept = np.tile(B.any(axis=(1, 2)), 2)[order]
    data = np.concatenate([B, B.transpose(0, 2, 1)])[order][kept]
    counts = np.bincount(rows[order][kept], minlength=n)
    return data, cols[order][kept], np.concatenate([[0], np.cumsum(counts)])


@pytest.fixture
def no_construction(monkeypatch):
    """Fail a test that reaches BlockSparseSym construction: past the sort-key bound
    on n, construction would allocate arrays of n entries, tens of gigabytes."""
    def refuse(*args):
        pytest.fail("construction reached past the sort-key bound on n")
    monkeypatch.setattr(BlockSparseSym, "_build", refuse)


def nan_svd(M):
    """A thin SVD that failed, as numpy's svd_s gufunc returns it: NaN U, s, V^T."""
    *lead, m, n = M.shape
    k = min(m, n)
    return (np.full((*lead, m, k), np.nan), np.full((*lead, k), np.nan),
            np.full((*lead, k, n), np.nan))


def nan_eigvalsh(S):
    """Eigenvalues that failed, as numpy's eigvalsh_lo gufunc returns them: NaN."""
    return np.full(S.shape[:-1], np.nan)


def write_edgelist(Q, path):
    """The pairs of a d=1 matrix as 'i j w' lines, 1-based, in row order; weights
    in their shortest round-trip form."""
    i, j, B = Q.upper()
    _write_rows(path, "", np.stack([i, j], axis=1) + 1, B.reshape(-1, 1))


def neighbors(Q, i):
    """Block-column indices stored in block row i of Q."""
    return list(Q.mat.indices[Q.mat.indptr[i]:Q.mat.indptr[i + 1]])


def random_point(rng, Q, r):
    return FactorPoint.from_blocks(
        [random_stiefel(r, Q.d, rng) for _ in range(Q.n)], Q)


def dense_cost(Qd, blocks):
    """tr(Q Y^T Y) straight from the dense matrix."""
    Y = np.hstack(blocks)
    return float(np.sum(Qd * (Y.T @ Y)))


def triangle():
    """Unit-weight triangle: C1 = 2, C2 = 6, SDP optimum -3 at rank 2."""
    one = np.array([[1.0]])
    return BlockSparseSym(1, 3, {(0, 1): one, (0, 2): one, (1, 2): one})


def cost_from_cache(point):
    """F(Y) = sum_i <G_i, Y_i> from the cached couplings."""
    return float(np.vdot(point.gcache, point.blocks))


def gcache_residual(point, Q):
    """Largest Frobenius gap between cached and recomputed G_i."""
    D = point.gcache - compute_gcache(point.blocks, Q)
    return float(np.sqrt(np.sum(D * D, axis=(1, 2))).max())


def verified_grad_oracle(point, Q, tol=1e-8):
    """riemannian_grad_oracle, after checking the cached G_i: raises
    StaleCacheError if they drift from a recomputation by more than tol in
    Frobenius norm."""
    worst = gcache_residual(point, Q)
    if worst > tol:
        raise StaleCacheError(f"cached couplings off by {worst:.3e} Frobenius")
    return riemannian_grad_oracle(point, Q)


def align_blocks(estimate, truth):
    """Left-align two block lists over the orthogonal gauge group.

    Solves min_R ||R [est] - [truth]||_F over orthogonal R and returns
    (aligned_blocks, max_i ||R est_i - truth_i||_F).
    """
    E = np.hstack(estimate)
    T = np.hstack(truth)
    U, _, Vt = np.linalg.svd(T @ E.T)
    R = U @ Vt
    aligned = [R @ B for B in estimate]
    err = max(float(np.linalg.norm(a - t)) for a, t in zip(aligned, truth))
    return aligned, err


def reference_solve(Q, config):
    """The one-step-per-iteration solve loop: one sample_block draw and one
    bcm_step per iteration, the gradient checked, the caches refreshed and
    the stall window tested between any two steps.  `bcm.solve` must give the
    same report and records (apart from wall_ns)."""
    from blocksdp.bcm import (STALL_WINDOW_FACTOR, LogRecord, RunReport, _refresh,
                              bcm_step, grad_norm_sq_fast, init_state, iteration_bound,
                              max_available_descent, sample_block)
    state = init_state(Q, config)
    point, n = state.point, Q.n
    f0 = point.cost
    check_period = config.check_period or n
    refresh_period = config.refresh_period or 10 * n
    max_iters = config.max_iters or iteration_bound(Q, config.sampling, f0, -Q.c2(),
                                                    config.grad_tol)
    records, max_drift = [], 0.0
    final_gradsq = None
    while True:
        gradsq_here = None
        stall_hit = state.stall_count >= STALL_WINDOW_FACTOR * n
        if state.k % check_period == 0 or stall_hit:
            gradsq_here = grad_norm_sq_fast(point)
            if gradsq_here <= config.grad_tol:
                reason, final_gradsq = "tolerance", gradsq_here
                break
            if stall_hit:
                if max_available_descent(point) <= config.stall_rtol * (1.0 + abs(point.cost)):
                    reason, final_gradsq = "stalled", gradsq_here
                    break
                state.stall_count = 0
        if state.k >= max_iters:
            reason, final_gradsq = "max_iters", gradsq_here
            break
        i_k = sample_block(state)
        if i_k is None:
            reason, final_gradsq = "tolerance", grad_norm_sq_fast(point)
            break
        cost_before = point.cost
        pred, meas = bcm_step(state, Q, i_k)
        if state.k % config.log_every == 0:
            records.append(LogRecord(state.k, cost_before, i_k, pred, meas, gradsq_here, 0))
        if abs(pred) < config.stall_rtol * (1.0 + abs(cost_before)):
            state.stall_count += 1
        else:
            state.stall_count = 0
        state.k += 1
        if state.k % refresh_period == 0:
            max_drift = max(max_drift, _refresh(state, Q))
    if final_gradsq is None:
        final_gradsq = grad_norm_sq_fast(point)
    return RunReport(point, state.k, point.cost,
                     final_gradsq, reason, records, f0, max_drift, 0)


def generate_maxcut_loop(n, edge_prob, seed, weighted=False):
    """problems.generate_maxcut as one scalar draw per pair i < j, in row order,
    each kept pair followed by its weight's draw when weighted."""
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                w = float(rng.random()) if weighted else 1.0
                edges.append((i, j, w))
    return edges
