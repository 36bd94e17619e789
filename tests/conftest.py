"""Shared helpers: random instances, random feasible points, dense oracles,
cache checks and gauge alignment.

The dense helpers are the independent reference path used throughout the
suite: costs and gradients computed from the assembled dn x dn matrix with
plain numpy, never through the solver's incremental caches.  The cache
helpers compare a point's incremental caches with a recomputation.
"""

import numpy as np

from blocksdp import (BlockSparseSym, FactorPoint, compute_gcache, random_stiefel,
                      riemannian_grad_oracle)


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
