"""Shared helpers: random instances, random feasible points, dense oracles.

The dense helpers are the independent reference path used throughout the
suite: costs and gradients computed from the assembled dn x dn matrix with
plain numpy, never through the solver's incremental caches.
"""

import numpy as np

from blocksdp import BlockSparseSym, FactorPoint, random_stiefel


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
