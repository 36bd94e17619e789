"""Randomized block-coordinate minimization.

Each iteration samples one block index (uniformly or proportionally to the
nuclear norms of the cached couplings), replaces that block with the
closed-form minimizer of its subproblem, and updates the couplings of the
sampled block's neighbors incrementally.  The cost is tracked by the descent
recurrence F_{k+1} = F_k - 2 (||G_i||_* + <G_i, Y_i>) and cross-checked
against a from-scratch evaluation at every cache refresh.

Randomness comes from numpy's default PCG64 generator seeded with
SolverConfig.seed: one batched draw of the n starting blocks (none when a
warm start is supplied), then one draw per sampled index.  An importance
draw searches the sums of chunks of about sqrt(n) weights, then one chunk.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .analysis import (BoundInputs, grad_norm_sq_fast, iteration_bound_importance,
                       iteration_bound_uniform)
from .blockmat import BlockSparseSym, nuclear_norm
from .stiefel import FactorPoint, block_minimize, project_stiefel

# The sampling schemes, each with its worst-case iteration bound.
SAMPLING_SCHEMES = {"uniform": iteration_bound_uniform,
                    "importance": iteration_bound_importance}

# Relative per-step cost change below which an iteration counts as stalled.
STALL_RTOL = 1e-14
# Consecutive stalled iterations (times n) that trigger a stall check.  The
# trigger alone is not trusted: the sampler can miss the one useful block
# for a whole window (importance weights may concentrate on already-optimal
# blocks near a saddle), so a stall is declared only after confirming that
# no block offers a descent above the stall threshold.
STALL_WINDOW_FACTOR = 5


class NumericalError(RuntimeError):
    """A step produced non-finite values."""


@dataclass
class SolverConfig:
    """Run parameters for the block-coordinate loop.

    check_period / refresh_period default to n and 10n; max_iters defaults
    to the sampling scheme's worst-case iteration bound computed with the
    -C2(Q) lower bound on the optimum.
    """

    rank: int
    sampling: str = "uniform"
    grad_tol: float = 1e-8
    max_iters: int | None = None
    check_period: int | None = None
    refresh_period: int | None = None
    seed: int = 0
    log_every: int = 1
    return_best: bool = False
    stall_rtol: float = STALL_RTOL

    def validate(self, Q: BlockSparseSym) -> None:
        if self.sampling not in SAMPLING_SCHEMES:
            raise ValueError(f"unknown sampling scheme {self.sampling!r}")
        if self.rank < Q.d:
            raise ValueError(f"rank {self.rank} smaller than block dimension {Q.d}")
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")
        if not (0.0 < self.stall_rtol <= 1.0):
            raise ValueError(f"stall_rtol must be in (0, 1], got {self.stall_rtol}")
        for name in ("max_iters", "check_period", "refresh_period", "log_every"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ValueError(f"{name} must be >= 1, got {v}")


@dataclass
class SolverState:
    """Evolving iterate plus the bookkeeping the loop needs."""

    point: FactorPoint
    rng: np.random.Generator
    k: int = 0
    nuclear_cache: np.ndarray | None = None
    stall_count: int = 0


@dataclass
class LogRecord:
    k: int
    cost: float
    block: int
    pred_descent: float
    meas_descent: float
    grad_norm_sq: float | None
    wall_ns: int

    def to_dict(self) -> dict:
        return {"k": self.k, "cost": self.cost, "block": self.block,
                "pred_descent": self.pred_descent, "meas_descent": self.meas_descent,
                "grad_norm_sq": self.grad_norm_sq, "wall_ns": self.wall_ns}


@dataclass
class RunReport:
    """Final iterate and the per-run diagnostics."""

    point: FactorPoint
    iterations: int
    final_cost: float
    final_grad_norm_sq: float
    termination: str  # tolerance | max_iters | stalled
    records: list
    f0: float
    best_grad_norm_sq: float
    best_k: int
    max_cost_drift: float
    wall_ns: int

    def summary(self) -> dict:
        return {
            "iterations": self.iterations,
            "final_cost": self.final_cost,
            "final_grad_norm_sq": self.final_grad_norm_sq,
            "termination": self.termination,
            "f0": self.f0,
            "best_grad_norm_sq": self.best_grad_norm_sq,
            "best_k": self.best_k,
            "max_cost_drift": self.max_cost_drift,
            "wall_ns": self.wall_ns,
        }


def init_state(Q: BlockSparseSym, config: SolverConfig,
               warm_start: FactorPoint | None = None) -> SolverState:
    """Seeded state: random projected-Gaussian blocks unless warm-started."""
    config.validate(Q)
    rng = np.random.default_rng(config.seed)
    if warm_start is None:
        blocks = project_stiefel(rng.standard_normal((Q.n, config.rank, Q.d)))
        point = FactorPoint.from_blocks(blocks, Q)
    else:
        if warm_start.n != Q.n or warm_start.d != Q.d or warm_start.r != config.rank:
            raise ValueError(
                f"warm start is (r={warm_start.r}, d={warm_start.d}, n={warm_start.n}), "
                f"config expects (r={config.rank}, d={Q.d}, n={Q.n})")
        point = FactorPoint.from_blocks(warm_start.blocks, Q)
    # The importance-sampling weights ||G_i||_*.
    nuclear = nuclear_norm(point.gcache) if config.sampling == "importance" else None
    return SolverState(point=point, rng=rng, nuclear_cache=nuclear)


def sample_block(state: SolverState, config: SolverConfig) -> int | None:
    """Draw the next block index under the configured distribution.

    An importance draw inverts the CDF of the weights nuclear_cache in two
    levels: a chunk of about sqrt(n) blocks by the prefix sums of the chunk
    sums, then a block by that chunk's prefix sums.  It never returns a
    block of zero weight.  With all-zero couplings it returns None: every
    G_i vanishing means the Riemannian gradient is zero, so the caller
    should terminate with the tolerance reason.
    """
    n = state.point.n
    if config.sampling == "uniform":
        return int(state.rng.integers(n))
    weights = state.nuclear_cache
    size = math.isqrt(n)
    cum = np.add.reduceat(weights, np.arange(0, n, size)).cumsum()
    total = cum[-1]
    if total <= 0.0:
        return None
    u = state.rng.random() * total
    c = _first_above(cum, u)
    start = c * size
    return start + _first_above(weights[start:start + size].cumsum(),
                                u - cum[c - 1] if c else u)


def _first_above(cum, u) -> int:
    """Inverse CDF on the prefix sums cum of nonnegative weights: the first k
    with cum[k] > u or, when u is not below cum[-1] (a chunk's sum and its
    prefix sums round differently), the first k with cum[k] == cum[-1].
    Both are entries of positive weight."""
    k = int(cum.searchsorted(u, side="right"))
    return k if k < len(cum) else int(cum.searchsorted(cum[-1]))


def bcm_step(state: SolverState, Q: BlockSparseSym, i_k: int):
    """Exactly minimize block i_k and update its neighbors' couplings.

    Returns (pred_descent, meas_descent): the descent-identity value
    -2 (||G||_* + <G, Y_old>) applied to the tracked cost, and the directly
    measured 2 <G, Y_new - Y_old>.  Couplings G_j change only for the
    neighbors j in block row i_k of Q: G_j += (Y_new - Y_old) Q_[i_k,j].
    """
    point = state.point
    G = point.gcache[i_k]
    Y_old = point.blocks[i_k]
    if not G.any():
        return 0.0, 0.0
    Y_new, achieved = block_minimize(G, current=Y_old)
    nuc = -achieved
    inner_old = float(np.vdot(G, Y_old))
    pred = -2.0 * (nuc + inner_old)
    meas = 2.0 * (float(np.vdot(G, Y_new)) - inner_old)
    p0, p1 = Q.mat.indptr[i_k], Q.mat.indptr[i_k + 1]
    nbr = Q.mat.indices[p0:p1]
    point.gcache[nbr] += (Y_new - Y_old) @ Q.mat.data[p0:p1]
    if state.nuclear_cache is not None:
        state.nuclear_cache[nbr] = nuclear_norm(point.gcache[nbr])
        state.nuclear_cache[i_k] = nuc
    point.blocks[i_k] = Y_new
    point.cost += pred
    if not (math.isfinite(point.cost) and np.isfinite(Y_new).all()):
        raise NumericalError(
            f"non-finite update at block {i_k}: cost={point.cost!r}")
    return pred, meas


def _refresh(state: SolverState, Q: BlockSparseSym) -> float:
    drift = state.point.refresh(Q)
    if state.nuclear_cache is not None:
        state.nuclear_cache = nuclear_norm(state.point.gcache)
    return drift


def max_available_descent(point: FactorPoint) -> float:
    """Largest single-block cost decrease available, max_i 2(||G_i||_* + <G_i, Y_i>)."""
    G = point.gcache
    inner = np.sum(G * point.blocks, axis=(1, 2))
    return float(max(0.0, (2.0 * (nuclear_norm(G) + inner)).max()))


def default_max_iters(Q: BlockSparseSym, config: SolverConfig, f0: float) -> int:
    """Worst-case iteration bound for the configured scheme, with F* = -C2(Q)."""
    fstar = -Q.c2()
    b = BoundInputs(d=Q.d, n=Q.n, f0=max(f0, fstar), fstar=fstar, eps=config.grad_tol,
                    c1=Q.c1(), c2=Q.c2())
    return SAMPLING_SCHEMES[config.sampling](b)


def solve(Q: BlockSparseSym, config: SolverConfig,
          warm_start: FactorPoint | None = None) -> RunReport:
    """Run the block-coordinate loop until the gradient tolerance, the
    iteration cap, or a stall.

    The squared gradient norm is evaluated every check_period iterations
    (and at termination); caches and the tracked cost are rebuilt from
    scratch every refresh_period iterations.  Identical configs and seeds
    replay the same index sequence and report.
    """
    t0 = time.perf_counter_ns()
    state = init_state(Q, config, warm_start)
    point = state.point
    n = Q.n
    f0 = point.cost
    check_period = config.check_period if config.check_period is not None else n
    refresh_period = config.refresh_period if config.refresh_period is not None else 10 * n
    max_iters = config.max_iters if config.max_iters is not None else default_max_iters(Q, config, f0)
    stall_window = STALL_WINDOW_FACTOR * n

    records: list[LogRecord] = []
    best_gradsq = float("inf")
    best_k = -1
    best_point = None
    max_drift = 0.0
    final_gradsq = None
    reason = None

    while True:
        gradsq_here = None
        stall_hit = state.stall_count >= stall_window
        if state.k % check_period == 0 or stall_hit:
            gradsq_here = grad_norm_sq_fast(point)
            if gradsq_here < best_gradsq:
                best_gradsq = gradsq_here
                best_k = state.k
                if config.return_best:
                    best_point = FactorPoint(point.blocks.copy(), point.gcache.copy(),
                                             point.cost)
            if gradsq_here <= config.grad_tol:
                reason, final_gradsq = "tolerance", gradsq_here
                break
            if stall_hit:
                if max_available_descent(point) <= config.stall_rtol * (1.0 + abs(point.cost)):
                    reason, final_gradsq = "stalled", gradsq_here
                    break
                state.stall_count = 0  # unlucky sampling streak, not a plateau
        if state.k >= max_iters:
            reason, final_gradsq = "max_iters", gradsq_here
            break
        i_k = sample_block(state, config)
        if i_k is None:
            reason, final_gradsq = "tolerance", grad_norm_sq_fast(point)
            break
        cost_before = point.cost
        pred, meas = bcm_step(state, Q, i_k)
        if state.k % config.log_every == 0:
            records.append(LogRecord(state.k, cost_before, i_k, pred, meas,
                                     gradsq_here, time.perf_counter_ns() - t0))
        if abs(pred) < config.stall_rtol * (1.0 + abs(cost_before)):
            state.stall_count += 1
        else:
            state.stall_count = 0
        state.k += 1
        if state.k % refresh_period == 0:
            max_drift = max(max_drift, _refresh(state, Q))

    if final_gradsq is None:
        final_gradsq = grad_norm_sq_fast(point)
    if final_gradsq < best_gradsq:
        best_gradsq, best_k = final_gradsq, state.k
        best_point = None  # final point is the best; report it directly

    return RunReport(
        point=point if best_point is None else best_point,
        iterations=state.k,
        final_cost=point.cost,
        final_grad_norm_sq=final_gradsq,
        termination=reason,
        records=records,
        f0=f0,
        best_grad_norm_sq=best_gradsq,
        best_k=best_k,
        max_cost_drift=max_drift,
        wall_ns=time.perf_counter_ns() - t0,
    )
