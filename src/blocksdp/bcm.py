"""Randomized block-coordinate minimization.

Each iteration samples one block index under a sampling scheme, one entry
of SAMPLING_SCHEMES (uniformly or proportionally to the nuclear norms of the
cached couplings), replaces that block with the closed-form minimizer of its
subproblem, and updates the couplings of the sampled block's neighbors
incrementally.  The cost is tracked by the descent recurrence
F_{k+1} = F_k - 2 (||G_i||_* + <G_i, Y_i>) and cross-checked against a
from-scratch evaluation at every cache refresh.

Randomness comes from numpy's default PCG64 generator seeded with
SolverConfig.seed: one batched draw of the n starting blocks (none when a
warm start is supplied), then one draw per sampled index.  A scheme's run
function draws its indices or uniforms from state.rng, 1024 at a time (the
same stream), and keeps those it has not used in state.draws; sample_block
takes an importance draw's uniform and searches the sums of chunks of about
sqrt(n) weights, then one chunk.  solve takes the steps between two checks
in one call of the scheme's run function, which returns them as columns:
uniform indices, known before any step is taken, go to bcm_run in windows of
up to DRAW_CHUNK, which it applies by dependency level, bit-identically to
one bcm_step per index (steps at distinct, pairwise non-adjacent blocks
commute, and each coupling receives its additions in index order);
importance steps, each drawn from the weights the one before left, take
sample_block and bcm_step in turn.  The iteration log, a RunLog, holds the
logged steps in typed columns, 48 bytes a step, and builds each LogRecord
when it is read.
"""

from __future__ import annotations

import functools
import math
import time
from array import array
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from itertools import chain

import numpy as np

from .analysis import grad_norm_sq_fast
from .blockmat import BlockSparseSym, gram_nuclear_norms, nuclear_norm
from .stiefel import FactorPoint, block_minimize, project_stiefel

# Relative per-step cost change below which an iteration counts as stalled.
STALL_RTOL = 1e-14
# Consecutive stalled iterations (times n) that trigger a stall check.  The
# trigger alone is not trusted: the sampler can miss the one useful block
# for a whole window (importance weights may concentrate on already-optimal
# blocks near a saddle), so a stall is declared only after confirming that
# no block offers a descent above the stall threshold.
STALL_WINDOW_FACTOR = 5
# Fewest steps of one dependency level that bcm_run batches: for two or three,
# one bcm_step per block is faster (Max-Cut and rotation sync, degree 10 to 1000).
RUN_BATCH_MIN = 4
# Draws per generator call in a solve: uniform indices, importance uniforms.
DRAW_CHUNK = 1024


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
    stall_rtol: float = STALL_RTOL

    def validate(self, Q: BlockSparseSym) -> None:
        if self.sampling not in SAMPLING_SCHEMES:
            raise ValueError(f"unknown sampling scheme {self.sampling!r}")
        Q.check_float_range()
        if self.rank < Q.d:
            raise ValueError(f"rank {self.rank} smaller than block dimension {Q.d}")
        if not self.grad_tol > 0:  # NaN too
            raise ValueError(f"grad_tol must be positive, got {self.grad_tol}")
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
    weights: np.ndarray | None = None  # a weighted scheme's draw weights ||G_i||_*
    stall_count: int = 0
    draws: list = field(default_factory=list)  # the scheme's drawn values not used yet


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
        # A literal: a RunLog builds a record on every read, and vars(self) would
        # materialize a __dict__ on each.
        return {"k": self.k, "cost": self.cost, "block": self.block,
                "pred_descent": self.pred_descent, "meas_descent": self.meas_descent,
                "grad_norm_sq": self.grad_norm_sq, "wall_ns": self.wall_ns}


class RunLog(Sequence):
    """The iteration log of a solve: a read-only sequence of LogRecord.

    The steps are held in typed columns, k, block and wall_ns as int64 and
    cost, pred_descent and meas_descent as float64, 48 bytes a step; the
    squared gradient norms sit in a dict keyed by row, for the rows that
    carry one.  Indexing, slicing (a list) and iteration build the records.
    wall_ns is taken once per run of the solve loop, so the steps of one run,
    those between two checks (fewer where a refresh, the cap or the stall
    test ends it), share it.
    """

    __slots__ = ("_k", "_cost", "_block", "_pred", "_meas", "_gradsq", "_wall_ns")

    def __init__(self):
        self._k, self._block, self._wall_ns = array("q"), array("q"), array("q")
        self._cost, self._pred, self._meas = array("d"), array("d"), array("d")
        self._gradsq = {}

    def __len__(self) -> int:
        return len(self._k)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[j] for j in range(len(self))[index]]
        j = range(len(self))[index]  # a negative index counts from the end
        return LogRecord(self._k[j], self._cost[j], self._block[j], self._pred[j],
                         self._meas[j], self._gradsq.get(j), self._wall_ns[j])

    def __iter__(self):
        return map(LogRecord, *self.columns())

    def columns(self) -> tuple:
        """The seven columns in LogRecord's field order, one value a step each;
        grad_norm_sq is an iterator, None on the unchecked rows."""
        return (self._k, self._cost, self._block, self._pred, self._meas,
                map(self._gradsq.get, range(len(self))), self._wall_ns)

    def _add_run(self, k: int, blocks: list, cost: list, pred: list, meas: list, gradsq,
                 wall: int, every: int) -> None:
        """Log the steps k, k + 1, ... of a run, given as the columns a scheme's
        run returns, whose index is a multiple of every: all of them share
        wall, and the first, step k, carries gradsq, the squared gradient norm
        checked before the run (None if unchecked)."""
        if every > 1:  # the first step logged is k + first, which carries gradsq if it is k
            first = -k % every
            blocks, cost, pred, meas = (c[first::every] for c in (blocks, cost, pred, meas))
            k, gradsq = k + first, None if first else gradsq
        if gradsq is not None:
            self._gradsq[len(self._k)] = gradsq
        self._k.fromlist(list(range(k, k + len(blocks) * every, every)))
        self._block.fromlist(blocks)  # fromlist: faster than extend, for one step or 1,024
        self._wall_ns.fromlist([wall] * len(blocks))
        self._cost.fromlist(cost)
        self._pred.fromlist(pred)
        self._meas.fromlist(meas)


@dataclass
class RunReport:
    """Final iterate and the per-run diagnostics."""

    point: FactorPoint
    iterations: int
    final_cost: float
    final_grad_norm_sq: float
    termination: str  # tolerance | max_iters | stalled
    records: RunLog
    f0: float
    max_cost_drift: float
    wall_ns: int

    def summary(self) -> dict:
        """Every field but the point and the records, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("point", "records")}


def init_state(Q: BlockSparseSym, config: SolverConfig, warm_start=None) -> SolverState:
    """Seeded state: random projected-Gaussian blocks unless warm-started from
    r x d blocks (an (n, r, d) array or a sequence), which are copied."""
    config.validate(Q)
    rng = np.random.default_rng(config.seed)
    if warm_start is None:
        warm_start = project_stiefel(rng.standard_normal((Q.n, config.rank, Q.d)))
    point = FactorPoint.from_blocks(warm_start, Q)
    # from_blocks checks n and d against Q; only the rank is the config's.
    if point.r != config.rank:
        raise ValueError(f"warm start has rank {point.r}, config expects {config.rank}")
    weighted = SAMPLING_SCHEMES[config.sampling].weighted
    weights = gram_nuclear_norms(point.gcache) if weighted else None
    return SolverState(point=point, rng=rng, weights=weights)


def sample_block(state: SolverState, u: float | None = None) -> int | None:
    """Draw the next block index: uniformly when state.weights is None, else
    proportionally to the weights.

    A weighted draw inverts the CDF of the weights at u, a uniform in [0, 1)
    (state.rng.random() when None), in two levels: a chunk of about sqrt(n)
    blocks by the prefix sums of the chunk sums, then a block by that chunk's
    prefix sums.  It never returns a block of zero weight.  With all-zero
    weights it returns None: every G_i vanishing means the Riemannian gradient
    is zero, so the caller should terminate with the tolerance reason.
    """
    n = state.point.n
    weights = state.weights
    if weights is None:
        return int(state.rng.integers(n))
    size, starts = _chunks(n)
    cum = np.add.reduceat(weights, starts).cumsum()
    total = cum[-1]
    if total <= 0.0:
        return None
    u = (state.rng.random() if u is None else u) * total
    c = _first_above(cum, u)
    start = c * size
    return start + _first_above(weights[start:start + size].cumsum(),
                                u - cum[c - 1] if c else u)


@functools.lru_cache(maxsize=8)
def _chunks(n: int):
    """Chunk size isqrt(n) of the importance draw and the (read-only) chunk starts."""
    size = math.isqrt(n)
    starts = np.arange(0, n, size)
    starts.flags.writeable = False
    return size, starts


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
    neighbors j in block row i_k of Q: G_j += (Y_new - Y_old) Q_[i_k,j],
    and with them their importance weights ||G_j||_*, from the d x d Gram
    matrices G_j^T G_j (gram_nuclear_norms: the SVD's norms to about 2e-8
    relative, the SVD itself for blocks out of range); block i_k's weight is
    the minimizer's SVD value.  A zero G_i makes the step a no-op; a
    non-finite one raises ValueError (block_minimize), and a LAPACK failure
    in the SVD or the weights' eigenvalues np.linalg.LinAlgError, both
    before anything changes; a non-finite cost or block raises
    NumericalError (after the update).  The one step of the solver:
    every importance step and every short in-order level of bcm_run takes it.
    """
    point = state.point
    G, Y_old = point.gcache[i_k], point.blocks[i_k]
    if not np.count_nonzero(G):
        return 0.0, 0.0
    Y_new, nuc = block_minimize(G)
    inner_old = float(np.vdot(G, Y_old))
    inner_new = float(np.vdot(G, Y_new))
    pred = -2.0 * (nuc + inner_old)
    meas = 2.0 * (inner_new - inner_old)
    mat = Q.mat
    p0, p1 = mat.indptr[i_k], mat.indptr[i_k + 1]
    nbr = Q.cols[p0:p1]
    Gn = point.gcache.take(nbr, axis=0) + (Y_new - Y_old) @ mat.data[p0:p1]
    weights = state.weights
    if weights is not None:  # validate rules out overflowing squares
        weights[nbr] = gram_nuclear_norms(Gn)  # first: it may raise LinAlgError
        weights[i_k] = nuc
    point.gcache[nbr] = Gn
    point.blocks[i_k] = Y_new
    point.cost += pred
    # G is finite here, so a finite <G, Y_new> implies a finite Y_new.
    if not (math.isfinite(point.cost) and (math.isfinite(inner_new) or np.isfinite(Y_new).all())):
        raise NumericalError(
            f"non-finite update at block {i_k}: cost={point.cost!r}")
    return pred, meas


def bcm_run(state: SolverState, Q: BlockSparseSym, run: list) -> tuple:
    """bcm_step at each index of run, in order, bit-identical to one bcm_step
    per index; returns the columns (cost_before, pred, meas), a list each.

    The steps are applied by dependency level (_levels): a level holds
    distinct, pairwise non-adjacent blocks, and every coupling receives its
    additions in run order.  A level in order (the steps done before and
    after it form prefixes of run) of fewer than RUN_BATCH_MIN steps takes
    bcm_step; every other level takes one block_minimize of its nonzero
    couplings (one batched SVD, a QR at d = 1) and one ordered np.add.at of
    the neighbour updates, and keeps an undo record of the rows it writes
    while it runs ahead of a step before it.  The cost is accumulated in run
    order each time the steps done form a prefix of run.  numpy's products
    and sums warn where bcm_step's float arithmetic does not, so the levels,
    scatters and single steps included, run under np.errstate(over="ignore",
    invalid="ignore"); the isfinite tests catch each failure (a non-finite
    coupling, result or cost, or a failed SVD), which restores the rows and
    replays the rest of the run by bcm_step outside it, which raises, and
    warns, as the sequential steps do.  Short runs and weighted states take
    bcm_step.
    """
    cost_before, pred, meas = np.zeros((3, len(run)))
    done = _apply_levels(state, Q, run, cost_before, pred, meas)
    for t in range(done, len(run)):  # a short run, or the rest of one after a failure
        cost_before[t] = state.point.cost
        pred[t], meas[t] = bcm_step(state, Q, run[t])
    return cost_before.tolist(), pred.tolist(), meas.tolist()


def _apply_levels(state: SolverState, Q: BlockSparseSym, run: list, cost_before, pred, meas) -> int:
    """bcm_run's levels: fills the columns of the steps done and returns their
    count: len(run); after a failure those done before it, the rows written
    since then restored; 0 for short runs and weighted states."""
    point = state.point
    if len(run) < RUN_BATCH_MIN or state.weights is not None or not point.gcache.flags.c_contiguous:
        return 0
    blocks, gcache, ptr = point.blocks, point.gcache, Q.mat.indptr
    idx = np.array(run)
    level = np.array(_levels(Q, run, idx))
    order = level.argsort(kind="stable")  # by level, in run order within one
    ends = np.bincount(level).cumsum()  # level k (1, 2, ...) is order[ends[k - 1]:ends[k]]
    sizes = np.diff(ends)
    # closes[k - 1]: the steps done after level k are run[:ends[k]], none beyond.
    closes = np.maximum.accumulate(order)[ends[1:] - 1] == ends[1:] - 1
    # The short levels in order: the steps done before and after each form prefixes of run.
    single = (sizes < RUN_BATCH_MIN) & closes & np.concatenate([[True], closes[:-1]])
    # The batched levels' neighbour entries, in level order.
    step = idx[order]
    p0 = ptr[step]
    count = np.where(np.repeat(~single, sizes), ptr[step + 1] - p0, 0)
    entry = np.concatenate([[0], count.cumsum()])
    at = _row_entries(p0, count)
    nbr, nbr_q = Q.cols[at], Q.mat.data[at]
    size = point.r * point.d  # one flat np.add.at (its fast form), in run order
    flat = nbr[:, None] * size + np.arange(size)
    live = np.zeros(len(run), dtype=bool)
    undo, done = [], 0  # (rows, G, blocks, Y) written since run[:done] was done

    with np.errstate(over="ignore", invalid="ignore"):
        for a, b, close, one in zip(ends[:-1].tolist(), ends[1:].tolist(), closes.tolist(),
                                    single.tolist()):
            if one:  # the level is run[done:b]
                for t in range(done, b):
                    cost_before[t] = point.cost
                    pred[t], meas[t] = bcm_step(state, Q, run[t])
                done = b
                continue
            cost0 = point.cost  # the cost of run[:done]
            try:
                i, Y_old, Y_new, on = _level_minimize(point, step[a:b], order[a:b],
                                                      pred, meas, live)
                if close:
                    on_run = live[done:b]
                    cost = np.cumsum(np.concatenate([[cost0], pred[done:b][on_run]]))
                    if not math.isfinite(cost[-1]):
                        raise NumericalError(f"non-finite cost {cost[-1]!r}")
                    cost_before[done:b] = cost[on_run.cumsum() - on_run]
            except (ValueError, NumericalError):  # LinAlgError is a ValueError
                for rows, G, i, Y in reversed(undo):
                    gcache[rows], blocks[i] = G, Y
                point.cost = cost0
                return done
            A, B = entry[a], entry[b]
            rows, f, q, c = nbr[A:B], flat[A:B], nbr_q[A:B], count[a:b]
            if on is not None:  # leave out the zero couplings' entries
                keep = np.repeat(on, c)
                rows, f, q, c = rows[keep], f[keep], q[keep], c[on]
            if not close:  # ahead of a step before it until a level closes the prefix
                undo.append((rows, gcache[rows], i, Y_old))
            np.add.at(gcache.reshape(-1), f.ravel(),
                      (np.repeat(Y_new - Y_old, c, axis=0) @ q).ravel())
            blocks[i] = Y_new
            if close:
                point.cost = float(cost[-1])
                undo, done = [], b
    return done


def _level_minimize(point: FactorPoint, i: np.ndarray, pos: np.ndarray, pred, meas, live):
    """Minimize the blocks i of one level, its steps at run positions pos, and
    store their pred and meas.  Returns (blocks, Y_old, Y_new, live mask, None
    when all are live) for the nonzero couplings; raises as block_minimize
    does, and NumericalError for a non-finite result."""
    G = point.gcache[i]
    on = G.any(axis=(1, 2))  # a zero G_i makes its step a no-op; the minimizer skips it
    if on.all():
        on = None
    else:
        i, G, pos = i[on], G[on], pos[on]
    Y_new, nuc = block_minimize(G)
    Y_old = point.blocks[i]
    inner_old = _vdots(G, Y_old)
    p = -2.0 * (nuc + inner_old)
    m = 2.0 * (_vdots(G, Y_new) - inner_old)
    # G is finite, so a finite <G, Y_new>, hence a finite m, implies a finite Y_new.
    if not (np.isfinite(p).all() and np.isfinite(m).all()):
        raise NumericalError("non-finite update in a batched level")
    pred[pos], meas[pos], live[pos] = p, m, True
    return i, Y_old, Y_new, on


def _vdots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """np.vdot of each pair of matrices of two stacks (k, r, d), by the same BLAS dot."""
    k, r, d = A.shape
    return (A.reshape(k, 1, r * d) @ B.reshape(k, r * d, 1)).ravel()


def _row_entries(p0: np.ndarray, count: np.ndarray) -> np.ndarray:
    """p0[k], p0[k] + 1, ..., p0[k] + count[k] - 1 for every k, in order: the
    positions in Q's block arrays of the rows starting at p0."""
    ends = count.cumsum()
    return np.arange(ends[-1]) + np.repeat(p0 - (ends - count), count)


def _levels(Q: BlockSparseSym, run: list, idx: np.ndarray) -> list:
    """The dependency level (1, 2, ...) of each step of run, whose blocks idx holds.

    With X[v] the level of the last step at v or at a neighbour of v (0 for
    none), a step at block i takes max(X[i] + 1, max X[j] over the
    neighbours j of i): after every earlier step at i or adjacent to it, and
    not before an earlier step that shares a neighbour with it, so that each
    coupling receives its additions in run order.  A block with degree^2 > n
    shares a neighbour with most blocks: its step takes a level of its own
    after every earlier step, with every later step after it, and its
    neighbours are not scanned.  X is indexed by a number per block that the
    run touches, so the work is bounded by the run's neighbour entries, not n.
    """
    p0 = Q.mat.indptr[idx]
    count = Q.mat.indptr[idx + 1] - p0
    hub = count > math.isqrt(Q.n)
    count[hub] = 0
    touched = np.concatenate([idx, Q.cols[_row_entries(p0, count)]])
    slot = np.empty(Q.n, dtype=np.intp)  # each block's number: a position where it is touched
    slot[touched] = np.arange(len(touched))
    ids = slot[touched].tolist()
    X = [0] * len(ids)
    levels, floor, since, start = [], 1, 0, len(run)
    for b, end, barrier in zip(ids, (count.cumsum() + len(run)).tolist(), hub.tolist()):
        if barrier:
            top = max(levels[since:], default=floor - 1)
            levels.append(top + 1)
            floor, since = top + 2, len(levels)
            continue
        nbs = ids[start:end]
        start = end
        m = X[b] + 1
        if m < floor:
            m = floor
        for j in nbs:
            if X[j] > m:
                m = X[j]
        levels.append(m)
        X[b] = m
        for j in nbs:
            X[j] = m
    return levels


def _take(state: SolverState, cap: int, draw) -> list:
    """The next cap values of a scheme's stream: state.draws, then chunks of
    DRAW_CHUNK from draw(size=...) (the same stream), whose rest stays there."""
    draws = state.draws
    while len(draws) < cap:
        draws += draw(size=DRAW_CHUNK).tolist()
    taken, draws[:cap] = draws[:cap], []
    return taken


def _uniform_run(state: SolverState, Q: BlockSparseSym, cap: int) -> tuple:
    """cap uniform steps, applied by bcm_run in windows of up to DRAW_CHUNK."""
    blocks = _take(state, cap, functools.partial(state.rng.integers, Q.n))
    windows = [bcm_run(state, Q, blocks[s:s + DRAW_CHUNK]) for s in range(0, cap, DRAW_CHUNK)]
    return blocks, *(list(chain.from_iterable(column)) for column in zip(*windows))


def _importance_run(state: SolverState, Q: BlockSparseSym, cap: int) -> tuple:
    """Up to cap importance steps, each drawn from the weights the one before
    left; fewer once the weights sum to zero, the uniforms left unused kept."""
    columns = blocks, cost_before, pred, meas = [], [], [], []
    uniforms = _take(state, cap, state.rng.random)
    for t, u in enumerate(uniforms):
        if (i := sample_block(state, u)) is None:
            state.draws[:0] = uniforms[t + 1:]
            break
        blocks.append(i)
        cost_before.append(state.point.cost)
        p, m = bcm_step(state, Q, i)
        pred.append(p)
        meas.append(m)
    return columns


# A sampling scheme: run(state, Q, cap) takes at most cap (>= 1) steps and returns their
# columns (blocks, cost_before, pred, meas), a list each (empty: a zero gradient); weighted
# keeps the draw weights ||G_i||_* in state.weights; rate(Q) is the constant of
# iteration_bound, multiplied left to right so that K keeps its last bit.
Scheme = namedtuple("Scheme", "run weighted rate")
SAMPLING_SCHEMES = {"uniform": Scheme(_uniform_run, False, lambda Q: 2.0 * Q.d * Q.n * Q.c1()),
                    "importance": Scheme(_importance_run, True, lambda Q: 2.0 * Q.d * Q.c2())}


def _stall_count(count: int, cost_before: list, pred: list, rtol: float) -> int:
    """The count of stalled steps in a row after the steps of a run's columns,
    count before them: a step stalls when |pred| < rtol (1 + |cost_before|).
    Read from the end, so a run whose last step descends costs one test."""
    for t in range(len(pred) - 1, -1, -1):
        if not abs(pred[t]) < rtol * (1.0 + abs(cost_before[t])):
            return len(pred) - 1 - t
    return count + len(pred)


def _refresh(state: SolverState, Q: BlockSparseSym) -> float:
    drift = state.point.refresh(Q)
    if state.weights is not None:
        state.weights = gram_nuclear_norms(state.point.gcache)
    return drift


def max_available_descent(point: FactorPoint) -> float:
    """Largest single-block cost decrease available, max_i 2(||G_i||_* + <G_i, Y_i>)."""
    G = point.gcache
    inner = np.sum(G * point.blocks, axis=(1, 2))
    return float(max(0.0, (2.0 * (nuclear_norm(G) + inner)).max()))


def _check_target(fstar: float, eps: float) -> None:
    """ValueError for an eps not positive, or an fstar NaN or +inf: the inputs
    iteration_bound refuses before any bound is formed."""
    if not eps > 0:  # NaN too
        raise ValueError(f"target eps must be positive, got {eps}")
    if not fstar < math.inf:  # NaN too; F0 - F* would be NaN
        raise ValueError(f"lower bound fstar must be a number below inf, got {fstar}")


def check_bound_args(fstar: float, eps: float) -> None:
    """ValueError for the inputs that bound no iteration count: those that
    iteration_bound refuses up front and fstar = -inf, a valid lower bound
    whose K is infinite (iteration_bound refuses that K as past the range)."""
    _check_target(fstar, eps)
    if fstar == -math.inf:
        raise ValueError(f"lower bound fstar must be finite to bound the iterations, got {fstar}")


def iteration_bound(Q: BlockSparseSym, sampling: str, f0: float, fstar: float, eps: float) -> int:
    """Iterations sufficient for the scheme to reach squared gradient norm eps
    from cost f0 (fstar when below): ceil(rate(Q) (F0 - F*) / eps).

    fstar may be any lower bound on the rank-restricted optimum; a looser one
    only enlarges K.  ValueError for an eps not positive, an fstar NaN or
    +inf, or a K past the float range (fstar = -inf among them).
    """
    _check_target(fstar, eps)
    gap = max(f0, fstar) - fstar
    if gap == 0.0:
        return 0
    bound = SAMPLING_SCHEMES[sampling].rate(Q) * gap / eps
    if not math.isfinite(bound):
        raise ValueError(f"{sampling} iteration bound is {bound}; set an explicit cap "
                         f"(--max-iters, SolverConfig.max_iters)")
    return math.ceil(bound)


def solve(Q: BlockSparseSym, config: SolverConfig, warm_start=None) -> RunReport:
    """Run the block-coordinate loop from warm_start (see init_state) until
    the gradient tolerance, the iteration cap, or a stall.

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
    max_iters = (config.max_iters if config.max_iters is not None
                 else iteration_bound(Q, config.sampling, f0, -Q.c2(), config.grad_tol))
    stall_window = STALL_WINDOW_FACTOR * n

    records = RunLog()
    max_drift = 0.0
    final_gradsq = None
    reason = None
    run = SAMPLING_SCHEMES[config.sampling].run

    while True:
        gradsq_here = None
        stall_hit = state.stall_count >= stall_window
        if state.k % check_period == 0 or stall_hit:
            gradsq_here = grad_norm_sq_fast(point)
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
        k = state.k  # a run ends before the next check, refresh, cap or stall trigger
        blocks, cost_before, pred, meas = run(
            state, Q, min(check_period - k % check_period, refresh_period - k % refresh_period,
                          max_iters - k, stall_window - state.stall_count))
        if not blocks:  # all draw weights zero: every G_i, so the gradient, vanishes
            reason, final_gradsq = "tolerance", grad_norm_sq_fast(point)
            break
        records._add_run(k, blocks, cost_before, pred, meas, gradsq_here,
                         time.perf_counter_ns() - t0, config.log_every)
        state.stall_count = _stall_count(state.stall_count, cost_before, pred, config.stall_rtol)
        state.k += len(blocks)
        if state.k % refresh_period == 0:
            max_drift = max(max_drift, _refresh(state, Q))

    if final_gradsq is None:
        final_gradsq = grad_norm_sq_fast(point)

    return RunReport(
        point=point,
        iterations=state.k,
        final_cost=point.cost,
        final_grad_norm_sq=final_gradsq,
        termination=reason,
        records=records,
        f0=f0,
        max_cost_drift=max_drift,
        wall_ns=time.perf_counter_ns() - t0,
    )
