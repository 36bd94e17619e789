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
warm start is supplied), then one draw per sampled index.  Each scheme's run
generator draws its own indices or uniforms from state.rng, 1024 at a time
(the same stream); sample_block takes an importance draw's uniform and
searches the sums of chunks of about sqrt(n) weights, then one chunk.  solve
takes the steps between two checks in one call of the scheme's run
generator: uniform indices are cut into runs of distinct, non-adjacent,
hence commuting, steps that bcm_run applies bit-identically to one bcm_step
per index (short runs take bcm_step); importance steps, each drawn from the
weights the one before left, take sample_block and bcm_step in turn.  The
iteration log, a RunLog, holds the logged steps in typed columns, 48 bytes a
step, and builds each LogRecord when it is read.
"""

from __future__ import annotations

import functools
import math
import time
from array import array
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, fields
from itertools import repeat

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
# Shortest run that bcm_run batches: for runs of two or three, one bcm_step
# per block is faster (Max-Cut and rotation sync, degree 10 to 1000).
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

    def _add_run(self, k: int, run: list, steps: list, gradsq, wall: int, every: int) -> None:
        """Log the steps k, k + 1, ... of a run, (cost_before, pred, meas) each,
        whose index is a multiple of every: all of them share wall, and the
        first, step k, carries gradsq, the squared gradient norm checked
        before the run (None if unchecked)."""
        if len(run) == 1:  # a one-step run (all of them when every step is checked): appended as is
            if k % every == 0:
                if gradsq is not None:
                    self._gradsq[len(self._k)] = gradsq
                self._k.append(k)
                self._block.append(run[0])
                self._wall_ns.append(wall)
                cost, pred, meas = steps[0]
                self._cost.append(cost)
                self._pred.append(pred)
                self._meas.append(meas)
            return
        if every > 1:
            first = -k % every
            run, steps, k = run[first::every], steps[first::every], k + first
            if not run:
                return
            if first:
                gradsq = None
        if gradsq is not None:
            self._gradsq[len(self._k)] = gradsq
        self._k.extend(range(k, k + len(run) * every, every))
        self._block.extend(run)
        self._wall_ns.extend(repeat(wall, len(run)))
        cost, pred, meas = zip(*steps)
        self._cost.extend(cost)
        self._pred.extend(pred)
        self._meas.extend(meas)


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
    every importance step and every short uniform run takes it.
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


def bcm_run(state: SolverState, Q: BlockSparseSym, run: list) -> list:
    """bcm_step at each block of a conflict-free run (distinct blocks, no two
    adjacent in Q): one block_minimize of the run's nonzero couplings (one
    batched SVD, a QR at d = 1), the neighbour updates added in run order by
    one np.add.at and the cost accumulated in sequence, bit-identical to one
    bcm_step per block.  Runs shorter than RUN_BATCH_MIN, runs whose steps
    would fail (block_minimize refuses a non-finite coupling before anything
    is applied, and the steps raise as bcm_step does) and weighted states
    take bcm_step.  Returns (cost_before, pred, meas) per step.
    """
    point = state.point
    if len(run) >= RUN_BATCH_MIN and state.weights is None and point.gcache.flags.c_contiguous:
        G = point.gcache[run]
        live = G.any(axis=(1, 2))  # a zero G_i makes its step a no-op; the minimizer skips it
        i, G = np.array(run)[live], G[live]
        try:
            Y_new, nuc = block_minimize(G)
        except ValueError:  # a non-finite coupling: the steps raise at its block
            pass
        else:
            Y_old = point.blocks[i]
            inner_old = _vdots(G, Y_old)
            pred = -2.0 * (nuc + inner_old)
            meas = 2.0 * (_vdots(G, Y_new) - inner_old)
            cost = np.cumsum(np.concatenate([[point.cost], pred]))
            if np.isfinite(cost).all() and np.isfinite(Y_new).all():
                p0, p1 = Q.mat.indptr[i], Q.mat.indptr[i + 1]
                count = p1 - p0
                at = np.arange(count.sum()) + np.repeat(p0 - (count.cumsum() - count), count)
                size = point.r * point.d  # one flat np.add.at (its fast form), in run order
                flat = Q.cols[at, None] * size + np.arange(size)
                np.add.at(point.gcache.reshape(-1), flat.ravel(),
                          (np.repeat(Y_new - Y_old, count, axis=0) @ Q.mat.data[at]).ravel())
                point.blocks[i] = Y_new
                point.cost = float(cost[-1])
                steps = np.zeros((3, len(run)))
                steps[0] = cost[live.cumsum() - live]
                steps[1:, live] = pred, meas
                return list(zip(*steps.tolist()))
    return [(point.cost, *bcm_step(state, Q, i)) for i in run]


def _vdots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """np.vdot of each pair of matrices of two stacks (k, r, d), by the same BLAS dot."""
    k, r, d = A.shape
    return (A.reshape(k, 1, r * d) @ B.reshape(k, r * d, 1)).ravel()


def _uniform_runs(state: SolverState, Q: BlockSparseSym):
    """Conflict-free runs of the uniform index stream, each applied by bcm_run and
    yielded with its steps: a run ends at the cap sent for it, or before the
    first index equal or adjacent to one of its members, found by stamping each
    member and its neighbours with the run's number."""
    ind, ptr = Q.cols, Q.mat.indptr.tolist()
    stamp = np.zeros(Q.n, dtype=np.int64)
    cap, run, rid = (yield), [], 1
    while True:
        for i in state.rng.integers(Q.n, size=DRAW_CHUNK).tolist():
            if len(run) == cap or stamp[i] == rid:
                cap, run, rid = (yield run, bcm_run(state, Q, run)), [], rid + 1
            run.append(i)
            stamp[ind[ptr[i]:ptr[i + 1]]] = rid
            stamp[i] = rid


def _importance_runs(state: SolverState, Q: BlockSparseSym):
    """Importance runs: sent a cap, take up to that many steps, each drawn from
    the weights the one before left, and yield the run and its steps.  A run
    ends early once the weights sum to zero, and the run after it is empty."""
    def uniforms():  # state.rng's stream, the same as one rng.random() per draw
        while True:
            yield from state.rng.random(size=DRAW_CHUNK).tolist()
    uniform = uniforms().__next__
    cap = yield
    while True:
        run, steps = [], []
        while len(run) < cap and (i := sample_block(state, uniform())) is not None:
            steps.append((state.point.cost, *bcm_step(state, Q, i)))
            run.append(i)
        cap = yield run, steps


# A sampling scheme: runs(state, Q), primed by next() and sent a cap, takes at most cap
# steps and yields (run, steps) with (cost_before, pred, meas) per step (none: a zero
# gradient); weighted keeps the draw weights ||G_i||_* in state.weights; rate(Q) is the
# constant of iteration_bound, multiplied left to right so that K keeps its last bit.
Scheme = namedtuple("Scheme", "runs weighted rate")
SAMPLING_SCHEMES = {"uniform": Scheme(_uniform_runs, False, lambda Q: 2.0 * Q.d * Q.n * Q.c1()),
                    "importance": Scheme(_importance_runs, True, lambda Q: 2.0 * Q.d * Q.c2())}


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
    runs = SAMPLING_SCHEMES[config.sampling].runs(state, Q)
    next(runs)

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
        run, steps = runs.send(min(check_period - k % check_period, refresh_period - k % refresh_period,
                                   max_iters - k, stall_window - state.stall_count))
        if not run:  # all draw weights zero: every G_i, so the gradient, vanishes
            reason, final_gradsq = "tolerance", grad_norm_sq_fast(point)
            break
        records._add_run(k, run, steps, gradsq_here, time.perf_counter_ns() - t0,
                         config.log_every)
        for cost_before, pred, _ in steps:
            stalled = abs(pred) < config.stall_rtol * (1.0 + abs(cost_before))
            state.stall_count = state.stall_count + 1 if stalled else 0
        state.k += len(run)
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
