import copy
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import (dense_cost, gcache_residual, nan_eigvalsh, nan_svd, neighbors,
                      random_instance, random_point, random_stiefel, reference_solve, triangle)

from blocksdp import (BlockSparseSym, NumericalError, RunLog, SolverConfig, bcm, bcm_run,
                      bcm_step, blockmat, init_state, sample_block, solve, stiefel)
from blocksdp.bcm import STALL_RTOL, max_available_descent
from blocksdp.blockmat import gram_nuclear_norms, nuclear_norm
from blocksdp.problems import generate_maxcut, generate_rotsync, sync_to_Q
from blocksdp.stiefel import FactorPoint, block_minimize


def make_state(Q, rank, seed, sampling="uniform"):
    return init_state(Q, SolverConfig(rank=rank, sampling=sampling, seed=seed))


def test_uniform_sampling_frequencies_and_replay():
    Q = triangle()
    cfg = SolverConfig(rank=2, sampling="uniform", seed=123)
    state = init_state(Q, cfg)
    draws = [sample_block(state) for _ in range(30000)]
    counts = np.bincount(draws, minlength=3) / len(draws)
    assert np.abs(counts - 1.0 / 3.0).max() <= 0.02
    state2 = init_state(Q, cfg)
    draws2 = [sample_block(state2) for _ in range(30000)]
    assert draws == draws2


def test_importance_sampling_distributions():
    Q = triangle()
    cfg = SolverConfig(rank=2, sampling="importance", seed=7)
    state = init_state(Q, cfg)

    state.weights = np.array([0.0, 5.0, 0.0])
    assert all(sample_block(state) == 1 for _ in range(100))

    state.weights = np.array([1.0, 1.0, 2.0])
    draws = [sample_block(state) for _ in range(30000)]
    counts = np.bincount(draws, minlength=3) / len(draws)
    assert np.abs(counts - np.array([0.25, 0.25, 0.5])).max() <= 0.02


def test_importance_all_zero_signals_convergence():
    Q = BlockSparseSym(1, 3, {})
    cfg = SolverConfig(rank=2, sampling="importance", seed=0)
    state = init_state(Q, cfg)
    assert sample_block(state) is None
    report = solve(Q, cfg)
    assert report.termination == "tolerance"
    assert report.iterations == 0
    assert report.final_grad_norm_sq == 0.0


def test_step_hand_example():
    Q = BlockSparseSym(1, 2, {(0, 1): np.array([[1.0]])})
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    cfg = SolverConfig(rank=2, seed=0)
    state = init_state(Q, cfg, warm_start=[e1, e2])
    assert state.point.cost == pytest.approx(0.0)

    pred, meas = bcm_step(state, Q, 0)
    assert pred == pytest.approx(-2.0)
    assert meas == pytest.approx(-2.0)
    assert state.point.cost == pytest.approx(-2.0)
    np.testing.assert_allclose(state.point.blocks[0], -e2)
    np.testing.assert_allclose(state.point.gcache[1], -e2)

    # the instance is now at a fixed point: the next step is a no-op
    pred, meas = bcm_step(state, Q, 1)
    assert pred == pytest.approx(0.0, abs=1e-15)
    assert state.point.cost == pytest.approx(-2.0)


def test_zero_coupling_step_is_noop():
    Q = BlockSparseSym(1, 2, {})
    cfg = SolverConfig(rank=2, seed=1)
    state = init_state(Q, cfg)
    before = state.point.blocks[0].copy()
    pred, meas = bcm_step(state, Q, 0)
    assert pred == 0.0 and meas == 0.0
    np.testing.assert_array_equal(state.point.blocks[0], before)


def test_descent_identity_against_scratch_recompute():
    rng = np.random.default_rng(10)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 9))
        r = int(rng.integers(d, 7))
        Q = random_instance(rng, d, n)
        Qd = Q.to_dense()
        cfg = SolverConfig(rank=r, seed=int(rng.integers(2 ** 32)))
        state = init_state(Q, cfg)
        f_old = dense_cost(Qd, state.point.blocks)
        for _ in range(100):
            i = sample_block(state)
            pred, _ = bcm_step(state, Q, i)
            f_new = dense_cost(Qd, state.point.blocks)
            slack = 1e-9 * (1.0 + abs(f_old))
            assert abs((f_new - f_old) - pred) <= slack
            assert f_new - f_old <= slack  # monotone descent
            f_old = f_new


def test_incremental_cache_stays_fresh_over_100_steps():
    rng = np.random.default_rng(11)
    Q = random_instance(rng, 2, 7, density=0.5)
    cfg = SolverConfig(rank=4, seed=3)
    state = init_state(Q, cfg)
    for _ in range(100):
        bcm_step(state, Q, sample_block(state))
    assert gcache_residual(state.point, Q) <= 1e-8


def test_untouched_neighbors_bitwise_unchanged():
    rng = np.random.default_rng(12)
    Q = random_instance(rng, 2, 8, density=0.3)
    cfg = SolverConfig(rank=3, seed=4)
    state = init_state(Q, cfg)
    for _ in range(200):
        i = sample_block(state)
        snapshot = {j: state.point.gcache[j].tobytes()
                    for j in range(Q.n) if j != i and j not in neighbors(Q, i)}
        bcm_step(state, Q, i)
        for j, raw in snapshot.items():
            assert state.point.gcache[j].tobytes() == raw


def test_solve_zero_instance_stops_immediately():
    Q = BlockSparseSym(2, 4, {})
    report = solve(Q, SolverConfig(rank=3, seed=5))
    assert report.iterations == 0
    assert report.final_cost == 0.0
    assert report.final_grad_norm_sq == 0.0
    assert report.termination == "tolerance"


def test_solve_triangle_reaches_sdp_optimum():
    report = solve(triangle(), SolverConfig(rank=2, grad_tol=1e-10, seed=7))
    assert report.termination == "tolerance"
    assert report.final_cost == pytest.approx(-3.0, abs=1e-6)


def test_solve_two_vertex_antipodal():
    Q = BlockSparseSym(1, 2, {(0, 1): np.array([[1.0]])})
    for seed in (0, 1, 2):
        report = solve(Q, SolverConfig(rank=2, grad_tol=1e-12, seed=seed))
        assert report.final_cost == pytest.approx(-2.0, abs=1e-8)
        np.testing.assert_allclose(report.point.blocks[1], -report.point.blocks[0],
                                   atol=1e-8)


def test_solve_is_deterministic():
    Q = triangle()
    cfg = SolverConfig(rank=2, grad_tol=1e-10, seed=42)
    a = solve(Q, cfg)
    b = solve(Q, cfg)
    assert [r.block for r in a.records] == [r.block for r in b.records]
    assert [r.cost for r in a.records] == [r.cost for r in b.records]
    assert a.final_cost == b.final_cost
    assert a.iterations == b.iterations


def test_cost_trace_monotone_in_solver_runs():
    rng = np.random.default_rng(13)
    for _ in range(5):
        Q = random_instance(rng, 2, 6)
        report = solve(Q, SolverConfig(rank=3, grad_tol=1e-9,
                                       seed=int(rng.integers(2 ** 32))))
        costs = [r.cost for r in report.records] + [report.final_cost]
        for prev, cur in zip(costs, costs[1:]):
            assert cur <= prev + 1e-9 * (1.0 + abs(prev))


def test_max_iters_cap():
    report = solve(triangle(), SolverConfig(rank=2, grad_tol=1e-14, seed=0,
                                            max_iters=5))
    assert report.termination == "max_iters"
    assert report.iterations == 5


def test_warm_start_checked_and_used():
    Q = triangle()
    rng = np.random.default_rng(14)
    warm = random_point(rng, Q, 2)
    report = solve(Q, SolverConfig(rank=2, grad_tol=1e-10, seed=0), warm_start=warm.blocks)
    assert report.f0 == pytest.approx(warm.cost)
    with pytest.raises(ValueError, match="warm start"):
        solve(Q, SolverConfig(rank=3, seed=0), warm_start=warm.blocks)


def test_log_records_shape_and_cadence():
    Q = triangle()
    report = solve(Q, SolverConfig(rank=2, grad_tol=1e-10, seed=2, log_every=2,
                                   check_period=3))
    assert all(r.k % 2 == 0 for r in report.records)
    for r in report.records:
        assert 0 <= r.block < 3
        assert r.wall_ns >= 0
        if r.k % 3 != 0:
            assert r.grad_norm_sq is None


@pytest.mark.parametrize("sampling", ["uniform", "importance"])
@pytest.mark.parametrize("log_every", [1, 3])
def test_run_log_is_a_sequence_of_records(sampling, log_every):
    # Sparse enough that uniform steps run in batches; 600 steps end before
    # the stall window, so the gradient is checked exactly every 50 steps.
    Q = generate_maxcut(200, 0.02, seed=5)
    config = SolverConfig(rank=3, sampling=sampling, seed=2, grad_tol=1e-30, max_iters=600,
                          check_period=50, refresh_period=130, log_every=log_every)
    report = solve(Q, config)
    log, records = report.records, list(report.records)
    assert isinstance(log, RunLog) and len(log) == len(records)
    assert [r.k for r in records] == list(range(0, 600, log_every))
    assert [log[j] for j in range(len(log))] == records
    assert (log[-1], log[-len(log)]) == (records[-1], records[0])
    assert log[5:40:7] == records[5:40:7] and log[::-1] == records[::-1] and log[9:2] == []
    for j in (len(log), -len(log) - 1):
        with pytest.raises(IndexError):
            log[j]
    assert ([r.k for r in records if r.grad_norm_sq is not None]
            == [k for k in range(0, 600, log_every) if k % 50 == 0])
    assert_same_run(report, reference_solve(Q, config))


def test_run_log_takes_under_64_bytes_per_step():
    Q = generate_maxcut(2000, 0.003, seed=7)
    config = SolverConfig(rank=4, seed=3, grad_tol=1e-30, max_iters=20000)
    tracemalloc.start()
    try:
        report = solve(Q, config)
        held = tracemalloc.get_traced_memory()[0]
        report.records = None  # what dropping the log frees is what it held
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert report.iterations == 20000
    assert freed < 64 * 20000


def test_nan_cost_aborts():
    Q = triangle()
    cfg = SolverConfig(rank=2, seed=0)
    state = init_state(Q, cfg)
    state.point.cost = float("nan")
    with pytest.raises(NumericalError):
        bcm_step(state, Q, 0)


def test_config_validation():
    Q = triangle()
    with pytest.raises(ValueError):
        SolverConfig(rank=0).validate(Q)
    with pytest.raises(ValueError):
        SolverConfig(rank=2, sampling="greedy").validate(Q)
    for grad_tol in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="grad_tol must be positive"):
            SolverConfig(rank=2, grad_tol=grad_tol).validate(Q)
    with pytest.raises(ValueError):
        SolverConfig(rank=2, log_every=0).validate(Q)


def test_stall_exit_only_when_no_block_can_descend():
    # grad_tol below the measurement floor: the run polishes to machine
    # precision and exits as stalled with no available per-block descent.
    Q = triangle()
    report = solve(Q, SolverConfig(rank=2, grad_tol=1e-22, seed=3))
    assert report.termination == "stalled"
    assert max_available_descent(report.point) <= 1e-14 * (1 + abs(report.final_cost))
    assert report.final_cost == pytest.approx(-3.0, abs=1e-9)


def test_stall_test_takes_the_svd_at_rank_deficient_minimizers():
    # Every block holds one Y, and every coupling is Q_[i,j] = -P_ij with P_ij
    # PSD and P_ij v = 0: G_i = -Y sum_j P_ij, so Y minimizes each block, and
    # each G_i has rank 2.  The SVD's nuclear norms leave no descent above the
    # stall threshold; the Gram eigenvalues would put about 1e-8 ||G_i|| in it.
    rng = np.random.default_rng(97)
    n, d = 8, 3
    v = random_stiefel(d, 1, rng)
    project = np.eye(d) - v @ v.T
    blocks = {}
    for i in range(n):
        for j in range(i + 1, n):
            A = rng.standard_normal((d, d))
            blocks[(i, j)] = -project @ A @ A.T @ project
    Q = BlockSparseSym(d, n, blocks)
    point = FactorPoint.from_blocks(np.repeat(random_stiefel(5, d, rng)[None], n, axis=0), Q)
    assert (np.linalg.matrix_rank(point.gcache) == 2).all()
    threshold = STALL_RTOL * (1.0 + abs(point.cost))
    assert max_available_descent(point) <= threshold
    inner = np.sum(point.gcache * point.blocks, axis=(1, 2))
    assert (2.0 * (gram_nuclear_norms(point.gcache) + inner)).max() > threshold


def cumsum_draw(weights, rng):
    """Reference importance draw: inverse CDF on the O(n) prefix sums of all weights."""
    cum = np.cumsum(weights)
    total = cum[-1]
    if total <= 0.0:
        return None
    u = rng.random() * total
    return min(int(np.searchsorted(cum, u, side="right")), len(weights) - 1)


def importance_state(n, weights, seed):
    cfg = SolverConfig(rank=1, sampling="importance", seed=0)
    state = init_state(BlockSparseSym(1, n, {}), cfg)
    state.weights = np.asarray(weights, dtype=float)
    state.rng = np.random.default_rng(seed)
    return state


@pytest.mark.parametrize("n", [1, 2, 3, 70, 71, 5000])
def test_importance_draw_matches_cumsum_reference(n):
    g = np.random.default_rng(n)
    sparse = g.random(n) * (g.random(n) < 0.6)  # zeros among the weights
    sparse[0] = 1.0
    wide = g.exponential(size=n) * 10.0 ** g.integers(-12, 12, size=n) * (g.random(n) < 0.5)
    wide[-1] = 1e-12
    single = np.zeros(n)  # all weight on one block
    single[g.integers(n)] = 2.5
    size = math.isqrt(n)
    last = np.zeros(n)  # weight only in the last chunk, short unless size divides n
    last[(n - 1) // size * size:] = g.random(n - (n - 1) // size * size) + 0.5
    cases = [sparse, wide, single, last]
    for seed, weights in enumerate(cases):
        # One state draws its uniforms from state.rng, the other is handed them.
        state, handed = importance_state(n, weights, seed), importance_state(n, weights, seed)
        ref, uniforms = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3000):
            k = sample_block(state)
            assert k == cumsum_draw(weights, ref) == sample_block(handed, uniforms.random())
            assert weights[k] > 0.0
        assert handed.rng.random() == np.random.default_rng(seed).random()  # never drawn from
    state = importance_state(n, np.zeros(n), 0)
    assert sample_block(state) is None
    assert sample_block(state, 0.5) is None


def test_importance_draw_at_the_chunk_edge_skips_zero_weights():
    # The chunk sum (pairwise) exceeds the chunk's last prefix sum
    # (sequential): a draw just below the chunk sum passes every prefix sum,
    # and must land on the chunk's last positive weight, not a zero after it.
    n = 400
    weights = np.zeros(n)
    weights[:math.isqrt(n) - 1] = 1e-16
    weights[0] = 1.0
    state = importance_state(n, weights, 0)
    assert sample_block(state, 1.0 - 2.0 ** -53) == 0  # the largest double below 1


def per_block_start(Q, rank, seed):
    """Reference start: one projected Gaussian block at a time from the seeded stream."""
    rng = np.random.default_rng(seed)
    return np.array([random_stiefel(rank, Q.d, rng) for _ in range(Q.n)]), rng


@pytest.mark.parametrize("d,rank,n", [(1, 1, 3), (1, 8, 500), (2, 2, 9), (3, 5, 70)])
def test_start_equals_per_block_loop(d, rank, n):
    Q = BlockSparseSym(d, n, {})
    for seed in (0, 1, 2):
        blocks, rng = per_block_start(Q, rank, seed)
        state = init_state(Q, SolverConfig(rank=rank, seed=seed))
        assert state.point.blocks.tobytes() == blocks.tobytes()
        assert state.rng.random() == rng.random()  # the stream continues in step


# Replay fingerprints recorded with the O(n) cumsum draw, SVD nuclear norms
# and the per-block start: (SHA-256 prefix of the sampled indices,
# iterations, repr(final_cost)).  The sparse Max-Cut pin (n=2000, average
# degree 6, so its uniform windows take batched levels) was recorded with one
# draw and one bcm_step per iteration, its importance pin (chunks of 44
# weights, 2000 steps between checks) with one rng.random() call per draw.
REPLAY = {
    ("maxcut", "uniform"): ("2ac012ca24a2a0c4", 2460, "-118.2259122651146"),
    ("maxcut", "importance"): ("c1d348633193647f", 2220, "-118.22591226345249"),
    ("rotsync", "uniform"): ("b2c33e2cae5e2131", 725, "-238.17600271992612"),
    ("rotsync", "importance"): ("4c9895ef7fa70190", 850, "-238.1760027187031"),
    ("sparse-maxcut", "uniform"): ("5224a3968876d5f6", 6000, "-6606.9991462187845"),
    ("sparse-maxcut", "importance"): ("2f3c03cc0b897b04", 6000, "-6578.346075811877"),
}


@pytest.mark.parametrize("problem,sampling", sorted(REPLAY))
def test_replay_matches_recorded_trajectory(problem, sampling):
    if problem == "maxcut":
        Q, rank, tol = generate_maxcut(30, 0.3, seed=7), 3, 1e-6
    elif problem == "sparse-maxcut":
        Q, rank, tol = generate_maxcut(2000, 0.003, seed=7), 4, 8e3
    else:
        Q, rank, tol = sync_to_Q(generate_rotsync(25, 3, 0.3, 0.2, seed=7)), 5, 1e-8
    report = solve(Q, SolverConfig(rank=rank, sampling=sampling, grad_tol=tol, seed=3))
    blocks = np.array([rec.block for rec in report.records], dtype=np.int64)
    digest = hashlib.sha256(blocks.tobytes()).hexdigest()[:16]
    assert report.termination == "tolerance"
    assert (digest, report.iterations, repr(report.final_cost)) == REPLAY[problem, sampling]


def conflict_free_runs(Q, rng, count):
    """count runs cut from a uniform index stream as solve cuts them: each
    ends before the first index equal or adjacent to one of its members."""
    runs, run, seen = [], [], set()
    while len(runs) < count:
        i = int(rng.integers(Q.n))
        if i in seen:
            runs.append(run)
            run, seen = [], set()
        run.append(i)
        seen.update([i, *neighbors(Q, i)])
    return runs


def state_bytes(state):
    p = state.point
    return p.blocks.tobytes(), p.gcache.tobytes(), np.float64(p.cost).tobytes()


def outcome(fn):
    """fn's columns (cost_before, pred, meas), three lists, zipped into one row
    of reprs per step, or the type and message of the error it raised."""
    try:
        columns = fn()
    except (ValueError, NumericalError) as exc:
        return type(exc), str(exc)
    assert len(columns) == 3 and all(type(column) is list for column in columns)
    return [tuple(map(repr, step)) for step in zip(*columns)]


def sequential_steps(state, Q, run):
    """One bcm_step per index of run: the columns (cost_before, pred, meas)."""
    columns = [], [], []
    for i in run:
        for column, value in zip(columns, (state.point.cost, *bcm_step(state, Q, i))):
            column.append(value)
    return columns


def run_against_steps(state, Q, run):
    """bcm_run on state and one bcm_step per block on a copy: both outcomes."""
    ref = copy.deepcopy(state)
    got = outcome(lambda: bcm_run(state, Q, run))
    want = outcome(lambda: sequential_steps(ref, Q, run))
    return got, want, ref


@pytest.fixture
def counted_steps(monkeypatch):
    """Counts the bcm_step calls that bcm_run makes."""
    calls = []

    def counted(state, Q, i):
        calls.append(i)
        return bcm_step(state, Q, i)

    monkeypatch.setattr(bcm, "bcm_step", counted)
    return calls


@pytest.fixture
def batch_all(monkeypatch):
    """bcm_run batches levels of every size, so short runs test the batched path."""
    monkeypatch.setattr(bcm, "RUN_BATCH_MIN", 1)


def test_short_runs_take_single_steps(counted_steps):
    rng = np.random.default_rng(29)
    Q = random_instance(rng, 2, 40, density=0.05)
    state = init_state(Q, SolverConfig(rank=3, seed=0))
    runs = conflict_free_runs(Q, rng, 60)
    assert {len(run) for run in runs} >= set(range(1, bcm.RUN_BATCH_MIN + 1))
    for run in runs:
        counted_steps.clear()
        got, want, ref = run_against_steps(state, Q, run)
        assert got == want and state_bytes(state) == state_bytes(ref)
        assert counted_steps == (run if len(run) < bcm.RUN_BATCH_MIN else [])


# At scale 2^470 the d = 1 couplings pass 2^459, where a batched step leaves the
# QR for the SVD (stiefel._column_frames).
@pytest.mark.parametrize("d,scale", [(1, 1.0), (2, 1.0), (3, 1.0), (1, 2.0 ** 470)],
                         ids=["1", "2", "3", "1-past-qr-range"])
def test_run_equals_sequential_steps_bit_for_bit(d, scale, counted_steps, batch_all):
    rng = np.random.default_rng(30 + d)
    shared = past = 0
    for trial in range(6):
        Q = random_instance(rng, d, int(rng.integers(8, 30)), density=0.12, scale=scale)
        state = init_state(Q, SolverConfig(rank=d + trial % 3, seed=trial))
        for run in conflict_free_runs(Q, rng, 40):
            past += bool(np.abs(state.point.gcache[run]).max() > 2.0 ** 459)
            counted_steps.clear()
            got, want, ref = run_against_steps(state, Q, run)
            assert got == want
            assert state_bytes(state) == state_bytes(ref)
            assert counted_steps == []  # batched, no fallback
            nbrs = [j for i in run for j in neighbors(Q, i)]
            shared += len(nbrs) > len(set(nbrs))
    assert shared >= 10  # neighbours updated by several members, in run order
    assert (past >= 10) if scale > 1.0 else not past


def cancelling_star():
    """Block 0 couples to 1 and 2, whose blocks cancel: G_0 is exactly zero.
    Block 3 shares neighbour 1 with block 0, so [0, 3] is a conflict-free run."""
    one = np.ones((1, 1))
    Q = BlockSparseSym(1, 5, {(0, 1): one, (0, 2): one, (1, 3): one, (3, 4): 2.0 * one})
    e1, e2 = np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])
    state = init_state(Q, SolverConfig(rank=2, seed=0), warm_start=[e2, e1, -e1, e2, e1])
    assert not state.point.gcache[0].any()
    return Q, state


def test_run_member_with_zero_coupling_is_a_noop(counted_steps, batch_all):
    Q, state = cancelling_star()
    state.point.gcache[2, 0, 0] = -0.0  # adding a zero would flip its sign
    got, want, ref = run_against_steps(state, Q, [0, 3])
    assert got == want and want[0][1:] == ("0.0", "0.0")
    assert state_bytes(state) == state_bytes(ref)
    assert np.signbit(state.point.gcache[2, 0, 0])
    assert counted_steps == []
    # a run whose members all have zero couplings changes nothing
    state.point.gcache[3] = 0.0
    before = state_bytes(state)
    assert bcm_run(state, Q, [0, 3]) == ([state.point.cost] * 2, [0.0] * 2, [0.0] * 2)
    assert state_bytes(state) == before


def test_run_with_nonfinite_coupling_fails_like_the_steps(batch_all):
    rng = np.random.default_rng(40)
    Q = random_instance(rng, 2, 30, density=0.05)
    state = init_state(Q, SolverConfig(rank=3, seed=1))
    run = max(conflict_free_runs(Q, rng, 50), key=lambda run: state.point.gcache[run[:2]].any())
    assert len(run) >= 3 and state.point.gcache[run[:2]].any(axis=(1, 2)).all()
    state.point.gcache[run[2], 1, 0] = np.inf
    got, want, ref = run_against_steps(state, Q, run)
    assert got == want and got[0] is ValueError
    assert state_bytes(state) == state_bytes(ref)  # the members before it were applied


def test_run_with_nan_cost_names_the_same_block(batch_all):
    Q, state = cancelling_star()
    state.point.cost = float("nan")
    got, want, ref = run_against_steps(state, Q, [0, 3])
    assert got == want == (NumericalError, "non-finite update at block 3: cost=nan")
    assert state_bytes(state) == state_bytes(ref)


def greedy_runs(Q, seq):
    """seq cut into conflict-free runs, each ended before the first index equal
    or adjacent to one of its members."""
    runs, seen = [[]], set()
    for i in seq:
        if i in seen:
            runs.append([])
            seen = set()
        runs[-1].append(i)
        seen.update([i, *neighbors(Q, i)])
    return runs


def dependency_levels(Q, seq):
    """The level (0, 1, ...) of each step of seq, by bcm_run's rule written out:
    with W[v] the level of the last step adjacent to v and B[v] that of the
    last step at v, a step at i takes max(W[i] + 1, B[i] + 1, max W[j] over
    the neighbours j of i).  A block with degree^2 > n takes the level above
    every earlier step, and every later step a level above it."""
    W, B, levels, floor = {}, {}, [], 0
    for i in seq:
        nbrs = neighbors(Q, i)
        if len(nbrs) ** 2 > Q.n:
            level = max(levels, default=-1) + 1
            floor = level + 1
        else:
            level = max([floor, W.get(i, -1) + 1, B.get(i, -1) + 1] + [W.get(j, -1) for j in nbrs])
            B[i] = level
            W.update(dict.fromkeys(nbrs, level))
        levels.append(level)
    return levels


def arbitrary_sequences(Q, rng, count):
    """count index sequences of 60 to 200 steps: uniform draws and, every
    second one, draws from three blocks and their neighbours, dense in
    repeats, adjacent pairs and shared neighbours."""
    for t in range(count):
        size = int(rng.integers(60, 201))
        if t % 2:
            yield rng.integers(Q.n, size=size).tolist()
        else:
            centres = rng.choice(Q.n, size=3, replace=False).tolist()
            pool = sorted({*centres, *(j for c in centres for j in neighbors(Q, c))})
            yield rng.choice(pool, size=size).tolist()


def ahead_levels(levels):
    """The levels that run ahead of a step before them: those after which, or
    before which, the steps done are not a prefix of the sequence.  bcm_run
    batches them whatever their size, and keeps undo records for them."""
    order = np.argsort(levels, kind="stable")
    ends = np.bincount(levels).cumsum()
    prefix = [True, *(np.maximum.accumulate(order)[ends - 1] == ends - 1)]
    return [v for v in range(len(ends)) if not (prefix[v] and prefix[v + 1])]


@pytest.fixture
def batched_minimizations(monkeypatch):
    """The stack sizes of the block_minimize calls bcm makes on stacks."""
    sizes = []

    def counted(G):
        if G.ndim == 3:
            sizes.append(len(G))
        return block_minimize(G)

    monkeypatch.setattr(bcm, "block_minimize", counted)
    return sizes


# At scale 2^470 the d = 1 couplings pass 2^459, where a batched level leaves
# the QR for the SVD (stiefel._column_frames).
@pytest.mark.parametrize("d,scale", [(1, 1.0), (2, 1.0), (3, 1.0), (1, 2.0 ** 470)],
                         ids=["1", "2", "3", "1-past-qr-range"])
@pytest.mark.parametrize("batch_every_level", [False, True], ids=["", "batch-all"])
def test_run_of_any_sequence_equals_sequential_steps(d, scale, batch_every_level, monkeypatch,
                                                     counted_steps, batched_minimizations):
    if batch_every_level:
        monkeypatch.setattr(bcm, "RUN_BATCH_MIN", 1)
    rng = np.random.default_rng(90 + d)
    seen = dict.fromkeys(["hub-free", "shared", "zero", "signed-zero", "short-ahead"], 0)
    for trial in range(3):
        Q = random_instance(rng, d, int(rng.integers(60, 90)), density=0.04, scale=scale)
        hub = [len(neighbors(Q, i)) ** 2 > Q.n for i in range(Q.n)]
        state = init_state(Q, SolverConfig(rank=d + trial % 3, seed=trial))
        for seq in arbitrary_sequences(Q, rng, 6):
            G = state.point.gcache
            G[rng.choice(seq, size=2)] = 0.0  # zero couplings, until a neighbour steps
            G[rng.choice(Q.n, size=5), 0, 0] = -0.0
            signed_zero = np.signbit(G) & (G == 0.0)
            levels = dependency_levels(Q, seq)
            assert bcm._levels(Q, seq, np.array(seq)) == [v + 1 for v in levels]
            counted_steps.clear()
            batched_minimizations.clear()
            got, want, ref = run_against_steps(state, Q, seq)
            assert got == want
            assert state_bytes(state) == state_bytes(ref)
            sizes = np.bincount(levels)
            if batch_every_level:  # one batched minimization per level, no single step
                assert counted_steps == [] and len(batched_minimizations) == len(sizes)
            else:  # short levels in order take single steps, in order; all others are batched
                ahead = set(ahead_levels(levels))
                single = [size < bcm.RUN_BATCH_MIN and v not in ahead
                          for v, size in enumerate(sizes)]
                assert len(batched_minimizations) == single.count(False)
                assert counted_steps == [seq[t] for t, v in enumerate(levels) if single[v]]
                seen["short-ahead"] += sum(sizes[v] < bcm.RUN_BATCH_MIN for v in ahead)
            if not any(hub[i] for i in seq):  # levels merge the greedy runs
                assert len(sizes) < len(greedy_runs(Q, seq))
                seen["hub-free"] += 1
            for v in range(len(sizes)):
                nbrs = [j for t, i in enumerate(seq) if levels[t] == v for j in neighbors(Q, i)]
                seen["shared"] += len(nbrs) > len(set(nbrs))
            seen["zero"] += sum(step[1:] == (repr(0.0), repr(0.0)) for step in want)
            seen["signed-zero"] += int((signed_zero & np.signbit(state.point.gcache)).sum())
    assert seen.pop("hub-free") >= 15
    if batch_every_level:
        del seen["short-ahead"]  # no level is short
    assert min(seen.values()) > 0, seen


def hub_instance(rng, n=64, hubs=3):
    """d = 1: blocks 0 .. hubs - 1 coupled to about 60% of the others (degree^2 >
    n), the rest sparse among themselves (degree^2 < n)."""
    blocks = {(h, j): rng.standard_normal((1, 1)) for h in range(hubs) for j in range(hubs, n)
              if rng.random() < 0.6}
    blocks.update({(i, j): rng.standard_normal((1, 1)) for i in range(hubs, n)
                   for j in range(i + 1, n) if rng.random() < 0.03})
    return BlockSparseSym(1, n, blocks)


def test_hub_steps_are_single_levels_between_batched_ones(counted_steps, batched_minimizations):
    rng = np.random.default_rng(95)
    Q = hub_instance(rng)
    hub = [len(neighbors(Q, i)) ** 2 > Q.n for i in range(Q.n)]
    assert hub[:3] == [True] * 3 and not any(hub[3:])
    state = init_state(Q, SolverConfig(rank=3, seed=5))
    hub_steps = 0
    for _ in range(8):
        seq = rng.integers(Q.n, size=150).tolist()
        counted_steps.clear()
        batched_minimizations.clear()
        got, want, ref = run_against_steps(state, Q, seq)
        assert got == want and state_bytes(state) == state_bytes(ref)
        assert [i for i in counted_steps if hub[i]] == [i for i in seq if hub[i]]
        assert batched_minimizations
        hub_steps += sum(hub[i] for i in seq)
    assert hub_steps >= 20


def test_dense_runs_take_single_steps_in_order(counted_steps, batched_minimizations):
    rng = np.random.default_rng(96)
    for d in (1, 2):
        Q = random_instance(rng, d, 20, density=0.7)
        assert all(len(neighbors(Q, i)) ** 2 > Q.n for i in range(Q.n))
        state = init_state(Q, SolverConfig(rank=d + 1, seed=d))
        seq = rng.integers(Q.n, size=200).tolist()
        counted_steps.clear()
        got, want, ref = run_against_steps(state, Q, seq)
        assert got == want and state_bytes(state) == state_bytes(ref)
        assert counted_steps == seq and batched_minimizations == []


def huge_coupling_fails_svd(monkeypatch, state, j):
    """A fault: block j's coupling is scaled by 1e6, and the SVD of any matrix
    with an entry that large returns LAPACK's NaN failure."""
    state.point.gcache[j] *= 1e6
    svd = stiefel._svd
    monkeypatch.setattr(stiefel, "_svd", lambda M: nan_svd(M) if np.abs(M).max() > 1e5 else svd(M))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fault,error", [
    ("inf-coupling", "block coupling matrix has non-finite entries"),
    ("failed-svd", "SVD did not converge"),
    ("nan-cost", "non-finite update at block {j}: cost=nan")])
def test_failure_after_earlier_levels_leaves_the_sequential_state(fault, error, monkeypatch,
                                                                 batched_minimizations):
    # Block j's first step follows a step at its neighbour a, so it lies in
    # the second level, while steps after it lie in the first, which bcm_run
    # applies before it finds the failure at j: it must undo them and fail as
    # one bcm_step per index does, with the same error and state.
    rng = np.random.default_rng(97)
    Q = random_instance(rng, 3, 50, density=0.06)
    state = init_state(Q, SolverConfig(rank=4, seed=6))
    j = max(range(Q.n), key=lambda i: len(neighbors(Q, i)))
    a = neighbors(Q, j)[0]
    near = {a, j, *neighbors(Q, a), *neighbors(Q, j)}
    free = [i for i in range(Q.n) if i not in near]
    seq = [a, j, *rng.choice(free, size=30).tolist(), *rng.integers(Q.n, size=60).tolist()]
    levels = dependency_levels(Q, seq)
    assert levels[:2] == [0, 1] and levels.count(0) >= bcm.RUN_BATCH_MIN
    if fault == "inf-coupling":
        state.point.gcache[j, 1, 2] = np.inf
    elif fault == "failed-svd":
        huge_coupling_fails_svd(monkeypatch, state, j)
    else:  # the first live step in order is j's: a's coupling is zero
        state.point.cost = float("nan")
        state.point.gcache[a] = 0.0
    got, want, ref = run_against_steps(state, Q, seq)
    assert got == want and got[1] == error.format(j=j)
    assert state_bytes(state) == state_bytes(ref)
    assert batched_minimizations  # the first level was minimized as one batch


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cost,scale", [(-1.7e308, 1e307), (0.0, 1.7e308)],
                         ids=["cost-overflows", "product-overflows"])
def test_overflow_in_a_run_fails_like_the_steps(cost, scale):
    # A cost or coupling near the float range: one bcm_step per index raises
    # NumericalError, with no numpy warning; bcm_run's batched products and
    # cost sums must not warn either, and must leave the same error and state.
    Q = generate_maxcut(60, 0.05, 1)
    state = make_state(Q, 4, 0)
    state.point.cost = cost
    state.point.gcache[0] *= scale / np.abs(state.point.gcache[0]).max()
    run = np.random.default_rng(0).integers(Q.n, size=64).tolist()
    got, want, ref = run_against_steps(state, Q, run)
    assert got == want == (NumericalError, "non-finite update at block 0: cost=-inf")
    assert state_bytes(state) == state_bytes(ref)


@pytest.mark.parametrize("n", [1, 2, 7, 5000, 2 ** 33])
def test_chunked_uniform_draws_equal_scalar_draws(n):
    scalar_rng, chunk_rng = np.random.default_rng(n), np.random.default_rng(n)
    scalar = [int(scalar_rng.integers(n)) for _ in range(2500)]
    chunked = chunk_rng.integers(n, size=1000).tolist() + chunk_rng.integers(n, size=1500).tolist()
    assert chunked == scalar


@pytest.mark.parametrize("n", [1, 2, 7, 5000])
def test_chunked_importance_uniforms_equal_scalar_draws(n):
    scalar_rng, chunk_rng = np.random.default_rng(n), np.random.default_rng(n)
    scalar = [scalar_rng.random() for _ in range(2500)]
    chunked = chunk_rng.random(size=1000).tolist() + chunk_rng.random(size=1500).tolist()
    assert chunked == scalar


def test_importance_runs_draw_from_the_state_generator():
    # The scheme's run takes its uniforms DRAW_CHUNK at a time from
    # init_state's generator and leaves state.rng in place: 2500 steps draw
    # three chunks, and the uniforms not used wait in state.draws.
    Q = generate_maxcut(200, 0.05, seed=1)
    state = make_state(Q, 4, 5, sampling="importance")
    rng, ref = state.rng, copy.deepcopy(state.rng)
    columns = bcm.SAMPLING_SCHEMES["importance"].run(state, Q, 2500)
    assert [len(column) for column in columns] == [2500] * 4
    assert all(type(column) is list for column in columns)
    assert state.rng is rng
    chunks = ref.random(size=3 * bcm.DRAW_CHUNK).tolist()
    assert rng.bit_generator.state == ref.bit_generator.state
    assert state.draws == chunks[2500:]
    # With all weights zero a run ends at its first draw; the other draws wait.
    state.weights[:] = 0.0
    assert bcm.SAMPLING_SCHEMES["importance"].run(state, Q, 10) == ([], [], [], [])
    assert state.draws == chunks[2501:]


def test_uniform_runs_take_the_stream_in_chunks():
    # Runs capped at 1000, 7 and 2000 steps take the first 3007 indices of
    # three chunks of DRAW_CHUNK; the other 65 wait in state.draws.
    Q = generate_maxcut(200, 0.05, seed=1)
    state = make_state(Q, 4, 5)
    ref = copy.deepcopy(state.rng)
    blocks = []
    for cap in (1000, 7, 2000):
        columns = bcm.SAMPLING_SCHEMES["uniform"].run(state, Q, cap)
        assert [len(column) for column in columns] == [cap] * 4
        blocks += columns[0]
    chunks = [i for _ in range(3) for i in ref.integers(Q.n, size=bcm.DRAW_CHUNK).tolist()]
    assert blocks == chunks[:3007] and state.draws == chunks[3007:]
    assert len(state.draws) == 65
    assert state.rng.bit_generator.state == ref.bit_generator.state


def assert_same_run(report, ref):
    def recs(rep):
        return [{**r.to_dict(), "wall_ns": None} for r in rep.records]
    assert {**report.summary(), "wall_ns": None} == {**ref.summary(), "wall_ns": None}
    assert report.point.blocks.tobytes() == ref.point.blocks.tobytes()
    assert recs(report) == recs(ref)


IMPORTANCE = {"sampling": "importance"}


@pytest.mark.parametrize("d,rank,kwargs,termination", [
    (1, 2, {"check_period": 7, "refresh_period": 13, "max_iters": 499}, "max_iters"),
    (1, 2, {"check_period": 50, "refresh_period": 1000, "max_iters": 203}, "max_iters"),
    (2, 3, {"check_period": 1, "max_iters": 300}, "max_iters"),
    (3, 4, {"check_period": 11, "refresh_period": 5, "log_every": 3, "max_iters": 403}, "max_iters"),
    # The tolerance 1e-22 runs each solve into the stall window.
    (1, 2, {"log_every": 4, "grad_tol": 1e-22}, "stalled"),
    (2, 3, {"refresh_period": 17, "grad_tol": 1e-22}, "stalled"),
    (3, 3, {"check_period": 9, "grad_tol": 1e-22}, "stalled"),
    # Importance runs end at the check, refresh, cap or stall trigger inside them.
    (1, 2, {**IMPORTANCE, "check_period": 7, "refresh_period": 13, "max_iters": 499}, "max_iters"),
    (2, 3, {**IMPORTANCE, "check_period": 1, "max_iters": 300}, "max_iters"),
    (3, 4, {**IMPORTANCE, "check_period": 11, "refresh_period": 5, "log_every": 3,
            "max_iters": 403}, "max_iters"),
    (1, 2, {**IMPORTANCE, "check_period": 1000, "grad_tol": 1e-22}, "stalled"),
    (2, 3, {**IMPORTANCE, "check_period": 1000, "refresh_period": 45, "log_every": 7,
            "grad_tol": 1e-22}, "stalled"),
    (3, 3, {**IMPORTANCE, "check_period": 9, "grad_tol": 1e-22}, "stalled"),
    (1, 2, {**IMPORTANCE, "check_period": 30, "grad_tol": 1e-6, "log_every": 5}, "tolerance"),
    (2, 3, {**IMPORTANCE, "check_period": 30, "refresh_period": 70, "grad_tol": 1e-6}, "tolerance"),
    # Checked at every step, so every run is one step, logged or skipped whole.
    (1, 2, {"check_period": 1, "log_every": 2, "max_iters": 201}, "max_iters"),
    (2, 3, {**IMPORTANCE, "check_period": 1, "log_every": 3, "max_iters": 301}, "max_iters"),
])
def test_solve_matches_one_step_per_iteration_loop(d, rank, kwargs, termination):
    rng = np.random.default_rng(50 + d)
    Q = random_instance(rng, d, 16, density=0.15)
    config = SolverConfig(rank=rank, seed=d, **kwargs)
    report = solve(Q, config)
    assert report.termination == termination
    assert_same_run(report, reference_solve(Q, config))


@pytest.fixture
def faulty_start(monkeypatch):
    """Makes bcm.init_state apply the fault set in the returned dict to each
    state it builds, and bcm.bcm_step record the blocks it is called on."""
    made = {"fault": None, "states": [], "steps": []}
    init_state, bcm_step = bcm.init_state, bcm.bcm_step

    def faulty_init_state(*args, **kwargs):
        state = init_state(*args, **kwargs)
        made["fault"](state)
        made["states"].append(state)
        return state

    def recorded_step(state, Q, i):
        made["steps"].append(i)
        return bcm_step(state, Q, i)

    monkeypatch.setattr(bcm, "init_state", faulty_init_state)
    monkeypatch.setattr(bcm, "bcm_step", recorded_step)
    return made


def stolen_draw(j):
    """A fault: block j's coupling holds NaN and its weight dwarfs the others'."""
    def fault(state):
        state.point.gcache[j, 1, 0] = np.nan
        state.weights[j] = 1e300
    return fault


def nan_neighbour(j):
    """A fault: block j's coupling holds NaN, its weight unchanged."""
    def fault(state):
        state.point.gcache[j, 0, 1] = np.nan
    return fault


def nan_cost(state):
    state.point.cost = float("nan")


@pytest.mark.parametrize("fault,error", [
    (stolen_draw(4), ValueError), (nan_neighbour(4), np.linalg.LinAlgError),
    (nan_cost, NumericalError)], ids=["nan-coupling", "nan-neighbour", "nan-cost"])
def test_importance_solve_fails_like_one_step_per_iteration(faulty_start, fault, error):
    rng = np.random.default_rng(61)
    Q = random_instance(rng, 2, 16, density=0.2)
    config = SolverConfig(rank=3, sampling="importance", seed=2, check_period=40, max_iters=10 ** 4)
    faulty_start["fault"] = fault
    outcomes, steps = [], []
    for run in (solve, reference_solve):
        faulty_start["steps"].clear()
        with pytest.raises(Exception) as exc:
            run(Q, config)
        outcomes.append((exc.type, str(exc.value)))
        steps.append(list(faulty_start["steps"]))
    assert outcomes[0] == outcomes[1] and issubclass(outcomes[0][0], error)
    assert steps[0] == steps[1] and steps[0]  # failing at the same block
    got, want = faulty_start["states"]
    assert state_bytes(got) == state_bytes(want)  # the same updates applied before it
    assert got.weights.tobytes() == want.weights.tobytes()


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("scale", [1e-170, 1.0, 1e150])
def test_step_weights_are_nuclear_norms_without_warnings(d, scale):
    # Squared entries of the couplings underflow at 1e-170.  At 1e200 they
    # would overflow, and so does 4 C1 C2: such an instance is refused.
    config = SolverConfig(rank=d + 1, sampling="importance", seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = random_instance(np.random.default_rng(70 + d), d, 12, density=0.3, scale=1e200)
        with pytest.raises(ValueError, match="float range"):
            init_state(huge, config)
        Q = random_instance(np.random.default_rng(70 + d), d, 12, density=0.3, scale=scale)
        state = init_state(Q, config)
        for _ in range(200):
            i = sample_block(state)
            G = state.point.gcache[i].copy()
            bcm_step(state, Q, i)
            nbr = neighbors(Q, i)
            weights, Gn = state.weights, state.point.gcache[nbr]
            if d == 1:
                assert weights[nbr].tobytes() == nuclear_norm(Gn).tobytes()
            else:  # the Gram eigenvalues, not the SVD that nuclear_norm takes at d > 1
                assert weights[nbr].tobytes() == gram_nuclear_norms(Gn).tobytes()
                np.testing.assert_allclose(weights[nbr], nuclear_norm(Gn), rtol=1e-7, atol=0)
            assert weights[i] == block_minimize(G)[1]


def test_every_step_minimizes_through_block_minimize(monkeypatch):
    # The one minimizer: an importance solve calls it once per step, a uniform
    # solve once per batched level (RUN_BATCH_MIN or more steps of one
    # dependency level, or fewer that run ahead of a step before them) and
    # once per other step with a nonzero coupling, and the blocks it minimizes
    # sum to the steps with one.
    minimized, recording = [], [True]  # blocks per call

    def counted(G):
        if recording[0]:
            minimized.append(len(G) if G.ndim == 3 else 1)
        return block_minimize(G)

    monkeypatch.setattr(bcm, "block_minimize", counted)
    Q = random_instance(np.random.default_rng(80), 1, 200, density=0.01)
    report = solve(Q, SolverConfig(rank=3, sampling="importance", seed=1, max_iters=2000))
    assert report.iterations and minimized == [1] * report.iterations

    expected, steps = [], {"batched": 0, "short": 0, "short-ahead": 0, "zero": 0}

    def recorded_run(state, Q, run):
        # Which steps find a nonzero coupling: those of one bcm_step per index.
        ref, live = copy.deepcopy(state), []
        recording[0] = False
        for i in run:
            live.append(bool(ref.point.gcache[i].any()))
            bcm_step(ref, Q, i)
        recording[0] = True
        levels = dependency_levels(Q, run)
        ahead = set(ahead_levels(levels))
        for level in range(max(levels) + 1):
            members = [t for t, v in enumerate(levels) if v == level]
            on = sum(live[t] for t in members)
            short = len(members) < bcm.RUN_BATCH_MIN
            batched = len(run) >= bcm.RUN_BATCH_MIN and (not short or level in ahead)
            expected.extend([on] if batched else [1] * on)
            steps["batched" if batched else "short"] += len(members)
            steps["short-ahead"] += len(members) if batched and short else 0
            steps["zero"] += len(members) - on
        return bcm_run(state, Q, run)

    monkeypatch.setattr(bcm, "bcm_run", recorded_run)
    minimized.clear()
    report = solve(Q, SolverConfig(rank=3, seed=1, max_iters=2000))
    assert minimized == expected
    assert sum(minimized) == report.iterations - steps["zero"]
    assert min(steps.values()) > 0, steps  # batched, short and short-ahead levels, zero couplings


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kernel", ["svd", "eigvalsh"])
def test_failed_lapack_step_raises_before_any_change(monkeypatch, kernel):
    # The minimizer's SVD or a neighbour weight's eigenvalues fail: the step
    # raises LinAlgError with blocks, couplings, weights and cost untouched.
    Q = random_instance(np.random.default_rng(81), 3, 12, density=0.4)
    state = init_state(Q, SolverConfig(rank=5, sampling="importance", seed=2))
    i = sample_block(state)
    assert neighbors(Q, i) and state.point.gcache[i].any()
    if kernel == "svd":
        monkeypatch.setattr(stiefel, "_svd", nan_svd)
    else:
        monkeypatch.setattr(blockmat, "_eigvalsh", nan_eigvalsh)
    before = state_bytes(state), state.weights.tobytes()
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        bcm_step(state, Q, i)
    assert (state_bytes(state), state.weights.tobytes()) == before


@pytest.mark.filterwarnings("error")
def test_failed_svd_in_a_run_falls_back_to_the_failing_step(monkeypatch, counted_steps):
    rng = np.random.default_rng(82)
    Q = random_instance(rng, 3, 40, density=0.05)
    state = init_state(Q, SolverConfig(rank=4, seed=1))
    run = next(run for run in conflict_free_runs(Q, rng, 200)
               if len(run) >= bcm.RUN_BATCH_MIN and state.point.gcache[run[0]].any())
    monkeypatch.setattr(stiefel, "_svd", nan_svd)
    before = state_bytes(state)
    with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
        bcm_run(state, Q, run)
    assert counted_steps == run[:1]  # the batched minimizer failed first, then the step
    assert state_bytes(state) == before


def direct_lapack():
    """Whether the SVD and eigvalsh kernels call numpy's gufuncs, not np.linalg."""
    return all(isinstance(getattr(k, "func", None), np.ufunc)
               for k in (stiefel._svd, blockmat._eigvalsh))


@pytest.mark.skipif(not direct_lapack(), reason="this numpy has no svd_s or eigvalsh_lo gufunc")
@pytest.mark.parametrize("d", [1, 3])
def test_importance_steps_bypass_the_np_linalg_wrappers(monkeypatch, d):
    # With the cap set, C2's SVD is not needed, and neither the steps nor the
    # weight updates may go through np.linalg.svd or np.linalg.eigvalsh.
    def refused(*args, **kwargs):
        raise AssertionError("np.linalg wrapper called")

    Q = random_instance(np.random.default_rng(83 + d), d, 30, density=0.2)
    config = SolverConfig(rank=d + 2, sampling="importance", seed=4, max_iters=600)
    want = solve(Q, config)
    monkeypatch.setattr(np.linalg, "svd", refused)
    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    got = solve(Q, config)
    assert got.termination == "max_iters" and got.iterations == 600
    assert got.point.blocks.tobytes() == want.point.blocks.tobytes()


def test_solve_on_weights_past_the_float_range_is_quiet():
    # C1, C2 and the start's cost overflow: the instance is refused before the
    # start is drawn, with or without a cap, and the refusal does not warn.
    Q = BlockSparseSym(1, 3, {(0, 1): np.array([[1e308]]), (0, 2): np.array([[1e308]])})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sampling in bcm.SAMPLING_SCHEMES:
            for max_iters in (None, 10):
                with pytest.raises(ValueError, match="float range"):
                    solve(Q, SolverConfig(rank=2, sampling=sampling, max_iters=max_iters))


def test_a_scheme_is_one_table_entry(monkeypatch):
    # A third, unweighted scheme that steps the blocks in cyclic order: solve
    # needs nothing but its entry.
    def cyclic_run(state, Q, cap):
        blocks = [(state.k + t) % Q.n for t in range(cap)]
        return (blocks, *sequential_steps(state, Q, blocks))

    entry = bcm.Scheme(cyclic_run, weighted=False, rate=bcm.SAMPLING_SCHEMES["uniform"].rate)
    monkeypatch.setitem(bcm.SAMPLING_SCHEMES, "cyclic", entry)
    rng = np.random.default_rng(80)
    Q = random_instance(rng, 2, 9, density=0.4)
    config = SolverConfig(rank=3, sampling="cyclic", seed=4, grad_tol=1e-30, max_iters=100,
                          check_period=7, refresh_period=101)
    report = solve(Q, config)
    assert report.termination == "max_iters"
    state = init_state(Q, config)
    assert state.weights is None
    steps = []
    for k in range(config.max_iters):  # the hand loop
        steps.append((k, state.point.cost, k % Q.n, *bcm_step(state, Q, k % Q.n)))
    assert [(r.k, r.cost, r.block, r.pred_descent, r.meas_descent)
            for r in report.records] == steps
    assert report.point.blocks.tobytes() == state.point.blocks.tobytes()
    assert report.final_cost == state.point.cost
