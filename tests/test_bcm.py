import hashlib
import math

import numpy as np
import pytest
from conftest import dense_cost, neighbors, random_instance, random_point, triangle

from blocksdp import (BlockSparseSym, FactorPoint, NumericalError, SolverConfig,
                      bcm_step, init_state, sample_block, solve)
from blocksdp.bcm import max_available_descent
from blocksdp.problems import generate_maxcut, generate_rotsync, maxcut_to_Q, sync_to_Q
from blocksdp.stiefel import random_stiefel


def make_state(Q, rank, seed, sampling="uniform"):
    return init_state(Q, SolverConfig(rank=rank, sampling=sampling, seed=seed))


def test_uniform_sampling_frequencies_and_replay():
    Q = triangle()
    cfg = SolverConfig(rank=2, sampling="uniform", seed=123)
    state = init_state(Q, cfg)
    draws = [sample_block(state, cfg) for _ in range(30000)]
    counts = np.bincount(draws, minlength=3) / len(draws)
    assert np.abs(counts - 1.0 / 3.0).max() <= 0.02
    state2 = init_state(Q, cfg)
    draws2 = [sample_block(state2, cfg) for _ in range(30000)]
    assert draws == draws2


def test_importance_sampling_distributions():
    Q = triangle()
    cfg = SolverConfig(rank=2, sampling="importance", seed=7)
    state = init_state(Q, cfg)

    state.nuclear_cache = np.array([0.0, 5.0, 0.0])
    assert all(sample_block(state, cfg) == 1 for _ in range(100))

    state.nuclear_cache = np.array([1.0, 1.0, 2.0])
    draws = [sample_block(state, cfg) for _ in range(30000)]
    counts = np.bincount(draws, minlength=3) / len(draws)
    assert np.abs(counts - np.array([0.25, 0.25, 0.5])).max() <= 0.02


def test_importance_all_zero_signals_convergence():
    Q = BlockSparseSym(1, 3, {})
    cfg = SolverConfig(rank=2, sampling="importance", seed=0)
    state = init_state(Q, cfg)
    assert sample_block(state, cfg) is None
    report = solve(Q, cfg)
    assert report.termination == "tolerance"
    assert report.iterations == 0
    assert report.final_grad_norm_sq == 0.0


def test_step_hand_example():
    Q = BlockSparseSym(1, 2, {(0, 1): np.array([[1.0]])})
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    cfg = SolverConfig(rank=2, seed=0)
    state = init_state(Q, cfg, warm_start=FactorPoint.from_blocks([e1, e2], Q))
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
            i = sample_block(state, cfg)
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
        bcm_step(state, Q, sample_block(state, cfg))
    assert state.point.gcache_residual(Q) <= 1e-8


def test_untouched_neighbors_bitwise_unchanged():
    rng = np.random.default_rng(12)
    Q = random_instance(rng, 2, 8, density=0.3)
    cfg = SolverConfig(rank=3, seed=4)
    state = init_state(Q, cfg)
    for _ in range(200):
        i = sample_block(state, cfg)
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
    report = solve(Q, SolverConfig(rank=2, grad_tol=1e-10, seed=0), warm_start=warm)
    assert report.f0 == pytest.approx(warm.cost)
    with pytest.raises(ValueError, match="warm start"):
        solve(Q, SolverConfig(rank=3, seed=0), warm_start=warm)


def test_return_best_keeps_best_gradient_iterate():
    rng = np.random.default_rng(15)
    Q = random_instance(rng, 1, 6)
    cfg = SolverConfig(rank=3, grad_tol=1e-12, seed=9, check_period=1,
                       return_best=True)
    report = solve(Q, cfg)
    assert report.best_grad_norm_sq <= report.final_grad_norm_sq + 1e-15
    assert report.best_k <= report.iterations


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
    with pytest.raises(ValueError):
        SolverConfig(rank=2, grad_tol=0.0).validate(Q)
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
    state.nuclear_cache = np.asarray(weights, dtype=float)
    state.rng = np.random.default_rng(seed)
    return state, cfg


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
        state, cfg = importance_state(n, weights, seed)
        ref = np.random.default_rng(seed)
        for _ in range(3000):
            k = sample_block(state, cfg)
            assert k == cumsum_draw(weights, ref)
            assert weights[k] > 0.0
    state, cfg = importance_state(n, np.zeros(n), 0)
    assert sample_block(state, cfg) is None


class TopDraw:
    """Generator stub whose uniform draw is the largest double below 1."""

    def random(self):
        return 1.0 - 2.0 ** -53


def test_importance_draw_at_the_chunk_edge_skips_zero_weights():
    # The chunk sum (pairwise) exceeds the chunk's last prefix sum
    # (sequential): a draw just below the chunk sum passes every prefix sum,
    # and must land on the chunk's last positive weight, not a zero after it.
    n = 400
    weights = np.zeros(n)
    weights[:math.isqrt(n) - 1] = 1e-16
    weights[0] = 1.0
    state, cfg = importance_state(n, weights, 0)
    state.rng = TopDraw()
    assert sample_block(state, cfg) == 0


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
# iterations, repr(final_cost)).
REPLAY = {
    ("maxcut", "uniform"): ("2ac012ca24a2a0c4", 2460, "-118.2259122651146"),
    ("maxcut", "importance"): ("c1d348633193647f", 2220, "-118.22591226345249"),
    ("rotsync", "uniform"): ("b2c33e2cae5e2131", 725, "-238.17600271992612"),
    ("rotsync", "importance"): ("4c9895ef7fa70190", 850, "-238.1760027187031"),
}


@pytest.mark.parametrize("problem,sampling", sorted(REPLAY))
def test_replay_matches_recorded_trajectory(problem, sampling):
    if problem == "maxcut":
        Q, rank, tol = maxcut_to_Q(generate_maxcut(30, 0.3, seed=7)), 3, 1e-6
    else:
        Q, rank, tol = sync_to_Q(generate_rotsync(25, 3, 0.3, 0.2, seed=7)), 5, 1e-8
    report = solve(Q, SolverConfig(rank=rank, sampling=sampling, grad_tol=tol, seed=3))
    blocks = np.array([rec.block for rec in report.records], dtype=np.int64)
    digest = hashlib.sha256(blocks.tobytes()).hexdigest()[:16]
    assert report.termination == "tolerance"
    assert (digest, report.iterations, repr(report.final_cost)) == REPLAY[problem, sampling]
