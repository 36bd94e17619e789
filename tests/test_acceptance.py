"""Acceptance suite: one test per criterion, each printing a PASS line.

Independent oracles used here: dense-matrix cost recomputation for the
descent identity, the projection-based gradient for the fast formula,
central finite differences for the ambient gradient, exhaustive sign-vector
enumeration and random-lift sampling for the d=1 SDP values.
"""

import itertools

import numpy as np
import pytest
from conftest import (align_blocks, dense_cost, gcache_residual, neighbors, random_instance,
                      random_point, triangle)
from lemma_oracles import lemma_oracles

from blocksdp import (BlockSparseSym, SolverConfig, certify_global, generate_maxcut,
                      generate_rotsync, grad_norm_sq_fast, ground_truth_blocks, iteration_bound,
                      riemannian_grad_oracle, solve, sync_to_Q)
from blocksdp.bcm import bcm_step, init_state, sample_block


def grid_instance(rng):
    d = int(rng.integers(1, 4))
    r = int(rng.integers(d, 7))
    n = int(rng.integers(2, 11))
    return d, r, n, random_instance(rng, d, n, density=float(rng.uniform(0.3, 1.0)))


def test_c01_descent_identity_100k_steps():
    # Each exact block update changes the cost by -2 (||G||_* + <G, Y_k>),
    # never upward; the left side is recomputed from the dense matrix, never
    # from the recurrence.
    rng = np.random.default_rng(101)
    steps = 0
    worst = 0.0
    while steps < 100_000:
        d, r, n, Q = grid_instance(rng)
        cfg = SolverConfig(rank=r, seed=int(rng.integers(2 ** 32)))
        state = init_state(Q, cfg)
        Qd = Q.to_dense()
        f_old = dense_cost(Qd, state.point.blocks)
        for _ in range(500):
            pred, _ = bcm_step(state, Q, sample_block(state))
            f_new = dense_cost(Qd, state.point.blocks)
            slack = 1e-9 * (1.0 + abs(f_old))
            assert abs((f_new - f_old) - pred) <= slack
            assert f_new - f_old <= slack
            worst = max(worst, abs((f_new - f_old) - pred) / slack * 1e-9)
            f_old = f_new
            steps += 1
    print(f"ACCEPTANCE 1 PASS: descent identity over {steps} steps, "
          f"worst residual {worst:.2e} (tol 1e-9)")


def test_c02_gradient_identity_10k_points():
    rng = np.random.default_rng(102)
    checked = 0
    worst = 0.0
    while checked < 10_000:
        d = int(rng.integers(1, 4))
        r = int(rng.integers(d, 7))
        n = int(rng.integers(2, 9))
        Q = random_instance(rng, d, n, density=float(rng.uniform(0.3, 1.0)))
        cfg = SolverConfig(rank=r, seed=int(rng.integers(2 ** 32)))
        state = init_state(Q, cfg)
        for k in range(100):
            # the fresh random point first, then solver-visited points
            if k > 0:
                bcm_step(state, Q, sample_block(state))
            fast = grad_norm_sq_fast(state.point)
            oracle = riemannian_grad_oracle(state.point, Q)
            ref = float(np.sum(oracle * oracle))
            rel = abs(fast - ref) / (1.0 + ref)
            assert rel <= 1e-9
            worst = max(worst, rel)
            checked += 1
    print(f"ACCEPTANCE 2 PASS: gradient identity on {checked} points, "
          f"worst relative error {worst:.2e} (tol 1e-9)")


def test_c03_finite_difference_gradient():
    rng = np.random.default_rng(103)
    h = 1e-5
    total = 0
    worst = 0.0
    for _ in range(10):
        d, r, n, Q = grid_instance(rng)
        Qd = Q.to_dense()
        cfg = SolverConfig(rank=r, seed=int(rng.integers(2 ** 32)))
        Y = init_state(Q, cfg).point.stacked()
        grad = 2.0 * Y @ Qd
        for _ in range(100):
            D = rng.standard_normal(Y.shape)
            fp = float(np.sum(Qd * ((Y + h * D).T @ (Y + h * D))))
            fm = float(np.sum(Qd * ((Y - h * D).T @ (Y - h * D))))
            fd = (fp - fm) / (2.0 * h)
            analytic = float(np.vdot(grad, D))
            rel = abs(fd - analytic) / (1.0 + abs(analytic))
            assert rel <= 1e-5
            worst = max(worst, rel)
            total += 1
    print(f"ACCEPTANCE 3 PASS: ambient gradient vs central differences, "
          f"{total} directions, worst relative error {worst:.2e} (tol 1e-5)")


def test_c04_lemma_oracles_10k_trials():
    summary = lemma_oracles(seed=104, trials=10_000)
    assert all(v == 10_000 for v in summary.checks.values())
    print(f"ACCEPTANCE 4 PASS: {summary.total_checks} spectral-inequality "
          f"checks over {summary.trials} trials, zero violations")


def test_c05_analytic_optima():
    # triangle at rank 2: SDP optimum -3 with a PSD certificate
    tri = triangle()
    report = solve(tri, SolverConfig(rank=2, grad_tol=1e-18, seed=5))
    assert report.final_cost == pytest.approx(-3.0, abs=1e-6)
    cert = certify_global(report.point, tri)
    assert cert.verdict == "certified-global"
    assert cert.lambda_min >= -1e-8

    # two vertices: antipodal optimum -2
    two = BlockSparseSym(1, 2, {(0, 1): np.array([[1.0]])})
    report2 = solve(two, SolverConfig(rank=2, grad_tol=1e-14, seed=3))
    assert report2.final_cost == pytest.approx(-2.0, abs=1e-8)

    # noiseless rotation synchronization at r = d: exact recovery
    results = []
    for n, d, inst_seed, solver_seed in [(8, 2, 1, 0), (6, 3, 2, 0), (10, 3, 5, 1)]:
        inst = generate_rotsync(n, d, 0.6, 0.0, seed=inst_seed)
        Q = sync_to_Q(inst)
        rep = solve(Q, SolverConfig(rank=d, grad_tol=1e-15, seed=solver_seed))
        target = -d * inst.num_edges
        assert rep.final_cost == pytest.approx(target, abs=1e-6)
        _, err = align_blocks(rep.point.blocks, ground_truth_blocks(inst))
        assert err <= 1e-6
        results.append((n, d, target, err))
    print("ACCEPTANCE 5 PASS: triangle -3 (lambda_min "
          f"{cert.lambda_min:.2e}), two-vertex -2, rotation sync "
          + ", ".join(f"n={n} d={d} cost={t} align={e:.1e}" for n, d, t, e in results))


def test_c06_rate_bound_consistency():
    # first k with measured grad^2 <= eps stays within the scheme's bound,
    # run by run, with F* taken from the dual certificate bound
    eps = 1e-4
    instances = []
    tri = triangle()
    instances.append(("triangle", tri, 2))
    Q10 = generate_maxcut(10, 0.5, seed=11, weighted=True)
    instances.append(("random-10", Q10, 4))
    checked = 0
    margins = []
    for name, Q, rank in instances:
        polish = solve(Q, SolverConfig(rank=Q.d * Q.n, grad_tol=1e-18, seed=0,
                                       log_every=10 ** 9))
        fstar = certify_global(polish.point, Q).lower_bound
        for scheme in ("uniform", "importance"):
            for seed in range(50):
                cfg = SolverConfig(rank=rank, sampling=scheme, grad_tol=eps,
                                   check_period=1, seed=seed, log_every=10 ** 9)
                rep = solve(Q, cfg)
                assert rep.termination == "tolerance", (name, scheme, seed)
                bound = iteration_bound(Q, scheme, rep.f0, fstar, eps)
                assert rep.iterations <= bound, (name, scheme, seed,
                                                 rep.iterations, bound)
                margins.append(rep.iterations / max(bound, 1))
                checked += 1
    print(f"ACCEPTANCE 6 PASS: {checked} runs within their iteration bounds, "
          f"worst k/K ratio {max(margins):.4f}")


def test_c07_cache_integrity_10k_steps():
    rng = np.random.default_rng(107)
    Q = random_instance(rng, 2, 8, density=0.5)
    cfg = SolverConfig(rank=4, sampling="importance", seed=17)
    state = init_state(Q, cfg)
    for _ in range(10_000):
        i = sample_block(state)
        untouched = {j: state.point.gcache[j].tobytes()
                     for j in range(Q.n) if j != i and j not in neighbors(Q, i)}
        bcm_step(state, Q, i)
        for j, raw in untouched.items():
            assert state.point.gcache[j].tobytes() == raw
    drift = gcache_residual(state.point, Q)
    assert drift <= 1e-8
    from blocksdp import nuclear_norm
    nuc_drift = max(abs(state.weights[i] - nuclear_norm(g))
                    for i, g in enumerate(state.point.gcache))
    assert nuc_drift <= 1e-8
    print(f"ACCEPTANCE 7 PASS: 10000 steps without refresh, max coupling "
          f"drift {drift:.2e} (tol 1e-8), untouched blocks bitwise stable")


def test_c08_sampling_distributions():
    Q = triangle()
    cfg_u = SolverConfig(rank=2, sampling="uniform", seed=108)
    state = init_state(Q, cfg_u)
    draws = np.bincount([sample_block(state) for _ in range(30_000)],
                        minlength=3) / 30_000
    assert np.abs(draws - 1.0 / 3.0).max() <= 0.02

    cfg_i = SolverConfig(rank=2, sampling="importance", seed=109)
    state = init_state(Q, cfg_i)
    state.weights = np.array([1.0, 1.0, 2.0])
    freq = np.bincount([sample_block(state) for _ in range(30_000)],
                       minlength=3) / 30_000
    assert np.abs(freq - np.array([0.25, 0.25, 0.5])).max() <= 0.02
    print(f"ACCEPTANCE 8 PASS: uniform freq {np.round(draws, 4).tolist()}, "
          f"importance freq {np.round(freq, 4).tolist()} (tol 0.02)")


def test_c09_small_instance_sdp_oracle():
    rng = np.random.default_rng(109)
    point_rng = np.random.default_rng(209)
    lines = []
    for n, seed in [(4, 1), (5, 2), (6, 3)]:
        Q = generate_maxcut(n, 0.8, seed=seed, weighted=True)
        Qd = Q.to_dense()
        r = n
        report = solve(Q, SolverConfig(rank=r, grad_tol=1e-18, seed=1,
                                       stall_rtol=1e-16))
        cert = certify_global(report.point, Q)
        assert cert.verdict == "certified-global", (n, cert)
        value = report.final_cost

        # oracle 1: exhaustive sign vectors
        brute = min(float(x @ Qd @ x) for x in
                    (np.array(s) for s in itertools.product((-1.0, 1.0), repeat=n)))
        assert value <= brute + 1e-9

        # oracle 2: a million random feasible rank-<=r lifts
        best_lift = np.inf
        for _ in range(10):
            Y = rng.standard_normal((100_000, r, n))
            Y /= np.linalg.norm(Y, axis=1, keepdims=True)
            costs = np.einsum("bri,ij,brj->b", Y, Qd, Y, optimize=True)
            best_lift = min(best_lift, float(costs.min()))
        assert value <= best_lift + 1e-9

        # oracle 3: 50 random restarts at full rank agree with the certificate
        # (grad_tol 1e-9 puts each restart's cost far inside the 1e-6 match)
        restart_best = min(
            solve(Q, SolverConfig(rank=r, grad_tol=1e-9, seed=s,
                                  log_every=10 ** 9)).final_cost
            for s in range(50))
        assert abs(value - restart_best) <= 1e-6

        # oracle 4: the certificate's lower bound, which bench takes F* from,
        # holds at feasible points that are not stationary
        top_bound = -np.inf
        for _ in range(20):
            cert = certify_global(random_point(point_rng, Q, r), Q)
            assert cert.verdict == "not-stationary", (n, cert)
            assert cert.lower_bound <= value and cert.lower_bound <= brute, (n, cert)
            top_bound = max(top_bound, cert.lower_bound)
        lines.append(f"n={n}: cert {value:.6f} <= lifts {best_lift:.6f}, "
                     f"brute {brute:.6f}, restarts {restart_best:.6f}; "
                     f"random-point bounds <= {top_bound:.6f}")
    print("ACCEPTANCE 9 PASS: " + "; ".join(lines))


def test_c10_determinism():
    Q = generate_maxcut(8, 0.6, seed=10, weighted=True)
    cfg = SolverConfig(rank=3, sampling="importance", grad_tol=1e-10, seed=77)
    a = solve(Q, cfg)
    b = solve(Q, cfg)
    assert [r.block for r in a.records] == [r.block for r in b.records]
    assert [r.cost for r in a.records] == [r.cost for r in b.records]
    assert (a.iterations, a.final_cost, a.final_grad_norm_sq) == \
           (b.iterations, b.final_cost, b.final_grad_norm_sq)
    print(f"ACCEPTANCE 10 PASS: identical index/cost traces over "
          f"{a.iterations} iterations across reruns")
