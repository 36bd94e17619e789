import numpy as np
import pytest
from conftest import random_instance, random_point, triangle
from lemma_oracles import lemma_oracles
from scipy import sparse

from blocksdp import analysis
from blocksdp import (BlockSparseSym, BoundInputs, FactorPoint, SolverConfig,
                      build_certificate_matrix, certify_global, compute_gcache,
                      evaluate_cost, grad_norm_sq_fast,
                      iteration_bound_importance, iteration_bound_uniform,
                      nuclear_norm, random_stiefel, riemannian_grad_oracle,
                      sdp_lift_check, solve, sym_coupling)
from blocksdp.bcm import bcm_step, init_state, sample_block


def test_grad_norm_sq_examples():
    Q0 = BlockSparseSym(1, 2, {})
    point = random_point(np.random.default_rng(0), Q0, 2)
    assert grad_norm_sq_fast(point) == 0.0

    Q = BlockSparseSym(1, 2, {(0, 1): np.array([[1.0]])})
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    point = FactorPoint.from_blocks([e1, e2], Q)
    assert grad_norm_sq_fast(point) == pytest.approx(8.0)


def test_grad_norm_matches_oracle_across_grid():
    rng = np.random.default_rng(1)
    for d in (1, 2, 3):
        for r in range(d, 7):
            n = int(rng.integers(2, 9))
            Q = random_instance(rng, d, n)
            point = random_point(rng, Q, r)
            fast = grad_norm_sq_fast(point)
            oracle = riemannian_grad_oracle(point, Q)
            ref = float(np.sum(oracle * oracle))
            assert abs(fast - ref) <= 1e-9 * (1.0 + ref)


def test_d1_scalar_reduction():
    # with d=1, A_i = <y_i, g_i> and the identity reduces to
    # 4 sum (||g_i||^2 - <y_i, g_i>^2)
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, 7))
        Q = random_instance(rng, 1, n)
        point = random_point(rng, Q, r)
        scalar_path = 4.0 * sum(
            float(np.sum(g * g)) - float(np.vdot(y, g)) ** 2
            for y, g in zip(point.blocks, point.gcache))
        assert grad_norm_sq_fast(point) == pytest.approx(scalar_path, rel=1e-12, abs=1e-12)


def test_vectorized_sums_match_block_loops():
    # grad_norm_sq_fast and evaluate_cost keep the summation order of the
    # per-block loops they replaced (the stall guard works at their roundoff
    # floor), and for d = 1 the sparse product accumulates every G_i in the
    # same order as the per-pair loop.
    rng = np.random.default_rng(11)
    for d, n in ((1, 12), (2, 9), (3, 7)):
        Q = random_instance(rng, d, n, density=0.5)
        point = random_point(rng, Q, d + 2)
        total = 0.0
        for Y, G in zip(point.blocks, point.gcache):
            A = sym_coupling(Y, G)
            total += float(np.sum(G * G)) - float(np.sum(A * A))
        assert grad_norm_sq_fast(point) == max(4.0 * total, 0.0)
        cost = 0.0
        gcache = np.zeros_like(point.gcache)
        for i, j, B in Q.pairs():
            cost += 2.0 * float(np.sum((point.blocks[j].T @ point.blocks[i]) * B.T))
            gcache[j] += point.blocks[i] @ B
            gcache[i] += point.blocks[j] @ B.T
        assert evaluate_cost(point.blocks, Q) == cost
        if d == 1:
            np.testing.assert_array_equal(compute_gcache(point.blocks, Q), gcache)
        np.testing.assert_allclose(compute_gcache(point.blocks, Q), gcache, rtol=0, atol=1e-13)


def test_iteration_bound_values():
    b = BoundInputs(d=1, n=3, f0=6.0, fstar=-3.0, eps=0.01, c1=2.0, c2=6.0)
    assert iteration_bound_uniform(b) == 10800
    assert iteration_bound_importance(b) == 10800

    same = BoundInputs(d=2, n=4, f0=1.5, fstar=1.5, eps=0.1, c1=3.0, c2=5.0)
    assert iteration_bound_uniform(same) == 0
    assert iteration_bound_importance(same) == 0

    half = BoundInputs(d=1, n=3, f0=6.0, fstar=-3.0, eps=0.005, c1=2.0, c2=6.0)
    assert iteration_bound_uniform(half) == 2 * 10800


def test_star_graph_importance_bound_smaller():
    # star on 4 vertices, unit weights: C1 = 3 (the hub column), C2 = 6
    one = np.array([[1.0]])
    Q = BlockSparseSym(1, 4, {(0, 1): one, (0, 2): one, (0, 3): one})
    assert Q.c1() == pytest.approx(3.0)
    assert Q.c2() == pytest.approx(6.0)
    b = BoundInputs(d=1, n=4, f0=1.0, fstar=0.0, eps=1.0, c1=Q.c1(), c2=Q.c2())
    assert iteration_bound_uniform(b) == 24
    assert iteration_bound_importance(b) == 12


def test_bound_validation():
    with pytest.raises(ValueError):
        BoundInputs(d=1, n=2, f0=0.0, fstar=0.0, eps=0.0, c1=1.0)
    with pytest.raises(ValueError):
        BoundInputs(d=1, n=2, f0=-1.0, fstar=0.0, eps=1.0, c1=1.0)
    b = BoundInputs(d=1, n=2, f0=1.0, fstar=0.0, eps=1.0)
    with pytest.raises(ValueError):
        iteration_bound_uniform(b)
    with pytest.raises(ValueError):
        iteration_bound_importance(b)


@pytest.mark.parametrize("inputs", [
    {"f0": 2e308, "c1": 2e308, "c2": 2e308, "eps": 1e-4},  # F0 - F* and C overflow
    {"f0": 1.0, "c1": 1.0, "c2": 1.0, "eps": 1e-320},      # subnormal target
])
def test_overflowing_iteration_bound_is_a_value_error(inputs):
    b = BoundInputs(d=1, n=3, fstar=-inputs["c2"], **inputs)
    for bound in (iteration_bound_uniform, iteration_bound_importance):
        with pytest.raises(ValueError, match="--max-iters"):
            bound(b)


def test_sdp_lift_check_values():
    rng = np.random.default_rng(3)
    Q0 = BlockSparseSym(2, 3, {})
    point = random_point(rng, Q0, 3)
    obj, resid = sdp_lift_check(point, Q0)
    assert obj == 0.0
    assert resid <= 1e-10

    tri = triangle()
    report = solve(tri, SolverConfig(rank=2, grad_tol=1e-12, seed=1))
    obj, resid = sdp_lift_check(report.point, tri)
    assert obj == pytest.approx(-3.0, abs=1e-6)
    assert resid <= 1e-10

    corrupted = [b.copy() for b in report.point.blocks]
    corrupted[0][:, 0] *= 1.1
    bad = FactorPoint.from_blocks(corrupted, tri, require_feasible=False)
    _, resid = sdp_lift_check(bad, tri)
    assert resid == pytest.approx(0.21, abs=1e-12)


def test_certificate_zero_instance():
    Q = BlockSparseSym(2, 3, {})
    point = random_point(np.random.default_rng(4), Q, 2)
    cert = certify_global(point, Q)
    assert cert.verdict == "certified-global"
    assert cert.lambda_min == pytest.approx(0.0, abs=1e-14)


def test_certificate_triangle_optimum():
    tri = triangle()
    report = solve(tri, SolverConfig(rank=2, grad_tol=1e-20, seed=5))
    cert = certify_global(report.point, tri)
    assert cert.verdict == "certified-global"
    assert cert.lambda_min >= -1e-8


def test_certificate_rank_one_saddle():
    # all-ones at r=1: first-order critical but not optimal; S = Q + 2I has
    # spectrum {0, -3, -3} shifted, i.e. lambda_min(S) = -3
    tri = triangle()
    ones = [np.array([[1.0]])] * 3
    point = FactorPoint.from_blocks(ones, tri)
    cert = certify_global(point, tri)
    assert cert.grad_norm_sq <= 1e-14
    assert cert.verdict == "first-order-only"
    assert cert.lambda_min == pytest.approx(-3.0, abs=1e-12)
    S = build_certificate_matrix(point, tri).toarray()
    ref = tri.to_dense() - 2.0 * np.eye(3)
    np.testing.assert_allclose(S, ref, atol=1e-14)
    np.testing.assert_allclose(np.linalg.eigvalsh(S), [-3.0, -3.0, 0.0], atol=1e-12)


def test_certificate_random_point_not_stationary():
    # grad_norm_sq = 4 ||S Y^T||_F^2 equals the squared oracle gradient norm,
    # also off the manifold (every block scaled by 1.1, as in a corrupted file)
    rng = np.random.default_rng(6)
    cases = []
    for d in (2, 1, 3):
        Q = random_instance(rng, d, 5)
        point = random_point(rng, Q, d + 1)
        scaled = FactorPoint.from_blocks([1.1 * B for B in point.blocks], Q,
                                         require_feasible=False)
        cases += [(Q, point), (Q, scaled)]
    for Q, point in cases:
        cert = certify_global(point, Q)
        assert cert.verdict == "not-stationary"
        oracle = riemannian_grad_oracle(point, Q)
        ref = float(np.sum(oracle * oracle))
        assert abs(cert.grad_norm_sq - ref) <= 1e-12 * ref


def test_certificate_matrix_matches_dense_reference():
    rng = np.random.default_rng(7)
    Q = random_instance(rng, 2, 4)
    point = random_point(rng, Q, 3)
    S = build_certificate_matrix(point, Q).toarray()
    np.testing.assert_allclose(S, S.T, atol=1e-13)
    Qd = Q.to_dense()
    Y = point.stacked()
    YQ = Y @ Qd
    ref = Qd.copy()
    d = Q.d
    for i in range(Q.n):
        G = YQ[:, i * d:(i + 1) * d]
        A = sym_coupling(point.blocks[i], G)
        ref[i * d:(i + 1) * d, i * d:(i + 1) * d] -= A
    np.testing.assert_allclose(S, ref, atol=1e-12)


def test_certificate_matrix_stays_sparse():
    rng = np.random.default_rng(9)
    for d, n, density in ((1, 40, 0.1), (2, 30, 0.2), (3, 12, 0.5)):
        Q = random_instance(rng, d, n, density=density)
        S = build_certificate_matrix(random_point(rng, Q, d + 1), Q)
        assert sparse.issparse(S)
        assert S.nnz <= Q.mat.nnz + n * d * d


def test_certificate_eigsh_branch_matches_dense(monkeypatch):
    # A random d = 2, n = 30 instance at a random point (not-stationary), a
    # rank-3 saddle (first-order-only) and a rank-6 optimum (certified-global),
    # certified through both eigenvalue branches.
    rng = np.random.default_rng(10)
    Q = random_instance(rng, 2, 30, density=0.2)
    points = [random_point(rng, Q, 3)]
    points += [solve(Q, SolverConfig(rank=r, grad_tol=1e-11, seed=3)).point for r in (3, 6)]
    verdicts = []
    for point in points:
        dense = certify_global(point, Q)
        monkeypatch.setattr(analysis, "DENSE_EIG_CUTOFF", 0)
        iterative = certify_global(point, Q)
        monkeypatch.undo()
        assert abs(iterative.lambda_min - dense.lambda_min) <= 1e-8
        cost = evaluate_cost(point.blocks, Q)
        for cert in (dense, iterative):
            assert (abs(cert.lower_bound - (cost + Q.d * Q.n * min(cert.lambda_min, 0.0)))
                    <= 1e-9 * (1.0 + abs(cost)))
        assert iterative.verdict == dense.verdict
        assert iterative.note is None
        verdicts.append(dense.verdict)
    assert verdicts == ["not-stationary", "first-order-only", "certified-global"]


def test_eigsh_lambda_min_is_reproducible(monkeypatch):
    rng = np.random.default_rng(10)
    Q = random_instance(rng, 2, 30, density=0.2)
    point = random_point(rng, Q, 3)
    monkeypatch.setattr(analysis, "DENSE_EIG_CUTOFF", 0)
    first, second = certify_global(point, Q), certify_global(point, Q)
    assert first.lambda_min == second.lambda_min
    assert first.lower_bound == second.lower_bound


def test_dual_lower_bound_is_valid():
    rng = np.random.default_rng(8)
    tri = triangle()
    report = solve(tri, SolverConfig(rank=2, grad_tol=1e-18, seed=2))
    bound = certify_global(report.point, tri).lower_bound
    assert bound <= -3.0 + 1e-8
    assert bound >= -3.1  # far tighter than -C2 = -6
    assert -tri.c2() == pytest.approx(-6.0)
    # valid from a non-stationary point too: below every feasible cost
    point = random_point(rng, tri, 2)
    bound = certify_global(point, tri).lower_bound
    for _ in range(200):
        probe = random_point(rng, tri, 2)
        assert bound <= probe.cost + 1e-10


def test_lower_bound_is_cost_plus_eigenvalue_term():
    # -tr(S) is F(Y): the bound equals F(Y) + dn min(lambda_min, 0), on and
    # off the manifold, and lies below every probe cost of the instance
    rng = np.random.default_rng(12)
    for d in (1, 2, 3):
        for _ in range(5):
            Q = random_instance(rng, d, int(rng.integers(2, 9)))
            r = int(rng.integers(d, 6))
            point = random_point(rng, Q, r)
            scaled = FactorPoint.from_blocks(1.1 * point.blocks, Q, require_feasible=False)
            for p in (point, scaled):
                cert = certify_global(p, Q)
                cost = evaluate_cost(p.blocks, Q)
                expected = cost + Q.d * Q.n * min(cert.lambda_min, 0.0)
                assert abs(cert.lower_bound - expected) <= 1e-9 * (1.0 + abs(cost))
            bound = certify_global(point, Q).lower_bound
            for _ in range(20):
                assert bound <= random_point(rng, Q, r).cost + 1e-10


def test_lower_bound_falls_back_to_c2(monkeypatch):
    rng = np.random.default_rng(13)
    Q = random_instance(rng, 2, 6)
    point = random_point(rng, Q, 3)
    monkeypatch.setattr(analysis, "_smallest_eigenvalue", lambda S: (float("nan"), False))
    cert = certify_global(point, Q)
    assert cert.lower_bound == -Q.c2()
    assert np.isnan(cert.lambda_min)
    assert cert.verdict != "certified-global"


def test_lemma_oracles_clean_run_and_trivial_cases():
    summary = lemma_oracles(seed=0, trials=2000)
    assert summary.checks == {k: 2000 for k in summary.checks}

    # identity matrix: equality in the p=2 eigenvalue/singular-value bound
    lam = np.abs(np.linalg.eigvals(np.eye(4)))
    sig = np.linalg.svd(np.eye(4), compute_uv=False)
    assert np.sum(lam ** 2) == pytest.approx(np.sum(sig ** 2))

    # square orthonormal Y: sigma_i(Y^T G) = sigma_i(G)
    rng = np.random.default_rng(9)
    G = rng.standard_normal((3, 3))
    Y = random_stiefel(3, 3, rng)
    np.testing.assert_allclose(np.linalg.svd(Y.T @ G, compute_uv=False),
                               np.linalg.svd(G, compute_uv=False), rtol=1e-10)

    with pytest.raises(ValueError):
        lemma_oracles(seed=0, trials=0)


def test_per_step_descent_lower_bound():
    # F(Y_k) - F(Y_{k+1}) >= (||G||_F^2 - ||A||_F^2) / ||G||_* per step.
    # Coefficient 1 is the valid (and tight) constant: with x = <G, Y>,
    # descent = 2 (||G||_* + x) and ||G||_F^2 - ||A||_F^2 <= ||G||_*^2 - x^2
    # <= 2 ||G||_* (||G||_* + x); a factor-2 version fails for x < 0
    # (already at d=1: ||g|| = 1, x = -1/2 gives descent 1 < 3/2).
    rng = np.random.default_rng(10)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 8))
        Q = random_instance(rng, d, n)
        cfg = SolverConfig(rank=int(rng.integers(d, 7)), seed=int(rng.integers(2 ** 32)))
        state = init_state(Q, cfg)
        for _ in range(100):
            i = sample_block(state, cfg)
            G = state.point.gcache[i].copy()
            A = sym_coupling(state.point.blocks[i], G)
            nuc = nuclear_norm(G)
            pred, _ = bcm_step(state, Q, i)
            if nuc > 0:
                promised = (float(np.sum(G * G)) - float(np.sum(A * A))) / nuc
                assert -pred >= promised - 1e-9


def test_coupling_nuclear_norm_bounded_by_d_c1():
    rng = np.random.default_rng(11)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 8))
        Q = random_instance(rng, d, n)
        cfg = SolverConfig(rank=int(rng.integers(d, 7)), seed=int(rng.integers(2 ** 32)))
        state = init_state(Q, cfg)
        cap = d * Q.c1() + 1e-9
        for _ in range(50):
            bcm_step(state, Q, sample_block(state, cfg))
            assert all(nuclear_norm(G) <= cap for G in state.point.gcache)
