import math

import numpy as np
import pytest
from conftest import pairs, random_instance, random_point, random_stiefel, triangle
from lemma_oracles import lemma_oracles
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence

from blocksdp import analysis
from blocksdp import (BlockSparseSym, FactorPoint, SolverConfig, build_certificate_matrix,
                      certify_global, compute_gcache, evaluate_cost, generate_maxcut,
                      generate_rotsync, grad_norm_sq_fast, iteration_bound, nuclear_norm,
                      riemannian_grad_oracle, sdp_lift_check, solve, sym_coupling,
                      sync_to_Q)
from blocksdp.bcm import bcm_step, check_bound_args, init_state, sample_block


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
        for i, j, B in pairs(Q):
            cost += 2.0 * float(np.sum((point.blocks[j].T @ point.blocks[i]) * B.T))
            gcache[j] += point.blocks[i] @ B
            gcache[i] += point.blocks[j] @ B.T
        assert evaluate_cost(point.blocks, Q) == cost
        if d == 1:
            np.testing.assert_array_equal(compute_gcache(point.blocks, Q), gcache)
        np.testing.assert_allclose(compute_gcache(point.blocks, Q), gcache, rtol=0, atol=1e-13)


def test_iteration_bound_values():
    tri = triangle()  # d = 1, n = 3, C1 = 2, C2 = 6
    assert iteration_bound(tri, "uniform", 6.0, -3.0, 0.01) == 10800
    assert iteration_bound(tri, "importance", 6.0, -3.0, 0.01) == 10800

    Q = random_instance(np.random.default_rng(1), 2, 4, density=0.8)
    assert iteration_bound(Q, "uniform", 1.5, 1.5, 0.1) == 0
    assert iteration_bound(Q, "importance", 1.5, 1.5, 0.1) == 0

    assert iteration_bound(tri, "uniform", 6.0, -3.0, 0.005) == 2 * 10800


def test_star_graph_importance_bound_smaller():
    # star on 4 vertices, unit weights: C1 = 3 (the hub column), C2 = 6
    one = np.array([[1.0]])
    Q = BlockSparseSym(1, 4, {(0, 1): one, (0, 2): one, (0, 3): one})
    assert Q.c1() == pytest.approx(3.0)
    assert Q.c2() == pytest.approx(6.0)
    assert iteration_bound(Q, "uniform", 1.0, 0.0, 1.0) == 24
    assert iteration_bound(Q, "importance", 1.0, 0.0, 1.0) == 12


@pytest.mark.parametrize("seed", [1, 2])
def test_iteration_bound_d3_matches_the_formula(seed):
    # C1 and C2 from the singular values of a rotation-sync instance's blocks:
    # K = ceil(2 d n C1 gap / eps) uniform, ceil(2 d C2 gap / eps) importance.
    Q = sync_to_Q(generate_rotsync(8, 3, 0.6, 0.3, seed))
    nuc = {}
    for i, j, B in pairs(Q):
        s = np.linalg.svd(B, compute_uv=False).sum()
        nuc[i], nuc[j] = nuc.get(i, 0.0) + s, nuc.get(j, 0.0) + s
    c1, c2 = max(nuc.values()), sum(nuc.values())
    assert Q.c1() == pytest.approx(c1, rel=1e-12) and Q.c2() == pytest.approx(c2, rel=1e-12)
    f0, fstar, eps = 3.5, -c2, 1e-3
    gap = f0 - fstar
    # Constants a few ulps apart may move K by one.
    assert abs(iteration_bound(Q, "uniform", f0, fstar, eps)
               - math.ceil(2 * 3 * 8 * c1 * gap / eps)) <= 1
    assert abs(iteration_bound(Q, "importance", f0, fstar, eps)
               - math.ceil(2 * 3 * c2 * gap / eps)) <= 1


def test_bound_validation():
    tri = triangle()
    for sampling in ("uniform", "importance"):
        for eps in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="eps must be positive"):
                iteration_bound(tri, sampling, 0.0, 0.0, eps)
        for fstar in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="fstar must be a number below inf"):
                iteration_bound(tri, sampling, 0.0, fstar, 1.0)
            with pytest.raises(ValueError, match="fstar must be a number below inf"):
                check_bound_args(fstar, 1.0)
        # -inf bounds nothing: refused up front; iteration_bound refuses its infinite K.
        with pytest.raises(ValueError, match="fstar must be finite to bound the iterations"):
            check_bound_args(float("-inf"), 1.0)
        with pytest.raises(ValueError, match="set an explicit cap"):
            iteration_bound(tri, sampling, 0.0, float("-inf"), 1.0)
        # f0 below fstar counts as fstar: no gap, no iterations.
        assert iteration_bound(tri, sampling, -1.0, 0.0, 1.0) == 0


@pytest.mark.parametrize("inputs", [
    {"blocks": {(0, 1): 1e308, (0, 2): 1e308}, "f0": 2e308, "eps": 1e-4},  # F0 - F* and C overflow
    {"blocks": {(0, 1): 1.0}, "f0": 1.0, "eps": 1e-320},                    # subnormal target
])
def test_overflowing_iteration_bound_is_a_value_error(inputs):
    Q = BlockSparseSym(1, 3, {k: np.array([[w]]) for k, w in inputs["blocks"].items()})
    for sampling in ("uniform", "importance"):
        with pytest.raises(ValueError, match="--max-iters"):
            iteration_bound(Q, sampling, inputs["f0"], -Q.c2(), inputs["eps"])


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


def test_certificate_zero_instance(monkeypatch):
    Q = BlockSparseSym(2, 3, {})
    point = random_point(np.random.default_rng(4), Q, 2)
    cert = certify_global(point, Q)
    assert cert.verdict == "certified-global"
    assert cert.lambda_min == pytest.approx(0.0, abs=1e-14)
    # S = 0 has Gershgorin bound 0: the eigsh branch knows lambda_min = 0
    # without a shift to divide its tolerance by.
    monkeypatch.setattr(analysis, "DENSE_EIG_CUTOFF", 0)
    assert analysis._smallest_eigenvalue(build_certificate_matrix(point, Q), 1e-9) == (0.0, 0.0, True)
    assert certify_global(point, Q).verdict == "certified-global"


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


def test_not_stationary_exactly_above_cert_tol():
    # cert_tol bounds the squared gradient norm itself, the quantity that
    # solve's grad_tol bounds, with no further scale.
    rng = np.random.default_rng(11)
    Q = random_instance(rng, 2, 5)
    point = random_point(rng, Q, 3)
    gsq = certify_global(point, Q).grad_norm_sq
    assert certify_global(point, Q, cert_tol=gsq * (1.0 - 1e-9)).verdict == "not-stationary"
    assert certify_global(point, Q, cert_tol=gsq * (1.0 + 1e-9)).verdict != "not-stationary"


@pytest.mark.parametrize("n, edge_prob, graph_seed, solver_seed", [
    (5, 0.8, 2, 1), (6, 0.8, 3, 1), (10, 0.5, 11, 0)])
def test_full_rank_stall_exit_is_certified(n, edge_prob, graph_seed, solver_seed):
    # grad_tol 1e-18 lies below the gradient formula's roundoff floor, so each
    # run ends in the stall guard at the default stall_rtol, with a squared
    # gradient norm of 1e-13 to 1e-12: inside the default cert_tol.
    Q = generate_maxcut(n, edge_prob, seed=graph_seed, weighted=True)
    report = solve(Q, SolverConfig(rank=Q.d * Q.n, grad_tol=1e-18, seed=solver_seed))
    cert = certify_global(report.point, Q)
    assert report.termination == "stalled"
    assert cert.verdict == "certified-global"
    assert report.final_cost - cert.lower_bound <= Q.d * Q.n * cert.cert_tol


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


def dense_branch_cases():
    """(name, Q, point) parameters: random points for d = 1, 2, 3, the
    rank-one saddle of the triangle (lambda_min = -3, a double eigenvalue)
    and a d = 2 instance whose vertex 4 is isolated, so that block row 4 of
    S is empty."""
    rng = np.random.default_rng(14)
    cases = []
    for d in (1, 2, 3):
        Q = random_instance(rng, d, 7)
        cases.append((f"random-d{d}", Q, random_point(rng, Q, d + 1)))
    tri = triangle()
    cases.append(("triangle", tri, FactorPoint.from_blocks([np.array([[1.0]])] * 3, tri)))
    Q = BlockSparseSym(2, 5, {(i, j): rng.standard_normal((2, 2))
                              for i, j in ((0, 1), (0, 3), (1, 2), (2, 3))})
    cases.append(("isolated-vertex", Q, random_point(rng, Q, 3)))
    return [pytest.param(*case, id=case[0]) for case in cases]


@pytest.mark.parametrize("name, Q, point", dense_branch_cases())
def test_dense_branch_matches_the_full_spectrum(name, Q, point):
    # The dense branch scatters S into exactly S.toarray() and finds the
    # smallest eigenvalue of the full spectrum.
    S = build_certificate_matrix(point, Q)
    assert S.shape[0] <= analysis.DENSE_EIG_CUTOFF
    reference = S.toarray()
    assert analysis._dense(S).tobytes() == reference.tobytes()
    lam, lam_residual, converged = analysis._smallest_eigenvalue(S, 1e-9)
    assert converged
    assert lam_residual == 0.0
    full = np.linalg.eigvalsh(reference)
    assert abs(lam - full[0]) <= 1e-12 * (1.0 + np.linalg.norm(reference))
    if name == "triangle":
        np.testing.assert_allclose(full[:2], [-3.0, -3.0], atol=1e-12)
    if name == "isolated-vertex":
        assert np.diff(S.indptr)[4] == 0


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
        # eigsh stops at the absolute accuracy EIG_TOL_FRACTION * cert_tol:
        # its value lies within its residual of the dense one, and value -
        # residual never above it (up to rounding in the dense solve).
        assert dense.lambda_residual == 0.0
        assert 0.0 <= iterative.lambda_residual <= analysis.EIG_TOL_FRACTION * iterative.cert_tol
        rounding = 1e-12 * (1.0 + abs(dense.lambda_min))
        assert abs(iterative.lambda_min - dense.lambda_min) <= iterative.lambda_residual + rounding
        assert iterative.lambda_min - iterative.lambda_residual <= dense.lambda_min + rounding
        cost = evaluate_cost(point.blocks, Q)
        for cert in (dense, iterative):
            low = cert.lambda_min - cert.lambda_residual
            # tighter than dn * r, so that the residual term is seen
            assert (abs(cert.lower_bound - (cost + Q.d * Q.n * min(low, 0.0)))
                    <= 1e-12 * (1.0 + abs(cost)))
        assert iterative.verdict == dense.verdict
        assert iterative.note is None
        verdicts.append(dense.verdict)
    assert verdicts == ["not-stationary", "first-order-only", "certified-global"]


@pytest.mark.parametrize("partial", [True, False])
def test_eigsh_no_convergence_downgrades(monkeypatch, partial):
    # eigsh raising ArpackNoConvergence at the rank-6 optimum of
    # test_certificate_eigsh_branch_matches_dense, which certifies otherwise.
    rng = np.random.default_rng(10)
    Q = random_instance(rng, 2, 30, density=0.2)
    point = solve(Q, SolverConfig(rank=6, grad_tol=1e-11, seed=3)).point
    monkeypatch.setattr(analysis, "DENSE_EIG_CUTOFF", 0)
    assert certify_global(point, Q).verdict == "certified-global"
    S = build_certificate_matrix(point, Q).toarray()
    g = np.abs(S).sum(axis=1).max()
    lam, vecs = np.linalg.eigh(S)
    x = rng.standard_normal(S.shape[0])

    def no_convergence(A, k, which, v0, tol):
        # eigsh sees S + g I, to tol eps / (2 g) with eps = 0.1 cert_tol
        np.testing.assert_allclose(A @ x, S @ x + g * x, rtol=1e-14, atol=1e-12)
        assert tol == pytest.approx(analysis.EIG_TOL_FRACTION * 1e-8 * (1 + Q.frobenius_norm())
                                    / (2 * g), rel=1e-12)
        if partial:
            raise ArpackNoConvergence("no convergence", lam[:1] + g, vecs[:, :1])
        raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((S.shape[0], 0)))

    monkeypatch.setattr(analysis, "eigsh", no_convergence)
    cert = certify_global(point, Q)
    assert cert.verdict == "first-order-only"
    assert cert.note == "eigenvalue solver did not converge; certificate downgraded"
    if partial:
        # the partial value, un-shifted, with its Ritz vector's residual
        assert cert.lambda_min == pytest.approx(lam[0], abs=1e-13)
        assert 0.0 <= cert.lambda_residual <= 1e-12
        low = cert.lambda_min - cert.lambda_residual
        cost = evaluate_cost(point.blocks, Q)
        assert cert.lower_bound == pytest.approx(cost + Q.d * Q.n * min(low, 0.0), abs=1e-9)
    else:
        assert np.isnan(cert.lambda_min) and np.isnan(cert.lambda_residual)
        assert cert.lower_bound == -Q.c2()


def test_ritz_residual_enters_the_verdict(monkeypatch):
    # A converged Ritz value of -0.6 cert_tol whose vector is the true
    # eigenvector for lambda_min ~ 0 has residual ~0.6 cert_tol: lambda alone
    # would certify, lambda - r < -cert_tol does not.
    rng = np.random.default_rng(10)
    Q = random_instance(rng, 2, 30, density=0.2)
    point = solve(Q, SolverConfig(rank=6, grad_tol=1e-11, seed=3)).point
    monkeypatch.setattr(analysis, "DENSE_EIG_CUTOFF", 0)
    S = build_certificate_matrix(point, Q).toarray()
    g = np.abs(S).sum(axis=1).max()
    lam, vecs = np.linalg.eigh(S)
    cert_tol = 1e-8 * (1 + Q.frobenius_norm())
    monkeypatch.setattr(analysis, "eigsh",
                        lambda A, **kw: (np.array([g - 0.6 * cert_tol]), vecs[:, :1]))
    cert = certify_global(point, Q)
    assert cert.lambda_min == pytest.approx(-0.6 * cert_tol, rel=1e-6)
    assert cert.lambda_residual == pytest.approx(0.6 * cert_tol + lam[0], rel=1e-6)
    assert cert.verdict == "first-order-only" and cert.note is None


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
    # A NaN block (only an unchecked point can carry one) makes S non-finite:
    # the dense and the eigsh branch report no eigenvalue instead of raising.
    blocks = point.blocks.copy()
    blocks[2, 0, 0] = np.nan
    nan_point = FactorPoint.from_blocks(blocks, Q, require_feasible=False)
    assert Q.n * Q.d <= analysis.DENSE_EIG_CUTOFF
    certs = []
    for cutoff in (analysis.DENSE_EIG_CUTOFF, 0):
        monkeypatch.setattr(analysis, "DENSE_EIG_CUTOFF", cutoff)
        assert analysis._smallest_eigenvalue(build_certificate_matrix(nan_point, Q), 1e-9)[2] is False
        certs.append(certify_global(nan_point, Q))
    monkeypatch.setattr(analysis, "_smallest_eigenvalue",
                        lambda S, eps: (float("nan"), float("nan"), False))
    certs.append(certify_global(point, Q))
    for cert in certs:
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
            i = sample_block(state)
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
            bcm_step(state, Q, sample_block(state))
            assert all(nuclear_norm(G) <= cap for G in state.point.gcache)
