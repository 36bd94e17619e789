import re

import numpy as np
import pytest
from conftest import (StaleCacheError, cost_from_cache, dense_cost, gcache_residual,
                      random_instance, random_point, verified_grad_oracle)

from blocksdp import (BlockSparseSym, FactorPoint, ParseError, block_minimize,
                      compute_gcache, evaluate_cost, feasibility_residual,
                      is_orthonormal, nuclear_norm, project_stiefel, random_stiefel,
                      read_yfactor, riemannian_grad_oracle, write_yfactor)


def test_project_identity_and_scalar():
    np.testing.assert_array_equal(project_stiefel(np.eye(4, 2)), np.eye(4, 2))
    np.testing.assert_allclose(project_stiefel(np.array([[5.0]])), [[1.0]])
    np.testing.assert_allclose(project_stiefel(np.array([[3.0], [4.0]])),
                               [[0.6], [0.8]])


def test_project_idempotent():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        r = int(rng.integers(d, 7))
        Y = random_stiefel(r, d, rng)
        np.testing.assert_allclose(project_stiefel(Y), Y, atol=1e-12)


def test_project_rank_deficient_names_columns():
    M = np.zeros((4, 3))
    M[:, 0] = 1.0
    with pytest.raises(ValueError, match="2 of 3 columns"):
        project_stiefel(M)


def test_project_stack_matches_each_matrix_and_names_deficient_member():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((6, 5, 3))
    stacked = project_stiefel(M)
    for k in range(len(M)):
        assert stacked[k].tobytes() == project_stiefel(M[k]).tobytes()
    M[4, :, 2] = M[4, :, 0]
    with pytest.raises(ValueError, match=r"matrix 4: 1 of 3 columns deficient"):
        project_stiefel(M)


def test_block_minimize_examples():
    Y, achieved = block_minimize(np.array([[3.0], [4.0]]))
    np.testing.assert_allclose(Y, [[-0.6], [-0.8]])
    assert achieved == pytest.approx(-5.0)

    Y, achieved = block_minimize(-np.diag([2.0, 3.0]))
    np.testing.assert_allclose(Y, np.eye(2), atol=1e-14)
    assert achieved == pytest.approx(-5.0)

    current = random_stiefel(3, 2, np.random.default_rng(1))
    Y, achieved = block_minimize(np.zeros((3, 2)), current=current)
    np.testing.assert_array_equal(Y, current)
    assert achieved == 0.0


def test_block_minimize_zero_without_current_is_feasible():
    Y, achieved = block_minimize(np.zeros((4, 2)))
    assert achieved == 0.0
    assert is_orthonormal(Y)


def test_block_minimize_beats_random_candidates():
    rng = np.random.default_rng(2)
    for _ in range(5):
        r, d = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        d = min(d, r)
        G = rng.standard_normal((r, d))
        Y_star, achieved = block_minimize(G)
        assert achieved == pytest.approx(-nuclear_norm(G), rel=1e-10)
        assert abs(float(np.vdot(G, Y_star)) - achieved) <= 1e-10 * (1 + abs(achieved))
        for _ in range(1000):
            Y = random_stiefel(r, d, rng)
            assert achieved <= float(np.vdot(G, Y)) + 1e-10


def test_gcache_and_cost_match_dense():
    rng = np.random.default_rng(3)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 7))
        r = int(rng.integers(d, 7))
        Q = random_instance(rng, d, n)
        point = random_point(rng, Q, r)
        Qd = Q.to_dense()
        YQ = point.stacked() @ Qd
        for i, G in enumerate(point.gcache):
            np.testing.assert_allclose(G, YQ[:, i * d:(i + 1) * d], atol=1e-12)
        assert point.cost == pytest.approx(dense_cost(Qd, point.blocks), abs=1e-10)
        assert point.cost == pytest.approx(cost_from_cache(point), rel=1e-8, abs=1e-10)


def test_oracle_hand_examples():
    Q = BlockSparseSym(1, 2, {(0, 1): np.array([[1.0]])})
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    point = FactorPoint.from_blocks([e1, e2], Q)
    grad = riemannian_grad_oracle(point, Q)
    np.testing.assert_allclose(grad, np.array([[0.0, 2.0], [2.0, 0.0]]))
    assert float(np.sum(grad * grad)) == pytest.approx(8.0)

    point = FactorPoint.from_blocks([e1, -e1], Q)
    grad = riemannian_grad_oracle(point, Q)
    np.testing.assert_allclose(grad, 0.0, atol=1e-14)


def test_oracle_zero_instance():
    Q = BlockSparseSym(2, 3, {})
    point = random_point(np.random.default_rng(4), Q, 4)
    np.testing.assert_array_equal(riemannian_grad_oracle(point, Q), 0.0)


def test_oracle_blocks_are_tangent():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 7))
        r = int(rng.integers(d, 7))
        Q = random_instance(rng, d, n)
        point = random_point(rng, Q, r)
        grad = riemannian_grad_oracle(point, Q)
        for i, Y in enumerate(point.blocks):
            Z = grad[:, i * d:(i + 1) * d]
            skew = Y.T @ Z + Z.T @ Y
            assert np.abs(skew).max() <= 1e-10


def test_ambient_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    h = 1e-5
    for _ in range(5):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 6))
        r = int(rng.integers(d, 6))
        Q = random_instance(rng, d, n)
        Qd = Q.to_dense()
        point = random_point(rng, Q, r)
        Y = point.stacked()
        grad = 2.0 * Y @ Qd  # ambient gradient of tr(Q Y^T Y)
        for _ in range(20):
            D = rng.standard_normal(Y.shape)
            fp = float(np.sum(Qd * ((Y + h * D).T @ (Y + h * D))))
            fm = float(np.sum(Qd * ((Y - h * D).T @ (Y - h * D))))
            fd = (fp - fm) / (2.0 * h)
            analytic = float(np.vdot(grad, D))
            assert abs(fd - analytic) <= 1e-5 * (1.0 + abs(analytic))


def test_stale_cache_detection():
    rng = np.random.default_rng(7)
    Q = random_instance(rng, 2, 4)
    point = random_point(rng, Q, 3)
    point.gcache[1] = point.gcache[1] + 1.0
    riemannian_grad_oracle(point, Q)  # the oracle itself ignores the cache
    with pytest.raises(StaleCacheError):
        verified_grad_oracle(point, Q)


def test_factorpoint_validation():
    Q = BlockSparseSym(1, 2, {(0, 1): np.array([[1.0]])})
    good = [np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])]
    with pytest.raises(ValueError, match="blocks"):
        FactorPoint.from_blocks(good[:1], Q)
    bad = [2.0 * good[0], good[1]]
    with pytest.raises(ValueError, match="orthonormality"):
        FactorPoint.from_blocks(bad, Q)
    point = FactorPoint.from_blocks(bad, Q, require_feasible=False)
    assert feasibility_residual(point.blocks[0]) == pytest.approx(3.0)

    # the (n, r, d) array is checked as a whole
    Q2 = BlockSparseSym(2, 2, {(0, 1): np.eye(2)})
    for blocks, instance, message in [
            (np.eye(2), Q, "must form an \\(n, r, d\\) array"),  # 2-D
            ([good[0], np.eye(3, 1)], Q, "inhomogeneous"),         # ragged
            (np.zeros((2, 2, 2)), Q, "block width 2"),             # wrong d
            (np.ones((2, 1, 2)), Q2, "rank r=1 smaller"),          # r < d
            (np.stack(good * 2), Q, "4 blocks for an n=2")]:       # wrong n
        with pytest.raises(ValueError, match=message):
            FactorPoint.from_blocks(blocks, instance, require_feasible=False)

    # an accepted array is copied
    Y = np.stack(good)
    point = FactorPoint.from_blocks(Y, Q)
    Y[0] = 5.0
    np.testing.assert_array_equal(point.blocks, np.stack(good))


def test_yfactor_roundtrip_and_reprojection(tmp_path):
    rng = np.random.default_rng(8)
    blocks = [random_stiefel(4, 2, rng) for _ in range(3)]
    path = tmp_path / "sol.yf"
    write_yfactor(blocks, path)
    back = read_yfactor(path)
    for a, b in zip(blocks, back):
        np.testing.assert_array_equal(a, b)

    # a mildly perturbed file is re-projected on ingestion
    noisy = [B + 1e-9 * rng.standard_normal(B.shape) for B in blocks]
    write_yfactor(noisy, path)
    back = read_yfactor(path)
    assert all(is_orthonormal(B) for B in back)
    raw = read_yfactor(path, reproject=False)
    for a, b in zip(noisy, raw):
        np.testing.assert_array_equal(a, b)


def test_yfactor_parse_errors(tmp_path):
    path = tmp_path / "bad.yf"
    path.write_text("YFACTOR 2 1 1\n1.0\n")
    with pytest.raises(Exception, match="rows"):
        read_yfactor(path)
    path.write_text("YFAC 2 1 1\n1.0\n0.0\n")
    with pytest.raises(Exception, match="header"):
        read_yfactor(path)
    # header needs 1 <= d <= r and n >= 1
    for head in ("YFACTOR 0 1 3", "YFACTOR 2 1 0", "YFACTOR 1 2 3", "YFACTOR 2 0 1"):
        path.write_text(head + "\n")
        with pytest.raises(ParseError, match=":1: header"):
            read_yfactor(path)
    # an all-zero block cannot be re-projected; the error names its first line
    path.write_text("YFACTOR 2 1 2\n1.0\n0.0\n0.0\n0.0\n")
    with pytest.raises(ParseError, match=":4: block 2"):
        read_yfactor(path)
    assert len(read_yfactor(path, reproject=False)) == 2
    # non-finite values are rejected at their line, raw or re-projected;
    # blank lines do not shift the reported line
    for text, lineno in (("YFACTOR 1 1 2\ninf\n1.0\n", 2), ("YFACTOR 1 1 2\n1.0\n-inf\n", 3),
                         ("YFACTOR 1 1 2\nnan\n1.0\n", 2), ("YFACTOR 2 1 1\n\n0.0\n\nnan\n", 5)):
        path.write_text(text)
        for reproject in (True, False):
            with pytest.raises(ParseError, match=f":{lineno}: non-finite"):
                read_yfactor(path, reproject=reproject)


@pytest.mark.parametrize("value,message", [
    ("x", "non-numeric value in 'x'"),
    ("nan", "non-finite value in 'nan'"),
    ("1.0 0.0", "expected 1 values per row, got 2"),
], ids=["non-numeric", "non-finite", "field-count"])
def test_yfactor_fault_deep_in_file(tmp_path, value, message):
    rows = ["1.0"] * 1200
    rows[1000] = value
    path = tmp_path / "deep.yf"
    path.write_text("YFACTOR 1 1 1200\n" + "\n".join(rows) + "\n")
    for reproject in (True, False):
        with pytest.raises(ParseError, match=re.escape(f":1002: {message}")):
            read_yfactor(path, reproject=reproject)


def test_write_yfactor_golden_text(tmp_path):
    path = tmp_path / "sol.yf"
    write_yfactor(np.array([[[0.1 + 0.2, 1.0], [-0.0, 1e22]]]), path)
    assert path.read_text() == "YFACTOR 2 2 1\n0.30000000000000004 1.0\n-0.0 1e+22\n"


def test_refresh_reports_drift():
    rng = np.random.default_rng(9)
    Q = random_instance(rng, 2, 5)
    point = random_point(rng, Q, 3)
    point.cost += 1e-3
    drift = point.refresh(Q)
    assert drift == pytest.approx(1e-3, rel=1e-6)
    assert gcache_residual(point, Q) == 0.0


def test_evaluate_cost_empty_instance():
    Q = BlockSparseSym(1, 2, {})
    assert evaluate_cost([np.array([[1.0]]), np.array([[1.0]])], Q) == 0.0
    assert compute_gcache([np.array([[1.0]]), np.array([[1.0]])], Q)[0].shape == (1, 1)
