import os
import re
import subprocess
import sys

import numpy as np
import pytest
from conftest import (StaleCacheError, cost_from_cache, dense_cost, gcache_residual, nan_svd,
                      random_instance, random_point, random_stiefel, verified_grad_oracle)

from blocksdp import (BlockSparseSym, FactorPoint, ParseError, block_minimize,
                      compute_gcache, evaluate_cost, feasibility_residual,
                      is_orthonormal, nuclear_norm, project_stiefel, read_yfactor,
                      riemannian_grad_oracle, stiefel, write_yfactor)
from blocksdp.blockmat import _eigvalsh
from blocksdp.stiefel import _QR_RANGE, _column_frames, _qr_r_raw, _svd


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


def test_project_refuses_non_finite_entries():
    # np.linalg.LinAlgError, a ValueError, before the SVD: an infinite entry at
    # d = 2 no longer gives a frame.
    rng = np.random.default_rng(25)
    for shape in [(5, 1), (5, 2), (4, 5, 1), (4, 5, 2)]:
        for bad in (np.nan, np.inf, -np.inf):
            M = rng.standard_normal(shape)
            M[..., -1, -1] = bad
            with pytest.raises(np.linalg.LinAlgError,
                               match="^cannot project a matrix with non-finite entries$"):
                project_stiefel(M)
    # At d = 3 an infinite entry in the first column would hang LAPACK's SVD, so
    # the d = 3 calls run in a child process that must finish within the timeout.
    probe = ("import numpy as np; from blocksdp import project_stiefel\n"
             "for shape in [(5, 3), (4, 5, 3)]:\n"
             "    for bad in (np.nan, np.inf, -np.inf):\n"
             "        M = np.ones(shape); M[..., 0, 0] = bad\n"
             "        try: project_stiefel(M)\n"
             "        except np.linalg.LinAlgError as exc: print(exc)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.splitlines() == ["cannot project a matrix with non-finite entries"] * 6


def kernel_inputs():
    """Single blocks and stacks (k, r, d), d in {1, 2, 3} and r in {d, ..., 8}:
    contiguous and strided, holding -0.0 entries and a -0.0 block, at scales
    across _QR_RANGE, and the empty stack (0, r, d)."""
    rng = np.random.default_rng(26)
    lo, hi = (round(np.log2(b)) for b in _QR_RANGE)
    for d in (1, 2, 3):
        for r in range(d, 9):
            M = rng.standard_normal((5, r, d))
            M[1, 0] = -0.0
            M[2] = -0.0
            W = rng.standard_normal((5, d, 2 * r))
            W[3, :, 0] = -0.0
            for e in (lo, lo // 2, 0, hi // 2, hi):
                for A in (M * 2.0 ** e, (W * 2.0 ** e).swapaxes(1, 2)[:, ::2]):
                    yield from (A, A[1], A[2], A[3], A[::2], A[:, ::-1])
            yield np.zeros((0, r, d))


def layout(arrays):
    return [(a.shape, a.dtype, a.tobytes()) for a in arrays]


def test_direct_kernels_match_np_linalg_byte_for_byte():
    # The SVD and the Gram eigenvalues of a step, single or batched, strided or
    # not: the direct gufunc calls give np.linalg's bytes and, on finite input,
    # raise no floating-point flag that np.linalg's np.errstate would have hidden.
    for A in kernel_inputs():
        G = A.swapaxes(-2, -1) @ A
        with np.errstate(all="raise"):
            got_svd = _svd(A)
            got_eig = [_eigvalsh(S) for S in (G, G.swapaxes(-2, -1))]
        assert layout(got_svd) == layout(np.linalg.svd(A, full_matrices=False))
        assert layout(got_eig) == layout([np.linalg.eigvalsh(S) for S in (G, G.swapaxes(-2, -1))])


def test_qr_kernel_matches_np_linalg_qr_byte_for_byte():
    # The Householder QR of _column_frames, numpy's gufunc called directly
    # (_qr_r_raw), factors a copy of the input in place into
    # np.linalg.qr(mode="raw")'s h, transposed, and returns its tau: on
    # single blocks and stacks of one or more, strided or not, with -0.0
    # entries, at scales 2^-459 to 2^459, raising no floating-point flag.
    for A in kernel_inputs():
        for M in ((A, A[:1]) if A.ndim == 3 else (A,)):
            h, tau = np.linalg.qr(M, mode="raw")
            a = np.array(M)
            with np.errstate(all="raise"):
                got = _qr_r_raw(a)
            assert layout([a.swapaxes(-2, -1), got]) == layout([h, tau])


@pytest.mark.filterwarnings("error")
def test_failed_svd_raises_linalg_error(monkeypatch):
    # LAPACK's failure shows as NaN outputs; both callers of the SVD raise on them.
    monkeypatch.setattr(stiefel, "_svd", nan_svd)
    rng = np.random.default_rng(27)
    for shape in [(8, 1), (5, 3), (4, 5, 2), (4, 5, 3)]:
        G = rng.standard_normal(shape)
        for call in (block_minimize, project_stiefel):
            with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
                call(G)


def test_block_minimize_examples():
    Y, nuc = block_minimize(np.array([[3.0], [4.0]]))
    np.testing.assert_allclose(Y, [[-0.6], [-0.8]])
    assert nuc == pytest.approx(5.0)

    Y, nuc = block_minimize(-np.diag([2.0, 3.0]))
    np.testing.assert_allclose(Y, np.eye(2), atol=1e-14)
    assert nuc == pytest.approx(5.0)


def test_block_minimize_zero_without_current_is_feasible():
    Y, nuc = block_minimize(np.zeros((4, 2)))
    assert nuc == 0.0
    assert is_orthonormal(Y)


@pytest.mark.parametrize("r,d", [(8, 1), (3, 2), (5, 3)])
def test_block_minimize_stack_equals_one_call_per_matrix(r, d):
    rng = np.random.default_rng(r + d)
    G = rng.standard_normal((9, r, d)) * 10.0 ** rng.integers(-6, 6, size=(9, 1, 1))
    Y, nuc = block_minimize(G)
    for k in range(9):
        Y_k, nuc_k = block_minimize(G[k])
        assert Y[k].tobytes() == Y_k.tobytes() and nuc[k] == nuc_k
    # A non-finite entry is refused, single or stacked, before the SVD: at
    # d >= 3, LAPACK's SVD of a matrix with an infinite entry in its first
    # column does not return.
    for bad in (np.nan, np.inf, -np.inf):
        for where in [(4, 0, 0), (4, r - 1, d - 1)]:
            H = G.copy()
            H[where] = bad
            for M in (H, H[4]):
                with pytest.raises(ValueError, match="^block coupling matrix has non-finite entries$"):
                    block_minimize(M)
    # A zero matrix gives a feasible frame and 0, alone and in a stack.
    G[4] = 0.0
    Y, nuc = block_minimize(G)
    Y_4, nuc_4 = block_minimize(G[4])
    assert is_orthonormal(Y_4) and nuc_4 == 0.0 == nuc[4]
    assert Y[4].tobytes() == Y_4.tobytes()


def svd_frames(M):
    """U V^T and the singular values from np.linalg.svd, the reference."""
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    return U @ Vt, s


def assert_svd_bytes(A):
    """block_minimize and project_stiefel of a stack give np.linalg.svd's bytes,
    or the projection raises, naming the first matrix that is rank-deficient."""
    Y, nuc = block_minimize(A)
    want_Y, want_s = svd_frames(-A)
    assert Y.tobytes() == want_Y.tobytes() and nuc.tobytes() == want_s.sum(axis=-1).tobytes()
    want_Y, want_s = svd_frames(A)
    small = np.flatnonzero(want_s[:, 0] == 0.0)
    if small.size:
        with pytest.raises(ValueError, match=rf"matrix {small[0]}: 1 of 1 columns deficient"):
            project_stiefel(A)
    else:
        assert project_stiefel(A).tobytes() == want_Y.tobytes()


@pytest.mark.parametrize("r", range(1, 10))
@pytest.mark.parametrize("k", [1, 4, 27])
def test_column_stacks_match_the_svd_byte_for_byte(r, k):
    rng = np.random.default_rng(10 * r + k)
    M = rng.standard_normal((k, r, 1))
    if r > 1 and k > 1:
        M[0, 0] = 0.0  # a zero first entry
        M[1, 1:] = 0.0  # zero below the first entry: the QR's -0.0 must read +0.0
    M /= np.abs(M).max(axis=1, keepdims=True)  # max-abs entry 1 in every column
    for e in [-459, *range(-450, 451, 50), 459]:  # the QR range is [2^-459, 2^459]
        A = M * 2.0 ** e
        Y, sigma = _column_frames(A)  # the QR path is taken
        want_Y, want_s = svd_frames(A)
        assert Y.tobytes() == want_Y.tobytes() and sigma.tobytes() == want_s.tobytes()
        assert_svd_bytes(A)
    # One matrix past either end of the range sends the whole stack to the SVD.
    for e in (-460, 460):
        A = M.copy()
        A[k // 2] *= 2.0 ** e
        assert _column_frames(A) is None
        assert_svd_bytes(A)
    if k > 1:
        A = M.copy()
        A[k - 1] = 0.0
        assert _column_frames(A) is None
        with pytest.raises(ValueError, match=rf"matrix {k - 1}: 1 of 1 columns deficient"):
            project_stiefel(A)


def max_abs_rule(A):
    """Whether every column of A (k, r, 1) has its max-abs entry in _QR_RANGE."""
    m = np.abs(A).max(axis=1)
    return bool(_QR_RANGE[0] <= m.min() and m.max() <= _QR_RANGE[1])


def test_column_frames_take_the_qr_exactly_where_the_max_abs_rule_does():
    # _column_frames reads the QR's |R_11| = ||a||_2 first and scans the
    # entries only when the norm cannot decide; the decision is the scan's.
    rng = np.random.default_rng(12)
    for r in range(1, 10):
        normal = rng.standard_normal((4, r, 1))
        normal /= np.abs(normal).max(axis=1, keepdims=True)
        flat = np.ones((3, r, 1))  # ||a||_2 = sqrt(r) max-abs: the loosest bracket
        flat[1] = -1.0
        hot = np.zeros((3, r, 1))  # ||a||_2 = max-abs: the tightest
        hot[:, r - 1] = 1.0
        for e in range(-470, 471):
            stacks = [M * 2.0 ** e for M in (normal, flat, hot)]
            mixed = normal.copy()
            mixed[1] *= 2.0 ** e  # one column off the others' scale
            stacks.append(mixed)
            for A in stacks:
                assert (_column_frames(A) is None) == (not max_abs_rule(A)), (r, e)
        for bad in (np.nan, np.inf, -np.inf):  # a non-finite entry: no QR frames
            A = normal.copy()
            A[2, r - 1] = bad
            assert _column_frames(A) is None and not max_abs_rule(A)
        # Max-abs exactly 2^-459 or 2^459 in every column, with ||a||_2 = sqrt(r)
        # max-abs: the norms lie outside the norm test's window, so the scan
        # decides, accepts, and the bytes are still the SVD's.
        lo = _QR_RANGE[0] * np.sqrt(r) * (1.0 + stiefel._NORM_SLACK)
        hi = _QR_RANGE[1] * (1.0 - stiefel._NORM_SLACK)
        for e in (-459, 459):
            A = flat * 2.0 ** e
            Y, sigma = _column_frames(A)
            assert not (lo <= sigma.min() and sigma.max() <= hi)
            want_Y, want_s = svd_frames(A)
            assert Y.tobytes() == want_Y.tobytes() and sigma.tobytes() == want_s.tobytes()


def test_tiny_columns_project_to_their_direction(tmp_path):
    # Rank deficiency is judged against the largest singular value: a column
    # of norm 2^-60 projects to x / ||x|| with the SVD's bytes, single and
    # stacked, and read_yfactor reprojects a block holding one.
    rng = np.random.default_rng(11)
    x = rng.standard_normal((6, 1))
    x *= 2.0 ** -60 / np.linalg.norm(x)
    want = svd_frames(x)[0]
    assert project_stiefel(x).tobytes() == want.tobytes()
    np.testing.assert_allclose(want, x / np.linalg.norm(x), rtol=0, atol=1e-15)
    M = rng.standard_normal((5, 6, 1))
    M[2] = x
    assert project_stiefel(M)[2].tobytes() == want.tobytes()
    assert_svd_bytes(M)
    path = tmp_path / "tiny.yf"
    write_yfactor([np.eye(6, 1), x], path)
    assert read_yfactor(path, reproject=False)[1].tobytes() == x.tobytes()
    back = read_yfactor(path)
    assert back[1].tobytes() == want.tobytes() and is_orthonormal(back[1])


def test_block_minimize_beats_random_candidates():
    rng = np.random.default_rng(2)
    for _ in range(5):
        r, d = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        d = min(d, r)
        G = rng.standard_normal((r, d))
        Y_star, nuc = block_minimize(G)
        assert nuc == pytest.approx(nuclear_norm(G), rel=1e-10)
        assert abs(float(np.vdot(G, Y_star)) + nuc) <= 1e-10 * (1 + nuc)
        for _ in range(1000):
            Y = random_stiefel(r, d, rng)
            assert -nuc <= float(np.vdot(G, Y)) + 1e-10


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
