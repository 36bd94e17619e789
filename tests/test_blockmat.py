import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from conftest import (assert_same_matrix, block, dense_cost, from_block_dict, lexsort_arrays,
                      neighbors, pairs, random_instance, random_stiefel, triangle,
                      write_edgelist)

from blocksdp import (BlockSparseSym, ParseError, SolverConfig, blockmat, generate_maxcut,
                      nuclear_norm, problems, read_bsm, read_edgelist, read_matrix_market,
                      write_bsm)
from blocksdp.bcm import iteration_bound
from blocksdp.blockmat import gram_nuclear_norms


def from_dense(Qraw, d):
    """Every d x d block of a dense dn x dn matrix through from_block_dict."""
    n = Qraw.shape[0] // d
    blocks = {(i, j): Qraw[i * d:(i + 1) * d, j * d:(j + 1) * d]
              for i in range(n) for j in range(n)}
    return from_block_dict(d, n, blocks)


def test_preprocess_zero_matrix():
    Q, offset = from_dense(np.zeros((6, 6)), 2)
    assert Q.num_blocks == 0
    assert offset == 0.0
    assert Q.n == 3 and Q.d == 2


def test_preprocess_scalar_example():
    Q, offset = from_dense(np.array([[2.0, 3.0], [1.0, 4.0]]), 1)
    assert block(Q, 0, 1) == pytest.approx(2.0)
    assert offset == pytest.approx(6.0)


def test_preprocess_symmetric_with_identity_diagonal():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    raw = np.block([[np.eye(2), A], [A.T, np.eye(2)]])
    Q, offset = from_dense(raw, 2)
    np.testing.assert_allclose(block(Q, 0, 1), A)
    assert offset == pytest.approx(4.0)


def test_preprocess_rejects_bad_input():
    bad = np.zeros((4, 4))
    bad[0, 1] = np.nan
    with pytest.raises(ValueError):
        from_dense(bad, 2)


def test_offset_identity_on_feasible_lifts():
    # tr(Qraw X) == tr(Q' X) + offset for X = Y^T Y with identity diagonal.
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 6))
        Qraw = rng.standard_normal((d * n, d * n))
        Q, offset = from_dense(Qraw, d)
        Y = np.hstack([random_stiefel(d + 1, d, rng) for _ in range(n)])
        X = Y.T @ Y
        lhs = float(np.sum(Qraw * X.T))
        rhs = dense_cost(Q.to_dense(), [Y[:, i * d:(i + 1) * d] for i in range(n)]) + offset
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_block_query_is_transpose_symmetric():
    rng = np.random.default_rng(1)
    Q = random_instance(rng, 3, 5)
    for i, j, B in pairs(Q):
        np.testing.assert_array_equal(block(Q, j, i), B.T)
        np.testing.assert_array_equal(block(Q, i, j), B)
    dense = Q.to_dense()
    np.testing.assert_array_equal(dense, dense.T)
    assert 0 not in neighbors(Q, 0)
    assert np.all(block(Q, 2, 2) == 0.0)


def test_construction_validation():
    with pytest.raises(ValueError):
        BlockSparseSym(2, 3, {(1, 1): np.eye(2)})  # diagonal key
    with pytest.raises(ValueError):
        BlockSparseSym(2, 3, {(2, 1): np.eye(2)})  # wrong orientation
    with pytest.raises(ValueError):
        BlockSparseSym(2, 3, {(0, 1): np.eye(3)})  # wrong shape
    with pytest.raises(ValueError):
        BlockSparseSym(2, 3, {(0, 1): np.full((2, 2), np.inf)})


@pytest.mark.parametrize("d", [1, 2, 3])
def test_array_construction_equals_dict_construction(d):
    rng = np.random.default_rng(d)
    n = 9
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keys = [pairs[k] for k in rng.permutation(len(pairs))[:20]]  # not in row order
    blocks = {k: rng.standard_normal((d, d)) for k in keys}
    blocks[keys[3]] = np.zeros((d, d))  # exact zeros are dropped
    blocks[keys[5]] = -np.zeros((d, d))
    i, j = np.array(keys).T
    Q = BlockSparseSym.from_arrays(d, n, i, j, np.array(list(blocks.values())))
    assert Q.num_blocks == 18
    assert_same_matrix(Q, BlockSparseSym(d, n, blocks))
    assert_same_matrix(BlockSparseSym.from_arrays(d, n, i[:0], j[:0], np.zeros((0, d, d))),
                       BlockSparseSym(d, n, {}))
    with pytest.raises(ValueError, match="keys for blocks of shape"):
        BlockSparseSym.from_arrays(d, n, i, j[1:], np.array(list(blocks.values())))


@pytest.mark.parametrize("blocks", [
    {(0, 1): np.eye(2), (1, 1): np.eye(2)},  # diagonal key
    {(2, 1): np.eye(2)},  # wrong orientation
    {(0, 3): np.eye(2)},  # past n
    {(-1, 2): np.eye(2)},
    {(0, 1): np.eye(2), (1, 2): np.full((2, 2), np.inf)},
    {(0, 1): np.array([[1.0, np.nan], [0.0, 1.0]])},
    {(0, 1): np.eye(3), (0, 2): np.eye(3)},  # wrong shape
    {(0, 1): np.ones((2, 1))},
])
def test_array_construction_raises_the_dict_construction_errors(blocks):
    with pytest.raises(ValueError) as from_dict:
        BlockSparseSym(2, 3, blocks)
    i, j = np.array(list(blocks)).T
    with pytest.raises(ValueError) as from_arrays:
        BlockSparseSym.from_arrays(2, 3, i, j, np.array(list(blocks.values())))
    assert str(from_arrays.value) == str(from_dict.value)


@pytest.mark.parametrize("i,j,B,pair", [
    # Kept twice, a pair would make the solver's tracked cost drift from a fresh evaluation.
    ([0, 0, 1], [1, 1, 2], [[[1.0]], [[2.0]], [[1.0]]], (0, 1)),
    ([1, 0, 2, 0], [2, 1, 3, 1], np.ones((4, 1, 1)), (0, 1)),  # apart
    ([1, 0, 1], [2, 2, 2], [[[0.0]], [[1.0]], [[0.0]]], (1, 2)),  # an exact zero too
    ([0, 2, 2, 1, 1], [3, 3, 3, 2, 2], np.ones((5, 1, 1)), (1, 2)),  # the first in row order
])
def test_repeated_pair_raises(i, j, B, pair):
    with pytest.raises(ValueError, match=re.escape(f"duplicate block ({pair[0]},{pair[1]})")):
        BlockSparseSym.from_arrays(1, 4, np.array(i), np.array(j), np.array(B))
    with pytest.raises(ValueError, match="duplicate block"):
        BlockSparseSym.from_arrays(2, 4, np.array(i), np.array(j),
                                   np.kron(np.array(B), np.ones((2, 2))))


@pytest.mark.parametrize("d,n", [(1, 2 ** 63), (1, 99999999999999999999), (2 ** 64, 3)])
def test_dimensions_past_the_index_range_raise(d, n):
    i, j, B = np.array([0]), np.array([1]), np.ones((1, 1, 1))
    with pytest.raises(ValueError, match="exceed the index range"):
        BlockSparseSym.from_arrays(d, n, i, j, B)
    with pytest.raises(ValueError, match="exceed the index range"):
        BlockSparseSym(d, n, {})


@pytest.mark.parametrize("d", [1, 2, 3])
def test_construction_equals_the_lexsort_oracle(d):
    # Construction sorts the pairs by the one integer key i * n + j; for distinct
    # pairs that is the permutation of a lexsort on (i, j).
    rng = np.random.default_rng(40 + d)
    for n in (2, 3, 17, 60, 200):
        upper_i, upper_j = np.triu_indices(n, 1)
        for _ in range(5):
            pick = rng.permutation(len(upper_i))[:rng.integers(1, min(len(upper_i), 800) + 1)]
            i, j = upper_i[pick], upper_j[pick]  # shuffled, not in row order
            B = rng.standard_normal((len(i), d, d))
            B[rng.random(len(i)) < 0.1] = 0.0  # exact zeros are dropped
            Q = BlockSparseSym.from_arrays(d, n, i, j, B)
            for got, want in zip((Q.mat.data, Q.mat.indices, Q.mat.indptr),
                                 lexsort_arrays(n, i, j, B)):
                want = want.astype(got.dtype)
                assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())


@pytest.mark.parametrize("d", [1, 2, 3])
def test_column_sums_do_not_depend_on_the_input_order(d):
    # Each column adds its block norms in row order, so the same pairs given in any
    # order give the same column sums, C1 and C2, to the last bit.
    rng = np.random.default_rng(50 + d)
    keys = list(zip(*np.triu_indices(12, 1)))
    for _ in range(100):
        items = [((int(a), int(b)), rng.standard_normal((d, d)) * 10.0 ** rng.integers(-3, 4))
                 for a, b in (keys[k] for k in rng.choice(len(keys), size=15, replace=False))]
        Q = BlockSparseSym(d, 12, dict(sorted(items, key=lambda item: item[0])))
        shuffled = BlockSparseSym(d, 12, dict(items[k] for k in rng.permutation(len(items))))
        assert_same_matrix(shuffled, Q)
        assert (shuffled.c1(), shuffled.c2()) == (Q.c1(), Q.c2())


def test_sort_key_bound_on_n(no_construction):
    # The largest key, (n - 1) * n + n - 1 = n^2 - 1, fits in int64 up to the bound.
    top = blockmat._N_MAX
    assert top ** 2 - 1 <= np.iinfo(np.int64).max < (top + 1) ** 2 - 1
    blockmat._check_dimensions(1, top)
    with pytest.raises(ValueError, match=re.escape(f"n={top + 1} exceeds the sort-key bound {top}")):
        BlockSparseSym.from_arrays(1, top + 1, np.array([0]), np.array([1]), np.ones((1, 1, 1)))
    with pytest.raises(ValueError, match="sort-key bound"):
        BlockSparseSym(2, top + 1, {})


def test_bsm_header_past_the_sort_key_bound_is_a_parse_error(tmp_path, no_construction):
    path = tmp_path / "big.bsm"
    path.write_text("BSM 1 3037000500 1\n1 2 1.0\n")
    with pytest.raises(ParseError) as err:
        read_bsm(path)
    assert str(err.value) == f"{path}:1: header n=3037000500 exceeds the sort-key bound 3037000499"


@pytest.mark.parametrize("kind", ["bsm", "bsm-blank-lines", "edges-comment"])
def test_valid_files_are_read_with_one_sort(tmp_path, monkeypatch, kind):
    # The duplicate search and its lexsort run only once construction finds a repeat.
    calls = []

    def counted(name, f):
        return lambda *args, **kwargs: calls.append(name) or f(*args, **kwargs)

    monkeypatch.setattr(blockmat, "_repeats", counted("_repeats", blockmat._repeats))
    monkeypatch.setattr(problems, "_repeats", counted("_repeats", problems._repeats))
    monkeypatch.setattr(np, "lexsort", counted("lexsort", np.lexsort))
    rng = np.random.default_rng(9)
    Q = random_instance(rng, 1 if kind == "edges-comment" else 2, 30, density=0.3)
    path = tmp_path / "q.txt"
    if kind == "edges-comment":
        write_edgelist(Q, path)
        path.write_text("# a comment\n" + path.read_text())
        back = read_edgelist(path)
    else:
        write_bsm(Q, path)
        if kind == "bsm-blank-lines":
            path.write_text(path.read_text().replace("\n", "\n\n"))
        back = read_bsm(path)
    assert_same_matrix(back, Q)
    assert calls == []


@pytest.mark.parametrize("rows,lineno,pair", [
    (["1 2 1.0", "", "1 2 2.0"], 4, "1,2"),  # a blank line before the repeat
    (["1 3 1.0", "1 2 1.0", "2 3 1.0", "1 3 -1.0"], 5, "1,3"),
    (["2 3 1.0", "", "1 2 1.0", "  ", "2 3 0.0"], 6, "2,3"),  # an exact zero too
])
def test_bsm_repeated_block_names_its_later_line(tmp_path, rows, lineno, pair):
    path = tmp_path / "dup.bsm"
    path.write_text("\n".join([f"BSM 1 3 {sum(map(bool, map(str.strip, rows)))}", *rows]) + "\n")
    with pytest.raises(ParseError) as err:
        read_bsm(path)
    assert str(err.value) == f"{path}:{lineno}: duplicate block ({pair})"


def test_read_bsm_golden_digest(tmp_path):
    # The arrays, column sums, C1 and C2 of a written and re-read weighted Max-Cut
    # instance, pinned byte for byte.
    path = tmp_path / "g.bsm"
    write_bsm(generate_maxcut(2000, 0.005, 1, weighted=True), path)
    Q = read_bsm(path)
    digest = hashlib.sha256()
    for a in (Q.mat.data, Q.mat.indices, Q.mat.indptr, Q.cols, Q.column_nuclear_sums()):
        digest.update(a.tobytes())
    digest.update(repr((Q.c1(), Q.c2())).encode())
    assert digest.hexdigest() == "79c22705365b08846686f72334d5d12c267ca114fd8fa9a84dbf6b86cde1b450"


def test_zero_blocks_dropped_by_symmetrization():
    A = np.array([[0.0, 1.0], [2.0, 0.0]])
    raw = {(0, 1): A, (1, 0): -A.T}  # symmetric part cancels exactly
    Q, offset = from_block_dict(2, 2, raw)
    assert Q.num_blocks == 0
    assert neighbors(Q, 0) == []


def test_c1_c2_examples():
    empty = BlockSparseSym(1, 3, {})
    assert empty.c1() == 0.0 and empty.c2() == 0.0
    tri = triangle()
    assert tri.c1() == pytest.approx(2.0)
    assert tri.c2() == pytest.approx(6.0)
    Q = BlockSparseSym(2, 2, {(0, 1): np.diag([3.0, 4.0])})
    assert Q.c1() == pytest.approx(7.0)
    assert Q.c2() == pytest.approx(14.0)


def test_c2_at_most_n_times_c1():
    rng = np.random.default_rng(2)
    for _ in range(30):
        Q = random_instance(rng, int(rng.integers(1, 4)), int(rng.integers(2, 8)),
                            density=float(rng.uniform(0.2, 1.0)))
        assert Q.c2() <= Q.n * Q.c1() + 1e-12


@pytest.mark.parametrize("d,blocks", [
    (1, {(0, 1): [[1e308]], (0, 2): [[1e308]]}),  # column 0 sums two 1e308 norms
    (2, {(0, 1): [[1e308, 0.0], [0.0, 1e308]]}),  # one nuclear norm past the range
])
def test_c1_c2_past_the_float_range_are_quietly_inf(d, blocks):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Q = BlockSparseSym(d, 3, {k: np.array(B) for k, B in blocks.items()})
        assert math.isinf(Q.c1()) and math.isinf(Q.c2())
    with pytest.raises(ValueError, match="set an explicit cap"):
        iteration_bound(Q, "uniform", 0.0, -Q.c2(), SolverConfig(rank=2).grad_tol)


def test_nuclear_norm_values():
    assert nuclear_norm(np.zeros((3, 2))) == 0.0
    assert nuclear_norm(np.diag([3.0, 4.0])) == pytest.approx(7.0)
    # single column: the only singular value is the Euclidean norm
    assert nuclear_norm(np.array([[3.0], [4.0]])) == pytest.approx(5.0)


def test_nuclear_norm_single_column_closed_form():
    rng = np.random.default_rng(5)
    for r in (1, 2, 8, 30):
        # magnitudes from 1e-200 to 1e200: squares underflow or overflow at the ends
        M = rng.standard_normal((300, r, 1)) * 10.0 ** rng.integers(-200, 201, size=(300, 1, 1))
        M[::7] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = nuclear_norm(M)
        np.testing.assert_allclose(got, np.linalg.svd(M, compute_uv=False)[:, 0], rtol=1e-15, atol=0)
    one = nuclear_norm(np.array([[3.0], [4.0]]))
    assert type(one) is float and one == 5.0
    assert nuclear_norm(np.zeros((0, 4, 1))).shape == (0,)
    np.testing.assert_array_equal(nuclear_norm(np.zeros((3, 4, 1))), np.zeros(3))
    assert nuclear_norm(np.zeros((4, 1))) == 0.0


def test_d1_column_sums_equal_svd_sums():
    # c1 and c2 of Max-Cut instances are bit-identical to summing SVD norms.
    rng = np.random.default_rng(6)
    upper_i, upper_j = np.triu_indices(500, 1)
    for weights in (np.ones(2500), rng.uniform(0.0, 1.0, 2500),
                    rng.standard_normal(2500) * 10.0 ** rng.integers(-200, 201, 2500)):
        pick = rng.choice(len(upper_i), size=2500, replace=False)
        i, j = upper_i[pick], upper_j[pick]
        Q = BlockSparseSym(1, 500, {(a, b): np.array([[w]])
                                    for a, b, w in zip(i.tolist(), j.tolist(), weights)})
        svd = np.linalg.svd(weights[:, None, None], compute_uv=False)[:, 0]
        rows = np.lexsort((j, i))  # the columns add their norms in row order
        ref = np.bincount(np.stack([i, j], axis=1)[rows].ravel(), weights=np.repeat(svd[rows], 2),
                          minlength=500)
        assert Q.c1() == float(ref.max()) and Q.c2() == float(ref.sum())


def test_nuclear_norm_subadditive_and_transpose_invariant():
    rng = np.random.default_rng(3)
    for _ in range(50):
        r, d = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        A = rng.standard_normal((r, d))
        B = rng.standard_normal((r, d))
        assert nuclear_norm(A + B) <= nuclear_norm(A) + nuclear_norm(B) + 1e-10
        assert nuclear_norm(A.T) == pytest.approx(nuclear_norm(A), rel=1e-12)


def svd_norms(G):
    return np.linalg.svd(G, compute_uv=False).sum(axis=-1)


def rank_deficient(rng, k, r, d, rank, noise=0.0):
    """k random r x d blocks of the given rank, plus noise times a Gaussian."""
    G = rng.standard_normal((k, r, rank)) @ rng.standard_normal((k, rank, d))
    return G + noise * rng.standard_normal((k, r, d))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("scale", [1e-170, 1.0, 1e150])
def test_gram_nuclear_norms_match_the_svd(d, scale):
    # Random, rank-deficient and nearly rank-deficient stacks: the Gram rule is
    # within 1e-7 of the SVD (about 2e-8 at worst), and warns of nothing.  At
    # 1e-170 the squares underflow and every block takes the SVD.
    rng = np.random.default_rng(90 + d)
    stacks = [rng.standard_normal((40, 5, d)), rng.standard_normal((40, d, d)),
              *(rank_deficient(rng, 40, 5, d, rank) for rank in range(d)),
              *(rank_deficient(rng, 40, 5, d, rank, 10.0 ** -e) for rank in range(1, d)
                for e in (4, 8, 12))]
    for G in stacks:
        G = G * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = gram_nuclear_norms(G)
            want = nuclear_norm(G)
        np.testing.assert_allclose(got, want, rtol=1e-7, atol=0)
        if scale == 1e-170:
            assert got.tobytes() == want.tobytes()
    one = gram_nuclear_norms(np.diag([3.0, 4.0]))
    assert one.shape == () and one == pytest.approx(7.0, rel=1e-15)


def test_gram_nuclear_norms_d1_are_the_column_norms():
    # At d = 1 the norms are sqrt(sum g^2) as before, byte for byte, and the SVD's
    # for the columns whose sums of squares underflow or overflow.
    rng = np.random.default_rng(95)
    for r in (2, 3, 7, 16, 31, 64, 130):
        C = rng.standard_normal((200, r))
        assert gram_nuclear_norms(C[:, :, None]).tobytes() == np.sqrt((C * C).sum(axis=1)).tobytes()
        C[::3] *= 10.0 ** rng.integers(-200, 201, size=(len(C[::3]), 1))
        with np.errstate(over="ignore"):
            got = gram_nuclear_norms(C[:, :, None])
            sq = (C * C).sum(axis=1)
        far = ~((blockmat._SQ_MIN <= sq) & (sq <= blockmat._SQ_MAX))
        assert got[far].tobytes() == svd_norms(C[far, :, None]).tobytes()
        assert got[~far].tobytes() == np.sqrt(sq[~far]).tobytes()


@pytest.mark.parametrize("d", [2, 3])
def test_gram_nuclear_norms_leave_out_of_range_and_nan_blocks_to_the_svd(d):
    rng = np.random.default_rng(96 + d)
    G = rng.standard_normal((12, 5, d))
    G[[1, 5]] *= 1e-170  # squares underflow
    # Equal singular values whose squares lie below _SQ_MIN and sum above it: the
    # largest eigenvalue sends the stack to the per-block test, which keeps them.
    G[[3, 7]] = random_stiefel(5, d, rng) * np.sqrt(0.75 * blockmat._SQ_MIN)
    for overflow in (False, True):
        if overflow:
            G[[2, 9]] *= 1e160
        with np.errstate(over="ignore"):
            got = gram_nuclear_norms(G)
            sq = (G * G).sum(axis=(1, 2))
        far = ~((blockmat._SQ_MIN <= sq) & (sq <= blockmat._SQ_MAX))
        assert far.tolist() == [k in ((1, 2, 5, 9) if overflow else (1, 5)) for k in range(12)]
        assert got[far].tobytes() == svd_norms(G[far]).tobytes()
        np.testing.assert_allclose(got, svd_norms(G), rtol=1e-7, atol=0)
    # A NaN raises the SVD's error, whatever eigvalsh would make of it.
    G[4, 0, 1] = np.nan
    with pytest.raises(np.linalg.LinAlgError) as gram, np.errstate(over="ignore"):
        gram_nuclear_norms(G)
    with pytest.raises(np.linalg.LinAlgError) as svd:
        nuclear_norm(G[4])
    assert str(gram.value) == str(svd.value)
    # An infinite entry gives what nuclear_norm gives, in the block that holds it.
    for inf in (np.inf, -np.inf):
        G[4, 0, 1] = inf
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("ignore")
            got, want = gram_nuclear_norms(G), nuclear_norm(G)
        assert got[4].tobytes() == want[4].tobytes()
        assert got[far].tobytes() == want[far].tobytes()


def test_gram_nuclear_norms_of_empty_stacks():
    for d in (1, 2, 3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = gram_nuclear_norms(np.zeros((0, 4, d)))
        assert got.shape == (0,) and got.dtype == float
        np.testing.assert_array_equal(gram_nuclear_norms(np.zeros((3, 4, d))), np.zeros(3))


def test_bsm_roundtrip_sparse_and_dense(tmp_path):
    rng = np.random.default_rng(4)
    sparse = random_instance(rng, 2, 5, density=0.4)
    dense = random_instance(rng, 3, 4, density=1.0)
    assert dense.num_blocks == 4 * 3 // 2
    for k, Q in enumerate((sparse, dense)):
        path = tmp_path / f"q{k}.bsm"
        write_bsm(Q, path)
        back = read_bsm(path)
        assert (back.d, back.n, back.num_blocks) == (Q.d, Q.n, Q.num_blocks)
        for i, j, B in pairs(Q):
            np.testing.assert_array_equal(block(back, i, j), B)


DEEP = 1000  # index of the faulty row among 1200 data rows 'k k+1 1.5'
DEEP_FAULTS = {
    "non-numeric": lambda row: row.replace("1.5", "x"),
    "non-finite": lambda row: row.replace("1.5", "inf"),
    "field-count": lambda row: row + " 2.5",
    "index-range": lambda row: "1 1202 1.5",
    "duplicate": lambda row: "1 2 1.5",
}


def deep_fault_rows(kind):
    """The 1200 rows 'k k+1 1.5' (k = 1..1200) with one fault in row DEEP."""
    rows = [f"{k} {k + 1} 1.5" for k in range(1, 1201)]
    rows[DEEP] = DEEP_FAULTS[kind](rows[DEEP])
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("content,lineno", [
    ("BSN 1 2 1\n1 2 1.0\n", 1),
    ("BSM 1 2 1\n1 2\n", 2),
    ("BSM 1 2 1\n2 1 1.0\n", 2),
    ("BSM 1 3 2\n1 2 1.0\n1 2 2.0\n", 3),
    ("BSM 1 2 2\n1 2 1.0\n", 2),
    ("BSM 0 2 0\n", 1),
    ("BSM 1 0 0\n", 1),
    ("BSM 1 99999999999999999999 1\n1 99999999999999999998 1.0\n", 1),  # n past int64
    ("BSM 99999999999999999999 2 1\n1 2 1.0\n", 1),  # d past int64
    *(pytest.param("BSM 1 1201 1200\n" + deep_fault_rows(kind), DEEP + 2, id=f"deep-{kind}")
      for kind in DEEP_FAULTS),
])
def test_bsm_parse_errors_carry_line_numbers(tmp_path, content, lineno):
    path = tmp_path / "bad.bsm"
    path.write_text(content)
    with pytest.raises(ParseError) as err:
        read_bsm(path)
    assert f":{lineno}:" in str(err.value)


@pytest.mark.parametrize("kind,message", [
    ("non-numeric", "non-numeric field"),
    ("non-finite", "non-finite value 'inf'"),
    ("field-count", "expected 'i j value'"),
    ("index-range", "indices out of range"),
    ("duplicate", "duplicate entry (1,2)"),
], ids=list(DEEP_FAULTS))
def test_matrix_market_fault_deep_in_file(tmp_path, kind, message):
    path = tmp_path / "deep.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n1201 1201 1200\n"
                    + deep_fault_rows(kind))
    with pytest.raises(ParseError, match=re.escape(f":{DEEP + 3}: {message}")):
        read_matrix_market(path)


def test_write_bsm_golden_text(tmp_path):
    Q = BlockSparseSym(2, 3, {(1, 2): np.array([[0.1 + 0.2, -0.0], [1e-300, 2.0]]),
                              (0, 2): -np.eye(2) / 3})
    path = tmp_path / "q.bsm"
    write_bsm(Q, path)
    assert path.read_text() == ("BSM 2 3 2\n"
                                "1 3 -0.3333333333333333 -0.0 -0.0 -0.3333333333333333\n"
                                "2 3 0.30000000000000004 -0.0 1e-300 2.0\n")


def test_matrix_market_general_and_symmetric(tmp_path):
    general = tmp_path / "g.mtx"
    general.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "% comment\n"
        "3 3 4\n"
        "1 2 3.0\n"
        "2 1 1.0\n"
        "1 1 5.0\n"
        "2 3 2.0\n")
    Q, offset = read_matrix_market(general)
    assert offset == pytest.approx(5.0)
    assert block(Q, 0, 1) == pytest.approx(2.0)  # 0.5 * (3 + 1)
    assert block(Q, 1, 2) == pytest.approx(1.0)  # 0.5 * (2 + 0)

    sym = tmp_path / "s.mtx"
    sym.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 3\n"
        "2 1 1.0\n"
        "3 1 1.0\n"
        "3 2 1.0\n")
    Q, offset = read_matrix_market(sym)
    assert offset == 0.0
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        assert block(Q, i, j) == pytest.approx(1.0)


def test_matrix_market_duplicate_entry(tmp_path):
    path = tmp_path / "dup.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n"
        "1 2 1.0\n"
        "1 2 2.0\n")
    with pytest.raises(ParseError, match="duplicate"):
        read_matrix_market(path)

    path.write_text("%%MatrixMarket matrix coordinate real general\n0 0 0\n")
    with pytest.raises(ParseError, match=":2:"):
        read_matrix_market(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_matrix_market_non_finite_entry(tmp_path, value):
    path = tmp_path / "bad.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n"
        "2 1 1.0\n"
        f"1 2 {value}\n")
    with pytest.raises(ParseError, match=":4: non-finite"):
        read_matrix_market(path)


def test_column_nuclear_sums_cached_once():
    Q = triangle()
    first = Q.column_nuclear_sums()
    assert Q.column_nuclear_sums() is first
    np.testing.assert_allclose(first, [2.0, 2.0, 2.0])
