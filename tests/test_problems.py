import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import (align_blocks, assert_same_matrix, generate_maxcut_loop, triangle,
                      write_edgelist)

from blocksdp import (BlockSparseSym, ParseError, SolverConfig, SyncInstance, certify_global,
                      evaluate_cost, generate_maxcut, generate_rotsync, ground_truth_blocks,
                      read_edgelist, read_instance, solve, sync_to_Q, write_bsm)


def brute_force_min_cost(Q):
    """Minimum of x^T Q x over sign vectors, the d=1 rank-one oracle."""
    Qd = Q.to_dense()
    best = np.inf
    for signs in itertools.product((-1.0, 1.0), repeat=Q.n):
        x = np.array(signs)
        best = min(best, float(x @ Qd @ x))
    return best


def test_empty_graph_gives_empty_instance():
    Q = generate_maxcut(3, 0.01, seed=1)
    assert Q.num_blocks == 0 and Q.n == 3 and Q.d == 1


def test_triangle_graph_matches_reference_instance():
    Q = generate_maxcut(3, 1.0, seed=0)  # the complete graph on 3 vertices
    assert_same_matrix(Q, triangle())
    assert Q.c1() == pytest.approx(2.0) and Q.c2() == pytest.approx(6.0)


def test_graph_validation():
    # The checks a graph's arrays meet on their way into Q, d = 1.
    def edges(*pairs, weight=1.0):
        i, j = np.array(pairs).reshape(-1, 2).T
        return BlockSparseSym.from_arrays(1, 3, i, j, np.full((len(i), 1, 1), weight))

    with pytest.raises(ValueError, match=r"duplicate block \(0,1\)"):
        edges((0, 1), (0, 1))
    for bad in [(1, 1), (1, 0), (0, 3), (-1, 2)]:
        with pytest.raises(ValueError, match="is not 0 <= i < j < n=3"):
            edges(bad)
    with pytest.raises(ValueError, match="non-finite"):
        edges((0, 1), weight=float("nan"))


def test_sync_to_Q_refuses_a_repeated_edge():
    inst = generate_rotsync(4, 2, 1.0, 0.0, seed=1)
    inst.edges.append(inst.edges[2])
    with pytest.raises(ValueError, match="duplicate block"):
        sync_to_Q(inst)
    again = SyncInstance(inst.n, inst.d, inst.edges[:-1], inst.ground_truth, inst.noise)
    assert sync_to_Q(again).num_blocks == len(again.edges)


def test_four_cycle_sdp_is_tight_at_rank_one():
    # bipartite cycle: alternating signs cut every edge; the SDP relaxation
    # attains the rank-one value, certified by the dual matrix
    one = np.ones((1, 1))
    Q = BlockSparseSym(1, 4, {(0, 1): one, (1, 2): one, (2, 3): one, (0, 3): one})
    brute = brute_force_min_cost(Q)
    assert brute == pytest.approx(-8.0)
    report = solve(Q, SolverConfig(rank=2, grad_tol=1e-18, seed=0))
    cert = certify_global(report.point, Q)
    assert cert.verdict == "certified-global"
    assert report.final_cost == pytest.approx(brute, abs=1e-6)


def test_maxcut_generator_deterministic():
    a = generate_maxcut(10, 0.5, seed=2)
    assert_same_matrix(a, generate_maxcut(10, 0.5, seed=2))
    c = generate_maxcut(10, 0.5, seed=3)
    assert a.to_dense().tolist() != c.to_dense().tolist()
    _, _, W = generate_maxcut(10, 0.5, seed=2, weighted=True).upper()
    assert ((0.0 < W) & (W < 1.0)).all()


def test_uniform_draws_in_blocks_equal_scalar_draws():
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    blocks = np.concatenate([a.random(k) for k in (1, 7, 1000, 3)])
    np.testing.assert_array_equal(blocks, [b.random() for _ in range(len(blocks))])


@pytest.mark.parametrize("n,edge_prob,seed,weighted", [
    (2, 1.0, 0, True), (2, 0.5, 1, False), (12, 0.5, 2, True), (40, 0.3, 5, True),
    (80, 0.05, 9, True), (300, 1.0, 3, True), (300, 0.99, 4, True), (400, 0.02, 6, False),
    (500, 0.5, 7, True), (500, 0.5, 7, False),
])
def test_maxcut_generator_matches_scalar_draw_loop(n, edge_prob, seed, weighted):
    # At n=300 and edge_prob near 1 a run of draws below edge_prob crosses the
    # first block of draws, so the pair/weight alternation must carry over.
    Q = generate_maxcut(n, edge_prob, seed, weighted)
    i, j, B = Q.upper()
    assert list(zip(i.tolist(), j.tolist(), B.ravel().tolist())) == generate_maxcut_loop(
        n, edge_prob, seed, weighted)
    assert (Q.d, Q.n) == (1, n)


def test_rotsync_generator_deterministic():
    a = generate_rotsync(6, 3, 0.6, 0.1, seed=4)
    b = generate_rotsync(6, 3, 0.6, 0.1, seed=4)
    assert [(i, j) for i, j, _ in a.edges] == [(i, j) for i, j, _ in b.edges]
    for (_, _, Ra), (_, _, Rb) in zip(a.edges, b.edges):
        np.testing.assert_array_equal(Ra, Rb)
    for Ta, Tb in zip(a.ground_truth, b.ground_truth):
        np.testing.assert_array_equal(Ta, Tb)


@pytest.mark.parametrize("d,noise", [(2, 0.0), (2, 0.3), (3, 0.0), (3, 0.3)])
def test_rotsync_measurements_are_rotations(d, noise):
    inst = generate_rotsync(7, d, 0.7, noise, seed=5)
    for _, _, R in inst.edges:
        np.testing.assert_allclose(R.T @ R, np.eye(d), atol=1e-10)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-10)
    for R in inst.ground_truth:
        np.testing.assert_allclose(R.T @ R, np.eye(d), atol=1e-10)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-10)


def test_rotsync_parameter_validation():
    with pytest.raises(ValueError, match="d=4"):
        generate_rotsync(5, 4, 0.5, 0.0, seed=0)
    with pytest.raises(ValueError):
        generate_rotsync(1, 2, 0.5, 0.0, seed=0)
    with pytest.raises(ValueError):
        generate_rotsync(5, 2, 0.0, 0.0, seed=0)
    with pytest.raises(ValueError):
        generate_rotsync(5, 2, 0.5, -0.1, seed=0)
    with pytest.raises(ValueError, match="connected"):
        generate_rotsync(40, 2, 0.01, 0.0, seed=0, max_attempts=3)


@pytest.mark.parametrize("noise", [float("nan"), float("inf"), -1.0])
def test_rotsync_refuses_a_noise_that_is_not_finite_and_nonnegative(noise):
    with pytest.raises(ValueError,
                       match=f"^noise must be a finite nonnegative number, got {noise}$"):
        generate_rotsync(6, 3, 0.6, noise, seed=0)


def test_import_leaves_csgraph_to_the_rotsync_generator():
    # scipy.sparse.csgraph costs every process about 1 MB; only generate_rotsync loads it.
    probe = ("import sys, blocksdp; loaded = 'scipy.sparse.csgraph' in sys.modules; "
             "blocksdp.generate_rotsync(4, 2, 1.0, 0.0, seed=1); "
             "print(loaded, 'scipy.sparse.csgraph' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.split() == ["False", "True"]


def test_noiseless_ground_truth_attains_minus_d_edges():
    for d, n, seed in [(2, 8, 1), (3, 6, 2)]:
        inst = generate_rotsync(n, d, 0.6, 0.0, seed=seed)
        Q = sync_to_Q(inst)
        cost = evaluate_cost(ground_truth_blocks(inst), Q)
        assert cost == pytest.approx(-d * inst.num_edges, abs=1e-9)


def test_single_edge_instance_reaches_minus_two():
    # At r = d = 2 the mixed-orientation component of O(2) x O(2) is flat
    # (F identically 0), so a random start reaches the optimum only from the
    # right component; the seed below starts in it.
    inst = generate_rotsync(2, 2, 1.0, 0.0, seed=6)
    Q = sync_to_Q(inst)
    report = solve(Q, SolverConfig(rank=2, grad_tol=1e-14, seed=3))
    assert report.final_cost == pytest.approx(-2.0, abs=1e-8)
    cert = certify_global(report.point, Q)
    assert cert.verdict == "certified-global"


def test_align_blocks_removes_global_gauge():
    rng = np.random.default_rng(7)
    inst = generate_rotsync(5, 3, 0.8, 0.0, seed=8)
    truth = ground_truth_blocks(inst)
    gauge = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    rotated = [gauge @ B for B in truth]
    _, err = align_blocks(rotated, truth)
    assert err <= 1e-10


def test_read_instance_bsm_roundtrip(tmp_path):
    Q = triangle()
    path = tmp_path / "tri.bsm"
    write_bsm(Q, path)
    back, offset = read_instance(path, "bsm")
    assert offset == 0.0
    assert_same_matrix(back, Q)


def test_read_instance_edgelist(tmp_path):
    path = tmp_path / "tri.edges"
    path.write_text("1 2 1.0\n2 3 1.0\n1 3 1.0\n")
    Q, offset = read_instance(path, "edgelist")
    assert offset == 0.0
    assert_same_matrix(Q, triangle())


def test_read_edgelist_skips_comments_and_blanks_and_orders_pairs(tmp_path):
    # A reversed pair is the same edge; a zero weight adds no block, yet its
    # index still counts towards n.
    path = tmp_path / "g.edges"
    path.write_text("# a comment\n\n3 1 0.5\n  \n1 2 -2.0\n2 4 0.0\n")
    one = np.ones((1, 1))
    assert_same_matrix(read_edgelist(path),
                       BlockSparseSym(1, 4, {(0, 2): 0.5 * one, (0, 1): -2.0 * one}))


def test_edgelist_roundtrip(tmp_path):
    Q = generate_maxcut(8, 0.5, seed=9, weighted=True)
    path = tmp_path / "g.edges"
    write_edgelist(Q, path)
    assert_same_matrix(read_edgelist(path), Q)


def deep_edges(fault):
    """1200 edge lines 'k k+1 1.5' after a comment and a blank line, with
    fault applied to the edge on line 1001."""
    rows = ["# deep fault", ""] + [f"{k} {k + 1} 1.5" for k in range(1, 1201)]
    rows[1000] = fault(rows[1000])
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("content,lineno,pattern", [
    ("1 2\n", 1, "expected"),
    ("1 2 1.0\n2 2 1.0\n", 2, "self-loop"),
    ("1 2 1.0\n2 1 2.0\n", 2, "duplicate"),
    # A repeated pair, in either orientation, is named at its later line.
    ("1 2 1.0\n2 3 1.0\n1 2 2.0\n", 3, r": duplicate edge \(1,2\)$"),
    ("2 1 1.0\n2 3 1.0\n1 2 2.0\n", 3, r": duplicate edge \(1,2\)$"),
    ("1 3 1.0\n# c\n\n3 1 2.0\n", 4, r": duplicate edge \(1,3\)$"),
    ("3 2 1.0\n2 3 0.0\n", 2, r": duplicate edge \(2,3\)$"),
    ("1 2 x\n", 1, "non-numeric"),
    ("0 2 1.0\n", 1, ">= 1"),
    ("1 2 1.0\n1 99999999999999999999 1.0\n", 2, "fit in int64"),
    ("", 1, "no edges"),
    ("# comment only\n\n", 1, "no edges"),
    *(pytest.param(deep_edges(fault), 1001, pattern, id=f"deep-{kind}") for kind, fault, pattern in [
        ("non-numeric", lambda row: row.replace("1.5", "x"), "non-numeric"),
        ("non-finite", lambda row: row.replace("1.5", "nan"), "non-finite weight 'nan'"),
        ("field-count", lambda row: row + " 2.5", "expected 'i j w'"),
        ("index-range", lambda row: "0 5 1.5", ">= 1"),
        ("duplicate", lambda row: "2 1 1.5", r"duplicate edge \(1,2\)"),
    ]),
])
def test_edgelist_parse_errors(tmp_path, content, lineno, pattern):
    path = tmp_path / "bad.edges"
    path.write_text(content)
    with pytest.raises(ParseError, match=pattern) as err:
        read_edgelist(path)
    assert f":{lineno}:" in str(err.value)


@pytest.mark.parametrize("content,lineno,index", [
    ("1 2 1.0\n1 3037000500 1.0\n2 3 1.0\n", 2, 3037000500),
    ("3037000501 1 1.0\n# c\n3037000500 2 1.0\n", 1, 3037000501),  # the largest index
])
def test_edgelist_index_past_the_sort_key_bound_is_a_parse_error(tmp_path, no_construction,
                                                                  content, lineno, index):
    path = tmp_path / "big.edges"
    path.write_text(content)
    with pytest.raises(ParseError) as err:
        read_edgelist(path)
    assert str(err.value) == f"{path}:{lineno}: index {index} exceeds the sort-key bound 3037000499"


def test_write_edgelist_golden_text(tmp_path):
    # The weights of Q, numpy floats, are written as plain floats, so the file reads back.
    one = np.ones((1, 1))
    Q = BlockSparseSym(1, 4, {(0, 1): (0.1 + 0.2) * one, (1, 3): 2.0 * one, (0, 3): 1e-05 * one})
    path = tmp_path / "g.edges"
    write_edgelist(Q, path)
    assert path.read_text() == "1 2 0.30000000000000004\n1 4 1e-05\n2 4 2.0\n"
    assert_same_matrix(read_edgelist(path), Q)


def test_read_instance_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="unknown instance format"):
        read_instance(tmp_path / "x.bsm", "hdf5")


def test_maxcut_bound_direction():
    # BCM iterates stay above the SDP optimum, which lies below the best
    # sign-vector cost (n small enough to enumerate)
    rng = np.random.default_rng(10)
    for seed in range(3):
        Q = generate_maxcut(8, 0.6, seed=seed, weighted=True)
        brute = brute_force_min_cost(Q)
        report = solve(Q, SolverConfig(rank=4, grad_tol=1e-18, seed=seed))
        cert = certify_global(report.point, Q)
        costs = [r.cost for r in report.records] + [report.final_cost]
        if cert.verdict == "certified-global":
            sdp_opt = report.final_cost
            assert sdp_opt <= brute + 1e-8
            assert all(c >= sdp_opt - 1e-8 for c in costs)
        else:
            assert report.final_cost <= brute + 1e-8
