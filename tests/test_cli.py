import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import triangle

import blocksdp
from blocksdp import BlockSparseSym, analysis, read_yfactor, write_bsm, write_yfactor
from blocksdp.cli import main


def write_triangle(tmp_path):
    path = tmp_path / "triangle.bsm"
    write_bsm(triangle(), path)
    return path


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_triangle_end_to_end(tmp_path, capsys):
    inst = write_triangle(tmp_path)
    sol = tmp_path / "sol.yf"
    log = tmp_path / "run.jsonl"
    rep = tmp_path / "report.json"
    code, out, _ = run(capsys, [
        "solve", "--input", str(inst), "--rank", "2", "--sampling", "importance",
        "--tol", "1e-10", "--seed", "7", "--solution", str(sol),
        "--log", str(log), "--report", str(rep)])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["final_cost"] == pytest.approx(-3.0, abs=1e-6)
    assert doc["result"]["termination"] == "tolerance"
    assert doc["config"]["seed"] == 7
    assert doc["instance"]["c1"] == pytest.approx(2.0)

    on_disk = json.loads(rep.read_text())
    assert on_disk == doc

    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert records, "iteration log should not be empty"
    for r in records:
        assert set(r) == {"k", "cost", "block", "pred_descent", "meas_descent",
                          "grad_norm_sq", "wall_ns"}
    blocks = read_yfactor(sol)
    assert len(blocks) == 3 and blocks[0].shape == (2, 1)


def test_solve_zero_instance_exits_clean(tmp_path, capsys):
    path = tmp_path / "zero.bsm"
    path.write_text("BSM 2 3 0\n")
    code, out, _ = run(capsys, ["solve", "--input", str(path), "--rank", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["iterations"] == 0
    assert doc["result"]["final_grad_norm_sq"] == 0.0


def test_solve_missing_input(tmp_path, capsys):
    missing = tmp_path / "nope.bsm"
    code, _, err = run(capsys, ["solve", "--input", str(missing), "--rank", "2"])
    assert code == 1
    assert str(missing) in err


def test_solve_max_iters_exit_code(tmp_path, capsys):
    inst = write_triangle(tmp_path)
    code, out, _ = run(capsys, [
        "solve", "--input", str(inst), "--rank", "2", "--tol", "1e-12",
        "--max-iters", "3", "--seed", "0"])
    assert code == 2


def test_solve_stalled_exit_code(tmp_path, capsys):
    # unreachable tolerance; this seed's measured gradient floor stays
    # positive, so the run ends in a confirmed stall (other seeds clamp the
    # floor to exactly zero and exit on tolerance instead)
    inst = write_triangle(tmp_path)
    code, out, _ = run(capsys, [
        "solve", "--input", str(inst), "--rank", "2", "--tol", "1e-22",
        "--seed", "1"])
    assert code == 3
    assert json.loads(out)["result"]["termination"] == "stalled"


def test_verify_certified_solution(tmp_path, capsys):
    inst = write_triangle(tmp_path)
    sol = tmp_path / "sol.yf"
    code, _, _ = run(capsys, [
        "solve", "--input", str(inst), "--rank", "2", "--tol", "1e-18",
        "--seed", "5", "--solution", str(sol)])
    assert code in (0, 3)  # tolerance or fully-polished stall
    code, out, _ = run(capsys, ["verify", "--input", str(inst), "--solution", str(sol)])
    doc = json.loads(out)
    assert code == 0
    assert doc["certificate"]["verdict"] == "certified-global"
    assert doc["feasibility_residual"] <= 1e-10
    assert doc["cost"] == pytest.approx(-3.0, abs=1e-8)
    assert doc["grad_norm_sq_fast"] == pytest.approx(doc["certificate"]["grad_norm_sq"],
                                                     abs=1e-12)
    assert "grad_norm_sq_oracle" not in doc
    assert doc["certificate"]["lower_bound"] <= doc["cost"]
    assert doc["certificate"]["lower_bound"] == pytest.approx(-3.0, abs=1e-8)


def test_verify_corrupted_solution(tmp_path, capsys):
    inst = write_triangle(tmp_path)
    sol = tmp_path / "sol.yf"
    run(capsys, ["solve", "--input", str(inst), "--rank", "2", "--tol", "1e-18",
                 "--seed", "5", "--solution", str(sol)])
    blocks = read_yfactor(sol)
    blocks[0][:, 0] *= 1.1
    write_yfactor(blocks, sol)
    code, out, _ = run(capsys, ["verify", "--input", str(inst), "--solution", str(sol)])
    assert code == 1
    doc = json.loads(out)
    assert doc["feasibility_residual"] == pytest.approx(0.21, abs=1e-9)
    assert doc["certificate"]["verdict"] != "certified-global"


def test_verify_non_stationary_solution(tmp_path, capsys):
    inst = write_triangle(tmp_path)
    sol = tmp_path / "rand.yf"
    rng = np.random.default_rng(3)
    from blocksdp import random_stiefel
    write_yfactor([random_stiefel(2, 1, rng) for _ in range(3)], sol)
    code, out, _ = run(capsys, ["verify", "--input", str(inst), "--solution", str(sol)])
    assert code == 1
    assert json.loads(out)["certificate"]["verdict"] == "not-stationary"


def test_verify_dimension_mismatch(tmp_path, capsys):
    inst = write_triangle(tmp_path)
    sol = tmp_path / "wrong.yf"
    rng = np.random.default_rng(4)
    from blocksdp import random_stiefel
    write_yfactor([random_stiefel(2, 1, rng) for _ in range(4)], sol)
    code, _, err = run(capsys, ["verify", "--input", str(inst), "--solution", str(sol)])
    assert code == 1
    assert "n=3" in err


def test_verify_empty_solution_file(tmp_path, capsys):
    inst = write_triangle(tmp_path)
    sol = tmp_path / "empty.yf"
    sol.write_text("YFACTOR 2 1 0\n")
    code, _, err = run(capsys, ["verify", "--input", str(inst), "--solution", str(sol)])
    assert code == 1
    assert "error:" in err


def test_non_finite_solution_file_is_a_parse_error(tmp_path, capsys):
    inst = tmp_path / "edge.bsm"
    write_bsm(BlockSparseSym(1, 2, {(0, 1): np.array([[1.0]])}), inst)
    sol = tmp_path / "inf.yf"
    sol.write_text("YFACTOR 1 1 2\ninf\n1.0\n")
    code, out, err = run(capsys, ["verify", "--input", str(inst), "--solution", str(sol)])
    assert code == 1
    assert out == ""
    assert "error:" in err and f"{sol}:2:" in err
    code, out, err = run(capsys, ["solve", "--input", str(inst), "--rank", "1",
                                  "--warm-start", str(sol)])
    assert code == 1
    assert "error:" in err and f"{sol}:2:" in err


def test_edgelist_index_beyond_int64_is_a_parse_error(tmp_path, capsys):
    inst = tmp_path / "huge.edges"
    inst.write_text("1 2 1.0\n1 99999999999999999999 1.0\n")
    code, out, err = run(capsys, ["solve", "--input", str(inst), "--format", "edgelist",
                                  "--rank", "2"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and f"{inst}:2:" in err


def test_edgelist_index_beyond_memory_is_an_error(tmp_path):
    # An index that fits in int64 sizes an n-long array; under a 2 GiB
    # address-space limit the allocation fails at once instead of paging.
    inst = tmp_path / "big.edges"
    inst.write_text("1 2 1.0\n1 99999999999 1.0\n")
    src = str(Path(blocksdp.__file__).resolve().parent.parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    limit = 2 * 1024 ** 3
    proc = subprocess.run(
        [sys.executable, "-m", "blocksdp.cli", "solve", "--input", str(inst),
         "--format", "edgelist", "--rank", "2"],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:")


@pytest.mark.parametrize("content,extra", [
    ("BSM 1 3 2\n1 2 1e308\n1 3 1e308\n", []),      # C1, C2 and F0 overflow
    ("BSM 1 3 2\n1 2 1.0\n2 3 1.0\n", ["--tol", "1e-320"]),
])
def test_overflowing_iteration_bound_is_an_error(tmp_path, capsys, content, extra):
    inst = tmp_path / "q.bsm"
    inst.write_text(content)
    code, out, err = run(capsys, ["solve", "--input", str(inst), "--rank", "2", *extra])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--max-iters" in err


def test_generate_maxcut_deterministic(tmp_path, capsys):
    a = tmp_path / "a.bsm"
    b = tmp_path / "b.bsm"
    for out in (a, b):
        code, _, _ = run(capsys, ["generate", "maxcut", "--n", "10",
                                  "--edge-prob", "0.5", "--seed", "2",
                                  "--output", str(out)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_rotsync_with_sidecar(tmp_path, capsys):
    out = tmp_path / "sync.bsm"
    code, text, _ = run(capsys, ["generate", "rotsync", "--n", "6", "--d", "3",
                                 "--edge-prob", "0.6", "--noise", "0",
                                 "--seed", "1", "--output", str(out)])
    assert code == 0
    info = json.loads(text)
    assert out.exists()
    truth = read_yfactor(info["truth"])
    assert len(truth) == 6 and truth[0].shape == (3, 3)


def test_generate_rotsync_bad_dimension(tmp_path, capsys):
    code, _, err = run(capsys, ["generate", "rotsync", "--n", "6", "--d", "4",
                                "--edge-prob", "0.6", "--output",
                                str(tmp_path / "x.bsm")])
    assert code == 1
    assert "d=4" in err


def test_bench_triangle(tmp_path, capsys):
    inst = write_triangle(tmp_path)
    csv_path = tmp_path / "bench.csv"
    code, out, _ = run(capsys, [
        "bench", "--input", str(inst), "--rank", "2", "--tol", "1e-4",
        "--trials", "3", "--seed", "1", "--output", str(csv_path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"] == 0
    assert doc["fstar_source"] in ("certified", "dual-bound")
    assert doc["fstar"] == pytest.approx(-3.0, abs=1e-6)
    assert doc["k_importance"] <= doc["k_uniform"]
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 1 + 2 * 3  # header + schemes x trials
    assert lines[0].startswith("scheme,seed,f0,")


def test_bench_solves_one_eigenproblem_per_fstar(tmp_path, capsys, monkeypatch):
    # The eigenvalue is shifted down by 1, so the full-rank point is not
    # certified and F* comes from the dual bound of the same eigen-solve.
    inst = write_triangle(tmp_path)
    calls = []
    solve_eig = analysis._smallest_eigenvalue

    def shifted(S):
        lam, converged = solve_eig(S)
        calls.append(lam)
        return lam - 1.0, converged

    monkeypatch.setattr(analysis, "_smallest_eigenvalue", shifted)
    code, out, _ = run(capsys, ["bench", "--input", str(inst), "--rank", "2",
                                "--tol", "1e-4", "--trials", "1"])
    assert code == 0
    doc = json.loads(out)
    assert len(calls) == 1
    assert doc["fstar_source"] == "dual-bound"
    # F(Y) + dn * min(lambda_min, 0) at the full-rank optimum -3
    assert doc["fstar"] == pytest.approx(-3.0 + 3 * min(calls[0] - 1.0, 0.0), abs=1e-6)


def test_solve_rerun_reproduces_report(tmp_path, capsys):
    inst = write_triangle(tmp_path)
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, [
            "solve", "--input", str(inst), "--rank", "2", "--tol", "1e-10",
            "--seed", "11", "--sampling", "importance"])
        assert code == 0
        doc = json.loads(out)
        outputs.append((doc["result"]["iterations"], doc["result"]["final_cost"],
                        doc["result"]["f0"]))
    assert outputs[0] == outputs[1]


def test_format_inference_error(tmp_path, capsys):
    weird = tmp_path / "instance.dat"
    weird.write_text("BSM 1 2 0\n")
    code, _, err = run(capsys, ["solve", "--input", str(weird), "--rank", "1"])
    assert code == 1
    assert "--format" in err
    code, out, _ = run(capsys, ["solve", "--input", str(weird), "--rank", "1",
                                "--format", "bsm"])
    assert code == 0
