import csv
import hashlib
import json
import math
import os
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import random_stiefel, triangle

import blocksdp
from blocksdp import (BlockSparseSym, analysis, evaluate_cost, read_yfactor, write_bsm,
                      write_yfactor)
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
    write_yfactor([random_stiefel(2, 1, rng) for _ in range(3)], sol)
    code, out, _ = run(capsys, ["verify", "--input", str(inst), "--solution", str(sol)])
    assert code == 1
    assert json.loads(out)["certificate"]["verdict"] == "not-stationary"


@pytest.mark.parametrize("seed,verdicts", [
    (1, ["first-order-only", "certified-global"]),
    (3, ["certified-global", "certified-global"]),
])
def test_solve_exit_zero_passes_the_stationarity_test(tmp_path, capsys, seed, verdicts):
    # solve --tol and verify's stationarity test bound the same squared
    # gradient norm, and the default cert_tol 1e-8 * (1 + ||Q||_F) is at
    # least solve's default --tol, so an exit 0 is never not-stationary.  At
    # a certified point, cost - lower_bound <= dn * cert_tol.
    inst = tmp_path / "sync.bsm"
    code, _, _ = run(capsys, ["generate", "rotsync", "--n", "30", "--d", "3", "--edge-prob",
                              "0.3", "--noise", "1.5", "--seed", str(seed), "--output", str(inst)])
    assert code == 0
    seen = []
    for rank, tol in (("3", "1e-8"), ("5", "1e-10")):
        sol = tmp_path / f"rank{rank}.yf"
        code, _, _ = run(capsys, ["solve", "--input", str(inst), "--rank", rank, "--tol", tol,
                                  "--solution", str(sol)])
        assert code == 0
        code, out, _ = run(capsys, ["verify", "--input", str(inst), "--solution", str(sol)])
        doc = json.loads(out)
        cert = doc["certificate"]
        assert cert["grad_norm_sq"] <= float(tol) <= cert["cert_tol"]
        assert code == (0 if cert["verdict"] == "certified-global" else 1)
        if cert["verdict"] == "certified-global":
            dn = doc["instance"]["d"] * doc["instance"]["n"]
            assert doc["cost"] - cert["lower_bound"] <= dn * cert["cert_tol"]
        seen.append(cert["verdict"])
    assert seen == verdicts


def test_solve_has_no_stall_rtol_flag(tmp_path, capsys):
    inst = write_triangle(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--input", str(inst), "--rank", "2", "--stall-rtol", "1e-16"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --stall-rtol 1e-16" in capsys.readouterr().err


def test_verify_dimension_mismatch(tmp_path, capsys):
    inst = write_triangle(tmp_path)
    sol = tmp_path / "wrong.yf"
    rng = np.random.default_rng(4)
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


@pytest.mark.parametrize("argv,message", [
    (["verify", "--cert-tol", "inf"], "cert_tol must be finite and positive, got inf"),
    (["verify", "--cert-tol", "nan"], "cert_tol must be finite and positive, got nan"),
    (["verify", "--cert-tol", "0"], "cert_tol must be finite and positive, got 0.0"),
    (["verify", "--cert-tol", "-1"], "cert_tol must be finite and positive, got -1.0"),
    (["solve", "--rank", "3", "--tol", "nan"], "grad_tol must be positive, got nan"),
    (["solve", "--rank", "3", "--tol", "nan", "--max-iters", "50"],
     "grad_tol must be positive, got nan"),
    (["bench", "--rank", "3", "--fstar", "nan", "--trials", "1"],
     "lower bound fstar must be a number below inf, got nan"),
])
def test_tolerances_that_are_not_positive_numbers_are_refused(tmp_path, capsys, argv, message):
    # A random rank-3 factor is far from stationary (squared gradient norm 87.8,
    # lambda_min -4.33): an infinite cert_tol would certify it.
    inst, sol = tmp_path / "g.bsm", tmp_path / "y.yf"
    run(capsys, ["generate", "maxcut", "--n", "12", "--edge-prob", "0.5", "--seed", "2",
                 "--output", str(inst)])
    rng = np.random.default_rng(0)
    write_yfactor([random_stiefel(3, 1, rng) for _ in range(12)], sol)
    code, out, _ = run(capsys, ["verify", "--input", str(inst), "--solution", str(sol)])
    assert code == 1 and json.loads(out)["certificate"]["verdict"] == "not-stationary"
    extra = ["--solution", str(sol)] if argv[0] == "verify" else []
    code, out, err = run(capsys, [argv[0], "--input", str(inst), *extra, *argv[1:]])
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("fstar", ["nan", "inf", "-inf"])
def test_bench_refuses_fstar_before_any_solve(tmp_path, capsys, monkeypatch, fstar):
    # -inf is a valid lower bound, but it bounds no iteration count, cap or not.
    inst = write_triangle(tmp_path)
    solves = []
    monkeypatch.setattr(blocksdp.bcm, "solve", lambda *a, **k: solves.append(a))
    code, out, err = run(capsys, ["bench", "--input", str(inst), "--rank", "2",
                                  f"--fstar={fstar}", "--trials", "5", "--max-iters", "100"])
    assert (code, out, solves) == (1, "", [])
    rule = "must be finite to bound the iterations" if fstar == "-inf" else "must be a number below inf"
    assert err == f"error: lower bound fstar {rule}, got {fstar}\n"


@pytest.mark.parametrize("option,value,message", [
    ("--tol", "nan", "grad_tol must be positive, got nan"),
    ("--tol", "0", "grad_tol must be positive, got 0.0"),
    ("--rank", "0", "rank 0 smaller than block dimension 1"),
    ("--max-iters", "0", "max_iters must be >= 1, got 0"),
])
def test_bench_refuses_trial_settings_before_any_solve(tmp_path, capsys, monkeypatch,
                                                       option, value, message):
    # The trials' settings are validated before the first trial's solve.
    inst = write_triangle(tmp_path)
    solves = []
    monkeypatch.setattr(blocksdp.bcm, "solve", lambda *a, **k: solves.append(a))
    options = {"--rank": "2", "--trials": "5", option: value}
    code, out, err = run(capsys, ["bench", "--input", str(inst),
                                  *(x for item in options.items() for x in item)])
    assert (code, out, solves) == (1, "", [])
    assert err == f"error: {message}\n"


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


def test_bsm_dimension_beyond_int64_is_a_parse_error(tmp_path):
    inst = tmp_path / "huge.bsm"
    inst.write_text("BSM 1 99999999999999999999 1\n1 99999999999999999998 1.0\n")
    src = str(Path(blocksdp.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "blocksdp.cli", "solve", "--input", str(inst),
                           "--rank", "2"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and f"{inst}:1:" in proc.stderr


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
    ("BSM 1 3 2\n1 2 1e150\n1 3 1e150\n", ["--tol", "1e-10"]),  # admitted: 4 C1 C2 is finite
    ("BSM 1 3 2\n1 2 1.0\n2 3 1.0\n", ["--tol", "1e-320"]),
])
def test_overflowing_iteration_bound_is_an_error(tmp_path, capsys, content, extra):
    inst = tmp_path / "q.bsm"
    inst.write_text(content)
    code, out, err = run(capsys, ["solve", "--input", str(inst), "--rank", "2", *extra])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--max-iters" in err


@pytest.mark.parametrize("extra", [[], ["--max-iters", "10"]])
def test_block_norms_past_the_float_range_are_an_error(tmp_path, capsys, extra):
    # C1, C2 and F0 overflow: refused with or without a cap, and without a warning.
    inst = tmp_path / "q.bsm"
    inst.write_text("BSM 1 3 2\n1 2 1e308\n1 3 1e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["solve", "--input", str(inst), "--rank", "2",
                                      "--sampling", "importance", *extra])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "float range" in err


def test_verify_refuses_block_norms_past_the_float_range(tmp_path, capsys):
    # The same instance with a feasible solution: verify refuses it before any
    # coupling is formed, so no numpy warning precedes the one error line.
    inst, sol = tmp_path / "q.bsm", tmp_path / "w.yf"
    inst.write_text("BSM 1 3 2\n1 2 1e308\n1 3 1e308\n")
    write_yfactor(np.array([[[1.0], [0.0]], [[0.0], [1.0]], [[1.0], [0.0]]]), sol)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["verify", "--input", str(inst), "--solution", str(sol)])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "float range" in err and err.count("\n") == 1


@pytest.mark.parametrize("yfactor", [
    "YFACTOR 2 1 3\n1\n0\n0\n1\n1\n0\n",
    "YFACTOR 2 1 3\n2\n0\n0\n1\n1\n0\n",  # residual 2^2 - 1
    "YFACTOR 2 1 3\n1e200\n0\n0\n1\n1\n0\n",  # past the float range
], ids=["feasible", "infeasible", "past-range"])
def test_verify_refuses_a_solution_past_the_float_range(tmp_path, capsys, yfactor):
    # The instance passes Q's own check (4 C1 C2 = 3.2e301), so the solution's
    # norm decides: ||Y_1||_2 = 1e200 would overflow the couplings' products.
    inst, sol = tmp_path / "q.bsm", tmp_path / "y.yf"
    inst.write_text("BSM 1 3 2\n1 2 1e150\n1 3 1e150\n")
    sol.write_text(yfactor)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["verify", "--input", str(inst), "--solution", str(sol)])
    assert code == 1  # neither of the admitted solutions is certified
    if "1e200" in yfactor:
        assert out == ""
        assert err == "error: solution past the float range: max_i ||Y_i||_2 = 1e+200\n"
    else:
        assert err == ""
        assert json.loads(out)["feasibility_residual"] == (3.0 if "\n2\n" in yfactor else 0.0)


# The generate maxcut report and file of two graphs: total_weight sums the
# weights in generation order and prints as a float on the empty graph too.
GENERATE_GOLDEN = [
    (["--n", "12", "--edge-prob", "0.5", "--seed", "2", "--weighted"], 12, 35,
     "16.735310840612375", "1f626ebe6323ed23ce8ee8f1b77670476009f240072806a974d483881118da9c"),
    (["--n", "2", "--edge-prob", "0.01", "--seed", "1"], 2, 0, "0.0",
     "aba15796268d83d38f15e81b0744330af1cd09bc7cc8141722fd5b738dae23e6"),
]


@pytest.mark.parametrize("args,n,edges,total,digest", GENERATE_GOLDEN)
def test_generate_maxcut_golden(tmp_path, capsys, args, n, edges, total, digest):
    out = tmp_path / "g.bsm"
    code, text, _ = run(capsys, ["generate", "maxcut", *args, "--output", str(out)])
    assert code == 0
    assert text == (f'{{\n  "kind": "maxcut",\n  "n": {n},\n  "edges": {edges},\n'
                    f'  "total_weight": {total},\n  "output": {json.dumps(str(out))}\n}}\n')
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# The SHA-256 of a `solve --log` file with each line's wall_ns removed: a
# uniform run (batched conflict-free runs, every second step logged) and an
# importance run, each with gradient checks inside the log.
SOLVE_LOG_GOLDEN = [
    (["--n", "60", "--edge-prob", "0.05", "--seed", "6"],
     ["--sampling", "uniform", "--max-iters", "400", "--check-period", "25",
      "--refresh-period", "90", "--log-every", "2"],
     "5f14697f933bbc430471a1e1514f6bf8f91ddb1bf8fdc709fb5d4d69c38cf824"),
    (["--n", "12", "--edge-prob", "0.5", "--seed", "2", "--weighted"],
     ["--sampling", "importance", "--tol", "1e-9", "--check-period", "7"],
     "b394246e96adb331fd6b3b3b21b9fe4d71d84ed48ad23c1a67d7551428b6b56c"),
]


@pytest.mark.parametrize("graph,options,digest", SOLVE_LOG_GOLDEN)
def test_solve_log_golden(tmp_path, capsys, graph, options, digest):
    inst, log = tmp_path / "g.bsm", tmp_path / "run.jsonl"
    assert run(capsys, ["generate", "maxcut", *graph, "--output", str(inst)])[0] == 0
    run(capsys, ["solve", "--input", str(inst), "--rank", "3", "--seed", "4", *options,
                 "--log", str(log)])
    lines, found = zip(*(re.subn(rb', "wall_ns": \d+}\n$', b"}\n", line)
                         for line in log.read_bytes().splitlines(keepends=True)))
    assert set(found) == {1}
    assert hashlib.sha256(b"".join(lines)).hexdigest() == digest


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


@pytest.mark.parametrize("noise", ["nan", "inf", "-1"])
def test_generate_rotsync_refuses_a_noise_that_is_not_finite(tmp_path, capsys, noise):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, ["generate", "rotsync", "--n", "6", "--d", "3",
                                      "--edge-prob", "0.6", "--noise", noise, "--output",
                                      str(tmp_path / "x.bsm")])
    expected = f"error: noise must be a finite nonnegative number, got {float(noise)}\n"
    assert (code, out, err) == (1, "", expected)
    assert not (tmp_path / "x.bsm").exists()


def test_bench_triangle(tmp_path, capsys):
    inst = write_triangle(tmp_path)
    csv_path = tmp_path / "bench.csv"
    code, out, _ = run(capsys, [
        "bench", "--input", str(inst), "--rank", "2", "--tol", "1e-4",
        "--trials", "3", "--seed", "1", "--output", str(csv_path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"] == 0
    assert doc["k_importance"] <= doc["k_uniform"]
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 1 + 2 * 3  # header + schemes x trials
    assert lines[0].startswith("scheme,seed,f0,")
    # F* is the largest of the trials' certificate bounds, at or below the
    # triangle's SDP optimum -3.
    bounds = [float(row["lower_bound"]) for row in csv.DictReader(lines)]
    assert doc["fstar_source"] == "trials"
    assert doc["fstar"] == max(bounds) <= -3.0
    # Every bound is the paper's, from the triangle's d = 1, n = 3, C1 = 2 and C2 = 6:
    # 2 d n C1 = 12 uniform, 2 d C2 = 12 importance.
    def by_hand(scheme, f0):
        rate = {"uniform": 2.0 * 1 * 3 * 2.0, "importance": 2.0 * 1 * 6.0}[scheme]
        return math.ceil(rate * (max(f0, doc["fstar"]) - doc["fstar"]) / 1e-4)
    rows = list(csv.DictReader(lines))
    for row in rows:
        assert int(row["k_bound"]) == by_hand(row["scheme"], float(row["f0"]))
    worst_f0 = max(float(row["f0"]) for row in rows)
    assert doc["k_uniform"] == by_hand("uniform", worst_f0)
    assert doc["k_importance"] == by_hand("importance", worst_f0)


def test_bench_fstar_is_the_trials_largest_lower_bound(tmp_path, capsys, monkeypatch):
    # Without --fstar, each trial certifies its final point once, its row
    # carries that certificate's lower bound, and F* is the largest of them:
    # at or below each trial's cost and the triangle's SDP optimum -3.
    inst = write_triangle(tmp_path)
    seen = []
    certify = analysis.certify_global

    def recording(point, Q, cert_tol=None):
        cert = certify(point, Q, cert_tol)
        seen.append((cert, evaluate_cost(point.blocks, Q)))
        return cert

    monkeypatch.setattr(analysis, "certify_global", recording)
    code, out, _ = run(capsys, ["bench", "--input", str(inst), "--rank", "2",
                                "--tol", "1e-4", "--trials", "2"])
    assert code == 0
    doc = json.loads(out)
    assert len(seen) == len(doc["rows"]) == 2 * 2
    assert [row["lower_bound"] for row in doc["rows"]] == [cert.lower_bound for cert, _ in seen]
    assert all(cert.lower_bound <= cost for cert, cost in seen)
    assert doc["fstar_source"] == "trials"
    assert doc["fstar"] == max(cert.lower_bound for cert, _ in seen) <= -3.0
    # A supplied F* is used as given; the rows still carry their bounds.
    code, out, _ = run(capsys, ["bench", "--input", str(inst), "--rank", "2",
                                "--tol", "1e-4", "--trials", "2", "--fstar", "-4"])
    assert code == 0
    doc = json.loads(out)
    assert (doc["fstar"], doc["fstar_source"]) == (-4.0, "supplied")
    assert all(row["lower_bound"] <= row["final_cost"] for row in doc["rows"])


def test_bench_solves_one_eigenproblem_per_trial(tmp_path, capsys, monkeypatch):
    # The eigenvalue is shifted down by 1: no trial's point certifies, and F*
    # follows the shifted bounds F(Y) + dn * min(lambda_min, 0), one
    # eigen-solve per trial.
    inst = write_triangle(tmp_path)
    calls = []
    solve_eig = analysis._smallest_eigenvalue

    def shifted(S, eps):
        lam, lam_residual, converged = solve_eig(S, eps)
        calls.append(lam)
        return lam - 1.0, lam_residual, converged

    monkeypatch.setattr(analysis, "_smallest_eigenvalue", shifted)
    code, out, _ = run(capsys, ["bench", "--input", str(inst), "--rank", "2",
                                "--tol", "1e-4", "--trials", "3"])
    assert code == 0
    doc = json.loads(out)
    assert len(calls) == 2 * 3
    assert doc["fstar_source"] == "trials"
    shifted_bounds = [row["final_cost"] + 3 * min(lam - 1.0, 0.0)
                      for row, lam in zip(doc["rows"], calls)]
    assert doc["fstar"] == pytest.approx(max(shifted_bounds), abs=1e-12)
    assert doc["fstar"] <= -4.0  # the shift lowers each bound by about dn = 3


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
