"""Smoke test of the benchmark harness on tiny instances.

Runs in-process, so it needs `blocksdp` importable (e.g. PYTHONPATH=src).
"""

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from blocksdp import bcm  # noqa: E402

import pipeline  # noqa: E402
from refclock import ReferenceClock  # noqa: E402
from workloads import WORKLOADS, instances, maxcut_edges  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {name: (replace(w, n=24, instances=2, tol=1.0) if w.problem == "rotsync"
               else replace(w, n=60, degree=6, rank=4, tol=1e-3))
        for name, w in WORKLOADS.items()}


def test_workload_table_matches_benchmark_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == [BENCH_DIR.name]


def test_maxcut_edges_seeded_and_simple():
    rows, cols = maxcut_edges(500, 10, seed=3)
    again = maxcut_edges(500, 10, seed=3)
    assert np.array_equal(rows, again[0]) and np.array_equal(cols, again[1])
    assert len(rows) == 2500 and (rows < cols).all()
    assert len(set(zip(rows.tolist(), cols.tolist()))) == 2500
    assert not np.array_equal(rows, maxcut_edges(500, 10, seed=4)[0])


def test_instance_seeds_are_distinct_across_benchmark_seeds():
    w = WORKLOADS["rotsync-check1"]
    assert len(set(w.seeds(1)) | set(w.seeds(2))) == 2 * w.instances


def test_reference_clock_leaves_probes_out_of_wall_time():
    with ReferenceClock(interval_s=0.01) as clock:
        t_a = clock.now()
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        t_b = clock.now()
    assert len(clock.starts) >= 5
    assert 0.0 < clock.wall(t_a, t_b) < t_b - t_a
    assert clock.reference(t_a, t_b) > 0.0


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_reports_end_to_end_metrics(name, tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "PHASE_MIN_S", 0.05)
    w = TINY[name]
    items = instances(w, 5, cache_dir=tmp_path)
    assert len(items) == w.instances
    result = pipeline.measure(w, items, 5, seconds=0.5, trace=False, out_dir=tmp_path / "out")
    assert len(result["passes"]) >= pipeline.MIN_PASSES
    assert result["setups"] >= len(result["passes"])
    assert result["failed"] == 0, [c for c in result["checks"] if not c["passed"]]
    names = {c["check"] for c in result["checks"]}
    assert {"replay fingerprint repeats", "lambda_min repeats"} <= names
    metrics = result["end_to_end"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(value > 0 for value, _ in metrics.values())
    assert metrics["iters_to_tol"][0] == result["fingerprint"]["iters_to_tol"]


def test_overstated_lambda_min_fails_the_dual_bound_check(tmp_path):
    w = TINY["maxcut-uniform"]
    r = pipeline.run_pipeline(w, instances(w, 3, cache_dir=tmp_path), tmp_path / "out", 0.0)
    name = "lambda_min not overstated, so the dual lower bound holds"
    assert dict(pipeline.output_checks(w, [r]))[name]
    out = r["outputs"][0]
    out["lambda_min"] = out["lambda_ceiling"] + 1.0
    assert not dict(pipeline.output_checks(w, [r]))[name]


def test_traced_run_reports_every_layer_and_restores_library(tmp_path):
    w = TINY["maxcut-importance"]
    original = bcm.bcm_step
    result = pipeline.measure(w, instances(w, 2, cache_dir=tmp_path), 2, seconds=0, trace=True,
                              out_dir=tmp_path / "out")
    assert bcm.bcm_step is original
    assert result["failed"] == 0, [c for c in result["checks"] if not c["passed"]]
    layers = result["per_layer"]
    assert list(layers) == [m["name"] for m in SPEC["per_layer"]]
    iters = result["fingerprint"]["iters_to_tol"]
    assert layers["bcm.bcm_step.calls"][0] == iters
    assert layers["bcm.sample_block.calls"][0] == iters
    assert 0.5 < layers["trace.coverage"][0] <= 1.0


def test_run_outside_a_source_checkout_fails_without_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "maxcut-uniform",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
