"""One benchmark process: the `blocksdp solve` + `blocksdp verify` pipeline,
timed phase by phase, repeated on a workload's instances, with its outputs
checked.

Run by `run.py` in a fresh process whose BLAS thread count is fixed through
the environment; prints one JSON document on its last stdout line.  A pass
runs each phase over all of the workload's instances in turn.  The pipeline
calls the library's public functions through their modules, so a `Tracer`
that wraps module attributes sees every call:

    setup   problems.read_instance, Q.c1(), Q.c2()
    solve   bcm.solve
    write   stiefel.write_yfactor, the JSONL log from LogRecord.to_dict,
            the JSON report
    verify  stiefel.read_yfactor (raw), FactorPoint.from_blocks,
            analysis.sdp_lift_check, analysis.grad_norm_sq_fast,
            stiefel.riemannian_grad_oracle, analysis.certify_global

`blocksdp verify` parses the instance again; here verify reuses the parsed
instance, whose parse time `setup_s` already measures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse.linalg  # noqa: F401  (imported lazily by certify_global; load before timing)

from blocksdp import analysis, bcm, blockmat, problems, stiefel

from refclock import ReferenceClock
from tracer import Tracer, targets
from workloads import WORKLOADS, Workload, instances

# Each untraced run makes at least this many passes, so that every run
# checks that a pass replays the first one exactly.
MIN_PASSES = 2
# Cheap phases (setup, write, verify) are repeated within a pass until they
# have taken this long, so their medians rest on many samples; the first
# execution is the one the pipeline uses.
PHASE_MIN_S = 0.6
# Relative agreement demanded of lambda_min between runs of the same point:
# eigsh starts from a random vector, so the last digits differ.
LAMBDA_RTOL = 1e-9
# Relative agreement of the fast (||G||^2 - ||A||^2) and projection-based
# squared gradient norms; the fast form loses digits to cancellation only.
GRAD_RTOL = 1e-8
# The timed phases of a pass, in order.
PHASES = ("setup", "solve", "write", "verify")
# Rounding allowance when comparing a recomputed value against a threshold.
ROUND_RTOL = 1e-9


def write_log(records, path) -> None:
    """The JSONL iteration log, one LogRecord.to_dict() per line."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_dict()) + "\n")


def setup(path):
    """Instance file -> BlockSparseSym with its C1/C2 constants computed."""
    Q, offset = problems.read_instance(str(path), "bsm")
    Q.c1()
    Q.c2()
    return Q, offset


def write(report, config, Q, offset, instance, out_dir):
    """What `blocksdp solve` writes: solution, JSONL log and JSON report."""
    sol = out_dir / "solution.yf"
    stiefel.write_yfactor(report.point.blocks, sol)
    write_log(report.records, out_dir / "run.jsonl")
    doc = {"config": asdict(config),
           "instance": {"path": str(instance), "format": "bsm", "d": Q.d, "n": Q.n,
                        "num_blocks": Q.num_blocks, "trace_offset": offset,
                        "c1": Q.c1(), "c2": Q.c2()},
           "result": report.summary()}
    with open(out_dir / "report.json", "w") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")
    return sol


def verify(sol, Q) -> dict:
    """What `blocksdp verify` computes from the solution file as written."""
    blocks = stiefel.read_yfactor(sol, reproject=False)
    point = stiefel.FactorPoint.from_blocks(blocks, Q, require_feasible=False)
    objective, resid = analysis.sdp_lift_check(point, Q)
    fast = analysis.grad_norm_sq_fast(point)
    oracle = stiefel.riemannian_grad_oracle(point, Q)
    cert = analysis.certify_global(point, Q)
    rank = blocks[0].shape[0]
    return {"objective": objective,
            "feasibility_residual": resid,
            "grad_norm_sq_fast": fast,
            "grad_norm_sq_oracle": float(np.sum(oracle * oracle)),
            "lambda_min": cert.lambda_min,
            "verdict": cert.verdict,
            # The dual bound objective + dn * min(lambda_min, 0) holds only if
            # lambda_min is not overstated.  The top singular direction u of
            # Y^T bounds it independently of the eigensolver: u'Su <=
            # ||S Y^T||_F / sigma_max(Y), and sigma_max(Y)^2 >= ||Y||_F^2 / r
            # = dn / r.
            "lambda_ceiling": cert.stationarity_residual * math.sqrt(rank / (Q.d * Q.n))}


def repeated(fn, min_s: float, now):
    """Run fn, then again until min_s has passed; (first result, (start, end) marks of each run)."""
    t0 = now()
    first = fn()
    marks = [(t0, now())]
    while sum(b - a for a, b in marks) < min_s:
        t0 = now()
        fn()
        marks.append((t0, now()))
    return first, marks


def index_fingerprint(reports) -> str:
    """SHA-256 prefix of the sampled-index sequences of all solves (needs log_every=1)."""
    h = hashlib.sha256()
    for report in reports:
        h.update(np.fromiter((r.block for r in report.records), dtype=np.int64,
                             count=len(report.records)).tobytes())
    return h.hexdigest()[:16]


def run_pipeline(w: Workload, items: list, out_dir: Path, phase_min_s: float,
                 now=time.perf_counter, tracer: Tracer | None = None) -> dict:
    """One setup -> solve -> write -> verify pass over items, (instance path, seed) pairs.

    Returns the phase marks and one dict of outputs per instance.  setup,
    write and verify hold a list of (start, end) marks from `now`: each of
    these phases runs again until it has taken phase_min_s.
    """
    root_ns = (lambda: tracer.root_ns) if tracer is not None else (lambda: 0)
    dirs = [out_dir / str(k) for k in range(len(items))]
    for d in dirs:
        d.mkdir(parents=True, exist_ok=True)
    loaded, setup_marks = repeated(lambda: [setup(path) for path, _ in items], phase_min_s, now)
    configs = [bcm.SolverConfig(**w.solver_kwargs(seed)) for _, seed in items]
    r0 = root_ns()
    t0 = now()
    reports = [bcm.solve(Q, config) for (Q, _), config in zip(loaded, configs)]
    solve_mark = (t0, now())
    r1 = root_ns()
    sols, write_marks = repeated(
        lambda: [write(report, config, Q, offset, path, d)
                 for report, config, (Q, offset), (path, _), d
                 in zip(reports, configs, loaded, items, dirs)], phase_min_s, now)
    r2 = root_ns()
    checked, verify_marks = repeated(
        lambda: [verify(sol, Q) for sol, (Q, _) in zip(sols, loaded)], phase_min_s, now)
    r3 = root_ns()

    outputs = []
    for report, config, out in zip(reports, configs, checked):
        useful = sum(abs(r.pred_descent) >= config.stall_rtol * (1.0 + abs(r.cost))
                     for r in report.records)
        outputs.append({**out,
                        "iterations": report.iterations,
                        "termination": report.termination,
                        "final_cost": report.final_cost,
                        "max_cost_drift": report.max_cost_drift,
                        "log_records": len(report.records),
                        "useful_steps": useful})
    iterations = sum(report.iterations for report in reports)
    return {
        "setup": setup_marks, "solve": [solve_mark], "write": write_marks,
        "verify": verify_marks,
        "outputs": outputs,
        "iterations": iterations,
        "fingerprint": {"iters_to_tol": iterations,
                        "index_sha256": index_fingerprint(reports),
                        "final_cost": [repr(report.final_cost) for report in reports]},
        "covered_s": ((r1 - r0) + (r3 - r2)) / 1e9,
    }


def timed(passes: list, seconds, prefix: str = "") -> None:
    """Turn each pass's phase marks into seconds: `<phase>_s` lists and
    total_s, each key preceded by prefix."""
    for r in passes:
        for phase in PHASES:
            r[f"{prefix}{phase}_s"] = [seconds(a, b) for a, b in r[phase]]
        r[f"{prefix}total_s"] = sum(r[f"{prefix}{phase}_s"][0] for phase in PHASES)


def output_checks(w: Workload, passes: list) -> list:
    """(name, passed) for every output check of every instance of every pass.

    The certificate verdict is recorded but not checked: a loose tolerance
    can leave the point short of the certificate's stationarity threshold.
    Every pass after the first must replay it exactly.
    """
    checks = []
    first = passes[0]
    for r in passes:
        for k, out in enumerate(r["outputs"]):
            gap = abs(out["final_cost"] - out["objective"])
            lam = out["lambda_min"]
            checks += [
                ("termination is tolerance", out["termination"] == "tolerance"),
                ("recomputed gradient norm <= tol",
                 out["grad_norm_sq_oracle"] <= w.tol * (1.0 + ROUND_RTOL)),
                ("feasibility residual <= 1e-10",
                 out["feasibility_residual"] <= stiefel.FEASIBILITY_TOL),
                ("reported cost matches evaluate_cost",
                 gap <= max(out["max_cost_drift"], ROUND_RTOL * (1.0 + abs(out["objective"])))),
                ("fast gradient norm matches oracle",
                 abs(out["grad_norm_sq_fast"] - out["grad_norm_sq_oracle"])
                 <= GRAD_RTOL * (1.0 + out["grad_norm_sq_oracle"])),
                ("lambda_min not overstated, so the dual lower bound holds",
                 math.isfinite(lam)
                 and lam <= out["lambda_ceiling"] + ROUND_RTOL * (1.0 + abs(lam))),
            ]
            if r is not first:
                lam0 = first["outputs"][k]["lambda_min"]
                checks.append(("lambda_min repeats",
                               abs(lam - lam0) <= LAMBDA_RTOL * (1.0 + abs(lam0))))
        if r is not first:
            checks.append(("replay fingerprint repeats",
                           r["fingerprint"] == first["fingerprint"]))
    return checks


def blas_versions() -> dict:
    out = {}
    for mod in (np, scipy):
        try:
            deps = mod.show_config(mode="dicts")["Build Dependencies"]
            out[mod.__name__] = f"{deps['blas']['name']} {deps['blas']['version']}"
        except (KeyError, TypeError):
            out[mod.__name__] = "unknown"
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_versions(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def layer_metrics(tracer: Tracer, traced: dict, untraced: dict) -> dict:
    """Per-layer figures of the traced pipeline pass, as (value, unit) pairs."""
    fields = {"calls": (0, 1, "count"), "s": (1, 1e-9, "s"),
              "self_s": (2, 1e-9, "s"), "bytes": (3, 1, "bytes")}
    outputs = traced["outputs"]
    records = sum(out["log_records"] for out in outputs)
    m = {}

    def spans(name, *kinds):
        stat = tracer.stats.get(name, [0, 0, 0, 0])
        for kind in kinds:
            i, scale, unit = fields[kind]
            m[f"{name}.{kind}"] = (stat[i] * scale, unit)

    spans("bcm.sample_block", "calls", "s")
    spans("bcm.bcm_step", "calls", "self_s")
    spans("bcm.refresh", "calls", "s")
    m["bcm.max_cost_drift"] = (max(out["max_cost_drift"] for out in outputs), "abs")
    m["bcm.useful_step_ratio"] = (sum(out["useful_steps"] for out in outputs) / records, "ratio")
    m["bcm.log_records"] = (records, "count")
    spans("bcm.init_state", "s")
    spans("stiefel.block_minimize", "calls", "s")
    spans("stiefel.compute_gcache", "calls", "s")
    spans("stiefel.evaluate_cost", "s")
    spans("stiefel.riemannian_grad_oracle", "s")
    spans("stiefel.read_yfactor", "s")
    spans("stiefel.write_yfactor", "s", "bytes")
    spans("blockmat.read_bsm", "s", "bytes")
    spans("blockmat.nuclear_norm", "calls", "s")
    spans("blockmat.to_dense", "s", "bytes")
    spans("analysis.grad_norm_sq_fast", "calls", "s")
    spans("analysis.certify_global", "s", "self_s")
    spans("analysis.sdp_lift_check", "s")
    spans("cli.log_write", "s", "bytes")
    solve_s, verify_s = traced["wall_solve_s"][0], traced["wall_verify_s"][0]
    m["trace.solve_s"] = (solve_s, "s")
    m["trace.verify_s"] = (verify_s, "s")
    m["trace.overhead"] = (solve_s / untraced["wall_solve_s"][0], "ratio")
    m["trace.coverage"] = (traced["covered_s"] / (solve_s + verify_s), "ratio")
    return m


def end_to_end_metrics(passes: list, checks: list) -> dict:
    """The end-to-end figures of an untraced run: medians over its passes."""

    def med(key):
        return statistics.median(x for r in passes for x in r[key])

    failed = sum(not ok for _, ok in checks)
    solve_s = med("solve_s")
    return {
        "setup_s": (med("setup_s"), "s"),
        "solve_s": (solve_s, "s"),
        "iters_to_tol": (passes[0]["iterations"], "count"),
        "us_per_iter": (1e6 * solve_s / passes[0]["iterations"], "us"),
        "write_s": (med("write_s"), "s"),
        "verify_s": (med("verify_s"), "s"),
        "total_s": (statistics.median(r["total_s"] for r in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_share": (1.0 - failed / len(checks), "share"),
    }


def pass_summary(r: dict) -> dict:
    """First-sample seconds of each phase of a pass, reference and wall."""
    keys = [k for k in r if k.endswith("_s") and k != "covered_s"]
    return {**{k: (r[k][0] if isinstance(r[k], list) else r[k]) for k in keys},
            "repeats": len(r["verify"])}


def measure(w: Workload, items: list, seed: int, seconds: float, trace: bool,
            out_dir: Path) -> dict:
    """Run the workload's pipeline on items, (instance path, seed) pairs, for about `seconds`.

    Untraced: makes MIN_PASSES passes, then more while another pass fits in
    the time left, timed in reference seconds by a `ReferenceClock` (wall
    seconds are reported beside them).  Traced: one pass untraced, then the
    same pass with every layer wrapped, both in wall seconds and without
    phase repeats, for the tracing overhead and the spans.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    layers = None
    if trace:
        passes = [run_pipeline(w, items, out_dir, 0.0)]
        tracer = Tracer()
        spec = targets(bcm, blockmat, problems, stiefel, analysis, sys.modules[__name__])
        with tracer.installed(spec):
            passes.append(run_pipeline(w, items, out_dir, 0.0, tracer=tracer))
        timed(passes, lambda a, b: b - a, "wall_")
        layers = layer_metrics(tracer, passes[1], passes[0])
    else:
        passes, last = [], 0.0
        with ReferenceClock() as clock:
            while len(passes) < MIN_PASSES or time.perf_counter() - start + last <= seconds:
                t0 = time.perf_counter()
                passes.append(run_pipeline(w, items, out_dir, PHASE_MIN_S, clock.now))
                last = time.perf_counter() - t0
        timed(passes, clock.wall, "wall_")
        timed(passes, clock.reference)
    checks = output_checks(w, passes)
    first = passes[0]["outputs"]
    return {
        "workload": w.name,
        "seed": seed,
        "instances": len(items),
        "environment": environment(),
        "passes": [pass_summary(r) for r in passes],
        "setups": sum(len(r["setup"]) for r in passes),
        "fingerprint": passes[0]["fingerprint"],
        "verdicts": sorted({out["verdict"] for out in first}),
        "lambda_min": [out["lambda_min"] for out in first],
        "checks": [{"check": name, "passed": ok} for name, ok in checks],
        "attempted": len(checks),
        "failed": sum(not ok for _, ok in checks),
        "end_to_end": None if trace else end_to_end_metrics(passes, checks),
        "per_layer": layers,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out-dir", type=Path, required=True)
    a = p.parse_args(argv)
    w = WORKLOADS[a.workload]
    result = measure(w, instances(w, a.seed), a.seed, a.seconds, bool(a.trace), a.out_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
