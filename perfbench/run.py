"""Seeded solve -> verify benchmark of blocksdp.

    python3 perfbench/run.py --workload maxcut-uniform --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout (the library is imported from
`src/`).  The seed fixes the instances and the solver seeds.  Instances are
generated untimed and cached under `.perfbench/`; the workload then runs in a
fresh child process (`pipeline.py`) with the BLAS thread count fixed, which
repeats the `blocksdp solve` + `verify` pipeline for about `--seconds` and
checks its outputs.  Untraced times are reference seconds (`refclock.py`):
wall seconds scaled by a fixed probe's speed of the moment, so that the
host's speed drift cancels; wall seconds are printed beside them.

Prints the environment, the replay fingerprint, the output checks and every
metric with its unit; the last stdout line is one JSON object
`{"correct", "attempted", "failed", "metrics"}` holding the end-to-end
metrics (`--trace 0`) or the per-layer metrics of a traced run (`--trace 1`).
Exits non-zero without that line when the run cannot complete.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# One BLAS thread: the block SVDs are tiny, and a fixed count keeps runs
# comparable on a shared 2-core machine.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Every run must end within 180 s; leave room for generation and output.
RUN_LIMIT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({k: BLAS_THREADS for k in BLAS_ENV})
    return env


def result_line(result: dict, trace: bool) -> dict:
    metrics = result["per_layer"] if trace else result["end_to_end"]
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def print_report(result: dict, trace: bool) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"instances {result['instances']}  pipeline passes {len(result['passes'])}  "
          f"setups {result['setups']}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    print("fingerprint " + json.dumps(result["fingerprint"]))
    print(f"certificate verdicts {', '.join(result['verdicts'])}  "
          f"lambda_min {' '.join(repr(x) for x in result['lambda_min'])}")
    failed = [c["check"] for c in result["checks"] if not c["passed"]]
    print(f"checks {result['attempted'] - result['failed']}/{result['attempted']} passed  "
          f"fail_share {result['failed'] / result['attempted']:.4g}")
    for name in failed:
        print(f"  FAILED {name}")
    for k, ps in enumerate(result["passes"]):
        for prefix, clock in (("", "reference"), ("wall_", "wall")):
            if f"{prefix}total_s" in ps:
                print(f"pass {k} {clock:9s} "
                      + "  ".join(f"{p} {ps[prefix + p + '_s']:.4f}"
                                  for p in ("setup", "solve", "write", "verify", "total"))
                      + f"  verify repeats {ps['repeats']}")
    metrics = result["per_layer"] if trace else result["end_to_end"]
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    start = time.perf_counter()
    if not (SRC / "blocksdp" / "__init__.py").is_file():
        print(f"error: no blocksdp sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import CACHE_DIR, WORKLOADS, instances

    p = argparse.ArgumentParser(description="Seeded solve -> verify benchmark of blocksdp")
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    instances(WORKLOADS[a.workload], a.seed)  # generated and cached here, untimed
    out_dir = CACHE_DIR / "out" / f"{a.workload}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "pipeline.py"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--out-dir", str(out_dir)]
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=RUN_LIMIT_S - (time.perf_counter() - start))
    except subprocess.TimeoutExpired:
        print(f"error: workload {a.workload} exceeded {RUN_LIMIT_S:g} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print_report(result, bool(a.trace))
    print(json.dumps(result_line(result, bool(a.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
