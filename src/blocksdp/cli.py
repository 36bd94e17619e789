"""Command-line front-end.

Subcommands:

    solve     run the block-coordinate solver on an instance file
    verify    check a solution file: feasibility, cost, gradient, certificate
    generate  write synthetic maxcut / rotsync instances
    bench     compare both sampling schemes against the theoretical bounds

All machine-readable output is JSON / JSON-lines / CSV.  Exit codes for
solve: 0 tolerance reached, 2 iteration cap, 3 stalled, 1 error.  verify
exits 0 only for a certified-global solution.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, replace

import numpy as np

from . import analysis, bcm, problems
from .blockmat import BlockSparseSym, ParseError, write_bsm
from .stiefel import FactorPoint, read_yfactor, write_yfactor

SOLVE_EXIT = {"tolerance": 0, "max_iters": 2, "stalled": 3}


def _infer_format(path: str, fmt: str) -> str:
    if fmt != "auto":
        return fmt
    lower = str(path).lower()
    if lower.endswith(".bsm"):
        return "bsm"
    if lower.endswith((".mtx", ".mm")):
        return "matrix-market"
    if lower.endswith((".edges", ".edgelist", ".el")):
        return "edgelist"
    raise ValueError(f"cannot infer format from {path!r}; pass --format")


def _load_instance(path: str, fmt: str):
    fmt = _infer_format(path, fmt)
    Q, offset = problems.read_instance(path, fmt)
    return Q, offset, fmt


def _instance_info(path, fmt, Q: BlockSparseSym, offset: float) -> dict:
    return {"path": str(path), "format": fmt, "d": Q.d, "n": Q.n,
            "num_blocks": Q.num_blocks, "trace_offset": offset,
            "c1": Q.c1(), "c2": Q.c2()}


def _write_jsonl(log: bcm.RunLog, path) -> None:
    """One JSON line a step, LogRecord.to_dict's keys, straight from the log's columns."""
    with open(path, "w") as fh:
        fh.writelines(json.dumps({"k": k, "cost": cost, "block": block, "pred_descent": pred,
                                  "meas_descent": meas, "grad_norm_sq": gradsq,
                                  "wall_ns": wall}) + "\n"
                      for k, cost, block, pred, meas, gradsq, wall in zip(*log.columns()))


def cmd_solve(args) -> int:
    Q, offset, fmt = _load_instance(args.input, args.format)
    config = bcm.SolverConfig(
        rank=args.rank, sampling=args.sampling, grad_tol=args.tol,
        max_iters=args.max_iters, check_period=args.check_period,
        refresh_period=args.refresh_period, seed=args.seed,
        log_every=args.log_every)
    warm = read_yfactor(args.warm_start) if args.warm_start else None
    report = bcm.solve(Q, config, warm_start=warm)
    if args.solution:
        write_yfactor(report.point.blocks, args.solution)
    if args.log:
        _write_jsonl(report.records, args.log)
    doc = {
        "config": asdict(config),
        "instance": _instance_info(args.input, fmt, Q, offset),
        "result": report.summary(),
    }
    text = json.dumps(doc, indent=2)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return SOLVE_EXIT[report.termination]


def _check_solution_range(blocks, Q: BlockSparseSym) -> None:
    """ValueError unless t and 4 C1 C2 t max(1, t)^2 are finite, t = max_i ||Y_i||_2^2.

    Q.check_float_range's argument at any point: ||G_i||_F <= sqrt(t) C1 and
    sum_i ||G_i||_F^2 <= t C1 C2; the map G -> G - Y_i sym(Y_i^T G) has norm at
    most max(1, t), so the squared gradient norm stays below the bound, and the
    cost (|F| <= t C2), Y_i^T Y_i, the couplings and the certificate matrix S
    stay finite.  At a feasible point t = 1 and the rule is Q's own.  The
    singular values come from LAPACK, which scales away overflow; the bound is
    taken as 4 (C2 / C1) (C1 sqrt(t) max(1, t))^2, with 1 <= C2 / C1 <= n, so no
    factor underflows, and Python floats go to inf past the range quietly.
    """
    s = float(np.linalg.svd(blocks, compute_uv=False).max())
    m = max(1.0, s * s)
    x = Q.c1() * s * m
    ratio = Q.c2() / Q.c1() if Q.c1() else 0.0
    if not math.isfinite(m + 4.0 * ratio * x * x):
        raise ValueError(f"solution past the float range: max_i ||Y_i||_2 = {s}")


def cmd_verify(args) -> int:
    Q, offset, fmt = _load_instance(args.input, args.format)
    Q.check_float_range()
    blocks = read_yfactor(args.solution, reproject=False)
    n, r, d = blocks.shape
    if n != Q.n or d != Q.d:
        raise ValueError(
            f"solution is (r={r}, d={d}, n={n}), instance needs (d={Q.d}, n={Q.n})")
    _check_solution_range(blocks, Q)
    # Diagnostics run on the file contents as-is; no silent re-projection.
    point = FactorPoint.from_blocks(blocks, Q, require_feasible=False)
    objective, resid = analysis.sdp_lift_check(point, Q)
    fast = analysis.grad_norm_sq_fast(point)
    cert = analysis.certify_global(point, Q, cert_tol=args.cert_tol)
    doc = {
        "instance": _instance_info(args.input, fmt, Q, offset),
        "solution": {"path": str(args.solution), "r": r, "d": d, "n": n},
        "feasibility_residual": resid,
        "cost": objective,
        "grad_norm_sq_fast": fast,
        "certificate": cert.to_dict(),
    }
    print(json.dumps(doc, indent=2))
    return 0 if cert.verdict == "certified-global" else 1


def cmd_generate(args) -> int:
    if args.kind == "maxcut":
        Q = problems.generate_maxcut(args.n, args.edge_prob, args.seed,
                                     weighted=args.weighted)
        write_bsm(Q, args.output)
        _, _, B = Q.upper()  # the edges in generation order
        info = {"kind": "maxcut", "n": Q.n, "edges": Q.num_blocks,
                "total_weight": float(sum(B.ravel().tolist())), "output": str(args.output)}
    else:
        inst = problems.generate_rotsync(args.n, args.d, args.edge_prob,
                                         args.noise, args.seed)
        Q = problems.sync_to_Q(inst)
        write_bsm(Q, args.output)
        truth_path = args.truth or f"{args.output}.truth"
        write_yfactor(problems.ground_truth_blocks(inst), truth_path)
        info = {"kind": "rotsync", "n": inst.n, "d": inst.d,
                "edges": inst.num_edges, "noise": inst.noise,
                "output": str(args.output), "truth": str(truth_path)}
    print(json.dumps(info, indent=2))
    return 0


def _bench_trial(Q, config, sampling, seed):
    """One seeded solve, with the certificate's lower bound at its final point."""
    report = bcm.solve(Q, replace(config, sampling=sampling, seed=seed))
    return {"scheme": sampling, "seed": seed, "f0": report.f0,
            "iters_to_eps": report.iterations if report.termination == "tolerance" else None,
            "final_cost": report.final_cost, "termination": report.termination,
            "lower_bound": analysis.certify_global(report.point, Q).lower_bound}


def cmd_bench(args) -> int:
    if args.trials < 1:
        raise ValueError("bench needs --trials >= 1")
    if args.fstar is not None:  # refused here, not after the trials
        bcm.check_bound_args(args.fstar, args.tol)
    Q, offset, fmt = _load_instance(args.input, args.format)
    config = bcm.SolverConfig(rank=args.rank, grad_tol=args.tol, max_iters=args.max_iters,
                              check_period=1, log_every=max(1, Q.n))
    config.validate(Q)  # the trials' settings, refused before the first trial
    seed_rng = np.random.default_rng(args.seed)
    trial_seeds = [int(s) for s in seed_rng.integers(0, 2 ** 62, size=args.trials)]
    rows = [_bench_trial(Q, config, scheme, seed)
            for scheme in bcm.SAMPLING_SCHEMES for seed in trial_seeds]
    # Each trial ends at a feasible point, where the certificate's lower_bound
    # bounds the SDP optimum, so the rank-restricted one too.
    if args.fstar is None:
        fstar, fstar_source = max(row["lower_bound"] for row in rows), "trials"
    else:
        fstar, fstar_source = args.fstar, "supplied"

    for row in rows:
        row["k_bound"] = bcm.iteration_bound(Q, row["scheme"], row["f0"], fstar, args.tol)
        row["within_bound"] = (row["iters_to_eps"] is not None
                               and row["iters_to_eps"] <= row["k_bound"])

    if args.output:
        with open(args.output, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    worst_f0 = max(row["f0"] for row in rows)
    doc = {
        "instance": _instance_info(args.input, fmt, Q, offset),
        "eps": args.tol,
        "trials_per_scheme": args.trials,
        "fstar": fstar,
        "fstar_source": fstar_source,
        **{f"k_{scheme}": bcm.iteration_bound(Q, scheme, worst_f0, fstar, args.tol)
           for scheme in bcm.SAMPLING_SCHEMES},
        "violations": sum(not row["within_bound"] for row in rows),
        "rows": rows if not args.output else str(args.output),
    }
    print(json.dumps(doc, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blocksdp",
        description="Low-rank block-coordinate solver for SDPs with identity diagonal blocks")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_args(p):
        p.add_argument("--input", required=True, help="instance file")
        p.add_argument("--format", default="auto",
                       choices=["auto", *problems.INSTANCE_FORMATS])

    ps = sub.add_parser("solve", help="run the solver on an instance")
    add_instance_args(ps)
    ps.add_argument("--rank", type=int, required=True, help="factor rank r")
    ps.add_argument("--sampling", default="uniform", choices=list(bcm.SAMPLING_SCHEMES))
    ps.add_argument("--tol", type=float, default=1e-8, help="target squared gradient norm")
    ps.add_argument("--max-iters", type=int, default=None)
    ps.add_argument("--check-period", type=int, default=None)
    ps.add_argument("--refresh-period", type=int, default=None)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--log-every", type=int, default=1)
    ps.add_argument("--warm-start", default=None, help="YFACTOR file to start from")
    ps.add_argument("--solution", default=None, help="YFACTOR output path")
    ps.add_argument("--log", default=None, help="JSONL iteration log path")
    ps.add_argument("--report", default=None, help="JSON report path")
    ps.set_defaults(func=cmd_solve)

    pv = sub.add_parser("verify", help="verify a solution file")
    add_instance_args(pv)
    pv.add_argument("--solution", required=True, help="YFACTOR file to verify")
    pv.add_argument("--cert-tol", type=float, default=None,
                    help="bound on ||grad||^2 and on -(lambda_min - lambda_residual), "
                         "default 1e-8 * (1 + ||Q||_F); the eigenvalue solve is "
                         f"accurate to {analysis.EIG_TOL_FRACTION:g} * cert-tol")
    pv.set_defaults(func=cmd_verify)

    pg = sub.add_parser("generate", help="write a synthetic instance")
    gsub = pg.add_subparsers(dest="kind", required=True)
    gm = gsub.add_parser("maxcut")
    gm.add_argument("--n", type=int, required=True)
    gm.add_argument("--edge-prob", type=float, required=True)
    gm.add_argument("--seed", type=int, default=0)
    gm.add_argument("--weighted", action="store_true", help="uniform(0,1) weights")
    gm.add_argument("--output", required=True)
    gm.set_defaults(func=cmd_generate)
    gr = gsub.add_parser("rotsync")
    gr.add_argument("--n", type=int, required=True)
    gr.add_argument("--d", type=int, required=True)
    gr.add_argument("--edge-prob", type=float, required=True)
    gr.add_argument("--noise", type=float, default=0.0)
    gr.add_argument("--seed", type=int, default=0)
    gr.add_argument("--output", required=True)
    gr.add_argument("--truth", default=None, help="ground-truth YFACTOR path")
    gr.set_defaults(func=cmd_generate)

    pb = sub.add_parser("bench", help="compare sampling schemes against the bounds")
    add_instance_args(pb)
    pb.add_argument("--rank", type=int, required=True)
    pb.add_argument("--tol", type=float, default=1e-4, help="target squared gradient norm")
    pb.add_argument("--trials", type=int, default=20, help="seeds per scheme")
    pb.add_argument("--seed", type=int, default=0, help="base seed for trial seeds")
    pb.add_argument("--max-iters", type=int, default=None)
    pb.add_argument("--fstar", type=float, default=None,
                    help="known lower bound on the optimum (else the largest of the trials' "
                         "certificate lower bounds)")
    pb.add_argument("--output", default=None, help="CSV output path")
    pb.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, MemoryError, ParseError, ValueError, bcm.NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
