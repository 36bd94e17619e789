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
import sys
from dataclasses import asdict

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


def _write_jsonl(records, path) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_dict()) + "\n")


def cmd_solve(args) -> int:
    Q, offset, fmt = _load_instance(args.input, args.format)
    config = bcm.SolverConfig(
        rank=args.rank, sampling=args.sampling, grad_tol=args.tol,
        max_iters=args.max_iters, check_period=args.check_period,
        refresh_period=args.refresh_period, seed=args.seed,
        log_every=args.log_every, return_best=args.return_best,
        stall_rtol=args.stall_rtol)
    warm = None
    if args.warm_start:
        blocks = read_yfactor(args.warm_start)
        warm = FactorPoint.from_blocks(blocks, Q)
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


def cmd_verify(args) -> int:
    Q, offset, fmt = _load_instance(args.input, args.format)
    blocks = read_yfactor(args.solution, reproject=False)
    n, r, d = blocks.shape
    if n != Q.n or d != Q.d:
        raise ValueError(
            f"solution is (r={r}, d={d}, n={n}), instance needs (d={Q.d}, n={Q.n})")
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
        g = problems.generate_maxcut(args.n, args.edge_prob, args.seed,
                                     weighted=args.weighted)
        Q = problems.maxcut_to_Q(g)
        write_bsm(Q, args.output)
        info = {"kind": "maxcut", "n": g.n, "edges": len(g.edges),
                "total_weight": g.total_weight, "output": str(args.output)}
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


def _bench_trial(Q, rank, sampling, seed, eps, max_iters):
    config = bcm.SolverConfig(rank=rank, sampling=sampling, grad_tol=eps,
                              max_iters=max_iters, check_period=1, seed=seed,
                              log_every=max(1, Q.n))
    report = bcm.solve(Q, config)
    return {"scheme": sampling, "seed": seed, "f0": report.f0,
            "iters_to_eps": report.iterations if report.termination == "tolerance" else None,
            "final_cost": report.final_cost, "termination": report.termination}


def _resolve_fstar(Q: BlockSparseSym, rank: int, supplied: float | None):
    """F* for the bound calculators, with its provenance.

    Without a supplied value, solves once at full rank to tight tolerance
    and certifies; a certified cost is the SDP optimum, hence a valid lower
    bound for any rank.  Otherwise the certificate's dual bound
    F(Y) + dn * min(lambda_min(S), 0) is used, with -C2(Q) as last resort;
    the verdict and the bound come from one eigen-solve.
    """
    if supplied is not None:
        return supplied, "supplied"
    # grad_tol below the gradient formula's roundoff floor: the run polishes
    # to machine precision and exits via the stall guard.
    config = bcm.SolverConfig(rank=Q.d * Q.n, grad_tol=1e-18, seed=0,
                              log_every=10 ** 9, stall_rtol=1e-16)
    report = bcm.solve(Q, config)
    cert = analysis.certify_global(report.point, Q)
    if cert.verdict == "certified-global":
        return report.final_cost, "certified"
    return cert.lower_bound, "dual-bound" if np.isfinite(cert.lambda_min) else "nuclear-lower-bound"


def cmd_bench(args) -> int:
    if args.trials < 1:
        raise ValueError("bench needs --trials >= 1")
    Q, offset, fmt = _load_instance(args.input, args.format)
    fstar, fstar_source = _resolve_fstar(Q, args.rank, args.fstar)
    seed_rng = np.random.default_rng(args.seed)
    trial_seeds = [int(s) for s in seed_rng.integers(0, 2 ** 62, size=args.trials)]
    rows = [_bench_trial(Q, args.rank, scheme, seed, args.tol, args.max_iters)
            for scheme in bcm.SAMPLING_SCHEMES for seed in trial_seeds]

    for row in rows:
        b = analysis.BoundInputs(d=Q.d, n=Q.n, f0=max(row["f0"], fstar), fstar=fstar,
                                 eps=args.tol, c1=Q.c1(), c2=Q.c2())
        row["k_bound"] = bcm.SAMPLING_SCHEMES[row["scheme"]](b)
        row["within_bound"] = (row["iters_to_eps"] is not None
                               and row["iters_to_eps"] <= row["k_bound"])

    if args.output:
        with open(args.output, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    worst_f0 = max(row["f0"] for row in rows)
    b = analysis.BoundInputs(d=Q.d, n=Q.n, f0=max(worst_f0, fstar), fstar=fstar,
                             eps=args.tol, c1=Q.c1(), c2=Q.c2())
    doc = {
        "instance": _instance_info(args.input, fmt, Q, offset),
        "eps": args.tol,
        "trials_per_scheme": args.trials,
        "fstar": fstar,
        "fstar_source": fstar_source,
        **{f"k_{scheme}": bound(b) for scheme, bound in bcm.SAMPLING_SCHEMES.items()},
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
    ps.add_argument("--return-best", action="store_true",
                    help="report the best-gradient iterate instead of the last")
    ps.add_argument("--stall-rtol", type=float, default=bcm.STALL_RTOL,
                    help="relative cost-change threshold for stall detection")
    ps.add_argument("--warm-start", default=None, help="YFACTOR file to start from")
    ps.add_argument("--solution", default=None, help="YFACTOR output path")
    ps.add_argument("--log", default=None, help="JSONL iteration log path")
    ps.add_argument("--report", default=None, help="JSON report path")
    ps.set_defaults(func=cmd_solve)

    pv = sub.add_parser("verify", help="verify a solution file")
    add_instance_args(pv)
    pv.add_argument("--solution", required=True, help="YFACTOR file to verify")
    pv.add_argument("--cert-tol", type=float, default=None)
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
                    help="known lower bound on the optimum (else certified or -C2)")
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
