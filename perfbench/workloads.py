"""Benchmark workloads and their seeded, cached instances.

Each workload names a problem family, its instance size and the solver
settings of one `blocksdp solve` run.  A workload solves `instances`
independent instances per pipeline pass; the benchmark's `--seed` fixes all
of them and their solver seeds.  Instances are generated outside the timed
region and cached as BSM files under `.perfbench/instances/` in the
checkout.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from blocksdp import problems
from blocksdp.blockmat import BlockSparseSym, write_bsm

ROOT = Path(__file__).resolve().parent.parent
CACHE_DIR = ROOT / ".perfbench"


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str         # "maxcut" or "rotsync"
    n: int               # vertices of the graph
    degree: float        # its average vertex degree
    rank: int
    sampling: str
    tol: float           # target squared gradient norm (`solve --tol`)
    check_period: int | None = None    # None: the solver's default, n
    refresh_period: int | None = None  # None: the solver's default, 10n
    noise: float = 0.0   # rotation-sync measurement noise
    instances: int = 1   # instances solved per pipeline pass

    def seeds(self, seed: int) -> list[int]:
        """Instance and solver seed of each instance of the benchmark's seed."""
        return [seed * self.instances + k for k in range(self.instances)]

    def solver_kwargs(self, seed: int) -> dict:
        """Arguments of `bcm.SolverConfig`, as `blocksdp solve` would pass them."""
        return {"rank": self.rank, "sampling": self.sampling, "grad_tol": self.tol,
                "check_period": self.check_period, "refresh_period": self.refresh_period,
                "seed": seed, "log_every": 1}


# Max-Cut size: n=5000 (dn > 2000, so the certificate takes the eigsh path)
# keeps one pipeline pass near 5 s, so a run's medians span several passes.
# Tolerance: the default check period is n, so the squared gradient norm is
# seen once per sweep and iters_to_tol is a whole number of sweeps.  Per 1e4
# vertices the norm falls through ~3.5e5, ~1.7e5, ~1.0e5, ~6.2e4 (both
# schemes within a few percent, over seeds), so 8e4 per 1e4 vertices lies
# about 20% from the checks on either side: both schemes stop after exactly
# 3 sweeps on every seed.
#
# Rotation sync checks the gradient every iteration, so iters_to_tol varies
# by ~12% (coefficient of variation) from one instance to the next at this
# tolerance; twenty instances per pass bring that of a run's total across
# seeds to ~3%.  n=70 keeps the O(n) check per iteration, and so a pass
# (~10 s), short; refresh_period=2n makes each solve cross cache refreshes.
WORKLOADS = {w.name: w for w in (
    Workload("maxcut-uniform", "maxcut", n=5000, degree=10, rank=8, sampling="uniform",
             tol=4e4),
    Workload("maxcut-importance", "maxcut", n=5000, degree=10, rank=8, sampling="importance",
             tol=4e4),
    Workload("rotsync-check1", "rotsync", n=70, degree=10, rank=5, sampling="importance",
             tol=210.0, check_period=1, refresh_period=140, noise=0.2, instances=20),
)}


def maxcut_edges(n: int, degree: float, seed: int):
    """Seeded sparse unit-weight graph: round(n * degree / 2) distinct edges.

    Pairs are drawn uniformly with replacement and the first m distinct ones,
    in draw order, are kept, so the work is O(m) rather than the O(n^2)
    Bernoulli trials of `problems.generate_maxcut`.  Returns sorted (i, j)
    arrays with i < j.
    """
    rng = np.random.default_rng(seed)
    m = int(round(n * degree / 2))
    if not (0 < m <= n * (n - 1) // 2):
        raise ValueError(f"cannot place {m} edges on {n} vertices")
    keys = np.empty(0, dtype=np.int64)
    while keys.size < m:
        a = rng.integers(0, n, size=m)
        b = rng.integers(0, n, size=m)
        ok = a != b
        fresh = np.minimum(a, b)[ok] * n + np.maximum(a, b)[ok]
        keys = np.concatenate([keys, fresh])
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
    keys = np.sort(keys[:m])
    return keys // n, keys % n


def build_instance(w: Workload, seed: int) -> BlockSparseSym:
    """The workload's cost matrix Q for one instance seed."""
    if w.problem == "rotsync":
        inst = problems.generate_rotsync(w.n, 3, w.degree / (w.n - 1), w.noise, seed)
        return problems.sync_to_Q(inst)
    rows, cols = maxcut_edges(w.n, w.degree, seed)
    one = np.ones((1, 1))
    return BlockSparseSym(1, w.n, {(int(i), int(j)): one for i, j in zip(rows, cols)})


def instance_path(w: Workload, seed: int, cache_dir: Path = CACHE_DIR) -> Path:
    """BSM file of the workload's instance for one instance seed, generated on first use."""
    extra = f"-noise{w.noise:g}" if w.problem == "rotsync" else ""
    name = f"{w.problem}-n{w.n}-deg{w.degree:g}{extra}-seed{seed}.bsm"
    path = cache_dir / "instances" / name
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        write_bsm(build_instance(w, seed), tmp)
        os.replace(tmp, path)
    return path


def instances(w: Workload, seed: int, cache_dir: Path = CACHE_DIR) -> list[tuple[Path, int]]:
    """(BSM file, solver seed) of each instance the benchmark's seed names."""
    return [(instance_path(w, s, cache_dir), s) for s in w.seeds(seed)]
