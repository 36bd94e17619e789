"""Span tracing of blocksdp by wrapping module attributes.

The tracer replaces functions on the library's modules and classes with
timing wrappers for the duration of a `with tracer.installed():` block, and
restores the originals on exit.  Spans nest through a stack of child-time
accumulators, so each span name gets its call count, total time and self
time (total minus the time of the spans it directly encloses).  Spans are
aggregated by name as they close; nothing is kept per call.
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager
from time import perf_counter_ns


def _file_bytes(arg_index):
    return lambda args, result: os.path.getsize(args[arg_index])


def _dense_bytes(args, result):
    Q = args[0]
    return 8 * (Q.d * Q.n) ** 2


def targets(bcm, blockmat, problems, stiefel, analysis, pipeline):
    """(owner, attribute, span name, bytes-of-call or None) for every traced call.

    A function imported by name into several modules is wrapped on each of
    them under one span name, because callers look it up in their own module.
    """
    read_file = _file_bytes(0)
    written_file = _file_bytes(1)
    return [
        (problems, "read_bsm", "blockmat.read_bsm", read_file),
        (blockmat, "nuclear_norm", "blockmat.nuclear_norm", None),
        (bcm, "nuclear_norm", "blockmat.nuclear_norm", None),
        (blockmat.BlockSparseSym, "to_dense", "blockmat.to_dense", _dense_bytes),
        (bcm, "init_state", "bcm.init_state", None),
        (bcm, "sample_block", "bcm.sample_block", None),
        (bcm, "bcm_step", "bcm.bcm_step", None),
        (stiefel.FactorPoint, "refresh", "bcm.refresh", None),
        (bcm, "block_minimize", "stiefel.block_minimize", None),
        (stiefel, "compute_gcache", "stiefel.compute_gcache", None),
        (analysis, "compute_gcache", "stiefel.compute_gcache", None),
        (stiefel, "evaluate_cost", "stiefel.evaluate_cost", None),
        (analysis, "evaluate_cost", "stiefel.evaluate_cost", None),
        (stiefel, "riemannian_grad_oracle", "stiefel.riemannian_grad_oracle", None),
        (stiefel, "read_yfactor", "stiefel.read_yfactor", None),
        (stiefel, "write_yfactor", "stiefel.write_yfactor", written_file),
        (bcm, "grad_norm_sq_fast", "analysis.grad_norm_sq_fast", None),
        (analysis, "grad_norm_sq_fast", "analysis.grad_norm_sq_fast", None),
        (analysis, "certify_global", "analysis.certify_global", None),
        (analysis, "sdp_lift_check", "analysis.sdp_lift_check", None),
        (pipeline, "write_log", "cli.log_write", written_file),
    ]


class Tracer:
    """Aggregates spans by name: calls, total and self nanoseconds, bytes."""

    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns, bytes]
        self.root_ns = 0  # time covered by spans opened with no enclosing span
        self._stack: list[int] = []

    def wrap(self, fn, name: str, nbytes=None):
        stats = self.stats.setdefault(name, [0, 0, 0, 0])
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - child
                if stack:
                    stack[-1] += dur
                else:
                    self.root_ns += dur
            if nbytes is not None:
                stats[3] += nbytes(args, result)
            return result

        return traced

    @contextmanager
    def installed(self, spec):
        """Wrap every (owner, attribute, name, nbytes) of spec; restore on exit."""
        saved = []
        try:
            for owner, attr, name, nbytes in spec:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, nbytes))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
