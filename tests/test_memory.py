"""Peak memory of the readers, of the construction of Q, of the cost and of
`blocksdp bench`.

On a seeded Max-Cut instance of the benchmark's size (n = 5000, degree 10,
rank 8) the traced peak (tracemalloc) of each call, above what was held
before it, stays within a small multiple of the bytes it returns: the
readers hand the open file to one conversion pass instead of a list of its
lines, construction sorts one key array and gathers each block once, and the
cost fills its array of pair terms a chunk of pairs at a time.  `bench`
takes F* from its trials' sparse certificates, so above DENSE_EIG_CUTOFF it
holds no dn x dn array.
"""

import json
import tracemalloc

import numpy as np
import pytest

from blocksdp import (BlockSparseSym, analysis, evaluate_cost, generate_maxcut, project_stiefel,
                      read_bsm, read_yfactor, write_bsm, write_yfactor)
from blocksdp.cli import main


def traced_peak(fn):
    """fn's result and the peak bytes it held while it ran, after one warm-up call."""
    fn()  # lazy imports and first-use caches are not the call's own memory
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak


def q_bytes(Q):
    """Bytes of the arrays a BlockSparseSym keeps."""
    return sum(a.nbytes for a in (Q.mat.data, Q.mat.indices, Q.mat.indptr, Q.cols,
                                  Q.column_nuclear_sums()))


@pytest.fixture(scope="module")
def maxcut(tmp_path_factory):
    """The instance, its BSM file, a rank-8 point and its YFACTOR file."""
    root = tmp_path_factory.mktemp("memory")
    Q = generate_maxcut(5000, 10 / 4999, seed=3)
    Y = project_stiefel(np.random.default_rng(3).standard_normal((Q.n, 8, 1)))
    write_bsm(Q, root / "q.bsm")
    write_yfactor(Y, root / "y.yf")
    return Q, root / "q.bsm", Y, root / "y.yf"


# Measured peak / bound / the peak before the readers streamed (numpy 2.4):
# read_bsm 2.4 / 4 / 6.9 times Q's bytes; from_arrays 1.5 / 2.5 / 4.1 times Q's
# bytes; read_yfactor 1.25 / 2.5 / 12.7 times the blocks' bytes; evaluate_cost
# 4.2 / 6 / 19.5 times the bytes of its pair terms.

def test_read_bsm_peak_is_a_small_multiple_of_q(maxcut):
    Q, bsm, _, _ = maxcut
    back, peak = traced_peak(lambda: read_bsm(bsm))
    assert back.num_blocks == Q.num_blocks
    assert peak <= 4 * q_bytes(back), (peak, q_bytes(back))


def test_from_arrays_peak_is_a_small_multiple_of_q(maxcut):
    Q = maxcut[0]
    i, j, B = Q.upper()
    i, j, B = i.astype(np.int64), j.astype(np.int64), B.copy()
    built, peak = traced_peak(lambda: BlockSparseSym.from_arrays(1, Q.n, i, j, B))
    assert built.mat.data.tobytes() == Q.mat.data.tobytes()
    assert peak <= 2.5 * q_bytes(built), (peak, q_bytes(built))


def test_read_yfactor_peak_is_a_small_multiple_of_the_blocks(maxcut):
    _, _, Y, yf = maxcut
    back, peak = traced_peak(lambda: read_yfactor(yf))
    assert back.shape == Y.shape
    assert peak <= 2.5 * back.nbytes, (peak, back.nbytes)


def test_evaluate_cost_peak_is_a_small_multiple_of_its_terms(maxcut):
    Q, _, Y, _ = maxcut
    _, peak = traced_peak(lambda: evaluate_cost(Y, Q))
    terms = 8 * (Q.num_blocks + 1)
    assert peak <= 6 * terms, (peak, terms)


def test_bench_without_fstar_holds_no_dense_certificate(tmp_path, capsys):
    # dn = 2100 takes the sparse eigsh branch; one dn x dn array of doubles is
    # 35.3 MB, the measured peak about 1.6 MB.
    Q = generate_maxcut(2100, 0.003, seed=1)
    assert Q.d * Q.n > analysis.DENSE_EIG_CUTOFF
    write_bsm(Q, tmp_path / "big.bsm")
    argv = ["bench", "--input", str(tmp_path / "big.bsm"), "--rank", "8", "--trials", "1",
            "--max-iters", "2000"]
    code, peak = traced_peak(lambda: main(argv))
    out = capsys.readouterr().out  # two reports: the warm-up call's, then the traced one's
    doc = json.loads(out[out.rindex("\n{\n") + 1:])
    assert code == 0 and doc["fstar_source"] == "trials"
    dense = 8 * (Q.d * Q.n) ** 2
    assert peak <= dense / 4, (peak, dense)
