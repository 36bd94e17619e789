"""Property tests for the four text readers.

Any text built from header-like and numeric tokens either parses into a
finite instance or solution, or raises ParseError; never another exception.
Writing a random instance or solution and reading it back gives it exactly.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from blocksdp import (BlockSparseSym, EdgeListGraph, ParseError, read_bsm, read_edgelist,
                      read_matrix_market, read_yfactor, write_bsm, write_yfactor)
from blocksdp.problems import write_edgelist
from blocksdp.stiefel import FEASIBILITY_TOL, feasibility_residual

# Hypothesis caches the literals of local source files under its home
# directory, by default .hypothesis/ in the working directory, as soon as
# this module is collected; keep that cache in the system temporary directory.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "blocksdp-hypothesis")

# Derandomized and without an example database: the same examples on every run.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

NUMBERS = ["0", "1", "2", "3", "-1", "0.5", "-2.5", "1e-300", "1e308", "-1e308",
           "nan", "inf", "-inf", "NaN", "1e400", "x"]
HEADERS = {
    "bsm": [["BSM"], ["1", "2", "3", "0", "-1"], ["1", "2", "3", "0", "-1"],
            ["0", "1", "2", "3", "nan"]],
    "mtx": [["%%MatrixMarket"], ["matrix"], ["coordinate", "array"],
            ["real", "integer", "complex"], ["general", "symmetric", "skew-symmetric"]],
    "yfactor": [["YFACTOR"], ["1", "2", "3", "0"], ["1", "2", "0"], ["1", "2", "3", "-1"]],
}

numeric_line = st.lists(st.sampled_from(NUMBERS), min_size=0, max_size=6).map(" ".join)
body_line = st.one_of(numeric_line, st.sampled_from(["", "% comment", "# comment", "  "]))


def fuzzed_text(kind):
    """A header drawn field by field from kind's tokens (sometimes dropped or
    garbled), then lines of numeric tokens, comments and blanks."""
    head = st.tuples(*(st.sampled_from(choices) for choices in HEADERS[kind])).map(" ".join)
    head = st.one_of(head, head, numeric_line)
    size = st.lists(st.sampled_from(["1", "2", "3", "0", "-1", "nan"]), min_size=3,
                    max_size=3).map(" ".join)
    lines = [head, size] if kind == "mtx" else [head]
    return st.tuples(*lines, st.lists(body_line, max_size=12)).map(
        lambda t: "\n".join([*t[:-1], *t[-1]]) + "\n")


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("property")


def finite_instance(Q):
    assert np.isfinite(Q.mat.data).all()
    assert Q.d >= 1 and Q.n >= 1


@PROPERTY
@given(text=fuzzed_text("bsm"))
def test_bsm_reader_parses_or_raises_parse_error(scratch, text):
    path = scratch / "fuzz.bsm"
    path.write_text(text)
    try:
        Q = read_bsm(path)
    except ParseError:
        return
    finite_instance(Q)


@PROPERTY
@given(text=fuzzed_text("mtx"))
def test_matrix_market_reader_parses_or_raises_parse_error(scratch, text):
    path = scratch / "fuzz.mtx"
    path.write_text(text)
    try:
        Q, offset = read_matrix_market(path)
    except ParseError:
        return
    finite_instance(Q)
    assert Q.d == 1 and np.isfinite(offset)


@PROPERTY
@given(text=st.lists(body_line, max_size=12).map(lambda ls: "\n".join(ls) + "\n"))
def test_edgelist_reader_parses_or_raises_parse_error(scratch, text):
    path = scratch / "fuzz.edges"
    path.write_text(text)
    try:
        g = read_edgelist(path)
    except ParseError:
        return
    assert g.edges and all(np.isfinite(w) for _, _, w in g.edges)


@PROPERTY
@given(text=fuzzed_text("yfactor"), reproject=st.booleans())
def test_yfactor_reader_parses_or_raises_parse_error(scratch, text, reproject):
    path = scratch / "fuzz.yf"
    path.write_text(text)
    try:
        Y = read_yfactor(path, reproject=reproject)
    except ParseError:
        return
    assert Y.ndim == 3 and np.isfinite(Y).all()
    if reproject:
        assert feasibility_residual(Y).max() <= FEASIBILITY_TOL


finite = st.floats(allow_nan=False, allow_infinity=False)
# Symmetrization halves each entry, which rounds a subnormal.
normal = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=False)


@st.composite
def instances(draw, max_d=3, values=finite):
    d = draw(st.integers(1, max_d))
    n = draw(st.integers(1, 6))
    keys = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(keys), unique=True) if keys else st.just([]))
    blocks = {k: np.array(draw(st.lists(values, min_size=d * d, max_size=d * d))).reshape(d, d)
              for k in chosen}
    return BlockSparseSym(d, n, blocks)


def assert_same_instance(a, b):
    assert (a.d, a.n, a.num_blocks) == (b.d, b.n, b.num_blocks)
    assert (a.c1(), a.c2()) == (b.c1(), b.c2())
    for (i, j, A), (k, l, B) in zip(a.pairs(), b.pairs()):
        assert (i, j) == (k, l)
        np.testing.assert_array_equal(A, B)


@PROPERTY
@given(Q=instances())
def test_bsm_roundtrip_is_exact(scratch, Q):
    path = scratch / "rt.bsm"
    write_bsm(Q, path)
    assert_same_instance(read_bsm(path), Q)


@PROPERTY
@given(Q=instances(max_d=1, values=normal), symmetric=st.booleans())
def test_matrix_market_roundtrip_is_exact(scratch, Q, symmetric):
    # Each off-diagonal entry once (lower triangle, symmetric) or in both
    # orientations (general), so symmetrization returns it unchanged.
    entries = [(j, i, float(B[0, 0])) for i, j, B in Q.pairs()]
    if not symmetric:
        entries += [(i, j, v) for j, i, v in entries]
    lines = [f"%%MatrixMarket matrix coordinate real {'symmetric' if symmetric else 'general'}",
             f"{Q.n} {Q.n} {len(entries)}", *(f"{i + 1} {j + 1} {v!r}" for i, j, v in entries)]
    path = scratch / "rt.mtx"
    path.write_text("\n".join(lines) + "\n")
    back, offset = read_matrix_market(path)
    assert offset == 0.0
    assert_same_instance(back, Q)


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 8))
    keys = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, min_size=1))
    return EdgeListGraph(max(j for _, j in chosen) + 1, [(i, j, draw(finite)) for i, j in chosen])


@PROPERTY
@given(g=graphs())
def test_edgelist_roundtrip_is_exact(scratch, g):
    path = scratch / "rt.edges"
    write_edgelist(g, path)
    back = read_edgelist(path)
    assert back.n == g.n
    assert back.edges == g.edges


@PROPERTY
@given(shape=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3)), data=st.data())
def test_yfactor_roundtrip_is_exact(scratch, shape, data):
    n, r, d = shape
    d = min(d, r)
    Y = np.array(data.draw(st.lists(finite, min_size=n * r * d, max_size=n * r * d)))
    Y = Y.reshape(n, r, d)
    path = scratch / "rt.yf"
    write_yfactor(Y, path)
    np.testing.assert_array_equal(read_yfactor(path, reproject=False), Y)
