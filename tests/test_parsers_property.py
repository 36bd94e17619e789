"""Property tests for the four text readers.

Any text built from header-like and numeric tokens either parses into a
finite instance or solution, or raises ParseError; never another exception.
Writing a random instance or solution and reading it back gives it exactly.
The one-pass conversion and the row reader read every text alike.
"""

import os
import tempfile
import threading
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import pairs, write_edgelist
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from blocksdp import (BlockSparseSym, ParseError, blockmat, read_bsm, read_edgelist,
                      read_matrix_market, read_yfactor, write_bsm, write_yfactor)
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
        Q = read_edgelist(path)
    except ParseError:
        return
    finite_instance(Q)
    assert Q.d == 1


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
    for (i, j, A), (k, l, B) in zip(pairs(a), pairs(b)):
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
    entries = [(j, i, float(B[0, 0])) for i, j, B in pairs(Q)]
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
    """A d=1 matrix of nonzero finite weights whose last vertex has an edge, as
    an edge list's largest index gives n.  Its pairs come in row order, as
    write_edgelist writes them."""
    n = draw(st.integers(2, 8))
    keys = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = sorted(draw(st.lists(st.sampled_from(keys), unique=True, min_size=1)))
    weights = st.lists(finite.filter(bool), min_size=len(chosen), max_size=len(chosen))
    i, j = np.array(chosen).T
    return BlockSparseSym.from_arrays(1, int(j.max()) + 1, i, j,
                                      np.array(draw(weights)).reshape(-1, 1, 1))


@PROPERTY
@given(Q=graphs())
def test_edgelist_roundtrip_is_exact(scratch, Q):
    path = scratch / "rt.edges"
    write_edgelist(Q, path)
    assert outcome(read_edgelist, path) == outcome(lambda _: Q, path)


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


# The one-pass table (blockmat._load_table) and the row reader must agree: the
# same arrays and line numbers, or the same ParseError.  Patching _load_table
# to give up runs the row reader alone.

def row_reader_only():
    return mock.patch.object(blockmat, "_load_table", return_value=None)


@contextmanager
def one_pass_outcomes():
    """Record what each _load_table call returned (None: the row reader took over)."""
    seen, real = [], blockmat._load_table
    with mock.patch.object(blockmat, "_load_table", lambda *a: seen.append(real(*a)) or seen[-1]):
        yield seen


def arrays_bytes(*arrays):
    """dtype, shape and contents of each array: its bytes, or for an array of Python
    ints (past int64) their values, since its bytes are the ints' addresses."""
    return [(a.dtype.str, a.shape, a.tolist() if a.dtype == object else a.tobytes())
            for a in map(np.asarray, arrays)]


def outcome(read, path):
    """What read(path) gives, as bytes, or its ParseError's path, line and message."""
    try:
        result = read(path)
    except ParseError as exc:
        return exc.path, exc.lineno, str(exc)
    if isinstance(result, tuple):  # read_matrix_market's (Q, offset)
        result, offset = result
        return repr(offset), outcome(lambda _: result, path)
    if isinstance(result, BlockSparseSym):
        return (result.d, result.n, *arrays_bytes(result.mat.data, result.mat.indices,
                                                  result.mat.indptr, result.column_nuclear_sums()))
    return arrays_bytes(result)


READERS = {"bsm": read_bsm, "mtx": read_matrix_market, "edges": read_edgelist,
           "yfactor": partial(read_yfactor, reproject=False)}


def assert_paths_agree(kind, path):
    fast = outcome(READERS[kind], path)
    with row_reader_only():
        assert outcome(READERS[kind], path) == fast
    return fast


ODD = ["1_0", "١", "1.0", "2.5", "9223372036854775808", "-9223372036854775809", "0x1",
       "x", "3\x00", "∞", "nan", "-inf", "Infinity", "1e400", "1e", "++1", ""]
CLEAN_INT = st.one_of(st.integers(-3, 12).map(str),
                      st.sampled_from(["+4", "05", "-0", "9223372036854775807"]))
CLEAN_FLOAT = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                        st.sampled_from(["1e-320", ".5", "5.", "1E5", "-0.0", "+1.5", "7"]))


@st.composite
def garbled(draw, rows, comment=""):
    """Text of rows (lists of fields), a few with an odd token or a wrong field count,
    with odd whitespace, blank and comment lines between them and CRLF or LF endings."""
    lines = []
    for fields in rows:
        for _ in range(draw(st.integers(0, 3)) // 2):
            lines.append(draw(st.sampled_from(["", " ", "\t", "\u2003", "\x0c", *[comment] * 2])))
        kind = draw(st.sampled_from(["clean"] * 8 + ["odd", "count"]))
        fields = list(fields)
        if kind == "odd":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(ODD))
        if kind == "count":
            fields = fields[1:] if draw(st.booleans()) else fields + ["1"]
        gaps = [draw(st.sampled_from([" ", " ", "\t", "  ", "\u2003", "\x1c"])) for _ in fields]
        lines.append(draw(st.sampled_from(["", "", " ", "\t"]))
                     + "".join(g + f for g, f in zip([""] + gaps[1:], fields)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def rows_text(n_int, n_float, comment=""):
    """Lines of n_int integers then n_float floats, garbled."""
    row = st.tuples(*[CLEAN_INT] * n_int, *[CLEAN_FLOAT] * n_float)
    return st.lists(row, max_size=8).flatmap(lambda rows: garbled(rows, comment))


@st.composite
def formatted_files(draw):
    """(kind, text): a valid file in one of the four formats, garbled."""
    kind = draw(st.sampled_from(sorted(READERS)))
    d, n = draw(st.integers(1, 3)), draw(st.integers(2, 6))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    pairs = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=8))
    values = st.lists(CLEAN_FLOAT, min_size=d * d, max_size=d * d)
    if kind == "yfactor":
        r = draw(st.integers(d, 3))
        rows = draw(st.lists(st.lists(CLEAN_FLOAT, min_size=d, max_size=d), min_size=r,
                             max_size=3 * r).map(lambda rows: rows[:len(rows) // r * r]))
        return kind, f"YFACTOR {r} {d} {len(rows) // r}\n" + draw(garbled(rows))
    if kind == "bsm":
        rows = [(str(min(p)), str(max(p)), *draw(values)) for p in dict.fromkeys(map(frozenset, pairs))]
        return kind, f"BSM {d} {n} {len(rows)}\n" + draw(garbled(rows))
    rows = [(str(i), str(j), draw(CLEAN_FLOAT)) for i, j in pairs]
    if kind == "edges":
        return kind, draw(garbled(rows, "#"))
    head = f"%%MatrixMarket matrix coordinate real general\n{n} {n} {len(rows)}\n"
    return kind, head + draw(garbled(rows, "%"))


@settings(PROPERTY, max_examples=200)
@given(case=formatted_files())
def test_one_pass_and_row_reader_give_the_same_result(scratch, case):
    kind, text = case
    path = scratch / f"paths.{kind}"
    path.write_bytes(text.encode())
    assert_paths_agree(kind, path)


@settings(PROPERTY, max_examples=200)
@given(data=st.data(), n_int=st.integers(0, 2), n_float=st.integers(1, 3),
       comment=st.sampled_from(["", "#", "%"]))
def test_one_pass_and_row_reader_read_the_same_rows(scratch, data, n_int, n_float, comment):
    path = scratch / "rows.txt"
    path.write_bytes(data.draw(rows_text(n_int, n_float, comment)).encode())
    messages = ("{got} fields: {fields} in {line!r}", "bad {line!r}", "non-finite {ints} {fields}")

    def read():
        try:
            with open(path) as fh:
                return arrays_bytes(*blockmat._read_rows(path, fh, 0, n_int, n_float, messages,
                                                         comment or ()))
        except ParseError as exc:
            return exc.path, exc.lineno, str(exc)

    fast = read()
    with row_reader_only():
        assert read() == fast


def bsm_with(*rows, n=12, end="\n"):
    return end.join([f"BSM 1 {n} {sum(bool(r.strip()) for r in rows)}", *rows]) + end


@pytest.mark.parametrize("kind,text,fell_back,expected", [
    # int() reads underscores, non-ASCII digits and integers past int64; loadtxt does not.
    ("bsm", bsm_with("1_0 12 2.0"), True, {(9, 11): 2.0}),
    ("bsm", bsm_with("١ 3 2.0", "2 3 1e-3"), True, {(0, 2): 2.0, (1, 2): 1e-3}),
    ("edges", "1 2 1.0\n1 99999999999999999999 1.0\n", True,
     "2: indices must fit in int64, got (1,99999999999999999999)"),
    ("bsm", bsm_with("1 3 2.0", "1.0 2 3.0"), True, "3: non-numeric field in '1.0 2 3.0'"),
    ("bsm", bsm_with("1 2", "1 3"), True, "2: expected 2 indices + 1 block entries, got 2 fields"),
    ("bsm", bsm_with("1 2 1.0 x", "1 3"), True,
     "2: expected 2 indices + 1 block entries, got 4 fields"),
    # Blank, whitespace-only and CRLF lines and a single row take the one pass.
    ("bsm", bsm_with("", "1 3 2.0", " \t ", "2 3 -1.5", "", end="\r\n"), False,
     {(0, 2): 2.0, (1, 2): -1.5}),
    ("bsm", bsm_with("1 2 3.5"), False, {(0, 1): 3.5}),
    ("yfactor", "YFACTOR 1 1 1\n\n  -0.5  \n\n", False, [[[-0.5]]]),
    ("bsm", bsm_with("", "1 3 2.0", "   ", "2 3 inf"), True, "5: non-finite entries in block (2,3)"),
])
def test_unusual_input_reads_as_before(scratch, kind, text, fell_back, expected):
    path = scratch / f"unusual.{kind}"
    path.write_bytes(text.encode())
    with one_pass_outcomes() as seen:
        result = assert_paths_agree(kind, path)
    assert (seen[-1] is None) == fell_back
    if isinstance(expected, str):
        assert result[1:] == (int(expected.split(":")[0]), f"{path}:{expected}")
    elif kind == "bsm":
        Q = BlockSparseSym(1, 12, {k: np.array([[v]]) for k, v in expected.items()})
        assert result == outcome(lambda _: Q, path)
    else:
        assert result == arrays_bytes(np.array(expected))


def test_written_files_take_the_one_pass(scratch):
    rng = np.random.default_rng(4)
    Q = BlockSparseSym(2, 5, {(0, 1): rng.standard_normal((2, 2)), (1, 4): np.eye(2)})
    write_bsm(Q, scratch / "w.bsm")
    write_yfactor(rng.standard_normal((3, 2, 2)), scratch / "w.yf")
    with one_pass_outcomes() as seen:
        read_bsm(scratch / "w.bsm")
        read_yfactor(scratch / "w.yf")
    assert len(seen) == 2 and None not in seen


# Each format fed a blank line, a comment line where it has one, CRLF endings,
# no final newline, and a faulty row or a faulty value after a blank line.  The
# pass over the open file accepts the line-list reader's arrays and raises its
# ParseError, line number included; a blank line, CRLF endings and a missing
# final newline leave the file to that one pass.
EDGE_FORMATS = {  # header, rows, comment prefix, reader, (rows, line, error) x 2
    "bsm": ("BSM 1 4 3", ["1 2 1.0", "1 3 2.0", "2 4 -0.5"], None, read_bsm,
            (["1 2 1.0", "", "1 x 2.0", "2 4 -0.5"], 4, "non-numeric field in '1 x 2.0'"),
            (["1 2 1.0", "", "3 2 2.0", "2 4 -0.5"], 4, "indices (3,2) violate 1 <= i < j <= n=4")),
    "mtx": ("%%MatrixMarket matrix coordinate real general\n% by hand\n4 4 3",
            ["1 2 1.0", "3 1 2.0", "2 4 -0.5"], "%", read_matrix_market,
            (["1 2 1.0", "", "3 x 2.0", "2 4 -0.5"], 6, "non-numeric field in '3 x 2.0'"),
            (["1 2 1.0", "", "5 1 2.0", "2 4 -0.5"], 6, "indices out of range for n=4")),
    "edges": ("", ["1 2 1.0", "3 2 2.0", "2 4 -0.5"], "#", read_edgelist,
              (["1 2 1.0", "", "3 x 2.0", "2 4 -0.5"], 3, "non-numeric field in '3 x 2.0'"),
              (["1 2 1.0", "", "2 2 2.0", "2 4 -0.5"], 3, "self-loop on vertex 2")),
    "yfactor": ("YFACTOR 2 1 2", ["1.0", "0.0", "0.6", "0.8"], None, read_yfactor,
                (["1.0", "", "x", "0.6", "0.8"], 4, "non-numeric value in 'x'"),
                (["1.0", "", "0.0", "0.0", "0.0"], 5,
                 "block 2: cannot project rank-deficient matrix: 1 of 1 columns deficient")),
}


def edge_text(head, rows, end="\n", final=True):
    return end.join(([head] if head else []) + rows) + (end if final else "")


@pytest.mark.parametrize("kind,variant", [
    (kind, variant) for kind in sorted(EDGE_FORMATS)
    for variant in ("blank", "comment", "crlf", "no-final-newline", "bad-row-after-blank",
                    "bad-value-after-blank") if variant != "comment" or EDGE_FORMATS[kind][2]])
def test_file_pass_reads_edge_cases_as_the_line_list_does(scratch, kind, variant):
    head, rows, comment, read, bad_row, bad_value = EDGE_FORMATS[kind]
    error = {"bad-row-after-blank": bad_row, "bad-value-after-blank": bad_value}.get(variant)
    text = {"blank": lambda: edge_text(head, [rows[0], "", *rows[1:]]),
            "comment": lambda: edge_text(head, [rows[0], f"{comment} note", *rows[1:]]),
            "crlf": lambda: edge_text(head.replace("\n", "\r\n"), rows, end="\r\n"),
            "no-final-newline": lambda: edge_text(head, rows, final=False)}.get(
                variant, lambda: edge_text(head, error[0]))()
    path = scratch / f"edge-{variant}.{kind}"
    path.write_bytes(text.encode())
    with one_pass_outcomes() as seen:
        fast = outcome(read, path)
    with row_reader_only():
        assert outcome(read, path) == fast
    if error is not None:
        _, line, message = error
        assert fast[1:] == (line, f"{path}:{line}: {message}")
        return
    clean = scratch / f"edge-clean.{kind}"
    clean.write_text(edge_text(head, rows))
    assert fast == outcome(read, clean)
    if variant != "comment":  # a comment line sends the file to the line list
        assert len(seen) == 1 and seen[0] is not None


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("kind", sorted(EDGE_FORMATS))
def test_a_pipe_reads_as_a_file(tmp_path, kind):
    # A pipe is read once, so its blank lines and faults are found without a second read.
    head, rows, _, read, _, bad_value = EDGE_FORMATS[kind]
    for k, body in enumerate([[rows[0], "", *rows[1:]], bad_value[0]]):
        text = edge_text(head, body)
        path, fifo = tmp_path / f"file{k}.{kind}", tmp_path / f"pipe{k}.{kind}"
        path.write_text(text)
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
        writer.start()
        got = outcome(read, fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert repr(got).replace(str(fifo), str(path)) == repr(outcome(read, path))


@settings(PROPERTY, max_examples=100)
@given(rows=st.lists(st.tuples(st.sampled_from(["", " ", "1", " 2.5 ", "-3"]),
                               st.sampled_from(["\n", "\r", "\r\n"])), max_size=12),
       final=st.booleans(), batch=st.integers(1, 8))
def test_file_pass_counts_and_numbers_lines_as_text_mode_does(scratch, rows, final, batch):
    path = scratch / "count.txt"
    path.write_bytes("".join(row + end for row, end in rows)[:None if final else -1].encode())
    with open(path) as fh:
        lines = fh.readlines()
    numbered = [k + 1 for k, line in enumerate(lines) if line.strip()]
    # Batches of a few characters split the lines, and CRLF pairs, across reads.
    with mock.patch.object(blockmat, "_BATCH_CHARS", batch), open(path) as fh:
        count, at, _, x = blockmat._read_rows(path, fh, 0, 0, 1, ("{got}", "{line}", "{line}"))
    assert (count, list(at), len(x)) == (len(lines), numbered, len(numbered))
