import math
import os
import re
import signal
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from pentavec import fileio, forking
from pentavec.errors import KindMismatch, NotFinite, ParseError
from pentavec.fileio import (
    KINDS,
    LINES_PER_BLOCK,
    VALUES_PER_LINE,
    Record,
    emit_record,
    parse_record,
    read_record,
    transform_from_payload,
    transform_to_payload,
    write_record,
)
from pentavec.grids import Grid
from pentavec.poincare import PoincareTransform

TRICKY = np.array([0.1, 1.0 / 3.0, -0.0, 1e-300, -1e300, np.pi, 2.0**-52, 123456789.123456789])


def small_grid():
    return Grid(origin=(0.0, 0.1, -0.5, 1.0 / 3.0), spacing=(0.25, 0.5, 1.0, 0.7), shape=(2, 1, 2, 1))


def record_for(kind, rng):
    shape, _, needs_grid = KINDS[kind]
    grid = small_grid() if needs_grid else None
    payload_shape = (grid.shape + shape) if needs_grid else shape
    payload = rng.normal(size=payload_shape) * 10.0 ** rng.integers(-8, 8)
    basis = "P" if kind == "moment_field" else None
    return Record(kind=kind, payload=payload, basis=basis, kappa=0.3, grid=grid)


def test_emit_parse_emit_is_byte_identical_for_every_kind():
    rng = np.random.default_rng(80)
    for kind in KINDS:
        rec = record_for(kind, rng)
        text = emit_record(rec)
        back = parse_record(text)
        assert back.kind == rec.kind
        assert np.array_equal(back.payload, rec.payload)
        assert back.basis == rec.basis
        assert back.kappa == rec.kappa
        assert back.grid == rec.grid
        assert emit_record(back) == text


def test_tricky_values_survive_exactly():
    rec = Record(kind="four_basis_components", payload=TRICKY.reshape(4, 2).repeat(2, axis=1))
    back = parse_record(emit_record(rec))
    assert np.array_equal(back.payload, rec.payload)
    # negative zero keeps its sign bit through the text form
    rec = Record(kind="five_vector", payload=np.array([-0.0, 0.0, 1.0, -1.0, 0.1]))
    back = parse_record(emit_record(rec))
    assert np.signbit(back.payload[0]) and not np.signbit(back.payload[1])


def test_file_round_trip(tmp_path):
    rng = np.random.default_rng(81)
    path = tmp_path / "vector.pvec"
    rec = record_for("five_vector_field", rng)
    write_record(path, rec)
    back = read_record(path)
    assert np.array_equal(back.payload, rec.payload)
    assert back.grid == rec.grid


def test_read_record_rejects_non_utf8(tmp_path):
    text = emit_record(Record(kind="five_vector", payload=np.arange(5.0)))
    path = tmp_path / "latin1.pvec"
    path.write_bytes(text.replace("3 4", "3 \xe9 4").encode("latin-1"))
    with pytest.raises(ParseError) as info:
        read_record(path)
    assert "0xe9" in str(info.value)
    assert (info.value.line, info.value.column) == (5, 9)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes need os.mkfifo")
def test_read_record_reads_a_named_pipe_whole(tmp_path):
    """A pipe has no byte ranges to read: it is read whole, and a fault in it
    is located as in the text."""
    good = emit_record(Record(kind="five_vector", payload=np.arange(5.0), kappa=0.5))
    bad = good.replace("3 4", "3 x")
    outcomes = []
    for name, text in (("good", good), ("bad", bad)):
        fifo = tmp_path / f"{name}.pvec"
        os.mkfifo(fifo)
        code = "import sys; open(sys.argv[1], 'w').write(sys.argv[2])"
        writer = subprocess.Popen([sys.executable, "-c", code, str(fifo), text])
        try:
            outcomes.append(read_record(fifo))
        except ParseError as err:
            outcomes.append(err)
        finally:
            assert writer.wait(timeout=60) == 0
    rec, err = outcomes
    assert np.array_equal(rec.payload, np.arange(5.0)) and rec.kappa == 0.5
    assert (str(err), err.line, err.column) == outcome(bad) == ("bad number 'x' at sample 4 (line 6, column 9)", 6, 9)


def test_comments_and_blank_lines_ignored():
    rec = Record(kind="five_vector", payload=np.arange(5.0))
    lines = emit_record(rec).splitlines()
    lines.insert(2, "# a comment")
    lines.insert(4, "")
    lines.append("# trailing note")
    back = parse_record("\n".join(lines) + "\n")
    assert np.array_equal(back.payload, np.arange(5.0))


def test_record_validation():
    with pytest.raises(KindMismatch):
        Record(kind="sixtensor", payload=np.zeros(5))
    with pytest.raises(KindMismatch):
        Record(kind="five_vector", payload=np.zeros(4))
    with pytest.raises(KindMismatch):
        Record(kind="five_vector", payload=np.zeros(5), grid=small_grid())
    with pytest.raises(KindMismatch):
        Record(kind="scalar_field", payload=np.zeros(4))  # grid missing
    with pytest.raises(KindMismatch):
        Record(kind="five_vector", payload=np.zeros(5), basis="Q")


@pytest.mark.parametrize("kappa", [math.inf, -math.inf, math.nan])
def test_record_rejects_a_non_finite_kappa(kappa):
    """A record that its own file would refuse cannot be made."""
    with pytest.raises(NotFinite, match="kappa must be finite"):
        Record(kind="five_vector", payload=np.arange(5.0), kappa=kappa)


def test_record_adopts_an_owned_read_only_payload():
    owned = np.arange(5.0)
    owned.setflags(write=False)
    assert Record(kind="five_vector", payload=owned).payload is owned
    frozen_view = np.arange(10.0)[::2]
    frozen_view.setflags(write=False)
    for given in (np.arange(5.0), np.arange(10.0)[::2], frozen_view):
        rec = Record(kind="five_vector", payload=given)
        assert rec.payload is not given and rec.payload.flags.owndata and not rec.payload.flags.writeable
        assert np.array_equal(rec.payload, given)


def test_read_and_write_memory_is_bounded_by_a_block(tmp_path):
    grid = Grid(origin=(0.0,) * 4, spacing=(0.1,) * 4, shape=(13, 13, 13, 1))
    payload = np.random.default_rng(83).standard_normal(grid.shape + (4, 5, 5))
    rec = Record(kind="moment_field", payload=payload, basis="P", grid=grid)
    path = tmp_path / "moment.pvec"
    tracemalloc.start()
    try:
        write_record(path, rec)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        back = read_record(path)
        read_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert back.payload.tobytes() == rec.payload.tobytes()
    assert back.payload.flags.owndata and not back.payload.flags.writeable

    # One block of payload lines: its text, its floats as tolist() gives
    # them, and the words a read splits the text into.
    lines = path.read_text(encoding="utf-8").split("\n")
    first = lines.index("data") + 1
    text = "\n".join(lines[first : first + LINES_PER_BLOCK]) + "\n"
    floats = rec.payload.ravel()[: VALUES_PER_LINE * LINES_PER_BLOCK].tolist()
    floats_bytes = sys.getsizeof(floats) + sum(map(sys.getsizeof, floats))
    words = text.split()
    words_bytes = sys.getsizeof(words) + sum(map(sys.getsizeof, words))
    # The whole payload as text, words or floats would be 16 times one block.
    assert read_peak <= 2 * rec.payload.nbytes + sys.getsizeof(text) + words_bytes
    # Formatting a block also holds the % format string and the spare room
    # of the string being built: about a fifth more than its text and floats.
    assert write_peak <= 1.5 * (sys.getsizeof(text) + floats_bytes)


@pytest.mark.parametrize("ending", ["\r\n", "\r"])
def test_read_memory_is_bounded_by_a_block_at_other_line_ends(tmp_path, ending):
    """Chunks are cut after a \\r as after a \\n, so a file with either line end
    is read a block at a time."""
    grid = Grid(origin=(0.0,) * 4, spacing=(0.1,) * 4, shape=(13, 13, 13, 1))
    rec = Record("moment_field", np.random.default_rng(84).standard_normal(grid.shape + (4, 5, 5)), basis="P", grid=grid)
    lines = emit_record(rec).split("\n")
    first = lines.index("data") + 1
    text = ending.join(lines[first : first + LINES_PER_BLOCK]) + ending
    path = tmp_path / "moment.pvec"
    path.write_bytes(ending.join(lines).encode("utf-8"))
    tracemalloc.start()
    try:
        back = read_record(path)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.payload.tobytes() == rec.payload.tobytes()
    words = text.split()
    assert read_peak <= 2 * rec.payload.nbytes + sys.getsizeof(text) + sys.getsizeof(words) + sum(map(sys.getsizeof, words))


def parse_error_for(text):
    with pytest.raises(ParseError) as info:
        parse_record(text)
    return info.value


def test_parse_error_locations():
    err = parse_error_for("not the magic\n")
    assert err.line == 1

    good = emit_record(Record(kind="five_vector", payload=np.arange(5.0)))

    err = parse_error_for(good.replace("kind five_vector", "kind sixvector"))
    assert "sixvector" in str(err) and err.line == 2

    err = parse_error_for(good.replace("labels 0 1 2 3 5", "labels 0 1 2 3 4"))
    assert err.line == 3

    err = parse_error_for(good.replace("data", "kind five_vector\ndata", 1))
    assert "duplicate" in str(err)

    err = parse_error_for(good.replace("data", "mystery 1\ndata", 1))
    assert "mystery" in str(err)

    err = parse_error_for(good.replace("data\n", ""))
    assert "data" in str(err)

    no_kind = "\n".join(line for line in good.splitlines() if not line.startswith("kind"))
    err = parse_error_for(no_kind + "\n")
    assert "kind" in str(err)


def test_parse_error_payload():
    good = emit_record(Record(kind="five_vector", payload=np.arange(5.0)))

    err = parse_error_for(good.replace("4", "4 9"))  # six values
    assert "needs 5 values" in str(err)

    err = parse_error_for(good.replace("3 4", "x 4"))
    assert "bad number" in str(err) and err.column is not None

    err = parse_error_for(good.replace("4", "nan"))
    assert "sample 4" in str(err) and err.line is not None

    err = parse_error_for(good.replace("4", "inf"))
    assert "not finite" in str(err)


def test_parse_error_grid_headers():
    rng = np.random.default_rng(82)
    good = emit_record(record_for("scalar_field", rng))

    err = parse_error_for("\n".join(l for l in good.splitlines() if not l.startswith("origin")) + "\n")
    assert "origin" in str(err)

    err = parse_error_for(good.replace("shape 2 1 2 1", "shape 2 1 2"))
    assert "four values" in str(err)

    err = parse_error_for(good.replace("shape 2 1 2 1", "shape 2 1 2 x"))
    assert "bad shape" in str(err)

    # 2**32 * 2**32 samples wraps to 0 in int64; an empty payload must not pass
    data_line = good.splitlines().index("data") + 1
    empty = good[: good.index("data\n") + 5].replace("shape 2 1 2 1", "shape 4294967296 4294967296 1 1")
    err = parse_error_for(empty)
    assert "needs 18446744073709551616 values, got 0" in str(err) and err.line == data_line

    vec = emit_record(Record(kind="five_vector", payload=np.arange(5.0)))
    err = parse_error_for(vec.replace("data", "shape 1 1 1 1\ndata", 1))
    assert "carries no grid" in str(err)

    err = parse_error_for(good.replace("kappa 0.29999999999999999", "kappa many"))
    assert "kappa" in str(err)

    err = parse_error_for(good.replace("kappa 0.29999999999999999", "kappa inf"))
    assert "finite" in str(err)


def test_basis_flag_rejected_when_unknown():
    good = emit_record(Record(kind="five_vector", payload=np.arange(5.0), basis="O"))
    err = parse_error_for(good.replace("basis O", "basis X"))
    assert "basis" in str(err)


def test_transform_payload_round_trip():
    t = PoincareTransform(np.eye(4), [1.0, 2.0, 3.0, 4.0])
    payload = transform_to_payload(t)
    assert payload.shape == (20,)
    back = transform_from_payload(payload)
    assert np.array_equal(back.lam, t.lam)
    assert np.array_equal(back.a, t.a)
    rec = Record(kind="poincare_transform", payload=payload)
    again = transform_from_payload(parse_record(emit_record(rec)).payload)
    assert np.array_equal(again.lam, t.lam) and np.array_equal(again.a, t.a)
    with pytest.raises(KindMismatch):
        transform_from_payload(np.zeros(19))


# ------------------------------------------------------------ properties

BLOCK = VALUES_PER_LINE * LINES_PER_BLOCK
TRICKY_VALUES = [
    -0.0,
    5e-324,
    2.2250738585072009e-308,
    1e-310,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    0.1,
    1.0 / 3.0,
]
# The explain phase traces every line of a failing example, which makes a
# failure on these payloads of ~10^4-10^5 values take minutes to report.
PROPERTY = settings(max_examples=25, deadline=None, phases=[p for p in Phase if p is not Phase.explain])
# Fewer examples where each one runs the per-token scan over a whole block or more.
SCANNED = settings(PROPERTY, max_examples=10)


def sample_counts(per_sample, multi_block):
    """Grid sample counts giving a payload a little over one block, or else
    a short one or one just around one or two blocks."""
    if multi_block:
        return st.integers(BLOCK // per_sample + 1, (BLOCK + 4096) // per_sample)
    near = sorted({max(1, k * BLOCK // per_sample + d) for k in (1, 2) for d in (-1, 0, 1, 2)})
    return st.one_of(st.integers(1, 12), st.sampled_from(near))


@st.composite
def records(draw, kinds=tuple(KINDS), multi_block=False):
    kind = draw(st.sampled_from(kinds))
    shape, _, needs_grid = KINDS[kind]
    grid = None
    if needs_grid:
        counts = [1, 1, 1, 1]
        counts[draw(st.integers(0, 3))] = draw(sample_counts(math.prod(shape), multi_block))
        grid = Grid(origin=(0.0, 0.1, -0.5, 1.0 / 3.0), spacing=(0.25, 0.5, 1.0, 0.7), shape=counts)
    payload_shape = (grid.shape + shape) if needs_grid else shape
    size = math.prod(payload_shape)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    payload = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
    for index, value in draw(st.lists(st.tuples(st.integers(0, size - 1), st.sampled_from(TRICKY_VALUES)), max_size=8)):
        payload[index] = value
    basis = draw(st.sampled_from([None, "O", "P", "regular"]))
    kappa = draw(st.none() | st.floats(allow_nan=False, allow_infinity=False))
    return Record(kind=kind, payload=payload.reshape(payload_shape), basis=basis, kappa=kappa, grid=grid)


def payload_tokens(text):
    """(line, column, token) of every payload token, found by regex, both numbered from 1."""
    lines = text.splitlines()
    first = lines.index("data") + 1
    return [
        (no, m.start() + 1, m.group())
        for no, line in enumerate(lines[first:], start=first + 1)
        for m in re.finditer(r"\S+", line)
    ]


def replace_token(text, where, new):
    """``text`` with the token at ``where`` = (line, column, token) replaced by ``new``."""
    line, col, token = where
    lines = text.split("\n")
    raw = lines[line - 1]
    lines[line - 1] = raw[: col - 1] + new + raw[col - 1 + len(token) :]
    return "\n".join(lines)


def outcome(text):
    """The payload bits of a parse, or the message and location of its ParseError."""
    try:
        return parse_record(text).payload.tobytes()
    except ParseError as err:
        return str(err), err.line, err.column


@PROPERTY
@given(records())
def test_emit_parse_emit_is_byte_identical_property(rec):
    text = emit_record(rec)
    back = parse_record(text)
    assert back.payload.tobytes() == rec.payload.tobytes()  # bit-equal, -0.0 included
    assert (back.kind, back.basis, back.kappa, back.grid) == (rec.kind, rec.basis, rec.kappa, rec.grid)
    assert emit_record(back) == text
    flat = rec.payload.ravel()
    rows = [flat[i : i + VALUES_PER_LINE] for i in range(0, flat.size, VALUES_PER_LINE)]
    assert text.split("data\n", 1)[1] == "".join(" ".join("%.17g" % v for v in row) + "\n" for row in rows)


multi_block = records(kinds=("scalar_field", "five_vector_field", "moment_field"), multi_block=True)


@SCANNED
@given(multi_block, st.data(), st.sampled_from(["x", "nan", "inf"]))
def test_bad_token_is_located_in_a_multi_block_payload(rec, data, bad):
    text = emit_record(rec)
    tokens = payload_tokens(text)
    index = data.draw(st.integers(0, len(tokens) - 1))
    line, col, _ = tokens[index]
    err = parse_error_for(replace_token(text, tokens[index], bad))
    message = f"bad number 'x' at sample {index}" if bad == "x" else f"sample {index} is not finite"
    assert str(err) == f"{message} (line {line}, column {col})"
    assert (err.line, err.column) == (line, col)


@SCANNED
@given(multi_block, st.data(), st.booleans())
def test_one_token_too_many_or_too_few_is_located(rec, data, add):
    text = emit_record(rec)
    tokens = payload_tokens(text)
    where = tokens[data.draw(st.integers(0, len(tokens) - 1))]
    bad = replace_token(text, where, where[2] + " 1" if add else "")
    count = rec.payload.size
    err = parse_error_for(bad)
    last_line = payload_tokens(bad)[-1][0]
    assert str(err) == f"payload for {rec.kind!r} needs {count} values, got {count + (1 if add else -1)} (line {last_line})"
    assert (err.line, err.column) == (last_line, None)


@SCANNED
@given(records(kinds=("five_vector_field", "theta_field")), st.data())
def test_comment_line_between_data_lines_changes_nothing(rec, data):
    lines = emit_record(rec).splitlines()
    first = lines.index("data") + 1
    at = data.draw(st.integers(first, len(lines)))
    lines.insert(at, data.draw(st.sampled_from(["# note", "   # indented note", "#"])))
    assert parse_record("\n".join(lines) + "\n").payload.tobytes() == rec.payload.tobytes()


ODD_TOKENS = ["1_0", "\u0661", "+.5", "-0", "0x10", "1e999", "Infinity", "-nan", "1,0", "--1", "1e", "."]
token_text = (
    st.sampled_from(ODD_TOKENS)
    | st.floats().map(repr)
    | st.text(st.sampled_from("0123456789._eE+-n\u0663"), min_size=1, max_size=5)
)


@PROPERTY
@given(st.lists(token_text, min_size=5, max_size=5), st.sets(st.integers(1, 4)))
def test_bulk_read_accepts_exactly_what_the_scan_accepts(tokens, breaks):
    """The block read and the per-token scan that locates its faults agree:
    a body the read rejects and the scan passes would raise a bare
    ValueError, and a trailing comment line changes nothing."""
    head = emit_record(Record(kind="five_vector", payload=np.zeros(5))).split("data\n")[0]
    body = tokens[0] + "".join(("\n" if i in breaks else " ") + t for i, t in enumerate(tokens) if i)
    text = head + "data\n" + body + "\n"
    got = outcome(text)
    assert got == outcome(text + "# end\n")
    if isinstance(got, bytes):
        assert got == np.array([float(token) for token in tokens]).tobytes()


# --------------------------------------------- streamed read vs whole text

SEPARATORS = ["\f", "\v", "\x1c", "\x85", "\u2028", "\xa0"]
edits = st.lists(
    st.one_of(
        st.tuples(st.just("line"), st.integers(0, 10**6), st.sampled_from(["", "   ", "# note", "  # note", "#"])),
        st.tuples(st.just("token"), st.integers(0, 10**6), st.sampled_from(["x", "nan", "inf", "", "1 2", "#1", "1e999"])),
        st.tuples(st.just("separator"), st.integers(0, 10**6), st.sampled_from(SEPARATORS)),
    ),
    max_size=3,
)


@st.composite
def short_records(draw):
    """A record of a few to a few dozen payload lines."""
    kind = draw(st.sampled_from(["five_vector", "bivector", "five_vector_field", "theta_field"]))
    shape, _, needs_grid = KINDS[kind]
    grid = Grid(origin=(0.0,) * 4, spacing=(0.5,) * 4, shape=(draw(st.integers(1, 6)), 1, 2, 1)) if needs_grid else None
    payload_shape = (grid.shape + shape) if needs_grid else shape
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    payload = rng.standard_normal(payload_shape) * 10.0 ** rng.integers(-300, 300, payload_shape)
    basis = draw(st.sampled_from([None, "P"]))
    return Record(kind=kind, payload=payload, basis=basis, kappa=draw(st.none() | st.just(0.25)), grid=grid)


def edited(text, edit):
    """``text`` with a line inserted, a payload token replaced, or a space or
    line break replaced by another separator, at a position taken modulo
    the number of places."""
    what, where, new = edit
    if what == "line":
        lines = text.split("\n")
        lines.insert(1 + where % (len(lines) - 1), new)
        return "\n".join(lines)
    if what == "token":
        tokens = payload_tokens(text)
        return replace_token(text, tokens[where % len(tokens)], new) if tokens else text
    places = [i for i, c in enumerate(text) if c in " \n"]
    i = places[where % len(places)]
    return text[:i] + new + text[i + 1 :]


def whole_text_outcome(data):
    """The fields of the record in ``data``, or the message and location of
    the error, when the bytes are decoded and parsed as one text."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = (data[: exc.start].decode("utf-8") + "x").splitlines()
        line, column = len(before), len(before[-1])
        return f"byte 0x{data[exc.start]:02x} is not UTF-8 text (line {line}, column {column})", line, column
    try:
        rec = parse_record(text)
    except ParseError as err:
        return str(err), err.line, err.column
    return rec.kind, rec.basis, rec.kappa, rec.grid, rec.payload.shape, rec.payload.tobytes()


@settings(PROPERTY, max_examples=300)
@given(
    short_records(),
    edits,
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.none() | st.tuples(st.integers(0, 10**6), st.sampled_from([b"\xe9", b"\xff", b"\xc3"])),
    st.sampled_from([1, 2, 3, LINES_PER_BLOCK]),
)
def test_streamed_read_matches_the_whole_text_parse(tmp_path_factory, rec, changes, ending, bad_byte, lines_per_block):
    text = emit_record(rec)
    # separators last: the other edits find lines and tokens by line breaks
    for change in sorted(changes, key=lambda change: change[0] == "separator"):
        text = edited(text, change)
    data = text.replace("\n", ending).encode("utf-8")
    if bad_byte is not None:
        at = bad_byte[0] % (len(data) + 1)
        data = data[:at] + bad_byte[1] + data[at:]
    expected = whole_text_outcome(data)

    path = tmp_path_factory.getbasetemp() / "streamed.pvec"
    path.write_bytes(data)
    whole_text_reads = []
    parse = fileio.parse_record
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fileio, "LINES_PER_BLOCK", lines_per_block)
        patch.setattr(fileio, "parse_record", lambda text: whole_text_reads.append(1) or parse(text))
        try:
            rec = read_record(path)
        except ParseError as err:
            got = str(err), err.line, err.column
        else:
            got = rec.kind, rec.basis, rec.kappa, rec.grid, rec.payload.shape, rec.payload.tobytes()
    assert got == expected
    if isinstance(expected[-1], bytes):
        assert not whole_text_reads  # a good file is read once, in blocks


# ------------------------------------------------ two processes vs one


def read_outcome(path):
    """``whole_text_outcome``'s fields or error, from ``read_record``."""
    try:
        rec = read_record(path)
    except ParseError as err:
        return str(err), err.line, err.column
    return rec.kind, rec.basis, rec.kappa, rec.grid, rec.payload.shape, rec.payload.tobytes()


def assert_no_helper_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def counted_forks(patch):
    """Patch ``forking.forked`` to note each two-process run in the list it returns."""
    runs, forked = [], forking.forked
    patch.setattr(forking, "forked", lambda child, parent: runs.append(1) or forked(child, parent))
    return runs


@pytest.fixture
def forks(monkeypatch):
    """One payload line a block, so that a record of 16 values or more is
    read and written by two processes; the list of those runs."""
    monkeypatch.setattr(fileio, "LINES_PER_BLOCK", 1)
    yield counted_forks(monkeypatch)
    assert_no_helper_left()


def helper_fails(monkeypatch, module, name):
    """Make ``module.name`` raise in a forked helper, and only there."""
    parent, real = os.getpid(), getattr(module, name)

    def patched(*args):
        if os.getpid() != parent:
            raise RuntimeError("the helper fails")
        return real(*args)

    monkeypatch.setattr(module, name, patched)


def test_two_process_write_gives_the_emitted_bytes_for_every_kind(tmp_path, forks):
    rng = np.random.default_rng(90)
    split = 0
    for kind in KINDS:
        rec = record_for(kind, rng)
        path = tmp_path / f"{kind}.pvec"
        write_record(path, rec)
        assert path.read_bytes() == emit_record(rec).encode("utf-8")
        back = read_record(path)
        assert back.payload.tobytes() == rec.payload.tobytes()
        assert (back.kind, back.basis, back.kappa, back.grid) == (rec.kind, rec.basis, rec.kappa, rec.grid)
        split += 2 * (rec.payload.size >= 2 * VALUES_PER_LINE)
    assert len(forks) == split == 22  # all but the kinds of 4 or 5 values, each read and written


FAULTS = ["none", "bad token", "not finite", "one too many", "one too few", "comment lines", "bad byte"]


@settings(PROPERTY, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.sampled_from(FAULTS), st.sampled_from(["\n", "\r\n", "\r"]), st.data())
def test_two_process_read_matches_the_whole_text_parse(tmp_path_factory, seed, fault, ending, data):
    grid = Grid(origin=(0.0,) * 4, spacing=(0.5,) * 4, shape=(3, 1, 2, 1))
    payload = np.random.default_rng(seed).standard_normal(grid.shape + (4, 5, 5))
    text = emit_record(Record("moment_field", payload, basis="P", grid=grid))  # 75 payload lines
    tokens = payload_tokens(text)
    where = tokens[data.draw(st.integers(len(tokens) // 2, len(tokens) - 1))]  # in the second half
    if fault == "comment lines":  # one between every two lines, so one is at the split
        text = text.replace("\n", "\n# note\n").replace("data\n# note\n", "data\n")
    elif fault != "none":
        new = {"bad token": "x", "not finite": "inf", "one too many": where[2] + " 1", "one too few": ""}
        text = replace_token(text, where, new.get(fault, "\x00"))
    raw = text.replace("\n", ending).encode("utf-8").replace(b"\x00", b"\xe9")
    path = tmp_path_factory.getbasetemp() / "two.pvec"
    path.write_bytes(raw)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fileio, "LINES_PER_BLOCK", 2)
        runs = counted_forks(patch)
        assert read_outcome(path) == whole_text_outcome(raw)
    # Two processes read the payload whatever the line ends.  A bad byte may
    # be decoded with the header.
    if fault != "bad byte":
        assert len(runs) == 1
    assert_no_helper_left()


def test_a_failing_helper_gives_the_one_process_result(tmp_path, forks, monkeypatch):
    grid = Grid(origin=(0.0,) * 4, spacing=(0.5,) * 4, shape=(3, 1, 2, 1))
    rec = Record("theta_field", np.random.default_rng(91).standard_normal(grid.shape + (4, 4)), grid=grid)
    text = emit_record(rec)
    whole_text_reads = []
    parse = fileio.parse_record
    monkeypatch.setattr(fileio, "parse_record", lambda text: whole_text_reads.append(1) or parse(text))
    helper_fails(monkeypatch, fileio, "_block_text")
    helper_fails(monkeypatch, os, "pread")

    write_record(tmp_path / "theta.pvec", rec)
    assert (tmp_path / "theta.pvec").read_text(encoding="utf-8") == text
    assert read_record(tmp_path / "theta.pvec").payload.tobytes() == rec.payload.tobytes()
    assert len(forks) == 2 and whole_text_reads == []  # the helper's half was read again here
    assert_no_helper_left()

    # a fault in the first half while the helper runs: the located error of the whole text
    bad = replace_token(text, payload_tokens(text)[3], "x")
    (tmp_path / "bad.pvec").write_text(bad, encoding="utf-8")
    err = pytest.raises(ParseError, read_record, tmp_path / "bad.pvec").value
    assert (str(err), err.line, err.column) == outcome(bad)
    assert len(forks) == 3


def test_a_write_helper_that_fails_midway_gives_the_emitted_bytes(tmp_path, forks, monkeypatch):
    """The helper formats its first block, then fails at its second.  A failed
    run leaves a prefix of the half's text, which the run here writes over;
    so that bytes past the half's end show, this helper's first block also
    carries more stale text than the buffer holds, which reaches the file."""
    parent, real, blocks = os.getpid(), fileio._block_text, []

    def block_text(values):
        if os.getpid() == parent:
            return real(values)
        blocks.append(1)  # in the helper's copy of this list
        if len(blocks) > 1:
            raise RuntimeError("the helper fails")
        return real(values) + " " * (1 << 16)

    monkeypatch.setattr(fileio, "_block_text", block_text)
    rec = record_for("theta_field", np.random.default_rng(94))
    write_record(tmp_path / "theta.pvec", rec)
    assert (tmp_path / "theta.pvec").read_text(encoding="utf-8") == emit_record(rec)
    assert len(forks) == 1


def test_a_helper_whose_status_is_lost_gives_the_one_process_result(tmp_path, forks):
    """With SIGCHLD ignored, the helper is reaped as it exits, so waitpid
    finds no child; that counts as a failed helper."""
    rec = record_for("moment_field", np.random.default_rng(93))
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        write_record(tmp_path / "m.pvec", rec)
        back = read_record(tmp_path / "m.pvec")
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert (tmp_path / "m.pvec").read_text(encoding="utf-8") == emit_record(rec)
    assert back.payload.tobytes() == rec.payload.tobytes()
    assert len(forks) == 2


@pytest.mark.parametrize("fork", ["absent", "fails"])
def test_without_a_second_process_the_bytes_and_records_are_the_same(tmp_path, forks, monkeypatch, fork):
    def fork_fails():
        raise BlockingIOError("no process to spare")

    if fork == "absent":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", fork_fails)
    rng = np.random.default_rng(92)
    for kind in ("moment_field", "sigma_field", "bivector"):
        rec = record_for(kind, rng)
        write_record(tmp_path / "r.pvec", rec)
        assert (tmp_path / "r.pvec").read_text(encoding="utf-8") == emit_record(rec)
        assert read_record(tmp_path / "r.pvec").payload.tobytes() == rec.payload.tobytes()
    assert len(forks) == (0 if fork == "absent" else 6)  # with fork failing, both parts run here
