"""Line-oriented text files for the objects this package computes with.

Layout: a magic line, ``key value`` header lines, a ``data`` sentinel,
then the payload as whitespace-separated decimal floats in row-major
order (the label-5 slot of any five-index axis is stored last, matching
the in-memory layout).  Numbers are written with 17 significant digits,
so emit -> parse -> emit is byte-identical and values survive exactly.

Field kinds additionally carry ``origin``, ``spacing`` and ``shape``
header lines describing their sample grid, and any kind may carry a
``basis`` flag and a ``kappa`` line.

Files are read and written a block of payload lines at a time, so neither
direction holds the whole text, its lines or its words at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import GridMismatch, KindMismatch, NotFinite, ParseError
from .grids import Grid, grid_field
from .poincare import PoincareTransform

MAGIC = "pentavec 1"

# kind -> (per-sample shape, label set, needs grid)
KINDS = {
    "five_vector": ((5,), "five", False),
    "five_form": ((5,), "five", False),
    "four_vector": ((4,), "four", False),
    "bivector": ((5, 5), "five", False),
    "basis": ((5, 5), "five", False),
    "poincare_transform": ((20,), "four", False),
    "param_tensor": ((5, 5), "five", False),
    "generator_tensor": ((5, 5), "five", False),
    "four_basis_bivectors": ((4, 5, 5), "five", False),
    "four_basis_components": ((4, 4), "four", False),
    "scalar_field": ((), "four", True),
    "five_vector_field": ((5,), "five", True),
    "theta_field": ((4, 4), "four", True),
    "sigma_field": ((4, 4, 4), "four", True),
    "moment_field": ((4, 5, 5), "five", True),
}

_LABELS = {"five": "0 1 2 3 5", "four": "0 1 2 3"}
BASIS_FLAGS = ("O", "P", "regular")
VALUES_PER_LINE = 8
# Payload lines formatted by one ``%`` operation and written at once, or read
# and converted at once: bounds the temporary text, words, floats and tuple.
LINES_PER_BLOCK = 4096
_ROW = " ".join(["%.17g"] * VALUES_PER_LINE)


@dataclass(frozen=True)
class Record:
    """One parsed or to-be-written file: a kind, its payload, and metadata.

    ``payload`` is stored read-only.  An array that owns its data and is
    already read-only is adopted as it is, as ``FieldOnGrid`` adopts one;
    any other input, a writable array or a view included, is copied.
    """

    kind: str
    payload: np.ndarray
    basis: str | None = None
    kappa: float | None = None
    grid: Grid | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise KindMismatch(f"unknown kind {self.kind!r}")
        shape, _, needs_grid = KINDS[self.kind]
        payload = np.asarray(self.payload, dtype=float)
        if needs_grid and self.grid is None:
            raise KindMismatch(f"kind {self.kind!r} requires a grid")
        if not needs_grid and self.grid is not None:
            raise KindMismatch(f"kind {self.kind!r} carries no grid")
        expected = (self.grid.shape + shape) if needs_grid else shape
        if payload.shape != expected:
            raise KindMismatch(
                f"kind {self.kind!r} expects payload shape {expected}, got {payload.shape}"
            )
        if not np.all(np.isfinite(payload)):
            raise NotFinite(f"kind {self.kind!r} payload holds a non-finite value")
        if self.basis is not None and self.basis not in BASIS_FLAGS:
            raise KindMismatch(f"basis flag must be one of {BASIS_FLAGS}, got {self.basis!r}")
        if payload.flags.writeable or not payload.flags.owndata:
            payload = payload.copy()
            payload.setflags(write=False)
        object.__setattr__(self, "payload", payload)


def _fmt(x: float) -> str:
    return "%.17g" % x


def emit_record(record: Record, fh=None) -> str | None:
    """The text of ``record``; or, given an open text file, write that text
    to it a block of payload lines at a time and return None."""
    pieces = _record_pieces(record)
    if fh is None:
        return "".join(pieces)
    fh.writelines(pieces)  # drops each piece before it formats the next
    return None


def _record_pieces(record: Record):
    """The header through the ``data`` line, then the text of each block of payload lines."""
    lines = [MAGIC, f"kind {record.kind}"]
    lines.append("labels " + _LABELS[KINDS[record.kind][1]])
    if record.basis is not None:
        lines.append(f"basis {record.basis}")
    if record.kappa is not None:
        lines.append("kappa " + _fmt(record.kappa))
    if record.grid is not None:
        lines.append("origin " + " ".join(_fmt(v) for v in record.grid.origin))
        lines.append("spacing " + " ".join(_fmt(v) for v in record.grid.spacing))
        lines.append("shape " + " ".join(str(n) for n in record.grid.shape))
    lines.append("data")
    yield "\n".join(lines) + "\n"

    flat = record.payload.ravel()
    step = VALUES_PER_LINE * LINES_PER_BLOCK
    for start in range(0, flat.size, step):
        yield _block_text(flat[start : start + step])


def _block_text(values: np.ndarray) -> str:
    """``values`` formatted with ``%.17g``, eight to a line, each line ending in a line break."""
    full, rest = divmod(values.size, VALUES_PER_LINE)
    rows = [_ROW] * full
    if rest:
        rows.append(" ".join(["%.17g"] * rest))
    rows.append("")
    return "\n".join(rows) % tuple(values.tolist())


def write_record(path, record: Record) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        emit_record(record, fh)


def parse_record(source) -> Record:
    """The record in ``source``: its text, or an open text file.

    A file is read a block of payload lines at a time into an array
    allocated from the header's count.  At any fault it is read again from
    its start as one text, which raises the same ``ParseError``, line and
    column included, as ``parse_record`` of that text; so the file must be
    seekable, and bytes that are not UTF-8 raise ``UnicodeDecodeError``.
    """
    if isinstance(source, str):
        return _parse_text(source)
    try:
        return _parse_file(source)
    # ValueError: a bad token, a wrong count, a count too large for an array,
    # a non-finite value (NotFinite) or bytes that are not UTF-8
    # (UnicodeDecodeError, raised again by the read below); MemoryError: a
    # count too large to allocate.
    except (ParseError, ValueError, MemoryError):
        pass
    source.seek(0)
    return _parse_text(source.read())


def _parse_header(lines) -> tuple:
    """(kind, basis, kappa, grid, payload shape, line number of ``data``).

    ``lines`` iterates over the lines of a record, as ``str.splitlines``
    splits its text, and is consumed through the ``data`` sentinel.
    """
    first = next(lines, None)
    if first is None or first.strip() != MAGIC:
        raise ParseError(f"missing magic line {MAGIC!r}", line=1)

    header: dict[str, tuple[int, str]] = {}
    data_line = None
    idx = 1
    for idx, raw in enumerate(lines, start=2):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped == "data":
            data_line = idx
            break
        key, _, value = stripped.partition(" ")
        if not value:
            raise ParseError(f"header line needs a value after {key!r}", line=idx)
        if key in header:
            raise ParseError(f"duplicate header key {key!r}", line=idx)
        header[key] = (idx, value.strip())
    if data_line is None:
        raise ParseError("missing 'data' sentinel line", line=idx)

    if "kind" not in header:
        raise ParseError("missing 'kind' header", line=2)
    kind_line, kind = header.pop("kind")
    if kind not in KINDS:
        raise ParseError(f"unknown kind {kind!r}", line=kind_line)
    shape, labels, needs_grid = KINDS[kind]

    if "labels" in header:
        labels_line, got = header.pop("labels")
        if got.split() != _LABELS[labels].split():
            raise ParseError(f"kind {kind!r} expects labels {_LABELS[labels]!r}", line=labels_line)

    basis = None
    if "basis" in header:
        basis_line, basis = header.pop("basis")
        if basis not in BASIS_FLAGS:
            raise ParseError(f"basis flag must be one of {BASIS_FLAGS}", line=basis_line)

    kappa = None
    if "kappa" in header:
        kappa_line, raw_kappa = header.pop("kappa")
        try:
            kappa = float(raw_kappa)
        except ValueError:
            raise ParseError(f"bad kappa value {raw_kappa!r}", line=kappa_line) from None
        if not np.isfinite(kappa):
            raise ParseError("kappa must be finite", line=kappa_line)

    grid = None
    if needs_grid:
        geometry = {}
        for key in ("origin", "spacing", "shape"):
            if key not in header:
                raise ParseError(f"field kind {kind!r} needs a {key!r} header", line=data_line)
            line_no, raw = header.pop(key)
            try:
                geometry[key] = grid_field(key, raw.split())
            except (GridMismatch, NotFinite) as exc:
                raise ParseError(str(exc), line=line_no) from None
            except ValueError:
                raise ParseError(f"bad {key} value in {raw!r}", line=line_no) from None
        grid = Grid(**geometry)
    elif any(key in header for key in ("origin", "spacing", "shape")):
        raise ParseError(f"kind {kind!r} carries no grid", line=data_line)

    for key, (line_no, _) in header.items():
        raise ParseError(f"unknown header key {key!r}", line=line_no)

    return kind, basis, kappa, grid, (grid.shape + shape) if needs_grid else shape, data_line


def _parse_text(text: str) -> Record:
    lines = text.splitlines()
    kind, basis, kappa, grid, shape, data_line = _parse_header(iter(lines))
    data = lines[data_line:]
    try:
        payload = _read_payload(["\n".join(data)], shape)
        return Record(kind=kind, payload=payload, basis=basis, kappa=kappa, grid=grid)
    except (ValueError, MemoryError):  # the scan raises the located ParseError
        _scan_payload(data, data_line, kind, math.prod(shape))
        raise


def _file_lines(fh, rest: list):
    """The lines of ``fh`` as ``str.splitlines`` splits its text.

    ``rest`` holds, last first, those of the current line of the file
    (up to its ``\\n``) not yet yielded, for a reader that stops early.
    """
    while physical := fh.readline():
        rest[:] = reversed(physical.splitlines())
        while rest:
            yield rest.pop()


def _file_blocks(fh, rest: list):
    """The text of the lines left in ``rest`` by ``_file_lines``, then of
    each block of lines of ``fh``."""
    yield "".join(line + "\n" for line in reversed(rest))
    while block := "".join(islice(fh, LINES_PER_BLOCK)):
        yield block


def _parse_file(fh) -> Record:
    """The record in ``fh``; raises ParseError or ValueError at a fault,
    with no location for a fault in the payload."""
    rest: list = []
    kind, basis, kappa, grid, shape, _ = _parse_header(_file_lines(fh, rest))
    payload = _read_payload(_file_blocks(fh, rest), shape)
    return Record(kind=kind, payload=payload, basis=basis, kappa=kappa, grid=grid)


def _read_payload(blocks, shape: tuple) -> np.ndarray:
    """The read-only payload of ``shape`` held in ``blocks``, texts of whole
    lines of a data section.  Raises ValueError at a word ``float`` rejects
    or at a wrong count, and MemoryError when ``shape`` is too large."""
    payload = np.empty(shape)
    flat = payload.reshape(-1)
    filled = 0
    for text in blocks:
        filled = _fill(flat, filled, text)
    if filled != flat.size:
        raise ValueError(f"{filled} values for {flat.size}")
    payload.setflags(write=False)
    return payload


def _fill(flat: np.ndarray, filled: int, text: str) -> int:
    """Convert the words of ``text`` into ``flat`` from index ``filled`` on,
    and return the new fill.  A function of its own, so that the words are
    freed before the next block is read."""
    if "#" in text:  # drop comment lines, as the scan does
        text = "\n".join(line for line in text.splitlines() if not line.lstrip().startswith("#"))
    words = text.split()
    end = filled + len(words)
    if end > flat.size:
        raise ValueError(f"more than {flat.size} values")
    flat[filled:end] = np.fromiter(map(float, words), dtype=float, count=len(words))
    return end


def _scan_payload(data: list, data_line: int, kind: str, count: int) -> None:
    """Token-by-token check of the lines after the ``data`` sentinel at ``data_line``.

    Skips blank and ``#`` lines, and raises ``ParseError`` at the first
    fault: a wrong count at the last token, else the first bad or
    non-finite token at its line and column.  Tokens are converted by
    ``float`` itself, so the accepted set is its own.
    """
    tokens = []
    for idx, raw in enumerate(data, start=data_line + 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        col = 1
        for token in raw.split():
            col = raw.index(token, col - 1) + 1
            tokens.append((idx, col, token))
            col += len(token)

    if len(tokens) != count:
        raise ParseError(
            f"payload for {kind!r} needs {count} values, got {len(tokens)}",
            line=tokens[-1][0] if tokens else data_line,
        )
    for i, (line_no, col, token) in enumerate(tokens):
        try:
            value = float(token)
        except ValueError:
            raise ParseError(f"bad number {token!r} at sample {i}", line=line_no, column=col) from None
        if not math.isfinite(value):
            raise ParseError(f"sample {i} is not finite", line=line_no, column=col)


def read_record(path) -> Record:
    """The record in the file at ``path``, read as ``parse_record`` reads a file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_record(fh)
    except UnicodeDecodeError:
        pass
    # The decoder's error counts from its last buffer, not from the file's start.
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # "x" stands for the bad byte, so a line break just before it starts its line
        before = (raw[: exc.start].decode("utf-8") + "x").splitlines()
        raise ParseError(
            f"byte 0x{raw[exc.start]:02x} is not UTF-8 text", line=len(before), column=len(before[-1])
        ) from None
    return parse_record(text)


def transform_to_payload(t: PoincareTransform) -> np.ndarray:
    return np.concatenate([t.lam.ravel(), t.a])


def transform_from_payload(payload: np.ndarray) -> PoincareTransform:
    payload = np.asarray(payload, dtype=float)
    if payload.shape != (20,):
        raise KindMismatch(f"transform payload must hold 20 values, got shape {payload.shape}")
    return PoincareTransform(payload[:16].reshape(4, 4), payload[16:])
