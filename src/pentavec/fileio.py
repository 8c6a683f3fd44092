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
direction holds the whole text, its lines or its words at once; a regular
file is read only by byte ranges, cut after a line end, ``\n`` or ``\r``.
``read_record`` and ``write_record`` hand the second half of a payload of
two blocks or more to a forked process when ``forking.can_fork`` allows:
this one runs no other Python thread and may use a second CPU.  Each
process holds a block of its half at a time; the reader's helper parses
into shared memory, the writer's formats into a temporary file copied in
after the first half.  A helper that fails has its half done again in this
process, so outputs and errors are those of one process.
"""

from __future__ import annotations

import math
import mmap
import os
import shutil
import stat
import tempfile
from dataclasses import dataclass

import numpy as np

from . import forking
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
        if self.kappa is not None and not math.isfinite(self.kappa):
            raise NotFinite(f"kappa must be finite, got {self.kappa!r}")
        if self.basis is not None and self.basis not in BASIS_FLAGS:
            raise KindMismatch(f"basis flag must be one of {BASIS_FLAGS}, got {self.basis!r}")
        if payload.flags.writeable or not payload.flags.owndata:
            payload = payload.copy()
            payload.setflags(write=False)
        object.__setattr__(self, "payload", payload)


def _fmt(x: float) -> str:
    return "%.17g" % x


def emit_record(record: Record) -> str:
    """The text of ``record``."""
    return "".join(_record_pieces(record, record.payload.ravel()))


def _record_pieces(record: Record, flat: np.ndarray):
    """The header through the ``data`` line, then the text of each block of
    payload lines of ``flat``, the payload or its first part."""
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
    yield from _block_texts(flat)


def _block_texts(flat: np.ndarray):
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
    """Write ``emit_record(record)`` to the file at ``path`` a block of
    payload lines at a time, by two processes if ``_two_processes`` allows."""
    flat = record.payload.ravel()
    with open(path, "w", encoding="utf-8") as fh:
        if not _two_processes(flat.size):
            fh.writelines(_record_pieces(record, flat))  # drops each piece before it formats the next
            return
        mid = flat.size // (2 * VALUES_PER_LINE) * VALUES_PER_LINE
        with tempfile.TemporaryFile() as tmp:

            def child():  # from the start, over what a failed run left
                tmp.seek(0)
                tmp.truncate()
                tmp.writelines(text.encode("utf-8") for text in _block_texts(flat[mid:]))
                tmp.flush()

            forking.forked(child, lambda: fh.writelines(_record_pieces(record, flat[:mid])))
            fh.flush()
            tmp.seek(0)
            shutil.copyfileobj(tmp, fh.buffer)


def _two_processes(count: int) -> bool:
    """Whether a payload of ``count`` values is read or written by two processes."""
    return count >= 2 * VALUES_PER_LINE * LINES_PER_BLOCK and forking.can_fork()


def _parse_header(lines) -> tuple:
    """(kind, basis, kappa, grid, payload shape, line number of ``data``).

    ``lines`` iterates over a record's lines, as ``str.splitlines`` splits
    its text (line ends kept or not), and is consumed through ``data``.
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


def parse_record(text: str) -> Record:
    """The record in ``text``."""
    lines = text.splitlines()
    kind, basis, kappa, grid, shape, data_line = _parse_header(iter(lines))
    data = lines[data_line:]
    try:
        payload = _read_payload(["\n".join(data)], shape)
        return Record(kind=kind, payload=payload, basis=basis, kappa=kappa, grid=grid)
    except (ValueError, MemoryError):  # the scan raises the located ParseError
        _scan_payload(data, data_line, kind, math.prod(shape))
        raise


def _read_blocks(fd: int, size: int) -> Record:
    """The record in the ``size`` bytes of regular file ``fd``, read only
    by byte ranges, into an array allocated from the header's count; by two
    processes if ``_two_processes`` allows."""
    header = []  # the lines of the header, through the data line

    def lines():
        for text in _byte_blocks(fd, 0, size):
            for line in text.splitlines(keepends=True):
                header.append(line)
                yield line

    kind, basis, kappa, grid, shape, _ = _parse_header(lines())
    start = len("".join(header).encode("utf-8"))
    split = (fd, start, size) if _two_processes(math.prod(shape)) else None
    payload = _read_payload(_byte_blocks(fd, start, size), shape, split)
    return Record(kind=kind, payload=payload, basis=basis, kappa=kappa, grid=grid)


def _read_payload(blocks, shape: tuple, split=None) -> np.ndarray:
    """The read-only payload of ``shape`` held in ``blocks``, texts of whole
    lines of a data section; or else, given ``split``, as ``_fill_halves``
    reads it.  Raises ValueError at a word ``float`` rejects or at a wrong
    count, and MemoryError when ``shape`` is too large."""
    payload = np.empty(shape)
    flat = payload.reshape(-1)
    filled = _fill(flat, blocks) if split is None else _fill_halves(flat, *split)
    if filled != flat.size:
        raise ValueError(f"{filled} values for {flat.size}")
    payload.setflags(write=False)
    return payload


def _fill_halves(flat: np.ndarray, fd: int, start: int, end: int) -> int:
    """``_fill`` of bytes [start, end) of file ``fd``; a forked process
    converts those after the last line end before the middle into shared
    memory.  Raises ValueError at a fault in either part."""
    mid = (start + end) // 2
    low = max(start, mid - (1 << 16))
    cut = _line_end(os.pread(fd, mid - low, low))
    mid = low + cut if cut else start
    shared = np.frombuffer(mmap.mmap(-1, 8 * (flat.size + 1)))  # the child's values, then their count

    def child():
        shared[-1] = _fill(shared[:-1], _byte_blocks(fd, mid, end))

    filled = forking.forked(child, lambda: _fill(flat, _byte_blocks(fd, start, mid)))
    got = int(shared[-1])
    if filled + got != flat.size:
        raise ValueError(f"{filled} + {got} values for {flat.size}")
    flat[filled:] = shared[:got]
    return flat.size


def _byte_blocks(fd: int, start: int, end: int):
    """The text of bytes [start, end) of file ``fd`` in chunks cut after a
    line end, read without moving the file's offset.  Raises ValueError at
    bytes that are not UTF-8 or at a file that ends early."""
    # Two bytes a value, the least a value and its separator take: a chunk
    # holds at most a block's count of words.
    size = 2 * VALUES_PER_LINE * LINES_PER_BLOCK
    while start < end:
        chunk = os.pread(fd, min(size, end - start), start)
        if not chunk:
            raise ValueError(f"file ends at byte {start}, not {end}")
        cut = len(chunk) if start + len(chunk) == end else _line_end(chunk)
        if not cut:  # a line longer than the chunk
            size *= 2
            continue
        start, size = start + cut, 2 * VALUES_PER_LINE * LINES_PER_BLOCK
        yield chunk[:cut].decode("utf-8")


def _line_end(chunk: bytes) -> int:
    """The length of ``chunk`` through its last line end, \\n or \\r; 0 if it holds none."""
    return max(chunk.rfind(b"\n"), chunk.rfind(b"\r")) + 1


def _fill(flat: np.ndarray, blocks) -> int:
    """Convert the words of ``blocks``, texts of whole lines of a data
    section, into ``flat`` from its start, and return their count.  Raises
    ValueError at a word ``float`` rejects or past the end of ``flat``."""
    filled = 0
    for text in blocks:
        if "#" in text:  # drop comment lines, as the scan does
            text = "\n".join(line for line in text.splitlines() if not line.lstrip().startswith("#"))
        words = text.split()
        end = filled + len(words)
        if end > flat.size:
            raise ValueError(f"more than {flat.size} values")
        flat[filled:end] = np.fromiter(map(float, words), dtype=float, count=len(words))
        filled = end
        del words  # before the next block is read
    return filled


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
    """The record in the file at ``path``, read as ``_read_blocks`` reads a
    regular file.  At any fault, and for any other file, its whole text is
    parsed, which raises the ``ParseError`` of ``parse_record`` of that text,
    line and column included; bytes that are not UTF-8 raise one at the first."""
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode):
            try:
                return _read_blocks(fh.fileno(), info.st_size)
            # ValueError: a bad token or count, a non-finite value (NotFinite),
            # bytes that are not UTF-8 (UnicodeDecodeError) or a file that
            # shrank; MemoryError: a count too large to allocate.
            except (ParseError, ValueError, MemoryError):
                pass
        raw = fh.read()  # from the start: os.pread moves no file offset
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
