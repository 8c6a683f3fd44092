"""Line-oriented text files for the objects this package computes with.

Layout: a magic line, ``key value`` header lines, a ``data`` sentinel,
then the payload as whitespace-separated decimal floats in row-major
order (the label-5 slot of any five-index axis is stored last, matching
the in-memory layout).  Numbers are written with 17 significant digits,
so emit -> parse -> emit is byte-identical and values survive exactly.

Field kinds additionally carry ``origin``, ``spacing`` and ``shape``
header lines describing their sample grid, and any kind may carry a
``basis`` flag and a ``kappa`` line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import KindMismatch, NotFinite, ParseError
from .grids import Grid
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
# Payload lines formatted by one ``%`` operation; bounds the temporary tuple.
LINES_PER_BLOCK = 4096


@dataclass(frozen=True)
class Record:
    """One parsed or to-be-written file: a kind, its payload, and metadata."""

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
        payload = payload.copy()
        payload.setflags(write=False)
        object.__setattr__(self, "payload", payload)


def _fmt(x: float) -> str:
    return "%.17g" % x


def emit_record(record: Record) -> str:
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
    lines.extend(_payload_blocks(record.payload.ravel().tolist()))
    return "\n".join(lines) + "\n"


def _payload_blocks(values: list) -> list:
    """Format ``values`` with ``%.17g``, eight to a line, one block of lines per string."""
    row = " ".join(["%.17g"] * VALUES_PER_LINE)
    step = VALUES_PER_LINE * LINES_PER_BLOCK
    blocks = []
    for start in range(0, len(values), step):
        chunk = values[start : start + step]
        full, rest = divmod(len(chunk), VALUES_PER_LINE)
        rows = [row] * full
        if rest:
            rows.append(" ".join(["%.17g"] * rest))
        blocks.append("\n".join(rows) % tuple(chunk))
    return blocks


def write_record(path, record: Record) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit_record(record))


def parse_record(text: str) -> Record:
    lines = text.splitlines()
    if not lines or lines[0].strip() != MAGIC:
        raise ParseError(f"missing magic line {MAGIC!r}", line=1)

    header: dict[str, tuple[int, str]] = {}
    data_line = None
    for idx, raw in enumerate(lines[1:], start=2):
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
        raise ParseError("missing 'data' sentinel line", line=len(lines))

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
        for key in ("origin", "spacing", "shape"):
            if key not in header:
                raise ParseError(f"field kind {kind!r} needs a {key!r} header", line=data_line)
        origin_line, origin_raw = header.pop("origin")
        spacing_line, spacing_raw = header.pop("spacing")
        shape_line, shape_raw = header.pop("shape")
        try:
            origin = tuple(float(v) for v in origin_raw.split())
            spacing = tuple(float(v) for v in spacing_raw.split())
        except ValueError:
            raise ParseError("bad grid geometry value", line=origin_line) from None
        try:
            counts = tuple(int(v) for v in shape_raw.split())
        except ValueError:
            raise ParseError(f"bad shape value in {shape_raw!r}", line=shape_line) from None
        if not (len(origin) == len(spacing) == len(counts) == 4):
            raise ParseError("grid headers need four values each", line=spacing_line)
        grid = Grid(origin=origin, spacing=spacing, shape=counts)
    elif any(key in header for key in ("origin", "spacing", "shape")):
        raise ParseError(f"kind {kind!r} carries no grid", line=data_line)

    for key, (line_no, _) in header.items():
        raise ParseError(f"unknown header key {key!r}", line=line_no)

    expected = (grid.shape + shape) if needs_grid else shape
    count = math.prod(expected)
    data = lines[data_line:]
    values = _bulk_payload("\n".join(data), count)
    if values is None:
        values = _scan_payload(data, data_line, kind, count)
    return Record(kind=kind, payload=values.reshape(expected), basis=basis, kappa=kappa, grid=grid)


def _bulk_payload(body: str, count: int) -> np.ndarray | None:
    """The payload read in one pass, or None when the per-token scan must run.

    Tokens are converted by ``float`` itself, so the accepted set is its
    own.  A comment line's first token starts with ``#``, which ``float``
    rejects, so sections with comments go to the scan as well.
    """
    words = body.split()
    if len(words) != count:
        return None
    try:
        values = np.fromiter(map(float, words), dtype=float, count=count)
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _scan_payload(data: list, data_line: int, kind: str, count: int) -> np.ndarray:
    """Token-by-token read of the lines after the ``data`` sentinel at ``data_line``.

    Skips blank and ``#`` lines, and raises ``ParseError`` at the first
    fault: a wrong count at the last token, else the first bad or
    non-finite token at its line and column.
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
    values = np.empty(count)
    for i, (line_no, col, token) in enumerate(tokens):
        try:
            values[i] = float(token)
        except ValueError:
            raise ParseError(f"bad number {token!r} at sample {i}", line=line_no, column=col) from None
        if not np.isfinite(values[i]):
            raise ParseError(f"sample {i} is not finite", line=line_no, column=col)
    return values


def read_record(path) -> Record:
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
