"""Time-stamped sample records and their CSV serialization.

A SampledSignal is the package-wide carrier for anything sampled over time:
IMU traces, integrated odometry, ODE solutions, and step responses. The CSV
contract is shared repo-wide: header ``t,`` then the caller's channel names,
one row per sample, decimal point ``.``, UTF-8, no thousands separators,
every field finite.

``read_csv`` parses a file once in blocks of READ_BLOCK_LINES lines, each
converted by one ``np.loadtxt`` call, so memory is bounded by the block; a
block ``loadtxt`` refuses, or one it would read differently from ``float``,
goes to ``np.array`` of its split fields, and only a block that both refuse
goes through a per-line ``float`` loop that names the first bad line. One
blocked formatter, ``_write_rows``, writes the rows of ``write_csv`` and the
points of ``svgplot.line_chart``, WRITE_BLOCK_ROWS rows at a time, and
formats each run of bit-identical values in a column once. Both keep the
bytes and line numbers of a one-field-at-a-time loop.
Every uniform grid the package builds (ODE time grids, fixed-panel
quadrature), and every state record marched on one (points times state
width), is refused by ``check_grid_size`` above MAX_GRID_POINTS values.

A SampledSignal's ``t`` and ``y`` are read-only float64 arrays that own
their data. It adopts an array handed to it that already is all three,
without a copy, and copies and freezes anything else, so a record built
once and frozen by its maker exists once however many signals share it.
The caller's side of the rule: keep no writable view of an array you hand
over frozen, since freezing an array does not freeze views taken before.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError

READ_BLOCK_LINES = 8192     # lines converted per np.loadtxt call in read_csv
WRITE_BLOCK_ROWS = 4096     # rows formatted per string in _write_rows
MAX_GRID_POINTS = 10_000_000  # 80 MB per float64 array of grid values


def check_grid_size(points: float, what: str) -> None:
    """DomainError unless a grid of `points` points fits in MAX_GRID_POINTS
    (a NaN or infinite count never does)."""
    if not points <= MAX_GRID_POINTS:
        raise DomainError(f"{what} needs {points:.4g} points, over the budget of "
                          f"{MAX_GRID_POINTS:,}")


def _adopt(a: np.ndarray) -> np.ndarray:
    """The float64 array `a` itself if it owns its data and is read-only,
    else a read-only copy (the adoption rule of the module docstring)."""
    if a.base is None and not a.flags.writeable:
        return a
    a = a.copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SampledSignal:
    """Strictly increasing timestamps ``t`` paired with samples ``y`` (N x d)."""

    t: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.t, dtype=float))
        y = np.asarray(self.y, dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        if y.ndim != 2:
            raise DimensionError("samples must be a 1-D or 2-D array")
        if t.ndim != 1 or len(t) != y.shape[0]:
            raise DimensionError(
                f"timestamp count {len(t)} does not match sample count {y.shape[0]}"
            )
        if len(t) < 2:
            raise DomainError("a sampled signal needs at least 2 samples")
        if not np.all(np.isfinite(t)) or not np.all(np.isfinite(y)):
            raise DomainError("timestamps and samples must be finite")
        if np.any(np.diff(t) <= 0):
            raise DomainError("timestamps must be strictly increasing")
        object.__setattr__(self, "t", _adopt(t))
        object.__setattr__(self, "y", _adopt(y))

    @property
    def dim(self) -> int:
        return self.y.shape[1]

    def __len__(self) -> int:
        return len(self.t)

    def channel(self, i: int) -> np.ndarray:
        """One channel as a flat array; raises DimensionError on a bad index."""
        if not 0 <= i < self.dim:
            raise DimensionError(f"channel {i} out of range for dimension {self.dim}")
        return self.y[:, i]


def _write_rows(fh, columns, field: str, sep: str) -> None:
    """Write equal-length 1-D arrays side by side: fields formatted by the
    %-format `field` joined by ',', rows joined by `sep`, WRITE_BLOCK_ROWS
    rows per format string. Each run of bit-identical values in a column
    (bits, not ``==``, so -0.0 and 0.0 stay apart) is formatted once: a
    column with runs enters the row string as its run texts, repeated, and
    one without as its values, so no block holds a string per field."""
    for start in range(0, len(columns[0]), WRITE_BLOCK_ROWS):
        specs, args = [], []
        for c in columns:
            c = c[start:start + WRITE_BLOCK_ROWS]
            bits = c.view(np.int64)
            changes = bits[1:] != bits[:-1]
            if changes.all():
                specs.append(field)
                args.append(c.tolist())
            else:
                heads = [0, *(np.flatnonzero(changes) + 1).tolist(), len(c)]
                text = [field % x for x in c[heads[:-1]].tolist()]
                runs = [b - a for a, b in zip(heads, heads[1:])]
                specs.append("%s")
                args.append(list(itertools.chain.from_iterable(map(itertools.repeat, text, runs))))
        rows = sep.join([",".join(specs)] * len(c))
        fh.write(sep * (start > 0) + rows % tuple(itertools.chain.from_iterable(zip(*args))))


def write_csv(sig: SampledSignal, path, headers, *more: SampledSignal) -> None:
    """Write ``t,<headers>`` and one row per sample: the channels of `sig`,
    then those of each signal in `more`, which must share its timestamps.
    repr round-trips every float."""
    channels = [sig.y, *(m.y for m in more)]
    if len(headers) != sum(y.shape[1] for y in channels):
        raise DimensionError("one header per channel required")
    if not all(np.array_equal(m.t, sig.t) for m in more):
        raise DimensionError("signals written side by side must share their timestamps")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t," + ",".join(headers) + "\n")
        _write_rows(fh, [sig.t, *(col for y in channels for col in y.T)], "%r", "\n")
        fh.write("\n")


def _line_blocks(fh):
    """Lists of up to READ_BLOCK_LINES lines, split as ``str.splitlines``
    splits the whole text, so line numbers match the file's."""
    while chunk := list(itertools.islice(fh, READ_BLOCK_LINES)):
        yield "".join(chunk).splitlines()


def _header_width(path, line: str, expected_headers) -> int:
    header = line.split(",")
    if header[0] != "t" or len(header) < 2:
        raise DomainError(f"{path}: line 1: header must start with 't,' and name channels")
    if expected_headers is not None and header[1:] != list(expected_headers):
        raise DomainError(
            f"{path}: line 1: expected header t,{','.join(expected_headers)}"
            f" but found {line}"
        )
    return len(header)


def _parse_block(path, lines, first_lineno: int, width: int) -> np.ndarray:
    """Convert one block of data lines to a (rows, width) float array.

    ``np.loadtxt`` reads the non-blank lines or, failing that, ``np.array``
    converts their split fields in C as ``float`` does (``1_0`` included).
    A result stands if it has one row of `width` finite values per line and
    the lines hold no U+001F, which loadtxt reads as blank around a number
    but ``float`` refuses. Otherwise a per-line ``float`` loop raises
    DomainError at the first malformed line, blank lines skipped but
    counted: a wrong field count, a field ``float`` rejects, or a field
    that is not finite.
    """
    data = [line for line in lines if line.strip()]
    if data and "\x1f" not in "".join(data):      # loadtxt warns on no data
        for convert in (lambda: np.loadtxt(data, delimiter=",", comments=None, ndmin=2),
                        lambda: np.array([line.split(",") for line in data], dtype=float)):
            try:
                block = convert()
            except ValueError:
                continue
            if block.shape == (len(data), width) and np.isfinite(block).all():
                return block
    values = []
    for lineno, line in enumerate(lines, start=first_lineno):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != width:
            raise DomainError(f"{path}: line {lineno}: expected {width} fields, got {len(fields)}")
        try:
            row = [float(f) for f in fields]
        except ValueError:
            raise DomainError(f"{path}: line {lineno}: non-numeric field") from None
        if not all(map(math.isfinite, row)):
            raise DomainError(f"{path}: line {lineno}: non-finite field")
        values.append(row)
    return np.array(values).reshape(len(data), width)


def read_csv(path, expected_headers=None) -> SampledSignal:
    """Read the shared CSV format back into a SampledSignal in one pass.

    Each block accepts and rejects exactly what ``float`` does per field,
    with the same bits (see ``_parse_block``). Malformed content, a
    non-finite field included, raises DomainError naming the offending line
    number (1-based, header and blank lines included). If ``expected_headers`` is given the
    header row must match ``t,<expected...>`` exactly.
    """
    blocks = []
    width = None
    lineno = 1
    with open(path, "r", encoding="utf-8") as fh:
        for lines in _line_blocks(fh):
            if width is None:
                width = _header_width(path, lines[0], expected_headers)
                lines = lines[1:]
                lineno = 2
            blocks.append(_parse_block(path, lines, lineno, width))
            lineno += len(lines)
    if width is None:
        raise DomainError(f"{path}: line 1: empty file")
    t = np.concatenate([block[:, 0] for block in blocks])
    y = np.concatenate([block[:, 1:] for block in blocks])
    t.setflags(write=False)
    y.setflags(write=False)
    try:
        return SampledSignal(t, y)
    except (DomainError, DimensionError) as exc:
        raise DomainError(f"{path}: {exc}") from None
