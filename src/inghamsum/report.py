"""Structured verification reports with canonical, byte-stable output.

JSON and CSV writers here are the single source of truth for on-disk
formatting: floats render through repr (shortest round-trip form),
complex values as [re, im] pairs, missing values as null/empty. A report
serialized, re-parsed and re-serialized reproduces identical bytes.

Every report is written column by column in chunks of CHUNK_ROWS rows
(:meth:`VerificationReport.chunks`). Table commands (sieve, ingham)
hold their columns as numpy arrays (:class:`Columns`); ReportRow and
dict rows are turned into columns of JSON-ready values first, so one
serializer writes every report. Memory beyond the columns themselves is
bounded by the chunk size: at 4096 rows, the 299,999-row report of
``sieve --n 300000`` peaks about 10 MB (CSV) and 11 MB (JSON) above
``sieve --n 1000``, against 39 and 47 MB at 65,536 rows. The chunks
join to the same bytes as one ``json.dumps`` (or one CSV join) of the
whole report.

:func:`read_json_object` is the package's one JSON input path: it
reads an object piece by piece, and a list value in runs of items, each
run one ``json`` decode of about 64 KiB of text (:meth:`_JsonText.runs`).
:func:`read_json_report` reads a JSON report back (``report --in``) with
it, run by run, into a :class:`Columns` table whose all-bool, all-int
and all-float columns are numpy arrays; so the text is never held whole,
and its peak grows by about 90 bytes per sieve row rather than 350 to
480 for one dict per row. Coefficient and spec files
(:func:`cli.load_spec_file`) go the same way.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

CSV_COLUMNS = (
    "n",
    "re_mean",
    "im_mean",
    "re_g",
    "im_g",
    "residual_t1",
    "residual_t3",
    "mu_alpha",
    "s_ratio",
    "pass",
)

# Rows formatted per chunk; bounds the memory a report adds while it is
# written.
CHUNK_ROWS = 1 << 12
# Characters of a JSON text read per refill of the reader's buffer.
_READ_CHARS = 1 << 20

# Report rows sit two levels deep in the JSON document, their values three.
_ROW_SEP = ",\n    "
_VALUE_NEWLINE = "\n      "


def jsonable(value):
    """Convert a value to deterministic JSON-ready form.

    Complex numbers become [re, im]; numpy scalars collapse to Python
    scalars; containers convert recursively.
    """
    if value is None or isinstance(value, (bool, str, int)):
        return value
    if isinstance(value, complex):
        return [float(value.real), float(value.imag)]
    if isinstance(value, float):
        return float(value)
    if isinstance(value, np.complexfloating):
        return jsonable(complex(value))
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [jsonable(v) for v in value]
    raise TypeError(f"cannot serialize {type(value)!r}")


class Columns:
    """A table held column by column: each column is a numpy array of
    integer, float or bool dtype, or a list of JSON-ready values, and
    all have ``length`` entries (given explicitly only for a table
    without columns)."""

    def __init__(self, data: dict, length: int | None = None):
        self.data = dict(data)
        sizes = {len(v) for v in self.data.values()}
        self.length = length if length is not None else (sizes.pop() if sizes else 0)
        if sizes - {self.length}:
            raise ValueError("table columns differ in length")
        for name, values in self.data.items():
            if not isinstance(values, list) and values.dtype.kind not in "biuf":
                raise TypeError(f"column {name!r}: unsupported dtype {values.dtype}")

    def __len__(self) -> int:
        return self.length

    @classmethod
    def from_rows(cls, rows: list[dict]) -> Columns:
        """The columns of dict rows keyed like the first one, as
        JSON-ready values."""
        keys = rows[0].keys() if rows else ()
        return cls({k: [jsonable(row.get(k)) for row in rows] for k in keys}, len(rows))

    def first(self) -> dict:
        """The first row as JSON-ready values ({} for an empty table)."""
        if not self.length:
            return {}
        return {k: jsonable(v[0]) for k, v in self.data.items()}


def _float_cells(part: np.ndarray) -> list[str]:
    """repr of each value; zeros (most of a von Mangoldt column) skip it."""
    shown = (part != 0) | np.signbit(part)
    if shown.all():
        return list(map(repr, part.tolist()))
    cells = ["0.0"] * part.size
    where = np.flatnonzero(shown)
    for i, text in zip(where.tolist(), map(repr, part[where].tolist())):
        cells[i] = text
    return cells


def _cells(part, as_json: bool) -> list[str]:
    """The cells of one column chunk: a numpy slice or a list of
    JSON-ready values, formatted by :func:`csv_cell` or as JSON."""
    if isinstance(part, list):
        if not as_json:
            return list(map(csv_cell, part))
        return [json.dumps(v, indent=2, ensure_ascii=False).replace("\n", _VALUE_NEWLINE) for v in part]
    kind = part.dtype.kind
    if kind == "b":
        return ["true" if v else "false" for v in part.tolist()]
    if kind in "iu":
        return list(map(str, part.tolist()))
    cells = _float_cells(part)
    if as_json:
        for i in np.flatnonzero(~np.isfinite(part)).tolist():
            cells[i] = json.dumps(float(part[i]))
    return cells


def _json_rows(table: Columns, start: int, stop: int) -> str:
    """Rows [start, stop) as JSON objects, joined as inside a report."""
    names = list(table.data)
    if not names:
        return _ROW_SEP.join(["{}"] * (stop - start))
    keys = (json.dumps(name, ensure_ascii=False).replace("%", "%%") for name in names)
    template = "{" + _VALUE_NEWLINE + ("," + _VALUE_NEWLINE).join(f"{k}: %s" for k in keys) + "\n    }"
    cells = [_cells(table.data[name][start:stop], as_json=True) for name in names]
    return _ROW_SEP.join(map(template.__mod__, zip(*cells)))


def _json_item(key, value) -> str:
    """One key of a top-level JSON object, as json.dumps writes it."""
    text = json.dumps(jsonable(value), indent=2, ensure_ascii=False).replace("\n", "\n  ")
    return f"{json.dumps(str(key), ensure_ascii=False)}: {text}"


def canonical_json_bytes(obj, start: int = 0, stop: int | None = None) -> bytes:
    """Canonical JSON encoding: 2-space indent, preserved key order,
    trailing newline. Parsing and re-encoding is byte-stable.

    A dict that holds a :class:`Columns` table (a report's rows) is
    written in pieces: rows [start, stop) of the table, led by the text
    before it when start is 0 and followed by the text after it when
    stop is the table's length (the default). Consecutive row ranges
    join to the whole document.
    """
    items = list(obj.items()) if isinstance(obj, dict) else []
    at = next((i for i, (_, v) in enumerate(items) if isinstance(v, Columns)), None)
    if at is None:
        return (json.dumps(jsonable(obj), indent=2, ensure_ascii=False) + "\n").encode()
    key, table = items[at]
    stop = len(table) if stop is None else stop
    parts = []
    if start == 0:
        parts += ["{", *(f"\n  {_json_item(k, v)}," for k, v in items[:at])]
        parts.append(f"\n  {json.dumps(str(key), ensure_ascii=False)}: [")
    if stop > start:
        parts += ["\n    " if start == 0 else _ROW_SEP, _json_rows(table, start, stop)]
    if stop == len(table):
        parts.append("\n  ]" if len(table) else "]")
        parts += [",\n  " + _json_item(k, v) for k, v in items[at + 1 :]]
        parts.append("\n}\n")
    return "".join(parts).encode()


def csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _csv_cells(table: Columns, column: str, start: int, stop: int) -> list[str]:
    values = table.data.get(column)
    if values is not None:
        return _cells(values[start:stop], as_json=False)
    pair = table.data.get(column[3:]) if column[:3] in ("re_", "im_") else None
    if pair is None:
        return [""] * (stop - start)
    i = int(column.startswith("im_"))
    return [csv_cell(None if v is None else v[i]) for v in pair[start:stop]]


def csv_bytes(columns, rows, start: int = 0, stop: int | None = None) -> bytes:
    """Deterministic CSV of rows [start, stop): fixed column order, repr
    floats, LF newlines, and the header line only when start is 0.

    rows is a :class:`Columns` table or a list of dicts keyed alike. A
    column the rows lack is empty, except that re_k and im_k take the
    parts of the [re, im] pair under k (both empty for null).
    """
    table = rows if isinstance(rows, Columns) else Columns.from_rows(rows)
    stop = len(table) if stop is None else stop
    cells = [_csv_cells(table, col, start, stop) for col in columns]
    lines = list(map(",".join, zip(*cells)))
    if start == 0:
        lines.insert(0, ",".join(columns))
    return ("\n".join(lines) + "\n").encode() if lines else b""


@dataclass(frozen=True)
class ReportRow:
    """One per-n row of a verification report.

    ratio is None either when it is not applicable or as the infinity
    marker (deviation with a vanishing denominator); ratio_infinite
    distinguishes the two.
    """

    n: int
    mean: complex | None = None
    g: complex | None = None
    s_ratio: float | None = None
    euler_product_at_1: complex | None = None
    residual_t1: float | None = None
    residual_t3: float | None = None
    mu_alpha: float | None = None
    ratio: float | None = None
    ratio_infinite: bool = False
    passed: bool = True

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "mean": jsonable(self.mean),
            "g": jsonable(self.g),
            "s_ratio": jsonable(self.s_ratio),
            "euler_product_at_1": jsonable(self.euler_product_at_1),
            "residual_t1": jsonable(self.residual_t1),
            "residual_t3": jsonable(self.residual_t3),
            "mu_alpha": jsonable(self.mu_alpha),
            "ratio": jsonable(self.ratio),
            "ratio_infinite": self.ratio_infinite,
            "pass": self.passed,
        }


# Keys of a ReportRow's JSON object; rows with exactly these keys are
# written as the fixed CSV_COLUMNS.
_ROW_KEYS = frozenset(ReportRow(n=1).to_json_obj())


@dataclass
class VerificationReport:
    """Rows plus a summary record for one experiment.

    Rows are ReportRow records sorted by n; or, for tables with columns
    of their own, a :class:`Columns` table (sieve, ingham) or dicts of
    JSON-ready values keyed like the first row (lemma, identity, and
    reports read back from JSON).
    """

    experiment_id: str
    rows: list | Columns = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def __post_init__(self):
        if self._records:
            ns = [row.n for row in self.rows]
            if ns != sorted(ns):
                raise ValueError("report rows must be sorted by n ascending")

    @property
    def _records(self) -> bool:
        return isinstance(self.rows, list) and bool(self.rows) and isinstance(self.rows[0], ReportRow)

    @property
    def passed(self) -> bool:
        """Overall verdict: the summary's trend-level pass when the
        experiment defines one (per-row flags may legitimately fail
        inside the burn-in window), else the conjunction of ReportRow
        flags; a table without a summary pass has no verdict and counts
        as passed."""
        own = self.summary.get("pass")
        if own is not None:
            return bool(own)
        return not self._records or all(row.passed for row in self.rows)

    def table(self) -> Columns:
        """The rows as columns of their JSON form."""
        if isinstance(self.rows, Columns):
            return self.rows
        return Columns.from_rows([row.to_json_obj() for row in self.rows] if self._records else self.rows)

    def chunks(self, fmt: str) -> Iterator[bytes]:
        """The report as CSV or JSON bytes, CHUNK_ROWS rows at a time.

        The CSV is flattened from the JSON form of the rows by
        :func:`csv_layout`, so a report and its JSON read back give the
        same bytes. The columns are laid out here; the chunks are
        formatted as they are consumed.
        """
        table = self.table()
        n = len(table)
        bounds = [(a, min(a + CHUNK_ROWS, n)) for a in range(0, n, CHUNK_ROWS)] or [(0, 0)]
        if fmt == "csv":
            columns = csv_layout(table.first())
            return (csv_bytes(columns, table, a, b) for a, b in bounds)
        doc = {
            "experiment_id": self.experiment_id,
            "rows": table,
            "summary": self.summary,
        }
        return (canonical_json_bytes(doc, a, b) for a, b in bounds)

    def to_json_bytes(self) -> bytes:
        return b"".join(self.chunks("json"))

    def to_csv_bytes(self) -> bytes:
        return b"".join(self.chunks("csv"))


def csv_layout(first: dict) -> list[str]:
    """CSV columns for JSON rows keyed like first.

    Rows keyed like a ReportRow take the fixed CSV_COLUMNS; other rows
    take first's keys in order, a 2-list there marking an [re, im] pair
    under key k that fills columns re_k and im_k.
    """
    if not first or first.keys() == _ROW_KEYS:
        return list(CSV_COLUMNS)
    columns = []
    for key, value in first.items():
        pair = isinstance(value, list) and len(value) == 2
        columns += [f"re_{key}", f"im_{key}"] if pair else [key]
    return columns


# -- reading JSON back ----------------------------------------------------

_DECODER = json.JSONDecoder()
_WHITESPACE = json.decoder.WHITESPACE
_ROWS_ERROR = "rows: expected a non-empty list of objects with the same keys"
# The array dtype of a column block whose values all have this JSON type.
_DTYPES = {bool: np.bool_, int: np.int64, float: np.float64}
# Characters of list items decoded at once (_JsonText.runs): one run's
# Python objects, not the file's size, bound what a list adds while it
# is read.
_RUN_CHARS = 1 << 16
# What ends a buffer when the number before it may go on in the next piece.
_NUMBER_TAIL = re.compile(r"[.eE][+-]?\Z")
# The bracket that closes an item opening with the key.
_CLOSERS = {"[": "]", "{": "}"}


class _JsonText:
    """A JSON text read from a file piece by piece: values decode one at
    a time with ``raw_decode``, the items of a list in runs (:meth:`runs`),
    and only the piece being decoded is held."""

    def __init__(self, fh):
        self.fh = fh
        self.buf = ""
        self.pos = 0
        self.start = 0  # offset of buf[0] in the text

    def _more(self) -> bool:
        """Append the next piece to the buffer, dropping what was read;
        False at the end of the file."""
        piece = self.fh.read(_READ_CHARS)
        if not piece:
            return False
        self.start += self.pos
        self.buf, self.pos = self.buf[self.pos :] + piece, 0
        return True

    def error(self, msg: str, pos: int | None = None) -> ValueError:
        return ValueError(f"invalid JSON ({msg}: char {self.start + (self.pos if pos is None else pos)})")

    def peek(self) -> str:
        """The next character that is not whitespace, unread; '' at the end."""
        while True:
            self.pos = _WHITESPACE.match(self.buf, self.pos).end()
            if self.pos < len(self.buf) or not self._more():
                return self.buf[self.pos : self.pos + 1]

    def take(self, chars: str, expected: str) -> str:
        """The next character that is not whitespace, which must be one of chars."""
        c = self.peek()
        if not c or c not in chars:
            raise self.error(f"Expecting {expected}")
        self.pos += 1
        return c

    def value(self):
        """The next JSON value. One that ends the buffer, or a number that
        only a ".", "e" or "E" and perhaps a sign follow before the end of
        the buffer (1.5 in a buffer that ends "1."), is decoded again with
        the next piece, since the number may go on there; so is text that
        does not decode, until the file ends. An integer too long to
        convert is an error of the text, as in ``json.load``."""
        self.peek()
        while True:
            try:
                value, end = _DECODER.raw_decode(self.buf, self.pos)
            except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
                if self._more():
                    continue
                raise self.error(getattr(exc, "msg", str(exc)), getattr(exc, "pos", None)) from None
            unfinished = end == len(self.buf) or (
                type(value) in (int, float) and _NUMBER_TAIL.match(self.buf, end) is not None
            )
            if not unfinished or not self._more():
                self.pos = end
                return value

    def runs(self) -> Iterator[list]:
        """The items of the list at the reader's position (its "[" next),
        as lists of consecutive items; the reader then stands after the
        list's "]".

        A run is the items in at most _RUN_CHARS characters of text, up
        to the comma that :func:`_cut` picks, decoded by one
        ``raw_decode`` with "[" and "]" put around them. The text parses
        there as it does in place, so a decode that takes all of it has
        read whole items up to that comma, and one that stops early has
        met the list's own "]". Any other run is read again one
        :meth:`value` at a time up to the end of its text, so an error,
        or an item that holds such a comma, reads as in a walk of the
        items; the items before an error in it are given first.
        """
        self.pos += 1
        if self.peek() == "]":
            self.pos += 1
            return
        while True:
            while len(self.buf) - self.pos < _RUN_CHARS and self._more():
                pass
            text = self.buf[self.pos : self.pos + _RUN_CHARS]
            cut = _cut(text)
            try:
                run, end = _DECODER.raw_decode(f"[{text[:cut]}]")
            except ValueError:
                run = None
            if run and end == cut + 2 and cut < len(text):
                self.pos += cut + 1
                yield run
                continue
            if run and end < cut + 2:
                self.pos += end - 1
                yield run
                return
            stop = self.start + self.pos + cut
            items, error, ended = [], None, False
            try:
                while not ended and (not items or self.start + self.pos <= stop):
                    items.append(self.value())
                    ended = self.take(",]", "',' delimiter") == "]"
            except ValueError as exc:
                error = exc
            if items:
                yield items
            if error is not None:
                raise error
            if ended:
                return


def _cut(text: str) -> int:
    """The place in text of the last comma that may end a run of items
    like its first: a comma after "]" or "}" (and whitespace) when the
    first item opens with "[" or "{", any comma otherwise; len(text) when
    there is none."""
    first = _WHITESPACE.match(text).end()
    closer = _CLOSERS.get(text[first : first + 1])
    at = text.rfind(",")
    if closer is None:
        return len(text) if at < 0 else at
    while at >= 0:
        before = at - 1
        while before >= 0 and text[before] in " \t\n\r":
            before -= 1
        if before >= 0 and text[before] == closer:
            return at
        at = text.rfind(",", 0, at)
    return len(text)


def read_json_object(fh, lists: dict) -> dict:
    """The JSON object that is the whole text of fh, read in pieces and
    never held whole: keys in any order, the last value of a repeated key
    kept. A key of lists whose value is a JSON list takes what
    ``lists[key]`` makes of its items, given to it in runs
    (:meth:`_JsonText.runs`), and any other value decodes whole.
    ValueError says what is wrong with the text."""
    text = _JsonText(fh)
    if text.peek() != "{":
        text.value()
        if text.peek():
            raise text.error("Extra data")
        raise ValueError("expected a JSON object")
    text.pos += 1
    doc = {}
    if text.peek() == "}":
        text.pos += 1
    else:
        while True:
            if text.peek() != '"':
                raise text.error("Expecting property name enclosed in double quotes")
            key = text.value()
            text.take(":", "':' delimiter")
            read = lists.get(key)
            doc[key] = read(text.runs()) if read and text.peek() == "[" else text.value()
            if text.take(",}", "',' delimiter") == "}":
                break
    if text.peek():
        raise text.error("Extra data")
    return doc


def _typed(values: list):
    """values as a bool, int64 or float64 array when they all have that
    one JSON type (ints within int64), else the list; each value formats
    to the same cell either way."""
    kinds = set(map(type, values))
    dtype = _DTYPES.get(kinds.pop()) if len(kinds) == 1 else None
    if dtype is not None:
        try:
            return np.array(values, dtype=dtype)
        except OverflowError:  # an int beyond int64
            pass
    return values


def _joined(blocks: list):
    """A column from its blocks: one array when all are arrays of one
    dtype, else a list of their values."""
    dtypes = {getattr(block, "dtype", None) for block in blocks}
    if len(dtypes) == 1 and None not in dtypes:
        return np.concatenate(blocks) if len(blocks) > 1 else blocks[0]
    return [v for block in blocks for v in (block if isinstance(block, list) else block.tolist())]


def _is_pair(value) -> bool:
    return value is None or (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    )


def _read_rows(runs: Iterator[list]) -> Columns:
    """The rows list of a report, given in runs, as columns of one typed
    block (:func:`_typed`) per run; a column is an array when all its
    values have one JSON type, wherever the runs were cut. The rows must
    be objects with the same keys, and the pair columns of
    :func:`csv_layout` hold null or [re, im]."""
    blocks: dict = {}
    count = 0
    for run in runs:
        if not count:
            first = run[0]
            if not isinstance(first, dict):
                raise ValueError(_ROWS_ERROR)
            keys = first.keys()
            blocks = {key: [] for key in keys}
        if not all(isinstance(row, dict) and row.keys() == keys for row in run):
            raise ValueError(_ROWS_ERROR)
        for key, column in blocks.items():
            column.append(_typed([row[key] for row in run]))
        count += len(run)
    if not count:
        raise ValueError(_ROWS_ERROR)
    table = Columns({key: _joined(column) for key, column in blocks.items()}, count)
    for key in dict.fromkeys(col[3:] for col in csv_layout(first) if col not in first):
        if not all(map(_is_pair, table.data[key])):
            raise ValueError(f"rows: {key!r}: expected null or [re, im]")
    return table


def read_json_report(fh) -> VerificationReport:
    """The report in a JSON text file, as :meth:`VerificationReport.chunks`
    writes one: an object with an experiment_id, rows (a non-empty list
    of objects with the same keys, read in runs into a :class:`Columns`
    table by :func:`_read_rows`) and a summary object. The text is read
    by :func:`read_json_object` and never held whole; ValueError says
    what is wrong."""
    doc = read_json_object(fh, {"rows": _read_rows})
    for key in ("experiment_id", "rows", "summary"):
        if key not in doc:
            raise ValueError(f"missing key {key!r}")
    if not isinstance(doc["rows"], Columns):
        raise ValueError(_ROWS_ERROR)
    if not isinstance(doc["summary"], dict):
        raise ValueError("summary: expected an object")
    return VerificationReport(doc["experiment_id"], doc["rows"], doc["summary"])
