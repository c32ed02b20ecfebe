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
bounded by the chunk size, and the chunks join to the same bytes as one
``json.dumps`` (or one CSV join) of the whole report.
"""

from __future__ import annotations

import json
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
CHUNK_ROWS = 1 << 16

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
