"""Structured verification reports with canonical, byte-stable output.

JSON and CSV writers here are the single source of truth for on-disk
formatting: floats render through repr (shortest round-trip form),
complex values as [re, im] pairs, missing values as null/empty. A report
serialized, re-parsed and re-serialized reproduces identical bytes.

Wall time is tracked in the in-memory summary but excluded from
serialization, since emitted artifacts must be byte-identical across
runs of the same configuration.
"""

from __future__ import annotations

import json
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

# Summary keys dropped from serialized output (non-reproducible).
VOLATILE_SUMMARY_KEYS = ("wall_time_s",)


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


def canonical_json_bytes(obj) -> bytes:
    """Canonical JSON encoding: 2-space indent, preserved key order,
    trailing newline. Parsing and re-encoding is byte-stable."""
    return (json.dumps(jsonable(obj), indent=2, ensure_ascii=False) + "\n").encode()


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


def csv_bytes(columns, rows) -> bytes:
    """Deterministic CSV: fixed column order, repr floats, LF newlines."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(csv_cell(row.get(col)) for col in columns))
    return ("\n".join(lines) + "\n").encode()


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

    Rows are ReportRow records sorted by n, or, for tables with columns
    of their own (sieve, ingham, lemma, identity, and reports read back
    from JSON), dicts of JSON-ready values keyed like the first row.
    """

    experiment_id: str
    rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def __post_init__(self):
        if self._records:
            ns = [row.n for row in self.rows]
            if ns != sorted(ns):
                raise ValueError("report rows must be sorted by n ascending")

    @property
    def _records(self) -> bool:
        return bool(self.rows) and isinstance(self.rows[0], ReportRow)

    @property
    def passed(self) -> bool:
        """Overall verdict: the summary's trend-level pass when the
        experiment defines one (per-row flags may legitimately fail
        inside the burn-in window), else the conjunction of ReportRow
        flags; a table of dict rows without a summary pass has no
        verdict and counts as passed."""
        own = self.summary.get("pass")
        if own is not None:
            return bool(own)
        return not self._records or all(row.passed for row in self.rows)

    def _json_rows(self) -> list[dict]:
        if self._records:
            return [row.to_json_obj() for row in self.rows]
        return self.rows

    def to_json_bytes(self) -> bytes:
        return canonical_json_bytes(
            {
                "experiment_id": self.experiment_id,
                "rows": self._json_rows(),
                "summary": {
                    k: v for k, v in self.summary.items() if k not in VOLATILE_SUMMARY_KEYS
                },
            }
        )

    def to_csv_bytes(self) -> bytes:
        """The rows as CSV, flattened from their JSON form by
        :func:`csv_layout`, so a report and its JSON read back give the
        same bytes."""
        rows = self._json_rows()
        columns, parts = csv_layout(rows[0] if rows else {})
        if parts:
            rows = [
                {**row, **{c: None if row[k] is None else row[k][i] for c, k, i in parts}}
                for row in rows
            ]
        return csv_bytes(columns, rows)


def csv_layout(first: dict) -> tuple[list[str], list[tuple[str, str, int]]]:
    """CSV columns for JSON rows keyed like first, and (column, key,
    index) for each column that holds one part of an [re, im] pair.

    A pair under key k fills columns re_k and im_k (both empty for
    null). Rows keyed like a ReportRow take the fixed CSV_COLUMNS; other
    rows take first's keys in order, a 2-list there marking a pair.
    """
    if not first or first.keys() == _ROW_KEYS:
        columns = list(CSV_COLUMNS)
    else:
        columns = []
        for key, value in first.items():
            pair = isinstance(value, list) and len(value) == 2
            columns += [f"re_{key}", f"im_{key}"] if pair else [key]
    parts = [
        (col, col[3:], int(col.startswith("im_")))
        for col in columns
        if col not in first and col[3:] in first
    ]
    return columns, parts
