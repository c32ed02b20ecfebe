"""Chunked, column-wise report output against the whole-document route.

The oracle below is the serializer the chunked one replaced: one dict
per row, a second list of flattened rows for CSV, and one json.dumps
or one join of the whole report. The chunked output must equal its
bytes, across chunk boundaries and for every kind of report.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import inghamsum as ig
import inghamsum.report as report_mod
import inghamsum.sieve as sieve_mod
from inghamsum.cli import _coeffs_builder, main, parse_grid
from inghamsum.report import CSV_COLUMNS, Columns, ReportRow, VerificationReport

from conftest import cli_peak_rss

SRC = Path(__file__).resolve().parent.parent / "src"

# -- the old dict-row route -------------------------------------------


def _old_json_rows(rows):
    if rows and isinstance(rows[0], ReportRow):
        return [row.to_json_obj() for row in rows]
    return rows


def old_json_bytes(experiment_id, rows, summary):
    doc = {
        "experiment_id": experiment_id,
        "rows": _old_json_rows(rows),
        "summary": summary,
    }
    return (json.dumps(report_mod.jsonable(doc), indent=2, ensure_ascii=False) + "\n").encode()


def _old_csv_layout(first):
    if not first or first.keys() == report_mod._ROW_KEYS:
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


def old_csv_bytes(rows):
    rows = _old_json_rows(rows)
    columns, parts = _old_csv_layout(rows[0] if rows else {})
    if parts:
        rows = [
            {**row, **{c: None if row[k] is None else row[k][i] for c, k, i in parts}}
            for row in rows
        ]
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(report_mod.csv_cell(row.get(col)) for col in columns))
    return ("\n".join(lines) + "\n").encode()


def old_sieve_rows(n):
    table = ig.build_sieve(n)
    mu, lam, psi = table.mobius_array, table.mangoldt_array, table.psi_prefix
    return [
        {
            "m": m,
            "spf": int(table.spf[m]),
            "mu": int(mu[m]),
            "mangoldt": float(lam[m]),
            "psi": float(psi[m]),
        }
        for m in range(2, n + 1)
    ]


def old_ingham_rows(coeffs, grid):
    seq = _coeffs_builder(coeffs, grid[-1])(lambda: ig.build_sieve(max(grid[-1], 2)))
    return [
        {
            "n": v.n,
            "re_A": v.A.real,
            "im_A": v.A.imag,
            "re_S": v.S.real,
            "im_S": v.S.imag,
            "re_norm_a": v.normalized_A.real,
            "im_norm_a": v.normalized_A.imag,
            "re_norm_s": None if v.normalized_S is None else v.normalized_S.real,
            "im_norm_s": None if v.normalized_S is None else v.normalized_S.imag,
        }
        for v in ig.batch_sums(seq, grid)
    ]


def _cli_bytes(tmp_path, argv, fmt):
    out = tmp_path / f"out.{fmt}"
    assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(report_mod, "CHUNK_ROWS", 16)
    return 16


@pytest.fixture(params=[8, 40], ids=["segment-8", "segment-40"])
def small_segments(request, monkeypatch):
    # Segments smaller and larger than a small chunk; 40 rows are not a
    # whole number of chunks, so chunks also straddle segments.
    monkeypatch.setattr(sieve_mod, "SEGMENT", request.param)
    return request.param


# -- byte identity ------------------------------------------------------


@pytest.mark.parametrize("offset", [None, -1, 0, 1])
def test_sieve_bytes_equal_old_route(tmp_path, small_chunks, small_segments, offset):
    # offset None covers N = 2 and 3; otherwise the table has chunk - 1,
    # chunk or chunk + 1 rows (m = 2..N), and ends one row before, at or
    # one row after the end of its first, second or third segment.
    if offset is None:
        limits = (2, 3)
    else:
        limits = (small_chunks + 1 + offset, *(k * small_segments + 1 + offset for k in (1, 2, 3)))
    for n in limits:
        rows = old_sieve_rows(n)
        argv = ["sieve", "--n", str(n)]
        assert _cli_bytes(tmp_path, argv, "csv") == old_csv_bytes(rows)
        assert _cli_bytes(tmp_path, argv, "json") == old_json_bytes("sieve", rows, {"limit": n})


def test_sieve_bytes_equal_old_route_at_default_chunk(tmp_path):
    n = report_mod.CHUNK_ROWS + 2
    rows = old_sieve_rows(n)
    argv = ["sieve", "--n", str(n)]
    assert _cli_bytes(tmp_path, argv, "csv") == old_csv_bytes(rows)
    assert _cli_bytes(tmp_path, argv, "json") == old_json_bytes("sieve", rows, {"limit": n})


def test_ingham_dense_grid_bytes_equal_old_route(tmp_path, small_chunks):
    # Starts at n = 1, where the S normalization is null.
    text = "1:3e4:x1.01"
    rows = old_ingham_rows("mu", parse_grid(text))
    assert len(rows) > 3 * small_chunks
    argv = ["ingham", "--coeffs", "mu", "--n", text]
    assert _cli_bytes(tmp_path, argv, "csv") == old_csv_bytes(rows)
    assert _cli_bytes(tmp_path, argv, "json") == old_json_bytes("ingham", rows, {"coeffs": "mu"})


def _records():
    return [
        ReportRow(n=n, mean=complex(1 / n, -0.0), g=None if n % 3 else 2 - 1j, residual_t1=1 / n)
        for n in range(1, 40)
    ] + [
        ReportRow(n=40, s_ratio=math.inf, mu_alpha=-math.inf, ratio=math.nan, ratio_infinite=True),
        ReportRow(n=41, residual_t3=np.float64(-0.0), euler_product_at_1=np.complex128(3 + 0.5j), passed=False),
    ]


SUMMARY = {
    "pass": False,
    "note": 'ünïcode "quoted" 100%',
    "nested": {"a": [1, 2.5, None], "b": {}},
    "sigma_rows": [[2.0, 1.0, -0.0]],
}


def test_record_report_bytes_equal_old_route(small_chunks):
    rows = _records()
    report = VerificationReport("records", rows, SUMMARY)
    assert report.to_json_bytes() == old_json_bytes("records", rows, SUMMARY)
    assert report.to_csv_bytes() == old_csv_bytes(rows)


def test_dict_row_report_bytes_equal_old_route(small_chunks):
    rows = [
        {
            "family": "f%s" % (i % 3),
            "t": None if i % 2 else 0.5 * i,
            "x": i,
            "z": [[float(i), -1.5], [math.nan, -0.0], [math.inf, -math.inf]][i % 3] if i % 4 else None,
            "value": np.float64(i / 7),
            "ok": bool(i % 5),
            "w": np.bool_(i % 2),
            "big": math.inf if i == 7 else float(i) * 1e300,
        }
        for i in range(1, 50)
    ]
    report = VerificationReport("dicts", rows, SUMMARY)
    assert report.to_json_bytes() == old_json_bytes("dicts", rows, SUMMARY)
    assert report.to_csv_bytes() == old_csv_bytes(rows)


@pytest.mark.parametrize("rows", [[], [{}], [{}, {}]], ids=["none", "one-empty", "two-empty"])
def test_degenerate_reports_equal_old_route(rows):
    report = VerificationReport("x", rows, {})
    assert report.to_json_bytes() == old_json_bytes("x", rows, {})
    assert report.to_csv_bytes() == old_csv_bytes(rows)


def test_array_columns_format_like_cells(small_chunks):
    m = np.arange(-3, 50)
    values = np.where(m % 3 == 0, 0.0, m / 7.0)
    values[[1, 5, 9]] = [-0.0, math.nan, -math.inf]
    table = Columns({"m": m, "v": values, "b": m % 2 == 0, "u": m.astype(np.uint8)})
    rows = [
        {"m": int(a), "v": float(b), "b": bool(c), "u": int(d)}
        for a, b, c, d in zip(m, values, m % 2 == 0, m.astype(np.uint8))
    ]
    report = VerificationReport("arrays", table, {})
    assert report.to_json_bytes() == old_json_bytes("arrays", rows, {})
    assert report.to_csv_bytes() == old_csv_bytes(rows)


def test_chunks_join_to_whole_report(small_chunks):
    n = 5 * small_chunks + 3
    report = VerificationReport("t", Columns({"x": np.arange(n) / 3}), {})
    chunks = list(report.chunks("json"))
    assert len(chunks) == 6
    assert b"".join(chunks) == report.to_json_bytes()
    assert json.loads(b"".join(chunks))["rows"][-1] == {"x": (n - 1) / 3}


@pytest.mark.parametrize("sizes", [(5, 0, 17, 3, 16, 1), (16, 16), (40,), (0,)])
def test_table_in_blocks_equals_whole_table(small_chunks, sizes):
    # Blocks of any size, empty ones too, against the same rows held whole;
    # the list column joins across blocks, the array columns concatenate.
    n = sum(sizes)
    whole = {
        "m": np.arange(n),
        "v": np.arange(n) / 7,
        "z": [None if i % 3 else [i / 3, -0.0] for i in range(n)],
    }

    def blocks():
        at = 0
        for size in sizes:
            yield Columns({k: v[at : at + size] for k, v in whole.items()}, size)
            at += size

    streamed = VerificationReport("t", Columns.from_blocks(n, blocks), SUMMARY)
    report = VerificationReport("t", Columns(whole, n), SUMMARY)
    for fmt in ("csv", "json"):
        chunks = list(streamed.chunks(fmt))
        assert len(chunks) == max(1, -(-n // small_chunks)), fmt
        assert b"".join(chunks) == b"".join(report.chunks(fmt)), fmt


def test_columns_reject_ragged_and_complex():
    with pytest.raises(ValueError):
        Columns({"a": np.arange(3), "b": [1, 2]})
    with pytest.raises(TypeError):
        Columns({"z": np.zeros(2, dtype=np.complex128)})


# -- report --in ---------------------------------------------------------

# Every kind of column the reader meets: an all-int column that turns
# float in a later block, bool, null, an int beyond int64, non-finite
# floats, [re, im] pairs and an unchanging string.
HAND_ROWS = [
    {
        "n": i,
        "x": i if i < 20 else i / 4,
        "ok": i % 3 == 0,
        "none": None,
        "big": 2**63 + i if i == 33 else i,
        "v": [math.inf, -math.inf, math.nan, -0.0][i % 4] if i % 5 == 0 else i * 1e-300,
        "z": None if i % 7 == 0 else [i, -0.5],
        "family": "f",
    }
    for i in range(1, 50)
]


@pytest.fixture
def small_runs(monkeypatch):
    # HAND_ROWS read a row or two at a time: each column joins from
    # several blocks, and x from int blocks and float blocks.
    monkeypatch.setattr(report_mod, "_RUN_CHARS", 200)


def _read_back(tmp_path, text, fmt):
    path = tmp_path / "in.json"
    path.write_text(text, encoding="utf-8")
    return _cli_bytes(tmp_path, ["report", "--in", str(path)], fmt)


def test_hand_written_report_renders_as_the_whole_document_route(tmp_path, small_chunks, small_runs):
    text = old_json_bytes("hand", HAND_ROWS, SUMMARY).decode()
    assert _read_back(tmp_path, text, "json") == text.encode()
    assert _read_back(tmp_path, text, "csv") == old_csv_bytes(HAND_ROWS)


def test_report_reads_typed_columns(tmp_path, monkeypatch, small_runs):
    path = tmp_path / "in.json"
    path.write_bytes(old_json_bytes("hand", HAND_ROWS, SUMMARY))
    blocks = []
    joined = report_mod._joined
    monkeypatch.setattr(report_mod, "_joined", lambda column: blocks.append(len(column)) or joined(column))
    with open(path, encoding="utf-8") as fh:
        table = report_mod.read_json_report(fh).rows
    assert min(blocks) > 3
    assert table.data["x"] == [r["x"] for r in HAND_ROWS]
    assert list(map(type, table.data["x"])) == [type(r["x"]) for r in HAND_ROWS]
    dtypes = {k: v.dtype.kind if isinstance(v, np.ndarray) else "list" for k, v in table.data.items()}
    assert dtypes == {
        "n": "i", "x": "list", "ok": "b", "none": "list", "big": "list", "v": "f", "z": "list", "family": "list",
    }
    assert len(table) == len(HAND_ROWS)


@pytest.mark.parametrize("piece", [1, 7, 64])
def test_report_reads_any_layout_in_small_pieces(tmp_path, monkeypatch, small_chunks, small_runs, piece):
    # Numbers, literals and strings split across pieces; compact and
    # spread-out whitespace, keys in another order and a repeated key.
    monkeypatch.setattr(report_mod, "_READ_CHARS", piece)
    rows = [{"b": r["v"], "a": r["n"], "z": r["z"]} for r in HAND_ROWS]
    rows[3] = {"z": rows[3]["z"], "a": rows[3]["a"], "b": rows[3]["b"]}
    body = json.dumps({"summary": {}, "rows": rows}, separators=(",", ":"))[1:-1]
    text = '\n { "rows" : 5 , "experiment_id":12345,\t' + body + ' }\r\n'
    expected = old_json_bytes(12345, [{k: r[k] for k in ("b", "a", "z")} for r in rows], {})
    assert _read_back(tmp_path, text, "json") == expected


@pytest.mark.parametrize("run", [1, 9, 100, 1000])
def test_report_reads_rows_in_runs_of_any_size(tmp_path, monkeypatch, small_chunks, run):
    # Runs cut between rows, or inside one, where a comma follows a "}"
    # in a value (the nested summary-like object) or a string holds "},".
    monkeypatch.setattr(report_mod, "_RUN_CHARS", run)
    rows = [dict(r, note="a},{b" if r["n"] % 5 == 0 else {"k": [r["n"], None]}) for r in HAND_ROWS]
    text = old_json_bytes("runs", rows, SUMMARY).decode()
    assert _read_back(tmp_path, text, "json") == text.encode()
    assert _read_back(tmp_path, text, "csv") == old_csv_bytes(rows)
    text = old_json_bytes("hand", HAND_ROWS, SUMMARY).decode()
    assert _read_back(tmp_path, text, "csv") == old_csv_bytes(HAND_ROWS)


@pytest.mark.parametrize("piece", [1, 2, 3])
def test_report_reads_numbers_cut_by_a_piece(tmp_path, monkeypatch, piece):
    # A piece that ends "1." or "1e" ends no number: 1.5e-07 is read
    # whole at every place the pieces may cut it.
    monkeypatch.setattr(report_mod, "_READ_CHARS", piece)
    for pad in range(4):
        text = " " * pad + old_json_bytes(1.5e-07, [{"a": 1}], {}).decode()
        assert _read_back(tmp_path, text, "json") == old_json_bytes(1.5e-07, [{"a": 1}], {})


def test_report_json_of_a_sieve_past_two_chunks_equals_its_input(tmp_path):
    n = 2 * report_mod.CHUNK_ROWS + 5 + 1  # m = 2..n
    direct = _cli_bytes(tmp_path, ["sieve", "--n", str(n)], "json")
    (tmp_path / "in.json").write_bytes(direct)
    assert _cli_bytes(tmp_path, ["report", "--in", str(tmp_path / "in.json")], "json") == direct


@pytest.mark.parametrize(
    "text",
    [
        "", "[1]", "{", '{"rows": [{"a": 1}]', '{"experiment_id": 1, "rows": [{"a": 1}], "summary": {}} x',
        '{"experiment_id": 1, "rows": [{"a": 1}], "summary": {},}', '{1: 2}', '{"a" 1}',
        '{"experiment_id": 1, "rows": [{"a": 1} {"a": 2}], "summary": {}}',
        '{"rows": [{"a": 1}], "summary": {}}', '{"experiment_id": 1, "rows": [{"a": 1}]}',
        '{"experiment_id": 1, "rows": [{"a": 1}, {"b": 1}], "summary": {}}',
        '{"experiment_id": 1, "rows": [{"a": 1}, 2], "summary": {}}',
        '{"experiment_id": 1, "rows": [2], "summary": {}}',
        '{"experiment_id": 1, "rows": [{"a": 1}], "rows": {}, "summary": {}}',
        '{"experiment_id": 1, "rows": [{"a": 1}], "summary": []}',
        '{"experiment_id": 1, "rows": [{"z": [1, 2]}, {"z": [true, 2]}], "summary": {}}',
    ],
)
def test_malformed_report_exits_2(tmp_path, monkeypatch, capsys, text):
    monkeypatch.setattr(report_mod, "_READ_CHARS", 5)
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["report", "--in", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_failing_command_leaves_no_file(tmp_path):
    out = tmp_path / "never.csv"
    assert main(["sieve", "--n", "1", "--out", str(out)]) == 3
    assert not out.exists()


# -- bounded memory -----------------------------------------------------

def sieve_peak_rss(src, limits):
    """Peak RSS in bytes of `sieve --n N` per format and N, each run as a
    fresh process."""
    argvs = [["sieve", "--n", str(n), "--format", fmt] for n in limits for fmt in ("csv", "json")]
    return {f"{argv[4]}-{argv[2]}": peak for argv, peak in zip(argvs, cli_peak_rss(src, argvs))}


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB is Linux behaviour")
def test_sieve_peak_memory_grows_by_at_most_100_bytes_per_integer():
    limits = (100_000, 200_000, 400_000)
    peaks = sieve_peak_rss(SRC, limits)
    # The whole-document route grew by about 490 (CSV) and 1670 (JSON)
    # bytes per integer, and whole sieve tables by about 28; rows built
    # segment by segment grow by 0.6 to 11 (the 1e5 to 2e5 step the most).
    for fmt in ("csv", "json"):
        for lo, hi in zip(limits, limits[1:]):
            growth = (peaks[f"{fmt}-{hi}"] - peaks[f"{fmt}-{lo}"]) / (hi - lo)
            assert growth <= 100, (fmt, lo, hi, growth)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB is Linux behaviour")
def test_sieve_peak_memory_at_300000_is_at_most_15_mb_above_1000():
    # With chunks of 2**16 rows the gap was about 39 MB (CSV) and 47 MB
    # (JSON); with 2**12 it was about 9 and 11, the whole sieve tables
    # and columns; with rows built segment by segment it is about 5.
    peaks = sieve_peak_rss(SRC, (1000, 300_000))
    for fmt in ("csv", "json"):
        gap = peaks[f"{fmt}-300000"] - peaks[f"{fmt}-1000"]
        assert gap <= 15 * 2**20, (fmt, gap)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB is Linux behaviour")
def test_sieve_peak_memory_grows_by_at_most_4_bytes_per_integer():
    # Whole sieve tables grew by about 28 bytes per integer. Rows built
    # segment by segment hold only the primes up to N across segments.
    limits = (400_000, 1_600_000)
    peaks = sieve_peak_rss(SRC, limits)
    for fmt in ("csv", "json"):
        growth = (peaks[f"{fmt}-{limits[1]}"] - peaks[f"{fmt}-{limits[0]}"]) / (limits[1] - limits[0])
        assert growth <= 4, (fmt, growth)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB is Linux behaviour")
def test_report_in_peak_memory_grows_by_at_most_250_bytes_per_row(tmp_path):
    # Parsing the whole document into dict rows grew by about 430 bytes
    # per row; typed columns read in pieces hold about 40 (five int64 or
    # float64 cells).
    limits = (100_001, 200_001)  # 100k and 200k rows
    inputs = []
    for n in limits:
        inputs.append(tmp_path / f"sieve-{n}.json")
        assert main(["sieve", "--n", str(n), "--format", "json", "--out", str(inputs[-1])]) == 0
    argvs = [["report", "--in", str(path), "--format", fmt] for path in inputs for fmt in ("csv", "json")]
    peaks = cli_peak_rss(SRC, argvs)
    for i, fmt in enumerate(("csv", "json")):
        growth = (peaks[2 + i] - peaks[i]) / (limits[1] - limits[0])
        assert growth <= 250, (fmt, growth)
