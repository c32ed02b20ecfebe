import json

import numpy as np
import pytest

from inghamsum.report import (
    CSV_COLUMNS,
    ReportRow,
    VerificationReport,
    canonical_json_bytes,
    csv_bytes,
    csv_cell,
    jsonable,
)


def test_jsonable_scalars():
    assert jsonable(1 + 2j) == [1.0, 2.0]
    assert jsonable(np.float64(0.5)) == 0.5
    assert jsonable(np.int32(7)) == 7
    assert jsonable(np.bool_(True)) is True
    assert jsonable(np.complex128(3 - 1j)) == [3.0, -1.0]
    assert jsonable(None) is None
    assert jsonable({"a": np.arange(3)}) == {"a": [0, 1, 2]}
    with pytest.raises(TypeError):
        jsonable(object())


def test_csv_cell_formats():
    assert csv_cell(None) == ""
    assert csv_cell(True) == "true"
    assert csv_cell(False) == "false"
    assert csv_cell(5) == "5"
    assert csv_cell(0.1) == "0.1"
    assert csv_cell(1e-06) == "1e-06"


def test_csv_columns_frozen():
    assert CSV_COLUMNS == (
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


def _sample_report():
    rows = [
        ReportRow(n=10, mean=0.5 + 0j, g=0.25 - 1j, residual_t1=0.1, passed=True),
        ReportRow(n=100, mean=None, s_ratio=0.01, ratio=None, ratio_infinite=True, passed=False),
    ]
    return VerificationReport(
        "sample",
        rows,
        {"pass": False, "max_residual": 0.1},
    )


def test_rows_must_be_sorted():
    rows = [ReportRow(n=5), ReportRow(n=3)]
    with pytest.raises(ValueError):
        VerificationReport("bad", rows, {})


def test_json_round_trip_bytes_identical():
    report = _sample_report()
    payload = report.to_json_bytes()
    parsed = json.loads(payload)
    assert canonical_json_bytes(parsed) == payload


def test_infinite_ratio_marker_serialization():
    report = _sample_report()
    parsed = json.loads(report.to_json_bytes())
    assert parsed["rows"][1]["ratio"] is None
    assert parsed["rows"][1]["ratio_infinite"] is True


def test_csv_layout():
    report = _sample_report()
    lines = report.to_csv_bytes().decode().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1] == "10,0.5,0.0,0.25,-1.0,0.1,,,,true"
    assert lines[2] == "100,,,,,,,,0.01,false"


def test_overall_pass_prefers_summary():
    rows = [ReportRow(n=1, passed=False)]
    rep = VerificationReport("x", rows, {"pass": True})
    assert rep.passed
    rep2 = VerificationReport("x", rows, {})
    assert not rep2.passed


def test_csv_bytes_generic():
    payload = csv_bytes(("a", "b"), [{"a": 1, "b": None}, {"a": 2.5, "b": True}])
    assert payload == b"a,b\n1,\n2.5,true\n"
