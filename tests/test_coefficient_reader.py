"""Spec and coefficient files read in runs against the whole-document
loader.

The oracle below is the loader the streamed one replaced: ``json.load``
of the whole file, then one conversion of the whole ``values`` list. The
streamed loader must give the same values bit for bit, or the same
error, whatever the sizes of its runs and of its reads.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import inghamsum.report as report_mod
from inghamsum.cli import _bad_pair, _pair, load_spec_file
from inghamsum.errors import SpecFormatError
from inghamsum.sequences import MultiplicativeSpec

DATA = Path(__file__).parent / "data"

# -- the whole-document loader ------------------------------------------


def _old_coefficients(values, path):
    try:
        parts = np.array(values)
    except (ValueError, OverflowError):
        parts = None
    if parts is not None and parts.dtype.kind in "biuf" and parts.shape[1:] in ((), (2,)):
        parts = parts.astype(np.float64, copy=False)
        if np.isfinite(parts).all():
            z = np.zeros(len(values), dtype=np.complex128)
            if parts.ndim == 1:
                z.real = parts
            else:
                z.real, z.imag = parts[:, 0], parts[:, 1]
            return z
    out = []
    for i, v in enumerate(values):
        try:
            out.append(_pair(v))
        except (TypeError, ValueError, OverflowError):
            raise _bad_pair(v, f"{path}: values[{i}]") from None
    return np.array(out, dtype=np.complex128)


def old_load_spec_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise SpecFormatError(f"{path}: invalid JSON ({exc})") from None
    kind = data.get("type")
    if kind == "completely_multiplicative":
        cutoff = data.get("cutoff")
        if not isinstance(cutoff, int) or cutoff < 1:
            raise SpecFormatError(f"{path}: cutoff: expected a positive integer")
        primes = {int(key): _pair(val) for key, val in data.get("primes", {}).items()}
        default = _pair(data.get("default", 1.0))
        return MultiplicativeSpec(primes, cutoff, default, bool(data.get("bound_check", True)))
    if kind == "coefficients":
        values = data.get("values")
        if not isinstance(values, list) or not values:
            raise SpecFormatError(f"{path}: values: expected a non-empty list")
        return _old_coefficients(values, path)
    raise SpecFormatError(f"{path}: type: expected 'completely_multiplicative' or 'coefficients', got {kind!r}")


def _outcome(load, path):
    """The bits of what load(path) gives, or its error message; a JSON
    error counts as one, as the two loaders give its place differently."""
    try:
        got = load(str(path))
    except SpecFormatError as exc:
        text = str(exc)
        return "invalid JSON" if text.startswith(f"{path}: invalid JSON (") else text
    if isinstance(got, MultiplicativeSpec):
        return got
    return got.dtype.str, got.view(np.uint64).tolist()


# -- the files ------------------------------------------------------------


def _doc(values, **extra):
    return json.dumps({"type": "coefficients", "values": values, **extra})


LATER_BAD = [[k / 3, -k] for k in range(300)]
LATER_BAD[250] = [1, "x"]
LATER_BAD[260] = None
GOOD = _doc([[k / 7, -(k**0.5)] for k in range(200)])

TEXTS = {
    # The items of test_coefficient_files_parse_as_the_item_walk.
    "numbers": _doc([1, 2.5, -0.0, True, 2**63, 2**53 + 1] * 9),
    "pairs": _doc([[1, -0.0], [-0.0, 2], [3, 4.5], [2**60 + 1, -(2**55) - 1]] * 9),
    "mixed": _doc([1, [1, 2], 3] * 9),
    "string parts": _doc([["1", "2"], [3, 4]] * 9),
    "beyond int64": _doc([2**70, 1.5] * 9),
    "numbers then pairs": _doc([1.5] * 40 + [[2, -3]] * 40 + [0.25] * 40),
    "pairs then numbers": _doc([[2, -3]] * 40 + [7] * 40 + [[-0.0, 5e-324]] * 40),
    "bad in a later run": _doc(LATER_BAD),
    "bad at the end": _doc([k / 3 for k in range(200)] + [[1, 2, 3]]),
    "too large at the start": '{"type": "coefficients", "values": [1e400, 1, 2]}',
    "values first": json.dumps({"values": [[k, k / 3] for k in range(100)], "type": "coefficients"}),
    "repeated values": '{"values": [[1, 2], [3, 4]], "type": "coefficients", "values": [5, 6, 7]}',
    "repeated, bad first": '{"type": "coefficients", "values": [1, null], "values": [2, 3]}',
    "repeated, bad last": '{"type": "coefficients", "values": [2, 3], "values": [1, null]}',
    "indented": json.dumps({"type": "coefficients", "values": [[k, -k / 9] for k in range(60)]}, indent=2),
    "tabs": json.dumps({"type": "coefficients", "values": list(range(60))}, indent="\t"),
    "spaced separators": json.dumps(
        {"type": "coefficients", "values": [[k, 0.5] for k in range(60)]}, separators=(" , ", " : ")
    ),
    "crlf": _doc([[k, 1] for k in range(60)]).replace(", ", ",\r\n  "),
    "nan": '{"type": "coefficients", "values": [1, 2, NaN, 4]}',
    "infinity in a pair": '{"type": "coefficients", "values": [[1, 2], [3, Infinity], [5, 6]]}',
    "minus infinity": '{"type": "coefficients", "values": [[1, 2], -Infinity]}',
    "string with ],": '{"type": "coefficients", "values": [[1, 2], ["3],", 4], [5, 6]]}',
    "string with ], elsewhere": '{"note": "], [1, 2],", "type": "coefficients", "values": [[1, 2], [3, 4]]}',
    "nested": '{"type": "coefficients", "values": [[1, 2], [[3, 4], [5, 6]], [7, 8]]}',
    "objects": '{"type": "coefficients", "values": [{"a": 1}, {"b": 2}]}',
    "empty": '{"type": "coefficients", "values": []}',
    "not a list": '{"type": "coefficients", "values": 5}',
    "no values": '{"type": "coefficients"}',
    "other type": '{"type": "other", "values": [1, 2]}',
    "trailing comma": '{"type": "coefficients", "values": [1, 2,]}',
    "missing comma": '{"type": "coefficients", "values": [[1, 2] [3, 4]]}',
    "leading comma": '{"type": "coefficients", "values": [, 1]}',
    "a dot after a number": '{"type": "coefficients", "values": [1, 2.x, 3]}',
    "an exponent without digits": '{"type": "coefficients", "values": [1, 2e, 3]}',
    "an integer too long to convert": '{"type": "coefficients", "values": [1, %s, 3]}' % ("1" * 5000),
    "extra data": GOOD + " x",
    "truncated after a comma": GOOD[: GOOD.index("], [", 2000) + 2],
    "truncated in a number": GOOD[: GOOD.index("], [", 2000) - 3],
    "truncated before the end": GOOD[:-2],
    "spec with bad values": json.dumps(
        {"values": [1, None], "type": "completely_multiplicative", "cutoff": 100, "primes": {"2": [0.5, 0]}}
    ),
    "spec with values, then bad JSON": '{"type": "coefficients", "values": [null], "x": ]}',
    "liouville spec": (DATA / "liouville.json").read_text(),
}
# Runs from one character (every run is read item by item) to the
# default, and reads from two characters to the default.
RUN_CHARS = (1, 4, 9, 40, 200, report_mod._RUN_CHARS)
READ_CHARS = (2, report_mod._READ_CHARS)


@pytest.mark.parametrize("name", TEXTS)
def test_streamed_loader_matches_the_whole_document_loader(name, tmp_path, monkeypatch):
    path = tmp_path / "c.json"
    path.write_text(TEXTS[name], encoding="utf-8")
    expected = _outcome(old_load_spec_file, path)
    for run in RUN_CHARS:
        for read in READ_CHARS:
            monkeypatch.setattr(report_mod, "_RUN_CHARS", run)
            monkeypatch.setattr(report_mod, "_READ_CHARS", read)
            assert _outcome(load_spec_file, path) == expected, (run, read)


def test_later_bad_item_is_named_by_its_index_in_the_file(tmp_path, monkeypatch):
    monkeypatch.setattr(report_mod, "_RUN_CHARS", 64)
    path = tmp_path / "c.json"
    path.write_text(TEXTS["bad in a later run"])
    with pytest.raises(SpecFormatError, match=r"values\[250\]: expected a finite number or \[re, im\] pair, got \[1, 'x'\]"):
        load_spec_file(str(path))


@pytest.mark.parametrize("text", ["[1, 2]", "5", '"coefficients"', "null"])
def test_a_file_that_is_not_an_object_exits_2(text, tmp_path):
    # json.load read these whole and then failed on .get with an
    # AttributeError.
    path = tmp_path / "c.json"
    path.write_text(text)
    with pytest.raises(SpecFormatError, match="expected a JSON object"):
        load_spec_file(str(path))


def test_regular_values_decode_in_runs(tmp_path, monkeypatch):
    # Only the top-level keys and the type are read one value at a time:
    # the 5000 pairs, and the compact and indented layouts, go in runs.
    values = [[k / 3, -math.sqrt(k)] for k in range(5000)]
    calls = []
    value = report_mod._JsonText.value
    monkeypatch.setattr(report_mod._JsonText, "value", lambda self: calls.append(1) or value(self))
    monkeypatch.setattr(report_mod, "_RUN_CHARS", 1 << 10)
    for indent in (None, 2):
        calls.clear()
        path = tmp_path / f"c{indent}.json"
        path.write_text(json.dumps({"values": values, "type": "coefficients"}, indent=indent))
        got = load_spec_file(str(path))
        assert np.array_equal(got, np.array([complex(*v) for v in values]))
        assert len(calls) == 3, indent


@pytest.mark.parametrize("bad", ["1.x", "1e]", "1E+,", "1.5e-x"])
def test_a_malformed_number_is_not_read_to_the_end_of_the_file(bad, tmp_path, monkeypatch):
    # A number cut short by a character no number holds is an error where
    # it stands; the text after it is not read in.
    monkeypatch.setattr(report_mod, "_RUN_CHARS", 64)
    monkeypatch.setattr(report_mod, "_READ_CHARS", 16)
    longest = []
    more = report_mod._JsonText._more
    monkeypatch.setattr(report_mod._JsonText, "_more", lambda self: more(self) and not longest.append(len(self.buf)))
    path = tmp_path / "c.json"
    path.write_text('{"type": "coefficients", "values": [0.5, %s, %s]}' % (bad, ", ".join(["[1, 2]"] * 20_000)))
    with pytest.raises(SpecFormatError, match="invalid JSON"):
        load_spec_file(str(path))
    assert max(longest) < 200
