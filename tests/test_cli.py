import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import inghamsum as ig
from inghamsum.cli import _COMMANDS, _coeffs_builder, load_spec_file, main, parse_grid
from inghamsum.errors import SpecFormatError

from conftest import cli_peak_rss, traced_peak

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

LIOUVILLE = str(DATA / "liouville.json")
F2ZERO = str(DATA / "f2zero.json")

EXAMPLE_COMMANDS = {
    "mean_liouville.csv": [
        "mean", "--spec", LIOUVILLE, "--n", "1000000", "--format", "csv",
    ],
    "ingham_mu.csv": [
        "ingham", "--coeffs", "mu", "--n", "10,100,1000", "--format", "csv",
    ],
    "verify_theorem1_f2zero.json": [
        "verify", "theorem1", "--spec", F2ZERO, "--grid", "1e3:1e6:x10",
        "--format", "json",
    ],
}


def run_cli(args, tmp_path, name="out"):
    out = tmp_path / name
    rc = main(args + ["--out", str(out)])
    return rc, out.read_bytes()


# -- parsing ------------------------------------------------------------


def test_parse_grid_explicit():
    assert parse_grid("10,100,1000") == [10, 100, 1000]
    assert parse_grid("1e3") == [1000]


def test_parse_grid_geometric():
    assert parse_grid("1e3:1e6:x10") == [1000, 10_000, 100_000, 1_000_000]
    assert parse_grid("5:40:x2") == [5, 10, 20, 40]
    # Rounding repeats points of a slowly growing grid; each is kept once.
    assert parse_grid("1:3:x1.1") == [1, 2, 3]


def test_parse_grid_errors():
    for bad in (
        "", "5,4", "1e3:1e6:10", "10:5:x2", "abc",
        "inf", "nan", "1e400", "1:inf:x2", "1:nan:x2", "1:10:xnan", "1:1.7976931348623157e308:x2",
        "0", "-3", "0.4", "0,5", "-1:10:x2",
    ):
        with pytest.raises(SpecFormatError):
            parse_grid(bad)
    for bad in ("0", "-3", "0.4", "0,5", "0.99,2", "1,-0.0"):
        with pytest.raises(SpecFormatError, match=re.escape(f"grid {bad!r}: values must be >= 1")):
            parse_grid(bad)


def _geometric_loop(start, top, factor):
    """The former geometric route of parse_grid: one multiplication per
    step up to top, then each integer once."""
    out = []
    value = start
    while value <= top:
        out.append(round(value))
        value *= factor
    return list(dict.fromkeys(out))


def _geometric_every_k(start, top, factor):
    """round(start * factor**k) for every k with a value up to top, each
    integer once: the closed form without the jumps over repeated points."""
    out, k = [], 0
    while start * factor**k <= top:
        out.append(round(start * factor**k))
        k += 1
    return list(dict.fromkeys(out))


def _grid_parts(text):
    start, end, factor = text.split(":")
    return float(start), float(end) * (1 + 1e-9), float(factor[1:])


# The valid geometric grids of the README, the benchmark, the tests and
# the demos, and two dense ones.
KNOWN_GRIDS = (
    "1e3:1e6:x10", "5:40:x2", "1:3:x1.1", "1e4:1e7:x10", "1e5:1e7:x10", "1e3:1e7:x10",
    "1e2:1e4:x10", "1e2:1e6:x10", "1e3:1e5:x10", "1:3e4:x1.01", "1e3:1e6:x1.002",
    "1:1e4:x1.00001", "1:1e4:x1.000001",
)


@pytest.mark.parametrize("text", KNOWN_GRIDS)
def test_parse_grid_geometric_matches_one_step_loop(text):
    assert parse_grid(text) == _geometric_loop(*_grid_parts(text))


@settings(max_examples=300, deadline=None)
@given(
    start=st.floats(1.0, 1e4),
    span=st.floats(1.0, 1e4),
    step=st.floats(1e-3, 3.0),
)
def test_parse_grid_geometric_matches_the_closed_form_and_the_loop(start, span, step):
    text = f"{start!r}:{start * span!r}:x{1.0 + step!r}"
    start, top, factor = _grid_parts(text)
    got = parse_grid(text)
    assert got == _geometric_every_k(start, top, factor)
    # The loop compounds one rounding per step, so where a value lies
    # within a few ulps of a half-integer (or of top) the two may round it
    # differently; anywhere else they agree.
    value, k = start, 0
    while value <= top or start * factor**k <= top:
        direct = start * factor**k
        if round(value) != round(direct) or (value <= top) != (direct <= top):
            return
        value *= factor
        k += 1
    assert got == _geometric_loop(start, top, factor)


def test_parse_grid_geometric_steps_back_over_a_jump_past_a_point():
    # After 667 (k = 2) the jump goes to k = ceil(log(667.5/start) /
    # log(factor)). start * factor**3 is 667.5, which rounds to 668, but
    # the computed quotient is 3.000000000000017, so the jump lands on
    # k = 4 (669) and has to step back.
    text = f"664.5087343659993:{667.5 * 1.001498243894128**3!r}:x1.001498243894128"
    grid = _geometric_every_k(*_grid_parts(text))
    assert 668 in grid
    assert parse_grid(text) == grid


def test_parse_grid_keeps_a_tie_the_loop_rounded_down():
    # 1000 * 1.55**2 is 2402.5000000000005, rounded to 2403; the loop's
    # product 1550.0 * 1.55 rounds to 2402.5 exactly and then to 2402.
    assert parse_grid("1000:5198.7:x1.55") == [1000, 1550, 2403, 3724]
    assert _geometric_loop(*_grid_parts("1000:5198.7:x1.55")) == [1000, 1550, 2402, 3724]


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB is Linux behaviour")
def test_dense_geometric_grid_peak_memory_under_20_mb():
    # `sieve` keeps only the last point. The one-step loop took 9.2
    # million steps for this grid's 10,000 points and raised the peak by
    # 183 MB.
    plain, dense = cli_peak_rss(
        SRC, [["sieve", "--n", "10000"], ["sieve", "--n", "1:1e4:x1.000001"]]
    )
    assert dense - plain < 20 * 2**20, (plain, dense)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB is Linux behaviour")
def test_coefficient_file_peak_memory_grows_by_at_most_40_bytes_per_value(tmp_path):
    # The values list is read in runs of 64 KiB of text, each made
    # complex128 at once and joined once: about 32 bytes per value (34
    # measured). json.load of the whole file took about 210; float64
    # runs joined and then copied to complex128 took about 51. Least of
    # two interleaved runs per size.
    rng = np.random.default_rng(3)
    sizes = (200_000, 400_000)
    argvs = []
    for n in sizes:
        path = tmp_path / f"c{n}.json"
        path.write_text(json.dumps({"type": "coefficients", "values": rng.uniform(-1, 1, (n, 2)).tolist()}))
        argvs.append(["ingham", "--coeffs", str(path), "--n", "1000"])
    peaks = cli_peak_rss(SRC, argvs * 2)
    low, high = min(peaks[0::2]), min(peaks[1::2])
    growth = (high - low) / (sizes[1] - sizes[0])
    assert growth <= 40, growth


def test_coefficient_file_traced_peak_grows_by_at_most_32_bytes_per_value(tmp_path):
    # The traced peak, which page placement does not move: 25-26 bytes
    # per value in process; json.load of the whole file took 192.
    rng = np.random.default_rng(3)
    sizes = (200_000, 400_000)
    peaks = []
    for n in sizes:
        path = tmp_path / f"c{n}.json"
        path.write_text(json.dumps({"type": "coefficients", "values": rng.uniform(-1, 1, (n, 2)).tolist()}))
        argv = ["ingham", "--coeffs", str(path), "--n", "1000", "--out", os.devnull]
        peaks.append(traced_peak(lambda: main(argv))[1])
    growth = (peaks[1] - peaks[0]) / (sizes[1] - sizes[0])
    assert growth <= 32, growth


def test_load_spec_multiplicative():
    spec = load_spec_file(LIOUVILLE)
    assert isinstance(spec, ig.MultiplicativeSpec)
    assert spec.default == -1.0
    assert spec.cutoff == 10**6


def test_load_spec_coefficients(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"type": "coefficients", "values": [[1, 0], [0, 2]]}')
    values = load_spec_file(str(path))
    assert values.dtype == np.complex128 and values.tolist() == [1.0, 2j]


def _coefficient_file(tmp_path, values):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"type": "coefficients", "values": values}))
    return str(path)


@pytest.mark.parametrize(
    "values",
    [
        [1, 2.5, -0.0, True, 2**63, 2**53 + 1],
        [[1, -0.0], [-0.0, 2], [3, 4.5], [2**60 + 1, -(2**55) - 1]],
        [1, [1, 2], 3],  # mixed: walked item by item
        [["1", "2"], [3, 4]],  # strings inside a pair, which float() parses
        [2**70, 1.5],  # an int beyond int64
    ],
)
def test_coefficient_files_parse_as_the_item_walk(values, tmp_path):
    def walk(v):
        return complex(float(v[0]), float(v[1])) if isinstance(v, list) else complex(v)

    got = np.array(load_spec_file(_coefficient_file(tmp_path, values)), dtype=np.complex128)
    expected = np.array([walk(v) for v in values], dtype=np.complex128)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize(
    "values, bad",
    [
        ([1.0, math.inf], 1),
        ([[1, 0], [0, math.nan]], 1),
        ([1, [math.nan, 0]], 1),
        ([10**400, 1], 0),
        ([1, "2"], 1),
        ([[1, 2], [3]], 1),
        ([[1, 2], [[3, 4], [5, 6]]], 1),
        ([None], 0),
    ],
)
def test_bad_coefficient_is_named(values, bad, tmp_path):
    with pytest.raises(SpecFormatError, match=rf"values\[{bad}\]: expected a finite number"):
        load_spec_file(_coefficient_file(tmp_path, values))


@pytest.mark.parametrize("bound_check", [True, False])
@pytest.mark.parametrize("entry", ['"default": [NaN, 0]', '"primes": {"3": [0, Infinity]}'])
def test_non_finite_prime_value_is_named(entry, bound_check, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(f'{{"type": "completely_multiplicative", "cutoff": 100, {entry}, "bound_check": {str(bound_check).lower()}}}')
    where = "default" if "default" in entry else r"primes\[3\]"
    with pytest.raises(SpecFormatError, match=rf"{where}: expected a finite number"):
        load_spec_file(str(path))


def test_load_spec_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(SpecFormatError):
        load_spec_file(str(missing))
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{nope")
    with pytest.raises(SpecFormatError):
        load_spec_file(str(bad_json))
    bad_type = tmp_path / "type.json"
    bad_type.write_text('{"type": "other"}')
    with pytest.raises(SpecFormatError):
        load_spec_file(str(bad_type))
    bad_bound = tmp_path / "bound.json"
    bad_bound.write_text(
        '{"type": "completely_multiplicative", "cutoff": 100,'
        ' "default": [1, 0], "primes": {"2": [1.5, 0]}}'
    )
    with pytest.raises(SpecFormatError, match=r"f\(2\)"):
        load_spec_file(str(bad_bound))


@pytest.mark.parametrize(
    "entries, message",
    [
        # primes as a list ended in an AttributeError traceback, status 1.
        ('"cutoff": 100, "primes": [1, 2]', "primes: expected an object"),
        ('"cutoff": 100, "primes": "2"', "primes: expected an object"),
        # A bool passed the int check and read as cutoff 1.
        ('"cutoff": true', "cutoff: expected a positive integer"),
        ('"cutoff": false', "cutoff: expected a positive integer"),
    ],
)
def test_malformed_spec_exits_2_with_its_message(entries, message, tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(f'{{"type": "completely_multiplicative", {entries}}}')
    with pytest.raises(SpecFormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_spec_file(str(path))
    assert main(["mean", "--spec", str(path), "--n", "100", "--out", os.devnull]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_coeffs_builder_builtins(table_small):
    mu = _coeffs_builder("mu", 10)(lambda: table_small)
    np.testing.assert_allclose(mu.values().real, [1, -1, -1, 0, -1, 1, -1, 0, 0, 1])
    inv = _coeffs_builder("inverse-squares", 3)(lambda: table_small)
    np.testing.assert_allclose(inv.values().real, [1, 0.25, 1 / 9])
    with pytest.raises(SpecFormatError):
        _coeffs_builder("not-a-sequence", 10)


# -- commands and determinism -------------------------------------------


def test_example_commands_match_golden(tmp_path):
    for name, cmd in EXAMPLE_COMMANDS.items():
        rc, payload = run_cli(list(cmd), tmp_path, name)
        assert rc == 0
        assert payload == (GOLDEN / name).read_bytes(), f"golden mismatch: {name}"


# Outputs of the big-prime pass that no other golden pins: f_t up to 1e6
# (lemma) and Liouville's lambda from the sign sieve. The extension and
# mu at 1e7 are pinned by the scale goldens below.
BIG_PRIME_GOLDEN_COMMANDS = {
    "lemma.json": ["lemma", "--format", "json"],
    "identity_sdecomp_liouville.json": [
        "identity", "sdecomp", "--coeffs", "liouville", "--n", "5000", "--format", "json",
    ],
}


@pytest.mark.parametrize("name", BIG_PRIME_GOLDEN_COMMANDS)
def test_big_prime_pass_commands_match_golden(name, tmp_path):
    rc, payload = run_cli(list(BIG_PRIME_GOLDEN_COMMANDS[name]), tmp_path, name)
    assert rc == 0
    assert payload == (GOLDEN / name).read_bytes(), f"golden mismatch: {name}"


def test_sieve_rows_past_one_segment_match_their_digest(tmp_path):
    # The rows are built 65,536 integers at a time from m = 2, so the
    # second segment holds the one row m = 65538. The 2.26 MB CSV is
    # pinned by its sha256.
    rc, payload = run_cli(["sieve", "--n", "65538", "--format", "csv"], tmp_path)
    assert rc == 0
    assert hashlib.sha256(payload).hexdigest() == (
        "b3cf7e20766d8aa4ea09fa232fad6e81c15328cb9737170f919e4dc2addfe201"
    )


# Two commands of the benchmark at N = 1e7, the first on the benchmark's
# seed-7 spec (perfbench/run.py's mean_spec) committed as a data file.
# The goldens pin the prefix sums of f, the Euler factors and products,
# the deviation sums and the multi-sigma g_eval pass at full scale.
SCALE_GOLDEN_COMMANDS = {
    "mean_seed7.json": ["mean", "--spec", str(DATA / "mean_seed7.json"), "--n", "1e3:1e7:x10"],
    "verify_theorem2_mu_1e7.json": [
        "verify", "theorem2", "--coeffs", "mu", "--n", "1e5:1e7:x10", "--sigma", "2,1.25",
    ],
}


@pytest.mark.parametrize("name", SCALE_GOLDEN_COMMANDS)
def test_scale_commands_match_golden(name, tmp_path):
    # A subprocess, so that the 1e7 arrays leave with it.
    out = tmp_path / name
    argv = [*SCALE_GOLDEN_COMMANDS[name], "--format", "json", "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-m", "inghamsum.cli", *argv],
        capture_output=True,
        text=True,
        timeout=300,
        env={**{k: v for k, v in os.environ.items() if not k.startswith("INGHAMSUM_")}, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (GOLDEN / name).read_bytes(), f"golden mismatch: {name}"


def test_example_commands_deterministic(tmp_path):
    for name, cmd in EXAMPLE_COMMANDS.items():
        rc1, first = run_cli(list(cmd), tmp_path, "a_" + name)
        rc2, second = run_cli(list(cmd), tmp_path, "b_" + name)
        assert rc1 == rc2 == 0
        assert first == second


@pytest.mark.parametrize("coeffs", ["mu", "complex-file"])
def test_difference_artifact_does_not_depend_on_the_blas_thread_count(coeffs, tmp_path):
    # OpenBLAS splits a dot product of more than 10,000 terms across its
    # threads; the difference identity's reductions make no BLAS call, so
    # one and two threads write the same bytes.
    truncation = 100_000
    if coeffs == "complex-file":
        truncation = 20_000
        rng = np.random.default_rng(11)
        z = np.exp(2j * np.pi * rng.random(truncation)) / np.arange(1, truncation + 1) ** 2
        coeffs = _coefficient_file(tmp_path, [[v.real, v.imag] for v in z.tolist()])
    argv = ["identity", "difference", "--coeffs", coeffs, "--n", "10", "--truncation", str(truncation)]
    env = {k: v for k, v in os.environ.items() if not k.startswith("INGHAMSUM_")}
    artifacts = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "inghamsum.cli", *argv, "--format", "json", "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=300,
            env={**env, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        artifacts.append(out.read_bytes())
    assert artifacts[0] == artifacts[1]


# Prints the OPENBLAS_NUM_THREADS that numpy's first import sees.
_NUMPY_SEES = """
import os, sys

class Finder:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            sys.meta_path.remove(self)
            print(os.environ.get("OPENBLAS_NUM_THREADS", "unset"))

sys.meta_path.insert(0, Finder())
"""


def _fresh_python(code, threads=None):
    """Run code in a fresh interpreter whose OPENBLAS_NUM_THREADS is
    threads, or unset; its stdout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("INGHAMSUM_") and k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "entry",
    [
        "import inghamsum.cli",
        "import runpy; sys.argv = ['inghamsum', 'sieve', '--n', '10', '--out', os.devnull]; "
        "runpy.run_module('inghamsum.cli', run_name='__main__')",
    ],
    ids=["import", "python -m"],
)
@pytest.mark.parametrize("threads, seen", [(None, "1"), ("3", "3")])
def test_cli_gives_numpy_one_blas_thread_unless_set(entry, threads, seen):
    assert _fresh_python(_NUMPY_SEES + entry, threads).split() == [seen]


def test_the_library_leaves_the_blas_thread_count_alone():
    code = (
        "import os, sys, inghamsum\n"
        "print('numpy' in sys.modules)\n"
        "inghamsum.build_sieve(100)\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS', 'unset'))\n"
        "print(*sorted(m for m in sys.modules if m.startswith('inghamsum.')))\n"
    )
    imported_numpy, numpy_sees, threads, modules = _fresh_python(_NUMPY_SEES + code).splitlines()
    assert imported_numpy == "False"
    assert numpy_sees == threads == "unset"
    assert not {"inghamsum.verify", "inghamsum.dirichlet", "inghamsum.report", "inghamsum.cli"} & set(modules.split())


def test_ingham_mu_unit_column(tmp_path):
    rc, payload = run_cli(
        ["ingham", "--coeffs", "mu", "--n", "10,100,1000", "--format", "csv"], tmp_path
    )
    assert rc == 0
    lines = payload.decode().splitlines()
    assert lines[0].startswith("n,re_A,im_A")
    for line in lines[1:]:
        assert line.split(",")[1] == "1.0"


def test_verify_theorem1_report_passes(tmp_path):
    rc, payload = run_cli(
        [
            "verify", "theorem1", "--spec", F2ZERO, "--grid", "1e3:1e5:x10",
            "--format", "json",
        ],
        tmp_path,
    )
    assert rc == 0
    doc = json.loads(payload)
    assert doc["summary"]["pass"] is True
    import math

    for row in doc["rows"]:
        assert row["residual_t1"] <= 0.6 / math.log(row["n"])


def test_verify_axer_envelope_flag(tmp_path):
    args = ["verify", "axer", "--coeffs", "one", "--n", "10,100", "--format", "json"]
    rc, payload = run_cli(list(args), tmp_path)
    assert json.loads(payload)["summary"]["pass"] is True
    assert rc == 0
    rc, payload = run_cli(args + ["--envelope", "0.5"], tmp_path, "strict")
    assert json.loads(payload)["summary"]["pass"] is False


def test_env_override(tmp_path, monkeypatch):
    args = ["verify", "axer", "--coeffs", "one", "--n", "10,100", "--format", "json"]
    monkeypatch.setenv("INGHAMSUM_ENVELOPE", "0.5")
    rc, payload = run_cli(list(args), tmp_path)
    assert json.loads(payload)["summary"]["pass"] is False
    # Explicit flag wins over the environment.
    rc, payload = run_cli(args + ["--envelope", "10"], tmp_path, "flag")
    assert json.loads(payload)["summary"]["pass"] is True


def test_report_round_trip(tmp_path):
    rc, payload = run_cli(
        [
            "verify", "wintner", "--coeffs", "inverse-squares", "--n", "100,1000",
            "--format", "json",
        ],
        tmp_path,
        "rep.json",
    )
    assert rc == 0
    rc, again = run_cli(
        ["report", "--in", str(tmp_path / "rep.json"), "--format", "json"],
        tmp_path,
        "rt.json",
    )
    assert rc == 0
    assert again == payload
    rc, csv_payload = run_cli(
        ["report", "--in", str(tmp_path / "rep.json"), "--format", "csv"],
        tmp_path,
        "rt.csv",
    )
    assert rc == 0
    assert csv_payload.decode().splitlines()[0] == (
        "n,re_mean,im_mean,re_g,im_g,residual_t1,residual_t3,mu_alpha,s_ratio,pass"
    )


# One cheap instance of every command whose report `report --in` can
# re-render (lemma, at several seconds, is left out).
RENDERED_COMMANDS = {
    "ingham": ["ingham", "--coeffs", "mu", "--n", "10,100,1000"],
    "theorem1": ["verify", "theorem1", "--spec", F2ZERO, "--grid", "1e2:1e4:x10"],
    "theorem2": ["verify", "theorem2", "--coeffs", "mu", "--n", "1e2:1e4:x10", "--sigma", "2,1.5"],
    "theorem3": ["verify", "theorem3", "--spec", LIOUVILLE, "--n", "100,1000"],
    "wintner": ["verify", "wintner", "--coeffs", "inverse-squares", "--n", "100,1000"],
    "axer": ["verify", "axer", "--coeffs", "one", "--n", "10,100", "--envelope", "0.5"],
    "mean": ["mean", "--spec", LIOUVILLE, "--n", "100,1000"],
    "sdiff": ["identity", "sdiff", "--coeffs", "mu", "--n", "500"],
    "sdecomp": ["identity", "sdecomp", "--coeffs", "one", "--n", "300"],
    "smult": ["identity", "smult", "--spec", F2ZERO, "--n", "200"],
    "difference": ["identity", "difference", "--coeffs", "mu", "--n", "5", "--truncation", "2000"],
    "sieve": ["sieve", "--n", "100"],
}


@pytest.mark.parametrize("cmd", RENDERED_COMMANDS.values(), ids=RENDERED_COMMANDS)
def test_report_csv_equals_direct_csv(tmp_path, cmd):
    _, direct = run_cli(cmd + ["--format", "csv"], tmp_path, "direct.csv")
    run_cli(cmd + ["--format", "json"], tmp_path, "report.json")
    rc, again = run_cli(
        ["report", "--in", str(tmp_path / "report.json"), "--format", "csv"], tmp_path, "again.csv"
    )
    assert rc == 0
    assert again == direct


@pytest.mark.parametrize("cmd", RENDERED_COMMANDS.values(), ids=RENDERED_COMMANDS)
def test_report_json_equals_its_input(tmp_path, cmd):
    _, direct = run_cli(cmd + ["--format", "json"], tmp_path, "report.json")
    rc, again = run_cli(
        ["report", "--in", str(tmp_path / "report.json"), "--format", "json"], tmp_path, "again.json"
    )
    assert rc == 0
    assert again == direct


def test_report_rejects_malformed_rows(tmp_path, capsys):
    path = tmp_path / "bad.json"
    _, payload = run_cli(["verify", "axer", "--coeffs", "one", "--n", "10,100", "--format", "json"], tmp_path)
    first, second = json.loads(payload)["rows"]
    # A pair column holding a number, or a one-element list.
    bad_pairs = ([{**first, "mean": 5}, second], [first, {**second, "g": [1.0]}])
    for rows in ([], 5, *bad_pairs):
        path.write_text(json.dumps({"experiment_id": "x", "rows": rows, "summary": {}}))
        assert main(["report", "--in", str(path), "--format", "csv", "--out", os.devnull]) == 2
        assert capsys.readouterr().err.startswith("error: ")


_SPEC_PRIMES = (2, 3, 5, 7, 11, 97)


@settings(max_examples=20, deadline=None)
@given(
    cutoff=st.integers(100, 5000),
    angles=st.dictionaries(st.sampled_from(_SPEC_PRIMES), st.floats(0.0, 6.28), max_size=4),
    grid=st.lists(st.integers(3, 3000), min_size=2, max_size=4, unique=True).map(sorted),
)
def test_rows_do_not_depend_on_the_rest_of_the_grid(tmp_path_factory, cutoff, angles, grid):
    spec = tmp_path_factory.mktemp("grid") / "spec.json"
    primes = {str(p): [math.cos(a), math.sin(a)] for p, a in angles.items()}
    spec.write_text(
        json.dumps(
            {"type": "completely_multiplicative", "cutoff": cutoff, "default": [-1, 0], "primes": primes}
        )
    )
    out = spec.parent / "out.json"

    def rows(cmd, points):
        n = ",".join(map(str, points))
        rc = main(cmd + ["--spec", str(spec), "--n", n, "--format", "json", "--out", str(out)])
        assert rc == 0
        return json.loads(out.read_bytes())["rows"]

    for cmd in (["mean"], ["verify", "theorem1"], ["verify", "theorem3"]):
        assert rows(cmd, grid) == [rows(cmd, [n])[0] for n in grid]


def test_identity_commands(tmp_path):
    rc, payload = run_cli(
        ["identity", "sdiff", "--coeffs", "mu", "--n", "500", "--format", "json"],
        tmp_path,
        "sdiff.json",
    )
    assert rc == 0
    doc = json.loads(payload)
    assert doc["summary"]["pass"] is True
    rc, payload = run_cli(
        ["identity", "sdecomp", "--coeffs", "one", "--n", "300", "--format", "json"],
        tmp_path,
        "sdecomp.json",
    )
    assert rc == 0
    assert json.loads(payload)["summary"]["pass"] is True
    rc, payload = run_cli(
        ["identity", "smult", "--spec", F2ZERO, "--n", "200", "--format", "json"],
        tmp_path,
        "smult.json",
    )
    assert rc == 0
    assert json.loads(payload)["summary"]["pass"] is True
    rc, payload = run_cli(
        [
            "identity", "difference", "--coeffs", "mu", "--n", "5",
            "--truncation", "2000", "--format", "json",
        ],
        tmp_path,
        "difference.json",
    )
    assert rc == 0
    doc = json.loads(payload)
    assert doc["summary"]["pass"] is True
    assert doc["rows"][0]["error"] <= 1e-5


def test_sieve_command(tmp_path):
    rc, payload = run_cli(["sieve", "--n", "10", "--format", "csv"], tmp_path)
    assert rc == 0
    lines = payload.decode().splitlines()
    assert lines[0] == "m,spf,mu,mangoldt,psi"
    assert lines[1].startswith("2,2,-1,")


def test_opt_takes_flag_then_environment_then_default(monkeypatch):
    from inghamsum.cli import _opt

    assert _opt(None, "does-not-exist", 5.0) == 5.0
    assert _opt(3.0, "does-not-exist", 5.0) == 3.0
    monkeypatch.setenv("INGHAMSUM_QUAD_TOL", "1e-6")
    assert _opt(None, "quad-tol", 1e-8) == 1e-6
    assert _opt(1e-7, "quad-tol", 1e-8) == 1e-7
    monkeypatch.setenv("INGHAMSUM_TRUNCATION", "500")
    assert _opt(None, "truncation", 10**6, int) == 500
    assert _opt(10**400, "truncation", 10**6, int) == 10**400
    for value in ("nan", "inf", "-inf"):
        monkeypatch.setenv("INGHAMSUM_ENVELOPE", value)
        with pytest.raises(SpecFormatError, match="INGHAMSUM_ENVELOPE"):
            _opt(None, "envelope", 1.0)
        with pytest.raises(SpecFormatError, match="--alpha"):
            _opt(float(value), "alpha", 2.0)


# -- exit statuses ------------------------------------------------------


def test_exit_parse_error(tmp_path):
    assert main(["ingham", "--coeffs", "definitely-missing", "--n", "10"]) == 2
    assert main(["mean", "--spec", str(tmp_path / "nope.json"), "--n", "10"]) == 2
    assert main(["verify", "theorem3", "--n", "10"]) == 2  # no --spec


def test_exit_capacity_error():
    assert main(["sieve", "--n", "200000000", "--out", os.devnull]) == 3


def test_exit_io_error():
    assert main(["ingham", "--coeffs", "mu", "--n", "10", "--out", "/nonexistent/x.csv"]) == 5


def test_exit_usage_error_is_2():
    proc = subprocess.run(
        [sys.executable, "-m", "inghamsum.cli", "frobnicate"], capture_output=True
    )
    assert proc.returncode == 2


BAD_INPUT_COMMANDS = {
    "grid inf": ["ingham", "--coeffs", "mu", "--n", "inf"],
    "grid 1e400": ["sieve", "--n", "1e400"],
    "grid 1:inf:x2": ["sieve", "--n", "1:inf:x2"],
    "grid 1:nan:x2": ["sieve", "--n", "1:nan:x2"],
    "tail-tol 0": ["lemma", "--tail-tol", "0"],
    "tail-tol nan": ["lemma", "--tail-tol", "nan"],
    "quad-tol nan": ["lemma", "--quad-tol", "nan"],
    "quad-tol inf": [
        "identity", "difference", "--coeffs", "mu", "--n", "10", "--truncation", "1000", "--quad-tol", "inf",
    ],
    "sigma nan": ["verify", "theorem2", "--coeffs", "mu", "--n", "100,1000", "--sigma", "2,nan"],
    "sigma inf": ["verify", "theorem2", "--coeffs", "mu", "--n", "100,1000", "--sigma", "inf,2"],
    "mean alpha nan": ["mean", "--spec", F2ZERO, "--n", "1000", "--alpha", "nan"],
    "theorem3 alpha nan": ["verify", "theorem3", "--spec", F2ZERO, "--n", "1000", "--alpha", "nan"],
    "alpha inf": ["mean", "--spec", F2ZERO, "--n", "1000", "--alpha", "inf"],
    "envelope nan": ["verify", "axer", "--coeffs", "mu", "--n", "100,1000", "--envelope", "nan"],
    "theorem2 n 1": ["verify", "theorem2", "--coeffs", "mu", "--n", "1,2,3,70000", "--sigma", "100,1.5"],
    "sigma empty": ["verify", "theorem2", "--coeffs", "mu", "--n", "100,1000", "--sigma", ""],
    "coefficient 1e400": ["ingham", "--coeffs", str(DATA / "coeffs_inf.json"), "--n", "2"],
    "coefficient NaN": ["ingham", "--coeffs", str(DATA / "coeffs_nan.json"), "--n", "2"],
    "coefficient 10**400": ["ingham", "--coeffs", str(DATA / "coeffs_huge_int.json"), "--n", "2"],
    "prime value NaN": ["mean", "--spec", str(DATA / "spec_nan_prime.json"), "--n", "100"],
    "axer envelope -1": ["verify", "axer", "--coeffs", "mu", "--n", "100,1000", "--envelope", "-1"],
    "lemma envelope -1": ["lemma", "--envelope", "-1"],
    "sdiff envelope -1": ["identity", "sdiff", "--coeffs", "mu", "--n", "1000", "--envelope", "-1"],
    "difference envelope -1": [
        "identity", "difference", "--coeffs", "mu", "--n", "10", "--truncation", "1000", "--envelope", "-1",
    ],
    "theorem3 envelope -1": ["verify", "theorem3", "--spec", F2ZERO, "--n", "1000", "--envelope", "-1"],
    "theorem1 envelope 0": ["verify", "theorem1", "--coeffs", "mu", "--n", "100,1000", "--envelope", "0"],
    # Rejected before the sieve and the extension up to 1e7 are built.
    "mean alpha 1": ["mean", "--spec", F2ZERO, "--n", "1e7", "--alpha", "1"],
    "theorem3 alpha 0.5": ["verify", "theorem3", "--spec", F2ZERO, "--n", "1e7", "--alpha", "0.5"],
    "difference truncation below n": [
        "identity", "difference", "--coeffs", "mu", "--n", "1000", "--truncation", "999",
    ],
}

# A flag that the chosen check does not read, and the flag the error names.
UNREAD_FLAG_COMMANDS = {
    "theorem1 alpha": (["verify", "theorem1", "--coeffs", "mu", "--n", "100,1000", "--alpha", "7"], "--alpha"),
    "theorem1 sigma": (["verify", "theorem1", "--coeffs", "mu", "--n", "100,1000", "--sigma", "3,2"], "--sigma"),
    "theorem1 coeffs beside spec": (["verify", "theorem1", "--spec", F2ZERO, "--coeffs", "mu", "--n", "100"], "--coeffs"),
    "theorem2 envelope": (["verify", "theorem2", "--coeffs", "mu", "--n", "100,1000", "--envelope", "5"], "--envelope"),
    "theorem2 spec": (["verify", "theorem2", "--coeffs", "mu", "--n", "100,1000", "--spec", F2ZERO], "--spec"),
    "theorem3 coeffs": (["verify", "theorem3", "--spec", F2ZERO, "--n", "1000", "--coeffs", "mu"], "--coeffs"),
    "wintner envelope": (["verify", "wintner", "--coeffs", "mu", "--n", "100", "--envelope", "5"], "--envelope"),
    "axer alpha": (["verify", "axer", "--coeffs", "mu", "--n", "100", "--alpha", "2"], "--alpha"),
    "sdiff truncation": (["identity", "sdiff", "--coeffs", "mu", "--n", "1000", "--truncation", "5"], "--truncation"),
    "sdiff spec": (["identity", "sdiff", "--coeffs", "mu", "--n", "1000", "--spec", "x"], "--spec"),
    "sdiff quad-tol": (["identity", "sdiff", "--coeffs", "mu", "--n", "1000", "--quad-tol", "0.5"], "--quad-tol"),
    "sdecomp tail-tol": (["identity", "sdecomp", "--coeffs", "mu", "--n", "1000", "--tail-tol", "0.5"], "--tail-tol"),
    "smult coeffs": (["identity", "smult", "--spec", F2ZERO, "--n", "200", "--coeffs", "mu"], "--coeffs"),
    "difference spec": (
        ["identity", "difference", "--coeffs", "mu", "--n", "10", "--truncation", "1000", "--spec", F2ZERO], "--spec",
    ),
    "sieve alpha": (["sieve", "--n", "10", "--alpha", "3"], "--alpha"),
    "sieve alpha=-inf": (["sieve", "--n", "10", "--alpha=-inf"], "--alpha"),
    "mean envelope": (["mean", "--spec", F2ZERO, "--n", "1000", "--envelope", "5"], "--envelope"),
    "ingham sigma": (["ingham", "--coeffs", "mu", "--n", "100", "--sigma", "2"], "--sigma"),
    "lemma n": (["lemma", "--n", "100"], "--n"),
    "report coeffs": (["report", "--in", str(DATA / "missing.json"), "--coeffs", "mu"], "--coeffs"),
}
BAD_INPUT_COMMANDS.update({case: argv for case, (argv, _) in UNREAD_FLAG_COMMANDS.items()})


@pytest.mark.parametrize("case", BAD_INPUT_COMMANDS)
def test_bad_input_exits_2_without_traceback(case, tmp_path):
    # A subprocess with a timeout, so that a check that lets NaN through
    # to the quadrature fails here instead of hanging the suite.
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "inghamsum.cli", *BAD_INPUT_COMMANDS[case], "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["", "2,x", "2,,1.5"])
def test_unparsable_sigma_is_named(sigma, capsys):
    argv = ["verify", "theorem2", "--coeffs", "mu", "--n", "100,1000", "--sigma", sigma]
    assert main([*argv, "--out", os.devnull]) == 2
    assert capsys.readouterr().err.startswith("error: --sigma: ")


@pytest.mark.parametrize("value", ["0", "-1", "-0.0", "-0.5"])
def test_envelope_at_or_below_zero_is_named(value, capsys):
    argv = ["verify", "axer", "--coeffs", "mu", "--n", "100", "--envelope", value]
    assert main([*argv, "--out", os.devnull]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --envelope: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["mean", "--spec", F2ZERO, "--n", "1e7", "--alpha", "1"], "--alpha"),
        (["verify", "theorem3", "--spec", F2ZERO, "--n", "1e7", "--alpha", "-0.0"], "--alpha"),
        (["identity", "difference", "--coeffs", "mu", "--n", "1000", "--truncation", "999"], "--truncation"),
    ],
)
def test_bad_alpha_and_truncation_are_named_before_the_sieve_is_built(argv, flag, monkeypatch, capsys):
    from inghamsum import cli as cli_mod

    def no_sieve(limit):
        raise AssertionError(f"sieve built up to {limit}")

    monkeypatch.setattr(cli_mod, "build_sieve", no_sieve)
    assert main([*argv, "--out", os.devnull]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag}: expected a number > ")


# Every float flag, with each command that reads it.
FLOAT_FLAG_READERS = {
    "alpha": (["mean", "--spec", F2ZERO, "--n", "1000"], ["verify", "theorem3", "--spec", F2ZERO, "--n", "1000"]),
    "envelope": (
        ["verify", "theorem1", "--coeffs", "mu", "--n", "100,1000"],
        ["verify", "theorem1", "--spec", F2ZERO, "--n", "1000"],
        ["verify", "theorem3", "--spec", F2ZERO, "--n", "1000"],
        ["verify", "axer", "--coeffs", "mu", "--n", "100,1000"],
        ["lemma"],
        ["identity", "sdiff", "--coeffs", "mu", "--n", "1000"],
        ["identity", "sdecomp", "--coeffs", "mu", "--n", "1000"],
        ["identity", "smult", "--spec", F2ZERO, "--n", "200"],
        ["identity", "difference", "--coeffs", "mu", "--n", "10", "--truncation", "1000"],
    ),
    "quad-tol": (["lemma"], ["identity", "difference", "--coeffs", "mu", "--n", "10", "--truncation", "1000"]),
    "tail-tol": (["lemma"], ["identity", "difference", "--coeffs", "mu", "--n", "10", "--truncation", "1000"]),
    "sigma": (["verify", "theorem2", "--coeffs", "mu", "--n", "100,1000"],),
}
# A tolerance is a fraction in (0, 1): 2 is out of range too.
BAD_FLOAT_VALUES = {flag: ("nan", "inf", "-inf", "0", "-1", *(("2",) if flag.endswith("tol") else ())) for flag in FLOAT_FLAG_READERS}
# Each sigma must exceed 1 and parse, and the list must descend.
BAD_FLOAT_VALUES["sigma"] += ("1", "0.5", "2,x", "2,1", "1.5,2", "2,2")


@pytest.mark.parametrize(
    "flag, argv, value",
    [
        pytest.param(flag, argv, value, id="-".join(a.lstrip("-") for a in argv[:3] if "/" not in a) + f"--{flag}={value}")
        for flag, readers in FLOAT_FLAG_READERS.items()
        for argv in readers
        for value in BAD_FLOAT_VALUES[flag]
    ],
)
def test_bad_float_flag_exits_2_before_the_sieve_is_built(flag, argv, value, monkeypatch, capsys):
    from inghamsum import cli as cli_mod

    def no_sieve(limit):
        raise AssertionError(f"sieve built up to {limit}")

    monkeypatch.setattr(cli_mod, "build_sieve", no_sieve)
    # --flag=value, so that argparse reads -inf as the flag's value.
    assert main([*argv, f"--{flag}={value}", "--out", os.devnull]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --{flag}: ") and "Traceback" not in err


# Every command that reads a grid (--n), without it.
GRID_READERS = {
    "sieve": ["sieve"],
    "mean": ["mean", "--spec", F2ZERO],
    "ingham": ["ingham", "--coeffs", "mu"],
    "theorem1": ["verify", "theorem1", "--coeffs", "mu"],
    "theorem1-spec": ["verify", "theorem1", "--spec", F2ZERO],
    "theorem2": ["verify", "theorem2", "--coeffs", "mu"],
    "theorem3": ["verify", "theorem3", "--spec", F2ZERO],
    "wintner": ["verify", "wintner", "--coeffs", "mu"],
    "axer": ["verify", "axer", "--coeffs", "mu"],
    "sdiff": ["identity", "sdiff", "--coeffs", "mu"],
    "sdecomp": ["identity", "sdecomp", "--coeffs", "mu"],
    "smult": ["identity", "smult", "--spec", F2ZERO],
    "difference": ["identity", "difference", "--coeffs", "mu", "--truncation", "1000"],
}


def test_grid_readers_cover_every_command_that_reads_n():
    reads_n = {command for command, _, reads, _ in _COMMANDS if "n" in reads.split()}
    assert reads_n == {" ".join(argv[:2] if argv[0] in ("verify", "identity") else argv[:1]) for argv in GRID_READERS.values()}


@pytest.mark.parametrize("value", ["0", "-3", "0.4", "0,5"])
@pytest.mark.parametrize("name", GRID_READERS)
def test_grid_value_below_1_exits_2_before_the_sieve_is_built(name, value, monkeypatch, capsys):
    from inghamsum import cli as cli_mod

    def no_sieve(limit):
        raise AssertionError(f"sieve built up to {limit}")

    monkeypatch.setattr(cli_mod, "build_sieve", no_sieve)
    assert main([*GRID_READERS[name], "--n", value, "--out", os.devnull]) == 2
    assert capsys.readouterr().err == f"error: grid {value!r}: values must be >= 1\n"


# Every command that reads --coeffs, without it, and one that reads --spec.
COEFFS_READERS = {
    "ingham": ["ingham", "--n", "1000"],
    "theorem1": ["verify", "theorem1", "--n", "100,1000"],
    "theorem2": ["verify", "theorem2", "--n", "100,1000"],
    "wintner": ["verify", "wintner", "--n", "1000"],
    "axer": ["verify", "axer", "--n", "100,1000"],
    "sdiff": ["identity", "sdiff", "--n", "1000"],
    "sdecomp": ["identity", "sdecomp", "--n", "1000"],
    "difference": ["identity", "difference", "--n", "10", "--truncation", "1000"],
}
# A missing --coeffs or --spec, a path that does not exist, a malformed
# file and (for --coeffs) one with fewer coefficients than the command reads.
BAD_SOURCES = {
    "missing": [],
    "no such file": [str(DATA / "missing.json")],
    "malformed": [str(DATA / "coeffs_nan.json")],
    "short": ["{short}"],
}


@pytest.mark.parametrize(
    "argv, option, source",
    [
        pytest.param(argv, "--coeffs", source, id=f"{name}-{case}")
        for name, argv in COEFFS_READERS.items()
        for case, source in BAD_SOURCES.items()
    ]
    + [
        pytest.param(["identity", "smult", "--n", "200"], "--spec", source, id=f"smult-{case}")
        for case, source in BAD_SOURCES.items()
        if case != "short"
    ],
)
def test_bad_coeffs_and_spec_exit_2_before_the_sieve_is_built(argv, option, source, tmp_path, monkeypatch, capsys):
    from inghamsum import cli as cli_mod

    def no_sieve(limit):
        raise AssertionError(f"sieve built up to {limit}")

    short = tmp_path / "short.json"
    short.write_text(json.dumps({"type": "coefficients", "values": [1, 2]}))
    monkeypatch.setattr(cli_mod, "build_sieve", no_sieve)
    flag = [option, *(s.format(short=short) for s in source)] if source else []
    assert main([*argv, *flag, "--out", os.devnull]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


# Fifty finite coefficients whose sums overflow the float range.
HUGE = [[1e308, 0]] * 50
# Finite sums whose largest |S|, the scale of the sdiff error, is not:
# a_50 log 50 has parts of 1.5e308.
HUGE_MODULUS = [[0, 0]] * 49 + [[1.5e308 / math.log(50)] * 2]


@pytest.mark.parametrize("argv, values", [
    (["verify", "theorem1", "--n", "10,50"], HUGE),
    (["verify", "theorem2", "--n", "10,50"], HUGE),
    (["verify", "wintner", "--n", "10,50"], HUGE),
    (["identity", "difference", "--n", "10", "--truncation", "50"], HUGE),
    (["identity", "sdiff", "--n", "50"], HUGE),
    (["identity", "sdecomp", "--n", "50"], HUGE),
    (["identity", "sdiff", "--n", "50"], HUGE_MODULUS),
], ids=["theorem1", "theorem2", "wintner", "difference", "sdiff", "sdecomp", "sdiff-scale"])
def test_overflowing_sum_exits_4(argv, values, tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"type": "coefficients", "values": values}))
    assert main([*argv, "--coeffs", str(path), "--out", os.devnull]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and "Traceback" not in err


# The commands that read --coeffs but no sieve of their own.
TABLELESS_COEFFS_READERS = ("ingham", "theorem1", "theorem2", "wintner", "axer")


@pytest.mark.parametrize("name", TABLELESS_COEFFS_READERS)
def test_coefficient_file_builds_no_sieve(name, tmp_path, monkeypatch):
    from inghamsum import cli as cli_mod

    def no_sieve(limit):
        raise AssertionError(f"sieve built up to {limit}")

    path = tmp_path / "ones.json"
    path.write_text(json.dumps({"type": "coefficients", "values": [1] * 1000}))
    monkeypatch.setattr(cli_mod, "build_sieve", no_sieve)
    out = tmp_path / "out.json"
    assert main([*COEFFS_READERS[name], "--coeffs", str(path), "--format", "json", "--out", str(out)]) == 0
    assert json.loads(out.read_bytes())["rows"]


@pytest.mark.parametrize("case", UNREAD_FLAG_COMMANDS)
def test_unread_flag_is_named(case, capsys):
    argv, flag = UNREAD_FLAG_COMMANDS[case]
    assert main([*argv, "--out", os.devnull]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.rstrip().endswith(f"does not read {flag}")


# The options each command reads besides --out and --format.
COMMAND_READS = {
    "sieve": "--n",
    "mean": "--spec --n --alpha",
    "ingham": "--coeffs --n",
    "verify theorem1": "--spec --coeffs --n --envelope",
    "verify theorem2": "--coeffs --n --sigma",
    "verify theorem3": "--spec --n --alpha --envelope",
    "verify wintner": "--coeffs --n",
    "verify axer": "--coeffs --n --envelope",
    "lemma": "--envelope --quad-tol --tail-tol",
    "identity sdiff": "--coeffs --n --envelope",
    "identity sdecomp": "--coeffs --n --envelope",
    "identity smult": "--spec --n --envelope",
    "identity difference": "--coeffs --n --truncation --envelope --quad-tol --tail-tol",
    "report": "--in",
}


def test_every_command_has_one_row_naming_the_options_it_reads():
    rows = {command: " ".join("--" + option for option in reads.split()) for command, _, reads, _ in _COMMANDS}
    assert rows == COMMAND_READS


@pytest.mark.parametrize("command", COMMAND_READS)
def test_help_lists_exactly_the_options_the_command_reads(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command.split(), "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", capsys.readouterr().out))
    expected = {"--help", "--out", "--format", *COMMAND_READS[command].split()}
    if command.startswith("verify "):
        expected.add("--grid")
    assert listed == expected


# (variable, value, command): a check that does not read the variable
# ignores it; one that does still rejects the value.
ENVIRONMENT_CASES = (
    ("INGHAMSUM_QUAD_TOL", "nan", ["identity", "sdiff", "--coeffs", "mu", "--n", "1000"], 0),
    ("INGHAMSUM_TAIL_TOL", "0", ["identity", "smult", "--spec", F2ZERO, "--n", "200"], 0),
    ("INGHAMSUM_TRUNCATION", "x", ["identity", "sdecomp", "--coeffs", "one", "--n", "300"], 0),
    ("INGHAMSUM_ALPHA", "nan", ["verify", "theorem1", "--coeffs", "mu", "--n", "100,1000"], 0),
    ("INGHAMSUM_ENVELOPE", "nan", ["verify", "theorem2", "--coeffs", "mu", "--n", "100,1000"], 0),
    ("INGHAMSUM_QUAD_TOL", "nan", ["identity", "difference", "--coeffs", "mu", "--n", "10", "--truncation", "1000"], 2),
    ("INGHAMSUM_ALPHA", "nan", ["verify", "theorem3", "--spec", F2ZERO, "--n", "1000"], 2),
    ("INGHAMSUM_TRUNCATION", "1e6", ["identity", "difference", "--coeffs", "mu", "--n", "10"], 2),
    ("INGHAMSUM_ALPHA", "x", ["mean", "--spec", F2ZERO, "--n", "1000"], 2),
    ("INGHAMSUM_ENVELOPE", "-1", ["verify", "wintner", "--coeffs", "mu", "--n", "100,1000"], 0),
    ("INGHAMSUM_ENVELOPE", "0", ["identity", "sdecomp", "--coeffs", "mu", "--n", "300"], 2),
    ("INGHAMSUM_ALPHA", "0.5", ["mean", "--spec", F2ZERO, "--n", "1000"], 2),
    ("INGHAMSUM_QUAD_TOL", "2", ["lemma"], 2),
    ("INGHAMSUM_TAIL_TOL", "1", ["identity", "difference", "--coeffs", "mu", "--n", "10", "--truncation", "1000"], 2),
)


@pytest.mark.parametrize("name, value, argv, status", ENVIRONMENT_CASES)
def test_environment_is_read_only_by_checks_that_use_it(name, value, argv, status, monkeypatch, capsys):
    monkeypatch.setenv(name, value)
    assert main([*argv, "--out", os.devnull]) == status
    err = capsys.readouterr().err
    assert (name in err) == (status == 2)


def test_lemma_matches_the_benchmark_reference(tmp_path):
    # The stored reference of the benchmark's `lemma` command, judged by
    # its own checker: floats within 1e-9 relative plus 1e-9 absolute.
    out = tmp_path / "lemma.json"
    assert main(["lemma", "--envelope", "5", "--format", "json", "--out", str(out)]) == 0
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "check.py"), "--judge", str(out), "--format", "json", "--reference", "lemma"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_exit_quadrature_error(monkeypatch):
    from inghamsum import cli as cli_mod
    from inghamsum.errors import QuadratureError

    def boom(*args, **kwargs):
        raise QuadratureError("stalled")

    monkeypatch.setattr(cli_mod, "lemma_ratio_suite", boom)
    assert cli_mod.main(["lemma", "--out", os.devnull]) == 4


def test_exit_singular_euler_factor_is_4(tmp_path, capsys):
    # f(2) = 2^sigma with sigma = 1 + 1/log 10, the theorem1 exponent at
    # n = 10, so the Euler factor at p = 2 has a vanishing denominator.
    spec = tmp_path / "singular.json"
    spec.write_text(
        json.dumps(
            {
                "type": "completely_multiplicative",
                "cutoff": 100,
                "bound_check": False,
                "default": [1, 0],
                "primes": {"2": [2.0 ** (1 + 1 / math.log(10)), 0]},
            }
        )
    )
    assert main(["verify", "theorem1", "--spec", str(spec), "--grid", "10"]) == 4
    assert capsys.readouterr().err.startswith("numerical error:")
