"""Seeded inputs, failure counting and the result contract."""

import json
import os
import shutil
import subprocess
import sys

import check
import run


def _cli(argv, out):
    proc = subprocess.run(
        [sys.executable, "-m", "inghamsum.cli", *argv, "--out", str(out)],
        cwd=run.ROOT, env=run.child_env(), capture_output=True,
    )
    return proc.returncode


def test_seeded_inputs_repeat_for_a_seed(tmp_path):
    for name, workload in run.WORKLOADS.items():
        dirs = [tmp_path / f"{name}-{i}" for i in range(3)]
        for d in dirs:
            d.mkdir()
        a = run.seeded_inputs(workload, 7, str(dirs[0]))
        b = run.seeded_inputs(workload, 7, str(dirs[1]))
        c = run.seeded_inputs(workload, 8, str(dirs[2]))
        for key in a:
            first = open(a[key], "rb").read()
            assert first == open(b[key], "rb").read()
            assert first != open(c[key], "rb").read()


def test_seeded_inputs_have_the_stated_shape(tmp_path):
    inputs = {}
    for workload in run.WORKLOADS.values():
        inputs.update(run.seeded_inputs(workload, 3, str(tmp_path)))
    spec = json.load(open(inputs["mean_spec"]))
    assert spec["default"] == [-1.0, 0.0] and spec["cutoff"] == 10**6
    assert max(map(int, spec["primes"])) < 1000
    unit = json.load(open(inputs["unit_coeffs"]))["values"]
    summable = json.load(open(inputs["summable_coeffs"]))["values"]
    assert len(unit) == 60_000 and len(summable) == 100_000
    assert all(abs(complex(*v)) - 1 < 1e-12 for v in unit)
    assert abs(abs(complex(*summable[9])) * 100 - 1) < 1e-12


def test_a_false_verdict_with_status_zero_counts_as_failed(tmp_path):
    cmd = run.Command("t1", ("verify", "theorem1", "--spec", "tests/data/f2zero.json", "--grid", "1e3",
                             "--envelope", "1e-9", "--format", "json"), fixed=False)
    out = tmp_path / "t1.json"
    assert _cli(cmd.argv, out) == 0
    gate = run.Gate()
    assert not gate.record(cmd, 0, str(out))
    assert (gate.attempted, gate.failed) == (1, 1)
    assert "summary.pass is false" in gate.problems[0]


def test_reference_mismatches_count_as_failed(tmp_path):
    cmd = next(c for c in run.WORKLOADS["dense-grid"].commands if c.id == "sdecomp-liouville")
    reference = check.load_reference(cmd.id)
    out = tmp_path / "sdecomp.json"
    assert _cli(cmd.argv, out) == 0
    data = out.read_bytes()
    assert check.judge(data, cmd.fmt, reference) == []

    doc = json.loads(data)
    doc["rows"][0]["scale"] *= 1 + 1e-13  # within the stated tolerance
    assert check.judge(json.dumps(doc).encode(), cmd.fmt, reference) == []
    doc["rows"][0]["scale"] *= 1 + 1e-6
    assert check.judge(json.dumps(doc).encode(), cmd.fmt, reference)
    doc = json.loads(data)
    doc["rows"][0]["n"] = 5001
    assert check.judge(json.dumps(doc).encode(), cmd.fmt, reference)

    gate = run.Gate()
    assert gate.record(cmd, 0, str(out))
    out.write_bytes(data + b" ")  # bytes differ from the first run
    assert not gate.record(cmd, 0, str(out))
    assert not gate.record(cmd, 3, str(out))
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(doc))
    fresh = run.Gate()
    assert not fresh.record(cmd, 0, str(wrong))
    assert (gate.attempted, gate.failed, fresh.failed) == (3, 2, 1)


def test_csv_artifacts_are_typed_and_fingerprinted():
    data = b"m,spf,mu,mangoldt,psi\n2,2,-1,0.6931471805599453,0.6931471805599453\n4,2,0,,true\n"
    doc = check.parse_artifact(data, "csv")
    assert doc["rows"][1] == {"m": 4, "spf": 2, "mu": 0, "mangoldt": None, "psi": True}
    fp = check.fingerprint(doc)
    assert (fp["rows"], fp["float_leaves"], fp["exact_leaves"]) == (2, 2, 13)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile(list(range(20))) is None
    assert run.tail_percentile(list(range(1, 101))) == (90, 90)
    assert run.tail_percentile(list(range(1, 1001))) == (99, 990)


def test_without_a_checkout_it_fails_without_a_result(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense-grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.tracer.LAYER_METRICS
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "cpu_s", "peak_rss_mb", "setup_s"]
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )
