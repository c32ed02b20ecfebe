"""Correctness gate for the benchmark's CLI artifacts.

A command fails when it exits nonzero, when its report's
``summary.pass`` is false (the CLI exits 0 on a failed verdict), or
when a fixed-input artifact differs from the reference stored in
``perfbench/reference``. Integers, booleans, strings and nulls must
match exactly; a float b matches its reference a when

    |a - b| <= REL_TOL * max(|a|, |b|) + ABS_TOL

so that a kernel change within a stated ulp bound still passes.

A reference keeps every leaf of up to SAMPLE_ROWS evenly spaced rows
plus everything outside the rows, a digest of all exact leaves, and the
sum and absolute sum of all float leaves. Large artifacts (the 10.6 MB
sieve table) are thus pinned without storing them.

Judge one artifact (prints its problems as a JSON list) with

    python3 perfbench/check.py --judge PATH --format json [--reference ID]

and regenerate the references from the program at the current commit with

    python3 perfbench/check.py --regenerate

and run ``python3 -m pytest perfbench/tests`` before committing them:
it rebuilds the spec-driven rows from one-point grids and checks the
other rows against independent computations.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
REL_TOL = 1e-9
ABS_TOL = 1e-9
SAMPLE_ROWS = 128


def parse_artifact(data: bytes, fmt: str):
    """The artifact as a JSON-like document; CSV becomes
    {"columns": [...], "rows": [{column: cell}, ...]} with typed cells."""
    if fmt == "json":
        return json.loads(data)
    reader = csv.reader(io.StringIO(data.decode()))
    columns = next(reader)
    return {"columns": columns, "rows": [dict(zip(columns, map(_csv_value, r))) for r in reader]}


def _csv_value(cell: str):
    if cell == "":
        return None
    if cell in ("true", "false"):
        return cell == "true"
    if cell.lstrip("-").isdigit():
        return int(cell)
    try:
        return float(cell)
    except ValueError:
        return cell


def leaves(doc, path="", out=None) -> list[tuple[str, object]]:
    """(path, value) for every scalar in document order."""
    out = [] if out is None else out
    if isinstance(doc, dict):
        for key, value in doc.items():
            leaves(value, f"{path}/{key}", out)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            leaves(value, f"{path}/{i}", out)
    else:
        out.append((path, doc))
    return out


def sample_indices(n: int) -> list[int]:
    if n <= SAMPLE_ROWS:
        return list(range(n))
    return sorted({round(i * (n - 1) / (SAMPLE_ROWS - 1)) for i in range(SAMPLE_ROWS)})


def fingerprint(doc) -> dict:
    """The stored form of a reference document."""
    rows = doc.get("rows", [])
    sample = {}
    for key, value in doc.items():
        if key != "rows":
            sample.update(leaves(value, f"/{key}"))
    for i in sample_indices(len(rows)):
        sample.update(leaves(rows[i], f"/rows/{i}"))
    everything = leaves(doc)
    floats = [v for _, v in everything if isinstance(v, float)]
    exact = "".join(f"{p}={v!r}\n" for p, v in everything if not isinstance(v, float))
    return {
        "rows": len(rows),
        "exact_leaves": len(everything) - len(floats),
        "exact_digest": hashlib.sha256(exact.encode()).hexdigest(),
        "float_leaves": len(floats),
        "float_sum": math.fsum(floats),
        "float_abs_sum": math.fsum(map(abs, floats)),
        "sample": sample,
    }


def floats_match(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL


def values_match(ref, got) -> bool:
    if isinstance(ref, float) and isinstance(got, float):
        return floats_match(ref, got)
    return type(ref) is type(got) and ref == got


def compare(reference: dict, doc) -> list[str]:
    """Differences between a stored reference and a parsed artifact."""
    got = fingerprint(doc)
    problems = []
    for key in ("rows", "exact_leaves", "exact_digest", "float_leaves"):
        if got[key] != reference[key]:
            problems.append(f"{key}: {got[key]!r} != reference {reference[key]!r}")
    slack = REL_TOL * reference["float_abs_sum"] + ABS_TOL * reference["float_leaves"]
    for key in ("float_sum", "float_abs_sum"):
        if not abs(got[key] - reference[key]) <= slack:
            problems.append(f"{key}: {got[key]!r} != reference {reference[key]!r}")
    for path, ref in reference["sample"].items():
        if path not in got["sample"]:
            problems.append(f"{path}: missing")
        elif not values_match(ref, got["sample"][path]):
            problems.append(f"{path}: {got['sample'][path]!r} != reference {ref!r}")
    return problems


def reference_path(command_id: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{command_id}.json")


def load_reference(command_id: str) -> dict:
    with open(reference_path(command_id), encoding="utf-8") as fh:
        return json.load(fh)


def judge(data: bytes | None, fmt: str, reference: dict | None) -> list[str]:
    """Why an artifact fails the gate; empty when it passes."""
    if data is None:
        return ["no artifact written"]
    try:
        doc = parse_artifact(data, fmt)
    except (ValueError, StopIteration) as exc:
        return [f"unreadable artifact: {exc}"]
    problems = []
    summary = doc.get("summary") if isinstance(doc, dict) else None
    if isinstance(summary, dict) and summary.get("pass") is False:
        problems.append("summary.pass is false")
    if reference is not None:
        problems.extend(compare(reference, doc))
    return problems


def regenerate() -> None:
    import subprocess
    import tempfile

    import run

    os.makedirs(REFERENCE_DIR, exist_ok=True)
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
        for workload in run.WORKLOADS.values():
            for cmd in workload.commands:
                if not cmd.fixed:
                    continue
                out = os.path.join(tmp, cmd.id)
                subprocess.run(
                    [sys.executable, "-m", "inghamsum.cli", *cmd.argv, "--out", out],
                    cwd=run.ROOT, env=run.child_env(), check=True,
                )
                with open(out, "rb") as fh:
                    doc = parse_artifact(fh.read(), cmd.fmt)
                record = {"command": cmd.argv, "format": cmd.fmt, **fingerprint(doc)}
                with open(reference_path(cmd.id), "w", encoding="utf-8") as fh:
                    json.dump(record, fh, indent=1)
                    fh.write("\n")
                print(f"wrote {reference_path(cmd.id)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Judge an artifact or regenerate the references.")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--judge", metavar="ARTIFACT", help="print the artifact's problems as a JSON list")
    mode.add_argument("--regenerate", action="store_true")
    parser.add_argument("--format", choices=("csv", "json"), default="json")
    parser.add_argument("--reference", metavar="COMMAND_ID", help="stored reference to compare with")
    args = parser.parse_args(argv)
    if args.regenerate:
        regenerate()
        return 0
    try:
        with open(args.judge, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        data = None
    reference = load_reference(args.reference) if args.reference else None
    print(json.dumps(judge(data, args.format, reference)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
