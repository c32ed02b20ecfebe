"""End-to-end benchmark of the inghamsum CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src`` and nothing needs installing. Each workload is a list of
README-style CLI commands. The seeded input files are generated from
``--seed`` before any timing; the program receives only the files.

--trace 0 measures with tracing off. It first runs the set-up probe (a
fresh process that imports inghamsum, builds the sieve at the
workload's largest N and builds mobius_array) at least
SETUP_MIN_REPEATS times and until SETUP_SECONDS have passed, then runs
the commands back to back, each as a fresh subprocess, in a closed loop
with one client, starting passes until --seconds have passed (the last
pass runs to its end). Per pass: wall_s is the summed wall time, cpu_s
the summed user + sys time and peak_rss_mb the largest peak RSS of the
children, each taken from os.wait4 for that child alone. The result is
the median over passes.

--trace 1 runs every command in-process through perfbench/tracer.py,
traced, untraced and traced again, each in a fresh process. It reports the
per-layer metrics (times averaged over the two traced passes), checks
that the traced artifacts are byte-identical to the untraced ones and
that every counter repeats exactly, and reports the tracing overhead.

Every command is judged by perfbench/check.py, in a subprocess of its
own: a child's peak RSS includes the RSS of the process it was spawned
from, so this process stays small and never loads an artifact. The last
line of stdout is the JSON result; the line before it holds the details
(machine facts, sample counts, spreads, failed_ratio).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_ROOT = os.path.join(ROOT, "perfbench", "_work")
SETUP_MIN_REPEATS = 3
SETUP_SECONDS = 2.0


@dataclass(frozen=True)
class Command:
    id: str
    argv: tuple[str, ...]
    fixed: bool = True  # no seeded input: compared with a stored reference

    @property
    def fmt(self) -> str:
        return self.argv[self.argv.index("--format") + 1]


@dataclass(frozen=True)
class Workload:
    setup_n: int  # largest sieve any command of the workload builds
    commands: tuple[Command, ...]


def _cmd(id_, line, fixed=True):
    return Command(id_, tuple(line.split()), fixed)


# The workloads stress different layers; perfbench/README.md records why
# each was chosen and which end-to-end metric each layer metric should
# move on which one.
WORKLOADS = {
    "scale-1e7": Workload(
        10**7,
        (
            _cmd("theorem1-f2zero", "verify theorem1 --spec tests/data/f2zero.json --grid 1e4:1e7:x10 --format json"),
            _cmd("theorem2-mu", "verify theorem2 --coeffs mu --n 1e5:1e7:x10 --sigma 2,1.25 --format json"),
            _cmd("mean-seeded", "mean --spec {mean_spec} --n 1e3:1e7:x10 --format json", fixed=False),
        ),
    ),
    "dense-grid": Workload(
        10**6,
        (
            _cmd("ingham-mu-dense", "ingham --coeffs mu --n 1e3:1e6:x1.002 --format json"),
            _cmd("sdiff-seeded", "identity sdiff --coeffs {unit_coeffs} --n 60000 --format json", fixed=False),
            _cmd("sdecomp-liouville", "identity sdecomp --coeffs liouville --n 5000 --format json"),
            _cmd("sieve-3e5", "sieve --n 300000 --format csv"),
        ),
    ),
    "quadrature": Workload(
        10**6,
        (
            _cmd("lemma", "lemma --envelope 5 --format json"),
            _cmd("difference-mu", "identity difference --coeffs mu --n 10 --truncation 1000000 --format json"),
            _cmd(
                "difference-seeded",
                "identity difference --coeffs {summable_coeffs} --n 30 --truncation 100000 --format json",
                fixed=False,
            ),
        ),
    ),
}


# -- seeded inputs ------------------------------------------------------


def _unit(rng: random.Random) -> list[float]:
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return [math.cos(angle), math.sin(angle)]


def _primes_below(n: int) -> list[int]:
    return [p for p in range(2, n) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def mean_spec(rng: random.Random) -> dict:
    """Unit-modulus f(p) for p < 1000, default -1, cutoff 1e6."""
    primes = {str(p): _unit(rng) for p in _primes_below(1000)}
    return {"type": "completely_multiplicative", "cutoff": 10**6, "default": [-1.0, 0.0], "primes": primes}


def unit_coeffs(rng: random.Random) -> dict:
    """60,000 unit-modulus coefficients."""
    return {"type": "coefficients", "values": [_unit(rng) for _ in range(60_000)]}


def summable_coeffs(rng: random.Random) -> dict:
    """a_k = z_k / k^2 with |z_k| = 1, k <= 1e5."""
    return {
        "type": "coefficients",
        "values": [[c / (k * k) for c in _unit(rng)] for k in range(1, 100_001)],
    }


GENERATORS = {"mean_spec": mean_spec, "unit_coeffs": unit_coeffs, "summable_coeffs": summable_coeffs}


def seeded_inputs(workload: Workload, seed: int, directory: str) -> dict[str, str]:
    """Write the workload's seeded files; returns placeholder -> path."""
    paths = {}
    for name, generate in GENERATORS.items():
        if any("{%s}" % name in arg for c in workload.commands for arg in c.argv):
            path = os.path.join(directory, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(generate(random.Random(f"{name}:{seed}")), fh)
            paths[name] = path
    return paths


# -- children -----------------------------------------------------------


def child_env() -> dict[str, str]:
    """The environment without INGHAMSUM_* (every CLI flag reads one),
    with the program imported from the checkout's src."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("INGHAMSUM_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


@dataclass
class ChildResult:
    status: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def run_child(argv: list[str], log_path: str) -> ChildResult:
    """Run one child to completion, with its own rusage from wait4."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        _, wait_status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    return ChildResult(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


SETUP_CODE = "import sys, inghamsum; inghamsum.build_sieve(int(sys.argv[1])).mobius_array"


def measure_setup(workload: Workload, log_path: str) -> list[ChildResult]:
    runs = []
    start = time.perf_counter()
    while len(runs) < SETUP_MIN_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
        runs.append(run_child([sys.executable, "-c", SETUP_CODE, str(workload.setup_n)], log_path))
    return runs


def _argv(cmd: Command, inputs: dict[str, str]) -> list[str]:
    return [arg.format(**inputs) for arg in cmd.argv]


# -- judging --------------------------------------------------------------


def _digest(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            digest = hashlib.sha256()
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
            return digest.hexdigest()
    except FileNotFoundError:
        return None


def judge(cmd: Command, status: int, artifact: str) -> list[str]:
    """check.judge on one artifact, run in a separate process."""
    if status != 0:
        return [f"exit status {status}"]
    argv = [sys.executable, os.path.join(ROOT, "perfbench", "check.py"), "--judge", artifact, "--format", cmd.fmt]
    if cmd.fixed:
        argv += ["--reference", cmd.id]
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True)
    if proc.returncode != 0:
        return [f"judge failed: {proc.stderr.strip()[-300:]}"]
    return json.loads(proc.stdout)


class Gate:
    """Counts commands and failures; the first artifact of each command
    is judged in full, later ones must repeat its bytes."""

    def __init__(self):
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, cmd: Command, status: int, artifact: str) -> bool:
        self.attempted += 1
        digest = _digest(artifact) if status == 0 else None
        if cmd.id not in self.first or digest is None:
            problems = judge(cmd, status, artifact)
            if not problems:
                self.first[cmd.id] = digest
        elif digest != self.first[cmd.id]:
            problems = ["artifact bytes differ from the first run of this command"]
        else:
            problems = []
        if problems:
            self.failed += 1
            self.problems.append(f"{cmd.id}: " + "; ".join(problems[:5]))
        return not problems


# -- statistics -----------------------------------------------------------


def tail_percentile(samples: list[float]):
    """(p, value) for the highest whole percentile with at least ten
    samples above it, or None when there are too few samples."""
    n = len(samples)
    p = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if p <= 50:
        return None
    ordered = sorted(samples)
    return p, ordered[max(0, math.ceil(p / 100 * n) - 1)]


def summarize(samples: list[float], unit: str) -> dict:
    out = {"value": statistics.median(samples), "unit": unit, "samples": len(samples),
           "min": min(samples), "max": max(samples)}
    tail = tail_percentile(samples)
    if tail is not None:
        out[f"p{tail[0]}"] = tail[1]
    return out


# -- machine facts ---------------------------------------------------------


NUMPY_FACTS = """
import json, numpy as np
try:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
except (AttributeError, KeyError, TypeError):
    blas = None
print(json.dumps({"numpy": np.__version__, "blas": blas}))
"""


def machine_facts(seed: int) -> dict:
    model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = res.stdout.strip() or None
    numpy = subprocess.run([sys.executable, "-c", NUMPY_FACTS], env=child_env(), capture_output=True, text=True)
    return {
        "seed": seed,
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        **(json.loads(numpy.stdout) if numpy.returncode == 0 else {"numpy": None, "blas": None}),
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# -- the two modes -----------------------------------------------------------


def run_untraced(workload: Workload, inputs: dict, work: str, seconds: float):
    log = os.path.join(work, "children.log")
    gate = Gate()
    setups = measure_setup(workload, log)
    setup_ok = all(s.status == 0 for s in setups)
    if not setup_ok:
        gate.problems.append("set-up probe failed")
    passes = []
    per_command = {c.id: [] for c in workload.commands}
    start = time.perf_counter()
    while True:
        results = []
        for cmd in workload.commands:
            out = os.path.join(work, f"{cmd.id}.out")
            if os.path.exists(out):
                os.remove(out)
            res = run_child([sys.executable, "-m", "inghamsum.cli", *_argv(cmd, inputs), "--out", out], log)
            gate.record(cmd, res.status, out)
            per_command[cmd.id].append(res)
            results.append(res)
        passes.append(results)
        if time.perf_counter() - start >= seconds:
            break
    metrics = {
        "wall_s": summarize([sum(r.wall_s for r in p) for p in passes], "s"),
        "cpu_s": summarize([sum(r.cpu_s for r in p) for p in passes], "s"),
        "peak_rss_mb": summarize([max(r.rss_mb for r in p) for p in passes], "MB"),
        "setup_s": summarize([s.wall_s for s in setups], "s"),
    }
    detail = {
        "metrics": metrics,
        "command_wall_s": {k: summarize([r.wall_s for r in v], "s") for k, v in per_command.items()},
        "command_rss_mb": {k: summarize([r.rss_mb for r in v], "MB") for k, v in per_command.items()},
        "passes": len(passes),
    }
    return gate, setup_ok, metrics, detail


def _traced_run(cmd: Command, inputs: dict, work: str, tag: str):
    """One command through tracer.py; traced unless tag is "plain"."""
    artifact = os.path.join(work, f"{cmd.id}.{tag}.out")
    result_path = os.path.join(work, f"{cmd.id}.{tag}.json")
    argv = [sys.executable, os.path.join(ROOT, "perfbench", "tracer.py"), "--result", result_path]
    if tag != "plain":
        argv.append("--trace")
    child = run_child([*argv, "--", *_argv(cmd, inputs), "--out", artifact], os.path.join(work, "children.log"))
    summary = None
    if child.status == 0 and os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as fh:
            summary = json.load(fh)
    status = summary["status"] if summary else child.status or 1
    return cmd, status, artifact, summary


def run_traced(workload: Workload, inputs: dict, work: str):
    # The three runs of a command go back to back with the untraced one
    # in the middle, so neither a drift in machine speed nor a first-run
    # penalty shows up as tracing overhead.
    runs = {tag: [] for tag in ("traced1", "plain", "traced2")}
    for cmd in workload.commands:
        for tag, results in runs.items():
            results.append(_traced_run(cmd, inputs, work, tag))
    plain = runs["plain"]
    traced = [runs["traced1"], runs["traced2"]]
    gate = Gate()
    for run_ in (plain, *traced):
        for cmd, status, data, _ in run_:
            gate.record(cmd, status, data)
    counters_repeat = True
    layers = {k: [] for k in tracer.LAYER_METRICS}
    for run_ in traced:
        totals = {k: 0 for k in tracer.LAYER_METRICS}
        for _, _, _, summary in run_:
            if summary and "layers" in summary:
                for k, v in summary["layers"].items():
                    totals[k] += v
                totals["cli.import_s"] += summary["import_s"]
        for k, v in totals.items():
            layers[k].append(v)
    for (cmd, _, _, first), (_, _, _, second) in zip(*traced):
        for k in tracer.COUNTERS:
            if first and second and first["layers"][k] != second["layers"][k]:
                counters_repeat = False
                gate.problems.append(f"{cmd.id}: counter {k} differs between traced runs")
    plain_s = sum(s["main_s"] for *_, s in plain if s)
    traced_s = statistics.mean(sum(s["main_s"] for *_, s in r if s) for r in traced)
    metrics = {}
    for k, unit in tracer.LAYER_METRICS.items():
        value = layers[k][0] if k in tracer.COUNTERS else statistics.mean(layers[k])
        metrics[k] = {"value": value, "unit": unit}
    calls = metrics["quadrature.calls"]["value"]
    metrics["quadrature.evals_per_call"]["value"] = metrics["quadrature.evals"]["value"] / calls if calls else 0.0
    metrics["trace.overhead_pct"]["value"] = 100.0 * (traced_s - plain_s) / plain_s if plain_s else 0.0
    detail = {
        "untraced_main_s": plain_s,
        "traced_main_s": [sum(s["main_s"] for *_, s in r if s) for r in traced],
        "counters_repeat": counters_repeat,
        "traced_runs": 2,
    }
    return gate, counters_repeat, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="inghamsum CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    started = time.perf_counter()

    needed = [os.path.join(ROOT, "src", "inghamsum", "cli.py"), os.path.join(ROOT, "tests", "data", "f2zero.json")]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        print(f"not a source checkout of inghamsum: missing {', '.join(missing)}", file=sys.stderr)
        return 2

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        inputs = seeded_inputs(workload, args.seed, work)
        if args.trace:
            gate, ok, metrics, detail = run_traced(workload, inputs, work)
        else:
            gate, ok, metrics, detail = run_untraced(workload, inputs, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:  # another run's directory is still there
            pass
    for problem in gate.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    detail.update(
        workload=args.workload,
        trace=args.trace,
        failed_ratio={"value": gate.failed / gate.attempted, "unit": "fraction", "samples": gate.attempted},
        problems=gate.problems,
        machine=machine_facts(args.seed),
        run_s=time.perf_counter() - started,
    )
    print(json.dumps(detail))
    result = {
        "correct": ok and gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
