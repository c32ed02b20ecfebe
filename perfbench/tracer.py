"""Per-layer tracing for the benchmark, kept outside the program.

The tracer swaps each layer entry point of ``inghamsum`` for a wrapper
that records a span (metric, thread, start, end, parent) and the layer's
counters. A module that imported a function by name holds its own
binding (``verify`` imports ``_block_sum``, ``csum`` and ``rsum``), so
every ``inghamsum`` module that binds an entry point gets the wrapper;
otherwise the work would be billed to the caller. Lazy ``SieveTable``
tables are timed only on the access that builds them. Per-element
methods such as ``MultiplicativeSpec.value_at`` are not wrapped.

Spans and counters are kept per thread (``batch_sums`` runs block sums
on pool threads). A span opened on a thread with no open span of its
own is a child of the innermost open span of the thread that installed
the tracer. A metric's time is the length of the union of its spans'
self intervals: a span's interval minus the part its children cover,
so concurrent or nested spans are never counted twice.

Run as a script it executes one CLI command in a fresh process,
optionally traced, and writes a JSON summary:

    python3 perfbench/tracer.py --result OUT.json [--trace] -- ARGS...
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import threading
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS = {
    "sieve.build_s": "s",
    "sieve.builds": "count",
    "sieve.mobius_s": "s",
    "sieve.mangoldt_s": "s",
    "sieve.psi_s": "s",
    "sequences.lattice_s": "s",
    "sequences.lattice_passes": "count",
    "sequences.lattice_slices": "count",
    "sequences.extend_s": "s",
    "sequences.build_s": "s",
    "summation.block_s": "s",
    "summation.queries": "count",
    "summation.blocks": "count",
    "dirichlet.g_eval_s": "s",
    "dirichlet.euler_s": "s",
    "dirichlet.euler_calls": "count",
    "dirichlet.ft_partial_s": "s",
    "dirichlet.ft_partial_calls": "count",
    "dirichlet.ft_table_s": "s",
    "dirichlet.zeta_s": "s",
    "dirichlet.zeta_calls": "count",
    "dirichlet.other_s": "s",
    "quadrature.s": "s",
    "quadrature.calls": "count",
    "quadrature.evals": "count",
    "quadrature.depth_hits": "count",
    "quadrature.evals_per_call": "evals/call",
    "accumulate.s": "s",
    "accumulate.calls": "count",
    "accumulate.terms": "count",
    "report.serialize_s": "s",
    "report.bytes": "bytes",
    "verify.s": "s",
    "verify.self_s": "s",
    "cli.self_s": "s",
    "cli.import_s": "s",
    "trace.overhead_pct": "%",
}

# Counters that repeat exactly between two traced runs of one command.
COUNTERS = tuple(k for k, unit in LAYER_METRICS.items() if unit in ("count", "bytes"))


def block_count(n: int) -> int:
    """Number of maximal k-blocks with floor(n/k) constant, 1 <= k <= n."""
    if n < 1:
        return 0
    r = math.isqrt(n)
    return 2 * r - (1 if r * (r + 1) > n else 0)


def _length(values) -> int:
    size = getattr(values, "size", None)
    return int(size) if size is not None else len(values)


# -- counters: (counts, result, args) -> None --------------------------


def _count_builds(c, result, args):
    c["sieve.builds"] += 1


def _count_divisor_pass(c, result, args):
    import numpy as np

    values = np.asarray(args[0])
    c["sequences.lattice_passes"] += 1
    c["sequences.lattice_slices"] += int(np.count_nonzero(values[1:]))


def _count_mobius_pass(c, result, args):
    import numpy as np

    table, f = args[0], args[1]
    c["sequences.lattice_passes"] += 1
    c["sequences.lattice_slices"] += int(np.count_nonzero(table.mobius_array[1 : len(f)]))


def _count_block(c, result, args):
    c["summation.queries"] += 1
    c["summation.blocks"] += block_count(int(args[1]))


def _counter(name):
    def count(c, result, args):
        c[name] += 1

    return count


def _count_quad(c, result, args):
    c["quadrature.calls"] += 1
    c["quadrature.evals"] += result.evals
    c["quadrature.depth_hits"] += result.depth_hits


def _count_sum(c, result, args):
    c["accumulate.calls"] += 1
    c["accumulate.terms"] += _length(args[0])


def _count_bytes(c, result, args):
    c["report.bytes"] += len(result)


# (module, function name, span metric, counter). Self times go to the
# span metric; cli.main is the root span of every command.
ENTRY_POINTS = (
    ("sieve", "build_sieve", "sieve.build_s", _count_builds),
    ("sequences", "sum_over_divisors", "sequences.lattice_s", _count_divisor_pass),
    ("sequences", "a_from_f", "sequences.lattice_s", _count_mobius_pass),
    ("sequences", "f_from_a", "sequences.lattice_s", None),
    ("sequences", "extend_completely_multiplicative", "sequences.extend_s", None),
    ("sequences", "named_sequence", "sequences.build_s", None),
    ("summation", "_block_sum", "summation.block_s", _count_block),
    ("summation", "ingham_A", "summation.block_s", None),
    ("summation", "ingham_S", "summation.block_s", None),
    ("summation", "batch_sums", "summation.block_s", None),
    ("dirichlet", "g_eval", "dirichlet.g_eval_s", None),
    ("dirichlet", "euler_product", "dirichlet.euler_s", _counter("dirichlet.euler_calls")),
    ("dirichlet", "ft_partial_sum", "dirichlet.ft_partial_s", _counter("dirichlet.ft_partial_calls")),
    ("dirichlet", "f_t_table", "dirichlet.ft_table_s", None),
    ("dirichlet", "zeta_real", "dirichlet.zeta_s", _counter("dirichlet.zeta_calls")),
    ("dirichlet", "zeta_tail", "dirichlet.zeta_s", _counter("dirichlet.zeta_calls")),
    ("dirichlet", "mu_n_alpha", "dirichlet.other_s", None),
    ("dirichlet", "_prime_deviation_sum", "dirichlet.other_s", None),
    ("dirichlet", "l_t", "dirichlet.other_s", None),
    ("quadrature", "adaptive_simpson", "quadrature.s", _count_quad),
    ("quadrature", "integral_zero_to_inf", "quadrature.s", None),
    ("quadrature", "integral_sigma_to_inf", "quadrature.s", None),
    ("accumulate", "rsum", "accumulate.s", _count_sum),
    ("accumulate", "csum", "accumulate.s", _count_sum),
    ("report", "canonical_json_bytes", "report.serialize_s", _count_bytes),
    ("report", "csv_bytes", "report.serialize_s", _count_bytes),
    ("verify", "theorem1_residual", "verify.self_s", None),
    ("verify", "theorem2_conditions", "verify.self_s", None),
    ("verify", "theorem3_check", "verify.self_s", None),
    ("verify", "cond1_ratio", "verify.self_s", None),
    ("verify", "cond2_ratio", "verify.self_s", None),
    ("verify", "check_wintner", "verify.self_s", None),
    ("verify", "check_axer", "verify.self_s", None),
    ("verify", "s_difference_identity", "verify.self_s", None),
    ("verify", "s_decomposition_identity", "verify.self_s", None),
    ("verify", "s_multiplicative_identity", "verify.self_s", None),
    ("verify", "difference_identity_check", "verify.self_s", None),
    ("verify", "lemma_ratio_suite", "verify.self_s", None),
    ("cli", "main", "cli.self_s", None),
)

# (module, class, method or classmethod, span metric)
CLASS_ENTRY_POINTS = (
    ("sequences", "CoefficientSequence", "from_values", "sequences.build_s"),
    ("sequences", "CoefficientSequence", "from_index_aligned", "sequences.build_s"),
    ("report", "VerificationReport", "to_json_bytes", "report.serialize_s"),
    ("report", "VerificationReport", "to_csv_bytes", "report.serialize_s"),
)

# Lazy SieveTable tables: (property, cache slot, span metric).
LAZY_TABLES = (
    ("mobius_array", "_mobius_arr", "sieve.mobius_s"),
    ("mangoldt_array", "_mangoldt_arr", "sieve.mangoldt_s"),
    ("psi_prefix", "_psi_prefix", "sieve.psi_s"),
)


class _ThreadLog:
    __slots__ = ("index", "spans", "stack", "counts")

    def __init__(self, index: int):
        self.index = index
        self.spans: list[list] = []  # [metric, start, end, parent key]
        self.stack: list[tuple[int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)


class Tracer:
    """Records spans and counters of wrapped callables, per thread."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []
        self._undo: list[tuple[object, str, object]] = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            with self._lock:
                log = _ThreadLog(len(self._logs))
                self._logs.append(log)
            self._local.log = log
        return log

    def _open(self, metric: str):
        log = self._log()
        if log.stack:
            parent = log.stack[-1]
        else:
            root = self._logs[0].stack if log.index else ()
            parent = root[-1] if root else None
        span = [metric, time.perf_counter(), None, parent]
        log.stack.append((log.index, len(log.spans)))
        log.spans.append(span)
        return log, span

    @staticmethod
    def _close(log: _ThreadLog, span: list) -> None:
        span[2] = time.perf_counter()
        log.stack.pop()

    def wrap(self, fn, metric: str, count=None):
        """A callable that behaves like ``fn`` and records a span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log, span = self._open(metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(log, span)
            if count is not None:
                count(log.counts, result, args)
            return result

        return traced

    def _lazy(self, prop: property, slot: str, metric: str) -> property:
        def fget(table):
            if getattr(table, slot) is not None:
                return prop.fget(table)
            log, span = self._open(metric)
            try:
                return prop.fget(table)
            finally:
                self._close(log, span)

        return property(fget, doc=prop.__doc__)

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self, package) -> None:
        """Wrap the entry points wherever a module of ``package`` binds them."""
        import importlib

        prefix = package.__name__
        wrappers = {}
        for mod_name, fn_name, metric, count in ENTRY_POINTS:
            fn = getattr(importlib.import_module(f"{prefix}.{mod_name}"), fn_name)
            wrappers[id(fn)] = (fn, self.wrap(fn, metric, count))
        modules = [m for n, m in sorted(sys.modules.items()) if m is not None and (n == prefix or n.startswith(prefix + "."))]
        for module in modules:
            for name, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, name, hit[1])
        for mod_name, cls_name, meth, metric in CLASS_ENTRY_POINTS:
            cls = getattr(importlib.import_module(f"{prefix}.{mod_name}"), cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                self._set(cls, meth, classmethod(self.wrap(raw.__func__, metric)))
            else:
                self._set(cls, meth, self.wrap(raw, metric))
        table_cls = importlib.import_module(f"{prefix}.sieve").SieveTable
        for prop, slot, metric in LAZY_TABLES:
            self._set(table_cls, prop, self._lazy(table_cls.__dict__[prop], slot, metric))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def spans(self) -> list[tuple]:
        """Closed spans as (key, metric, start, end, parent key)."""
        out = []
        for log in self._logs:
            for i, (metric, start, end, parent) in enumerate(log.spans):
                if end is not None:
                    out.append(((log.index, i), metric, start, end, parent))
        return out

    def counts(self) -> dict[str, int]:
        total: dict[str, int] = defaultdict(int)
        for log in self._logs:
            for k, v in log.counts.items():
                total[k] += v
        return dict(total)


# -- self-time arithmetic ----------------------------------------------


def merge(intervals) -> list[tuple[float, float]]:
    """Union of intervals as sorted, disjoint intervals."""
    out: list[list[float]] = []
    for start, end in sorted(intervals):
        if out and start <= out[-1][1]:
            out[-1][1] = max(out[-1][1], end)
        else:
            out.append([start, end])
    return [(s, e) for s, e in out]


def subtract(start: float, end: float, covered) -> list[tuple[float, float]]:
    """[start, end] minus the union of ``covered`` (clipped to it)."""
    out = []
    cursor = start
    for s, e in merge((max(s, start), min(e, end)) for s, e in covered if e > start and s < end):
        if s > cursor:
            out.append((cursor, s))
        cursor = max(cursor, e)
    if cursor < end:
        out.append((cursor, end))
    return out


def measure(intervals) -> float:
    return sum(e - s for s, e in merge(intervals))


def layer_times(spans) -> tuple[dict[str, float], dict[str, float]]:
    """Self and inclusive time per metric from (key, metric, start, end,
    parent key) spans, each the length of a union of intervals."""
    children = defaultdict(list)
    for _, _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    own = defaultdict(list)
    whole = defaultdict(list)
    for key, metric, start, end, _ in spans:
        whole[metric].append((start, end))
        own[metric].extend(subtract(start, end, children.get(key, ())))
    return (
        {m: measure(iv) for m, iv in own.items()},
        {m: measure(iv) for m, iv in whole.items()},
    )


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The traced per-layer metrics of one command (no import time or
    overhead; those are measured around it)."""
    own, whole = layer_times(tracer.spans())
    counts = tracer.counts()
    out = {}
    for name, unit in LAYER_METRICS.items():
        if unit == "s":
            out[name] = own.get(name, 0.0)
        elif name in COUNTERS:
            out[name] = counts.get(name, 0)
    out["verify.s"] = whole.get("verify.self_s", 0.0)
    return out


def run_command(argv: list[str], trace: bool) -> dict:
    """Import the CLI, run one command in this process, and time it."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    import inghamsum
    import inghamsum.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install(inghamsum)
    t1 = time.perf_counter()
    try:
        status = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        status = exc.code if isinstance(exc.code, int) else 2
    main_s = time.perf_counter() - t1
    result = {"status": status, "import_s": import_s, "main_s": main_s}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True, help="JSON summary path")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    result = run_command(command, args.trace)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
