"""Self-time arithmetic, cross-thread spans and the entry-point wrapping."""

import os
import sys
import threading
import time

import pytest

import tracer
from tracer import Tracer, block_count, layer_times

sys.path.insert(0, os.path.join(tracer.ROOT, "src"))


def _blocks_by_loop(n):
    blocks, k = 0, 1
    while k <= n:
        k = n // (n // k) + 1
        blocks += 1
    return blocks


def test_block_count_matches_the_block_loop():
    for n in [*range(1, 3000), 999_999, 10**6, 10**6 + 1]:
        assert block_count(n) == _blocks_by_loop(n), n


def test_self_time_subtracts_nested_children():
    spans = [
        ("a", "outer", 0.0, 10.0, None),
        ("b", "mid", 1.0, 4.0, "a"),
        ("c", "inner", 2.0, 3.0, "b"),
        ("d", "inner", 5.0, 6.0, "a"),
    ]
    own, whole = layer_times(spans)
    assert own == {"outer": 6.0, "mid": 2.0, "inner": 2.0}
    assert whole["outer"] == 10.0


def test_cross_thread_children_are_a_union_not_a_sum():
    spans = [
        ("p", "batch", 0.0, 10.0, None),
        ("x", "block", 1.0, 6.0, "p"),  # pool thread 1
        ("y", "block", 4.0, 8.0, "p"),  # pool thread 2, overlapping
    ]
    own, _ = layer_times(spans)
    assert own["batch"] == 3.0
    assert own["block"] == 7.0


def test_same_metric_recursion_counts_once():
    spans = [("a", "quad", 0.0, 10.0, None), ("b", "quad", 2.0, 5.0, "a")]
    own, whole = layer_times(spans)
    assert own["quad"] == 10.0 and whole["quad"] == 10.0


def test_spans_on_pool_threads_hang_off_the_root_span():
    tr = Tracer()
    leaf = tr.wrap(lambda: time.sleep(0.05), "leaf")

    def fan_out():
        threads = [threading.Thread(target=leaf) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)

    tr.wrap(fan_out, "root")()
    spans = tr.spans()
    root_key = next(s[0] for s in spans if s[1] == "root")
    assert [s[4] for s in spans if s[1] == "leaf"] == [root_key, root_key]
    own, whole = layer_times(spans)
    assert own["leaf"] < 0.1  # the two sleeps overlap
    assert own["root"] < whole["root"] - 0.04


@pytest.fixture
def traced_package():
    import inghamsum

    tr = Tracer()
    tr.install(inghamsum)
    try:
        yield tr
    finally:
        tr.uninstall()


def test_verify_bindings_bill_block_sums_to_summation(traced_package, tmp_path):
    import inghamsum.cli as cli

    out = tmp_path / "sdiff.json"
    assert cli.main(["identity", "sdiff", "--coeffs", "mu", "--n", "3000", "--format", "json", "--out", str(out)]) == 0
    m = tracer.layer_metrics(traced_package)
    assert m["summation.queries"] == 3000
    assert m["summation.blocks"] == sum(block_count(n) for n in range(1, 3001))
    assert m["sequences.lattice_passes"] == 1
    assert m["summation.block_s"] > m["verify.self_s"]
    assert m["verify.s"] >= m["verify.self_s"] + m["summation.block_s"] - 1e-9


def test_lazy_tables_are_timed_only_when_built(traced_package):
    import inghamsum

    table = inghamsum.build_sieve(1000)
    table.mobius_array
    table.mobius_array
    table.psi_prefix
    metrics = [s[1] for s in traced_package.spans()]
    assert metrics.count("sieve.mobius_s") == 1
    assert metrics.count("sieve.psi_s") == metrics.count("sieve.mangoldt_s") == 1
    assert tracer.layer_metrics(traced_package)["sieve.builds"] == 1


def test_uninstall_restores_every_binding():
    import inghamsum
    import inghamsum.verify as verify
    from inghamsum.sieve import SieveTable

    def bindings():
        return verify._block_sum, inghamsum.build_sieve, SieveTable.__dict__["mobius_array"]

    before = bindings()
    tr = Tracer()
    tr.install(inghamsum)
    assert all(a is not b for a, b in zip(bindings(), before))
    tr.uninstall()
    assert bindings() == before


def test_traced_artifacts_are_byte_identical(tmp_path):
    argv = ["verify", "theorem2", "--coeffs", "mu", "--n", "1e2:1e4:x10", "--format", "json", "--out"]
    plain = tracer.run_command(argv + [str(tmp_path / "plain")], trace=False)
    traced = tracer.run_command(argv + [str(tmp_path / "traced")], trace=True)
    assert plain["status"] == traced["status"] == 0
    assert (tmp_path / "plain").read_bytes() == (tmp_path / "traced").read_bytes()
    assert traced["layers"]["dirichlet.g_eval_s"] > 0
