"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines. Expected values tagged as derived were recomputed with
independent oracles (trial division, brute-force matrix products,
closed forms, scipy quadrature) before being frozen here.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import inghamsum as ig
from inghamsum.cli import main as cli_main
from inghamsum.sequences import log_index, sum_over_divisors

from conftest import floor_matrix, random_unit_complex

GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).parent / "data"

ZETA3 = 1.2020569031595943


class Stopwatch:
    def __init__(self, budget_s: float):
        self.budget = budget_s
        self.start = time.perf_counter()

    def done(self) -> float:
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.budget, f"runtime {elapsed:.1f}s exceeds {self.budget}s"
        return elapsed


def report(num: int, name: str, elapsed: float, detail: str) -> None:
    print(f"criterion {num:2d} ({name}): PASS in {elapsed:.1f}s -- {detail}")


@pytest.fixture(scope="module")
def mu_big(table_big):
    return ig.named_sequence("mu", 10**6, table_big)


def test_criterion_01_mobius_machinery(table_big, rng):
    watch = Stopwatch(10.0)
    # Fundamental identity, exhaustively to 1e4, via divisor enumeration.
    table = ig.build_sieve(10_000)
    for m in range(1, 10_001):
        total = sum(table.mobius(d) for d in table.divisors(m))
        assert total == (1 if m == 1 else 0)
    # Round trips on 100 random complex sequences of length 2048.
    worst = 0.0
    for _ in range(100):
        vals = rng.standard_normal(2048) + 1j * rng.standard_normal(2048)
        seq = ig.CoefficientSequence.from_values(vals)
        back = ig.a_from_f(table, ig.f_from_a(table, seq))
        scale = max(1.0, np.abs(vals).max())
        worst = max(worst, np.abs(back.values() - vals).max() / scale)
    assert worst <= 1e-12
    elapsed = watch.done()
    report(1, "mobius machinery", elapsed, f"round-trip max rel err {worst:.2e}")


def test_criterion_02_mu_cross_identities(table_medium):
    watch = Stopwatch(30.0)
    n_max = 10**5
    mu = ig.named_sequence("mu", n_max, table_medium)
    A, S = ig.cumulative_sums(mu)
    assert np.all(A[1:] == 1.0 + 0j), "A(n) must equal 1 exactly"
    psi = table_medium.psi_prefix[: n_max + 1]
    bound = 1e-9 * np.maximum(1.0, psi[1:])
    err = np.abs(S[1:].real + psi[1:])
    assert np.all(err <= bound)
    # Cross-check the dense sweep against block-decomposed queries.
    rng = np.random.default_rng(11)
    for n in rng.integers(1, n_max, size=200).tolist():
        assert ig.ingham_A(mu, n) == 1.0 + 0j
        assert abs(ig.ingham_S(mu, n) - S[n]) <= 1e-9 * max(1.0, abs(S[n]))
    elapsed = watch.done()
    report(2, "mu cross-identities", elapsed, f"max |S+Psi| slack {err.max():.2e}")


def test_criterion_03_mu_over_d_bound(table_big):
    watch = Stopwatch(10.0)
    d = np.arange(10**6 + 1, dtype=np.float64)
    d[0] = 1.0
    prefix = np.cumsum(table_big.mobius_array / d)
    worst = np.abs(prefix[1:]).max()
    assert worst <= 1.0
    rng = np.random.default_rng(5)
    for x in rng.integers(1, 10**6, size=100).tolist():
        assert table_big.mu_over_d_partial(x) == pytest.approx(prefix[x], abs=1e-12)
    elapsed = watch.done()
    report(3, "partial mu/d bound", elapsed, f"sup |sum| = {worst:.6f} <= 1")


def test_criterion_04_block_decomposition_oracle(rng):
    watch = Stopwatch(60.0)
    n = 2000
    M = floor_matrix(n)
    logk = np.log(np.arange(1, n + 1))
    worst = 0.0
    for _ in range(50):
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        seq = ig.CoefficientSequence.from_values(vals)
        naive_A = M @ vals
        naive_S = M @ (vals * logk)
        out = ig.batch_sums(seq, range(1, n + 1))
        for i, v in enumerate(out):
            ea = abs(v.A - naive_A[i]) / max(1.0, abs(naive_A[i]))
            es = abs(v.S - naive_S[i]) / max(1.0, abs(naive_S[i]))
            worst = max(worst, ea, es)
    assert worst <= 1e-10
    elapsed = watch.done()
    report(4, "block-decomposition oracle", elapsed, f"max rel err {worst:.2e}")


def test_criterion_05_wintner(table_small):
    watch = Stopwatch(1.0)
    inv = ig.named_sequence("inverse-squares", 10**4, table_small)
    res = ig.check_wintner(inv, 10**4)
    err = abs(res.mean.real - ZETA3)
    assert err <= 3e-4
    assert abs(ig.zeta_real(3.0) - 1.2020569) <= 1e-7
    elapsed = watch.done()
    report(5, "wintner check", elapsed, f"|A(n)/n - zeta(3)| = {err:.2e}")


def test_criterion_06_theorem1_trend(table_big):
    watch = Stopwatch(60.0)
    spec = ig.MultiplicativeSpec({2: 0}, cutoff=10**6)
    f = ig.extend_completely_multiplicative(spec, table_big, 10**6)
    seq = ig.a_from_f(table_big, f)
    residuals = []
    for n in (10**3, 10**4, 10**5, 10**6):
        r = ig.theorem1_residual(seq, n, spec=spec, table=table_big)
        assert r <= 0.6 / math.log(n)
        # Closed form: |ceil(n/2)/n - (1 - 2^(-1-1/log n))|.
        sigma = 1.0 + 1.0 / math.log(n)
        assert r == pytest.approx(
            abs(math.ceil(n / 2) / n - (1.0 - 2.0 ** -sigma)), abs=1e-12
        )
        residuals.append(r)
    assert all(b <= a for a, b in zip(residuals, residuals[1:]))
    elapsed = watch.done()
    report(6, "theorem-1 trend", elapsed, f"residuals {[f'{r:.4f}' for r in residuals]}")


def test_criterion_07_theorem3_even_zero(table_big):
    watch = Stopwatch(30.0)
    spec = ig.MultiplicativeSpec({2: 0}, cutoff=10**6)
    res = ig.theorem3_check(spec, table_big, 10**6, 2.0)
    assert res.product == 0.5 + 0j
    assert res.residual <= 1e-3
    # Single-prime formula ((1/log n) |f(2)-1|^2 log(2)/2)^(1/2); the
    # recomputed oracle value is 0.1583847.
    expected = math.sqrt(math.log(2) / 2 / math.log(10**6))
    assert res.mu == pytest.approx(expected, abs=1e-9)
    assert res.mu == pytest.approx(0.1583847, abs=1e-4)
    elapsed = watch.done()
    report(7, "theorem-3 even-zero", elapsed, f"residual {res.residual:.1e}, mu {res.mu:.5f}")


def test_criterion_08_liouville_closed_forms(table_big):
    watch = Stopwatch(30.0)
    spec = ig.MultiplicativeSpec(cutoff=10**6, default=-1.0)
    prod = ig.euler_product(spec, table_big, 2.0, 10**6)
    assert prod.real == pytest.approx(0.4, abs=1e-5)
    lam = ig.named_sequence("liouville", 10**6, table_big)
    g = ig.g_eval(lam, 2.0, 10**6)
    target = ig.zeta_real(4.0) / ig.zeta_real(2.0)
    assert target == pytest.approx(0.6579736, abs=1e-6)
    assert abs(g.real - target) <= 2e-3
    elapsed = watch.done()
    report(
        8,
        "liouville closed forms",
        elapsed,
        f"product {prod.real:.6f}, series {g.real:.6f}",
    )


def test_criterion_09_exact_identity_suites(table_small, rng):
    watch = Stopwatch(60.0)
    worst_diff = worst_decomp = worst_mult = 0.0
    for _ in range(20):
        vals = random_unit_complex(rng, 10**4)
        seq = ig.CoefficientSequence.from_values(vals)
        err = ig.s_difference_identity(seq, table_small, 10**4)
        scale = max(1.0, float(np.abs(seq.prefix_alog).max()))
        worst_diff = max(worst_diff, err / scale)
    for _ in range(20):
        vals = random_unit_complex(rng, 10**3)
        seq = ig.CoefficientSequence.from_values(vals)
        err = ig.s_decomposition_identity(seq, table_small, 10**3)
        worst_decomp = max(worst_decomp, err / (10**3 * math.log(10**3)))
    primes = [2, 3, 5, 7, 11, 13]
    for _ in range(20):
        values = {p: complex(z) for p, z in zip(primes, random_unit_complex(rng, 6))}
        spec = ig.MultiplicativeSpec(values, cutoff=500)
        err = ig.s_multiplicative_identity(spec, table_small, 500)
        worst_mult = max(worst_mult, err / (500 * math.log(500)))
    assert worst_diff <= 1e-8
    assert worst_decomp <= 1e-8
    assert worst_mult <= 1e-8
    elapsed = watch.done()
    report(
        9,
        "exact identity suites",
        elapsed,
        f"rel errs: sdiff {worst_diff:.1e}, sdecomp {worst_decomp:.1e}, smult {worst_mult:.1e}",
    )


def test_criterion_10_difference_identity(table_big, mu_big):
    watch = Stopwatch(300.0)
    K = 10**6
    rng = np.random.default_rng(20260808)
    z = random_unit_complex(rng, K)
    cases = {
        "unit": ig.named_sequence("unit", K, table_big),
        "mu-prefix": mu_big,
        "random-summable": ig.CoefficientSequence.from_values(
            z / np.arange(1, K + 1) ** 2
        ),
    }
    details = []
    for name, seq in cases.items():
        d = sum_over_divisors(seq.a * log_index(K))
        s = np.cumsum(d)
        for n in (5, 10, 20):
            res = ig.difference_identity_check(
                seq, table_big, n, K, quad_tol=1e-8, tail_tol=1e-10, s_values=s, d_values=d
            )
            assert res.error <= 1e-5, f"{name} at n={n}: {res.error:.2e}"
            details.append(f"{name[:6]}@{n}:{res.error:.1e}")
    elapsed = watch.done()
    report(10, "difference identity", elapsed, " ".join(details))


def test_criterion_11_lemma_ratio_envelope(table_big):
    watch = Stopwatch(300.0)
    rows = ig.lemma_ratio_suite(table_big)
    assert all(r["pass"] for r in rows)
    suprema = {}
    for r in rows:
        suprema[r["family"]] = max(suprema.get(r["family"], 0.0), r["ratio"])
    assert max(suprema.values()) <= 5.0
    # Oracle-run suprema, frozen 2026-08: sum_ft_over_m 0.9994,
    # partial_sums 0.0241, mu_log_identity 0.5819, doubling 0.2834,
    # integrated_comparison 0.0082.
    elapsed = watch.done()
    report(
        11,
        "estimate-family envelope",
        elapsed,
        " ".join(f"{k}={v:.4f}" for k, v in suprema.items()),
    )


def test_criterion_12_cli_determinism(tmp_path):
    watch = Stopwatch(30.0)
    commands = {
        "mean_liouville.csv": [
            "mean", "--spec", str(DATA / "liouville.json"), "--n", "1000000",
            "--format", "csv",
        ],
        "ingham_mu.csv": [
            "ingham", "--coeffs", "mu", "--n", "10,100,1000", "--format", "csv",
        ],
        "verify_theorem1_f2zero.json": [
            "verify", "theorem1", "--spec", str(DATA / "f2zero.json"),
            "--grid", "1e3:1e6:x10", "--format", "json",
        ],
    }
    for name, cmd in commands.items():
        first = tmp_path / ("a_" + name)
        second = tmp_path / ("b_" + name)
        assert cli_main(cmd + ["--out", str(first)]) == 0
        assert cli_main(cmd + ["--out", str(second)]) == 0
        payload = first.read_bytes()
        assert payload == second.read_bytes(), f"{name}: runs differ"
        assert payload == (GOLDEN / name).read_bytes(), f"{name}: golden mismatch"
    elapsed = watch.done()
    report(12, "cli determinism", elapsed, "3 commands, double-run + golden")
