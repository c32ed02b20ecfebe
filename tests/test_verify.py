import cmath
import math
import re

import numpy as np
import pytest

import inghamsum as ig
from inghamsum import (
    CoefficientSequence,
    MultiplicativeSpec,
    check_axer,
    check_wintner,
    cond1_ratio,
    cond2_ratio,
    difference_identity_check,
    ft_partial_sum,
    integral_zero_to_inf,
    lemma_ratio_suite,
    named_sequence,
    s_decomposition_identity,
    s_difference_identity,
    s_multiplicative_identity,
    theorem1_residual,
    theorem2_conditions,
    theorem3_check,
)
from inghamsum.accumulate import csum, rsum
from inghamsum.sequences import log_index, sum_over_divisors
from inghamsum.verify import (
    AXER_BOUND,
    BURN_IN,
    LEMMA_K_GRID,
    LEMMA_VX_GRID,
    MONOTONE_SLACK,
    S_RATIO_THRESHOLD,
    THEOREM1_ENVELOPE,
    THEOREM3_RATIO_ENVELOPE,
    _comparison_lhs,
    _difference_integral,
    mean_report,
    theorem1_report,
    theorem1_spec_report,
    theorem3_report,
)

from conftest import random_unit_complex, traced_peak, trial_primes


@pytest.fixture(scope="module")
def f2zero():
    return MultiplicativeSpec({2: 0}, cutoff=10**6)


def summable_sequence(rng, n):
    z = random_unit_complex(rng, n)
    return CoefficientSequence.from_values(z / np.arange(1, n + 1) ** 2)


# -- theorem 1 ----------------------------------------------------------


def test_theorem1_unit_is_exact(table_small):
    unit = named_sequence("unit", 5000, table_small)
    for n in (2, 10, 5000):
        assert theorem1_residual(unit, n) <= 1e-14


def test_theorem1_spec_route_matches_direct(table_medium, f2zero):
    f = ig.extend_completely_multiplicative(f2zero, table_medium, 10**5)
    seq = ig.a_from_f(table_medium, f)
    for n in (100, 10_000):
        via_spec = theorem1_residual(seq, n, spec=f2zero, table=table_medium)
        direct = theorem1_residual(seq, n)
        assert via_spec == pytest.approx(direct, abs=1e-12)


def test_theorem1_even_zero_closed_form(table_medium, f2zero):
    # Mean over m <= n of [m odd] is ceil(n/2)/n; the product side is
    # 1 - 2^(-1 - 1/log n).
    f = ig.extend_completely_multiplicative(f2zero, table_medium, 10**5)
    seq = ig.a_from_f(table_medium, f)
    for n in (1000, 10_000, 100_000):
        sigma = 1.0 + 1.0 / math.log(n)
        expected = abs(math.ceil(n / 2) / n - (1.0 - 2.0 ** -sigma))
        got = theorem1_residual(seq, n, spec=f2zero, table=table_medium)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got <= 0.6 / math.log(n)


def test_theorem1_mobius_recorded_value(table_medium):
    # Slow-convergence case: the value is recorded, not thresholded.
    mu = named_sequence("mu", 10**5, table_medium)
    got = theorem1_residual(mu, 10**4)
    assert got == pytest.approx(0.10203, abs=1e-3)


def test_theorem1_spec_report_matches_mobius_inversion(table_medium):
    # The spec route reads A(n) = sum of f(m), m <= n, off f; the oracle
    # rebuilds it from the Mobius-inverted coefficients. Measured worst
    # relative gap is 8e-14 (at n = 1e5), from the inversion's rounding.
    spec = MultiplicativeSpec(
        {2: 1j, 3: cmath.exp(0.7j), 5: -1, 7: 0.3 - 0.4j, 97: cmath.exp(2.5j)},
        cutoff=50_000,
        default=cmath.exp(2.1j),
    )
    grid = [10, 100, 1000, 10_000, 100_000]
    report = theorem1_spec_report(spec, table_medium, grid, 0.6)
    f = ig.extend_completely_multiplicative(spec, table_medium, grid[-1])
    seq = ig.a_from_f(table_medium, f)
    for row in report.rows:
        oracle = ig.ingham_A(seq, row.n) / row.n
        assert abs(row.mean - oracle) <= 1e-12 * abs(oracle)
        assert row.residual_t1 == abs(row.mean - row.g)
    # mean reports the same mean and g for the same spec.
    means = mean_report(spec, table_medium, grid, 2.0)
    for t1, mv in zip(report.rows, means.rows):
        assert (t1.mean, t1.g) == (mv.mean, mv.g)


def test_theorem1_report_rows_match_residual_route(table_medium):
    # The report forms A(n) once per n; the rows must equal those of
    # one ingham_A and one g_eval per n.
    grid = [2, 10, 99, 1000, 65536, 100_000]
    for name in ("mu", "liouville", "inverse-squares"):
        seq = named_sequence(name, grid[-1], table_medium)
        report = theorem1_report(seq, grid, 0.6)
        old = [
            (
                n,
                ig.ingham_A(seq, n) / n,
                abs(ig.ingham_A(seq, n) / n - ig.g_eval(seq, 1 + 1 / math.log(n), seq.length)),
            )
            for n in grid
        ]
        got = [(r.n, r.mean, r.residual_t1) for r in report.rows]
        assert repr(got) == repr(old)
        assert got == old


def test_theorem1_requires_n_at_least_two(table_small):
    unit = named_sequence("unit", 10, table_small)
    with pytest.raises(ValueError):
        theorem1_residual(unit, 1)


# -- theorem 2 ----------------------------------------------------------


def test_theorem2_unit_passes_with_constant_limit(table_small):
    unit = named_sequence("unit", 10_000, table_small)
    rep = theorem2_conditions(unit, [10, 100, 1000, 10_000], [2.0, 1.5, 1.25])
    assert rep.passed
    assert rep.summary["limit_estimate"] == pytest.approx(1.0)
    for row in rep.rows:
        assert abs(row.s_ratio) <= 1e-14


def test_theorem2_mobius_trends(table_medium):
    mu = named_sequence("mu", 10**5, table_medium)
    rep = theorem2_conditions(
        mu, [100, 1000, 10_000, 100_000], [2.0, 1.5, 1.25, 1.125, 1.0625]
    )
    ratios = [row.s_ratio for row in rep.rows]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert rep.summary["s_trend_pass"]
    assert rep.summary["g_trend_pass"]
    assert rep.passed
    # S(n) = -Psi(n) for the Mobius coefficients: ratios sit near 1/log n.
    for row in rep.rows:
        assert row.s_ratio == pytest.approx(
            table_medium.chebyshev_psi(row.n) / (row.n * math.log(row.n)), rel=1e-9
        )


def test_theorem2_even_zero_limit_half(table_medium, f2zero):
    f = ig.extend_completely_multiplicative(f2zero, table_medium, 10**5)
    seq = ig.a_from_f(table_medium, f)
    rep = theorem2_conditions(seq, [100, 1000, 10_000], [2.0, 1.5, 1.25, 1.1])
    assert rep.passed
    assert rep.summary["limit_estimate"].real == pytest.approx(1.0 - 2.0**-1.1, abs=1e-12)


def test_theorem2_grid_validation(table_small):
    unit = named_sequence("unit", 100, table_small)
    with pytest.raises(ValueError):
        theorem2_conditions(unit, [], [2.0])
    with pytest.raises(ValueError):
        theorem2_conditions(unit, [10, 10], [2.0])
    with pytest.raises(ValueError):
        theorem2_conditions(unit, [10], [1.5, 2.0])
    with pytest.raises(ValueError):
        theorem2_conditions(unit, [10], [1.0])
    with pytest.raises(ValueError, match="n must be >= 2, got 1"):
        theorem2_conditions(unit, [1, 2, 3], [2.0])


# -- theorem 3 ----------------------------------------------------------


def test_theorem3_all_ones(table_small):
    spec = MultiplicativeSpec(cutoff=10_000)
    res = theorem3_check(spec, table_small, 10_000, 2.0)
    assert res.residual == 0.0
    assert res.mu == 0.0
    assert res.ratio == 0.0
    assert not res.ratio_infinite


def test_theorem3_even_zero(table_medium, f2zero):
    res = theorem3_check(f2zero, table_medium, 10**5, 2.0)
    assert res.product == 0.5 + 0j
    assert res.residual <= 1e-12
    assert res.mu == pytest.approx(math.sqrt(math.log(2) / 2 / math.log(10**5)), abs=1e-9)
    assert res.ratio <= 0.005


def test_theorem3_liouville_oracle(table_small):
    spec = MultiplicativeSpec(cutoff=10_000, default=-1.0)
    f = ig.extend_completely_multiplicative(spec, table_small, 10_000)
    res = theorem3_check(spec, table_small, 10_000, 2.0)
    direct_mean = complex(np.sum(f[1:])) / 10_000
    assert res.mean == pytest.approx(direct_mean, abs=1e-12)
    prod = 1.0
    for p in trial_primes(10_000):
        prod *= (1.0 - 1.0 / p) / (1.0 + 1.0 / p)
    assert res.product.real == pytest.approx(prod, rel=1e-9)
    assert res.ratio == pytest.approx(res.residual / res.mu, rel=1e-12)


def test_theorem3_validation(table_small):
    spec = MultiplicativeSpec(cutoff=100)
    with pytest.raises(ValueError):
        theorem3_check(spec, table_small, 2, 2.0)
    bad = MultiplicativeSpec({2: 1.5}, cutoff=100, bound_check=False)
    with pytest.raises(ValueError):
        theorem3_check(bad, table_small, 100, 2.0)


def test_theorem3_check_holds_no_whole_f(table_big):
    # One point of the streamed grid route: f comes in segments, so no
    # 16 MB complex f of length 1e6 is held (the whole-f route peaked at
    # 17.4 MiB). The first call fills the table's own caches.
    spec = MultiplicativeSpec({2: 0}, cutoff=10**6)
    expected = theorem3_check(spec, table_big, 10**6, 2.0)
    res, peak = traced_peak(lambda: theorem3_check(spec, table_big, 10**6, 2.0))
    assert res == expected
    assert peak < 12 * 2**20, peak


def test_difference_identity_holds_real_divisor_sums(table_big):
    # mu's D(k) in a float64 lattice over a_j log j formed in place, and
    # a series tail set up without K-length temporaries: 10.8 MiB at
    # K = 4e5, where a complex128 D(k) and those temporaries took 14.5.
    # With the lattice's nonzero places and weights gathered per run of
    # d, and the series head freed before the tail is set up: 7.5 MiB.
    # The first call fills the table's own caches.
    mu = named_sequence("mu", 400_000, table_big)
    expected = difference_identity_check(mu, table_big, 10, 400_000)
    res, peak = traced_peak(lambda: difference_identity_check(mu, table_big, 10, 400_000))
    assert res == expected
    assert peak < 9 * 2**20, peak


def _s_multiplicative_identity_ref(spec, table, m):
    """s_multiplicative_identity with the whole np.cumsum(f)."""
    f = ig.extend_completely_multiplicative(spec, table, m)
    lhs = ig.ingham_S(ig.a_from_f(table, f), m)
    f_prefix = np.cumsum(f)
    lam = table.mangoldt_array
    pp = np.nonzero(lam[: m + 1])[0]
    return abs(lhs - csum((f[pp] - 1.0) * lam[pp] * f_prefix[m // pp]))


SMULT_SPECS = (
    MultiplicativeSpec({2: 0.5, 3: -1j}, cutoff=1000, default=-1.0),
    MultiplicativeSpec({2: 0}, cutoff=10**6),
    MultiplicativeSpec({5: complex(-0.0, 1.0), 7: -0.5}, cutoff=100),
)


@pytest.mark.parametrize("chunk", [None, 7])
def test_s_multiplicative_identity_matches_the_whole_prefix_array(chunk, table_small, monkeypatch):
    if chunk:  # the m // k fall on chunk edges
        monkeypatch.setattr(ig.summation, "_CHUNK_TERMS", chunk)
    for spec in SMULT_SPECS:
        for m in (2, 3, 4, 7, 8, 49, 500, 9973, 10_000):
            assert s_multiplicative_identity(spec, table_small, m) == _s_multiplicative_identity_ref(spec, table_small, m), (spec, m)


def test_s_multiplicative_identity_holds_no_prefix_array(table_big):
    # f and its inverse a are 15.3 MiB each at m = 1e6. np.cumsum(f)
    # beside them, a complex copy of a and an m-length product w * f in
    # the divisor lattice took 50.4 MiB; prefix sums gathered at the
    # m // k alone, the lattice's products in slices and a kept without
    # a copy take 38.4.
    spec = SMULT_SPECS[0]
    m = 10**6
    expected = _s_multiplicative_identity_ref(spec, table_big, m)
    got, peak = traced_peak(lambda: s_multiplicative_identity(spec, table_big, m))
    assert got == expected
    assert peak < 42 * 2**20, peak / 2**20


@pytest.mark.parametrize("name, bound_mib", [("mu", 0.85), ("liouville", 1.15)])
def test_s_difference_identity_takes_real_divisor_sums(name, bound_mib, table_medium):
    # One float64 array of a_m log m feeds a float64 lattice and then
    # holds its own prefix sums: 0.68 and 0.92 MiB at M = 2e4, where a
    # second product and complex128 divisor sums took 1.05 and 1.35.
    # The first call fills the table's own caches.
    M = 20_000
    seq = named_sequence(name, M, table_medium)
    expected = s_difference_identity(seq, table_medium, M)
    got, peak = traced_peak(lambda: s_difference_identity(seq, table_medium, M))
    assert got == expected and type(got) is np.float64
    assert peak < bound_mib * 2**20, peak


@pytest.mark.parametrize("grid", [[1000, 100], [100, 100]])
def test_theorem3_rows_need_a_strictly_ascending_grid(grid, table_small):
    spec = MultiplicativeSpec(cutoff=1000, default=-1.0)
    with pytest.raises(ValueError, match="grid must be strictly ascending"):
        mean_report(spec, table_small, grid, 2.0)
    with pytest.raises(ValueError, match="grid must be strictly ascending"):
        theorem3_report(spec, table_small, grid, 2.0, THEOREM3_RATIO_ENVELOPE)


def test_theorem3_ratio_envelope_over_reference_grid(table_big):
    # The frozen envelope was fixed from an oracle run over this grid
    # (measured supremum 1.84e-4); the suite asserts it is never crossed.
    specs = [
        MultiplicativeSpec({2: 0}, cutoff=10**6),
        MultiplicativeSpec({2: 0, 3: 0}, cutoff=10**6),
        MultiplicativeSpec({3: -1.0}, cutoff=10**6),
    ]
    worst = 0.0
    for spec in specs:
        for n in (10**4, 10**5, 10**6):
            for alpha in (1.5, 2.0, 4.0):
                res = theorem3_check(spec, table_big, n, alpha)
                assert not res.ratio_infinite
                worst = max(worst, res.ratio)
    assert worst <= THEOREM3_RATIO_ENVELOPE


# -- hypothesis conditions ---------------------------------------------


def test_cond1_all_ones_and_single_prime(table_big, f2zero):
    ones = MultiplicativeSpec(cutoff=10**6)
    assert cond1_ratio(ones, table_big, 10**6) == 0.0
    # Paper formula with the 1/p weight: log(2)/2 / log(n).
    expected = math.log(2) / 2 / math.log(10**6)
    assert cond1_ratio(f2zero, table_big, 10**6) == pytest.approx(expected, abs=1e-9)
    assert cond1_ratio(f2zero, table_big, 10**6) == pytest.approx(0.0250858, abs=1e-6)


def test_cond1_liouville_does_not_vanish(table_small):
    # 2 sum log(p)/p / log(n) grows like 2 (1 - 1.33/log n): a recorded
    # hypothesis-failure example, far from zero.
    spec = MultiplicativeSpec(cutoff=10_000, default=-1.0)
    value = cond1_ratio(spec, table_small, 10_000)
    assert value == pytest.approx(1.7135, abs=1e-3)
    assert value > 1.0


def test_cond2_small_n_closed_form(table_small):
    spec = MultiplicativeSpec({2: 0.5}, cutoff=100)
    expected = (abs(0.5 * math.log(2) - 2.0) + 1.0) / (2.0 * math.log(2))
    assert cond2_ratio(spec, table_small, 2) == pytest.approx(expected, rel=1e-12)


def test_cond2_zero_function_harmonic(table_small):
    spec = MultiplicativeSpec(cutoff=100, default=0.0)
    h100 = math.fsum(1.0 / k for k in range(1, 101))
    assert cond2_ratio(spec, table_small, 100) == pytest.approx(
        h100 / math.log(100), rel=1e-12
    )


def test_cond2_all_ones_decreasing(table_big):
    spec = MultiplicativeSpec(cutoff=10**6)
    values = [cond2_ratio(spec, table_big, n) for n in (100, 10_000, 1_000_000)]
    assert values[0] > values[1] > values[2]
    assert values == pytest.approx([0.4655312, 0.2513382, 0.1687258], abs=1e-6)


# -- Wintner / Axer -----------------------------------------------------


def test_wintner_unit(table_small):
    unit = named_sequence("unit", 100, table_small)
    res = check_wintner(unit, 100)
    assert res.abs_sum_over_k == 1.0
    assert res.target == 1.0
    assert res.mean == 1.0
    assert res.residual == 0.0


def test_wintner_inverse_squares(table_small):
    inv = named_sequence("inverse-squares", 10_000, table_small)
    res = check_wintner(inv, 10_000)
    assert abs(res.mean.real - 1.2020569) <= 3e-4
    assert res.residual <= 3e-4


def test_wintner_alternating_recorded(table_small):
    vals = [(-1) ** k / k for k in range(1, 10_001)]
    seq = CoefficientSequence.from_values(vals)
    res = check_wintner(seq, 10_000)
    assert res.target.real == pytest.approx(-math.pi**2 / 12, abs=1e-4)
    assert res.residual == pytest.approx(2.411e-5, abs=5e-6)


def test_axer_single_support(table_small):
    unit = named_sequence("unit", 1000, table_small)
    ratios = check_axer(unit, [1, 10, 1000])
    np.testing.assert_allclose(ratios, [1.0, 0.1, 0.001])


def test_axer_mobius_squarefree_density(table_big):
    mu = named_sequence("mu", 10**6, table_big)
    ratios = check_axer(mu, [10**6])
    assert ratios[0] == pytest.approx(6 / math.pi**2, abs=0.01)


def test_axer_log_growth_unbounded(table_small):
    seq = CoefficientSequence.from_values(np.log(np.arange(1, 10_001)))
    value = check_axer(seq, [10_000])[0]
    assert value == pytest.approx(math.log(10_000) - 1.0, abs=0.01)
    assert value > 1.0


def test_axer_grid_validation(table_small):
    unit = named_sequence("unit", 100, table_small)
    with pytest.raises(ValueError):
        check_axer(unit, [])
    with pytest.raises(ValueError):
        check_axer(unit, [10, 5])


# -- exact identity suites ----------------------------------------------


def test_s_difference_minimal_case(table_small, rng):
    vals = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    seq = CoefficientSequence.from_values(vals)
    assert s_difference_identity(seq, table_small, 2) <= 1e-12


def test_s_difference_random(table_small, rng):
    vals = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
    seq = CoefficientSequence.from_values(vals)
    assert s_difference_identity(seq, table_small, 2000) <= 1e-9


def test_s_difference_mobius_mangoldt_route(table_small):
    # For Mobius coefficients the divisor sums reduce to -Lambda(m).
    mu = named_sequence("mu", 1000, table_small)
    D = sum_over_divisors(mu.a * log_index(1000))
    lam = table_small.mangoldt_array[:1001]
    assert np.abs(D.real + lam).max() <= 1e-12
    assert s_difference_identity(mu, table_small, 1000) <= 1e-10


def test_s_decomposition_unit(table_small):
    unit = named_sequence("unit", 1000, table_small)
    n = 1000
    assert s_decomposition_identity(unit, table_small, n) <= 1e-8 * n


def test_s_decomposition_random(table_small, rng):
    vals = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    seq = CoefficientSequence.from_values(vals)
    n = 300
    assert s_decomposition_identity(seq, table_small, n) <= 1e-8 * n * math.log(n)


def test_s_decomposition_mobius_cross_module(table_small):
    mu = named_sequence("mu", 1000, table_small)
    n = 1000
    assert s_decomposition_identity(mu, table_small, n) <= 1e-8 * n
    assert ig.ingham_S(mu, n).real == pytest.approx(-table_small.chebyshev_psi(n), rel=1e-8)


def test_s_multiplicative_all_ones(table_small):
    spec = MultiplicativeSpec(cutoff=500)
    assert s_multiplicative_identity(spec, table_small, 500) <= 1e-10


def test_s_multiplicative_examples(table_small):
    f2 = MultiplicativeSpec({2: 0}, cutoff=500)
    assert s_multiplicative_identity(f2, table_small, 100) <= 1e-9 * 100
    liou = MultiplicativeSpec(cutoff=500, default=-1.0)
    assert s_multiplicative_identity(liou, table_small, 500) <= 1e-9 * 500 * math.log(500)


# -- the difference identity -------------------------------------------


def test_difference_identity_unit_collapses(table_small):
    unit = named_sequence("unit", 10_000, table_small)
    res = difference_identity_check(unit, table_small, 5, 10_000)
    assert res.lhs == 0j
    assert res.rhs == 0j
    assert res.error == 0.0


def test_difference_identity_random_summable(table_small, rng):
    seq = summable_sequence(rng, 2000)
    for n in (5, 10):
        res = difference_identity_check(seq, table_small, n, 2000, quad_tol=1e-8, tail_tol=1e-10)
        assert res.error <= 1e-6
        assert res.quad_error <= 1e-4


def test_difference_identity_series_machinery_closed_form(table_small, rng):
    # The Abel-swapped series plus exact remainder telescopes to
    # n (g - a_1); the identity check must therefore agree with the
    # direct left side to quadrature accuracy even at tiny truncation.
    seq = summable_sequence(rng, 500)
    res = difference_identity_check(seq, table_small, 7, 500, quad_tol=1e-9, tail_tol=1e-11)
    assert res.error <= 1e-7


def test_difference_identity_validation(table_small, rng):
    seq = summable_sequence(rng, 100)
    with pytest.raises(ValueError):
        difference_identity_check(seq, table_small, 1, 100)
    with pytest.raises(ValueError):
        difference_identity_check(seq, table_small, 51, 100)
    with pytest.raises(ValueError):
        difference_identity_check(seq, table_small, 5, 101)
    with pytest.raises(ValueError):
        difference_identity_check(seq, table_small, 5, 3)
    with pytest.raises(ValueError, match=r"quad_tol must lie in \(0, 1\), got 2.0"):
        difference_identity_check(seq, table_small, 5, 100, quad_tol=2.0)
    with pytest.raises(ValueError, match=r"tail_tol must lie in \(0, 1\), got 0"):
        difference_identity_check(seq, table_small, 5, 100, tail_tol=0)


# -- estimate-family ratios ---------------------------------------------


def test_lemma_suite_small_grid(table_small):
    rows = lemma_ratio_suite(
        table_small,
        t_grid=(0.1, 1.0),
        x_grid=(100, 1000),
        k_grid=(2,),
        vx_grid=(1000,),
    )
    assert all(r["pass"] for r in rows)
    assert max(r["ratio"] for r in rows) < 1.2
    families = {r["family"] for r in rows}
    assert families == {
        "sum_ft_over_m",
        "partial_sums",
        "mu_log_identity",
        "doubling_increment",
        "integrated_comparison",
    }


@pytest.mark.parametrize(
    "grids, message",
    [
        (dict(x_grid=(100, 1)), "x_grid value 1 outside [2, sieve limit 10000]"),
        (dict(x_grid=(0, 100)), "x_grid value 0 outside [2, sieve limit 10000]"),
        (dict(x_grid=(100, 10_001)), "x_grid value 10001 outside [2, sieve limit 10000]"),
        (dict(x_grid=(100,), vx_grid=(1_000, 10_001)), "vx_grid value 10001 outside [1, sieve limit 10000]"),
        (dict(x_grid=(100,), vx_grid=(0,)), "vx_grid value 0 outside [1, sieve limit 10000]"),
        (dict(t_grid=(1.0, 0.0)), "t_grid value 0.0 must be positive"),
        (dict(k_grid=(2, 0)), "k_grid value 0 must be at least 2"),
        (dict(k_grid=(1,)), "k_grid value 1 must be at least 2"),
    ],
)
def test_lemma_suite_checks_every_grid_before_any_table(grids, message, table_small, monkeypatch):
    # x = 1 raised ZeroDivisionError and x = 0 "math domain error"; a vx
    # above the limit raised only after all the t-grid work.
    def boom(*args):
        raise AssertionError("table work before the grid check")

    monkeypatch.setattr("inghamsum.verify._f_t_values", boom)
    monkeypatch.setattr("inghamsum.verify.integral_zero_to_inf", boom)
    with pytest.raises(ValueError, match=re.escape(message)):
        lemma_ratio_suite(table_small, **grids)


def _lemma_rows_ref(table, t_grid, x_grid, envelope=5.0):
    """Families (i)-(iv) of lemma_ratio_suite as they were read from a
    whole f_t table: F_t(x) and F_t(x / 2) from ``ft.prefix``, the other
    four sums gathered at the sorted distinct x."""
    xs = np.unique(np.asarray(x_grid, dtype=np.int64))
    mu = table.mobius_array
    rows = []
    for t in t_grid:
        ft = ig.f_t_table(table, t, max(x_grid))
        inv_zeta = 1.0 / ig.zeta_real(1.0 + t)

        def terms(lo, hi):
            d = np.arange(lo, hi, dtype=np.float64)
            if not lo:
                d[0] = 1.0
            mu_d1t = mu[lo:hi] * d ** (-1.0 - t)
            return ft.values[lo:hi] / d, d**-t, mu_d1t, mu_d1t * np.log(d)

        sums = ig.summation._cumsums_at(xs, terms)
        for x in x_grid:
            q_x, dt_x, p1_x, p2_x = (float(s[np.searchsorted(xs, x)]) for s in sums)
            logx = math.log(x)
            cells = (
                ("sum_ft_over_m", q_x, 1.0 + t * logx),
                ("partial_sums", abs(float(ft.prefix[x]) - x * inv_zeta), x ** (1.0 - t) + dt_x),
                ("mu_log_identity", abs(q_x - (logx * p1_x - p2_x)), 1.0),
                ("doubling_increment", float(ft.prefix[x]) - ft.F(x / 2.0), x * (1.0 / logx + t)),
            )
            for family, value, bound in cells:
                ratio = value / bound
                rows.append(
                    {"family": family, "t": t, "x": x, "k": None, "value": value,
                     "bound": bound, "ratio": ratio, "pass": ratio <= envelope}
                )
    return rows


def _bits(rows):
    return [{k: v.hex() if isinstance(v, float) else v for k, v in row.items()} for row in rows]


@pytest.mark.parametrize(
    "chunk, x_grid",
    [
        (None, (2, 3, 1_001, 65_537, 131_071, 131_072, 131_073, 99_999, 262_145)),
        (None, (100_000, 7, 2, 7, 54_321)),
        (7, (2, 3, 5, 13, 14, 15, 29, 1_001, 999)),
    ],
)
def test_lemma_suite_matches_the_f_t_prefix(chunk, x_grid, table_big, monkeypatch):
    # F_t is gathered at the x and x // 2 instead of read from a whole
    # prefix array; with odd x, x = 2 (x // 2 = 1), repeated x and ends
    # on chunk edges, every row keeps its bits.
    if chunk:
        monkeypatch.setattr(ig.summation, "_CHUNK_TERMS", chunk)
    t_grid = (0.05, 0.5, 1.0, 2.5, 9.0)
    got = lemma_ratio_suite(table_big, envelope=5.0, t_grid=t_grid, x_grid=x_grid, k_grid=(), vx_grid=())
    assert _bits(got) == _bits(_lemma_rows_ref(table_big, t_grid, x_grid))


def test_lemma_suite_holds_no_f_t_prefix():
    # Per t, the f_t values alone (3.1 MiB at 4e5) and the chunks of the
    # gather: 6.1 MiB traced, where the f_t table's prefix array beside
    # its values took 9.1.
    table = ig.build_sieve(400_000)
    table.mobius_array
    _, peak = traced_peak(
        lambda: lemma_ratio_suite(table, t_grid=(0.1, 1.0), x_grid=(100, 400_000), k_grid=(), vx_grid=())
    )
    assert peak < 7.5 * 2**20, peak / 2**20


def test_lemma_suite_memory_grows_by_at_most_32_bytes_per_integer():
    # Traced peaks at x tops 2e5 and 4e5 on one 4e5 table. About ten
    # float64 arrays of length max(x) + 1 (d, log d, the terms and four
    # prefix arrays) grew by 89 bytes per integer; the gather at the x
    # alone, beside one f_t table (values and prefix), by 10.6-16; with
    # F_t gathered too, beside the f_t values alone, by 8.
    table = ig.build_sieve(400_000)
    table.mobius_array
    peaks = [
        traced_peak(lambda: lemma_ratio_suite(table, t_grid=(0.1, 1.0), x_grid=(100, top), k_grid=(), vx_grid=()))[1]
        for top in (200_000, 400_000)
    ]
    growth = (peaks[1] - peaks[0]) / 200_000
    assert growth <= 32, (peaks, growth)


def test_trend_policy_defaults():
    assert (S_RATIO_THRESHOLD, MONOTONE_SLACK, BURN_IN) == (0.1, 1e-9, 0.5)
    assert THEOREM1_ENVELOPE == 0.6
    assert AXER_BOUND == 10.0


def _comparison_lhs_by_quadrature(table, k, x, quad_tol, tail_tol):
    """The integral over t > 0 of F_t(x) (k^-t - (k+1)^-t) by adaptive
    quadrature, with F_t(x) from ft_partial_sum at every node."""

    def integrand(t):
        w = float(k) ** -t - float(k + 1) ** -t
        if w == 0.0 or t <= 0.0:
            return 0.0
        return ft_partial_sum(table, x, t) * w

    return integral_zero_to_inf(integrand, rate=float(k), bound=float(x), quad_tol=quad_tol, tail_tol=tail_tol)


def test_integrated_comparison_matches_closed_form(table_small):
    # F_t(x) = sum over d <= x of mu(d) d^-t floor(x/d), so the integral
    # of F_t(x) (k^-t - (k+1)^-t) over t > 0 is the finite sum of
    # mu(d) floor(x/d) (1/log(dk) - 1/log(d(k+1))). _comparison_lhs
    # sums it over the squarefree d; summed over every d <= x it has the
    # same bits. At the default tolerances the quadrature agreed with it
    # to 6.7e-11 relative at worst (k = 100, x = 1000), inside its own
    # error estimate.
    worst = 0.0
    for k in LEMMA_K_GRID:
        for x in LEMMA_VX_GRID:
            d = np.arange(1, x + 1)
            mu = table_small.mobius_array[1 : x + 1].astype(np.float64)
            q = (x // d).astype(np.float64)
            exact = rsum(mu * q * (1.0 / np.log(d * k) - 1.0 / np.log(d * (k + 1))))
            assert _comparison_lhs(table_small, k, x) == exact, (k, x)
            quad = _comparison_lhs_by_quadrature(table_small, k, x, quad_tol=1e-8, tail_tol=1e-10)
            assert abs(quad.value - exact) <= quad.error, (k, x)
            worst = max(worst, abs(quad.value - exact) / abs(exact))
    assert worst <= 1e-9, worst


def test_difference_first_sum_matches_closed_form(table_small):
    # The first sum of difference_identity_check integrates F_t(x1) k^-t -
    # F_t(x2) (k+1)^-t over t > 0, with x1 = n // k and x2 = n // (k+1);
    # its exact value is the sum of mu(d) (floor(x1/d)/log(dk) -
    # floor(x2/d)/log(d(k+1))). At the default tolerances, over every
    # cell with n <= 50, the quadrature was off by at most 2.2e-10, which
    # is 1.5e-7 relative (n = 50, k = 49, where the value is 1.3e-3) and
    # at most 6.6 % of its own error estimate.
    mu = table_small.mobius_array
    worst = 0.0
    for n in (3, 10, 30, 50):
        primes = table_small.primes[: np.searchsorted(table_small.primes, n, "right")].tolist()
        prime_lists = [[]] * 2 + [[p for p in primes if m % p == 0] for m in range(2, n + 1)]
        for k in range(2, n):
            x1, x2 = n // k, n // (k + 1)
            d = np.arange(1, x1 + 1)
            exact = rsum(mu[1 : x1 + 1] * ((x1 // d) / np.log(d * k) - (x2 // d) / np.log(d * (k + 1))))
            res = _difference_integral(prime_lists, n, k, quad_tol=1e-8, tail_tol=1e-10)
            assert abs(res.value - exact) <= res.error, (n, k)
            worst = max(worst, abs(res.value - exact) / abs(exact))
    assert worst <= 1e-6, worst
