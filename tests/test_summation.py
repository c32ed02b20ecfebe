import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import inghamsum as ig
from inghamsum import (
    CoefficientSequence,
    WeightSequence,
    abel_lambda_sum,
    abel_power_sum,
    batch_sums,
    cumulative_sums,
    ingham_A,
    ingham_S,
    ingham_series_partial,
    named_sequence,
    tauber_weighted,
)

from conftest import floor_matrix

H_100 = 5.187377517639621


def test_ingham_A_unit(table_small):
    seq = named_sequence("unit", 200, table_small)
    assert ingham_A(seq, 100) == 100


def test_ingham_A_mobius_exact_one(table_medium):
    seq = named_sequence("mu", table_medium.limit, table_medium)
    for n in (1, 10, 541, 10_000, 99_991):
        assert ingham_A(seq, n) == 1.0 + 0j


def test_ingham_A_all_ones(table_small):
    seq = named_sequence("one", 10, table_small)
    assert ingham_A(seq, 6) == 14  # 6+3+2+1+1+1


def test_ingham_S_boundary(table_small):
    seq = named_sequence("one", 10, table_small)
    assert ingham_S(seq, 1) == 0


def test_ingham_S_mobius(table_small):
    seq = named_sequence("mu", 100, table_small)
    assert ingham_S(seq, 10) == pytest.approx(-table_small.chebyshev_psi(10), abs=1e-9)


def test_ingham_S_single_term(table_small):
    seq = CoefficientSequence.from_values([0, 1, 0, 0, 0, 0, 0])
    assert ingham_S(seq, 7) == pytest.approx(3 * math.log(2), abs=1e-12)


def test_range_errors(table_small):
    seq = named_sequence("one", 10, table_small)
    for fn in (ingham_A, ingham_S, ingham_series_partial, tauber_weighted):
        with pytest.raises(ValueError):
            fn(seq, 0)
        with pytest.raises(ValueError):
            fn(seq, 11)


def test_batch_matches_naive_matrix(rng):
    n = 500
    M = floor_matrix(n)
    logk = np.log(np.arange(1, n + 1))
    for _ in range(5):
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        seq = CoefficientSequence.from_values(vals)
        naive_A = M @ vals
        naive_S = M @ (vals * logk)
        out = batch_sums(seq, range(1, n + 1))
        for i, v in enumerate(out):
            assert abs(v.A - naive_A[i]) <= 1e-10 * max(1.0, abs(naive_A[i]))
            assert abs(v.S - naive_S[i]) <= 1e-10 * max(1.0, abs(naive_S[i]))


def test_block_queries_at_large_n(rng):
    n = 10**6
    vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    seq = CoefficientSequence.from_values(vals)
    k = np.arange(1, n + 1)
    for m in sorted(rng.integers(10, n, size=20).tolist()):
        quot = (m // k[: m]).astype(np.float64)
        naive_A = (quot * vals[:m]).sum()
        naive_S = (quot * np.log(k[:m]) * vals[:m]).sum()
        assert abs(ingham_A(seq, m) - naive_A) <= 1e-10 * max(1.0, abs(naive_A))
        assert abs(ingham_S(seq, m) - naive_S) <= 1e-10 * max(1.0, abs(naive_S))


def test_batch_equals_pointwise_and_workers(table_small, rng):
    vals = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    seq = CoefficientSequence.from_values(vals)
    grid = [3, 17, 100, 299]
    serial = batch_sums(seq, grid)
    for s, n in zip(serial, grid):
        assert s.n == n
        assert s.A == ingham_A(seq, n)
        assert s.S == ingham_S(seq, n)


def test_batch_large_grid_fast_path_is_bitwise_identical(rng):
    # A grid is summed in one block_sums pass; values must still match
    # per-point queries exactly.
    vals = rng.standard_normal(400) + 1j * rng.standard_normal(400)
    seq = CoefficientSequence.from_values(vals)
    out = batch_sums(seq, range(1, 401))
    for n in (1, 63, 64, 65, 255, 400):
        assert out[n - 1].A == ingham_A(seq, n)
        assert out[n - 1].S == ingham_S(seq, n)


def test_batch_rejects_unsorted(table_small):
    seq = named_sequence("one", 10, table_small)
    with pytest.raises(ValueError):
        batch_sums(seq, [5, 3])
    with pytest.raises(ValueError):
        batch_sums(seq, [])


def test_summation_value_normalization(rng):
    vals = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    seq = CoefficientSequence.from_values(vals)
    out = batch_sums(seq, [1, 2, 40])
    assert out[0].normalized_S is None
    for v in out:
        assert v.normalized_A == pytest.approx(v.A / v.n, rel=1e-15)
        if v.n > 1:
            assert v.normalized_S == pytest.approx(v.S / (v.n * math.log(v.n)), rel=1e-15)


def test_cumulative_sums_match_batch(rng):
    vals = rng.standard_normal(800) + 1j * rng.standard_normal(800)
    seq = CoefficientSequence.from_values(vals)
    A, S = cumulative_sums(seq)
    batch = batch_sums(seq, range(1, 801))
    for i, v in enumerate(batch, start=1):
        assert abs(A[i] - v.A) <= 1e-10 * max(1.0, abs(v.A))
        assert abs(S[i] - v.S) <= 1e-10 * max(1.0, abs(v.S))


def test_cumulative_sums_mobius_exact(table_small):
    seq = named_sequence("mu", 10_000, table_small)
    A, _ = cumulative_sums(seq)
    assert np.all(A[1:] == 1.0 + 0j)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=48,
    ),
    st.integers(min_value=1, max_value=48),
)
def test_linearity_property(values, n):
    n = min(n, len(values))
    a = CoefficientSequence.from_values(values)
    b = CoefficientSequence.from_values(values[::-1])
    combo = CoefficientSequence.from_values(
        [2.0 * x + 0.5j * y for x, y in zip(values, values[::-1])]
    )
    lhs = ingham_A(combo, n)
    rhs = 2.0 * ingham_A(a, n) + 0.5j * ingham_A(b, n)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_series_partial_constant_first_term(table_small):
    seq = CoefficientSequence.from_values([5, 0, 0, 0, 0, 0, 0, 0])
    for n in (1, 3, 8):
        assert ingham_series_partial(seq, n) == pytest.approx(5.0)


def test_series_partial_two_terms():
    seq = CoefficientSequence.from_values([1, 1])
    assert ingham_series_partial(seq, 2) == pytest.approx(2.0)


def test_series_partial_equals_reweighted_mean(rng):
    vals = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
    c = CoefficientSequence.from_values(vals)
    reweighted = CoefficientSequence.from_index_aligned(c.a * np.arange(2001))
    for n in (7, 123, 2000):
        lhs = ingham_series_partial(c, n)
        rhs = ingham_A(reweighted, n) / n
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_series_partial_direct_loop(rng):
    vals = rng.standard_normal(97) + 1j * rng.standard_normal(97)
    c = CoefficientSequence.from_values(vals)
    n = 97
    direct = sum((m / n) * (n // m) * vals[m - 1] for m in range(1, n + 1))
    assert ingham_series_partial(c, n) == pytest.approx(direct, rel=1e-12)


def test_tauber_weighted_examples(table_small):
    unit = named_sequence("unit", 50, table_small)
    for n in (1, 10, 50):
        assert tauber_weighted(unit, n) == 1.0
    inv = named_sequence("inverse-squares", 100, table_small)
    assert tauber_weighted(inv, 100).real == pytest.approx(H_100, abs=1e-9)
    alt = CoefficientSequence.from_values([(-1) ** k for k in range(1, 5)])
    assert tauber_weighted(alt, 4) == pytest.approx(2.0)


def test_abel_power_sum(table_small):
    unit = named_sequence("unit", 10, table_small)
    assert abel_power_sum(unit, 0.25) == pytest.approx(0.25)
    ones = named_sequence("one", 60, table_small)
    assert abs(abel_power_sum(ones, 0.5) - 1.0) <= 2.0**-60 + 1e-15
    alt = CoefficientSequence.from_values([(-1) ** k for k in range(1, 201)])
    assert abel_power_sum(alt, 0.9) == pytest.approx(-0.9 / 1.9, abs=1e-8)
    with pytest.raises(ValueError):
        abel_power_sum(unit, 1.0)
    with pytest.raises(ValueError):
        abel_power_sum(unit, 0.0)


def test_abel_lambda_sum_constant_first(table_small):
    seq = CoefficientSequence.from_values([3.5, 0, 0])
    w = WeightSequence.log_weights(3)
    for x in (0.1, 1.0, 9.0):
        assert abel_lambda_sum(seq, w, x) == pytest.approx(3.5)


def test_abel_lambda_sum_matches_dirichlet_sum(rng):
    vals = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    seq = CoefficientSequence.from_values(vals)
    w = WeightSequence.log_weights(500)
    x = 1.7
    lam = abel_lambda_sum(seq, w, x)
    g = ig.g_eval(seq, x, 500)
    assert abs(lam - g) <= 1e-15 * max(1.0, abs(g))


def test_abel_lambda_sum_two_terms():
    seq = CoefficientSequence.from_values([1, 1])
    w = WeightSequence.log_weights(2)
    assert abel_lambda_sum(seq, w, 1.0) == pytest.approx(1.5)


def test_abel_lambda_sum_validation():
    seq = CoefficientSequence.from_values([1, 1, 1])
    w = WeightSequence.log_weights(2)
    with pytest.raises(ValueError):
        abel_lambda_sum(seq, w, 1.0)  # weights too short
    w3 = WeightSequence.log_weights(3)
    with pytest.raises(ValueError):
        abel_lambda_sum(seq, w3, 0.0)


def test_weight_sequence_validation():
    with pytest.raises(ValueError):
        WeightSequence(np.array([0.0, 2.0, 1.0]))
    with pytest.raises(ValueError):
        WeightSequence(np.array([0.0, -1.0, 1.0]))
    w = WeightSequence(np.array([0.0, 0.0, 0.7, 1.1]))
    assert w.weights[1] == 0.0  # boundary case is permitted


def test_weighted_difference_identity_small(table_small, rng):
    vals = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
    seq = CoefficientSequence.from_values(vals)
    worst = 0.0
    prev = ingham_S(seq, 1)
    for m in range(2, 2001):
        cur = ingham_S(seq, m)
        direct = sum(seq.a[d] * math.log(d) for d in table_small.divisors(m) if d > 1)
        worst = max(worst, abs(cur - prev - direct))
        prev = cur
    assert worst <= 1e-9
