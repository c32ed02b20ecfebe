"""Bit-identity of the divisor-lattice and Mobius kernels against the
straightforward loops they replaced: one strided slice-add per nonzero
index, and one sign flip per prime."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import inghamsum as ig
from inghamsum import a_from_f, sum_over_divisors

_ROOTS = (2, 3, 10, 17, 31, 100, 316)
SIZES = sorted(
    {1, 2, 3, *range(4, 201)}
    | {r * r for r in _ROOTS}
    | {r * r - 1 for r in _ROOTS}
    | {r * r + 1 for r in _ROOTS}
    | {10**5}
)


def _sum_over_divisors_ref(values):
    values = np.asarray(values)
    n = values.size - 1
    out = np.zeros(n + 1, dtype=np.complex128)
    for d in np.nonzero(values)[0].tolist():
        if d >= 1:
            out[d::d] += values[d]
    return out


def _a_from_f_ref(mu, f):
    f = np.asarray(f, dtype=np.complex128)
    n = f.size - 1
    out = np.zeros(n + 1, dtype=np.complex128)
    for e in np.nonzero(mu[: n + 1])[0].tolist():
        out[e::e] += int(mu[e]) * f[1 : n // e + 1]
    return out


def _mobius_ref(table):
    mu = np.ones(table.limit + 1, dtype=np.int8)
    mu[0] = 0
    for p in table.primes.tolist():
        mu[p::p] *= -1
        sq = p * p
        if sq <= table.limit:
            mu[sq::sq] = 0
    return mu


def _same_bits(x, y):
    assert x.dtype == y.dtype == np.complex128
    assert np.array_equal(x.view(np.uint64), y.view(np.uint64))


def _input(kind, n, rng):
    """Index-aligned length-(n + 1) input of the given kind."""
    if kind.endswith("complex"):
        v = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    else:
        v = rng.standard_normal(n + 1)
    if kind.startswith("sparse"):
        v[rng.random(n + 1) < 0.9] = 0
    return v


KINDS = ("sparse-real", "sparse-complex", "dense-real", "dense-complex")

special_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0j, -1j, complex(-0.0, -0.0)]),
    st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
)
special_lists = st.lists(special_values, min_size=1, max_size=400)


@pytest.mark.parametrize("kind", KINDS)
def test_sum_over_divisors_matches_strided_loop(kind, rng):
    for n in SIZES:
        v = _input(kind, n, rng)
        _same_bits(sum_over_divisors(v), _sum_over_divisors_ref(v))


def test_sum_over_divisors_integer_and_int8_inputs(table_medium, rng):
    for n in (1, 50, 99, 100, 101, 10**5):
        ints = rng.integers(-3, 4, size=n + 1)
        _same_bits(sum_over_divisors(ints), _sum_over_divisors_ref(ints))
        mu = table_medium.mobius_array[: n + 1]
        _same_bits(sum_over_divisors(mu), _sum_over_divisors_ref(mu))


def test_sum_over_divisors_empty_and_zero():
    _same_bits(sum_over_divisors(np.zeros(0)), _sum_over_divisors_ref(np.zeros(0)))
    _same_bits(sum_over_divisors(np.zeros(1)), _sum_over_divisors_ref(np.zeros(1)))
    _same_bits(sum_over_divisors(np.zeros(50)), np.zeros(50, dtype=np.complex128))


@pytest.mark.parametrize("kind", KINDS)
def test_a_from_f_matches_strided_loop(kind, table_medium, rng):
    mu = table_medium.mobius_array
    for n in SIZES:
        f = _input(kind, n, rng)
        _same_bits(a_from_f(table_medium, f).a, _a_from_f_ref(mu, f))


@settings(max_examples=60, deadline=None)
@given(special_lists)
def test_sum_over_divisors_hypothesis(values):
    v = np.array([0j, *values], dtype=np.complex128)
    _same_bits(sum_over_divisors(v), _sum_over_divisors_ref(v))
    re = np.ascontiguousarray(v.real)
    _same_bits(sum_over_divisors(re), _sum_over_divisors_ref(re))


@settings(max_examples=60, deadline=None)
@given(special_lists)
def test_a_from_f_hypothesis(table_medium, values):
    f = np.array([0j, *values], dtype=np.complex128)
    _same_bits(a_from_f(table_medium, f).a, _a_from_f_ref(table_medium.mobius_array, f))


def test_mobius_array_matches_all_prime_loop():
    for n in sorted(set(SIZES) - {1}):
        table = ig.build_sieve(n)
        assert np.array_equal(table.mobius_array, _mobius_ref(table)), n


def test_mobius_array_matches_scalar_mobius(table_medium):
    mu = table_medium.mobius_array
    assert mu.dtype == np.int8 and mu[0] == 0
    assert not mu.flags.writeable
    scalar = [table_medium.mobius(m) for m in range(1, table_medium.limit + 1)]
    assert mu[1:].tolist() == scalar

