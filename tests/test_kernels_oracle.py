"""Bit-identity of the divisor-lattice, Mobius and summation kernels
against the straightforward code they replaced: one strided slice-add
per nonzero index, one sign flip per prime, math.fsum over a list, and
one Python loop iteration per floor-quotient block."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import inghamsum as ig
from inghamsum import a_from_f, accumulate, summation, sum_over_divisors
from inghamsum.accumulate import csum, rsum
from inghamsum.cli import parse_grid
from inghamsum.dirichlet import ft_partial_sum
from inghamsum.sequences import CoefficientSequence, log_index, named_sequence
from inghamsum.summation import block_sums

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



def _rsum_ref(values):
    return math.fsum(values)


def _csum_ref(values):
    arr = np.asarray(values)
    if arr.size == 0:
        return 0j
    if np.iscomplexobj(arr):
        return complex(math.fsum(arr.real.tolist()), math.fsum(arr.imag.tolist()))
    return complex(math.fsum(arr.tolist()), 0.0)


def _outcome(fn, values):
    """The bits of fn(values), or the type of the exception it raised."""
    try:
        return np.array([fn(values)]).view(np.uint64).tolist()
    except (TypeError, ValueError, OverflowError) as exc:
        return type(exc)


def _same_sums(x):
    assert _outcome(rsum, x) == _outcome(_rsum_ref, x.tolist())
    assert _outcome(csum, x) == _outcome(_csum_ref, x)


def _sum_sizes():
    small = accumulate._SMALL
    return (1, 7, small - 1, small, small + 1, 3 * small + 5)


def _tie(n, half_ulp, tail=0.0):
    """1.0 followed by n - 1 terms whose exact sum is half_ulp + tail."""
    x = np.zeros(n)
    x[0] = 1.0
    if n > 2:
        k = 1 << (n - 2).bit_length() - 1  # a power of two, so half_ulp / k is exact
        x[1 : k + 1] = half_ulp / k
        x[-1] += tail
    return x


def _summands(n, rng):
    """Named real arrays of length n that stress exact summation."""
    sign = rng.choice([-1.0, 1.0], n)
    cancel = np.zeros(n)
    half = rng.standard_normal((n - 1) // 2)
    cancel[: half.size] = half
    cancel[half.size : 2 * half.size] = -half[::-1]
    cancel[-1] = 2.0**-1074
    return {
        "zeros": np.zeros(n),
        "negative zeros": np.full(n, -0.0),
        "mixed zeros": sign * 0.0,
        "subnormals": sign * rng.integers(1, 2**52, n) * 2.0**-1074,
        "wide exponents": rng.standard_normal(n)
        * np.exp2(rng.integers(-1074, 1001, n).astype(float)),
        "below the exponent guard": sign * rng.random(n) * 2.0**959,
        "cancellation": cancel,
        "tie at 1 + 2**-53": _tie(n, 2.0**-53),
        "tie at 1 - 2**-54": _tie(n, -(2.0**-54)),
        "tie broken by a subnormal": _tie(n, 2.0**-53, 2.0**-1074),
        "tie broken below": _tie(n, -(2.0**-54), -(2.0**-1074)),
        "int8": rng.integers(-128, 128, n).astype(np.int8),
        "int64 above 2**53": rng.integers(-(2**62), 2**62, n),
        "bool": rng.random(n) < 0.5,
        "normal": rng.standard_normal(n) / np.arange(1, n + 1),
    }


@pytest.mark.parametrize("chunk", [None, 1024, 1000])
def test_sums_match_fsum_bit_for_bit(chunk, rng, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(accumulate, "_CHUNK", chunk)
    for n in _sum_sizes():
        for name, x in _summands(n, rng).items():
            assert x.size == n, name
            _same_sums(x)


def test_complex_sums_match_fsum_bit_for_bit(rng):
    for n in _sum_sizes():
        re = rng.standard_normal(n) * np.exp2(rng.integers(-60, 60, n).astype(float))
        for imag in (rng.standard_normal(n), np.zeros(n), np.full(n, -0.0), rng.choice([0.0, -0.0], n)):
            z = re.astype(np.complex128)
            z.imag = imag
            _same_sums(z.real)
            _same_sums(z)
            _same_sums(z[::3])


def test_exponent_guard_and_non_finite_match_fsum(rng):
    for n in _sum_sizes():
        base = rng.choice([-1.0, 1.0], n) * rng.random(n) * 2.0**959
        specials = (
            [math.inf],
            [-math.inf],
            [math.nan],
            [math.inf, -math.inf],
            [1e308, 1e308, -1e308],  # fsum raises OverflowError
            [2.0**960],  # the smallest magnitude the guard sends to fsum
            [np.finfo(np.float64).max, -np.finfo(np.float64).max],
        )
        _same_sums(base)
        for vals in specials:
            x = base.copy()
            x[: len(vals)] = vals[:n]
            _same_sums(x)
            _same_sums(x[::-1])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=60))
def test_sums_match_fsum_hypothesis(values):
    x = np.array(values)
    _same_sums(x)
    _same_sums(np.resize(x, accumulate._SMALL + x.size))


# -- floor-quotient block sums -------------------------------------------


def _block_sum_ref(prefix, n):
    """One loop iteration per maximal block of constant q = n // k. A
    term is (prefix[k2] - prefix[k - 1]) * q as CPython up to 3.13 forms
    it, spelled out so that the reference does not change with the
    interpreter's complex * int rule."""
    re: list[float] = []
    im: list[float] = []
    k = 1
    while k <= n:
        q = n // k
        k2 = n // q
        d = prefix[k2] - prefix[k - 1]
        re.append(d.real * q - d.imag * 0.0)
        im.append(d.real * 0.0 + d.imag * q)
        k = k2 + 1
    return complex(math.fsum(re), math.fsum(im))


def _block_outcome(fn):
    """The (re, im) bits of fn() with every nan as one value, or the type
    of the exception it raised."""
    try:
        values = np.array(fn(), dtype=np.complex128).ravel()
    except (ValueError, OverflowError) as exc:
        return type(exc)
    bits = values.view(np.float64)
    bits = np.where(np.isnan(bits), np.nan, bits)
    return np.ascontiguousarray(bits).view(np.uint64).tolist()


def _same_block_sums(prefix, grid, case=""):
    prefix = np.asarray(prefix, dtype=np.complex128)
    grid = list(grid)
    listed = prefix.tolist()
    expected = _block_outcome(lambda: [_block_sum_ref(listed, n) for n in grid])
    assert _block_outcome(lambda: block_sums(prefix, grid)) == expected, case
    one_point = [_block_outcome(lambda: summation._block_sum(prefix, n)) for n in grid]
    assert one_point == [_block_outcome(lambda: _block_sum_ref(listed, n)) for n in grid], case


def _unit_prefix(n, rng):
    a = np.exp(2j * np.pi * rng.random(n + 1))
    a[0] = 0
    return np.cumsum(a * log_index(n))


def test_block_sums_every_n_to_2000(rng):
    _same_block_sums(_unit_prefix(2000, rng), range(1, 2001))


def test_block_sums_near_squares(rng):
    roots = (1, 2, 3, 10, 31, 100, 316, 999)
    grid = sorted({m for r in roots for m in (r * r - 1, r * r, r * r + r, r * r + 2 * r) if m >= 1})
    _same_block_sums(_unit_prefix(grid[-1], rng), grid)
    for n in grid:
        _same_block_sums(_unit_prefix(n, rng), [n])


def test_block_sums_mobius_grid(table_big):
    seq = named_sequence("mu", 10**6, table_big)
    grid = parse_grid("1e3:1e6:x1.002")
    _same_block_sums(seq.prefix_a, grid)
    _same_block_sums(seq.prefix_alog, grid)


@pytest.mark.parametrize("chunk", [1, 7, 64, 1000])
def test_block_sums_chunks_end_mid_grid(chunk, rng, monkeypatch):
    monkeypatch.setattr(summation, "_CHUNK_BLOCKS", chunk)
    _same_block_sums(_unit_prefix(600, rng), range(1, 601))
    _same_block_sums(_unit_prefix(600, rng), [5, 77, 78, 400, 599, 600])


def _zero_runs(n, rng):
    """Prefixes made of runs of 0.0, -0.0 and a few nonzero values."""
    runs = {
        "zeros": np.zeros(n + 1),
        "negative zeros": np.full(n + 1, -0.0),
        "mixed zeros": rng.choice([0.0, -0.0], n + 1),
        "runs": np.repeat(rng.choice([0.0, -0.0, 1.0, -2.5], n // 8 + 1), 8)[: n + 1],
    }
    for re_name, re in runs.items():
        for im_name, im in runs.items():
            z = np.empty(n + 1, dtype=np.complex128)
            z.real = re
            z.imag = im
            yield f"{re_name} + i {im_name}", z


def test_block_sums_signed_zero_runs(rng):
    for case, prefix in _zero_runs(300, rng):
        _same_block_sums(prefix, range(1, 301), case)
        _same_block_sums(prefix, [1, 2, 299], case)


def test_block_sums_inf_nan_and_overflow(rng):
    n = 400
    base = _unit_prefix(n, rng)
    specials = (
        (math.inf, 0.0),
        (-math.inf, 0.0),
        (0.0, math.inf),
        (math.nan, 0.0),
        (0.0, math.nan),
        (1e308, -1e308),
        (2.0**960, 0.0),
        (np.finfo(np.float64).max, 1.0),
    )
    for re, im in specials:
        for at in (1, 17, 200, n):
            prefix = base.copy()
            prefix[at] = complex(re, im)
            _same_block_sums(prefix, range(1, n + 1))
            for m in (at, at + 1, n):
                if m <= n:
                    _same_block_sums(prefix, [m])
    grown = base * 1e305  # terms overflow or reach the exponent guard
    _same_block_sums(grown, range(1, n + 1))
    _same_block_sums(grown, [n])


@settings(max_examples=60, deadline=None)
@given(special_lists)
def test_block_sums_hypothesis(values):
    prefix = np.cumsum(np.array([0j, *values], dtype=np.complex128))
    _same_block_sums(prefix, range(1, prefix.size))


def test_block_sums_rejects_points_outside_the_prefix():
    prefix = np.zeros(10, dtype=np.complex128)
    assert block_sums(prefix, []) == []
    for grid in ([0], [10], [3, -1]):
        with pytest.raises(ValueError):
            block_sums(prefix, grid)


# -- sequence prefixes and the F_t partial sum ----------------------------


def _prefixes_ref(a):
    a = np.array(a, dtype=np.complex128)
    a[0] = 0
    return np.cumsum(a), np.cumsum(a * log_index(a.size - 1))


def test_sequence_prefixes_match_complex_formulas(table_medium, rng):
    for n in (1, 2, 3, 100, 4097, 10**5):
        for kind in KINDS:
            a = _input(kind, n, rng).astype(np.complex128)
            if kind.endswith("complex"):
                a.imag[rng.random(n + 1) < 0.2] = -0.0
            a[rng.random(n + 1) < 0.1] = complex(-0.0, -0.0)
            for seq in (CoefficientSequence.from_index_aligned(a), CoefficientSequence.from_values(a[1:])):
                pa, pl = _prefixes_ref(np.concatenate([[0j], a[1:]]))
                _same_bits(seq.prefix_a, pa)
                _same_bits(seq.prefix_alog, pl)
    mu = table_medium.mobius_array
    seq = named_sequence("mu", 10**5, table_medium)
    _same_bits(seq.a, mu.astype(np.complex128))
    for got, ref in zip((seq.prefix_a, seq.prefix_alog), _prefixes_ref(mu)):
        _same_bits(got, ref)


def _ft_partial_sum_ref(table, x, t):
    xf = int(math.floor(x))
    mu = table.mobius_array[1 : xf + 1]
    nz = np.nonzero(mu)[0]
    d = (nz + 1).astype(np.float64)
    return math.fsum((mu[nz] * d**-t * (xf // (nz + 1))).tolist())


def test_ft_partial_sum_matches_per_call_setup(table_medium):
    xs = (1.0, 2.5, 1000.0, 1e4, 1000.7, 99_999.0, 3.0, 7.0, 1000.0)
    for t in (0.05, 0.5, 1.0, 2.75):
        for x in xs:  # more distinct x than the table caches
            assert ft_partial_sum(table_medium, x, t) == _ft_partial_sum_ref(table_medium, x, t)
    mu, d, q = table_medium.mobius_quotients(1000)
    assert not (mu.flags.writeable or d.flags.writeable or q.flags.writeable)
