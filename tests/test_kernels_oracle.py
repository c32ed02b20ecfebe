"""Bit-identity of the sieve, divisor-lattice, Mobius, f_t, summation and
quadrature kernels against the straightforward code they replaced: a
masked store per prime into an int64 SPF table, one strided slice-add
per nonzero index, one sign flip or factor per prime, math.fsum over a
list, one Python loop iteration per floor-quotient block, separate
copies of the (0, inf) substitution and of the Euler-Maclaurin tail, and
per-prime loops that call MultiplicativeSpec.value_at and skip f(p) = 1
themselves."""

import ast
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import inghamsum as ig
from inghamsum import a_from_f, accumulate, dirichlet, quadrature, sequences, sieve, summation, sum_over_divisors, verify
from inghamsum.accumulate import csum, rsum
from inghamsum.cli import _coeffs_builder, parse_grid
from inghamsum.dirichlet import _EM_COEFFS, f_t_table, ft_partial_sum
from inghamsum.errors import SingularFactorError
from inghamsum.quadrature import QUAD_TOL, TAIL_TOL
from inghamsum.report import ReportRow
from inghamsum.sequences import CoefficientSequence, log_index, named_sequence
from inghamsum.summation import block_sums

from conftest import random_unit_complex, traced_peak

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


def _same_real_bits(x, ref):
    """A float64 lattice x against the complex128 reference: x holds the
    bits of its real parts, and its imaginary parts are all +0.0."""
    assert x.dtype == np.float64 and ref.dtype == np.complex128
    assert x.tobytes() == ref.real.tobytes()
    assert ref.imag.tobytes() == bytes(8 * ref.size)


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
    _same_real_bits(sum_over_divisors(re, dtype=np.float64), _sum_over_divisors_ref(re))


@settings(max_examples=60, deadline=None)
@given(special_lists)
def test_a_from_f_hypothesis(table_medium, values):
    f = np.array([0j, *values], dtype=np.complex128)
    _same_bits(a_from_f(table_medium, f).a, _a_from_f_ref(table_medium.mobius_array, f))


def _build_sieve_ref(limit):
    """spf and primes by an int64 table: every p <= sqrt(limit) left
    unmarked stores itself on the unmarked multiples from p^2 up."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    for i in range(2, math.isqrt(limit) + 1):
        if spf[i] == 0:
            block = spf[i * i :: i]
            block[block == 0] = i
    idx = np.arange(limit + 1, dtype=np.int64)
    unmarked = (spf == 0) & (idx >= 2)
    spf[unmarked] = idx[unmarked]
    return spf, np.nonzero((spf == idx) & (idx >= 2))[0].astype(np.int64)


def _spf_ref(table):
    """spf as one int32 table: each p <= sqrt(limit), in descending order,
    stores p on its multiples from p^2 up, then each prime stores itself."""
    n = table.limit
    spf = np.zeros(n + 1, dtype=np.int32)
    split = int(np.searchsorted(table.primes, math.isqrt(n), "right"))
    for p in table.primes[:split][::-1].tolist():
        spf[p * p :: p] = p
    spf[table.primes] = table.primes
    return spf


def _mangoldt_ref(table):
    """Lambda as one table: np.log at the primes, math.log(p) at the
    higher powers of p."""
    lam = np.zeros(table.limit + 1, dtype=np.float64)
    lam[table.primes] = np.log(table.primes.astype(np.float64))
    root = math.isqrt(table.limit)
    for p in table.primes[table.primes <= root].tolist():
        logp = math.log(p)
        pk = p * p
        while pk <= table.limit:
            lam[pk] = logp
            pk *= p
    return lam


def _mobius_product_ref(table):
    """mu from the primes p <= sqrt(limit) and an integer product of the
    small prime divisors: a squarefree m whose product falls short of m
    has one more prime factor."""
    n = table.limit
    mu = np.ones(n + 1, dtype=np.int8)
    mu[0] = 0
    small = np.ones(n + 1, dtype=np.int64)
    for p in table.primes[table.primes <= math.isqrt(n)].tolist():
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
        small[p::p] *= p
    np.negative(mu, out=mu, where=small != np.arange(n + 1))
    return mu


def _f_t_table_ref(table, t, n):
    values = np.ones(n + 1, dtype=np.float64)
    values[0] = 0.0
    for p in table.primes[table.primes <= n].tolist():
        values[p::p] *= 1.0 - float(p) ** -t
    return values


_PRIME_ROOTS = (2, 3, 5, 7, 11, 13, 31, 97, 101, 313, 317, 997)
SIEVE_LIMITS = sorted(
    set(range(2, 401)) | {r * r + e for r in _PRIME_ROOTS for e in (-1, 0, 1)} | {10**5, 10**6}
)


def test_build_sieve_matches_masked_int64_loop():
    for n in SIEVE_LIMITS:
        table = ig.build_sieve(n)
        spf, primes = _build_sieve_ref(n)
        assert table.spf.dtype == np.int32 and table.primes.dtype == np.int64, n
        assert np.array_equal(table.spf, spf), n
        assert np.array_equal(table.primes, primes), n
        assert not (table.spf.flags.writeable or table.primes.flags.writeable)


def _same_array(got, ref):
    return got.dtype == ref.dtype and np.array_equal(got.view(np.uint8), ref.view(np.uint8))


@pytest.mark.parametrize("segment", [7, 64, sieve.SEGMENT])
def test_sieve_segments_match_whole_table_loops(monkeypatch, segment):
    # Each segment's m, spf, mu, Lambda and Psi against the whole-table
    # loops, bit for bit and in dtype; limits that end a segment, one
    # before that, and all of SIEVE_LIMITS for the segments in use.
    default = segment == sieve.SEGMENT
    limits = set(SIEVE_LIMITS) if default else {n for n in SIEVE_LIMITS if n <= 2000}
    monkeypatch.setattr(sieve, "SEGMENT", segment)
    for n in sorted(limits | {k * segment + e for k in (1, 2, 3) for e in (0, 1)}):
        table = ig.build_sieve(n)
        lam = _mangoldt_ref(table)
        refs = (np.arange(n + 1, dtype=np.int64), _spf_ref(table), _mobius_ref(table), lam, np.cumsum(lam))
        lo = 2
        for columns in table.segments():
            hi = min(lo + segment, n + 1)
            for got, ref in zip(columns, refs, strict=True):
                assert _same_array(got, ref[lo:hi]), (n, lo)
            lo = hi
        assert lo == n + 1, n
        if default:
            assert _same_array(table.mangoldt_array, lam), n
            assert _same_array(table.psi_prefix, refs[-1]), n
            assert _same_array(table.spf, refs[1]), n


def test_mobius_array_matches_all_prime_loop():
    for n in sorted((set(SIZES) | set(SIEVE_LIMITS)) - {1}):
        table = ig.build_sieve(n)
        assert np.array_equal(table.mobius_array, _mobius_ref(table)), n
        assert np.array_equal(table.mobius_array, _mobius_product_ref(table)), n


# Squares and non-squares, n = table.limit and below it, and n = 1008
# just below 1009, the smallest prime above sqrt(table.limit): every
# prime the table keeps above its own square root then exceeds n.
FT_NS = (10**6, 999_999, 998_001, 10**5, 1009, 1008, 1000, 26, 25, 24, 4, 3, 2, 1)


@pytest.mark.parametrize("t", [1e-3, 1e-2, 0.1, 1.0, 10.0, 60.0])
def test_f_t_table_matches_all_prime_loop(t, table_big):
    for n in FT_NS:
        ft = f_t_table(table_big, t, n)
        ref = _f_t_table_ref(table_big, t, n)
        assert np.array_equal(ft.values.view(np.uint64), ref.view(np.uint64)), n
        assert np.array_equal(ft.prefix.view(np.uint64), np.cumsum(ref).view(np.uint64)), n


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


def test_sums_over_several_runs_of_bucket_sums_match_fsum(rng, monkeypatch):
    # The running bucket sums start over after _RUN terms (2**26).
    monkeypatch.setattr(accumulate, "_CHUNK", 1000)
    monkeypatch.setattr(accumulate, "_RUN", 2500)
    for n in (2500, 2501, 7777):
        for name, x in _summands(n, rng).items():
            _same_sums(x)


def test_csum_of_a_complex_array_copies_no_part_whole(rng):
    z = rng.standard_normal(10**6) + 1j * rng.standard_normal(10**6)
    value, peak = traced_peak(lambda: csum(z))
    assert value == _csum_ref(z)
    # One part of z is 8 MB; the chunks copied one at a time take 0.5 MB.
    assert peak < 4 * 2**20, peak


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


def _seq_prefixes(seq):
    """The whole prefix arrays of a_m and a_m log m of a sequence, with
    the arithmetic of the prefix arrays a sequence once cached (real
    storage stays real)."""
    with np.errstate(invalid="ignore", over="ignore"):
        return np.cumsum(seq.a), np.cumsum(sequences.times_log(seq.a, log_index(seq.length)))


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
    grid = parse_grid("1e3:1e6:x1.002")
    for prefix in _seq_prefixes(named_sequence("mu", 10**6, table_big)):
        _same_block_sums(prefix, grid)


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


def _block_sum_tolist_ref(prefix, n):
    """_block_sum as it was when its two rows went to math.fsum as
    Python lists."""
    r = math.isqrt(n)
    k = np.concatenate((np.arange(r + 1), n // np.arange(n // (r + 1), 0, -1)))
    ends = prefix[k]
    re, im = ends.real, ends.imag
    q = (n // k[1:]).astype(np.float64)
    re, im = summation._block_terms(re[1:] - re[:-1], im[1:] - im[:-1], q).tolist()
    return complex(math.fsum(re), math.fsum(im))


def _raw_block_outcome(fn):
    """The exact (re, im) bits of fn(), nan payloads and signed zeros
    included, or the type of the exception it raised."""
    try:
        value = fn()
    except (ValueError, OverflowError) as exc:
        return type(exc)
    return np.array([value.real, value.imag]).view(np.uint64).tolist()


def _same_as_tolist(prefix, points, case):
    for n in points:
        got = _raw_block_outcome(lambda: summation._block_sum(prefix, n))
        assert got == _raw_block_outcome(lambda: _block_sum_tolist_ref(prefix, n)), (case, n)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the inf and nan prefixes
def test_block_sum_matches_tolist_every_n_to_3000(rng):
    n = 3000
    real = np.cumsum(rng.standard_normal(n + 1))
    cases = {"real": real, "complex": _unit_prefix(n, rng)}
    zeros = np.empty(n + 1, dtype=np.complex128)  # zero real parts: signed-zero real terms
    zeros.real = rng.choice([0.0, -0.0], n + 1)
    zeros.imag = np.cumsum(rng.choice([0.0, -0.0, 1.0, -1.0], n + 1))
    cases["signed zeros"] = zeros
    cases["negative zeros"] = np.full(n + 1, -0.0)
    for value in (math.inf, -math.inf, math.nan):
        for at in (1, 17, 1500, n):
            for name, base in (("real", real), ("complex", cases["complex"])):
                prefix = base.copy()
                prefix[at] = value
                cases[f"{name} {value} at {at}"] = prefix
        prefix = cases["complex"].copy()
        prefix[[40, 41]] = complex(0.0, value), complex(value, value)
        cases[f"complex {value} parts"] = prefix
    for case, prefix in cases.items():
        _same_as_tolist(prefix, range(1, n + 1), case)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the inf and nan prefixes
def test_block_sum_matches_tolist_near_1e6(rng):
    n = 10**6
    points = (999_983, 999_999, 10**6)
    real = np.cumsum(rng.standard_normal(n + 1))
    _same_as_tolist(real, points, "real")
    prefix = real.copy()
    prefix[[10, 500_000]] = math.inf, math.nan
    _same_as_tolist(prefix, points, "real inf and nan")
    del real, prefix
    base = _unit_prefix(n, rng)
    _same_as_tolist(base, points, "complex")
    base[[10, 500_000]] = complex(0.0, -math.inf), complex(math.nan, 0.0)
    _same_as_tolist(base, points, "complex inf and nan")


# -- batch_sums: prefix sums gathered at the block ends -------------------


def _same_batch_sums(a, grid, case=""):
    """batch_sums on a fresh sequence of the index-aligned coefficients a
    against block_sums over its whole prefix arrays: every A, then every
    S, bit for bit, or the same exception."""
    seq = CoefficientSequence.from_index_aligned(a)

    def streamed():
        values = ig.batch_sums(seq, grid)
        return [v.A for v in values] + [v.S for v in values]

    pa, pl = _seq_prefixes(seq)
    assert _block_outcome(streamed) == _block_outcome(lambda: block_sums(pa, grid) + block_sums(pl, grid)), case


BATCH_GRIDS = ([1], [2], [600], range(1, 601), [5, 77, 78, 400, 599, 600])


@pytest.mark.parametrize("terms", [None, 1, 7, 64, 257])
def test_batch_sums_match_block_sums_over_whole_prefixes(terms, rng, monkeypatch):
    if terms is not None:  # block ends fall on chunk edges
        monkeypatch.setattr(summation, "_CHUNK_TERMS", terms)
    real = rng.standard_normal(601)
    complex_ = np.exp(2j * np.pi * rng.random(601))
    for grid in BATCH_GRIDS:
        _same_batch_sums(real, grid, "real")
        _same_batch_sums(complex_, grid, "complex")
    monkeypatch.setattr(summation, "_CHUNK_BLOCKS", 64)
    _same_batch_sums(complex_, range(1, 601), "short passes")


@pytest.mark.parametrize("terms", [None, 5])
def test_batch_sums_signed_zero_runs(terms, rng, monkeypatch):
    if terms is not None:
        monkeypatch.setattr(summation, "_CHUNK_TERMS", terms)
    for case, a in _zero_runs(300, rng):
        _same_batch_sums(a, range(1, 301), case)
        _same_batch_sums(a, [1, 2, 299], case)
        _same_batch_sums(a.real.copy(), [1, 64, 300], f"{case}, real part")


def test_batch_sums_inf_nan_and_overflow(rng, monkeypatch):
    monkeypatch.setattr(summation, "_CHUNK_TERMS", 16)
    n = 300
    base = np.exp(2j * np.pi * rng.random(n + 1))
    specials = ((math.inf, 0.0), (-math.inf, 0.0), (0.0, math.inf), (math.nan, 0.0), (1e308, -1e308), (2.0**960, 0.0))
    for re, im in specials:
        for at in (1, 16, 17, n):
            a = base.copy()
            a[at] = complex(re, im)
            for grid in (range(1, n + 1), [at], [n]):
                _same_batch_sums(a, grid, (re, im, at))
            if im == 0.0:
                _same_batch_sums(a.real.copy(), range(1, n + 1), (re, at, "real"))
    _same_batch_sums(base * 1e305, range(1, n + 1), "terms overflow")
    _same_batch_sums(base.real * 1e307, range(1, n + 1), "prefixes overflow")
    # Only S overflows (A gives values), or S fails at a smaller n than A:
    # with short passes, S fails in an earlier pass than A does, and the
    # outcome is still that of block_sums over A, then over S.
    for seed, first_a, first_s in ((0, None, 216), (4, 206, 222), (2, 117, 174)):
        a = np.random.default_rng(seed).standard_normal(n + 1) * 1e306
        a[150], a[151] = 1e308, -1e308
        seq = CoefficientSequence.from_index_aligned(a)
        for prefix, first in zip(_seq_prefixes(seq), (first_a, first_s)):
            fails = [m for m in range(1, n + 1) if _block_outcome(lambda: block_sums(prefix, [m])) is OverflowError]
            assert fails[:1] == ([first] if first else []), seed
        for blocks in (64, 1 << 14):
            monkeypatch.setattr(summation, "_CHUNK_BLOCKS", blocks)
            _same_batch_sums(a, range(1, n + 1), (seed, blocks))


@pytest.mark.parametrize("name", ["mu", "liouville"])
def test_batch_sums_dense_grid_at_1e6(name, table_big):
    seq = named_sequence(name, 10**6, table_big)
    _same_batch_sums(seq.a, parse_grid("1e3:1e6:x1.002"), name)
    _same_batch_sums(seq.a, [999_983, 10**6], name)


# -- _grid_sums: sorted block ends on sparse grids, the int32 map on dense ---


@pytest.fixture(scope="module")
def route_sequences():
    """An int8 mu up to 3e6, a float64 sequence up to 1e6, complex ones
    up to 2e5 with signed zeros, inf and nan among their values, and a
    float64 one whose sums overflow (ValueError and OverflowError)."""
    rng = np.random.default_rng(29)
    mu = named_sequence("mu", 3 * 10**6, ig.build_sieve(3 * 10**6))
    real = CoefficientSequence.from_values(rng.standard_normal(10**6))
    z = np.exp(2j * np.pi * rng.random(2 * 10**5 + 1))
    z[rng.random(z.size) < 0.05] = complex(-0.0, -0.0)
    z.imag[rng.random(z.size) < 0.05] = -0.0
    special = z.copy()
    special[[150_001, 150_002, 170_000]] = (complex(math.inf, 0.0), complex(math.nan, -0.0), complex(0.0, -math.inf))
    huge = rng.standard_normal(2 * 10**5 + 1) * 1e306
    huge[150], huge[151] = 1e308, -1e308  # S overflows from n = 216 on
    return {
        "mu": mu,
        "float64": real,
        "float64, overflow": CoefficientSequence.from_index_aligned(huge),
        "complex, signed zeros": CoefficientSequence.from_index_aligned(z),
        "complex, inf and nan": CoefficientSequence.from_index_aligned(special),
    }


def _route_grids(top):
    """Sparse grids up to top, single points on both sides of the rule,
    and small dense grids."""
    return [
        [top],
        [1],
        [232],  # 29 blocks: the map
        [233],  # 29 blocks: sorted
        [240],  # 30 blocks: the map
        [10**5, top // 3, top],
        [1, 2, 3, 1000, top - 1, top],
        parse_grid(f"1e2:{top}:x10"),
        parse_grid(f"{top // 4}:{top}:x1.05"),
        range(1, 1001),
        parse_grid("1e3:1e5:x1.01"),
    ]


# The rule as the library sets it; the tests force a route with 0 (sort
# every grid) or 10**18 (map every grid).
SPARSE = summation._SPARSE


def _blocks(grid):
    return sum(math.isqrt(n) + n // (math.isqrt(n) + 1) for n in grid)


@pytest.fixture()
def sorted_calls(monkeypatch):
    """The calls of summation._distinct, which only the sort route makes."""
    calls = []
    distinct = summation._distinct
    monkeypatch.setattr(summation, "_distinct", lambda ends: calls.append(1) or distinct(ends))
    return calls


def _routed(seq, grid, parts, sparse, monkeypatch):
    """The outcomes of _grid_sums with _SPARSE set to sparse."""
    monkeypatch.setattr(summation, "_SPARSE", sparse)
    return [_block_outcome(lambda: summation._raised(o)) for o in summation._grid_sums(seq, grid, parts)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the inf and nan inputs
@pytest.mark.parametrize("name", ["mu", "float64", "float64, overflow", "complex, signed zeros", "complex, inf and nan"])
def test_sorted_block_ends_match_the_map(name, route_sequences, sorted_calls, monkeypatch):
    seq = route_sequences[name]
    for grid in _route_grids(seq.length):
        grid = sorted(set(grid))
        for parts in ("AS", "A", "S"):
            case = (name, grid[:3], len(grid), parts)
            sorted_calls.clear()
            rule = _routed(seq, grid, parts, SPARSE, monkeypatch)
            assert bool(sorted_calls) == (_blocks(grid) * SPARSE < grid[-1]), case
            assert _routed(seq, grid, parts, 0, monkeypatch) == _routed(seq, grid, parts, 10**18, monkeypatch) == rule, case
    # The map route is block_sums over the whole prefix arrays on the
    # sequences up to 2e5, exceptions included.
    if seq.length <= 2 * 10**5:
        for grid in ([seq.length], [10**5, 150_001, seq.length], parse_grid(f"1e2:{seq.length}:x10")):
            _same_batch_sums(seq.a, grid, (name, grid))


def test_the_rule_sorts_sparse_grids_and_maps_dense_ones():
    # theorem2-mu's grid against ingham-mu-dense's and sdecomp's.
    def sorts(grid):
        return _blocks(grid) * SPARSE < max(grid)

    assert sorts(parse_grid("1e5:1e7:x10"))
    assert sorts([10**6]) and sorts([233]) and not sorts([232])
    assert not sorts(parse_grid("1e3:1e6:x1.002"))
    assert not sorts(range(1, 5001))


@pytest.mark.parametrize("n", [233, 999_983, 3 * 10**6])
def test_one_point_sums_sorted_match_the_map(n, route_sequences, monkeypatch):
    seq = route_sequences["mu"]
    for fn in (ig.ingham_A, ig.ingham_S):
        monkeypatch.setattr(summation, "_SPARSE", SPARSE)
        got = _block_outcome(lambda: fn(seq, n))
        monkeypatch.setattr(summation, "_SPARSE", 10**18)
        assert got == _block_outcome(lambda: fn(seq, n)), (fn.__name__, n)


def test_sorted_block_ends_hold_no_map():
    # The int32 map of [1e5, 1e6, 4e6] is 16 MB; the sorted ends of its
    # 6,322 blocks, with the gathered prefix sums and the passes, took
    # 1.26 MiB (the map route 16.5 MiB).
    mu = named_sequence("mu", 4 * 10**6, ig.build_sieve(4 * 10**6))
    summation._grid_sums(mu, [10**5], "AS")  # numpy's sort set-up
    _, peak = traced_peak(lambda: summation._grid_sums(mu, [10**5, 10**6, 4 * 10**6], "AS"))
    assert peak < 3 * 2**20, peak


def _same_one_point_sums(a, points, case=""):
    """ingham_A and ingham_S at each point against _block_sum over the
    whole prefix arrays: bit for bit, or the same exception, each with
    its own outcome whatever the other sum does."""
    seq = CoefficientSequence.from_index_aligned(a)
    for fn, prefix in zip((ig.ingham_A, ig.ingham_S), _seq_prefixes(seq)):
        for n in points:
            expected = _block_outcome(lambda: summation._block_sum(prefix, n))
            assert _block_outcome(lambda: fn(seq, n)) == expected, (case, fn.__name__, n)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the inf and nan inputs
def test_one_point_sums_match_block_sum_over_whole_prefixes(rng, monkeypatch):
    monkeypatch.setattr(summation, "_CHUNK_TERMS", 16)
    n = 300
    points = (1, 2, 15, 16, 17, 97, 150, 151, 299, n)
    real = rng.standard_normal(n + 1)
    base = np.exp(2j * np.pi * rng.random(n + 1))
    _same_one_point_sums(real, points, "real")
    _same_one_point_sums(base, points, "complex")
    for case, a in _zero_runs(40, rng):
        _same_one_point_sums(a, range(1, 41), case)
    specials = ((math.inf, 0.0), (-math.inf, 0.0), (0.0, math.inf), (math.nan, 0.0), (1e308, -1e308), (2.0**960, 0.0))
    for re, im in specials:
        for at in (1, 16, 17, n):
            a = base.copy()
            a[at] = complex(re, im)
            _same_one_point_sums(a, (at, at + 1, n) if at < n else (n,), (re, im, at))
            if im == 0.0:
                _same_one_point_sums(a.real.copy(), (at, n), (re, at, "real"))
    _same_one_point_sums(base * 1e305, points, "terms overflow")
    _same_one_point_sums(base.real * 1e307, points, "prefixes overflow")


def test_one_point_sums_keep_their_own_outcome():
    # Only S overflows from n = 216 on, while A gives values: batch_sums
    # raises S's OverflowError, and ingham_A still gives A(n).
    n = 300
    a = np.random.default_rng(0).standard_normal(n + 1) * 1e306
    a[150], a[151] = 1e308, -1e308
    _same_one_point_sums(a, (215, 216, n), "only S overflows")
    seq = CoefficientSequence.from_index_aligned(a)
    with pytest.raises(OverflowError):
        ig.batch_sums(seq, [n])
    assert ig.ingham_A(seq, n) == summation._block_sum(_seq_prefixes(seq)[0], n)
    # Only A overflows at n = 2 (8e307 * 2 + 8e307), while S(2) is finite.
    a = np.array([0.0, 8e307, 8e307])
    _same_one_point_sums(a, (1, 2), "only A overflows")
    seq = CoefficientSequence.from_index_aligned(a)
    with pytest.raises(OverflowError):
        ig.ingham_A(seq, 2)
    assert ig.ingham_S(seq, 2) == complex(8e307 * math.log(2), 0.0)


# -- grid readers of A(n): theorem1 and wintner -----------------------------


def _theorem1_report_ref(a, grid, envelope):
    """theorem1_report with one A(n) per n, from _block_sum over the whole
    prefix array."""
    prefix = _seq_prefixes(a)[0]
    means = []
    for n in grid:
        if n < 2:
            raise ValueError(f"n must be >= 2, got {n}")
        means.append(summation._block_sum(prefix, n) / n)
    gs = ig.g_eval(a, [1.0 + 1.0 / math.log(n) for n in grid], a.length)
    values = [(n, mean, None, abs(mean - g)) for n, mean, g in zip(grid, means, gs)]
    return verify._theorem1_report(values, envelope)


def _check_wintner_ref(a, prefix, n):
    """check_wintner at one point: its own terms up to n, and A(n) from
    _block_sum over the whole prefix array."""
    if not 1 <= n <= a.length:
        raise ValueError(f"n = {n} outside [1, {a.length}]")
    k = np.arange(1, n + 1, dtype=np.float64)
    vals = a.a[1 : n + 1]
    abs_sum = rsum(np.abs(vals) / k)
    target = csum(vals / k if np.iscomplexobj(vals) else vals * (1.0 / k))
    mean = summation._block_sum(prefix, n) / n
    return verify.WintnerResult(abs_sum, target, mean, abs(mean - target))


def _report_bytes(report):
    return b"".join(report.chunks("json")) + b"".join(report.chunks("csv"))


def _grid_reader_sequences(table, tmp_path, n):
    values = np.random.default_rng(16).standard_normal((n, 2))
    values /= np.maximum(np.hypot(values[:, 0], values[:, 1]), 1.0)[:, None]
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps({"type": "coefficients", "values": values.tolist()}))
    yield "mu", named_sequence("mu", n, table)
    yield "inverse-squares", named_sequence("inverse-squares", n, table)
    yield "coefficient file", _coeffs_builder(str(path), n)(lambda: table)


@pytest.mark.parametrize("chunk", [None, 4096])
def test_theorem1_and_wintner_match_per_point_readers(chunk, table_medium, tmp_path, monkeypatch):
    if chunk is not None:  # grid points fall on chunk edges of both passes
        monkeypatch.setattr(summation, "_CHUNK_TERMS", chunk)
        monkeypatch.setattr(accumulate, "_CHUNK", chunk)
    n = 60_000
    sparse = [2, 3, 97, 1000, 4096, 4097, 59_999, n]
    for name, seq in _grid_reader_sequences(table_medium, tmp_path, n):
        prefix = _seq_prefixes(seq)[0]
        for grid in ([1], [2], [n], [1, 2, 3], sparse, [1, *sparse], parse_grid(f"1:{n}:x1.05")):
            case = (name, grid[:3], len(grid))
            ref = [_check_wintner_ref(seq, prefix, m) for m in grid]
            assert _bits(verify._wintner(seq, grid)) == _bits(ref), case
            assert _bits(ig.check_wintner(seq, grid[-1])) == _bits(ref[-1]), case
            rows = [ReportRow(n=m, mean=r.mean, g=r.target, residual_t1=r.residual) for m, r in zip(grid, ref)]
            expected = verify.VerificationReport("verify-wintner", rows, {"max_residual": max(r.residual for r in ref)})
            assert _report_bytes(verify.wintner_report(seq, grid)) == _report_bytes(expected), case
            if grid[0] < 2:
                with pytest.raises(ValueError, match="n must be >= 2"):
                    verify.theorem1_report(seq, grid, 0.6)
                continue
            got = verify.theorem1_report(seq, grid, 0.6)
            assert _report_bytes(got) == _report_bytes(_theorem1_report_ref(seq, grid, 0.6)), case


def test_theorem1_forms_no_weighted_term(table_medium, monkeypatch):
    # Theorem 1 reads A(n) alone: with a_m log m unavailable, the report
    # and the one-point residual keep their bits.
    mu = named_sequence("mu", 100_000, table_medium)
    grid = parse_grid("2:100000:x3")
    expected = _report_bytes(_theorem1_report_ref(mu, grid, 0.6))
    residuals = {
        n: abs(ig.ingham_A(mu, n) / n - ig.g_eval(mu, 1 + 1 / math.log(n), mu.length))
        for n in (2, 1000, 100_000)
    }

    def boom(*args):
        raise AssertionError("a_m log m formed")

    monkeypatch.setattr(summation, "times_log", boom)
    assert _report_bytes(verify.theorem1_report(mu, grid, 0.6)) == expected
    for n, r in residuals.items():
        assert repr(ig.theorem1_residual(mu, n)) == repr(r), n


@pytest.mark.parametrize("name", ["mu", "inverse-squares"])
def test_wintner_at_every_n_matches_per_point_reader(name, table_small):
    # a_k / k and a_k * (1/k) round apart for a few k, which changes the
    # rounded sum at some n: every n to 3000 shows which one is formed.
    seq = named_sequence(name, 3000, table_small)
    prefix = _seq_prefixes(seq)[0]
    ref = [_check_wintner_ref(seq, prefix, m) for m in range(1, 3001)]
    assert _bits(verify._wintner(seq, range(1, 3001))) == _bits(ref)


def _check_axer_ref(a, grid):
    """check_axer from the whole prefix array of |a_k|."""
    grid = np.asarray([int(n) for n in grid])
    prefix_abs = np.cumsum(np.abs(a.a))
    return prefix_abs[grid] / grid


@pytest.mark.parametrize("chunk", [None, 4096])
def test_axer_matches_whole_prefix_array(chunk, table_medium, tmp_path, monkeypatch):
    if chunk is not None:  # grid points fall on chunk edges
        monkeypatch.setattr(summation, "_CHUNK_TERMS", chunk)
    n = 60_000
    sparse = [2, 3, 97, 1000, 4095, 4096, 4097, 59_999, n]
    seqs = [("liouville", named_sequence("liouville", n, table_medium)), *_grid_reader_sequences(table_medium, tmp_path, n)]
    for name, seq in seqs:
        for grid in ([1], [n], [1, 2, 3], sparse, [1, *sparse], parse_grid(f"1:{n}:x1.05"), range(1, n + 1)):
            got = ig.check_axer(seq, grid)
            assert got.dtype == np.float64, name
            assert _bits(got) == _bits(_check_axer_ref(seq, grid)), (name, len(grid))


# -- sequence prefixes and the F_t partial sum ----------------------------


def _prefixes_ref(a):
    a = np.array(a, dtype=np.complex128)
    a[0] = 0
    return np.cumsum(a), np.cumsum(a * log_index(a.size - 1))


def _gathered(seq):
    """The prefix sums that batch_sums gathers, read at every end 0..N."""
    return summation._prefixes_at(seq.a, np.arange(seq.length + 1))


def test_prefixes_of_one_part_match_both_parts(table_medium, rng, monkeypatch):
    monkeypatch.setattr(summation, "_CHUNK_TERMS", 4096)
    n = 20_000
    ends = np.unique(rng.integers(0, n + 1, 500))
    for a in (named_sequence("mu", n, table_medium).a, _input("dense-complex", n, rng).astype(np.complex128)):
        both = summation._prefixes_at(a, ends)
        # int8 mu is summed in float64.
        assert [p.dtype for p in both] == [np.result_type(a.dtype, np.float64)] * 2
        for part, ref in zip("AS", both):
            (got,) = summation._prefixes_at(a, ends, part)
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), part


def test_sequence_prefixes_match_complex_formulas(table_medium, rng):
    for n in (1, 2, 3, 100, 4097, 10**5):
        for kind in KINDS:
            a = _input(kind, n, rng).astype(np.complex128)
            if kind.endswith("complex"):
                a.imag[rng.random(n + 1) < 0.2] = -0.0
            a[rng.random(n + 1) < 0.1] = complex(-0.0, -0.0)
            for seq in (CoefficientSequence.from_index_aligned(a), CoefficientSequence.from_values(a[1:])):
                pa, pl = _prefixes_ref(np.concatenate([[0j], a[1:]]))
                for got, ref in zip(_gathered(seq), (pa, pl)):
                    _same_bits(got, ref)
    # mu is stored as int8 and summed in float64: its sums are the real
    # parts of the complex formulas, whose imaginary parts are all +0.0.
    mu = table_medium.mobius_array
    seq = named_sequence("mu", 10**5, table_medium)
    assert seq.a.dtype == np.int8
    for got, ref in zip((seq.a.astype(np.float64), *_gathered(seq)), (mu.astype(np.complex128), *_prefixes_ref(mu))):
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), np.ascontiguousarray(ref.real).view(np.uint64))
        assert np.array_equal(np.ascontiguousarray(ref.imag).view(np.uint64), np.zeros(ref.size, np.uint64))


def _ft_partial_sum_ref(table, x, t):
    xf = int(math.floor(x))
    mu = table.mobius_array[1 : xf + 1]
    nz = np.nonzero(mu)[0]
    d = (nz + 1).astype(np.float64)
    return math.fsum((mu[nz] * d**-t * (xf // (nz + 1))).tolist())


def test_ft_partial_sum_matches_per_call_setup(table_medium):
    xs = (1.0, 2.5, 1000.0, 1e4, 1000.7, 99_999.0, 3.0, 7.0, 1000.0)
    for t in (0.05, 0.5, 1.0, 2.75):
        for x in xs:
            assert ft_partial_sum(table_medium, x, t) == _ft_partial_sum_ref(table_medium, x, t)


def test_log_index_in_place_matches_fresh_array():
    for n in (0, 1, 2, 3, 100, 4097, 10**5):
        ref = np.zeros(n + 1)
        ref[1:] = np.log(np.arange(1, n + 1, dtype=np.float64))
        assert np.array_equal(log_index(n).view(np.uint64), ref.view(np.uint64)), n


# -- the streamed Dirichlet sum -----------------------------------------


def _g_eval_ref(a, sigma, K):
    """g_eval as one unchunked csum over all the terms."""
    m = np.arange(1, K + 1, dtype=np.float64)
    return csum(a.a[1 : K + 1] * m**-sigma)


def _same_g(seq, sigma, truncation=None, case=""):
    K = truncation or seq.length
    got = _block_outcome(lambda: ig.g_eval(seq, sigma, K))
    assert got == _block_outcome(lambda: _g_eval_ref(seq, sigma, K)), (case, sigma)


G_SIZES = (1, 639, 640, 2**16 - 1, 2**16, 2**16 + 1, 10**5)


def _g_sigmas(n):
    return (2.0, 1.25) + ((1.0 + 1.0 / math.log(n),) if n > 1 else ())


def _g_inputs(n, rng):
    """Named real and complex coefficient arrays of length n."""
    re = rng.standard_normal(n) * np.exp2(rng.integers(-40, 40, n).astype(float))
    signed = re.astype(np.complex128)
    signed.imag = rng.choice([0.0, -0.0], n)
    negative = re.astype(np.complex128)
    negative.imag = -0.0
    return {
        "real": re,
        "mu-like": rng.integers(-1, 2, n).astype(np.float64),
        "complex": re + 1j * rng.standard_normal(n),
        "+0.0 imaginary": re.astype(np.complex128),
        "-0.0 imaginary": negative,
        "+-0.0 imaginary": signed,
        "zeros": np.zeros(n),
        "-0.0 real": np.full(n, -0.0),
    }


@pytest.mark.parametrize("chunk", [None, 1000])
def test_g_eval_matches_unchunked_csum(chunk, rng, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(ig.dirichlet, "_CHUNK", chunk)
    for n in G_SIZES:
        for case, vals in _g_inputs(n, rng).items():
            seq = CoefficientSequence.from_values(vals)
            assert seq.a.dtype == vals.dtype, case
            for sigma in _g_sigmas(n):
                _same_g(seq, sigma, case=case)
            _same_g(seq, 1.5, max(1, n // 3), case)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_g_eval_inf_nan_and_overflow(rng):
    n = 2**16 + 5
    base = rng.standard_normal(n)
    specials = (math.inf, -math.inf, math.nan, 1e308, 2.0**960, np.finfo(np.float64).max)
    for value in specials:
        for at in (0, 700, n - 1):
            real = base.copy()
            real[at] = value
            for vals in (real, real.astype(np.complex128), real * 1j):
                _same_g(CoefficientSequence.from_values(vals), 1.25, case=(value, at))
    for scale in (1e308, 2.0**960):  # every term at the guard, or an overflowing sum
        _same_g(CoefficientSequence.from_values(np.full(n, scale)), 1.0001, case=scale)
        _same_g(CoefficientSequence.from_values(np.full(n, scale * 1j)), 1.0001, case=scale)


def _sparse_inputs(n, rng):
    """Named real coefficient arrays of length n with zeros in some chunks
    and not in others, signed zeros and exact cancellation."""
    mu_like = rng.integers(-1, 2, n).astype(np.float64)
    dense = rng.choice([-1.0, 1.0], n) * rng.random(n)
    patchy = dense.copy()
    patchy[n // 4 : n // 2] = 0.0  # whole chunks at a small _CHUNK
    patchy[n - n // 8 :] *= rng.random(n // 8) < 0.5
    # 1 - 4 * 2**-2 = 0 exactly at sigma = 2, with -0.0 everywhere else.
    cancel = np.full(n, -0.0)
    cancel[0] = 1.0
    if n > 1:
        cancel[1] = -4.0
    lone_positive_zero = np.full(n, -0.0)
    lone_positive_zero[-1] = 0.0
    return {
        "mu-like": mu_like,
        "dense": dense,
        "patchy": patchy,
        "cancel at sigma 2": cancel,
        "zeros": np.zeros(n),
        "-0.0": np.full(n, -0.0),
        "+-0.0": rng.choice([0.0, -0.0], n),
        "-0.0, +0.0 last": lone_positive_zero,
    }


def _joined(outcomes):
    """The outcome of a loop over calls, from the outcome of each: the
    first exception type, else every value's bits in order."""
    raised = [o for o in outcomes if isinstance(o, type)]
    return raised[0] if raised else [bits for o in outcomes for bits in o]


SIGMA_LISTS = ((2.0,), (1.0868588963806504, 2.0, 1.25), (2.0, 2.0, 1.0001, 800.0))


@pytest.mark.parametrize("chunk", [None, 1000])
def test_g_eval_over_many_sigma_matches_per_sigma_loop(chunk, rng, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(ig.dirichlet, "_CHUNK", chunk)
    for n in (1, 2, 639, 4000, 2**16 + 1, 10**5):
        if chunk is not None and n > 10**4:
            continue
        cases = {**_sparse_inputs(n, rng), "complex": _g_inputs(n, rng)["complex"]}
        for case, vals in cases.items():
            seq = CoefficientSequence.from_values(vals)
            for sigmas in SIGMA_LISTS:
                for K in {1, max(1, n // 3), n}:
                    got = _block_outcome(lambda: ig.g_eval(seq, list(sigmas), K))
                    loop = _joined([_block_outcome(lambda: ig.g_eval(seq, s, K)) for s in sigmas])
                    ref = _joined([_block_outcome(lambda: _g_eval_ref(seq, s, K)) for s in sigmas])
                    assert got == ref == loop, (case, n, sigmas, K)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_g_eval_over_many_sigma_with_guarded_terms(rng):
    """A term at or above 2**960 voids the streamed sum of some sigma and
    not of others; inf and nan void every sigma."""
    n = 2**16 + 5
    base = rng.integers(-1, 2, n).astype(np.float64)
    sigmas = [2.0, 1.0001, 1.25]
    for value in (2.0**970, -(2.0**970), 2.0**960, math.inf, math.nan, 1e308):
        for at in (0, 700, n - 1):
            vals = base.copy()
            vals[at] = value
            for seq in (CoefficientSequence.from_values(vals), CoefficientSequence.from_values(vals * 1j)):
                got = _block_outcome(lambda: ig.g_eval(seq, sigmas, n))
                assert got == _joined([_block_outcome(lambda: _g_eval_ref(seq, s, n)) for s in sigmas]), (value, at)


def _prefix_inputs(n, rng):
    """Complex and real arrays whose prefixes stress csum's rules."""
    parts = _summands(n, rng)
    floats = {k: v for k, v in parts.items() if v.dtype == np.float64}
    names = list(floats)
    out = {f"real {k}": v for k, v in floats.items()}
    for re_name, im_name in zip(names, names[1:] + names[:1]):
        out[f"{re_name} + i {im_name}"] = floats[re_name] + 1j * floats[im_name]
    for zero in (0.0, -0.0):
        z = floats["normal"].astype(np.complex128)
        z.imag = zero
        out[f"imaginary {zero}"] = z
        late = z.copy()
        late.imag[n // 2 :] = floats["normal"][n // 2 :]
        out[f"imaginary {zero}, then nonzero"] = late
    return out


def _prefix_ends(n):
    ends = sorted({1, 2, n // 7, n // 2, n - 1, n} - {0})
    return ends, ends[::-1] + ends[:2] + [0]


@pytest.mark.parametrize("chunk", [None, 7, 1000])
def test_csum_prefixes_match_per_prefix_csum(chunk, rng, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(accumulate, "_CHUNK", chunk)
    for n in _sum_sizes():
        for case, x in _prefix_inputs(n, rng).items():
            for ends in _prefix_ends(n):
                got = _block_outcome(lambda: csum(x, ends))
                assert got == _block_outcome(lambda: [csum(x[:e]) for e in ends]), (case, n, ends)
                assert got == _block_outcome(lambda: [_csum_ref(x[:e]) for e in ends]), (case, n, ends)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_csum_prefixes_with_guarded_terms(rng):
    n = 3 * accumulate._SMALL + 5
    for value in (math.inf, -math.inf, math.nan, 2.0**960, 1e308):
        for at in (0, 700, n - 1):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            x[at] = value
            x[at + 1 if at + 1 < n else 0] = complex(value, -value)
            for arr in (x, x.real.copy()):
                ends = [1, 600, 701, 702, n - 1, n]
                per_end = [_block_outcome(lambda: csum(arr[:e])) for e in ends]
                assert [_block_outcome(lambda: csum(arr, [e])) for e in ends] == per_end, (value, at)
                assert _block_outcome(lambda: csum(arr, ends)) == _joined(per_end), (value, at)


# -- real storage of the builtin sequences --------------------------------


def _complex_builtin(name, n, table):
    """The builtin as complex128 storage, built as before real storage:
    liouville from its complex extension over every prime at f(p) = -1
    (imaginary parts +-0.0), as it was built before the SPF route."""
    if name == "liouville":
        spec = ig.MultiplicativeSpec(cutoff=n, default=-1.0)
        return CoefficientSequence.from_values(ig.extend_completely_multiplicative(spec, table, n)[1:])
    return CoefficientSequence.from_values(named_sequence(name, n, table).values().astype(np.complex128))


def _bits(value):
    """The (re, im) bits of a number, an array, a result record or a list
    of them."""
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return {k: _bits(getattr(value, k)) for k in value.__dataclass_fields__}
    if value is None or isinstance(value, (int, str)):
        return value
    return np.atleast_1d(np.array(value, dtype=np.complex128)).view(np.uint64).tolist()


def _builtin_results(seq, table):
    n = seq.length
    grid = parse_grid(f"1:{n}:x1.05")
    weights = ig.WeightSequence.log_weights(n)
    out = {
        "ingham_A": [ig.ingham_A(seq, m) for m in (1, 2, 97, n)],
        "ingham_S": [ig.ingham_S(seq, m) for m in (1, 2, 97, n)],
        "batch_sums": ig.batch_sums(seq, grid),
        "g_eval": [ig.g_eval(seq, s, k) for s in (2.0, 1.1) for k in (1, 700, n)],
        "cumulative_sums": ig.cumulative_sums(seq),
        # Every n: a_k / k and a_k * (1/k) differ in the last bit for
        # a few k, which changes the rounded sum at 10 of these n.
        "check_wintner": [ig.check_wintner(seq, m) for m in range(1, n + 1)],
        "check_axer": ig.check_axer(seq, grid),
        "tauber_weighted": [ig.tauber_weighted(seq, m) for m in (1, n)],
        "abel_power_sum": [ig.abel_power_sum(seq, x) for x in (0.5, 0.999)],
        "abel_lambda_sum": [ig.abel_lambda_sum(seq, weights, x) for x in (1.1, 2.0)],
        "ingham_series_partial": [ig.ingham_series_partial(seq, m) for m in (1, 50, n)],
        "s_difference_identity": ig.s_difference_identity(seq, table, 400),
        "s_decomposition_identity": ig.s_decomposition_identity(seq, table, 400),
        "difference_identity_check": ig.difference_identity_check(seq, table, 10, 300),
    }
    return {k: _bits(v) for k, v in out.items()}


@pytest.mark.parametrize("name", ig.BUILTIN_SEQUENCES)
def test_builtins_stored_real_match_complex_storage(name, table_small):
    # The {-1, 0, 1} builtins are int8; every reader gives the bits of
    # float64 storage, and those of complex128 storage.
    seq = named_sequence(name, 3000, table_small)
    floats = CoefficientSequence.from_values(seq.values().astype(np.float64))
    ref = _complex_builtin(name, 3000, table_small)
    stored = np.float64 if name == "inverse-squares" else np.int8
    assert (seq.a.dtype, floats.a.dtype, ref.a.dtype) == (stored, np.float64, np.complex128)
    got = _builtin_results(seq, table_small)
    as_float, expected = _builtin_results(floats, table_small), _builtin_results(ref, table_small)
    for key in expected:
        assert got[key] == as_float[key] == expected[key], key


def test_mu_is_a_view_of_the_sieve_mobius_table():
    table = ig.build_sieve(1000)
    seq = named_sequence("mu", 500, table)
    assert seq.a.dtype == np.int8 and not seq.a.flags.writeable
    assert np.shares_memory(seq.a, table.mobius_array)
    assert np.array_equal(seq.a, table.mobius_array[:501]) and seq.a[0] == 0
    assert table._spf is None


# -- Liouville from the sign sieve -----------------------------------------


def _liouville_ref(table, n):
    """Index-aligned lambda(m) = -lambda(m / spf(m)) for m <= n, as int8,
    from the SPF table: m / spf(m) <= m / 2, so a pass over [lo, hi) with
    hi <= 2 lo reads only values set before it."""
    lam = np.empty(n + 1, dtype=np.int8)
    lam[:2] = (0, 1)
    lo = 2
    while lo <= n:
        hi = min(2 * lo, lo + 4096, n + 1)
        np.negative(lam[np.arange(lo, hi) // table.spf[lo:hi]], out=lam[lo:hi])
        lo = hi
    return lam


@pytest.mark.parametrize("n", [10, 97, 1000, 12345, 10**6, 10**7])
def test_liouville_matches_spf_recursion(n):
    table = ig.build_sieve(n)
    for m in (n, n // 3):
        got = named_sequence("liouville", m, table).a
        assert got.dtype == np.int8 and not got.flags.writeable, m
        assert np.array_equal(got, _liouville_ref(table, m)), m


def test_liouville_matches_spf_recursion_near_prime_squares():
    for n in SIEVE_LIMITS[:-1]:
        table = ig.build_sieve(n)
        assert np.array_equal(named_sequence("liouville", n, table).a, _liouville_ref(table, n)), n


LIOUVILLE_SIZES = (1, 2, 3, *(2**k + d for k in (2, 3, 10, 16) for d in (-1, 0, 1)), 10**5)


@pytest.mark.parametrize("own_table", [False, True], ids=["shared-table", "own-table"])
def test_liouville_matches_complex_extension(own_table, table_medium):
    for n in LIOUVILLE_SIZES:
        table = ig.build_sieve(max(n, 2)) if own_table else table_medium
        got = named_sequence("liouville", n, table)
        ref = _complex_builtin("liouville", n, table)
        assert got.a.dtype == np.int8
        for g, r in zip((got.a.astype(np.float64), *_gathered(got)), (ref.a, *_gathered(ref))):
            assert np.array_equal(g.view(np.uint64), r.real.view(np.uint64)), n


# -- one (0, inf) integrator and one Euler-Maclaurin tail ------------------


def _integral_zero_to_inf_ref(f, rate, bound, quad_tol, tail_tol, max_depth=64):
    """integral_zero_to_inf as its own copy of the substitution, before it
    became integral_sigma_to_inf at sigma = 0."""
    T = quadrature._cut_point(bound, rate, tail_tol)
    lr = math.log(rate)

    def g(u):
        return f(-math.log(u) / lr) / (u * lr)

    tol = quadrature._scaled_tol(quad_tol, bound, lr)
    res = quadrature.adaptive_simpson(g, rate**-T, 1.0, tol, max_depth)
    quadrature._check_converged(res, tol)
    tail = bound * rate**-T / lr if bound > 0 else 0.0
    return quadrature.QuadResult(res.value, res.error + tail, res.evals, res.depth_hits)


def _quad_outcome(fn):
    try:
        return _bits(fn())
    except ig.QuadratureError as exc:
        return ("QuadratureError", str(exc))


# The integrands of test_quadrature.py: (f, rate, bound, quad_tol, tail_tol, max_depth).
QUAD_CASES = {
    **{
        f"k^-t - (k+1)^-t, k = {k}": (
            lambda t, k=k: float(k) ** -t - float(k + 1) ** -t, float(k), 1.0, 1e-10, 1e-12, 64
        )
        for k in (2, 10, 100)
    },
    "exp(-3t)": (lambda t: math.exp(-3.0 * t), math.e**3, 1.0, 1e-10, 1e-13, 64),
    "(2^-t - 3^-t)/(1 + t^2)": (
        lambda t: (2.0**-t - 3.0**-t) / (1.0 + t * t), 2.0, 1.0, 1e-10, 1e-12, 64
    ),
    "stalls at depth 2": (
        lambda t: 2.0**-t / (1.0 + 40.0 * math.sin(8.0 * t) ** 2), 2.0, 1.0, 1e-13, 1e-13, 2
    ),
    "complex": (lambda t: complex(2.0**-t, -(5.0**-t)), 2.0, 2.0, 1e-9, 1e-11, 64),
}


@pytest.mark.parametrize("case", QUAD_CASES)
def test_integral_zero_to_inf_matches_own_substitution(case):
    f, *args = QUAD_CASES[case]
    got = _quad_outcome(lambda: quadrature.integral_zero_to_inf(f, *args))
    assert got == _quad_outcome(lambda: _integral_zero_to_inf_ref(f, *args))


def test_lemma_integrals_match_own_substitution(table_small, monkeypatch):
    grids = dict(t_grid=(1.0,), x_grid=(100,), k_grid=(2, 10, 100), vx_grid=(1_000, 10_000))
    got = _bits([[r["value"], r["bound"]] for r in ig.lemma_ratio_suite(table_small, **grids)])
    monkeypatch.setattr(verify, "integral_zero_to_inf", _integral_zero_to_inf_ref)
    ref = _bits([[r["value"], r["bound"]] for r in ig.lemma_ratio_suite(table_small, **grids)])
    assert got == ref


@pytest.mark.parametrize("n", [10, 31, 50])
def test_difference_integrals_match_own_substitution(n, table_small, monkeypatch):
    primes = table_small.primes[: np.searchsorted(table_small.primes, n, "right")].tolist()
    prime_lists = [[]] * 2 + [[p for p in primes if m % p == 0] for m in range(2, n + 1)]
    ks = (2, 3, n // 2, n - 1)
    got = [_bits(verify._difference_integral(prime_lists, n, k, 1e-8, 1e-10)) for k in ks]
    monkeypatch.setattr(verify, "integral_zero_to_inf", _integral_zero_to_inf_ref)
    ref = [_bits(verify._difference_integral(prime_lists, n, k, 1e-8, 1e-10)) for k in ks]
    assert got == ref


def _zeta_tails_ref(tail, u):
    """_SeriesTail._zeta_tails with its own copy of the Euler-Maclaurin
    loop, which forms M^-2 as numpy's M**-2.0 where _em_tail takes
    1/(M*M)."""
    big = np.maximum(tail.seg_m, float(tail._SMALL))
    z = big ** (1.0 - u) / (u - 1.0) + 0.5 * big**-u
    poch = u
    power = big ** (-u - 1.0)
    minv = big**-2.0
    for k, coeff in enumerate(_EM_COEFFS):
        z += coeff * poch * power
        poch *= (u + 2 * k + 1) * (u + 2 * k + 2)
        power *= minv
    small_terms = tail.small_m**-u
    suffix = np.concatenate((np.cumsum(small_terms[::-1])[::-1], [0.0]))
    need = tail.seg_m < tail._SMALL
    z[need] += suffix[(tail.seg_m[need] - 2).astype(np.intp)]
    return z


@pytest.mark.parametrize("K", [10**3, 10**5])
def test_zeta_tails_match_own_em_loop(K, table_medium):
    tail = verify._SeriesTail(named_sequence("mu", K, table_medium), K, 0j)
    us = [1.0 + 1.0 / math.log(n) for n in range(2, 51)] + np.linspace(1.2, 40.0, 400).tolist()
    for u in us:
        got, ref = tail._zeta_tails(u), _zeta_tails_ref(tail, u)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), u


def test_difference_identity_matches_old_integrators(table_small, monkeypatch):
    seq = named_sequence("mu", 1000, table_small)
    got = _bits(ig.difference_identity_check(seq, table_small, 10, 1000))
    monkeypatch.setattr(verify, "integral_zero_to_inf", _integral_zero_to_inf_ref)
    monkeypatch.setattr(verify._SeriesTail, "_zeta_tails", _zeta_tails_ref)
    assert got == _bits(ig.difference_identity_check(seq, table_small, 10, 1000))


# -- chunked gathers for the lemma and the difference identity ------------


def _lemma_ratio_suite_ref(
    table,
    envelope=verify.LEMMA_ENVELOPE,
    quad_tol=QUAD_TOL,
    tail_tol=TAIL_TOL,
    t_grid=verify.LEMMA_T_GRID,
    x_grid=verify.LEMMA_X_GRID,
    k_grid=verify.LEMMA_K_GRID,
    vx_grid=verify.LEMMA_VX_GRID,
):
    """lemma_ratio_suite with whole arrays: d, log d, mu(d) d^(-1-t) and
    the four prefix arrays over every d <= max(x_grid), per t."""
    x_max = max(x_grid)
    if x_max > table.limit:
        raise ValueError(f"grid maximum {x_max} exceeds sieve limit {table.limit}")
    mu = table.mobius_array[: x_max + 1]
    d = np.arange(x_max + 1, dtype=np.float64)
    d[0] = 1.0
    logd = np.log(d)
    rows = []

    def add(family, t, x, k, value, bound):
        ratio = value / bound
        rows.append(
            {
                "family": family,
                "t": t,
                "x": x,
                "k": k,
                "value": value,
                "bound": bound,
                "ratio": ratio,
                "pass": ratio <= envelope,
            }
        )

    for t in t_grid:
        ft = f_t_table(table, t, x_max)
        inv_zeta = 1.0 / dirichlet.zeta_real(1.0 + t)
        q_prefix = np.cumsum(ft.values / d)
        dt_prefix = np.cumsum(d**-t)
        mu_d1t = mu * d ** (-1.0 - t)
        p1_prefix = np.cumsum(mu_d1t)
        p2_prefix = np.cumsum(mu_d1t * logd)
        for x in x_grid:
            logx = math.log(x)
            q_x = float(q_prefix[x])
            add("sum_ft_over_m", t, x, None, q_x, 1.0 + t * logx)
            add(
                "partial_sums",
                t,
                x,
                None,
                abs(float(ft.prefix[x]) - x * inv_zeta),
                x ** (1.0 - t) + float(dt_prefix[x]),
            )
            mu_log_sum = logx * float(p1_prefix[x]) - float(p2_prefix[x])
            add("mu_log_identity", t, x, None, abs(q_x - mu_log_sum), 1.0)
            add(
                "doubling_increment",
                t,
                x,
                None,
                float(ft.prefix[x]) - ft.F(x / 2.0),
                x * (1.0 / logx + t),
            )

    for k in k_grid:

        def rhs_integrand(t, k=k):
            w = float(k) ** -t - float(k + 1) ** -t
            if w == 0.0 or t <= 0.0:
                return 0.0
            return w / dirichlet.zeta_real(1.0 + t)

        i2 = quadrature.integral_zero_to_inf(
            rhs_integrand, rate=float(k), bound=1.0, quad_tol=quad_tol, tail_tol=tail_tol
        )
        for x in vx_grid:
            value = abs(verify._comparison_lhs(table, k, x) - x * i2.value)
            bound = x / (k * math.log(x * k) ** 2)
            add("integrated_comparison", None, x, k, value, bound)

    return rows


def _lemma_bits(rows):
    return [
        (r["family"], r["t"], r["x"], r["k"], r["pass"], _bits([r["value"], r["bound"], r["ratio"]]))
        for r in rows
    ]


# Grid tops on both sides of the 2**16-term chunks of the gather, and
# unsorted and repeated x, which the gather reads from their sorted set.
LEMMA_GRIDS = {
    "chunk-edges": dict(
        t_grid=(1e-3, 0.5, 1.0, 2.0, 10.0),
        x_grid=(2, 3, 65_535, 65_536, 65_537, 99_999, 100_000),
        k_grid=(),
        vx_grid=(),
    ),
    "unsorted-repeated": dict(t_grid=(0.1,), x_grid=(1_000, 100, 77_777, 100, 2), k_grid=(3,), vx_grid=(500, 1)),
}


@pytest.mark.parametrize("chunk", [1_000, 1 << 16])
@pytest.mark.parametrize("grids", LEMMA_GRIDS)
def test_lemma_suite_matches_whole_arrays(grids, chunk, table_medium, monkeypatch):
    monkeypatch.setattr(summation, "_CHUNK_TERMS", chunk)
    got = ig.lemma_ratio_suite(table_medium, **LEMMA_GRIDS[grids])
    assert _lemma_bits(got) == _lemma_bits(_lemma_ratio_suite_ref(table_medium, **LEMMA_GRIDS[grids]))


def test_lemma_suite_default_grids_match_whole_arrays(table_big):
    # The `lemma` command's suite, up to x = 1e6.
    assert _lemma_bits(ig.lemma_ratio_suite(table_big)) == _lemma_bits(_lemma_ratio_suite_ref(table_big))


def _divisor_lattice_ref(weights, f=None):
    """_divisor_lattice with one fancy-indexed add over all the d above
    sqrt(N) per cofactor q."""
    n = weights.size - 1
    out = np.zeros(n + 1, dtype=np.complex128)
    nz = np.flatnonzero(weights[1:]) + 1
    r = math.isqrt(max(n, 0))
    split = int(np.searchsorted(nz, r, "right"))
    for d, w in zip(nz[:split].tolist(), weights[nz[:split]].tolist()):
        out[d::d] += w if f is None else w * f[1 : n // d + 1]
    big = nz[split:]
    wbig = weights[big]
    for q, k in ig.sieve.hyperbola_cofactors(big, n):
        out[big[:k] * q] += wbig[:k] if f is None else wbig[:k] * f[q]
    return out


def _special_weights(n, table, rng):
    """Sparse float64 weights with signed zeros among them, nan at a d
    below sqrt(n), and +inf, -inf and nan at primes above it, where the
    d are gathered run by run. Two primes above sqrt(n) have no common
    multiple up to n, so no inf meets -inf and no warning is raised."""
    w = _input("sparse-real", n, rng)
    w[rng.random(n + 1) < 0.05] = -0.0
    w[1 : n + 1 : 5] = np.copysign(0.0, w[1 : n + 1 : 5])
    r = math.isqrt(n)
    if r >= 3:
        w[r - 1] = math.nan
    big = table.primes[(table.primes > r) & (table.primes <= n)]
    for p, value in zip(big[:: max(1, big.size // 3)].tolist(), (math.inf, -math.inf, math.nan)):
        w[p] = value
    return w


def _lattice_cases(n, table, rng):
    mu = table.mobius_array[: n + 1]
    f = _input("dense-complex", n, rng)
    f[1::7] = f[1::7].real
    f[2::11] = complex(-0.0, 0.0)
    return [
        (_input("dense-real", n, rng), None),
        (_input("sparse-complex", n, rng), None),
        (_special_weights(n, table, rng), None),
        (mu, None),
        (mu, f),
    ]


@pytest.mark.parametrize("chunk", [7, 1_000, 1 << 16])
def test_divisor_lattice_matches_unsliced_adds(chunk, table_medium, rng, monkeypatch):
    monkeypatch.setattr(sequences, "_COFACTOR_CHUNK", chunk)
    sizes = (1, 2, 97, 1_000, 4_099, *((99_991,) if chunk > 7 else ()))
    for n in sizes:
        for weights, f in _lattice_cases(n, table_medium, rng):
            ref = _divisor_lattice_ref(weights, f)
            _same_bits(sequences._divisor_lattice(weights, f), ref)
            if f is None and not np.iscomplexobj(weights):
                _same_real_bits(sequences._divisor_lattice(weights, dtype=np.float64), ref)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("chunk", [7, 1 << 16])
def test_divisor_lattice_matches_unsliced_adds_on_inf_and_nan(chunk, table_small, rng, monkeypatch):
    monkeypatch.setattr(sequences, "_COFACTOR_CHUNK", chunk)
    n = 5_003
    f = _input("dense-complex", n, rng)
    f[[71, 2_500, 4_999]] = (complex(math.inf, 0.0), complex(math.nan, -0.0), complex(0.0, -math.inf))
    weights = _input("dense-real", n, rng)
    weights[[89, 3_001]] = (math.inf, math.nan)
    # Signed zeros among the weights, -inf beside +inf (a nan sum at
    # their common multiples), and terms that cancel to zero exactly.
    weights[[2, 3, 97, 4_001]] = (-0.0, 0.0, -0.0, -0.0)
    weights[[37, 1, 5]] = (-math.inf, 1.5, -1.5)
    for w, ff in ((weights, None), (table_small.mobius_array[: n + 1], f)):
        _same_bits(sequences._divisor_lattice(w, ff), _divisor_lattice_ref(w, ff))
    ref = _divisor_lattice_ref(weights)
    assert np.isnan(ref[89 * 37]) and ref[5] == 0
    _same_real_bits(sequences._divisor_lattice(weights, dtype=np.float64), ref)


@pytest.mark.parametrize("t", [1e-3, 0.37, 1.0, 2.5, 40.0])
def test_inverse_powers_match_python_pow(t, table_big):
    # The Euler factors' p^-sigma and the f_t table's large-prime factors
    # 1 - p^-t, against the list of Python float pows they replaced.
    primes = table_big.primes
    got = 1.0 - dirichlet._inverse_powers(primes, t)
    assert got.tobytes() == np.array([1.0 - float(p) ** -t for p in primes.tolist()]).tobytes()


def _series_tail_ref(a, K, s_k):
    """A _SeriesTail as its constructor built it, from whole copies of
    the real and imaginary parts of a_j log j over every j <= K; the
    imaginary part is None for a sequence with no nonzero one."""
    tail = object.__new__(verify._SeriesTail)
    values = np.asarray(a.a, dtype=np.complex128)
    re = values.real[: K + 1] * log_index(K)
    im = values.imag[: K + 1] * log_index(K)
    js = np.flatnonzero((re != 0) | (im != 0))
    js = js[js >= 2]
    tail.K = K
    tail.log_js = np.log(js.astype(np.float64))
    tail.w_re = re[js]
    tail.w_im = im[js] if values.imag.any() else None
    m_ceil = -(-(K + 2) // js)
    cuts = np.flatnonzero(np.diff(m_ceil)) + 1
    tail.starts = np.concatenate(([0], cuts))
    tail.seg_m = m_ceil[tail.starts].astype(np.float64)
    tail.small_m = np.arange(2, tail._SMALL, dtype=np.float64)
    tail.s_edge = s_k + csum(
        np.array([a.a[d] * math.log(d) for d in verify._divisors_trial(K + 1) if 2 <= d <= K])
    )
    tail.edge = float(K + 1)
    return tail


_TINY = 5e-324  # the smallest subnormal: |log j| > 1/2 keeps a_j log j nonzero


def _special_sequence(rng, n, complex_values):
    """A sequence with signed zeros, subnormals and inf and nan entries at
    both ends and in the middle, and random values elsewhere."""
    if complex_values:
        values = random_unit_complex(rng, n)
        special = [
            complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), _TINY, -_TINY,
            complex(0.0, _TINY), complex(-_TINY, -0.0), complex(math.inf, 0.0),
            complex(0.0, -math.inf), complex(math.nan, 0.0), complex(1.0, math.nan),
        ]
    else:
        values = rng.standard_normal(n)
        special = [-0.0, 0.0, _TINY, -_TINY, 2 * _TINY, math.inf, -math.inf, math.nan]
    for j, v in zip((0, 1, 2, n // 2, n // 2 + 1, n - 3, n - 2, n - 1, 7, 11, 13), special):
        values[j] = v
    return CoefficientSequence.from_values(values)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_series_tail_matches_whole_weight_copy(table_small, rng):
    mu = named_sequence("mu", 5_000, table_small)
    for seq in (_special_sequence(rng, 5_000, True), _special_sequence(rng, 5_000, False), mu):
        for K in (5, 1_000, 2_501, 4_999, 5_000):
            got, ref = verify._SeriesTail(seq, K, 0.5j), _series_tail_ref(seq, K, 0.5j)
            assert vars(got).keys() == vars(ref).keys()
            for key, value in vars(ref).items():
                mine = getattr(got, key)
                if isinstance(value, np.ndarray):
                    assert mine.dtype == value.dtype, (K, key)
                    assert mine.tobytes() == value.tobytes(), (K, key)
                else:
                    assert _bits(mine) == _bits(value), (K, key)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_series_tail_weight_of_a_nonzero_coefficient_is_nonzero():
    # The weights are formed only at the nonzero a_j, j >= 2: there
    # |log j| >= log 2 > 1/2, so |a_j log j| is more than half of |a_j|
    # and rounds to at least the smallest subnormal, never to zero.
    assert math.log(2) > 0.5
    log_j = np.log(np.arange(2, 1_000, dtype=np.float64))
    for a in (_TINY, -_TINY, 2 * _TINY, complex(0.0, _TINY), complex(-_TINY, -0.0)):
        w = np.array(a * log_j, dtype=np.complex128)
        assert np.all(w != 0), a
    seq = _special_sequence(np.random.default_rng(3), 1_000, True)
    tail = verify._SeriesTail(seq, 1_000, 0j)
    assert tail.w_re.size == tail.w_im.size == np.count_nonzero(seq.a[2:])
    assert np.all((tail.w_re != 0) | (tail.w_im != 0))


# The four integrand bodies of the difference identity as they were, each
# a BLAS dot product: the k > K tail and its bound (weights w_j = a_j log j
# summed per segment of equal quotient, then dotted with the zeta tails),
# and the k <= K series h and its bound over the divisor sums D(k).


def _complex_weights(tail):
    return tail.w_re + 0j if tail.w_im is None else tail.w_re + 1j * tail.w_im


def _tail_integrand_ref(tail, u):
    pw = _complex_weights(tail) * np.exp(-u * tail.log_js)
    seg = np.add.reduceat(pw, tail.starts)
    total = complex(np.dot(seg, tail._zeta_tails(u)))
    total += tail.s_edge * tail.edge**-u
    return total / dirichlet.zeta_real(u)


def _tail_bound_ref(tail, sigma):
    pw = np.abs(_complex_weights(tail)) * np.exp(-sigma * tail.log_js)
    seg = np.add.reduceat(pw, tail.starts)
    total = float(np.dot(seg, tail._zeta_tails(sigma)))
    return total + abs(tail.s_edge) * tail.edge**-sigma


def _head_integrand_ref(dk, log_ks, u):
    return complex(np.dot(dk, np.exp(-u * log_ks))) / dirichlet.zeta_real(u)


def _head_bound_ref(dk, ks, sigma):
    return float(np.dot(np.abs(dk), ks.astype(np.float64) ** -sigma))


# Any order of summing n terms x_i is within (n - 1) eps sum |x_i| of the
# exact sum (to first order), BLAS's threaded dot included; the old and
# the new sum of the same terms then differ by at most twice that. The
# slack of 8 covers the few ulps by which a term itself may differ (|w|
# by np.abs or np.hypot, k^-u by a power or an exponential) and the final
# products and quotient.
_EPS = np.finfo(np.float64).eps


def _order_bound(terms_abs, extra=0):
    return (2 * (len(terms_abs) + extra) + 8) * _EPS * math.fsum(terms_abs)


_US = (1.0 + 1.0 / math.log(50), 1.25, 1.0 + 1.0 / math.log(2), 2.0, 3.5, 8.0, 30.0)


def _difference_cases(table, rng, K):
    cx = CoefficientSequence.from_values(random_unit_complex(rng, K) / np.arange(1, K + 1) ** 0.5)
    real = CoefficientSequence.from_values(rng.standard_normal(K))
    return (named_sequence("mu", K, table), named_sequence("liouville", K, table), real, cx)


@pytest.mark.parametrize("K", [1_000, 99_991])
def test_series_tail_integrands_match_blas_dot(K, table_medium, rng):
    # Above 10,000 terms OpenBLAS may split the old dot across threads.
    for seq in _difference_cases(table_medium, rng, K):
        tail = verify._SeriesTail(seq, K, 0.25 - 0.5j)
        w_abs = np.abs(_complex_weights(tail))
        seg_of = np.repeat(np.arange(tail.starts.size), np.diff([*tail.starts, w_abs.size]))
        for u in _US:
            z = tail._zeta_tails(u)
            terms = w_abs * np.exp(-u * tail.log_js) * z[seg_of]
            edge = abs(tail.s_edge) * tail.edge**-u
            tol = _order_bound([*terms, edge], tail.starts.size) / dirichlet.zeta_real(u)
            got, ref = tail.integrand(u), _tail_integrand_ref(tail, u)
            assert abs(got.real - ref.real) <= tol and abs(got.imag - ref.imag) <= tol, (K, u)
            got, ref = tail.bound(u), _tail_bound_ref(tail, u)
            assert abs(got - ref) <= _order_bound([*terms, edge], tail.starts.size), (K, u)


@pytest.mark.parametrize("K", [1_000, 99_991])
def test_series_head_integrands_match_blas_dot(K, table_medium, rng):
    for seq in _difference_cases(table_medium, rng, K):
        d = sum_over_divisors(seq.a[: K + 1] * log_index(K))
        ks = np.flatnonzero(d)
        ks = ks[ks >= 2]
        log_ks = np.log(ks.astype(np.float64))
        head = verify._SeriesHead(d, ks)
        assert head.d_re.dtype == np.float64 and head.d_re.tobytes() == d[ks].real.tobytes()
        if np.iscomplexobj(seq.a):
            assert head.d_im.dtype == np.float64 and head.d_im.tobytes() == d[ks].imag.tobytes()
        else:
            assert head.d_im is None
        for u in _US:
            terms = np.abs(d[ks]) * np.exp(-u * log_ks)
            got, ref = head.integrand(u), _head_integrand_ref(d[ks], log_ks, u)
            tol = _order_bound(terms) / dirichlet.zeta_real(u)
            assert abs(got.real - ref.real) <= tol and abs(got.imag - ref.imag) <= tol, (K, u)
            assert abs(head.bound(u) - _head_bound_ref(d[ks], ks, u)) <= _order_bound(terms), (K, u)


def _power_sum_ref(re, im, log_k, u, starts=None, z=None):
    """verify._power_sum as the old bodies formed it: complex weights and
    a BLAS dot product."""
    pw = (re + 0j if im is None else re + 1j * im) * np.exp(-u * log_k)
    if starts is None:
        return complex(np.dot(pw, np.ones(pw.size)))
    return complex(np.dot(np.add.reduceat(pw, starts), z))


def test_difference_identity_matches_blas_dot_integrands(table_medium, rng, monkeypatch):
    # The whole check with every reduction formed as the old bodies formed
    # it: the left side keeps its bits, and the right side moves by what
    # the last bits of thousands of integrand values add up to (1.2e-14 at
    # most here).
    K = 99_991
    cx = CoefficientSequence.from_values(random_unit_complex(rng, K) / np.arange(1, K + 1) ** 2)
    for seq, n in ((named_sequence("mu", K, table_medium), 10), (cx, 30), (cx, 7)):
        got = ig.difference_identity_check(seq, table_medium, n, K)
        with monkeypatch.context() as m:
            m.setattr(verify, "_power_sum", _power_sum_ref)
            ref = ig.difference_identity_check(seq, table_medium, n, K)
        assert _bits(got.lhs) == _bits(ref.lhs)
        for key in ("rhs", "tail_correction"):
            assert abs(getattr(got, key) - getattr(ref, key)) <= 1e-12, (n, key)


# numpy calls that may go to BLAS, whose threads reduce in an order that
# depends on their count: as np.<name>, and as an array method.
_BLAS_NAMES = {"dot", "matmul", "inner", "vdot", "tensordot", "einsum", "vecdot", "matvec", "vecmat"}


def _blas_calls(source):
    """(line, what) of every BLAS-backed call, import or operator in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute):
            chain, value = [node.attr], node.value
            while isinstance(value, ast.Attribute):
                chain.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name):
                chain.append(value.id)
            chain.reverse()
            if chain[0] in ("np", "numpy") and len(chain) > 1 and (chain[1] in _BLAS_NAMES or chain[1] == "linalg"):
                found.append((node.lineno, ".".join(chain)))
            elif chain[-1] in _BLAS_NAMES and chain[0] not in ("np", "numpy"):
                found.append((node.lineno, ".".join(chain)))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            names = {a.name for a in node.names}
            if node.module.startswith("numpy.linalg") or names & (_BLAS_NAMES | {"linalg"}):
                found.append((node.lineno, f"from {node.module} import"))
        elif isinstance(node, ast.Import) and any(a.name.startswith("numpy.linalg") for a in node.names):
            found.append((node.lineno, "import numpy.linalg"))
    return found


def test_blas_call_finder_sees_every_form():
    forms = [
        "np.dot(a, b)", "numpy.matmul(a, b)", "np.inner(a, b)", "np.vdot(a, b)", "np.tensordot(a, b)",
        "np.einsum('i,i', a, b)", "np.linalg.norm(a)", "np.vecdot(a, b)", "a @ b", "a @= b", "a.dot(b)",
        "from numpy import dot", "from numpy.linalg import solve", "import numpy.linalg",
    ]
    for form in forms:
        assert _blas_calls(form), form
    assert not _blas_calls("np.add.reduce(a * b); np.add.reduceat(a, s); np.exp(a); np.multiply(a, b)")


def test_the_package_makes_no_blas_call():
    package = Path(ig.__file__).parent
    found = {path.name: _blas_calls(path.read_text()) for path in sorted(package.glob("*.py"))}
    assert len(found) >= 10 and not any(found.values()), {k: v for k, v in found.items() if v}


@pytest.mark.parametrize("chunk", [7, 1 << 16])
def test_difference_identity_gathers_the_whole_cumsum(chunk, table_small, rng, monkeypatch):
    # S(k) is gathered from D(k) at k = 2..n and K only; reading the
    # whole np.cumsum(D) at those k gives the same bits. K = n reads one
    # k twice.
    monkeypatch.setattr(summation, "_CHUNK_TERMS", chunk)

    def whole_cumsum_at(at, terms):
        (d,) = terms(0, int(at[-1]) + 1)
        return [np.cumsum(d)[at]]

    cx = _special_sequence(rng, 3_000, True).a.copy()
    cx[np.isinf(cx) | np.isnan(cx)] = 0.25 - 0.5j  # finite, signed zeros and subnormals kept
    cx = CoefficientSequence.from_index_aligned(cx)
    cases = (
        (named_sequence("mu", 3_000, table_small), 10, 3_000),
        (named_sequence("liouville", 3_000, table_small), 7, 2_999),
        (cx, 12, 3_000),
        (cx, 12, 12),
    )
    for seq, n, K in cases:
        with monkeypatch.context() as m:
            m.setattr(verify, "_cumsums_at", whole_cumsum_at)
            whole = ig.difference_identity_check(seq, table_small, n, K)
        assert _bits(ig.difference_identity_check(seq, table_small, n, K)) == _bits(whole), (n, K)


# -- one prime-value selector for MultiplicativeSpec -----------------------


def _prime_candidates_ref(spec, table, top):
    """Ascending primes p <= top at which f(p) may differ from 1."""
    if spec.default == 1:
        return [p for p in sorted(spec.prime_values) if p <= top]
    return table.primes[: np.searchsorted(table.primes, top, "right")].tolist()


def _extend_ref(spec, table, n):
    f = np.ones(n + 1, dtype=np.complex128)
    f[0] = 0
    for p in _prime_candidates_ref(spec, table, min(n, spec.cutoff)):
        fp = spec.value_at(p)
        if fp == 1:
            continue
        pk = p
        while pk <= n:
            if fp.imag == 0:
                f[pk::pk] *= fp
            else:
                for lo in range(pk, n + 1, sequences._CHUNK * pk):
                    v = f[lo : lo + sequences._CHUNK * pk : pk]
                    re = v.real * fp.real - v.imag * fp.imag
                    v.imag *= fp.real
                    v.imag += v.real * fp.imag
                    v.real = re
            pk *= p
    return f


def _euler_product_ref(spec, table, sigma, limit):
    """The value_at loop, with the float operands of the complex
    arithmetic spelled out as CPython up to 3.13 converts them."""
    product = 1.0 + 0j
    for p in _prime_candidates_ref(spec, table, min(limit, spec.cutoff)):
        fp = spec.value_at(p)
        if fp == 1:
            continue
        pinv = float(p) ** -sigma
        product *= complex(1.0 - pinv, 0.0) / (complex(1.0, 0.0) - fp * complex(pinv, 0.0))
    return product


def _prime_deviation_sum_ref(spec, table, n, alpha):
    terms = []
    for p in _prime_candidates_ref(spec, table, min(n, spec.cutoff)):
        dev = abs(spec.value_at(p) - 1.0)
        if dev != 0.0:
            terms.append(dev**alpha * math.log(p) / p)
    return rsum(terms)


def _cond2_ratio_ref(spec, table, n):
    theta = np.zeros(n + 1, dtype=np.complex128)
    primes = table.primes[table.primes <= n]
    theta[primes] = np.log(primes.astype(np.float64))
    for p in primes.tolist():
        fp = spec.value_at(p)
        if fp != 1:
            theta[p] *= fp
    theta_prefix = np.cumsum(theta)
    m = np.arange(1, n + 1)
    inner = np.abs(theta_prefix[n // m] - n / m.astype(np.float64))
    return rsum(inner) / (n * math.log(n))


def _selected_ref(spec, table, top):
    return [(p, spec.value_at(p)) for p in table.primes.tolist() if p <= top and spec.value_at(p) != 1]


def _same_selection(spec, table, top):
    primes, values = spec.nontrivial(table, top)
    assert primes.dtype == np.int64 and values.dtype == np.complex128
    got = list(zip(primes.tolist(), map(repr, values.tolist())))
    assert got == [(p, repr(v)) for p, v in _selected_ref(spec, table, top)]
    assert all(p <= spec.euler_limit for p in primes.tolist())
    return primes


# f(p) = 1 in both zero signs of its imaginary part, and signed zeros.
_PRIME_VALUES = st.sampled_from(
    [1.0, complex(1.0, -0.0), -1.0, 0.0, complex(-0.0, -0.0), 0.5j, 0.6 - 0.8j, -0.28 + 0.96j]
)
_PRIMES_TO_3000 = [p for p in range(2, 3001) if sequences._is_prime(p)]


@st.composite
def _specs(draw):
    cutoff = draw(st.integers(1, 3000))
    primes = [p for p in _PRIMES_TO_3000 if p <= cutoff]
    listed = draw(st.dictionaries(st.sampled_from(primes), _PRIME_VALUES, max_size=30)) if primes else {}
    return ig.MultiplicativeSpec(listed, cutoff, draw(_PRIME_VALUES))


@settings(max_examples=150, deadline=None)
@given(_specs(), st.integers(1, 12_000))
def test_nontrivial_matches_value_at_hypothesis(table_small, spec, top):
    _same_selection(spec, table_small, top)


NONTRIVIAL_CASES = {
    "default 1, nothing listed": (ig.MultiplicativeSpec(cutoff=5000), 4000, []),
    "default 1, listed 1 dropped": (
        ig.MultiplicativeSpec({2: 0, 3: 1, 5: complex(1, -0.0), 7: -1}, cutoff=5000), 4000, [2, 7],
    ),
    "default 1, top below the smallest listed": (ig.MultiplicativeSpec({101: 0.5}, cutoff=5000), 100, []),
    "default -1, cutoff below top": (
        ig.MultiplicativeSpec({2: 1}, cutoff=30, default=-1.0), 4000, [3, 5, 7, 11, 13, 17, 19, 23, 29],
    ),
    "default -1, cutoff above top": (
        ig.MultiplicativeSpec({3: 0.5j}, cutoff=5000, default=-1.0), 12, [2, 3, 5, 7, 11],
    ),
    "default 0, listed 1 dropped": (
        ig.MultiplicativeSpec({2: 1, 5: 1}, cutoff=5000, default=0.0), 12, [3, 7, 11],
    ),
    "top above the table": (ig.MultiplicativeSpec(cutoff=10**6, default=-1.0), 10**6, None),
    "default 1, listed above the table": (ig.MultiplicativeSpec({10_007: 0.5}, cutoff=20_000), 20_000, []),
    "default -1, listed above the table": (
        ig.MultiplicativeSpec({10_007: 0.5}, cutoff=20_000, default=-1.0), 20_000, None,
    ),
}


@pytest.mark.parametrize("case", NONTRIVIAL_CASES)
def test_nontrivial_cases(case, table_small):
    spec, top, expected = NONTRIVIAL_CASES[case]
    primes = _same_selection(spec, table_small, top)
    if expected is None:
        expected = table_small.primes.tolist()
    assert primes.tolist() == expected


def _seeded_mean_spec(seed=7):
    """Unit-modulus f(p) for p < 1000 from the seed, default -1, cutoff 1e6."""
    rng = random.Random(seed)
    angles = {p: rng.uniform(0.0, 2.0 * math.pi) for p in _PRIMES_TO_3000 if p < 1000}
    return ig.MultiplicativeSpec(
        {p: complex(math.cos(a), math.sin(a)) for p, a in angles.items()}, cutoff=10**6, default=-1.0
    )


PRIME_LOOP_SPECS = {
    "seeded mean": _seeded_mean_spec(),
    "f2zero": ig.MultiplicativeSpec({2: 0}, cutoff=10**6),
    "liouville": ig.MultiplicativeSpec(cutoff=10**6, default=-1.0),
    "mixed, default unit": ig.MultiplicativeSpec(
        {2: 1, 3: 0.5j, 5: -1, 7: complex(1, -0.0), 11: 0}, cutoff=50_000, default=0.6 + 0.8j
    ),
    "mixed, default 1": ig.MultiplicativeSpec({2: 0.5, 3: 1, 97: complex(-0.0, 1.0)}, cutoff=50_000),
}


@pytest.mark.parametrize("name", PRIME_LOOP_SPECS)
def test_prime_loops_match_value_at_loops(name, table_medium):
    spec = PRIME_LOOP_SPECS[name]
    top = table_medium.limit
    assert ig.extend_completely_multiplicative(spec, table_medium, top).tobytes() == (
        _extend_ref(spec, table_medium, top).tobytes()
    )
    for n in (3, 10, 1000, 99_991, top):
        sigma = 1.0 + 1.0 / math.log(n)
        for s, limit in ((1.0, n), (sigma, n), (sigma, top)):
            got = dirichlet.euler_product(spec, table_medium, s, limit)
            assert repr(got) == repr(_euler_product_ref(spec, table_medium, s, limit)), (n, s, limit)
        for alpha in (1.0, 2.0):
            got = dirichlet._prime_deviation_sum(spec, table_medium, n, alpha)
            assert repr(got) == repr(_prime_deviation_sum_ref(spec, table_medium, n, alpha)), (n, alpha)
    for n in (10, 1000, top):
        got = verify.cond2_ratio(spec, table_medium, n)
        assert repr(got) == repr(_cond2_ratio_ref(spec, table_medium, n)), n


# -- one pass per grid: Euler products, deviation sums and means -----------


def _euler_product_loop(spec, table, sigma, limit):
    """euler_product as the per-prime loop over nontrivial() that it
    replaced. Each float operand of the complex arithmetic is spelled out
    as CPython up to 3.13 converts it (x as x + 0j), so the reference
    does not change with the interpreter's mixed complex rules."""
    product = 1.0 + 0j
    primes, values = spec.nontrivial(table, limit)
    for p, fp in zip(primes.tolist(), values.tolist()):
        pinv = float(p) ** -sigma
        denom = complex(1.0, 0.0) - fp * complex(pinv, 0.0)
        if abs(denom) < 1e-300:
            raise SingularFactorError(f"factor at p = {p} is singular: f(p) p^-sigma = 1")
        product *= complex(1.0 - pinv, 0.0) / denom
    return product


def _mu_n_alpha_ref(spec, table, n, alpha):
    return (_prime_deviation_sum_ref(spec, table, n, alpha) / math.log(n)) ** (1.0 / alpha)


def _euler_outcome(fn):
    """repr of fn()'s value or values, or the exception type and message."""
    try:
        return repr(fn())
    except (SingularFactorError, ValueError) as exc:
        return type(exc), str(exc)


GRID_SPECS = {
    **PRIME_LOOP_SPECS,
    "cutoff 1000, default -1": ig.MultiplicativeSpec({3: 0.5j, 997: 1}, cutoff=1000, default=-1.0),
    "default 0": ig.MultiplicativeSpec({2: -1, 3: complex(-0.0, -0.0)}, cutoff=10**6, default=0.0),
    "default -1 - 0j, listed -0.5 - 0j": ig.MultiplicativeSpec(
        {2: complex(-0.5, -0.0)}, cutoff=10**6, default=complex(-1.0, -0.0)
    ),
    "f(2) = 1 + 1j, unbounded": ig.MultiplicativeSpec({2: 1 + 1j, 3: -2.5j}, cutoff=50, bound_check=False),
}


def _grids(top):
    ascending = parse_grid(f"3:{top}:x3") + [top]
    return ascending, [1000, 3, 1000, 99_991, 10]


@pytest.mark.parametrize("name", GRID_SPECS)
def test_grid_sweeps_match_per_n_loops(name, table_medium):
    """euler_product, _prime_deviation_sum, mu_n_alpha and csum over a
    grid against one call per grid point and the old loops."""
    spec, table = GRID_SPECS[name], table_medium
    f = ig.extend_completely_multiplicative(spec, table, table.limit)
    for grid in _grids(table.limit):
        got = dirichlet.euler_product(spec, table, 1.0, grid)
        assert repr(got) == repr([dirichlet.euler_product(spec, table, 1.0, n) for n in grid]), grid
        assert repr(got) == repr([_euler_product_loop(spec, table, 1.0, n) for n in grid]), grid
        for n in grid:
            sigma = 1.0 + 1.0 / math.log(n)
            for limit in (n, table.limit):
                got = _euler_outcome(lambda: dirichlet.euler_product(spec, table, sigma, limit))
                assert got == _euler_outcome(lambda: _euler_product_loop(spec, table, sigma, limit)), (n, limit)
        for alpha in (1.0, 2.0, 3.5):
            got = dirichlet._prime_deviation_sum(spec, table, grid, alpha)
            assert repr(got) == repr([_prime_deviation_sum_ref(spec, table, n, alpha) for n in grid]), alpha
        got = dirichlet.mu_n_alpha(spec, table, grid, 2.0)
        assert repr(got) == repr([_mu_n_alpha_ref(spec, table, n, 2.0) for n in grid])
        got = csum(f[1:], grid)
        assert repr(got) == repr([csum(f[1 : n + 1]) for n in grid])


def _row_bits(rows, fields):
    return [[(r.n, k, _bits(getattr(r, k))) for k in fields] for r in rows]


def _mean_rows_ref(spec, table, grid, alpha):
    """(n, mean, g, product, residual, mu, ratio) per grid point from
    per-n csum calls and the old loops."""
    f = ig.extend_completely_multiplicative(spec, table, grid[-1])
    rows = []
    for n in grid:
        mean = csum(f[1 : n + 1]) / n
        product = _euler_product_loop(spec, table, 1.0, n)
        mu = _mu_n_alpha_ref(spec, table, n, alpha)
        g_n = _euler_product_loop(spec, table, 1.0 + 1.0 / math.log(n), table.limit)
        residual = abs(mean - product)
        rows.append((n, mean, g_n, product, residual, mu, residual / mu if mu > 0 else None))
    return rows


_MEAN_FIELDS = ("n", "mean", "g", "euler_product_at_1", "residual_t3", "mu_alpha", "ratio")


@pytest.mark.parametrize("name", ["seeded mean", "f2zero", "liouville", "mixed, default unit", "default 0"])
def test_reports_match_per_n_loops(name, table_medium):
    """mean, verify theorem3 and verify theorem1 --spec at every grid point
    against per-n calls and the old loops."""
    spec, table = GRID_SPECS[name], table_medium
    grid = parse_grid(f"3:{table.limit}:x3")
    ref = _mean_rows_ref(spec, table, grid, 2.0)
    expected = [[(row[0], k, _bits(v)) for k, v in zip(_MEAN_FIELDS, row)] for row in ref]
    assert _row_bits(verify.mean_report(spec, table, grid, 2.0).rows, _MEAN_FIELDS) == expected
    rows = verify.theorem3_report(spec, table, grid, 2.0, verify.THEOREM3_RATIO_ENVELOPE).rows
    fields = tuple(k for k in _MEAN_FIELDS if k != "g")
    assert _row_bits(rows, fields) == [[e for e in row if e[1] != "g"] for row in expected]
    checks = [verify.theorem3_check(spec, table, n, 2.0) for n in grid]
    assert _bits([(c.mean, c.product, c.residual, c.mu) for c in checks]) == _bits([r[1:2] + r[3:6] for r in ref])
    fields = ("n", "mean", "g", "residual_t1")
    expected = [[(n, k, _bits(v)) for k, v in zip(fields, (n, mean, g, abs(mean - g)))] for n, mean, g, *_ in ref]
    assert _row_bits(verify.theorem1_spec_report(spec, table, grid, 0.6).rows, fields) == expected


def test_mean_liouville_golden_from_per_n_loops(table_big):
    """tests/golden/mean_liouville.csv from the old loops: the CLI's
    report, its numbers against the loops', and its bytes."""
    spec = ig.MultiplicativeSpec(cutoff=10**6, default=-1.0)
    report = verify.mean_report(spec, table_big, [10**6], 2.0)
    ref = _mean_rows_ref(spec, table_big, [10**6], 2.0)
    expected = [[(r[0], k, _bits(v)) for k, v in zip(_MEAN_FIELDS, r)] for r in ref]
    assert _row_bits(report.rows, _MEAN_FIELDS) == expected
    golden = (Path(__file__).parent / "golden" / "mean_liouville.csv").read_bytes()
    assert b"".join(report.chunks("csv")) == golden


def _singular_spec(values):
    return ig.MultiplicativeSpec(values, cutoff=100, bound_check=False)


_SIGMA_10 = 1.0 + 1.0 / math.log(10)
SINGULAR_SPECS = {
    "at p = 2": (_singular_spec({2: 2.0**_SIGMA_10}), _SIGMA_10),
    "first at p = 3": (_singular_spec({2: 0.5, 3: 3.0**_SIGMA_10, 5: 5.0**_SIGMA_10}), _SIGMA_10),
    "|d| = 0.9e-300 at sigma 1": (_singular_spec({2: complex(2.0, 1.8e-300)}), 1.0),
    "|d| = 1.5e-300 at sigma 1, not singular": (_singular_spec({2: complex(2.0, 3e-300)}), 1.0),
    "|d| = 1.9e-300 at sigma 1, not singular": (_singular_spec({7: complex(7.0, 7 * 1.9e-300)}), 1.0),
}


@pytest.mark.parametrize("case", SINGULAR_SPECS)
def test_singular_factor_raises_as_the_loop(case, table_small):
    spec, sigma = SINGULAR_SPECS[case]
    for limit in (2, 3, 10, 100):
        got = _euler_outcome(lambda: dirichlet.euler_product(spec, table_small, sigma, limit))
        assert got == _euler_outcome(lambda: _euler_product_loop(spec, table_small, sigma, limit)), limit
    if sigma == _SIGMA_10:
        with pytest.raises(SingularFactorError, match=r"p = [23] "):
            verify.theorem1_spec_report(spec, table_small, [10, 100], 0.6)


@settings(max_examples=100, deadline=None)
@given(_specs(), st.lists(st.integers(2, 10_000), min_size=1, max_size=5), st.sampled_from([1.0, 1.07, 2.0]))
def test_grid_sweeps_match_per_n_loops_hypothesis(table_small, spec, grid, sigma):
    products = _euler_outcome(lambda: dirichlet.euler_product(spec, table_small, sigma, grid))
    assert products == _euler_outcome(lambda: [_euler_product_loop(spec, table_small, sigma, n) for n in grid])
    got = dirichlet._prime_deviation_sum(spec, table_small, grid, 2.0)
    assert repr(got) == repr([_prime_deviation_sum_ref(spec, table_small, n, 2.0) for n in grid])
    f = ig.extend_completely_multiplicative(spec, table_small, max(grid))
    assert repr(csum(f[1:], grid)) == repr([csum(f[1 : n + 1]) for n in grid])


# -- the extension in segments, streamed into the spec routes' sums -------


def _mixed_stream_spec():
    """Complex f(p) at 300 primes up to 499,979, f(p) = -1 + 0j, -1 - 0j
    and 0 - 0j, default 0.5 up to the cutoff 1e6."""
    rng = random.Random(18)
    primes = [p for p in range(3, 499_980, 2) if sequences._is_prime(p)]
    listed = {p: complex(math.cos(a), math.sin(a)) for p in rng.sample(primes, 300) for a in [rng.uniform(0, 6.3)]}
    listed.update({2: complex(-1.0, 0.0), 3: complex(-1.0, -0.0), 5: complex(0.0, -0.0), 4099: 0.5j, 499_979: -1j})
    return ig.MultiplicativeSpec(listed, cutoff=10**6, default=0.5)


STREAM_SPECS = {
    "f2zero": ig.MultiplicativeSpec({2: 0}, cutoff=10**6),
    "seeded mean, seed 1": _seeded_mean_spec(1),
    "seeded mean, seed 7": _seeded_mean_spec(7),
    "mixed": _mixed_stream_spec(),
}
# Segment sizes that put grid points, prime multiples and sqrt(hi - 1) on
# segment edges, with the top each runs to: the smaller, the shorter.
STREAM_TOPS = {1: 3000, 7: 3000, 4099: 600_000, sequences._SEGMENT: 10**6}
STREAM_SIZES = tuple(STREAM_TOPS)


@pytest.mark.parametrize("size", STREAM_SIZES)
@pytest.mark.parametrize("name", STREAM_SPECS)
def test_extension_segments_are_the_old_extension_bit_for_bit(name, size, table_big, monkeypatch):
    # The segment size also sizes the groups of the largest-prime pass.
    monkeypatch.setattr(sequences, "_SEGMENT", size)
    spec, top = STREAM_SPECS[name], STREAM_TOPS[size]
    ref = _extend_ref(spec, table_big, top)
    lo = 1
    for segment in sequences.extension_segments(spec, table_big, top):
        assert segment.dtype == np.complex128 and segment.size == min(size, top + 1 - lo)
        assert np.array_equal(segment.view(np.uint64), ref[lo : lo + segment.size].view(np.uint64)), lo
        lo += segment.size
    assert lo == top + 1
    for n in (0, 1, 2, 3, 4, 24, 25, 26, 2999, top):
        whole = ig.extend_completely_multiplicative(spec, table_big, n)
        assert whole.dtype == np.complex128
        assert np.array_equal(whole.view(np.uint64), ref[: n + 1].view(np.uint64)), n


def test_extension_segments_select_their_primes_once(table_small, monkeypatch):
    monkeypatch.setattr(sequences, "_SEGMENT", 7)
    calls = []
    nontrivial = ig.MultiplicativeSpec.nontrivial
    monkeypatch.setattr(ig.MultiplicativeSpec, "nontrivial", lambda self, *args: calls.append(args) or nontrivial(self, *args))
    segments = list(sequences.extension_segments(STREAM_SPECS["seeded mean, seed 1"], table_small, 3000))
    assert len(segments) == 429 and calls == [(table_small, 3000)]


def _stream_grid(size):
    top = STREAM_TOPS[size]
    edges = {7, 8, 48, 49, 50, 1000, 2999, 4099, 8198, 131_072, 131_073, 262_144, 262_145, top}
    return sorted({n for n in edges if n <= top} | set(parse_grid(f"3:{top}:x3")))


def _spec_reports(spec, table, grid):
    """The bytes of mean, verify theorem3 and verify theorem1 --spec."""
    reports = [
        verify.mean_report(spec, table, grid, 2.0),
        verify.theorem3_report(spec, table, grid, 2.0, verify.THEOREM3_RATIO_ENVELOPE),
        verify.theorem1_spec_report(spec, table, grid, 0.6),
    ]
    return [b"".join(r.chunks(fmt)) for r in reports for fmt in ("json", "csv")]


def _whole_f_sums(spec, table, grid):
    """The sums of f as they were read: csum over the old extension."""
    return csum(_extend_ref(spec, table, grid[-1])[1:], grid)


@pytest.mark.parametrize("size", STREAM_SIZES)
@pytest.mark.parametrize("name", STREAM_SPECS)
def test_spec_reports_from_segments_match_the_whole_extension(name, size, table_big, monkeypatch):
    spec, grid = STREAM_SPECS[name], _stream_grid(size)
    monkeypatch.setattr(sequences, "_SEGMENT", size)
    got = _spec_reports(spec, table_big, grid)
    assert _bits(verify._f_sums(spec, table_big, grid)) == _bits(_whole_f_sums(spec, table_big, grid))
    monkeypatch.setattr(verify, "_f_sums", _whole_f_sums)
    assert got == _spec_reports(spec, table_big, grid)


@pytest.mark.parametrize("size", [1, 7, 4099])
def test_spec_sums_past_the_exponent_guard_fall_back_to_the_whole_extension(size, table_small, monkeypatch):
    # f(2^10) = 2^1000 trips the guard at n = 1024; f stays finite to 2047.
    spec = ig.MultiplicativeSpec({2: 2.0**100, 3: 0.5j}, cutoff=100, bound_check=False)
    grid = [3, 1023, 1024, 1500, 2047]
    wholes = []

    def counted(*args, **kwargs):
        wholes.append(args)
        return ig.extend_completely_multiplicative(*args, **kwargs)

    monkeypatch.setattr(sequences, "_SEGMENT", size)
    monkeypatch.setattr(verify, "extend_completely_multiplicative", counted)
    got = verify._f_sums(spec, table_small, grid)
    report = b"".join(verify.theorem1_spec_report(spec, table_small, grid, 0.6).chunks("json"))
    assert len(wholes) == 2
    assert math.isfinite(got[-1].real) and abs(got[-1]) >= 2.0**1000
    assert _bits(got) == _bits(_whole_f_sums(spec, table_small, grid))
    monkeypatch.setattr(verify, "_f_sums", _whole_f_sums)
    assert report == b"".join(verify.theorem1_spec_report(spec, table_small, grid, 0.6).chunks("json"))


@pytest.mark.parametrize("size", [1, 7, 4099])
def test_prefix_csums_from_pieces_keep_the_signed_zero_rule(size, rng):
    n = 2 * 4099 + 5
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x[:5000] = complex(-0.0, -0.0)
    cases = {"-0.0 prefix": x, "one +0.0 in the prefix": x.copy(), "all -0.0": np.full(n, complex(-0.0, -0.0))}
    cases["one +0.0 in the prefix"][2000] = complex(-0.0, 0.0)
    cases["real, -0.0 prefix"] = x.real.copy()
    ends = [0, 1, 2, size, size + 1, 1999, 2000, 2001, 4099, 5000, 5001, n]
    for case, values in cases.items():
        pieces = (values[lo : lo + size] for lo in range(0, n, size))
        got = accumulate.prefix_csums(pieces, ends[::-1], lambda: values)
        assert _bits(got) == _bits([csum(values[:end]) for end in ends[::-1]]), case
