import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import inghamsum as ig
from inghamsum import (
    CoefficientSequence,
    MultiplicativeSpec,
    SpecFormatError,
    a_from_f,
    extend_completely_multiplicative,
    f_from_a,
    named_sequence,
    sequences,
    sum_over_divisors,
    summation,
)
from inghamsum.cli import load_spec_file

from conftest import cli_peak_rss, traced_peak, trial_totient

SRC = Path(__file__).resolve().parent.parent / "src"

complex_lists = st.lists(
    st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=64,
)


def test_from_values_shape_and_prefixes(rng):
    vals = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    seq = CoefficientSequence.from_values(vals)
    assert seq.length == 50
    assert seq.a[0] == 0
    np.testing.assert_allclose(seq.values(), vals)
    # The prefix sums that batch_sums gathers from seq.a, at every end.
    prefix_a, prefix_alog = summation._prefixes_at(seq.a, np.arange(51))
    for k in (1, 7, 50):
        assert prefix_a[k] == pytest.approx(vals[:k].sum(), rel=1e-12)
        expected = sum(vals[j - 1] * math.log(j) for j in range(1, k + 1))
        assert prefix_alog[k] == pytest.approx(expected, rel=1e-12, abs=1e-12)
    assert prefix_alog[1] == 0


def test_from_values_rejects_empty():
    with pytest.raises(ValueError):
        CoefficientSequence.from_values([])


def test_f_from_a_unit(table_small):
    seq = named_sequence("unit", 100, table_small)
    f = f_from_a(table_small, seq)
    np.testing.assert_allclose(f[1:], np.ones(100))


def test_f_from_a_mobius_gives_indicator(table_small):
    seq = named_sequence("mu", 5000, table_small)
    f = f_from_a(table_small, seq)
    assert f[1] == 1
    np.testing.assert_allclose(f[2:], np.zeros(4999), atol=1e-12)


def test_f_from_a_divisor_example(table_small):
    a = np.zeros(8)
    a[0] = a[1] = a[3] = 1  # a_1 = a_2 = a_4 = 1
    seq = CoefficientSequence.from_values(a)
    f = f_from_a(table_small, seq)
    assert f[4] == pytest.approx(3)


def test_f_from_a_length_guard(table_small):
    seq = named_sequence("unit", 100, table_small)
    with pytest.raises(ValueError):
        f_from_a(ig.build_sieve(50), seq)


def test_a_from_f_constant_one(table_small):
    f = np.ones(201, dtype=complex)
    f[0] = 0
    seq = a_from_f(table_small, f)
    assert seq.a[1] == pytest.approx(1)
    np.testing.assert_allclose(seq.a[2:], np.zeros(199), atol=1e-12)


def test_a_from_f_identity_map_gives_totient(table_small):
    f = np.arange(101, dtype=complex)
    seq = a_from_f(table_small, f)
    expected = [trial_totient(m) for m in range(1, 101)]
    np.testing.assert_allclose(seq.values().real, expected, atol=1e-9)


def test_round_trip_random(table_small, rng):
    vals = rng.standard_normal(2048) + 1j * rng.standard_normal(2048)
    seq = CoefficientSequence.from_values(vals)
    back = a_from_f(table_small, f_from_a(table_small, seq))
    scale = max(1.0, np.abs(vals).max())
    assert np.abs(back.values() - vals).max() <= 1e-12 * scale
    f = f_from_a(table_small, seq)
    f_back = f_from_a(table_small, a_from_f(table_small, f))
    assert np.abs(f_back - f).max() <= 1e-12 * max(1.0, np.abs(f).max())


@settings(max_examples=30, deadline=None)
@given(complex_lists)
def test_round_trip_property(values):
    table = ig.build_sieve(128)
    seq = CoefficientSequence.from_values(values)
    back = a_from_f(table, f_from_a(table, seq))
    scale = max(1.0, float(np.abs(seq.values()).max()))
    assert np.abs(back.values() - seq.values()).max() <= 1e-12 * scale


@settings(max_examples=30, deadline=None)
@given(complex_lists, complex_lists)
def test_inversion_is_linear(xs, ys):
    n = max(len(xs), len(ys))
    table = ig.build_sieve(128)
    fx = np.zeros(n + 1, dtype=complex)
    fy = np.zeros(n + 1, dtype=complex)
    fx[1 : len(xs) + 1] = xs
    fy[1 : len(ys) + 1] = ys
    lhs = a_from_f(table, 2.0 * fx + 0.5j * fy).a
    rhs = 2.0 * a_from_f(table, fx).a + 0.5j * a_from_f(table, fy).a
    scale = max(1.0, float(np.abs(rhs).max()))
    assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def test_sum_over_divisors_skips_zeros(table_small):
    a = np.zeros(1001, dtype=complex)
    a[1] = 2.5
    a[500] = 1j
    out = sum_over_divisors(a)
    assert out[1000] == pytest.approx(2.5 + 1j)
    assert out[999] == pytest.approx(2.5)


def test_extend_all_ones(table_small):
    spec = MultiplicativeSpec(cutoff=100)
    f = extend_completely_multiplicative(spec, table_small, 50)
    np.testing.assert_allclose(f[1:], np.ones(50))


def test_extend_even_zero_pattern(table_small):
    spec = MultiplicativeSpec({2: 0}, cutoff=100)
    f = extend_completely_multiplicative(spec, table_small, 10)
    np.testing.assert_allclose(f[1:], [1, 0, 1, 0, 1, 0, 1, 0, 1, 0])


def test_extend_liouville_first_ten(table_small):
    spec = MultiplicativeSpec(cutoff=10, default=-1.0)
    f = extend_completely_multiplicative(spec, table_small, 10)
    np.testing.assert_allclose(f[1:].real, [1, -1, -1, 1, -1, 1, -1, -1, 1, 1])


def test_extend_respects_cutoff(table_small):
    # Primes above the cutoff act as f(p) = 1 exactly.
    spec = MultiplicativeSpec(cutoff=3, default=-1.0)
    f = extend_completely_multiplicative(spec, table_small, 10)
    np.testing.assert_allclose(f[1:].real, [1, -1, -1, 1, 1, 1, 1, -1, 1, -1])


def test_extend_is_completely_multiplicative(table_small, rng):
    spec = MultiplicativeSpec(
        {2: 0.3 + 0.4j, 3: -1.0, 7: 0.5}, cutoff=1000, default=1.0
    )
    n = 1000
    f = extend_completely_multiplicative(spec, table_small, n)
    for m in range(2, n + 1):
        for k in range(2, n // m + 1):
            assert f[m * k] == pytest.approx(f[m] * f[k], rel=1e-12, abs=1e-12)


def test_extend_prefix_does_not_depend_on_length(table_small):
    spec = MultiplicativeSpec(
        {2: 0.6j, 3: -0.9, 5: 0.8 + 0.5j, 7: 0}, cutoff=10_000, default=-0.28 + 0.96j
    )
    f = extend_completely_multiplicative(spec, table_small, 10_000)
    for n in (25, 26, 27, 99, 1000, 4097, 9999):
        g = extend_completely_multiplicative(spec, table_small, n)
        assert np.array_equal(g.view(np.uint64), f[: n + 1].view(np.uint64)), n


def test_extend_preserves_unit_bound(table_small):
    spec = MultiplicativeSpec(
        {2: 0.6j, 3: -0.9, 5: 0.8 + 0.5j, 7: 0}, cutoff=10_000, default=1.0
    )
    f = extend_completely_multiplicative(spec, table_small, 10_000)
    assert np.abs(f[1:]).max() <= 1.0 + 1e-12


def test_spec_validation_rejects_composite_key():
    with pytest.raises(SpecFormatError):
        MultiplicativeSpec({4: 0.5}, cutoff=100)


def test_spec_validation_rejects_key_above_cutoff():
    with pytest.raises(SpecFormatError):
        MultiplicativeSpec({101: 0.5}, cutoff=100)


def test_spec_validation_names_offending_prime():
    with pytest.raises(SpecFormatError, match=r"f\(2\)"):
        MultiplicativeSpec({2: 1.5}, cutoff=100)


def test_spec_validation_checks_default():
    with pytest.raises(SpecFormatError):
        MultiplicativeSpec(cutoff=100, default=-2.0)
    MultiplicativeSpec(cutoff=100, default=-2.0, bound_check=False)


def test_spec_bound_check_rejects_nan():
    nan = float("nan")
    with pytest.raises(SpecFormatError, match=r"f\(3\)"):
        MultiplicativeSpec({3: complex(nan, 0)}, cutoff=100)
    with pytest.raises(SpecFormatError, match="default"):
        MultiplicativeSpec(cutoff=100, default=complex(0, nan))


def test_spec_value_at(table_small):
    spec = MultiplicativeSpec({2: 0.5j}, cutoff=10, default=-1.0)
    assert spec.value_at(2) == 0.5j
    assert spec.value_at(7) == -1.0
    assert spec.value_at(11) == 1.0  # beyond cutoff


def test_named_sequences(table_small):
    mu = named_sequence("mu", 10, table_small)
    np.testing.assert_allclose(mu.values().real, [1, -1, -1, 0, -1, 1, -1, 0, 0, 1])
    inv = named_sequence("inverse-squares", 3, table_small)
    np.testing.assert_allclose(inv.values().real, [1, 0.25, 1 / 9])
    one = named_sequence("one", 4, table_small)
    np.testing.assert_allclose(one.values().real, [1, 1, 1, 1])
    with pytest.raises(SpecFormatError):
        named_sequence("totient", 10, table_small)


def _least_peaks(argvs):
    """The least peak RSS of three fresh runs of each command, the runs
    interleaved. The peaks of the mu commands below differ by only about
    0.5 MB in all, and a run whose pages land badly reads about 0.2 MB
    high, which one run per grid top read as growth of up to 7.4 bytes
    per integer (theorem2) and 6.1 (axer)."""
    runs = cli_peak_rss(SRC, argvs * 3)
    return [min(runs[i :: len(argvs)]) for i in range(len(argvs))]


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB is Linux behaviour")
def test_theorem2_mu_peak_memory_grows_by_at_most_6_bytes_per_integer():
    limits = (100_000, 200_000, 400_000)
    argvs = [
        ["verify", "theorem2", "--coeffs", "mu", "--n", f"1000,{n}", "--sigma", "2,1.25", "--format", "json"]
        for n in limits
    ]
    peaks = _least_peaks(argvs)
    # Three complex128 arrays of mu and an unchunked g_eval grew by 93-98
    # bytes per integer, and real storage with its two prefix arrays by
    # 24-28; gathering the prefix sums at the block ends alone took 6-11
    # with a float64 copy of mu, and 1.5-3.8 with mu the sieve's int8
    # table. With the grids' block ends sorted instead of marked in an
    # int32 map, the least of three runs read -0.5 to 0.3 and 3.5-4.1.
    for (lo, hi), (a, b) in zip(zip(limits, limits[1:]), zip(peaks, peaks[1:])):
        growth = (b - a) / (hi - lo)
        assert growth <= 6, (lo, hi, growth)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB is Linux behaviour")
def test_theorem1_mu_peak_memory_grows_by_at_most_6_bytes_per_integer():
    # One step from 1e5 to 8e5: the +-0.3 MB that page placement moves a
    # fresh process's peak is 0.4 bytes per integer over 7e5 integers,
    # where steps of 1e5 and 2e5 read 4.1-5.5 against the bound.
    limits = (100_000, 800_000)
    argvs = [["verify", "theorem1", "--coeffs", "mu", "--n", f"1000,{n}", "--format", "json"] for n in limits]
    peaks = _least_peaks(argvs)
    # A(n) per point from the cached prefix_a grew by 18-19 bytes per
    # integer; one batch_sums call, which gathers the block ends, by 7-10
    # on a float64 copy of mu, and by at most 4.1 on the int8 table
    # (steps of 1e5 and 2e5); the one wide step reads 1.3-1.6.
    for (lo, hi), (a, b) in zip(zip(limits, limits[1:]), zip(peaks, peaks[1:])):
        growth = (b - a) / (hi - lo)
        assert growth <= 6, (lo, hi, growth)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB is Linux behaviour")
def test_wintner_mu_peak_memory_grows_by_at_most_6_bytes_per_integer():
    limits = (100_000, 200_000, 400_000)
    argvs = [["verify", "wintner", "--coeffs", "mu", "--n", f"1000,{n}", "--format", "json"] for n in limits]
    peaks = _least_peaks(argvs)
    # Per-point terms up to each n and the cached prefix_a grew by 30-33
    # bytes per integer; the terms formed once and read at every n, with
    # A(n) from batch_sums, by 22-25; the terms formed chunk by chunk
    # into streamed exact sums, beside a float64 copy of mu, by 7.5-9,
    # and beside the sieve's int8 table by 0.4-3.5.
    for (lo, hi), (a, b) in zip(zip(limits, limits[1:]), zip(peaks, peaks[1:])):
        growth = (b - a) / (hi - lo)
        assert growth <= 6, (lo, hi, growth)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB is Linux behaviour")
def test_axer_mu_peak_memory_grows_by_at_most_6_bytes_per_integer():
    limits = (100_000, 200_000, 400_000)
    argvs = [["verify", "axer", "--coeffs", "mu", "--n", f"1000,{n}", "--format", "json"] for n in limits]
    peaks = _least_peaks(argvs)
    # np.cumsum(np.abs(a)) over the whole sequence grew by about 24.5
    # bytes per integer; a running sum over chunks read at the grid
    # points holds no N-length array but the sequence: 8.5-14 with a
    # float64 copy of mu, 0.5-3.3 with the sieve's int8 table.
    for (lo, hi), (a, b) in zip(zip(limits, limits[1:]), zip(peaks, peaks[1:])):
        growth = (b - a) / (hi - lo)
        assert growth <= 6, (lo, hi, growth)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB is Linux behaviour")
def test_ingham_liouville_peak_memory_grows_by_at_most_8_bytes_per_integer():
    limits = (100_000, 200_000, 400_000)
    argvs = [["ingham", "--coeffs", "liouville", "--n", f"1000,{n}", "--format", "json"] for n in limits]
    peaks = cli_peak_rss(SRC, argvs)
    # The complex128 extension over every prime, of which liouville kept
    # the real part, grew by 46-51 bytes per integer; the float64 fill
    # from the SPF table with both prefix arrays took 27-31, without
    # them 8-14, and the int8 fill at most 3.6; the sign sieve, which
    # reads no SPF table, took -0.9 to 3.2 over 30 runs.
    for (lo, hi), (a, b) in zip(zip(limits, limits[1:]), zip(peaks, peaks[1:])):
        growth = (b - a) / (hi - lo)
        assert growth <= 8, (lo, hi, growth)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB is Linux behaviour")
def test_difference_mu_peak_memory_grows_by_at_most_60_bytes_per_integer():
    limits = (200_000, 400_000, 800_000)
    argvs = [
        ["identity", "difference", "--coeffs", "mu", "--n", "10", "--truncation", str(k), "--format", "json"]
        for k in limits
    ]
    peaks = cli_peak_rss(SRC, argvs)
    # np.cumsum of the complex128 divisor sums, their whole nonzero
    # places and a complex128 copy of a_j log j in the series tail grew
    # by 93-96 bytes per integer of the truncation; S(k) gathered at the
    # k read, the sums dropped before the tail, the tail's weights formed
    # at the nonzero a_j alone and the lattice's cofactor adds in slices
    # took 40; float64 divisor sums of a real a_j log j formed in place,
    # and a tail set up without its temporaries, 30-33; the lattice's
    # nonzero places and weights gathered per run of d, and the series
    # head freed before the tail, take 21.5-23.
    for (lo, hi), (a, b) in zip(zip(limits, limits[1:]), zip(peaks, peaks[1:])):
        growth = (b - a) / (hi - lo)
        assert growth <= 60, (lo, hi, growth)


def test_cli_peak_rss_of_a_command_that_prints():
    # `report --help` writes to stdout, which once ran into the
    # launcher's JSON and raised a bare JSONDecodeError.
    (peak,) = cli_peak_rss(SRC, [["report", "--help"]])
    assert peak > 0


# Grid tops above the extension's segment (2**17 integers), whose fixed
# 2 MB would otherwise read as growth.
_SPEC_LIMITS = (1_000_000, 2_000_000, 4_000_000)


def _spec_growth(*argv):
    """Bytes of peak RSS per integer between consecutive grid tops n of
    the command, each "{n}" in argv filled in."""
    peaks = cli_peak_rss(SRC, [[arg.format(n=n) for arg in argv] for n in _SPEC_LIMITS])
    pairs = zip(zip(_SPEC_LIMITS, _SPEC_LIMITS[1:]), zip(peaks, peaks[1:]))
    return [(lo, hi, (b - a) / (hi - lo)) for (lo, hi), (a, b) in pairs]


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB is Linux behaviour")
def test_theorem1_spec_peak_memory_grows_by_at_most_4_bytes_per_integer():
    spec = Path(__file__).resolve().parent / "data" / "f2zero.json"
    # Between tops 1e5 and 4e5 the command grew by 31-37 bytes per
    # integer with an int64 SPF table and whole-part csum copies, 20-22
    # with an int32 one, and about 16 with none. Between these tops the
    # whole complex128 extension grew by 16.5; its segments streamed into
    # the exact sums leave the sieve's growth, 0.5-1.7.
    for lo, hi, growth in _spec_growth("verify", "theorem1", "--spec", str(spec), "--grid", "1000,{n}"):
        assert growth <= 4, (lo, hi, growth)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB is Linux behaviour")
def test_mean_spec_peak_memory_grows_by_at_most_4_bytes_per_integer():
    spec = Path(__file__).resolve().parent / "data" / "mean_seed7.json"
    # Complex f(p) below 1000 and f(p) = -1 up to the cutoff 1e6: the
    # whole extension grew by 16.6-17.8 bytes per integer, its segments
    # by 0.6-1.9.
    for lo, hi, growth in _spec_growth("mean", "--spec", str(spec), "--n", "1000,{n}"):
        assert growth <= 4, (lo, hi, growth)


def test_each_extension_segment_at_1e7_takes_at_most_8_mib():
    # The benchmark's seed-7 mean spec: f(p) = -1 for the 78 k primes up
    # to the cutoff 1e6, so the largest-prime pass of a segment gathers
    # about half a segment of (p, j) pairs. Segments of 2**18 integers,
    # with the pairs' places formed from four temporaries, took up to
    # 12.6 MiB each (11.6 for the one ending at 1e7); 2**17 integers, the
    # places formed in place and only the primes with a multiple in the
    # segment grouped, take up to 7.6 MiB.
    spec = load_spec_file(str(Path(__file__).resolve().parent / "data" / "mean_seed7.json"))
    segments = sequences.extension_segments(spec, ig.build_sieve(10**7), 10**7)
    peaks = []
    while True:
        segment, peak = traced_peak(lambda: next(segments, None))
        if segment is None:
            break
        peaks.append(peak)
    assert len(peaks) == -(-(10**7) // sequences._SEGMENT)
    assert max(peaks) <= 8 * 2**20, max(peaks) / 2**20
