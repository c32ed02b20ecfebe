import math

import numpy as np
import pytest

from inghamsum import CapacityError, build_sieve
from inghamsum.dirichlet import f_t_table
from inghamsum.sequences import named_sequence
from inghamsum.verify import difference_identity_check

from conftest import traced_peak, trial_divisors, trial_mangoldt, trial_mobius, trial_primes

PSI_10 = 7.832014180505469  # 3 log 2 + 2 log 3 + log 5 + log 7
PSI_16 = 13.488005991325322  # PSI_10 + log 11 + log 13 + log 2


def test_primes_small():
    assert build_sieve(10).primes.tolist() == [2, 3, 5, 7]


def test_primes_smallest_table():
    assert build_sieve(2).primes.tolist() == [2]


def test_spf_examples():
    t = build_sieve(30)
    assert t.spf[30] == 2
    assert t.spf[15] == 3


def test_spf_matches_trial_division():
    t = build_sieve(3000)
    for m in range(2, 3001):
        p = int(t.spf[m])
        assert m % p == 0
        assert all(m % q for q in range(2, p))


def test_build_keeps_no_spf_table_until_it_is_read():
    for n in (2, 97, 10_000):
        t = build_sieve(n)
        assert t._spf is None
        t.mobius_array, t.mangoldt_array, t.psi_prefix
        f_t_table(t, 1.0, n)
        named_sequence("mu", n, t)
        named_sequence("liouville", n, t)
        k = min(n, 300)
        difference_identity_check(named_sequence("mu", k, t), t, min(n, 10), k)
        list(t.segments())
        assert t._spf is None, n
        spf = t.spf
        assert t._spf is spf and t.spf is spf and t.spf is spf, n
        assert not spf.flags.writeable


def test_primes_ascending_and_membership():
    t = build_sieve(5000)
    assert np.all(np.diff(t.primes) > 0)
    assert t.primes.tolist() == trial_primes(5000)
    for p in (2, 97, 4999):
        assert t.is_prime(p)
    for c in (1, 4, 4998):
        assert not t.is_prime(c)


def test_capacity_guard():
    with pytest.raises(CapacityError):
        build_sieve(1)
    with pytest.raises(CapacityError):
        build_sieve(2 * 10**8)


def test_mobius_array_temporaries_stay_under_2_mb():
    # One index array over the 664,000 primes above sqrt(1e7) took 5.3 MB.
    table = build_sieve(10**7)
    mu, peak = traced_peak(lambda: table.mobius_array)
    assert peak - mu.nbytes < 2 * 2**20, peak


def test_mobius_examples(table_small):
    assert table_small.mobius(1) == 1
    assert table_small.mobius(12) == 0
    assert table_small.mobius(30) == -1


def test_mobius_matches_trial_division(table_small):
    mu = table_small.mobius_array
    for m in range(1, 3000):
        expected = trial_mobius(m)
        assert table_small.mobius(m) == expected
        assert int(mu[m]) == expected


def test_mobius_range_errors(table_small):
    with pytest.raises(ValueError):
        table_small.mobius(0)
    with pytest.raises(ValueError):
        table_small.mobius(table_small.limit + 1)


def test_mangoldt_examples(table_small):
    assert table_small.mangoldt(1) == 0.0
    assert table_small.mangoldt(8) == pytest.approx(math.log(2), abs=1e-12)
    assert table_small.mangoldt(6) == 0.0


def test_mangoldt_matches_trial_division(table_small):
    lam = table_small.mangoldt_array
    for m in range(1, 2000):
        expected = trial_mangoldt(m)
        assert table_small.mangoldt(m) == pytest.approx(expected, abs=1e-12)
        assert lam[m] == pytest.approx(expected, abs=1e-12)


def test_psi_examples(table_small):
    assert table_small.chebyshev_psi(1.5) == 0.0
    assert table_small.chebyshev_psi(10) == pytest.approx(PSI_10, abs=1e-6)
    assert table_small.chebyshev_psi(16) == pytest.approx(PSI_16, abs=1e-6)


def test_psi_nondecreasing_with_linear_envelope(table_big):
    psi = table_big.psi_prefix
    assert np.all(np.diff(psi) >= 0)
    x = np.arange(100, table_big.limit + 1)
    assert np.all(psi[x] <= 1.1 * x)


def test_psi_range_errors(table_small):
    with pytest.raises(ValueError):
        table_small.chebyshev_psi(-1)
    with pytest.raises(ValueError):
        table_small.chebyshev_psi(table_small.limit + 0.5)


def test_delta_examples(table_small):
    assert table_small.delta(7.0, 7.0) == 0.0
    # Frozen from the prime-power enumeration oracle above.
    psi_8 = math.fsum([3 * math.log(2), math.log(3), math.log(5), math.log(7)])
    assert table_small.delta(8, 16) == pytest.approx(PSI_16 - psi_8 - 8, abs=1e-9)
    assert table_small.delta(8, 16) == pytest.approx(-1.2453959, abs=1e-6)
    assert table_small.delta(0, 10) == pytest.approx(PSI_10 - 10, abs=1e-9)
    with pytest.raises(ValueError):
        table_small.delta(5, 4)


def test_mu_over_d_examples(table_small):
    assert table_small.mu_over_d_partial(1) == 1.0
    assert table_small.mu_over_d_partial(3) == pytest.approx(1 - 1 / 2 - 1 / 3, abs=1e-12)
    # Direct-sum oracle: 1 - 1/2 - 1/3 - 1/5 + 1/6 - 1/7 + 1/10 = 19/210.
    assert table_small.mu_over_d_partial(10) == pytest.approx(19 / 210, abs=1e-9)


def test_mu_over_d_bounded(table_small):
    values = [table_small.mu_over_d_partial(x) for x in range(1, 10_001)]
    assert max(abs(v) for v in values) <= 1.0


def test_divisors_examples(table_small):
    assert table_small.divisors(1) == [1]
    assert table_small.divisors(12) == [1, 2, 3, 4, 6, 12]
    assert table_small.divisors(7) == [1, 7]


def test_divisors_match_brute_force(table_small):
    for m in range(1, 500):
        assert table_small.divisors(m) == trial_divisors(m)


def test_mobius_fundamental_identity(table_small):
    for m in range(1, 2001):
        total = sum(table_small.mobius(d) for d in table_small.divisors(m))
        assert total == (1 if m == 1 else 0)


def test_mangoldt_sums_to_log(table_small):
    lam = table_small.mangoldt_array
    for m in range(1, 10_001):
        total = math.fsum(float(lam[d]) for d in table_small.divisors(m))
        assert abs(total - math.log(m)) <= 1e-9


def test_table_arrays_immutable(table_small):
    with pytest.raises(ValueError):
        table_small.spf[10] = 1
    with pytest.raises(ValueError):
        table_small.mobius_array[10] = 5
