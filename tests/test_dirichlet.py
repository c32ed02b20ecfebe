import math

import numpy as np
import pytest
from scipy.special import zeta as scipy_zeta

import inghamsum as ig
from inghamsum import (
    MultiplicativeSpec,
    SingularFactorError,
    euler_product,
    f_t_table,
    ft_partial_sum,
    g_eval,
    l_t,
    mu_n_alpha,
    named_sequence,
    zeta_real,
    zeta_tail,
)

ZETA3 = 1.2020569031595943


def test_zeta_examples():
    assert zeta_real(2.0) == pytest.approx(math.pi**2 / 6, abs=1e-12)
    assert zeta_real(4.0) == pytest.approx(math.pi**4 / 90, abs=1e-12)
    assert zeta_real(30.0) == pytest.approx(1.0 + 2.0**-30, abs=1e-12)
    assert zeta_real(3.0) == pytest.approx(ZETA3, abs=1e-12)


@pytest.mark.parametrize("sigma", [1.01, 1.05, 1.1, 1.5, 2.0, 3.5, 7.0, 20.0])
def test_zeta_matches_scipy(sigma):
    assert zeta_real(sigma) == pytest.approx(float(scipy_zeta(sigma)), rel=1e-12)


def test_zeta_pole_bracketing():
    # 1/(u-1) < zeta(u) < u/(u-1) on the real ray.
    for u in (1.001, 1.1, 1.5, 2.0, 5.0):
        z = zeta_real(u)
        assert 1.0 / (u - 1.0) < z < u / (u - 1.0)


def test_zeta_domain_error():
    with pytest.raises(ValueError):
        zeta_real(1.0)
    with pytest.raises(ValueError):
        zeta_real(0.5)


def test_zeta_tail_consistency():
    for sigma in (1.25, 1.7, 3.0):
        for start in (2, 50, 1000):
            head = math.fsum(m**-sigma for m in range(1, start))
            assert head + zeta_tail(sigma, start) == pytest.approx(
                zeta_real(sigma), rel=1e-12
            )


def test_g_eval_validation(table_small):
    unit = named_sequence("unit", 100, table_small)
    with pytest.raises(ValueError, match="sigma must exceed 1"):
        g_eval(unit, 1.0, 10)
    with pytest.raises(ValueError, match="sigma must exceed 1"):
        g_eval(unit, math.nan, 10)
    with pytest.raises(ValueError, match=r"truncation 0 outside \[1, 100\]"):
        g_eval(unit, 2.0, 0)
    with pytest.raises(ValueError, match=r"truncation 101 outside \[1, 100\]"):
        g_eval(unit, 2.0, 101)


def test_g_eval_unit(table_small):
    unit = named_sequence("unit", 100, table_small)
    for sigma in (1.1, 2.0, 9.0):
        assert g_eval(unit, sigma, 100) == pytest.approx(1.0)


def test_g_eval_mobius_inverse_zeta(table_big):
    mu = named_sequence("mu", 10**6, table_big)
    res = g_eval(mu, 2.0, 10**6)
    assert res.real == pytest.approx(1.0 / zeta_real(2.0), abs=1e-5)


def test_g_eval_shifted_zeta(table_big):
    inv = named_sequence("inverse-squares", 10**6, table_big)
    res = g_eval(inv, 1.5, 10**6)
    assert res.real == pytest.approx(zeta_real(3.5), abs=1e-5)
    assert res.real == pytest.approx(1.1267338, abs=1e-5)


def test_g_eval_truncation_guard(table_small):
    unit = named_sequence("unit", 100, table_small)
    with pytest.raises(ValueError):
        g_eval(unit, 2.0, 101)


def test_euler_product_all_ones(table_small):
    spec = MultiplicativeSpec(cutoff=10_000)
    assert euler_product(spec, table_small, 1.0, 10_000) == 1.0 + 0j


def test_euler_product_single_factor(table_small):
    spec = MultiplicativeSpec({2: 0}, cutoff=10_000)
    assert euler_product(spec, table_small, 1.0, 10_000) == 0.5 + 0j


def test_euler_product_liouville_closed_form(table_big):
    spec = MultiplicativeSpec(cutoff=10**6, default=-1.0)
    value = euler_product(spec, table_big, 2.0, 10**6)
    assert value.real == pytest.approx(zeta_real(4.0) / zeta_real(2.0) ** 2, abs=1e-5)
    assert value.real == pytest.approx(0.4, abs=1e-5)


def test_euler_product_singular_factor(table_small):
    spec = MultiplicativeSpec({2: 2.0}, cutoff=100, bound_check=False)
    with pytest.raises(SingularFactorError):
        euler_product(spec, table_small, 1.0, 100)


def test_euler_product_domain(table_small):
    spec = MultiplicativeSpec(cutoff=100)
    with pytest.raises(ValueError):
        euler_product(spec, table_small, 0.9, 100)
    with pytest.raises(ValueError):
        euler_product(spec, table_small, 2.0, table_small.limit + 1)


def test_series_product_duality(table_big):
    # Finitely many f(p) != 1: the inverted coefficients' Dirichlet sum
    # must match the finite Euler product.
    spec = MultiplicativeSpec({2: 0, 3: 0.5}, cutoff=10**6)
    f = ig.extend_completely_multiplicative(spec, table_big, 10**6)
    seq = ig.a_from_f(table_big, f)
    for sigma in (1.5, 2.0, 3.0):
        g = g_eval(seq, sigma, 10**6)
        prod = euler_product(spec, table_big, sigma, 10**6)
        assert abs(g - prod) <= 1e-4


def test_ft_table_basics(table_small):
    ft = f_t_table(table_small, 1.0, 100)
    assert ft.values[1] == 1.0
    assert np.all(ft.values[1:] > 0)
    assert np.all(ft.values[1:] <= 1.0)
    assert np.all(np.diff(ft.prefix) >= 0)
    # f_1(m) = totient(m)/m.
    assert ft.prefix[10] == pytest.approx(6.2238095, abs=1e-6)


def test_ft_table_large_t_saturates(table_small):
    ft = f_t_table(table_small, 50.0, 100)
    assert ft.F(10) == pytest.approx(10.0, abs=1e-10)


def test_ft_table_monotone_in_t(table_small):
    grid = [0.5, 1.0, 2.0, 4.0]
    tables = [f_t_table(table_small, t, 200) for t in grid]
    for lo, hi in zip(tables, tables[1:]):
        assert np.all(hi.values[2:] > lo.values[2:])


def test_ft_prefix_bounded_by_floor(table_small):
    for t in (0.1, 1.0, 10.0):
        ft = f_t_table(table_small, t, 5000)
        x = np.arange(1, 5001)
        assert np.all(ft.prefix[x] <= x)


def test_ft_partial_sum_matches_table(table_small):
    for t in (0.3, 1.0, 5.0):
        ft = f_t_table(table_small, t, 2000)
        for x in (1, 17, 500.7, 2000):
            assert ft_partial_sum(table_small, x, t) == pytest.approx(ft.F(x), abs=1e-10)


def test_ft_validation(table_small):
    with pytest.raises(ValueError):
        f_t_table(table_small, 0.0, 100)
    with pytest.raises(ValueError):
        ft_partial_sum(table_small, 10.0, -1.0)


def test_l_t_values():
    assert l_t(2.0, 1e-12) == pytest.approx(1.0, abs=1e-9)
    assert l_t(2.0, 2.0) == pytest.approx(zeta_real(2.0) / zeta_real(4.0), rel=1e-12)
    assert l_t(2.0, 2.0) == pytest.approx(1.5198178, abs=1e-6)
    assert l_t(2.0, 1.0) == pytest.approx(1.3684328, abs=1e-6)
    with pytest.raises(ValueError):
        l_t(1.0, 1.0)
    with pytest.raises(ValueError):
        l_t(2.0, 0.0)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_l_t_against_partial_sums(table_big, t):
    # The generating ratio matches truncated coefficient sums within the
    # crude tail envelope 2 K^(1-s)/(s-1).
    s = 2.0
    K = 100_000
    ft = f_t_table(table_big, t, K)
    partial = float(np.dot(ft.values[1:], np.arange(1, K + 1, dtype=np.float64) ** -s))
    assert abs(l_t(s, t) - partial) <= 2.0 * K ** (1.0 - s) / (s - 1.0)


def test_mu_n_alpha_all_ones(table_small):
    spec = MultiplicativeSpec(cutoff=10_000)
    assert mu_n_alpha(spec, table_small, 10_000, 2.0) == 0.0


def test_mu_n_alpha_single_prime(table_big):
    # Lone deviating prime p = 2: ((1/log n) |f(2)-1|^2 log(2)/2)^(1/2).
    spec = MultiplicativeSpec({2: 0}, cutoff=10**6)
    expected = math.sqrt(math.log(2) / 2 / math.log(10**6))
    assert mu_n_alpha(spec, table_big, 10**6, 2.0) == pytest.approx(expected, abs=1e-9)
    assert mu_n_alpha(spec, table_big, 10**6, 2.0) == pytest.approx(0.1583847, abs=1e-6)


def test_mu_n_alpha_liouville_direct_sum(table_small):
    from conftest import trial_primes

    spec = MultiplicativeSpec(cutoff=10_000, default=-1.0)
    direct = math.fsum(4.0 * math.log(p) / p for p in trial_primes(10_000))
    expected = math.sqrt(direct / math.log(10_000))
    assert mu_n_alpha(spec, table_small, 10_000, 2.0) == pytest.approx(expected, rel=1e-12)


def test_mu_n_alpha_validation(table_small):
    spec = MultiplicativeSpec(cutoff=100)
    with pytest.raises(ValueError):
        mu_n_alpha(spec, table_small, 1, 2.0)
    with pytest.raises(ValueError):
        mu_n_alpha(spec, table_small, 100, 1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda tb: mu_n_alpha(MultiplicativeSpec({2: 0}, cutoff=100), tb, 100, math.nan),
        lambda tb: euler_product(MultiplicativeSpec({2: 0}, cutoff=100), tb, math.nan, 100),
        lambda tb: zeta_real(math.nan),
        lambda tb: zeta_tail(math.nan, 10),
        lambda tb: l_t(math.nan, 1.0),
        lambda tb: l_t(2.0, math.nan),
        lambda tb: f_t_table(tb, math.nan, 100),
        lambda tb: ft_partial_sum(tb, 100.0, math.nan),
    ],
    ids=["mu_n_alpha", "euler_product", "zeta_real", "zeta_tail", "l_t s", "l_t t", "f_t_table", "ft_partial_sum"],
)
def test_nan_arguments_are_rejected(call, table_small):
    with pytest.raises(ValueError):
        call(table_small)
