"""Dirichlet sums, the real-axis zeta function, Euler products and the
auxiliary family f_t(m) = prod over p|m of (1 - p^-t).

zeta runs on Euler-Maclaurin corrections and stays accurate arbitrarily
close to the pole at 1, which matters because everything here evaluates
at sigma = 1 + 1/log n. Euler products skip f(p) = 1 factors exactly, so
a spec's cutoff convention costs nothing.
"""

import math

from inghamsum import (
    MultiplicativeSpec,
    build_sieve,
    euler_product,
    f_t_table,
    ft_partial_sum,
    g_eval,
    l_t,
    mu_n_alpha,
    named_sequence,
    zeta_real,
)

table = build_sieve(1_000_000)

print("zeta on the real ray:")
for s in (1.001, 1.1, 2.0, 4.0):
    print(f"  zeta({s}) = {zeta_real(s):.12f}")
print("  zeta(2) - pi^2/6 =", zeta_real(2.0) - math.pi**2 / 6)

mu = named_sequence("mu", 1_000_000, table)
g = g_eval(mu, 2.0, 1_000_000)
print(f"\nDirichlet sum of mu at sigma=2 over 1e6 terms: {g.real:.8f}")
print(f"1/zeta(2) = {1 / zeta_real(2.0):.8f}  (truncation tail ~ 1e-6)")

liouville = MultiplicativeSpec(cutoff=1_000_000, default=-1.0)
prod = euler_product(liouville, table, 2.0, 1_000_000)
print(f"\nLiouville Euler product at sigma=2: {prod.real:.8f}")
print(f"zeta(4)/zeta(2)^2 = {zeta_real(4.0) / zeta_real(2.0) ** 2:.8f}")

lam_seq = named_sequence("liouville", 1_000_000, table)
series = g_eval(lam_seq, 2.0, 1_000_000)
print(f"Liouville Dirichlet sum at sigma=2: {series.real:.8f}")
print(f"zeta(4)/zeta(2)   = {zeta_real(4.0) / zeta_real(2.0):.8f}")

print("\nthe f_t family and its partial sums F_t:")
for t in (0.1, 1.0, 10.0):
    ft = f_t_table(table, t, 1000)
    print(f"  t = {t:>4}: F_t(1000) = {ft.F(1000):10.4f}   1000/zeta(1+t) = {1000 / zeta_real(1 + t):10.4f}")
print("k-free cross-check, mu-weighted identity at x = 1000, t = 1:")
print("  table route:", f_t_table(table, 1.0, 1000).F(1000))
print("  divisor route:", ft_partial_sum(table, 1000, 1.0))

print("\ngenerating ratio L_t(s) = zeta(s)/zeta(s+t):")
print("  L_1(2) =", l_t(2.0, 1.0))

print("\nHoelder prime deviation mu_n(alpha) for f(2) = 0:")
even_zero = MultiplicativeSpec({2: 0}, cutoff=1_000_000)
for n in (10**3, 10**4, 10**5, 10**6):
    print(f"  n = {n:>7}: mu_n(2) = {mu_n_alpha(even_zero, table, n, 2.0):.6f}")
print("(single deviating prime: the value is sqrt(log 2 / (2 log n)))")
