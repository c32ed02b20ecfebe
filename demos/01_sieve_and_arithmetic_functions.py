"""Sieve-backed arithmetic functions: primes, mu, Lambda, Psi and friends.

One sieve drives everything: the primes it keeps, and the tables built
from them on first read, give factorization (through the
smallest-prime-factor table), the Mobius and von Mangoldt functions, the Chebyshev function Psi(x), the
deviation Delta(x, y) = Psi(y) - Psi(x) - (y - x), divisor enumeration
and the partial sums of mu(d)/d (which famously never leave [-1, 1]).
"""

import numpy as np

from inghamsum import build_sieve

table = build_sieve(100_000)
print(f"table limit {table.limit}, primes up to limit: {len(table.primes)}")
print("first primes:", table.primes[:10].tolist())

print("\nsmallest prime factors of 2..20:", table.spf[2:21].tolist())
print("divisors of 360:", table.divisors(360))

print("\nmu(m) for m = 1..20:", [table.mobius(m) for m in range(1, 21)])
print("Lambda(8) = log 2 =", table.mangoldt(8))
print("Lambda(6) = 0 (two distinct primes):", table.mangoldt(6))

print("\nPsi(10) =", table.chebyshev_psi(10))
print("Psi(x)/x along powers of ten (heads toward 1):")
for x in (10, 100, 1000, 10_000, 100_000):
    print(f"  x = {x:>6}: Psi(x)/x = {table.chebyshev_psi(x) / x:.6f}")

print("\nDelta(x, 2x) measures the prime imbalance on [x, 2x]:")
for x in (100, 1000, 10_000):
    print(f"  Delta({x}, {2 * x}) = {table.delta(x, 2 * x):+.4f}")

partials = [table.mu_over_d_partial(x) for x in range(1, 50_001)]
print("\nsup |sum of mu(d)/d up to x| for x <= 5e4:", max(abs(v) for v in partials))
print("(the known bound is 1, attained only at x = 1)")

values = np.array(partials)
print("last few partial sums:", np.round(values[-3:], 8).tolist())
