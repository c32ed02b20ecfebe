"""Ingham sums A(n), weighted sums S(n), and Abel-type partial sums.

A(n) = sum a_k floor(n/k) and S(n) = sum a_k floor(n/k) log k are the
two quantities the whole package revolves around. Floor-quotient block
decomposition answers single queries in O(sqrt n); the divisor-lattice
sweep produces every value up to N at once. For Mobius coefficients the
two have famous closed forms: A(n) = 1 exactly and S(n) = -Psi(n).
"""

import math

from inghamsum import (
    CoefficientSequence,
    WeightSequence,
    abel_lambda_sum,
    abel_power_sum,
    batch_sums,
    build_sieve,
    cumulative_sums,
    ingham_A,
    ingham_S,
    ingham_series_partial,
    named_sequence,
    tauber_weighted,
)

table = build_sieve(100_000)
mu = named_sequence("mu", 100_000, table)

print("A(n) for mu coefficients is exactly 1 at every n:")
for n in (10, 1000, 99_991):
    print(f"  A({n}) = {ingham_A(mu, n)}")

print("\nS(n) equals -Psi(n):")
for n in (10, 1000, 100_000):
    print(f"  S({n}) = {ingham_S(mu, n).real:+.6f}   -Psi({n}) = {-table.chebyshev_psi(n):+.6f}")

# Dense sweeps via the lattice agree with per-point block queries.
A_all, S_all = cumulative_sums(mu, 1000)
point = batch_sums(mu, [10, 100, 1000])
print("\nsweep vs per-point at n = 1000:", A_all[1000], point[-1].A)

# Ingham partial sums of a formal series: sum (m/n) floor(n/m) c_m.
ones = named_sequence("one", 10_000, table)
print("\nIngham partial sums of the all-ones series (diverges like log n):")
for n in (10, 100, 1000, 10_000):
    print(f"  n = {n:>5}: {ingham_series_partial(ones, n).real:.4f}  (log n = {math.log(n):.4f})")

# Tauber's weighted partial sums and Abel summation.
inv = named_sequence("inverse-squares", 10_000, table)
print("\nsum k a_k for a_k = 1/k^2 tends to the harmonic series:")
print("  at n = 100:", tauber_weighted(inv, 100).real)

alt = CoefficientSequence.from_values([(-1) ** k for k in range(1, 201)])
print("\nAbel sum of the alternating series at x = 0.9:", abel_power_sum(alt, 0.9).real)
print("limit as x -> 1 would be -1/2 (the Abel value)")

print("\nlog-weighted Abel sum equals the Dirichlet sum term by term:")
print("  mu with x = 2:", abel_lambda_sum(mu, WeightSequence.log_weights(100_000), 2.0).real)
print("  1/zeta(2)    :", 1 / (math.pi**2 / 6))
