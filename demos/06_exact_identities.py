"""Exact identities, checked through independent computation routes.

These are equalities, not estimates: any discrepancy beyond rounding
indicates an implementation bug. The final check ties together every
piece of the package (block sums, Dirichlet sums, f_t quadrature,
zeta-weighted half-line integrals, Euler-Maclaurin tails) in a single
equation whose two sides are computed by disjoint machinery.
"""

import numpy as np

from inghamsum import (
    CoefficientSequence,
    MultiplicativeSpec,
    build_sieve,
    difference_identity_check,
    named_sequence,
    s_decomposition_identity,
    s_difference_identity,
    s_multiplicative_identity,
)

table = build_sieve(50_000)
rng = np.random.default_rng(42)

vals = rng.standard_normal(5000) + 1j * rng.standard_normal(5000)
seq = CoefficientSequence.from_values(vals)

print("S(m) - S(m-1) = sum over k|m of a_k log k  (blocks vs divisor sums):")
print("  max error over m <= 5000:", s_difference_identity(seq, table, 5000))

print("\nS(n) = A(n) log n - sum A(k) log(1+1/k) - sum Lambda(k) A(n/k):")
print("  error at n = 2000:", s_decomposition_identity(seq, table, 2000))

spec = MultiplicativeSpec({2: 0.5j, 3: -1.0}, cutoff=50_000)
print("\nmultiplicative S(m) = sum (f(k)-1) Lambda(k) sum_{l<=m/k} f(l):")
print("  error at m = 2000:", s_multiplicative_identity(spec, table, 2000))

# The full difference identity: A(n) - n g(1+1/log n) - S(n)/log n equals
# an S-weighted combination of F_t integrals minus a zeta-weighted series,
# with the sums truncated at K = 2e4 and the default quadrature tolerances.
mu = named_sequence("mu", 20_000, table)
print("\ndifference identity for the mu prefix (truncation 2e4):")
for n in (5, 10, 20):
    res = difference_identity_check(mu, table, n, 20_000)
    print(
        f"  n = {n:>2}: |lhs - rhs| = {res.error:.2e}"
        f"   (quadrature budget {res.quad_error:.1e}, series tail {abs(res.tail_correction):.1e})"
    )
