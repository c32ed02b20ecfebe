"""Numerical evaluation of zeta, Dirichlet sums, Euler products and the
auxiliary multiplicative family f_t.

f_t(m) is the product of (1 - p^-t) over the distinct primes p dividing
m; its partial sums F_t(x) and generating ratio zeta(s)/zeta(s+t) appear
throughout the finite-scale estimates verified by this package. Two
independent routes to F_t are provided (a sieve table over m, and the
exact mu-weighted divisor identity), which the tests play against each
other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .accumulate import ExactSum, csum, rsum
from .sequences import CoefficientSequence, MultiplicativeSpec
from .sieve import SieveTable, _big_prime_multiples
from .summation import _block_terms
from .errors import SingularFactorError

# Euler-Maclaurin correction coefficients B_2k / (2k)! for k = 1, 2, 3, 4.
_EM_COEFFS = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0)
_ZETA_CAP = 1_000_000
# Terms per chunk of g_eval: the chunk's arrays stay in cache, and memory
# does not grow with the truncation.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class FtEvaluation:
    """Tabulated f_t(m) for m <= N and its partial sums F_t.

    values is index-aligned (values[0] = 0, values[1] = 1); prefix[x]
    equals F_t(x) at integer x and is nondecreasing since f_t > 0.
    """

    t: float
    values: np.ndarray
    prefix: np.ndarray

    def F(self, x: float) -> float:
        """F_t(x) for real x; zero below 1."""
        if x < 1:
            return 0.0
        return float(self.prefix[min(int(math.floor(x)), self.prefix.size - 1)])


def _em_tail(sigma: float, M):
    """Euler-Maclaurin value of sum_{m >= M} m^-sigma (M not summed; a float or an array)."""
    tail = M ** (1.0 - sigma) / (sigma - 1.0) + 0.5 * M**-sigma
    poch = sigma
    power = M ** (-sigma - 1.0)
    minv = 1.0 / (M * M)
    for k, coeff in enumerate(_EM_COEFFS):
        tail += coeff * poch * power
        poch *= (sigma + 2 * k + 1) * (sigma + 2 * k + 2)
        power *= minv
    return tail


def zeta_real(sigma: float) -> float:
    """Riemann zeta on the real ray sigma > 1.

    Direct summation to a cut M that grows like 1/(sigma - 1), plus the
    Euler-Maclaurin tail through the B_8 term; relative accuracy is well
    below 1e-12 for sigma >= 1.01 and degrades gracefully toward the
    pole, where the tail term 1/(sigma - 1) dominates.
    """
    if not sigma > 1:
        raise ValueError(f"zeta_real requires sigma > 1, got {sigma}")
    M = int(min(_ZETA_CAP, max(100, math.ceil(10.0 / (sigma - 1.0)))))
    direct = rsum(np.arange(1, M, dtype=np.float64) ** -sigma)
    return direct + _em_tail(sigma, float(M))


def zeta_tail(sigma: float, start: int) -> float:
    """sum_{m >= start} m^-sigma for sigma > 1, to near machine accuracy."""
    if not sigma > 1:
        raise ValueError(f"zeta_tail requires sigma > 1, got {sigma}")
    if start < 1:
        raise ValueError(f"start must be >= 1, got {start}")
    M = start + 50
    direct = rsum(np.arange(start, M, dtype=np.float64) ** -sigma)
    return direct + _em_tail(sigma, float(M))


def g_eval(a: CoefficientSequence, sigma, truncation: int):
    """Truncated Dirichlet sum of the coefficients: sum a_m m^-sigma
    over m <= truncation, for sigma > 1 and 1 <= truncation <= a.length;
    any statement about the unreported tail is the caller's. ``sigma``
    may also be a sequence: the values at every sigma then come back as
    a list, from one pass over the coefficients.

    The terms are formed _CHUNK at a time and summed exactly
    (:class:`accumulate.ExactSum`), so memory does not grow with the
    truncation and the value is :func:`csum` over all the terms bit for
    bit. A real sequence takes one real product per term; a complex one
    takes the separate real products of numpy's complex * real. A real
    chunk that holds zeros forms terms only at its nonzero a_m: a zero
    a_m adds a signed zero, which can change the sum only when the sum
    is zero, so a sigma whose sum comes out zero is summed again over
    every term. A term at or above 2**960, inf or nan sends that sigma's
    sum to :func:`csum`, whose math.fsum then decides the value or the
    exception.
    """
    sigmas = [sigma] if np.ndim(sigma) == 0 else list(sigma)
    for s in sigmas:
        if not s > 1:
            raise ValueError(f"sigma must exceed 1, got {s}")
    if not 1 <= truncation <= a.length:
        raise ValueError(f"truncation {truncation} outside [1, {a.length}]")
    values = _streamed_g(a.a, truncation, sigmas, sparse=True)
    for i, s in enumerate(sigmas):
        if values[i] == 0:
            values[i] = _streamed_g(a.a, truncation, [s], sparse=False)[0]
        if values[i] is None:
            m = np.arange(1, truncation + 1, dtype=np.float64)
            values[i] = csum(a.a[1 : truncation + 1] * m**-s)
    return values[0] if np.ndim(sigma) == 0 else values


def _streamed_g(a: np.ndarray, K: int, sigmas, sparse: bool) -> list:
    """sum a_m m^-sigma over m <= K for every sigma, in chunks; None for
    a sigma whose terms trip the exponent guard of :class:`ExactSum`.
    With sparse, a real chunk that holds zeros forms terms only at its
    nonzero a_m (numpy's power gives the same bits on the gathered m)."""
    real = not np.iscomplexobj(a)
    sums = [(ExactSum(),) if real else (ExactSum(), ExactSum()) for _ in sigmas]
    for lo in range(1, K + 1, _CHUNK):
        hi = min(lo + _CHUNK, K + 1)
        coeffs, m = a[lo:hi], np.arange(lo, hi, dtype=np.float64)
        if sparse and real:
            nonzero = coeffs != 0
            if not nonzero.all():
                coeffs, m = coeffs.compress(nonzero), m.compress(nonzero)
        for i, s in enumerate(sigmas):
            if sums[i] is None:
                continue
            w = m**-s
            terms = (coeffs * w,) if real else _block_terms(coeffs.real, coeffs.imag, w)
            if not all(part.add(t) for part, t in zip(sums[i], terms)):
                sums[i] = None
    return [
        None if parts is None else complex(parts[0].value(), 0.0 if real else parts[1].value())
        for parts in sums
    ]


def euler_product(spec: MultiplicativeSpec, table: SieveTable, sigma: float, limit):
    """Product over primes p <= limit of (1 - p^-sigma)/(1 - f(p) p^-sigma).

    Factors with f(p) = 1 are skipped exactly (they equal 1), so the
    cutoff convention costs no rounding. A vanishing denominator raises
    :class:`SingularFactorError` at the first such p; with the
    |f(p)| <= 1 bound in force it can only occur for adversarial specs.

    The factors come from :func:`_euler_factors` and multiply in
    ascending p, left to right, as Python complex numbers. ``limit`` may
    also be a sequence: the products at every limit then come back as a
    list, read off one running product, which is the same left fold as
    a product formed afresh up to each limit.
    """
    if not sigma >= 1:
        raise ValueError(f"sigma must be >= 1, got {sigma}")
    limits = [limit] if np.ndim(limit) == 0 else list(limit)
    for top in limits:
        if top > table.limit:
            raise ValueError(f"limit {top} exceeds sieve limit {table.limit}")
    primes, values = spec.nontrivial(table, max(limits))
    factors = _euler_factors(primes, values, sigma)
    ends = np.searchsorted(primes, limits, "right").tolist()
    products = {}
    product, done = 1.0 + 0j, 0
    for end in sorted(set(ends)):
        product = math.prod(factors[done:end], start=product)
        products[end], done = product, end
    out = [products[end] for end in ends]
    return out[0] if np.ndim(limit) == 0 else out


def _inverse_powers(primes: np.ndarray, s: float) -> np.ndarray:
    """p^-s at every p as float64, each by Python's float pow (numpy's
    vector power can differ in the last bit)."""
    bases = primes.astype(np.float64).tolist()
    return np.fromiter(map(pow, bases, repeat(-s)), np.float64, primes.size)


def _euler_factors(primes: np.ndarray, values: np.ndarray, sigma: float) -> list[complex]:
    """(1 - p^-sigma)/(1 - f(p) p^-sigma) at every p, as Python complex.

    Bit for bit the scalar expression as CPython up to 3.13 evaluates it,
    on every interpreter: p^-sigma is Python's float pow (numpy's vector
    power can differ in the last bit); f(p) p^-sigma is complex * (x + 0j),
    1 - w is (1 + 0j) - w, and the quotient is (1 - p^-sigma + 0j) / d
    by ``_Py_c_quot``, which divides through by the larger part of d.
    Each step is one real ufunc, so nothing fuses multiply-adds. Raises
    :class:`SingularFactorError` at the first p with |d| < 1e-300.
    """
    pinv = _inverse_powers(primes, sigma)
    fr, fi = values.real, values.imag
    with np.errstate(all="ignore"):  # inf and nan follow IEEE, as in C
        dr = 1.0 - (fr * pinv - fi * 0.0)
        di = 0.0 - (fr * 0.0 + fi * pinv)
        # abs(d) is C's hypot: a wide margin here, the exact test below.
        for i in np.flatnonzero(np.hypot(dr, di) < 2e-300).tolist():
            if abs(complex(dr[i], di[i])) < 1e-300:
                raise SingularFactorError(
                    f"factor at p = {primes[i]} is singular: f(p) p^-sigma = 1"
                )
        nr = 1.0 - pinv
        quot = np.empty(primes.size, dtype=np.complex128)
        by_real = np.abs(dr) >= np.abs(di)
        br, bi, ar = dr[by_real], di[by_real], nr[by_real]
        ratio = bi / br
        denom = br + bi * ratio
        quot.real[by_real] = (ar + 0.0 * ratio) / denom
        quot.imag[by_real] = (0.0 - ar * ratio) / denom
        # Also every d with a nan part, where C gives nan + nanj.
        by_imag = ~by_real
        br, bi, ar = dr[by_imag], di[by_imag], nr[by_imag]
        ratio = br / bi
        denom = br * ratio + bi
        quot.real[by_imag] = (ar * ratio + 0.0) / denom
        quot.imag[by_imag] = (0.0 * ratio - ar) / denom
    return quot.tolist()


def _f_t_values(table: SieveTable, t: float, n: int) -> np.ndarray:
    """f_t(m) = prod over p | m of (1 - p^-t) for m <= n, index-aligned
    (values[0] = 0), in a fresh writeable array: the values of
    :func:`f_t_table` without their prefix sums.

    Each prime p <= sqrt(n) multiplies its factor into its multiples, in
    ascending p. What is left of m is at most one prime P > sqrt(n), its
    largest, so the big-prime pass (:func:`sieve._big_prime_multiples`)
    multiplies 1 - P^-t in last and keeps the ascending order of the
    factors. Every factor is formed by Python's float pow (numpy's vector
    power can differ in the last bit).
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    if n > table.limit or n < 1:
        raise ValueError(f"n = {n} outside [1, {table.limit}]")
    values = np.ones(n + 1, dtype=np.float64)
    values[0] = 0.0
    primes = table.primes[: np.searchsorted(table.primes, n, "right")]
    split = int(np.searchsorted(primes, math.isqrt(n), "right"))
    for p in primes[:split].tolist():
        values[p::p] *= 1.0 - float(p) ** -t
    big = primes[split:]

    def times(at, factors):
        values[at] *= factors

    _big_prime_multiples(big, 0, n, times, 1.0 - _inverse_powers(big, t))
    return values


def f_t_table(table: SieveTable, t: float, n: int) -> FtEvaluation:
    """Tabulate f_t(m) = prod over p | m of (1 - p^-t) for m <= n, and
    its partial sums: the values of :func:`_f_t_values`, and their
    ``np.cumsum``, both read-only. A reader of F_t at a few x only (the
    lemma suite) takes the values alone and gathers their prefix sums at
    those x, which holds no second array of length n.
    """
    values = _f_t_values(table, t, n)
    prefix = np.cumsum(values)
    values.flags.writeable = False
    prefix.flags.writeable = False
    return FtEvaluation(t, values, prefix)


def ft_partial_sum(table: SieveTable, x: float, t: float) -> float:
    """F_t(x) through the exact divisor identity sum mu(d) d^-t floor(x/d).

    Independent of :func:`f_t_table` and cheap for a single (x, t) pair:
    one pass over the squarefree d <= x (:meth:`SieveTable.mobius_quotients`).
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    if x < 1:
        return 0.0
    xf = int(math.floor(x))
    if xf > table.limit:
        raise ValueError(f"x = {x} exceeds sieve limit {table.limit}")
    mu, d, q = table.mobius_quotients(xf)
    return rsum(mu * d**-t * q)


def l_t(s: float, t: float) -> float:
    """Generating ratio of f_t: zeta(s)/zeta(s + t) for s > 1, t > 0."""
    if not s > 1:
        raise ValueError(f"s must exceed 1, got {s}")
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    return zeta_real(s) / zeta_real(s + t)


def _prime_deviation_sum(spec: MultiplicativeSpec, table: SieveTable, n, alpha: float):
    """sum over primes p <= n of |f(p) - 1|^alpha log(p) / p. ``n`` may
    also be a sequence: every sum then comes from one list of terms,
    each the exactly rounded sum of a prefix of it."""
    ns = [n] if np.ndim(n) == 0 else list(n)
    primes, values = spec.nontrivial(table, max(ns))
    pairs = zip(primes.tolist(), values.tolist())
    terms = [abs(fp - 1.0) ** alpha * math.log(p) / p for p, fp in pairs]
    sums = [rsum(terms[:end]) for end in np.searchsorted(primes, ns, "right").tolist()]
    return sums[0] if np.ndim(n) == 0 else sums


def mu_n_alpha(spec: MultiplicativeSpec, table: SieveTable, n, alpha: float):
    """Hoelder-averaged prime deviation of f from 1:

        ((1/log n) * sum_{p<=n} |f(p)-1|^alpha log(p)/p)^(1/alpha)

    Primes above the cutoff contribute nothing since f(p) = 1 there.
    ``n`` may also be a sequence, which gives a list of the values from
    one pass over the primes (:func:`_prime_deviation_sum`).
    """
    ns = [n] if np.ndim(n) == 0 else list(n)
    for top in ns:
        if top < 2:
            raise ValueError(f"n must be >= 2, got {top}")
        if top > table.limit:
            raise ValueError(f"n = {top} exceeds sieve limit {table.limit}")
    if not alpha > 1:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    totals = _prime_deviation_sum(spec, table, ns, alpha)
    out = [(total / math.log(top)) ** (1.0 / alpha) for total, top in zip(totals, ns)]
    return out[0] if np.ndim(n) == 0 else out
