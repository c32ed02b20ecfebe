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

import numpy as np

from .accumulate import ExactSum, csum, rsum
from .sequences import CoefficientSequence, MultiplicativeSpec, prime_candidates
from .sieve import SieveTable
from .summation import TruncatedSum, _block_terms
from .errors import SingularFactorError

# Euler-Maclaurin correction coefficients B_2k / (2k)! for k = 1, 2, 3, 4.
_EM_COEFFS = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0)
_ZETA_CAP = 1_000_000
# Terms per chunk of g_eval: the chunk's arrays stay in cache, and memory
# does not grow with the truncation.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class EvalParams:
    """Evaluation parameters: exponent, truncation and tolerances."""

    sigma: float
    truncation: int
    quad_tol: float = 1e-8
    tail_tol: float = 1e-10
    alpha: float = 2.0

    def __post_init__(self):
        if self.sigma <= 1:
            raise ValueError(f"sigma must exceed 1, got {self.sigma}")
        if self.truncation < 1:
            raise ValueError(f"truncation must be >= 1, got {self.truncation}")
        for name in ("quad_tol", "tail_tol"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise ValueError(f"{name} must lie in (0, 1), got {v}")
        if self.alpha <= 1:
            raise ValueError(f"alpha must exceed 1, got {self.alpha}")


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


def _em_tail(sigma: float, M: float) -> float:
    """Euler-Maclaurin value of sum_{m >= M} m^-sigma (M not summed)."""
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
    if sigma <= 1:
        raise ValueError(f"zeta_real requires sigma > 1, got {sigma}")
    M = int(min(_ZETA_CAP, max(100, math.ceil(10.0 / (sigma - 1.0)))))
    direct = rsum(np.arange(1, M, dtype=np.float64) ** -sigma)
    return direct + _em_tail(sigma, float(M))


def zeta_tail(sigma: float, start: int) -> float:
    """sum_{m >= start} m^-sigma for sigma > 1, to near machine accuracy."""
    if sigma <= 1:
        raise ValueError(f"zeta_tail requires sigma > 1, got {sigma}")
    if start < 1:
        raise ValueError(f"start must be >= 1, got {start}")
    M = start + 50
    direct = rsum(np.arange(start, M, dtype=np.float64) ** -sigma)
    return direct + _em_tail(sigma, float(M))


def g_eval(a: CoefficientSequence, params: EvalParams) -> TruncatedSum:
    """Truncated Dirichlet sum of the coefficients: sum a_m m^-sigma.

    Returns the partial sum over m <= truncation together with the
    truncation index actually used; any statement about the unreported
    tail is the caller's responsibility.

    The terms are formed _CHUNK at a time and summed exactly
    (:class:`accumulate.ExactSum`), so memory does not grow with the
    truncation and the value is :func:`csum` over all the terms bit for
    bit. A real sequence takes one real product per term; a complex one
    takes the separate real products of numpy's complex * real. A term
    at or above 2**960, inf or nan sends the whole sum to :func:`csum`,
    whose math.fsum then decides the value or the exception.
    """
    K = params.truncation
    if K > a.length:
        raise ValueError(f"truncation {K} exceeds stored length {a.length}")
    value = _streamed_g(a.a, K, params.sigma)
    if value is None:
        m = np.arange(1, K + 1, dtype=np.float64)
        value = csum(a.a[1 : K + 1] * m**-params.sigma)
    return TruncatedSum(value, K)


def _streamed_g(a: np.ndarray, K: int, sigma: float) -> complex | None:
    """sum a_m m^-sigma over m <= K in chunks, or None when a term trips
    the exponent guard of :class:`ExactSum`."""
    real = not np.iscomplexobj(a)
    parts = (ExactSum(),) if real else (ExactSum(), ExactSum())
    for lo in range(1, K + 1, _CHUNK):
        hi = min(lo + _CHUNK, K + 1)
        w = np.arange(lo, hi, dtype=np.float64) ** -sigma
        terms = (a[lo:hi] * w,) if real else _block_terms(a.real[lo:hi], a.imag[lo:hi], w)
        if not all(part.add(t) for part, t in zip(parts, terms)):
            return None
    return complex(parts[0].value(), 0.0 if real else parts[1].value())


def euler_product(
    spec: MultiplicativeSpec, table: SieveTable, sigma: float, limit: int
) -> complex:
    """Product over primes p <= limit of (1 - p^-sigma)/(1 - f(p) p^-sigma).

    Factors with f(p) = 1 are skipped exactly (they equal 1), so the
    cutoff convention costs no rounding. A vanishing denominator raises
    :class:`SingularFactorError`; with the |f(p)| <= 1 bound in force it
    can only occur for adversarial specs.
    """
    if sigma < 1:
        raise ValueError(f"sigma must be >= 1, got {sigma}")
    if limit > table.limit:
        raise ValueError(f"limit {limit} exceeds sieve limit {table.limit}")
    product = 1.0 + 0j
    for p in prime_candidates(spec, table, min(limit, spec.cutoff)):
        fp = spec.value_at(p)
        if fp == 1:
            continue
        pinv = float(p) ** -sigma
        denom = 1.0 - fp * pinv
        if abs(denom) < 1e-300:
            raise SingularFactorError(
                f"factor at p = {p} is singular: f(p) p^-sigma = 1"
            )
        product *= (1.0 - pinv) / denom
    return product


def f_t_table(table: SieveTable, t: float, n: int) -> FtEvaluation:
    """Tabulate f_t(m) = prod over p | m of (1 - p^-t) for m <= n."""
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    if n > table.limit or n < 1:
        raise ValueError(f"n = {n} outside [1, {table.limit}]")
    values = np.ones(n + 1, dtype=np.float64)
    values[0] = 0.0
    for p in table.primes[table.primes <= n].tolist():
        values[p::p] *= 1.0 - float(p) ** -t
    prefix = np.cumsum(values)
    values.flags.writeable = False
    prefix.flags.writeable = False
    return FtEvaluation(t, values, prefix)


def ft_partial_sum(table: SieveTable, x: float, t: float) -> float:
    """F_t(x) through the exact divisor identity sum mu(d) d^-t floor(x/d).

    Independent of :func:`f_t_table`; cheap for a single (x, t) pair and
    used as the inner evaluation in quadrature over t, where the table
    keeps the squarefree d <= x and their quotients between calls.
    """
    if t <= 0:
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
    if s <= 1:
        raise ValueError(f"s must exceed 1, got {s}")
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    return zeta_real(s) / zeta_real(s + t)


def _prime_deviation_sum(
    spec: MultiplicativeSpec, table: SieveTable, n: int, alpha: float
) -> float:
    """sum over primes p <= n of |f(p) - 1|^alpha log(p) / p."""
    terms = []
    for p in prime_candidates(spec, table, min(n, spec.cutoff)):
        dev = abs(spec.value_at(p) - 1.0)
        if dev != 0.0:
            terms.append(dev**alpha * math.log(p) / p)
    return rsum(terms)


def mu_n_alpha(
    spec: MultiplicativeSpec, table: SieveTable, n: int, alpha: float
) -> float:
    """Hoelder-averaged prime deviation of f from 1:

        ((1/log n) * sum_{p<=n} |f(p)-1|^alpha log(p)/p)^(1/alpha)

    Primes above the cutoff contribute nothing since f(p) = 1 there.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if n > table.limit:
        raise ValueError(f"n = {n} exceeds sieve limit {table.limit}")
    if alpha <= 1:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    total = _prime_deviation_sum(spec, table, n, alpha)
    return (total / math.log(n)) ** (1.0 / alpha)
