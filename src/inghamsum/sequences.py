"""Coefficient sequences and their Mobius-inversion pairing with f(m).

A sequence a_1..a_N and the function f(m) = sum of a_d over divisors d of
m determine each other; this module holds both directions of that
transform plus the construction of completely multiplicative functions
from their values on primes, where :meth:`MultiplicativeSpec.nontrivial`
alone decides which primes have f(p) != 1.

Index convention used package-wide: arithmetic arrays are "index
aligned", meaning arr[m] is the value at the integer m and arr[0] is an
unused zero slot. This keeps every divisor loop and prefix lookup free of
off-by-one shifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SpecFormatError
from .sieve import SieveTable, hyperbola_cofactors

BUILTIN_SEQUENCES = ("mu", "unit", "one", "liouville", "inverse-squares")

_BOUND_SLACK = 1e-12


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, math.isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def log_index(n: int) -> np.ndarray:
    """Index-aligned array of log m for m = 1..n (log 1 = 0, slot 0 = 0)."""
    out = np.arange(n + 1, dtype=np.float64)
    out[0] = 1.0
    return np.log(out, out=out)


def _storage(values) -> type:
    """complex128 for complex input, float64 for any other."""
    return np.complex128 if np.iscomplexobj(values) else np.float64


def times_log(a: np.ndarray, log: np.ndarray) -> np.ndarray:
    """The terms a_m log m, from a float64 or complex128 slice of a and the
    float64 log m at each of its places, in an array of a's dtype: log
    itself when a is real.

    A real product is one multiply. A complex one is formed as numpy's
    complex * real forms it, (ar*l - ai*0, ar*0 + ai*l), one real product
    at a time into the views of the output, so no complex temporary is
    made. Every chunk of a gives the same bits as the whole array.
    """
    if not np.iscomplexobj(a):
        return np.multiply(log, a, out=log)
    out = np.empty_like(a)
    zeros = np.multiply(a.imag, 0.0)
    np.multiply(a.real, log, out=out.real)
    np.subtract(out.real, zeros, out=out.real)
    np.multiply(a.real, 0.0, out=zeros)
    np.multiply(a.imag, log, out=out.imag)
    np.add(zeros, out.imag, out=out.imag)
    return out


@dataclass(frozen=True)
class CoefficientSequence:
    """A finite prefix of coefficients a_1..a_N, with no prefix sums:
    :func:`summation.batch_sums` gathers them where a grid reads them.

    The array is float64 when the sequence is built from a real-dtype
    array (ints and bools included), in half the memory, and complex128
    otherwise. For finite coefficients every value a real sequence gives,
    imaginary parts included, equals its complex128 copy's bit for bit:
    numpy's complex * real then has imaginary part +0.0 in each term, as
    real storage has. (A -0.0 coefficient can flip the sign of a result
    that is zero; an inf or nan one gives imaginary parts 0.0 where the
    copy gives nan.)

    Attributes:
        length: N, the number of stored coefficients.
        a: index-aligned array of the coefficients (a[0] == 0).
    """

    length: int
    a: np.ndarray

    @classmethod
    def from_values(cls, values) -> "CoefficientSequence":
        """Build from the natural list [a_1, a_2, ...]."""
        vals = np.asarray(values)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("coefficient list must be non-empty and one-dimensional")
        a = np.zeros(vals.size + 1, dtype=_storage(vals))
        a[1:] = vals
        return cls._from_owned(a)

    @classmethod
    def from_index_aligned(cls, a: np.ndarray) -> "CoefficientSequence":
        """Build from an index-aligned array (slot 0 ignored)."""
        a = np.array(a, dtype=_storage(a))
        if a.ndim != 1 or a.size < 2:
            raise ValueError("index-aligned array must cover at least m = 1")
        return cls._from_owned(a)

    @classmethod
    def _from_owned(cls, a: np.ndarray) -> "CoefficientSequence":
        """Build on a fresh float64 or complex128 array, which the
        sequence keeps."""
        a[0] = 0
        a.flags.writeable = False
        return cls(a.size - 1, a)

    def values(self) -> np.ndarray:
        """The natural view [a_1, ..., a_N]."""
        return self.a[1:]


@dataclass(frozen=True)
class MultiplicativeSpec:
    """A completely multiplicative function given by its prime values.

    f(p) = prime_values[p] when present, else ``default``, for primes up
    to ``cutoff``; every prime above the cutoff has f(p) = 1, which makes
    truncated Euler products exact for the function they describe.
    :meth:`nontrivial` is the one place that decides which primes count.

    ``bound_check`` enforces |f(p)| <= 1 (the hypothesis of the mean-value
    bound); switch it off deliberately to experiment outside that class.
    """

    prime_values: dict[int, complex] = field(default_factory=dict)
    cutoff: int = 1
    default: complex = 1.0 + 0j
    bound_check: bool = True

    def __post_init__(self):
        if self.cutoff < 1:
            raise SpecFormatError(f"cutoff must be >= 1, got {self.cutoff}")
        clean: dict[int, complex] = {}
        for p, v in self.prime_values.items():
            p = int(p)
            if not _is_prime(p):
                raise SpecFormatError(f"primes[{p}]: key is not prime")
            if p > self.cutoff:
                raise SpecFormatError(f"primes[{p}]: key exceeds cutoff {self.cutoff}")
            clean[p] = complex(v)
        object.__setattr__(self, "prime_values", clean)
        object.__setattr__(self, "default", complex(self.default))
        if self.bound_check:
            where = self.bound_violation()
            if where is not None:
                raise SpecFormatError(f"{where} exceeds 1 with bound_check on")

    def bound_violation(self) -> str | None:
        """The first value with |f(p)| > 1 beyond a rounding slack, as
        "default: |f(p)| = x" or "primes[p]: |f(p)| = x"; None when every
        value keeps the bound."""
        if not abs(self.default) <= 1 + _BOUND_SLACK:
            return f"default: |f(p)| = {abs(self.default)}"
        for p, v in self.prime_values.items():
            if not abs(v) <= 1 + _BOUND_SLACK:
                return f"primes[{p}]: |f({p})| = {abs(v)}"
        return None

    def value_at(self, p: int) -> complex:
        """f(p) for a prime p, honoring the cutoff convention."""
        if p > self.cutoff:
            return 1.0 + 0j
        return self.prime_values.get(p, self.default)

    def nontrivial(self, table: SieveTable, top: int) -> tuple[np.ndarray, np.ndarray]:
        """The ascending primes p <= top of the table with f(p) != 1, as
        int64, and f(p) at each, as complex128 (:meth:`value_at` bit for
        bit); with default 1 only the listed primes can count."""
        top = min(top, self.cutoff, table.limit)
        listed = sorted(p for p in self.prime_values if p <= top)
        primes = np.array(listed, dtype=np.int64)
        values = np.array([self.prime_values[p] for p in listed], dtype=np.complex128)
        if self.default != 1:
            every = table.primes[: np.searchsorted(table.primes, top, "right")]
            filled = np.full(every.size, self.default, dtype=np.complex128)
            filled[np.searchsorted(every, primes)] = values
            primes, values = every, filled
        keep = values != 1
        return primes[keep], values[keep]

    @property
    def euler_limit(self) -> int:
        """A bound on every prime with f(p) != 1: the cutoff, or with
        default 1 the largest listed prime (1 when none is listed)."""
        return self.cutoff if self.default != 1 else max(self.prime_values, default=1)


def _divisor_lattice(weights: np.ndarray, f: np.ndarray | None = None) -> np.ndarray:
    """out[d q] += weights[d] * f[q] over nonzero weights[d] and d q <= N,
    where N = weights.size - 1 and f = None means f[q] = 1 (plain add).

    Hyperbola split at r = isqrt(N): every d <= r is one strided
    slice-add over its multiples; every larger d has cofactor q <= N/(r+1),
    so those are handled as one fancy-indexed add per q, q descending.
    Each out[m] therefore still accumulates its terms in ascending d,
    which keeps the result bit-identical to one strided pass per d.
    """
    n = weights.size - 1
    out = np.zeros(n + 1, dtype=np.complex128)
    nz = np.flatnonzero(weights[1:]) + 1
    r = math.isqrt(max(n, 0))
    split = int(np.searchsorted(nz, r, "right"))
    for d, w in zip(nz[:split].tolist(), weights[nz[:split]].tolist()):
        out[d::d] += w if f is None else w * f[1 : n // d + 1]
    big = nz[split:]
    wbig = weights[big]
    for q, k in hyperbola_cofactors(big, n):
        out[big[:k] * q] += wbig[:k] if f is None else wbig[:k] * f[q]
    return out


def sum_over_divisors(values: np.ndarray) -> np.ndarray:
    """Divisor-lattice transform: out[m] = sum of values[d] over d | m.

    Hyperbola split (see :func:`_divisor_lattice`): one strided
    slice-add per nonzero entry d <= sqrt(N), then one fancy-indexed add
    per cofactor q for all nonzero d > sqrt(N). O(N log N) total work;
    zero coefficients cost nothing, and each out[m] sums in ascending d.
    """
    return _divisor_lattice(np.asarray(values))


def f_from_a(table: SieveTable, seq: CoefficientSequence) -> np.ndarray:
    """f(m) = sum of a_d over d | m, index-aligned up to seq.length."""
    if seq.length > table.limit:
        raise ValueError(
            f"sequence length {seq.length} exceeds sieve limit {table.limit}"
        )
    return sum_over_divisors(seq.a)


def a_from_f(table: SieveTable, f: np.ndarray) -> CoefficientSequence:
    """Invert ``f_from_a``: a_m = sum of mu(m/d) f(d) over d | m.

    Implemented as the mu-weighted lattice pass a[e q] += mu(e) f(q),
    hyperbola-split like :func:`sum_over_divisors` (strided for
    e <= sqrt(n), one fancy-indexed add per cofactor q above), which
    round-trips with :func:`f_from_a` to machine precision.
    """
    f = np.asarray(f, dtype=np.complex128)
    n = f.size - 1
    if n > table.limit:
        raise ValueError(f"array length {n} exceeds sieve limit {table.limit}")
    if n < 1:
        raise ValueError("index-aligned array must cover at least m = 1")
    out = _divisor_lattice(table.mobius_array[: n + 1], f)
    return CoefficientSequence.from_index_aligned(out)


_CHUNK = 4096


def extend_completely_multiplicative(
    spec: MultiplicativeSpec, table: SieveTable, n: int
) -> np.ndarray:
    """Index-aligned array of f(1)..f(n) for a completely multiplicative f.

    f(m) is the product of f(p)^(v_p(m)) over the factorization of m.
    Primes with f(p) = 1 (including everything above the cutoff) are
    skipped exactly, so the result is bit-stable under cutoff changes
    that only touch such primes, and f(m) does not depend on n.
    """
    if n > table.limit:
        raise ValueError(f"extension length {n} exceeds sieve limit {table.limit}")
    f = np.ones(n + 1, dtype=np.complex128)
    f[0] = 0
    primes, values = spec.nontrivial(table, n)
    for p, fp in zip(primes.tolist(), values.tolist()):
        pk = p
        while pk <= n:
            if fp.imag == 0:
                f[pk::pk] *= fp
            else:
                # numpy's vector loop for complex * complex fuses
                # multiply-adds that its scalar tail loop rounds apart,
                # so f(m) would depend in its last bit on the slice
                # length, i.e. on n. Separate real products round alike;
                # chunks keep their temporaries in cache.
                for lo in range(pk, n + 1, _CHUNK * pk):
                    v = f[lo : lo + _CHUNK * pk : pk]
                    re = v.real * fp.real - v.imag * fp.imag
                    v.imag *= fp.real
                    v.imag += v.real * fp.imag
                    v.real = re
            pk *= p
    return f


def _liouville(table: SieveTable, n: int) -> np.ndarray:
    """Index-aligned lambda(m) = -lambda(m / spf(m)) for m <= n, as
    float64: m / spf(m) <= m / 2, so a pass over [lo, hi) with hi <= 2 lo
    reads only values set before it, in chunks that stay in cache."""
    lam = np.empty(n + 1)
    lam[:2] = (0.0, 1.0)
    lo = 2
    while lo <= n:
        hi = min(2 * lo, lo + _CHUNK, n + 1)
        np.negative(lam[np.arange(lo, hi) // table.spf[lo:hi]], out=lam[lo:hi])
        lo = hi
    return lam


def named_sequence(name: str, n: int, table: SieveTable) -> CoefficientSequence:
    """Built-in coefficient sequences of length n, by name.

    mu: a_k = mu(k); unit: a_1 = 1 and nothing else; one: a_k = 1;
    liouville: a_k = lambda(k) = (-1)^Omega(k); inverse-squares:
    a_k = k^-2.
    """
    if n < 1 or n > table.limit:
        raise ValueError(f"length {n} outside [1, {table.limit}]")
    if name == "mu":
        return CoefficientSequence.from_index_aligned(table.mobius_array[: n + 1])
    if name == "unit":
        vals = np.zeros(n)
        vals[0] = 1
    elif name == "one":
        vals = np.ones(n)
    elif name == "liouville":
        return CoefficientSequence._from_owned(_liouville(table, n))
    elif name == "inverse-squares":
        vals = np.arange(1, n + 1, dtype=np.float64) ** -2.0
    else:
        raise SpecFormatError(
            f"unknown sequence {name!r}; expected one of {', '.join(BUILTIN_SEQUENCES)}"
        )
    return CoefficientSequence.from_values(vals)
