"""Coefficient sequences and their Mobius-inversion pairing with f(m).

A sequence a_1..a_N and the function f(m) = sum of a_d over divisors d of
m determine each other; this module holds both directions of that
transform plus the construction of completely multiplicative functions
from their values on primes, whole or segment by segment, where
:meth:`MultiplicativeSpec.nontrivial` alone decides which primes have
f(p) != 1.

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
from .sieve import _COFACTOR_CHUNK, SieveTable, _big_prime_multiples, _sign_sieve

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
    """The terms a_m log m, from a real (int8 or float64) or complex128
    slice of a and the float64 log m at each of its places, as float64
    (log itself) when a is real and complex128 otherwise.

    A real product is one multiply. A complex one is formed as numpy's
    complex * real forms it, (ar*l - ai*0, ar*0 + ai*l), one real product
    at a time into the views of the output, so no complex temporary is
    made. Every chunk of a gives the same bits as the whole array, and
    inf or nan terms come without a warning.
    """
    with np.errstate(invalid="ignore", over="ignore"):
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
    otherwise. The builtins whose values lie in {-1, 0, 1} (mu, unit,
    one, liouville) are int8, an eighth of float64; mu is the sieve's
    own Mobius table. Every reader turns an int8 chunk into float64
    before any arithmetic, which is exact, so int8 storage gives the
    bits of float64 storage. For finite coefficients every value a real
    sequence gives, imaginary parts included, equals its complex128
    copy's bit for bit: numpy's complex * real then has imaginary part
    +0.0 in each term, as real storage has. (A -0.0 coefficient can flip
    the sign of a result that is zero; an inf or nan one gives imaginary
    parts 0.0 where the copy gives nan.)

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
        """Build on a fresh array (float64 or complex128, or int8 for a
        builtin), which the sequence keeps."""
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


def _divisor_lattice(
    weights: np.ndarray, f: np.ndarray | None = None, dtype: type = np.complex128
) -> np.ndarray:
    """out[d q] += weights[d] * f[q] over nonzero weights[d] and d q <= N,
    where N = weights.size - 1 and f = None means f[q] = 1 (plain add),
    into an out of the given dtype: complex128, or float64 for real
    weights and no f.

    Hyperbola split at r = isqrt(N): every d <= r is one strided
    slice-add over its multiples, and the products w * f of a strided d
    come in slices of at most ``_COFACTOR_CHUNK`` q. The d above r are
    taken in runs of ``_COFACTOR_CHUNK`` integers: a run's nonzero places
    and their weights are gathered, and every cofactor q <= N / (first d
    of the run), descending, adds a fancy-indexed slice of them at the
    products d q <= N. So no index or term array of the pass is N-sized.
    Each product d q occurs once per q, and a run's d come after those
    of the runs before it, so each out[m] still accumulates its terms in
    ascending d, which keeps the result bit-identical to one strided
    pass per d. A complex out adds +0.0 imaginary parts to real weights,
    which is exact, so a float64 out holds the same bits as its real
    parts in half the memory.
    """
    n = weights.size - 1
    out = np.zeros(n + 1, dtype=dtype)
    r = math.isqrt(max(n, 0))
    small = np.flatnonzero(weights[1 : r + 1])
    small += 1
    for d, w in zip(small.tolist(), weights[small].tolist()):
        if f is None:
            out[d::d] += w
            continue
        for lo in range(0, n // d, _COFACTOR_CHUNK):
            hi = min(lo + _COFACTOR_CHUNK, n // d)
            out[d * (lo + 1) : d * hi + 1 : d] += w * f[lo + 1 : hi + 1]
    # Not the sieve's big-prime pass: these d need not be prime, so two of
    # them can share a product d q, and each out[m] must add in ascending d.
    for lo in range(r + 1, n + 1, _COFACTOR_CHUNK):
        big = np.flatnonzero(weights[lo : lo + _COFACTOR_CHUNK])
        big += lo
        w = weights[big]
        for q in range(n // lo, 0, -1):
            j = int(np.searchsorted(big, n // q, "right"))
            if j:
                out[big[:j] * q] += w[:j] if f is None else w[:j] * f[q]
    return out


def sum_over_divisors(values: np.ndarray, dtype: type = np.complex128) -> np.ndarray:
    """Divisor-lattice transform: out[m] = sum of values[d] over d | m.

    Hyperbola split (see :func:`_divisor_lattice`): one strided
    slice-add per nonzero entry d <= sqrt(N), then one fancy-indexed add
    per cofactor q for each run of the nonzero d > sqrt(N). O(N log N)
    total work; zero coefficients cost nothing, and each out[m] sums in
    ascending d.

    The sums are complex128 unless dtype says float64, which real values
    may ask for: the same bits as the complex sums' real parts (their
    imaginary parts are all +0.0), at 8 bytes per integer instead of 16.
    """
    return _divisor_lattice(np.asarray(values), dtype=dtype)


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
    e <= sqrt(n), fancy-indexed adds per cofactor q above), which
    round-trips with :func:`f_from_a` to machine precision.
    """
    f = np.asarray(f, dtype=np.complex128)
    n = f.size - 1
    if n > table.limit:
        raise ValueError(f"array length {n} exceeds sieve limit {table.limit}")
    if n < 1:
        raise ValueError("index-aligned array must cover at least m = 1")
    return CoefficientSequence._from_owned(_divisor_lattice(table.mobius_array[: n + 1], f))


_CHUNK = 4096
# Integers per segment of a streamed extension: 2 MB of complex128 f.
_SEGMENT = 1 << 17


def _times(v: np.ndarray, fp, real: bool) -> None:
    """v *= fp in place, for a complex128 view v and f(p) values fp (a
    complex, or an array the shape of v), all of them real when real is
    True and none of them otherwise.

    A real f(p) is numpy's complex multiply. For a complex one, numpy's
    vector loop for complex * complex fuses multiply-adds that its
    scalar tail loop rounds apart, so f(m) would depend in its last bit
    on the slice length; separate real products round alike, and chunks
    keep their temporaries in cache.
    """
    if real:
        v *= fp
        return
    scalar = isinstance(fp, complex)
    for lo in range(0, v.size, _CHUNK):
        w = v[lo : lo + _CHUNK]
        c = fp if scalar else fp[lo : lo + _CHUNK]
        re = w.real * c.real - w.imag * c.imag
        w.imag *= c.real
        w.imag += w.real * c.imag
        w.real = re


def _largest_prime_pass(f: np.ndarray, lo: int, primes: np.ndarray, values: np.ndarray) -> None:
    """f[m - lo] *= f(p) for every multiple m = p j >= 1 in the segment of
    f, p one of the primes, each above the square root of the segment's
    top: p is then the largest prime factor of m, and m has no other
    factor among them. The real and the complex f(p) go through the
    big-prime pass (:func:`sieve._big_prime_multiples`) apart; each of
    its groups is gathered, multiplied by :func:`_times` (by one scalar
    when every f(p) of the pass has the same bits) and scattered back."""
    real = values.imag == 0
    for group in (real, ~real):
        fp = values[group]
        if not fp.size:
            continue
        scalar = None
        if np.all(fp.view(np.int64).reshape(-1, 2) == fp[:1].view(np.int64)):
            scalar, fp = complex(fp[0]), None

        def times(at, v):
            w = f[at]
            _times(w, scalar if v is None else v, group is real)
            f[at] = w

        _big_prime_multiples(primes[group], lo, lo + f.size - 1, times, fp)


def extend_completely_multiplicative(
    spec: MultiplicativeSpec,
    table: SieveTable,
    n: int,
    lo: int = 0,
    selected: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """f(lo)..f(n) for a completely multiplicative f, as complex128: the
    whole index-aligned array (f(0) = 0) when lo = 0, one segment of a
    streamed extension (:func:`extension_segments`) otherwise.

    f(m) is the product of f(p)^(v_p(m)) over the factorization of m,
    folded in ascending p. Primes with f(p) = 1 (including everything
    above the cutoff) are skipped exactly, so the result is bit-stable
    under cutoff changes that only touch such primes. A prime p up to
    isqrt(n) runs one strided pass per power p^k over the multiples of
    p^k in [lo, n]. Every m <= n has at most one prime factor above
    isqrt(n), its largest, which one gathered pass
    (:func:`_largest_prime_pass`) multiplies in last. So each f(m) gets
    the same floating-point operations, and the same bits, whatever lo
    and n are. ``selected`` is ``spec.nontrivial(table, top)`` for some
    top >= n, computed once by a caller that builds many segments; its
    primes up to n are the ones ``spec.nontrivial(table, n)`` gives.
    """
    if n > table.limit:
        raise ValueError(f"extension length {n} exceeds sieve limit {table.limit}")
    if not 0 <= lo <= n:
        raise ValueError(f"segment start {lo} outside [0, {n}]")
    f = np.ones(n + 1 - lo, dtype=np.complex128)
    if lo == 0:
        f[0] = 0
    primes, values = spec.nontrivial(table, n) if selected is None else selected
    stop = int(np.searchsorted(primes, n, "right"))
    primes, values = primes[:stop], values[:stop]
    split = int(np.searchsorted(primes, math.isqrt(n), "right"))
    for p, fp in zip(primes[:split].tolist(), values[:split].tolist()):
        pk = p
        while pk <= n:
            first = -(-max(lo, 1) // pk) * pk  # the first multiple >= max(lo, 1)
            _times(f[first - lo :: pk], fp, fp.imag == 0)
            pk *= p
    _largest_prime_pass(f, lo, primes[split:], values[split:])
    return f


def extension_segments(spec: MultiplicativeSpec, table: SieveTable, n: int):
    """f(1)..f(n) of :func:`extend_completely_multiplicative` in
    consecutive arrays of _SEGMENT integers (the last may be shorter),
    each built on its own when it is read, with the same bits as the
    whole array: memory does not grow with n. The primes with f(p) != 1
    are selected once, for every segment."""
    if n > table.limit:
        raise ValueError(f"extension length {n} exceeds sieve limit {table.limit}")
    size = _SEGMENT
    selected = spec.nontrivial(table, n)
    return (
        extend_completely_multiplicative(spec, table, min(lo + size, n + 1) - 1, lo=lo, selected=selected)
        for lo in range(1, n + 1, size)
    )


def named_sequence(name: str, n: int, table: SieveTable) -> CoefficientSequence:
    """Built-in coefficient sequences of length n, by name.

    mu: a_k = mu(k); unit: a_1 = 1 and nothing else; one: a_k = 1;
    liouville: a_k = lambda(k) = (-1)^Omega(k); inverse-squares:
    a_k = k^-2. All but inverse-squares are stored as int8, mu as a
    view of the sieve's read-only Mobius table (slot 0 is 0 there),
    liouville from the same sign sieve, without the SPF table.
    """
    if n < 1 or n > table.limit:
        raise ValueError(f"length {n} outside [1, {table.limit}]")
    if name == "mu":
        return CoefficientSequence(n, table.mobius_array[: n + 1])
    if name == "unit":
        a = np.zeros(n + 1, dtype=np.int8)
        a[1] = 1
    elif name == "one":
        a = np.ones(n + 1, dtype=np.int8)
    elif name == "liouville":
        a = _sign_sieve(table.primes, 0, n, mobius=False)
    elif name == "inverse-squares":
        return CoefficientSequence.from_values(np.arange(1, n + 1, dtype=np.float64) ** -2.0)
    else:
        raise SpecFormatError(
            f"unknown sequence {name!r}; expected one of {', '.join(BUILTIN_SEQUENCES)}"
        )
    return CoefficientSequence._from_owned(a)
