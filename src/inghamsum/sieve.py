"""Sieve-backed arithmetic functions.

One sieve drives everything downstream: factorization, the Mobius
function mu(m), the von Mangoldt function Lambda(m), the Chebyshev
function Psi(x), divisor enumeration and partial sums of mu(d)/d. The
build keeps only the ascending primes, from a bool sieve over the odd
numbers. Every other array, the smallest-prime-factor (SPF) table
included, is built lazily from the primes and cached on the table, so
a command pays only for what it reads, and the cost of e.g. a Psi
prefix array is paid once even when a verification grid issues
thousands of queries. mu and Liouville's lambda share one sign sieve;
the SPF table serves only the scalar methods.

Every m <= N has at most one prime factor P > sqrt(N), with exponent 1.
One kernel (:func:`_big_prime_multiples`) walks the products P q and
applies P's factor at each m once: the sign sieve, f_t
(:mod:`dirichlet`) and the completely multiplicative extension
(:mod:`sequences`) all end with it.

Each table comes from one kernel over a segment [lo, hi] of the
integers: the whole table is its kernel over [0, limit], and
:meth:`SieveTable.segments` (the `sieve` command's rows) runs the same
kernels over SEGMENT integers at a time, so it holds no array as long
as the table.

The table is immutable after construction (the backing arrays are marked
read-only) and safe to share between threads.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator

import numpy as np

from .errors import CapacityError

# The cap on a sieve limit: the build holds a 50 MB odd-only bool sieve
# and 46 MB of primes here, mobius_array and liouville 0.1 GB each, and the
# int32 SPF table, which only the scalar methods read, 0.4 GB.
DEFAULT_CAPACITY = 100_000_000
# Integers per segment of SieveTable.segments. The five arrays of a
# segment take 27 bytes per integer, 1.8 MB here; 2**18 integers would
# add about 7 MB to the peak of `sieve --n 300000`.
SEGMENT = 1 << 16
# The big-prime pass forms its indices this many primes at a time, and
# the divisor lattice's cofactor adds this many d at a time.
# One index array over all the primes above sqrt(limit) (5.3 MB at
# 1e7) could stay in the heap after the pass, and whether it did, which
# the heap's layout decides, moved the peak of `verify theorem2` at 1e7
# by 8 MB.
_COFACTOR_CHUNK = 1 << 16
# The big-prime pass takes a cofactor's run of primes as one slice from
# this length up; a slice costs one Python step, about the gathered
# indices of 200 to 300 primes.
_SHORT_RUN = 256


class SieveTable:
    """The primes up to ``limit`` with arrays derived from them on first
    read. Only :func:`build_sieve` constructs it.

    Attributes:
        limit: Largest integer covered by the table.
        primes: ascending int64 array of all primes <= limit.
        spf: (lazy) spf[m] = smallest prime factor of m (m >= 2), 0 at
            m = 0, 1; int32, which holds every index up to the cap
            ``DEFAULT_CAPACITY``.
    """

    __slots__ = (
        "limit",
        "primes",
        "_spf",
        "_mobius_arr",
        "_mangoldt_arr",
        "_psi_prefix",
        "_mu_over_d_prefix",
    )

    def __init__(self, limit: int, primes: np.ndarray):
        self.limit = limit
        self.primes = primes
        self._spf = None
        self._mobius_arr = None
        self._mangoldt_arr = None
        self._psi_prefix = None
        self._mu_over_d_prefix = None

    # -- derived arrays (lazy, cached) ----------------------------------

    @property
    def spf(self) -> np.ndarray:
        """The smallest-prime-factor table (see the class attributes;
        :func:`_spf_segment`)."""
        if self._spf is None:
            self._spf = _spf_segment(self.primes, 0, self.limit)
            self._spf.flags.writeable = False
        return self._spf

    @property
    def mobius_array(self) -> np.ndarray:
        """int8 array with mobius_array[m] = mu(m); index 0 is unused
        (:func:`_sign_sieve`)."""
        if self._mobius_arr is None:
            self._mobius_arr = _sign_sieve(self.primes, 0, self.limit, mobius=True)
            self._mobius_arr.flags.writeable = False
        return self._mobius_arr

    @property
    def mangoldt_array(self) -> np.ndarray:
        """float64 array with mangoldt_array[m] = Lambda(m)
        (:func:`_mangoldt_segment`)."""
        if self._mangoldt_arr is None:
            self._mangoldt_arr = _mangoldt_segment(self.primes, 0, self.limit)
            self._mangoldt_arr.flags.writeable = False
        return self._mangoldt_arr

    @property
    def psi_prefix(self) -> np.ndarray:
        """float64 array with psi_prefix[m] = Psi(m) = sum_{j<=m} Lambda(j)
        (:func:`_psi_segment`)."""
        if self._psi_prefix is None:
            self._psi_prefix = _psi_segment(self.mangoldt_array, 0.0)
            self._psi_prefix.flags.writeable = False
        return self._psi_prefix

    def segments(self) -> Iterator[tuple[np.ndarray, ...]]:
        """m (int64), spf, mu, Lambda and Psi for m from 2 to limit, as
        arrays over consecutive segments of SEGMENT integers, each built
        by the kernels of the whole tables with Psi carried from one
        segment to the next; each has the whole tables' values, bit for
        bit."""
        carry = 0.0  # Psi(1)
        for lo in range(2, self.limit + 1, SEGMENT):
            hi = min(lo + SEGMENT - 1, self.limit)
            lam = _mangoldt_segment(self.primes, lo, hi)
            psi = _psi_segment(lam, carry)
            carry = float(psi[-1])
            yield (
                np.arange(lo, hi + 1, dtype=np.int64),
                _spf_segment(self.primes, lo, hi),
                _sign_sieve(self.primes, lo, hi, mobius=True),
                lam,
                psi,
            )

    # -- scalar arithmetic functions ------------------------------------

    def _check_index(self, m: int) -> None:
        if not 1 <= m <= self.limit:
            raise ValueError(f"index {m} outside table range [1, {self.limit}]")

    def factorize(self, m: int) -> list[tuple[int, int]]:
        """Prime factorization of m as ascending (prime, exponent) pairs."""
        self._check_index(m)
        spf = self.spf
        out: list[tuple[int, int]] = []
        while m > 1:
            p = int(spf[m])
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        return out

    def mobius(self, m: int) -> int:
        """mu(m): (-1)^k for squarefree m with k prime factors, else 0."""
        self._check_index(m)
        spf = self.spf
        sign = 1
        while m > 1:
            p = int(spf[m])
            m //= p
            if m % p == 0:
                return 0
            sign = -sign
        return sign

    def mangoldt(self, m: int) -> float:
        """Lambda(m): log p when m is a prime power p^k, else 0."""
        self._check_index(m)
        if m == 1:
            return 0.0
        p = int(self.spf[m])
        while m % p == 0:
            m //= p
        return math.log(p) if m == 1 else 0.0

    def chebyshev_psi(self, x: float) -> float:
        """Psi(x) = sum of Lambda(m) over m <= x, for 0 <= x <= limit."""
        if x < 0 or x > self.limit:
            raise ValueError(f"argument {x} outside [0, {self.limit}]")
        return float(self.psi_prefix[int(math.floor(x))])

    def delta(self, x: float, y: float) -> float:
        """Psi(y) - Psi(x) - (y - x), the prime-count deviation on [x, y]."""
        if x > y:
            raise ValueError(f"need x <= y, got x={x}, y={y}")
        return self.chebyshev_psi(y) - self.chebyshev_psi(x) - (y - x)

    def mu_over_d_partial(self, x: int) -> float:
        """Partial sum of mu(d)/d over d <= x."""
        self._check_index(x)
        if self._mu_over_d_prefix is None:
            d = np.arange(self.limit + 1, dtype=np.float64)
            d[0] = 1.0
            pref = np.cumsum(self.mobius_array / d)
            pref.flags.writeable = False
            self._mu_over_d_prefix = pref
        return float(self._mu_over_d_prefix[x])

    def mobius_quotients(self, x: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """mu(d), d as float64 and floor(x/d) for the squarefree d <= x,
        as fresh arrays."""
        self._check_index(x)
        mu = self.mobius_array[1 : x + 1]
        nz = np.nonzero(mu)[0]
        return mu[nz], (nz + 1).astype(np.float64), x // (nz + 1)

    def divisors(self, m: int) -> list[int]:
        """All divisors of m in ascending order."""
        divs = [1]
        for p, e in self.factorize(m):
            pk = 1
            extend = []
            for _ in range(e):
                pk *= p
                extend.extend(d * pk for d in divs)
            divs.extend(extend)
        divs.sort()
        return divs

    def is_prime(self, m: int) -> bool:
        self._check_index(m)
        return m >= 2 and int(self.spf[m]) == m

    def __repr__(self) -> str:  # pragma: no cover
        return f"SieveTable(limit={self.limit}, primes={len(self.primes)})"


def _start(lo: int, step: int, first: int) -> int:
    """The offset from lo of the first multiple of step that is at least
    lo and at least first, itself a multiple of step."""
    return max(first, -(-lo // step) * step) - lo


def _primes_in(primes: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The primes in [lo, hi] and their offsets from lo; at lo = 0 the
    offsets are the primes themselves, not an N-length copy."""
    inside = primes[np.searchsorted(primes, lo) : np.searchsorted(primes, hi, "right")]
    return inside, (inside - lo if lo else inside)


def _spf_segment(primes: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """int32 spf[m - lo] = the smallest prime factor of m for lo <= m <=
    hi, 0 at m = 0, 1, from the ascending primes (at least those up to
    hi).

    Walked in descending order, each prime p <= sqrt(hi) stores p on its
    multiples from p^2 up, so the smallest prime factor of every
    composite is written last; then each prime stores itself.
    """
    spf = np.zeros(hi - lo + 1, dtype=np.int32)
    split = int(np.searchsorted(primes, math.isqrt(hi), "right"))
    for p in primes[:split][::-1].tolist():
        spf[_start(lo, p, p * p) :: p] = p
    inside, at = _primes_in(primes, lo, hi)
    spf[at] = inside
    return spf


def _sign_sieve(primes: np.ndarray, lo: int, hi: int, mobius: bool) -> np.ndarray:
    """int8 s[m - lo] = mu(m) if mobius else lambda(m) = (-1)^Omega(m)
    for lo <= m <= hi, 0 at m = 0, from the ascending primes (at least
    those up to hi).

    Each prime p <= sqrt(hi) flips the sign on its multiples, then zeroes
    the multiples of p^2 (mu) or flips again on those of each p^k <= hi
    (lambda). What is left of m is 1 or one prime P > sqrt(hi), so the
    big-prime pass (:func:`_big_prime_multiples`) negates s at every
    P q in [lo, hi].
    """
    s = np.ones(hi - lo + 1, dtype=np.int8)
    if lo == 0:
        s[0] = 0
    split = int(np.searchsorted(primes, math.isqrt(hi), "right"))
    for p in primes[:split].tolist():
        s[_start(lo, p, p) :: p] *= -1
        pk = p * p
        if mobius:
            s[_start(lo, pk, pk) :: pk] = 0
        while pk <= hi and not mobius:
            s[_start(lo, pk, pk) :: pk] *= -1
            pk *= p
    big = primes[split : np.searchsorted(primes, hi, "right")]

    def negate(at, _):
        s[at] = -s[at]

    _big_prime_multiples(big, lo, hi, negate)
    return s


def _big_prime_multiples(
    big: np.ndarray, lo: int, hi: int, apply: Callable, values: np.ndarray | None = None
) -> None:
    """apply(at, v) on groups of at most ``_COFACTOR_CHUNK`` offsets
    at = P q - lo, which together hold every P of ``big`` (ascending
    primes above isqrt(hi)) times every q >= 1 with P q in [lo, hi],
    once; v is ``values`` gathered at each P, or None without values.

    No two such products are equal, so each m takes at most one P, and
    the order of the groups changes no value. q runs from
    hi // (isqrt(hi) + 1) down to 1, and the P of one q are a run of
    ``big``: a run of at least ``_SHORT_RUN`` is taken as
    ``big[i:j] * q``, ``_COFACTOR_CHUNK`` primes at a time, and the
    shorter runs, most of those over a short segment, are gathered
    together.
    """
    qs = np.arange(hi // (math.isqrt(hi) + 1), 0, -1)
    starts = np.searchsorted(big, -(-lo // qs))
    ends = np.searchsorted(big, hi // qs, "right")
    runs = ends - starts
    long = runs >= _SHORT_RUN
    for q, i, j in zip(qs[long], starts[long], ends[long]):
        for a in range(i, j, _COFACTOR_CHUNK):
            b = min(a + _COFACTOR_CHUNK, j)
            at = big[a:b] * q
            at -= lo
            apply(at, None if values is None else values[a:b])
    short = np.flatnonzero(~long & (runs > 0))
    step = _COFACTOR_CHUNK // _SHORT_RUN
    for g in range(0, short.size, step):
        k = short[g : g + step]
        run = runs[k]
        at = np.repeat(starts[k] - (np.cumsum(run) - run), run)
        at += np.arange(at.size)
        v = None if values is None else values[at]
        at = big[at]
        at *= np.repeat(qs[k], run)
        at -= lo
        apply(at, v)


def _mangoldt_segment(primes: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """float64 lam[m - lo] = Lambda(m) for lo <= m <= hi, from the
    ascending primes (at least those up to hi): ``np.log`` at the primes
    and ``math.log(p)`` at the higher powers of each p <= sqrt(hi). The
    two logs differ in the last bit at some primes, so each value keeps
    its route."""
    lam = np.zeros(hi - lo + 1, dtype=np.float64)
    inside, at = _primes_in(primes, lo, hi)
    lam[at] = np.log(inside.astype(np.float64))
    for p in primes[: np.searchsorted(primes, math.isqrt(hi), "right")].tolist():
        logp = math.log(p)
        pk = p * p
        while pk <= hi:
            if pk >= lo:
                lam[pk - lo] = logp
            pk *= p
    return lam


def _psi_segment(lam: np.ndarray, carry: float) -> np.ndarray:
    """float64 Psi over a segment: the running sums of its Lambda values
    lam, carried on from Psi = carry just before it. Each value adds one
    term to the one before, as ``np.cumsum`` of the whole Lambda table
    does, so segments give the whole table's bits."""
    if carry == 0.0:  # 0.0 + x is x for every Lambda value x >= 0
        return np.cumsum(lam)
    psi = np.empty(lam.size + 1, dtype=np.float64)
    psi[0] = carry
    psi[1:] = lam
    np.cumsum(psi, out=psi)
    return psi[1:]


def build_sieve(limit: int) -> SieveTable:
    """Build a :class:`SieveTable` covering 2..limit.

    The odd primes p <= sqrt(limit) come from a small sieve of their own
    and strike their odd multiples from p^2 up in a bool sieve over the
    odd numbers; what is left, with 2, are the primes. The SPF table is
    not built here (:attr:`SieveTable.spf`). Raises
    :class:`CapacityError` outside [2, DEFAULT_CAPACITY].
    """
    if limit < 2 or limit > DEFAULT_CAPACITY:
        raise CapacityError(f"sieve limit {limit} outside [2, {DEFAULT_CAPACITY}]")
    root = math.isqrt(limit)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for i in range(2, math.isqrt(root) + 1):
        if small[i]:
            small[i * i :: i] = False
    odd = np.ones((limit + 1) // 2, dtype=bool)  # odd[i]: is 2i + 1 prime
    odd[0] = False
    for p in np.flatnonzero(small)[1:].tolist():
        odd[p * p // 2 :: p] = False
    primes = np.empty(int(np.count_nonzero(odd)) + 1, dtype=np.int64)
    primes[0] = 2
    primes[1:] = np.flatnonzero(odd)
    primes[1:] *= 2
    primes[1:] += 1
    primes.flags.writeable = False
    return SieveTable(limit, primes)
