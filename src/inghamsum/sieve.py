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
the SPF table serves only the scalar methods and the `sieve` command.

The table is immutable after construction (the backing arrays are marked
read-only) and safe to share between threads.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError

# The cap on a sieve limit: the build holds a 50 MB odd-only bool sieve
# and 46 MB of primes here, mobius_array and liouville 0.1 GB each, and the
# int32 SPF table, which only the scalar methods and `sieve` read, 0.4 GB.
DEFAULT_CAPACITY = 100_000_000
# The sign sieve's cofactor pass forms its indices this many primes at a
# time, and the divisor lattice's cofactor adds this many d at a time.
# One index array over all the primes above sqrt(limit) (5.3 MB at
# 1e7) could stay in the heap after the pass, and whether it did, which
# the heap's layout decides, moved the peak of `verify theorem2` at 1e7
# by 8 MB.
_COFACTOR_CHUNK = 1 << 16


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
        """The smallest-prime-factor table (see the class attributes).

        Walked in descending order, each prime p <= sqrt(limit) stores p
        on its multiples from p^2 up, so the smallest prime factor of
        every composite is written last; then each prime stores itself.
        """
        if self._spf is None:
            n = self.limit
            spf = np.zeros(n + 1, dtype=np.int32)
            split = int(np.searchsorted(self.primes, math.isqrt(n), "right"))
            for p in self.primes[:split][::-1].tolist():
                spf[p * p :: p] = p
            spf[self.primes] = self.primes
            spf.flags.writeable = False
            self._spf = spf
        return self._spf

    @property
    def mobius_array(self) -> np.ndarray:
        """int8 array with mobius_array[m] = mu(m); index 0 is unused
        (:func:`_sign_sieve`)."""
        if self._mobius_arr is None:
            self._mobius_arr = _sign_sieve(self.primes, self.limit, mobius=True)
            self._mobius_arr.flags.writeable = False
        return self._mobius_arr

    @property
    def mangoldt_array(self) -> np.ndarray:
        """float64 array with mangoldt_array[m] = Lambda(m)."""
        if self._mangoldt_arr is None:
            lam = np.zeros(self.limit + 1, dtype=np.float64)
            lam[self.primes] = np.log(self.primes.astype(np.float64))
            root = math.isqrt(self.limit)
            for p in self.primes[self.primes <= root].tolist():
                logp = math.log(p)
                pk = p * p
                while pk <= self.limit:
                    lam[pk] = logp
                    pk *= p
            lam.flags.writeable = False
            self._mangoldt_arr = lam
        return self._mangoldt_arr

    @property
    def psi_prefix(self) -> np.ndarray:
        """float64 array with psi_prefix[m] = Psi(m) = sum_{j<=m} Lambda(j)."""
        if self._psi_prefix is None:
            pref = np.cumsum(self.mangoldt_array)
            pref.flags.writeable = False
            self._psi_prefix = pref
        return self._psi_prefix

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


def hyperbola_cofactors(big: np.ndarray, n: int):
    """Yield (q, j) for q = n // (r + 1) down to 1, r = isqrt(n), where
    big[:j] are the entries of ``big`` at most n // q.

    ``big`` holds ascending integers above r, so every product b q <= n
    of an entry and a cofactor is some big[:j] * q, and once each: a walk
    over the q replaces a loop over the entries. q = 1 comes last.
    """
    if big.size == 0:
        return
    r = math.isqrt(n)
    for q in range(n // (r + 1), 0, -1):
        j = int(np.searchsorted(big, n // q, "right"))
        if j:
            yield q, j


def _sign_sieve(primes: np.ndarray, n: int, mobius: bool) -> np.ndarray:
    """int8 s[m] = mu(m) if mobius else lambda(m) = (-1)^Omega(m) for m
    <= n, s[0] = 0, from the ascending primes (at least those up to n).

    Each prime p <= sqrt(n) flips the sign on its multiples, then zeroes
    the multiples of p^2 (mu) or flips again on those of each p^k <= n
    (lambda). What is left of m is 1 or one prime P > sqrt(n), so one
    pass over the cofactors q = m / P (:func:`hyperbola_cofactors`)
    negates s at every P q, ``_COFACTOR_CHUNK`` primes at a time.
    """
    s = np.ones(n + 1, dtype=np.int8)
    s[0] = 0
    split = int(np.searchsorted(primes, math.isqrt(n), "right"))
    for p in primes[:split].tolist():
        s[p::p] *= -1
        pk = p * p
        if mobius:
            s[pk::pk] = 0
        while pk <= n and not mobius:
            s[pk::pk] *= -1
            pk *= p
    big = primes[split:]
    for q, j in hyperbola_cofactors(big, n):
        for lo in range(0, j, _COFACTOR_CHUNK):
            at = big[lo : min(lo + _COFACTOR_CHUNK, j)] * q
            s[at] = -s[at]
    return s


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
