"""Ingham sums, weighted sums and Abel-type partial sums.

The two central quantities are

    A(n) = sum over k <= n of a_k * floor(n/k)
    S(n) = sum over k <= n of a_k * floor(n/k) * log k

Both are evaluated by floor-quotient block decomposition: floor(n/k) is
constant on O(sqrt n) maximal blocks of k, so prefix sums of a_k and of
a_k log k turn each query into O(sqrt n) work. :func:`batch_sums`, the
one route for a grid of n or (:func:`ingham_A`, :func:`ingham_S`) one n,
lays out the blocks as numpy arrays, a few array passes per 2**14 blocks
instead of a Python loop per block, and reads the prefix sums only at
their distinct ends, gathered in one chunked pass over the coefficients:
no N-length prefix array is held, only the sorted distinct ends of a
sparse grid, or an int32 map from block end to gathered value on a
dense one. It rounds each n exactly with the bucket sums of
:mod:`accumulate`: every value equals ``math.fsum`` over that n's block
terms. :func:`block_sums` does the same over whole prefix arrays and is
its oracle; its one-point form :func:`_block_sum` remains only for the
per-m sdiff loop, whose queries the benchmark's tracer counts. Dense
sweeps over every n <= N can instead go through one divisor-lattice pass
plus a cumulative sum (:func:`cumulative_sums`). The lattice pass is
hyperbola-split: strided slice-adds for divisors d <= sqrt(N), one
vectorized add per cofactor N/d for the rest. The Mobius table behind
a_from_f sieves only the primes up to sqrt(N) and fixes the sign of the
numbers with one larger prime factor in the sieve's big-prime pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .accumulate import csum, segment_sums
from .sequences import CoefficientSequence, log_index, sum_over_divisors, times_log


@dataclass(frozen=True)
class SummationValue:
    """A(n) and S(n) at a single n, with normalized companions.

    normalized_S is None at n = 1, where the S/(n log n) normalization
    is undefined (log 1 = 0).
    """

    n: int
    A: complex
    S: complex
    normalized_A: complex
    normalized_S: complex | None


@dataclass(frozen=True)
class WeightSequence:
    """Strictly increasing nonnegative weights lambda_m for Abel-type
    summation, index-aligned (slot 0 is set to 0); lambda_1 = 0 is the
    permitted boundary case, as for :meth:`log_weights`.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 2:
            raise ValueError("weights must be index-aligned and cover m = 1")
        if w[1] < 0:
            raise ValueError("weights must be nonnegative")
        if not np.all(np.diff(w[1:]) > 0):
            raise ValueError("weights must be strictly increasing")
        w = w.copy()
        w[0] = 0.0
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @classmethod
    def log_weights(cls, n: int) -> "WeightSequence":
        """lambda_m = log m for m = 1..n."""
        return cls(log_index(n))


# Blocks per pass of _passes: the gathered terms, bucket keys and
# bucket sums of a pass stay within a few MB.
_CHUNK_BLOCKS = 1 << 14
# Coefficients per chunk of the pass that gathers prefix sums at block
# ends: each chunk's running sums and logs stay in cache.
_CHUNK_TERMS = 1 << 16
# A grid sorts its block ends when blocks * _SPARSE < max(grid), and
# marks them in an int32 map otherwise (see _grid_sums).
_SPARSE = 8


def _block_terms(dr, di, q):
    """The block terms (dr + i di) * q as two rows, real then imaginary.

    Each part is formed from separate real products, as CPython up to
    3.13 multiplies a complex by an int (q as q + 0i): dr*q - di*0.0 and
    dr*0.0 + di*q. The rule is fixed here on purpose and does not follow
    the interpreter: from 3.14 on, complex * int gives (dr*q, di*q),
    which differs for signed zeros and for inf or nan in the other part.
    numpy's complex multiply is not used because its SIMD loop may fuse
    the multiply-adds.
    """
    terms = np.empty((2, q.size))
    re, im = terms
    tmp = np.empty(q.size)
    with np.errstate(invalid="ignore", over="ignore"):
        np.multiply(dr, q, out=re)
        np.subtract(re, np.multiply(di, 0.0, out=tmp), out=re)
        np.multiply(dr, 0.0, out=im)
        np.add(im, np.multiply(di, q, out=tmp), out=im)
    return terms


def _passes(ns):
    """The maximal blocks of every n in ns, in passes of about
    _CHUNK_BLOCKS blocks: per pass (c, first, ends, q), the block count of
    each n it covers, the place of each n's first block in the pass, and
    per block its last k (k2, int64) and q (float64), ascending in k for
    each n.

    With r = isqrt(n) the blocks are k = 1..r (q = n // k), then
    q = n // (r + 1) down to 1; each has k2 = n // q, and its k1 - 1 is
    the k2 of the block before it (0 for the first).
    """
    r = np.sqrt(ns).astype(np.int64)
    r -= r * r > ns
    r += (r + 1) * (r + 1) <= ns
    counts = r + ns // (r + 1)
    before = np.cumsum(counts) - counts
    # A pass starts at each point whose first block crosses a multiple
    # of _CHUNK_BLOCKS.
    starts = [0, *(np.flatnonzero(np.diff(before // _CHUNK_BLOCKS)) + 1).tolist(), ns.size]
    for a, b in zip(starts, starts[1:]):
        c = counts[a:b]
        first = before[a:b] - before[a]
        j = np.arange(int(c.sum())) - np.repeat(first, c)
        head = j < np.repeat(r[a:b], c)
        # d is k2 on the first r blocks of an n and q on the others; x is
        # the other one of the two.
        d = np.where(head, j + 1, np.repeat(c, c) - j)
        x = np.repeat(ns[a:b], c) // d
        yield c, first, np.where(head, d, x), np.where(head, x, d).astype(np.float64)


def _pass_sums(upper, start, c, first, q) -> list[complex]:
    """The sums of one pass of :func:`_passes` from the prefix sums
    ``upper`` at its block ends and ``start`` at 0: the terms come from
    :func:`_block_terms`, and the real and imaginary parts of each n are
    exactly rounded sums (:func:`accumulate.segment_sums`)."""
    lower = np.empty_like(upper)
    lower[1:] = upper[:-1]
    lower[first] = start
    with np.errstate(invalid="ignore"):  # inf - inf in a part is nan
        terms = _block_terms(upper.real - lower.real, upper.imag - lower.imag, q)
    sums = segment_sums(terms, c)
    return list(map(complex, sums[0::2], sums[1::2]))


def block_sums(prefix, grid) -> list[complex]:
    """Sum of q * (prefix[k2] - prefix[k1 - 1]) over the maximal blocks
    [k1, k2] with q = floor(n/k) constant, for every n in grid.

    The blocks come from :func:`_passes` and each n is rounded by
    :func:`_pass_sums`, so every value is ``math.fsum`` over that n's
    terms bit for bit, the same value :func:`_block_sum` gives, and
    integer-valued inputs give exact integer results. It reads whole
    prefix arrays; :func:`batch_sums` gives the same values from the
    coefficients alone, and this function is its test oracle.
    """
    # A real prefix stays real: its .imag is +0.0, as a complex copy's is.
    prefix = np.asarray(prefix, dtype=np.complex128 if np.iscomplexobj(prefix) else np.float64)
    ns = np.asarray(grid, dtype=np.int64).ravel()
    if not ns.size:
        return []
    if not 1 <= ns.min() <= ns.max() < prefix.size:
        raise ValueError(f"grid outside [1, {prefix.size - 1}]")
    out: list[complex] = []
    for c, first, ends, q in _passes(ns):
        out += _pass_sums(prefix[ends], prefix[0], c, first, q)
    return out


def _block_sum(prefix, n: int) -> complex:
    """block_sums at one point, without the bucket set-up: the block ends
    are 0..r, then n // q for q = n // (r + 1) down to 1, in one int64
    array; the differences of the prefix sums gathered there are one
    complex subtract, :func:`_block_terms` forms the terms, and
    ``math.fsum`` rounds each part, reading its row in place through a
    memoryview."""
    r = math.isqrt(n)
    k = np.empty(r + 1 + n // (r + 1), dtype=np.int64)
    k[: r + 1] = np.arange(r + 1)
    np.floor_divide(n, np.arange(n // (r + 1), 0, -1), out=k[r + 1 :])
    ends = prefix[k]
    q = (n // k[1:]).astype(np.float64)
    with np.errstate(invalid="ignore"):  # inf - inf in a part is nan
        d = ends[1:] - ends[:-1]
    re, im = _block_terms(d.real, d.imag, q)
    return complex(math.fsum(memoryview(re)), math.fsum(memoryview(im)))


def _check_point(seq: CoefficientSequence, n: int) -> None:
    if not 1 <= n <= seq.length:
        raise ValueError(f"n = {n} outside [1, {seq.length}]")


def _cumsums_at(ends: np.ndarray, terms) -> list[np.ndarray]:
    """For each of the term arrays that ``terms(lo, hi)`` gives at m =
    lo..hi-1 (one per sum, so a chunk's shared factors are formed once),
    the prefix sums from m = 0 at the ascending ``ends``, bit for bit
    those of ``np.cumsum`` over the whole term array, from one pass up
    to ends[-1] in chunks of _CHUNK_TERMS. Each chunk is a cumulative
    sum whose first term is added to the value carried from the chunk
    before, which does not change the sequential sums. The sums are at
    least float64. A chunk that owns its memory, is writeable and has
    the dtype of its sums is summed in place, so the term functions give
    fresh arrays they do not read again; any other chunk (a view of a
    sequence, an int8 one) is copied first, exactly."""
    top = int(ends[-1]) + 1
    out: list[np.ndarray] = []
    carry: list = []
    done = 0
    for lo in range(0, top, _CHUNK_TERMS):
        hi = min(lo + _CHUNK_TERMS, top)
        upto = int(np.searchsorted(ends, hi))
        at = ends[done:upto] - lo
        for i, chunk in enumerate(terms(lo, hi)):
            if not lo:
                dtype = np.result_type(chunk.dtype, np.float64)
                out.append(np.empty(ends.size, dtype=dtype))
                carry.append(dtype.type(0))
            if not (chunk.dtype == out[i].dtype and chunk.flags.owndata and chunk.flags.writeable):
                chunk = chunk.astype(out[i].dtype)
            with np.errstate(invalid="ignore", over="ignore"):
                chunk[0] = carry[i] + chunk[0]
                np.cumsum(chunk, out=chunk)
            out[i][done:upto] = chunk[at]
            carry[i] = chunk[-1]
        done = upto
    return out


def _prefixes_at(a: np.ndarray, ends: np.ndarray, parts: str = "AS") -> list[np.ndarray]:
    """The prefix sums at the ascending ends of a_m (part "A") and of
    a_m log m (part "S"), one array per letter of ``parts``, bit for bit
    those of ``np.cumsum(a)`` over a in float64 (an int8 a included) or
    complex128 and of ``np.cumsum(times_log(a, log_index(N)))``, from one
    chunked pass (:func:`_cumsums_at`). The terms a_m log m come from
    :func:`sequences.times_log` with log m per chunk, which gives the
    same bits as the whole array."""

    def alog(lo, hi):
        log = np.arange(lo, hi, dtype=np.float64)
        if lo == 0:
            log[0] = 1.0  # log 1 = 0 in the unused slot 0, as log_index has
        return times_log(a[lo:hi], np.log(log, out=log))

    fns = {"A": lambda lo, hi: a[lo:hi], "S": alog}
    return _cumsums_at(ends, lambda lo, hi: [fns[p](lo, hi) for p in parts])


def _distinct(ascending: np.ndarray) -> np.ndarray:
    """The entries of an ascending array that differ from the one before
    them: its distinct values, without :func:`np.unique`, whose first
    call in a process makes about 1.7 MB more resident (np.sort 0.4)."""
    keep = np.empty(ascending.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ascending[1:], ascending[:-1], out=keep[1:])
    return ascending[keep]


def _grid_sums(seq: CoefficientSequence, grid, parts: str = "AS") -> list:
    """The sums named by ``parts`` ("A", "S" or "AS") along a strictly
    ascending grid: each the list of its values or the exception its
    block sums raise, as :func:`block_sums` over the whole prefix array
    gives them. :func:`batch_sums` reads both, and :func:`ingham_A` and
    :func:`ingham_S` compute only their own at a single n.

    The grid's blocks (:func:`_passes`) are laid out twice, each time for
    all the parts together: once to find their distinct ends, whose
    prefix sums one chunked pass over ``seq.a`` then gathers
    (:func:`_prefixes_at`), and once to sum them as :func:`block_sums`
    does, reading each block end's place among the distinct ones. The
    places come one of two ways, picked from the grid's block count
    (r + n // (r + 1) per n, r = isqrt(n)) and max(grid), both known
    before any layout:

    - a sparse grid, blocks * _SPARSE < max(grid) with _SPARSE = 8,
      concatenates every pass's ends and 0, sorts them in place and
      keeps the distinct ones, and ``np.searchsorted`` gives each end
      its place: about 16 bytes per block (8 for each end, at most 8
      for each distinct one);
    - any other grid marks its ends in an int32 map of length
      max(grid) + 1 and reads the places from it: 4 bytes per integer up
      to max(grid), made resident by its scattered writes.

    The rule takes the sort where it holds at most half the map's bytes,
    which also keeps its O(log) lookups to grids of few blocks: a single n
    above a few hundred, or theorem2's three points up to 1e7 (about 9 k
    blocks), sorts; a dense sweep (1.9 M blocks up to 1e6) keeps the map.
    Both routes gather the prefix sums at the same ends, so they give the
    same bits.
    """
    grid = [int(n) for n in grid]
    if not grid:
        raise ValueError("empty grid")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly ascending")
    _check_point(seq, grid[0])
    _check_point(seq, grid[-1])
    ns = np.array(grid, dtype=np.int64)
    blocks = sum(r + n // (r + 1) for n in grid for r in [math.isqrt(n)])
    if blocks * _SPARSE < grid[-1]:
        ends = np.empty(blocks + 1, dtype=np.int64)
        ends[0] = 0  # the k1 - 1 of every n's first block
        done = 1
        for _, _, k2, _ in _passes(ns):
            ends[done : done + k2.size] = k2
            done += k2.size
        ends.sort()
        ends = _distinct(ends)
        places = partial(np.searchsorted, ends)
    else:
        place = np.zeros(grid[-1] + 1, dtype=np.int32)
        place[0] = 1  # the k1 - 1 of every n's first block
        for _, _, k2, _ in _passes(ns):
            place[k2] = 1
        ends = np.flatnonzero(place)
        place[ends] = np.arange(ends.size, dtype=np.int32)
        places = place.__getitem__
    prefixes = _prefixes_at(seq.a, ends, parts)
    sums: list = [[] for _ in parts]
    for c, first, k2, q in _passes(ns):
        at = places(k2)
        for i, prefix in enumerate(prefixes):
            if isinstance(sums[i], list):
                try:
                    sums[i] += _pass_sums(prefix[at], prefix[0], c, first, q)
                except (ValueError, OverflowError) as exc:
                    sums[i] = exc
    return sums


def _raised(outcome):
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def batch_sums(seq: CoefficientSequence, grid) -> list[SummationValue]:
    """Per-point A(n), S(n) for a strictly ascending grid of n values,
    from :func:`_grid_sums`: :func:`block_sums` on the whole prefix
    arrays bit for bit, and so is the exception, if any: A's, else S's."""
    grid = [int(n) for n in grid]
    A, S = map(_raised, _grid_sums(seq, grid))  # A's exception first
    return [
        SummationValue(n, a, s, a / n, s / (n * math.log(n)) if n > 1 else None)
        for n, a, s in zip(grid, A, S)
    ]


def ingham_A(seq: CoefficientSequence, n: int) -> complex:
    """A(n) = sum of a_k floor(n/k) over k <= n; its outcome is A's alone."""
    return _raised(_grid_sums(seq, [n], "A")[0])[0]


def ingham_S(seq: CoefficientSequence, n: int) -> complex:
    """S(n) = sum of a_k floor(n/k) log k over k <= n, S's outcome alone."""
    return _raised(_grid_sums(seq, [n], "S")[0])[0]


def cumulative_sums(
    seq: CoefficientSequence, upto: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """A(n) and S(n) for every n <= upto, via the divisor-lattice route.

    Returns index-aligned arrays (A, S). A is the cumulative sum of
    f(m) = sum of a_d over d | m; S is the cumulative sum of
    sum of a_k log k over k | m. Cost is one lattice pass per array,
    far below per-point block queries when the grid is dense.
    """
    n = seq.length if upto is None else int(upto)
    _check_point(seq, n)
    a = seq.a[: n + 1]
    A = np.cumsum(sum_over_divisors(a))
    S = np.cumsum(sum_over_divisors(a * log_index(n)))
    return A, S


def ingham_series_partial(c: CoefficientSequence, n: int) -> complex:
    """Partial sum sum_{m<=n} (m/n) floor(n/m) c_m of a formal series.

    Equals A(n)/n for the reweighted sequence m * c_m; the direct form
    here is the definition, kept independent so the two can be
    cross-checked.
    """
    _check_point(c, n)
    m = np.arange(1, n + 1, dtype=np.float64)
    weights = m * (n // np.arange(1, n + 1))
    return csum(weights * c.a[1 : n + 1]) / n


def tauber_weighted(a: CoefficientSequence, n: int) -> complex:
    """Weighted partial sum: sum of k * a_k over k <= n."""
    _check_point(a, n)
    k = np.arange(1, n + 1, dtype=np.float64)
    return csum(k * a.a[1 : n + 1])


def abel_power_sum(a: CoefficientSequence, x: float) -> complex:
    """Power-series partial sum: sum of a_k x^k over the stored prefix."""
    if not 0 < x < 1:
        raise ValueError(f"x must lie in (0, 1), got {x}")
    n = a.length
    powers = x ** np.arange(1, n + 1, dtype=np.float64)
    return csum(powers * a.a[1:])


def abel_lambda_sum(
    c: CoefficientSequence, w: WeightSequence, x: float
) -> complex:
    """Weighted Abel sum: sum of c_m exp(-lambda_m x) over the prefix.

    With log weights this is term-by-term the Dirichlet sum of c at
    exponent x, since exp(-x log m) = m^-x.
    """
    if x <= 0:
        raise ValueError(f"x must be positive, got {x}")
    n = c.length
    if w.weights.size - 1 < n:
        raise ValueError(
            f"weights cover m <= {w.weights.size - 1} but sequence has length {n}"
        )
    damp = np.exp(-x * w.weights[1 : n + 1])
    return csum(damp * c.a[1:])
