"""Exactly rounded accumulation.

Every scalar reduction returns the correctly rounded value of the exact
sum of its terms, the value ``math.fsum`` returns, so a result does not
depend on the order of the terms and repeated runs are bit-identical.

Large arrays are summed without a Python list. :func:`_exact_sum`
splits every float64 into a high part, its top 27 significant bits, and
the exact remainder. It adds each half within its bucket of equal sign and
binary exponent with ``np.bincount``, where every partial sum is exact,
and rounds once with ``math.fsum`` over the nonzero bucket sums. Their
exact total is the exact total of the terms, so the correctly rounded
result is the same value. :class:`ExactSum` keeps the running bucket
sums, so a caller can form its terms chunk by chunk and still get the
value ``math.fsum`` gives over all of them. :func:`prefix_csums` reads
one running sum at every end of a grid, from an array given in
consecutive pieces that need never be held whole; ``csum(values,
ends)`` is its one-piece case. Small arrays, and arrays
holding inf, nan or magnitudes near overflow, go to ``math.fsum``
directly. :func:`segment_sums` does the same for many consecutive
segments at once, with one set of buckets per segment.

Index-aligned prefix arrays use plain float64 cumulative sums instead;
their rounding error is orders of magnitude below every tolerance used
by the verification suites.
"""

import math

import numpy as np

# Below this size math.fsum over a list costs less than the array passes
# (on a 2-vCPU x86-64 VM the two cost the same near 650 terms).
_SMALL = 640
# Exactness needs at most 2**26 terms per set of running bucket sums: a
# bucket then holds at most 2**26 halves of at most 27 significant bits
# on one grid, so each partial sum fits in 53 bits. Chunks of 2**16 keep
# the passes in cache.
_RUN = 1 << 26
_CHUNK = 1 << 16
# Biased exponents from here up (|x| >= 2**960, inf, nan) leave the
# array to math.fsum itself: no bucket sum can overflow, and fsum's
# nan, ValueError and OverflowError outcomes stay as they are.
_EXP_LIMIT = 2047 - 64
_HI_MASK = np.uint64(2**64 - 2**26)


def _zero(negative: bool) -> float:
    """math.fsum over terms that are all 0.0 or -0.0, -0.0 among them
    everywhere when negative."""
    return math.fsum([-0.0] if negative else [0.0])


def _zero_sum(x: np.ndarray) -> float:
    """math.fsum over a nonempty array whose terms are all 0.0 or -0.0."""
    return _zero(np.signbit(x.flat[0]) and np.signbit(x).all())


def _halves(x: np.ndarray):
    """The bucket (2048 * sign + biased exponent), the high half and the
    exact low half of every term of a contiguous float64 array."""
    bits = x.view(np.uint64)
    hi = (bits & _HI_MASK).view(np.float64)
    with np.errstate(invalid="ignore"):  # inf - inf, left to math.fsum
        lo = x - hi
    return (bits >> np.uint64(52)).view(np.int64), hi, lo


def _guarded(per_bucket: np.ndarray) -> bool:
    """Whether a 4096-entry per-bucket array is nonzero at some exponent
    from _EXP_LIMIT up."""
    return bool(per_bucket.reshape(2, 2048)[:, _EXP_LIMIT:].any())


class ExactSum:
    """The exactly rounded sum of float64 terms added chunk by chunk.

    :meth:`add` adds the bucket sums of one chunk to running ones, and
    :meth:`value` rounds them once with ``math.fsum``. The value is
    ``math.fsum`` over all the terms bit for bit, however they were
    chunked. When :meth:`add` returns False, a term is at or above
    2**960, inf or nan, and the sum is void: ``math.fsum`` over the
    terms themselves decides the value, or the exception.
    """

    def __init__(self):
        self._runs: list[np.ndarray] = []
        self._sums = np.zeros(8192)
        self._terms = 0
        self._negative = True

    def add(self, x: np.ndarray) -> bool:
        """Add a contiguous float64 chunk of at most _CHUNK terms."""
        key, hi, lo = _halves(x)
        hi_sums = np.bincount(key, hi, 4096)
        if _guarded(hi_sums):
            return False
        if self._terms + x.size > _RUN:
            self._runs.append(self._sums)
            self._sums = np.zeros(8192)
            self._terms = 0
        self._sums[:4096] += hi_sums
        self._sums[4096:] += np.bincount(key, lo, 4096)
        self._terms += x.size
        if self._negative:
            self._negative = bool(np.signbit(x).all())
        return True

    def value(self) -> float:
        """math.fsum over every term added so far."""
        sums = np.concatenate([*self._runs, self._sums])
        sums = sums[sums != 0]
        if sums.size == 0:
            return _zero(self._negative)
        return math.fsum(sums.tolist())


def _exact_sum(x: np.ndarray) -> float:
    """math.fsum(x.tolist()) bit for bit, for a real array of any size."""
    if x.size < _SMALL or x.dtype.kind not in "biuf" or x.dtype.itemsize > 8:
        return math.fsum(x.tolist())
    # A view, also of a strided part of a complex array: each chunk below
    # is copied on its own.
    x = x.reshape(-1)
    total = ExactSum()
    for start in range(0, x.size, _CHUNK):
        if not total.add(np.ascontiguousarray(x[start : start + _CHUNK], dtype=np.float64)):
            return math.fsum(x.tolist())
    return total.value()


def segment_sums(terms: np.ndarray, counts: np.ndarray) -> list[float]:
    """math.fsum over consecutive segments of every row, bit for bit.

    ``terms`` is a (rows, size) float64 array and ``counts`` holds the
    segment lengths (each >= 1, summing to size, each at most 2**26).
    Returns the sums segment by segment, the rows of a segment in row
    order. Every (segment, row, sign, exponent) bucket adds its high and
    low halves with ``np.bincount`` as :func:`_exact_sum` does, and one
    ``math.fsum`` per segment row rounds its nonzero bucket sums. A
    segment with a term at or above 2**960, inf or nan goes to
    ``math.fsum`` over its terms, row by row, so the first exception is
    the one a loop over the segments would raise.
    """
    rows = terms.shape[0]
    bucket, hi, lo = _halves(terms)
    present = np.zeros(4096, dtype=np.int64)
    present[bucket] = 1
    width = int(present.sum())
    # key = (segment * rows + row) * width + rank of the bucket in the chunk
    key = (np.cumsum(present) - 1)[bucket]
    key += np.repeat(np.arange(0, counts.size * rows * width, rows * width), counts)
    key += np.arange(0, rows * width, width)[:, None]
    size = counts.size * rows * width
    buckets = np.concatenate(
        [
            np.bincount(key.ravel(), hi.ravel(), size).reshape(-1, width),
            np.bincount(key.ravel(), lo.ravel(), size).reshape(-1, width),
        ],
        axis=1,
    )
    nonzero = buckets != 0
    values = buckets[nonzero].tolist()
    ends = np.cumsum(np.count_nonzero(nonzero, axis=1)).tolist()
    guarded = np.zeros(counts.size, dtype=bool)
    if _guarded(present):
        guarded[key[(bucket & 2047) >= _EXP_LIMIT] // (rows * width)] = True
    stops = np.cumsum(counts)
    out = []
    done = 0
    for first, stop, fallback in zip((stops - counts).tolist(), stops.tolist(), guarded.tolist()):
        for row in range(rows):
            end = ends[len(out)]
            if end > done and not fallback:
                out.append(math.fsum(values[done:end]))
            elif fallback:
                out.append(math.fsum(terms[row, first:stop].tolist()))
            else:
                out.append(_zero_sum(terms[row, first:stop]))
            done = end
    return out


def rsum(values) -> float:
    """Exactly rounded sum of real values (an array or any iterable)."""
    if isinstance(values, np.ndarray):
        return _exact_sum(values)
    return math.fsum(values)


def csum(values, ends=None):
    """Exactly rounded complex sum: real and imaginary parts summed apart.

    With ``ends``, the list of ``csum(values[:end])`` for every end, bit
    for bit, from one pass over a float64 or complex128 array: it is the
    whole-array case of :func:`prefix_csums`.
    """
    if ends is not None:
        return prefix_csums([values], ends, lambda: values)
    arr = np.asarray(values)
    if arr.size == 0:
        return 0j
    if not np.iscomplexobj(arr):
        return complex(_exact_sum(arr), 0.0)
    imag = arr.imag
    return complex(
        _exact_sum(arr.real), _exact_sum(imag) if imag.any() else _zero_sum(imag)
    )


def prefix_csums(pieces, ends, whole) -> list[complex]:
    """``csum(values, ends)`` bit for bit, for a float64 or complex128
    array ``values`` that ``pieces`` yields in consecutive arrays, read
    only as far as the largest end: values need never be held whole.

    Each part runs one :class:`ExactSum`, chunk by chunk, read at every
    end; no chunk crosses an end. A chunk of zeros changes no bucket sum,
    and a sum with a nonzero term does not take its sign from them, so
    such chunks are skipped: a part with no nonzero term yet follows
    csum's all-zero rule, which needs only whether every term so far was
    -0.0. When a chunk trips a part's exponent guard, ``whole()`` gives
    values whole, and csum sums the prefix at that end and at every
    longer one on its own.
    """
    ends = [int(end) for end in ends]
    todo = sorted(set(ends), reverse=True)
    sums = {}
    totals: list[ExactSum] = []
    done = 0
    for piece in pieces:
        parts = (piece.real, piece.imag) if np.iscomplexobj(piece) else (piece,)
        if not totals:
            totals = [ExactSum() for _ in parts]
            seen = [False for _ in parts]
            negative = [True for _ in parts]
        start = 0
        while True:
            while todo and todo[-1] <= done:
                sums[todo.pop()] = _parts_value(totals, seen, negative) if done else 0j
            if not todo or start == piece.size:
                break
            stop = min(start + _CHUNK, piece.size, start + todo[-1] - done)
            for k, part in enumerate(parts):
                chunk = np.ascontiguousarray(part[start:stop])
                if chunk.any():
                    seen[k] = True
                    if not totals[k].add(chunk):
                        values = whole()
                        sums.update((end, csum(values[:end])) for end in todo)
                        return [sums[end] for end in ends]
                elif negative[k] and not seen[k]:
                    negative[k] = bool(np.signbit(chunk).all())
            done += stop - start
            start = stop
        if not todo:
            break
    for end in todo:  # past the last term
        sums[end] = _parts_value(totals, seen, negative) if done else 0j
    return [sums[end] for end in ends]


def _parts_value(totals, seen, negative) -> complex:
    """The complex sum of the parts so far: a part's running sum, or the
    signed zero of csum's all-zero rule when it has no nonzero term."""
    re, *im = [t.value() if s else _zero(neg) for t, s, neg in zip(totals, seen, negative)]
    return complex(re, im[0] if im else 0.0)
