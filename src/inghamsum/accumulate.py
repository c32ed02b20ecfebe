"""Exactly rounded accumulation.

Every scalar reduction returns the correctly rounded value of the exact
sum of its terms, the value ``math.fsum`` returns, so a result does not
depend on the order of the terms and repeated runs are bit-identical.

Large arrays are summed without a Python list. :func:`_exact_sum`
splits every float64 into a high part, its top 27 significant bits, and
the exact remainder. It adds each half within its bucket of equal sign and
binary exponent with ``np.bincount``, where every partial sum is exact,
and rounds once with ``math.fsum`` over the nonzero bucket sums (at
most 8192 per chunk). Their exact total is the exact total of the
terms, so the correctly rounded result is the same value. Small arrays,
and arrays holding inf, nan or magnitudes near overflow, go to
``math.fsum`` directly.

Index-aligned prefix arrays use plain float64 cumulative sums instead;
their rounding error is orders of magnitude below every tolerance used
by the verification suites.
"""

import math

import numpy as np

# Below this size math.fsum over a list costs less than the array passes
# (on a 2-vCPU x86-64 VM the two cost the same near 650 terms).
_SMALL = 640
# Exactness needs at most 2**26 terms per chunk: a bucket then holds at
# most 2**26 halves of at most 27 significant bits on one grid, so each
# partial sum fits in 53 bits. Chunks of 2**16 keep the passes in cache.
_CHUNK = 1 << 16
# Biased exponents from here up (|x| >= 2**960, inf, nan) leave the
# array to math.fsum itself: no bucket sum can overflow, and fsum's
# nan, ValueError and OverflowError outcomes stay as they are.
_EXP_LIMIT = 2047 - 64
_HI_MASK = np.uint64(2**64 - 2**26)


def _zero_sum(x: np.ndarray) -> float:
    """math.fsum over a nonempty array whose terms are all 0.0 or -0.0."""
    negative = np.signbit(x.flat[0]) and np.signbit(x).all()
    return math.fsum([-0.0] if negative else [0.0])


def _exact_sum(x: np.ndarray) -> float:
    """math.fsum(x.tolist()) bit for bit, for a real array of any size."""
    if x.size < _SMALL or x.dtype.kind not in "biuf" or x.dtype.itemsize > 8:
        return math.fsum(x.tolist())
    x = x.ravel()
    sums = []
    for start in range(0, x.size, _CHUNK):
        chunk = np.ascontiguousarray(x[start : start + _CHUNK], dtype=np.float64)
        bits = chunk.view(np.uint64)
        key = (bits >> np.uint64(52)).view(np.int64)
        hi = (bits & _HI_MASK).view(np.float64)
        hi_sums = np.bincount(key, hi, 4096)  # key = 2048 * sign + exponent
        if np.count_nonzero(hi_sums.reshape(2, 2048)[:, _EXP_LIMIT:]):
            return math.fsum(x.tolist())
        sums += [hi_sums, np.bincount(key, chunk - hi, 4096)]
    terms = np.concatenate(sums)
    terms = terms[terms != 0]
    if terms.size == 0:
        return _zero_sum(x)
    return math.fsum(terms.tolist())


def rsum(values) -> float:
    """Exactly rounded sum of real values (an array or any iterable)."""
    if isinstance(values, np.ndarray):
        return _exact_sum(values)
    return math.fsum(values)


def csum(values) -> complex:
    """Exactly rounded complex sum: real and imaginary parts summed apart."""
    arr = np.asarray(values)
    if arr.size == 0:
        return 0j
    if not np.iscomplexobj(arr):
        return complex(_exact_sum(arr), 0.0)
    imag = arr.imag
    return complex(
        _exact_sum(arr.real), _exact_sum(imag) if imag.any() else _zero_sum(imag)
    )
