"""Ingham sums, weighted sums and Abel-type partial sums.

The two central quantities are

    A(n) = sum over k <= n of a_k * floor(n/k)
    S(n) = sum over k <= n of a_k * floor(n/k) * log k

Both are evaluated by floor-quotient block decomposition: floor(n/k) is
constant on O(sqrt n) maximal blocks of k, so prefix sums of a_k and of
a_k log k turn each query into O(sqrt n) work. Dense sweeps over every
n <= N instead go through one divisor-lattice pass plus a cumulative
sum, which is how batch verification grids stay affordable. The lattice
pass is hyperbola-split: strided slice-adds for divisors d <= sqrt(N),
one vectorized add per cofactor N/d for the rest. The Mobius table
behind a_from_f sieves only the primes up to sqrt(N) and fixes the sign
of the numbers with one larger prime factor in a single prime-cofactor
pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accumulate import csum
from .sequences import CoefficientSequence, log_index, sum_over_divisors


@dataclass(frozen=True)
class TruncatedSum:
    """A partial-sum value together with the number of terms used."""

    value: complex
    terms: int


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
    """Strictly increasing positive weights for Abel-type summation.

    kind is "log" for lambda_m = log m (lambda_1 = 0 is the permitted
    boundary case) or "explicit" for user-supplied weights.
    """

    weights: np.ndarray
    kind: str = "explicit"

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
        return cls(log_index(n), kind="log")


def _block_sum(prefix, n: int) -> complex:
    """Sum of q * (prefix[k2] - prefix[k1 - 1]) over maximal blocks with
    q = floor(n/k) constant for k in [k1, k2]. Terms are collected and
    fsum-reduced, so integer-valued inputs give exact integer results."""
    re: list[float] = []
    im: list[float] = []
    k = 1
    while k <= n:
        q = n // k
        k2 = n // q
        block = (prefix[k2] - prefix[k - 1]) * q
        re.append(block.real)
        im.append(block.imag)
        k = k2 + 1
    return complex(math.fsum(re), math.fsum(im))


def _check_point(seq: CoefficientSequence, n: int) -> None:
    if not 1 <= n <= seq.length:
        raise ValueError(f"n = {n} outside [1, {seq.length}]")


def ingham_A(seq: CoefficientSequence, n: int) -> complex:
    """A(n) = sum of a_k floor(n/k) over k <= n, in O(sqrt n) blocks."""
    _check_point(seq, n)
    return _block_sum(seq.prefix_a, n)


def ingham_S(seq: CoefficientSequence, n: int) -> complex:
    """S(n) = sum of a_k floor(n/k) log k over k <= n."""
    _check_point(seq, n)
    return _block_sum(seq.prefix_alog, n)


def _summation_value(n: int, A: complex, S: complex) -> SummationValue:
    norm_s = S / (n * math.log(n)) if n > 1 else None
    return SummationValue(n=n, A=A, S=S, normalized_A=A / n, normalized_S=norm_s)


def batch_sums(seq: CoefficientSequence, grid) -> list[SummationValue]:
    """Per-point A(n), S(n) for a strictly ascending grid of n values.

    Each grid point is an independent block-decomposed query; results
    are returned in grid order and are identical to per-point calls.
    """
    grid = [int(n) for n in grid]
    if not grid:
        raise ValueError("empty grid")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly ascending")
    _check_point(seq, grid[0])
    _check_point(seq, grid[-1])

    # Large sweeps index the prefix arrays heavily; plain lists are
    # noticeably faster than ndarray scalar access there.
    pa: object = seq.prefix_a
    pl: object = seq.prefix_alog
    if len(grid) > 64:
        top = grid[-1]
        pa = seq.prefix_a[: top + 1].tolist()
        pl = seq.prefix_alog[: top + 1].tolist()

    return [_summation_value(n, _block_sum(pa, n), _block_sum(pl, n)) for n in grid]


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


def abel_power_sum(a: CoefficientSequence, x: float) -> TruncatedSum:
    """Power-series partial sum: sum of a_k x^k over the stored prefix."""
    if not 0 < x < 1:
        raise ValueError(f"x must lie in (0, 1), got {x}")
    n = a.length
    powers = x ** np.arange(1, n + 1, dtype=np.float64)
    return TruncatedSum(csum(powers * a.a[1:]), n)


def abel_lambda_sum(
    c: CoefficientSequence, w: WeightSequence, x: float
) -> TruncatedSum:
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
    return TruncatedSum(csum(damp * c.a[1:]), n)
