"""Theorem and identity verification harnesses.

Asymptotic statements cannot be decided at finite n, so the checks here
operationalize o(.) conditions as trends: the last grid point must fall
below a configured threshold and the magnitudes must be nonincreasing
over the final half of a geometric grid. Exact identities, by contrast,
are checked by computing both sides through independent code paths and
reporting the worst absolute discrepancy; failures there indicate
implementation bugs, not analytic slack.

Frozen empirical envelopes (module constants below) were fixed from an
oracle run over the reference grids; the suites assert that the measured
ratios never exceed them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .accumulate import csum, prefix_csums, rsum
from .dirichlet import (
    euler_product,
    _f_t_values,
    g_eval,
    mu_n_alpha,
    zeta_real,
    zeta_tail,
    _em_tail,
    _prime_deviation_sum,
)
from .quadrature import QUAD_TOL, TAIL_TOL, QuadResult, integral_sigma_to_inf, integral_zero_to_inf
from .report import ReportRow, VerificationReport
from .sequences import (
    CoefficientSequence,
    MultiplicativeSpec,
    a_from_f,
    extend_completely_multiplicative,
    extension_segments,
    log_index,
    sum_over_divisors,
    times_log,
)
from .sieve import SieveTable
from .summation import (
    _CHUNK_TERMS,
    _block_sum,
    _cumsums_at,
    _distinct,
    _grid_sums,
    _raised,
    batch_sums,
    ingham_A,
    ingham_S,
)

# Empirical envelope for the five f_t estimate families; the measured
# suprema over the reference grid stay below 1.1 (see the acceptance
# suite, which records them), so 5 leaves a wide deterministic margin.
LEMMA_ENVELOPE = 5.0
LEMMA_T_GRID = (1e-3, 1e-2, 1e-1, 1.0, 10.0)
LEMMA_X_GRID = (100, 1_000, 10_000, 100_000, 1_000_000)
LEMMA_K_GRID = (2, 10, 100)
LEMMA_VX_GRID = (1_000, 10_000)

# Frozen from the oracle run over specs {f(2)=0; f(2)=f(3)=0; f(3)=-1},
# n in {1e4, 1e5, 1e6}, alpha in {1.5, 2, 4}: measured supremum of
# residual / mu_n(alpha) was 1.84e-4 (the all-primes Liouville spec,
# outside that grid, reaches 1.71e-3 at n = 1e6).
THEOREM3_RATIO_ENVELOPE = 0.005

# Default bounds of `verify theorem1` (residual times log n) and of
# `verify axer` (the ratio sum_{k<=n} |a_k| / n).
THEOREM1_ENVELOPE = 0.6
AXER_BOUND = 10.0

# Trend thresholds of `verify theorem2` at finite scale: a trend passes
# when the monitored magnitudes are nonincreasing (within MONOTONE_SLACK,
# relatively) over the final (1 - BURN_IN) fraction of the grid; the
# S(n)/(n log n) trend also needs its last value at most S_RATIO_THRESHOLD.
S_RATIO_THRESHOLD = 0.1
MONOTONE_SLACK = 1e-9
BURN_IN = 0.5

_RESIDUAL_FLOOR = 1e-12


@dataclass(frozen=True)
class WintnerResult:
    abs_sum_over_k: float
    target: complex
    mean: complex
    residual: float


@dataclass(frozen=True)
class Theorem3Result:
    mean: complex
    product: complex
    residual: float
    mu: float
    ratio: float | None
    ratio_infinite: bool


@dataclass(frozen=True)
class DifferenceIdentityResult:
    lhs: complex
    rhs: complex
    error: float
    tail_correction: complex
    tail_slack: float
    quad_error: float


def _sigma_of(n: int) -> float:
    return 1.0 + 1.0 / math.log(n)


def _trend_ok(values) -> bool:
    """Nonincreasing over the final (1 - BURN_IN) fraction, within slack."""
    if len(values) < 2:
        return True
    start = min(int(len(values) * BURN_IN), len(values) - 2)
    window = values[start:]
    return all(
        b <= a * (1.0 + MONOTONE_SLACK) + _RESIDUAL_FLOOR
        for a, b in zip(window, window[1:])
    )


# -- Tauberian condition checks ---------------------------------------


def theorem1_residual(
    a: CoefficientSequence,
    n: int,
    spec: MultiplicativeSpec | None = None,
    table: SieveTable | None = None,
) -> float:
    """|A(n)/n - g(1 + 1/log n)|.

    g is the Dirichlet sum of the coefficients truncated at a.length,
    and the residual is the one row of :func:`theorem1_report` at n.
    When the sequence derives from a multiplicative spec, pass it (with
    a table) and g is taken from the exact finite Euler product instead,
    which is tail-free because factors above the cutoff equal 1.
    """
    if spec is None:
        return theorem1_report(a, [n], math.inf).rows[0].residual_t1
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if table is None:
        raise ValueError("spec-based evaluation needs a sieve table")
    return abs(ingham_A(a, n) / n - _spec_g(spec, table, n))


def _spec_g(spec: MultiplicativeSpec, table: SieveTable, n: int) -> complex:
    """g(1 + 1/log n) as the spec's Euler product over the table's primes;
    exact once the table reaches spec.euler_limit."""
    return euler_product(spec, table, _sigma_of(n), table.limit)


def _theorem1_report(values, envelope: float) -> VerificationReport:
    """The report from (n, mean, g, residual) per grid point; a row
    passes when the residual is at most envelope / log n."""
    rows = [
        ReportRow(n=n, mean=mean, g=g, residual_t1=r, passed=r <= envelope / math.log(n))
        for n, mean, g, r in values
    ]
    summary = {
        "pass": all(r.passed for r in rows),
        "max_residual": max(r.residual_t1 for r in rows),
        "thresholds": {"envelope_over_log_n": envelope},
    }
    return VerificationReport("verify-theorem1", rows, summary)


def theorem1_report(a: CoefficientSequence, grid, envelope: float) -> VerificationReport:
    """A(n)/n against g(1 + 1/log n) along the grid, from coefficients:
    every A(n) from one chunked pass over a (:func:`summation._grid_sums`,
    part "A" alone, so no a_m log m term is formed) and every g from one
    :func:`g_eval` pass; g (a truncated Dirichlet sum) is not reported.
    :func:`theorem1_residual` without a spec is one row of this."""
    if grid[0] < 2:
        raise ValueError(f"n must be >= 2, got {grid[0]}")
    (sums,) = _grid_sums(a, grid, "A")
    means = [A / int(n) for n, A in zip(grid, _raised(sums))]
    gs = g_eval(a, [_sigma_of(n) for n in grid], a.length)
    values = [(n, mean, None, abs(mean - g)) for n, mean, g in zip(grid, means, gs)]
    return _theorem1_report(values, envelope)


def theorem1_spec_report(
    spec: MultiplicativeSpec, table: SieveTable, grid, envelope: float
) -> VerificationReport:
    """A(n)/n against g(1 + 1/log n) along the grid, from a spec: A(n)
    is the sum of f(m) over m <= n, streamed from the segments of f
    (:func:`_f_sums`) as :func:`_theorem3_results` reads it, so no
    N-length f is held; g is the Euler product."""
    if grid[0] < 2:
        raise ValueError(f"n must be >= 2, got {grid[0]}")
    values = []
    for n, total in zip(grid, _f_sums(spec, table, grid)):
        mean, g = total / n, _spec_g(spec, table, n)
        values.append((n, mean, g, abs(mean - g)))
    return _theorem1_report(values, envelope)


def theorem2_conditions(a: CoefficientSequence, n_grid, sigma_grid) -> VerificationReport:
    """Both limit-existence conditions along finite grids, n >= 2.

    Per-n rows carry S(n)/(n log n) in magnitude (the sign oscillates for
    many inputs; the condition concerns magnitude) and g at 1 + 1/log n.
    The summary holds the Dirichlet values along the descending sigma
    grid and the two trend verdicts.
    """
    n_grid = [int(n) for n in n_grid]
    sigma_grid = [float(s) for s in sigma_grid]
    if not n_grid or not sigma_grid:
        raise ValueError("grids must be nonempty")
    if any(b <= a_ for a_, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n grid must be strictly ascending")
    if n_grid[0] < 2:
        raise ValueError(f"n must be >= 2, got {n_grid[0]}")
    if not all(s > 1 for s in sigma_grid):
        raise ValueError("sigma grid must stay above 1")
    if any(b >= a_ for a_, b in zip(sigma_grid, sigma_grid[1:])):
        raise ValueError("sigma grid must be strictly descending")
    if n_grid[-1] > a.length:
        raise ValueError(f"grid exceeds stored length {a.length}")

    sums = batch_sums(a, n_grid)
    # g at 1 + 1/log n for every row, then along the sigma grid: one pass.
    g_all = g_eval(a, [_sigma_of(n) for n in n_grid] + sigma_grid, a.length)
    rows = []
    s_ratios = []
    for v, g_n in zip(sums, g_all):
        n, A, S = v.n, v.A, v.S
        ratio = abs(S) / (n * math.log(n))
        rows.append(
            ReportRow(n=n, mean=A / n, g=g_n, s_ratio=ratio, passed=ratio <= S_RATIO_THRESHOLD)
        )
        s_ratios.append(ratio)

    g_sigma = g_all[len(n_grid) :]
    g_diffs = [abs(u - v) for u, v in zip(g_sigma, g_sigma[1:])]

    s_pass = s_ratios[-1] <= S_RATIO_THRESHOLD and _trend_ok(s_ratios)
    g_pass = _trend_ok(g_diffs)
    summary = {
        "pass": s_pass and g_pass,
        "s_trend_pass": s_pass,
        "g_trend_pass": g_pass,
        "max_residual": max(s_ratios),
        "limit_estimate": g_sigma[-1],
        "thresholds": {
            "s_ratio_threshold": S_RATIO_THRESHOLD,
            "monotone_slack": MONOTONE_SLACK,
            "burn_in": BURN_IN,
        },
        "sigma_rows": [[s, g.real, g.imag] for s, g in zip(sigma_grid, g_sigma)],
    }
    return VerificationReport("theorem2", rows, summary)


def theorem3_check(
    spec: MultiplicativeSpec, table: SieveTable, n: int, alpha: float
) -> Theorem3Result:
    """Mean-value against Euler-product bound for a multiplicative f.

    residual = |(1/n) sum f(m) - prod (1-1/p)/(1-f(p)/p)|, mu is the
    Hoelder deviation, ratio their quotient. This is the one-point grid
    of :func:`_theorem3_results`, so f is read segment by segment and no
    n-length f is held.
    """
    return _theorem3_results(spec, table, [n], alpha)[0]


def _theorem3_result(mean: complex, product: complex, mu: float) -> Theorem3Result:
    residual = abs(mean - product)
    if mu > 0:
        return Theorem3Result(mean, product, residual, mu, residual / mu, False)
    if residual <= _RESIDUAL_FLOOR:
        return Theorem3Result(mean, product, residual, mu, 0.0, False)
    return Theorem3Result(mean, product, residual, mu, None, True)


def _f_sums(spec, table, grid) -> list[complex]:
    """``csum(f[1:], grid)`` bit for bit, for f the extension of spec up
    to grid[-1], from one streamed pass (:func:`accumulate.prefix_csums`)
    over its segments (:func:`sequences.extension_segments`): no f longer
    than a segment is held, unless a sum trips the exponent guard and
    falls back to the whole f."""
    top = grid[-1]

    def whole():
        return extend_completely_multiplicative(spec, table, top)[1:]

    return prefix_csums(extension_segments(spec, table, top), grid, whole)


def _theorem3_results(spec, table, grid, alpha: float) -> list[Theorem3Result]:
    """The mean-value bound at every point of a strictly ascending grid,
    from one pass each for the whole grid: the sums of f from one
    streamed pass over the segments of f read at every n
    (:func:`_f_sums`), the products at sigma = 1 from one running product
    (:func:`euler_product` over the grid), and mu_n(alpha) from one list
    of prime terms (:func:`mu_n_alpha` over the grid)."""
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly ascending")
    if grid[0] < 3:
        raise ValueError(f"n must be >= 3, got {grid[0]}")
    if spec.bound_violation() is not None:
        raise ValueError("|f(p)| <= 1 is required for the mean-value bound")
    sums = _f_sums(spec, table, grid)
    products = euler_product(spec, table, 1.0, grid)
    mus = mu_n_alpha(spec, table, grid, alpha)
    return [
        _theorem3_result(total / n, product, mu)
        for n, total, product, mu in zip(grid, sums, products, mus)
    ]


def _theorem3_rows(spec, table, grid, alpha: float, envelope: float) -> list[ReportRow]:
    """:func:`_theorem3_results` as report rows; a row passes when its
    ratio is finite and at most envelope."""
    return [
        ReportRow(
            n=n,
            mean=chk.mean,
            euler_product_at_1=chk.product,
            residual_t3=chk.residual,
            mu_alpha=chk.mu,
            ratio=chk.ratio,
            ratio_infinite=chk.ratio_infinite,
            passed=not chk.ratio_infinite and (chk.ratio or 0.0) <= envelope,
        )
        for n, chk in zip(grid, _theorem3_results(spec, table, grid, alpha))
    ]


def _ratio_estimate(rows: list[ReportRow]) -> float:
    return max((r.ratio for r in rows if r.ratio is not None), default=0.0)


def mean_report(
    spec: MultiplicativeSpec, table: SieveTable, grid, alpha: float
) -> VerificationReport:
    """Mean values of f along the grid against the mean-value bound, with
    g(1 + 1/log n) beside them; a row passes when its ratio is finite."""
    rows = [
        replace(row, g=_spec_g(spec, table, row.n))
        for row in _theorem3_rows(spec, table, grid, alpha, math.inf)
    ]
    summary = {
        "pass": all(r.passed for r in rows),
        "max_residual": max((r.residual_t3 for r in rows), default=0.0),
        "ratio_estimate": _ratio_estimate(rows),
        "alpha": alpha,
    }
    return VerificationReport("mean", rows, summary)


def theorem3_report(
    spec: MultiplicativeSpec, table: SieveTable, grid, alpha: float, envelope: float
) -> VerificationReport:
    """The mean-value bound along the grid; a row passes when
    residual / mu_n(alpha) is finite and at most envelope."""
    rows = _theorem3_rows(spec, table, grid, alpha, envelope)
    summary = {
        "pass": all(r.passed for r in rows),
        "ratio_estimate": _ratio_estimate(rows),
        "thresholds": {"ratio_envelope": envelope, "alpha": alpha},
    }
    return VerificationReport("verify-theorem3", rows, summary)


def cond1_ratio(spec: MultiplicativeSpec, table: SieveTable, n: int) -> float:
    """(1/log n) * sum over p <= n of |f(p) - 1| log(p)/p."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if n > table.limit:
        raise ValueError(f"n = {n} exceeds sieve limit {table.limit}")
    return _prime_deviation_sum(spec, table, n, 1.0) / math.log(n)


def cond2_ratio(spec: MultiplicativeSpec, table: SieveTable, n: int) -> float:
    """(1/(n log n)) * sum over m <= n of |theta_f(n/m) - n/m|,

    where theta_f(y) = sum over primes p <= y of f(p) log p. The inner
    prime sums come from one complex prefix array over the primes.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if n > table.limit:
        raise ValueError(f"n = {n} exceeds sieve limit {table.limit}")
    theta = np.zeros(n + 1, dtype=np.complex128)
    primes = table.primes[table.primes <= n]
    theta[primes] = np.log(primes.astype(np.float64))
    at, values = spec.nontrivial(table, n)
    theta[at] *= values
    theta_prefix = np.cumsum(theta)
    m = np.arange(1, n + 1)
    inner = np.abs(theta_prefix[n // m] - n / m.astype(np.float64))
    return rsum(inner) / (n * math.log(n))


def _wintner(a: CoefficientSequence, grid) -> list[WintnerResult]:
    """:func:`check_wintner` along a strictly ascending grid: A(n) from
    one :func:`batch_sums` call, and the sums of |a_k|/k and a_k/k at
    every n from streamed passes over chunks of their terms
    (:func:`accumulate.prefix_csums`), the bits of ``csum(terms, grid)``
    without an N-length array of terms."""
    sums = batch_sums(a, grid)
    top = sums[-1].n
    real = not np.iscomplexobj(a.a)

    def terms(absolute: bool):
        for lo in range(1, top + 1, _CHUNK_TERMS):
            vals = a.a[lo : min(lo + _CHUNK_TERMS, top + 1)]
            k = np.arange(lo, lo + vals.size, dtype=np.float64)
            if absolute:
                yield np.divide(np.abs(vals), k, out=k)
            elif real:
                # numpy divides a complex by k as by k + 0j, which rounds
                # the real part as a_k * (1/k); real storage forms the same.
                yield np.multiply(vals, np.divide(1.0, k, out=k), out=k)
            else:
                yield vals / k

    def streamed(absolute: bool) -> list[complex]:
        return prefix_csums(terms(absolute), grid, lambda: np.concatenate(list(terms(absolute))))

    return [
        WintnerResult(s.real, t, v.A / v.n, abs(v.A / v.n - t))
        for v, s, t in zip(sums, streamed(True), streamed(False))
    ]


def check_wintner(a: CoefficientSequence, n: int) -> WintnerResult:
    """Absolute-convergence data for the mean-value limit at scale n."""
    return _wintner(a, [n])[0]


def check_axer(a: CoefficientSequence, grid) -> np.ndarray:
    """Ratios sum_{k<=n} |a_k| / n along the grid (boundedness check).

    The sums are a running sum of |a_k| over chunks, read at the grid
    points (:func:`summation._cumsums_at`): the bits of
    ``np.cumsum(np.abs(a.a))[grid]`` without an N-length array."""
    grid = np.asarray([int(n) for n in grid])
    if grid.size == 0:
        raise ValueError("empty grid")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly ascending")
    if grid[0] < 1 or grid[-1] > a.length:
        raise ValueError(f"grid outside [1, {a.length}]")
    (prefix_abs,) = _cumsums_at(grid, lambda lo, hi: [np.abs(a.a[lo:hi])])
    return prefix_abs / grid


def wintner_report(a: CoefficientSequence, grid) -> VerificationReport:
    """:func:`check_wintner` along the grid (no pass criterion)."""
    rows = [
        ReportRow(n=n, mean=res.mean, g=res.target, residual_t1=res.residual)
        for n, res in zip(grid, _wintner(a, grid))
    ]
    summary = {"max_residual": max(r.residual_t1 for r in rows)}
    return VerificationReport("verify-wintner", rows, summary)


def axer_report(a: CoefficientSequence, grid, bound: float) -> VerificationReport:
    """:func:`check_axer` along the grid; a row passes when its ratio,
    reported as s_ratio, is at most bound."""
    ratios = check_axer(a, grid)
    rows = [
        ReportRow(n=n, s_ratio=float(r), passed=float(r) <= bound)
        for n, r in zip(grid, ratios)
    ]
    summary = {
        "pass": all(r.passed for r in rows),
        "max_residual": float(np.max(ratios)),
        "thresholds": {"bound": bound},
    }
    return VerificationReport("verify-axer", rows, summary)


# -- exact identity suites ---------------------------------------------


def s_difference_identity(a: CoefficientSequence, table: SieveTable, M: int) -> float:
    """max over 2 <= m <= M of |S(m) - S(m-1) - sum_{k|m} a_k log k|.

    S comes from one block-decomposed query per m, the divisor sums
    from a lattice pass; the two routes share no summation structure.
    Both read one array of the terms a_m log m: the lattice pass first,
    in float64 for a real sequence, and then the array holds their
    prefix sums. OverflowError when a sum leaves the float range.
    """
    if not 2 <= M <= min(a.length, table.limit):
        raise ValueError(f"M = {M} outside [2, {min(a.length, table.limit)}]")
    # A non-finite sum stays non-finite, so one check after the loop
    # sees every overflow, including a nan error that ``>`` skips.
    with np.errstate(over="ignore", invalid="ignore"):
        terms = times_log(a.a[: M + 1], log_index(M))
        divisor_sums = sum_over_divisors(terms, dtype=terms.dtype)
        prefix = np.cumsum(terms, out=terms)
        worst = 0.0
        prev = _block_sum(prefix, 1)
        for m in range(2, M + 1):
            cur = _block_sum(prefix, m)
            # numpy's complex abs, as for complex divisor sums: a modulus
            # beyond the float range is inf, which the check below sees.
            err = abs(np.complex128(cur - prev) - divisor_sums[m])
            if err > worst:
                worst = err
            prev = cur
    if not (math.isfinite(worst) and np.isfinite(prefix[M]) and np.isfinite(divisor_sums).all()):
        raise OverflowError(f"S difference identity up to {M}: a sum overflows the float range")
    return worst


def s_decomposition_identity(a: CoefficientSequence, table: SieveTable, n: int) -> float:
    """|S(n) - [A(n) log n - sum_{k<n} A(k) log(1+1/k) - sum Lambda(k) A(n/k)]|.

    The A(k) sweep goes through batch_sums; Lambda comes from the sieve.
    Summation by parts of sum (A(k)-A(k-1)) log k leaves the middle sum
    running over k <= n-1 only (k = n telescopes into the leading term).
    OverflowError when a sum leaves the float range.
    """
    if not 2 <= n <= min(a.length, table.limit):
        raise ValueError(f"n = {n} outside [2, {min(a.length, table.limit)}]")
    sums = batch_sums(a, range(1, n + 1))
    lhs = sums[-1].S
    A = np.zeros(n + 1, dtype=np.complex128)
    A[1:] = [v.A for v in sums]
    k = np.arange(1, n, dtype=np.float64)
    lam = table.mangoldt_array
    pp = np.nonzero(lam[: n + 1])[0]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        middle = csum(A[1:n] * np.log1p(1.0 / k))
        prime_part = csum(lam[pp] * A[n // pp])
        error = abs(lhs - (A[n] * math.log(n) - middle - prime_part))
    if not math.isfinite(error):
        raise OverflowError(f"S decomposition identity at {n}: a sum overflows the float range")
    return error


def s_multiplicative_identity(
    spec: MultiplicativeSpec, table: SieveTable, m: int
) -> float:
    """|S(m) - sum_{k<=m} (f(k)-1) Lambda(k) * sum_{l<=m/k} f(l)|.

    Left side through the summation module on the inverted coefficients,
    right side as a direct double sum over prime powers. The prefix sums
    of f are read only at the m // k, so they are gathered there
    (:func:`summation._cumsums_at`, ``np.cumsum(f)`` bit for bit) and no
    m-length prefix array is held.
    """
    if not 2 <= m <= table.limit:
        raise ValueError(f"m = {m} outside [2, {table.limit}]")
    f = extend_completely_multiplicative(spec, table, m)
    lhs = ingham_S(a_from_f(table, f), m)
    lam = table.mangoldt_array
    pp = np.nonzero(lam[: m + 1])[0]
    q = m // pp  # descending, as pp ascends
    ends = _distinct(q[::-1])
    (f_prefix,) = _cumsums_at(ends, lambda lo, hi: [f[lo:hi]])
    rhs = csum((f[pp] - 1.0) * lam[pp] * f_prefix[np.searchsorted(ends, q)])
    return abs(lhs - rhs)


# -- the exact difference identity -------------------------------------


def _real_parts(w: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """w[at] as a float64 real part and an imaginary part, each gathered
    into its own contiguous array, without a complex copy. The imaginary
    part is None when no entry of w has a nonzero one, so a real
    sequence gives the same parts whatever its storage."""
    if not np.iscomplexobj(w):
        return w[at].astype(np.float64, copy=False), None
    return w.real[at], (w.imag[at] if w.imag.any() else None)


def _modulus(re: np.ndarray, im: np.ndarray | None) -> np.ndarray:
    """|re + i im| entrywise, im = None meaning zero."""
    return np.abs(re) if im is None else np.hypot(re, im)


def _power_sum(
    re: np.ndarray,
    im: np.ndarray | None,
    log_k: np.ndarray,
    u: float,
    starts: np.ndarray | None = None,
    z: np.ndarray | None = None,
) -> complex:
    """sum_k w_k k^-u, w_k = re_k + i im_k and log_k = log k; with segment
    starts and one factor z_s per segment, sum_s z_s sum_{k in s} w_k k^-u.

    One exponential, real products and numpy pairwise sums, each part
    apart: no BLAS call, so the order of every addition is fixed and the
    value does not depend on the thread count."""
    e = np.multiply(log_k, -u)
    np.exp(e, out=e)

    def reduce(terms: np.ndarray) -> float:
        if starts is not None:
            terms = np.add.reduceat(terms, starts)
            terms *= z
        return float(np.add.reduce(terms))

    imag = 0.0 if im is None else reduce(im * e)
    # The real products overwrite e: a second array of len(log_k) per
    # call, once freed, is given back to the system and faulted in again
    # at the next quadrature node.
    return complex(reduce(np.multiply(re, e, out=e)), imag)


class _SeriesHead:
    """The k <= K part of the beta series after summation by parts: the
    integrand sum_k D(k) k^-u / zeta(u) over the given k, all with
    D(k) != 0, and its bound sum_k |D(k)| k^-sigma."""

    def __init__(self, d_values: np.ndarray, ks: np.ndarray):
        self.log_ks = np.log(ks.astype(np.float64))
        self.d_re, self.d_im = _real_parts(d_values, ks)

    def integrand(self, u: float) -> complex:
        return _power_sum(self.d_re, self.d_im, self.log_ks, u) / zeta_real(u)

    def bound(self, sigma: float) -> float:
        return _power_sum(_modulus(self.d_re, self.d_im), None, self.log_ks, sigma).real


class _SeriesTail:
    """The k > K remainder of the S(k)-weighted beta series, computed
    exactly by reorganizing over divisors.

    With the stored coefficients zero-extended, S(k) for k > K equals
    the sum of a_j log(j) floor(k/j) over j <= K, and summation by parts
    in k turns the remainder into

        integral over (sigma, inf) of G(u)/zeta(u) du,
        G(u) = S(K+1) (K+1)^-u
             + sum_j a_j log(j) j^-u Z(u, ceil((K+2)/j)),

    where Z(u, M) is the zeta tail from M. The quotients ceil((K+2)/j)
    take O(sqrt K) distinct values, so G costs one exponential sweep
    plus a segmented reduction per quadrature node (:func:`_power_sum`).

    The weights a_j log j are formed only at the nonzero a_j with
    2 <= j <= K, which are exactly the nonzero weights: |log j| > 1/2
    there, so the product of a nonzero a_j (a subnormal one included)
    never rounds to zero. The set-up holds no more than the arrays it
    keeps and the nonzero places j: log j, the weights and the quotients
    are formed in place, and the segment cuts come from a bool compare
    of neighbouring quotients.
    """

    _SMALL = 64

    def __init__(self, a: CoefficientSequence, K: int, s_k: complex):
        js = np.flatnonzero(a.a[2 : K + 1])
        js += 2
        self.K = K
        self.log_js = js.astype(np.float64)
        np.log(self.log_js, out=self.log_js)
        # Real and imaginary parts apart, the latter only for a complex
        # sequence: a real one costs one real pass per node. Both are
        # fresh gathers, so the weights are formed in them.
        self.w_re, self.w_im = _real_parts(a.a, js)
        self.w_re *= self.log_js
        if self.w_im is not None:
            self.w_im *= self.log_js
        # The quotients ceil((K+2)/j) overwrite js, which is not read
        # again; js ascending makes them nonincreasing.
        m_ceil = np.floor_divide(-(K + 2), js, out=js)
        np.negative(m_ceil, out=m_ceil)
        cuts = np.flatnonzero(m_ceil[1:] != m_ceil[:-1])
        cuts += 1
        self.starts = np.concatenate(([0], cuts))
        self.seg_m = m_ceil[self.starts].astype(np.float64)
        self.small_m = np.arange(2, self._SMALL, dtype=np.float64)
        # Boundary value S(K+1) of the zero-extended sequence.
        self.s_edge = s_k + csum(
            np.array([a.a[d] * math.log(d) for d in _divisors_trial(K + 1) if 2 <= d <= K])
        )
        self.edge = float(K + 1)

    def _zeta_tails(self, u: float) -> np.ndarray:
        """Z(u, M) for every segment quotient M, hybrid direct/EM."""
        z = _em_tail(u, np.maximum(self.seg_m, float(self._SMALL)))
        small_terms = self.small_m**-u
        suffix = np.concatenate((np.cumsum(small_terms[::-1])[::-1], [0.0]))
        need = self.seg_m < self._SMALL
        z[need] += suffix[(self.seg_m[need] - 2).astype(np.intp)]
        return z

    def integrand(self, u: float) -> complex:
        total = _power_sum(self.w_re, self.w_im, self.log_js, u, self.starts, self._zeta_tails(u))
        total += self.s_edge * self.edge**-u
        return total / zeta_real(u)

    def bound(self, sigma: float) -> float:
        w = _modulus(self.w_re, self.w_im)
        total = _power_sum(w, None, self.log_js, sigma, self.starts, self._zeta_tails(sigma)).real
        return total + abs(self.s_edge) * self.edge**-sigma


def _divisors_trial(m: int) -> list[int]:
    """Divisors by trial division; used only for the single boundary
    index K + 1, which may sit just beyond the sieve limit."""
    small = []
    large = []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d * d != m:
                large.append(m // d)
        d += 1
    return small + large[::-1]


def _difference_integral(
    prime_lists: list[list[int]], n: int, k: int, quad_tol: float, tail_tol: float
) -> QuadResult:
    """The integral over t > 0 of F_t(x1) k^-t - F_t(x2) (k+1)^-t by
    quadrature, with x1 = n // k, x2 = n // (k + 1) and F_t(x) the sum
    of f_t(m) over m <= x, from the distinct primes prime_lists[m] of
    every m <= n. Its exact value is the sum of mu(d) (floor(x1/d) /
    log(dk) - floor(x2/d) / log(d(k+1))) over d <= x1, which the tests
    use as an oracle."""
    x1 = n // k
    x2 = n // (k + 1)

    def F_small(x: int, t: float) -> float:
        total = 1.0
        for m in range(2, x + 1):
            prod = 1.0
            for p in prime_lists[m]:
                prod *= 1.0 - float(p) ** -t
            total += prod
        return total

    def integrand(t: float) -> float:
        w1 = float(k) ** -t
        w2 = float(k + 1) ** -t
        return F_small(x1, t) * w1 - F_small(x2, t) * w2

    return integral_zero_to_inf(
        integrand, rate=float(k), bound=2.0 * x1, quad_tol=quad_tol, tail_tol=tail_tol
    )


def difference_identity_check(
    a: CoefficientSequence,
    table: SieveTable,
    n: int,
    truncation: int,
    quad_tol: float = QUAD_TOL,
    tail_tol: float = TAIL_TOL,
) -> DifferenceIdentityResult:
    """Check the exact identity tying A(n), g(1+1/log n) and S-weighted
    integrals of the f_t family, at quadrature accuracy.

    The stored coefficients are treated as the whole sequence (zero
    beyond the stored length), which makes the Dirichlet value g exact
    and the identity exact; the only approximation left is quadrature.
    The weighted series is evaluated in three quadratures: the k <= K
    part after summation by parts, the exact k > K remainder
    (:class:`_SeriesTail`), and the boundary term. tail_correction
    reports the remainder's value; tail_slack reports the conventional
    a-priori envelope 2 n |S(K)/K| ztail(sigma, K+1) / (log n log K)
    for the region it replaces.

    Cost guard: 2 <= n <= 50, so sigma = 1 + 1/log n stays >= 1.25 and
    the series converges at a practical rate. The sums stop at K =
    truncation (n <= K <= a.length); quad_tol and tail_tol lie in (0, 1).

    The differences D(k) = S(k) - S(k-1), the divisor sums of a_j log j,
    come from one lattice pass up to K, and S(k) is gathered from them
    in chunks (:func:`summation._cumsums_at`) only at the k it reads,
    2..n and K, bit for bit ``np.cumsum`` of D; D is dropped before the
    series tail is set up. For a real sequence, a_j log j is formed in
    log j's array and D is float64: the real parts of the complex128 D
    bit for bit, whose imaginary parts are all +0.0.

    The integrands and their bounds (:class:`_SeriesHead`,
    :class:`_SeriesTail`) hold D(k) and a_j log j as real parts, plus
    imaginary parts for a complex sequence only, and reduce them with
    :func:`_power_sum`: no BLAS call, so the result does not depend on
    the thread count.
    """
    for name, tol in (("quad_tol", quad_tol), ("tail_tol", tail_tol)):
        if not 0 < tol < 1:
            raise ValueError(f"{name} must lie in (0, 1), got {tol}")
    if not 2 <= n <= 50:
        raise ValueError(f"n = {n} outside the supported range [2, 50]")
    K = truncation
    if K > a.length:
        raise ValueError(f"truncation {K} exceeds stored length {a.length}")
    if K < n:
        raise ValueError(f"truncation {K} must cover n = {n}")
    if n > table.limit:
        raise ValueError(f"n = {n} exceeds sieve limit {table.limit}")

    sigma = _sigma_of(n)
    logn = math.log(n)

    with np.errstate(over="ignore", invalid="ignore"):  # terms beyond the float range are inf
        terms = times_log(a.a[: K + 1], log_index(K))
        d_values = sum_over_divisors(terms, dtype=terms.dtype)
    del terms
    at = np.array(sorted({*range(2, n + 1), K}), dtype=np.int64)
    (s_at,) = _cumsums_at(at, lambda lo, hi: [d_values[lo:hi]])
    s_values = dict(zip(at.tolist(), s_at))

    # Left side: the Dirichlet value is exact for the stored sequence.
    A_n = ingham_A(a, n)
    g = g_eval(a, sigma, K)
    S_n = complex(s_values[n])
    lhs = A_n - n * g - S_n / logn

    quad_error = 0.0

    # First sum: S(k)-weighted differences of F_t integrals, k < n.
    primes = table.primes[: np.searchsorted(table.primes, n, "right")].tolist()  # n <= 50
    prime_lists = [[]] * 2 + [[p for p in primes if m % p == 0] for m in range(2, n + 1)]
    t1_terms = []
    for k in range(2, n):
        res = _difference_integral(prime_lists, n, k, quad_tol, tail_tol)
        t1_terms.append(complex(s_values[k]) * res.value)
        quad_error += abs(s_values[k]) * res.error
    t1 = csum(np.array(t1_terms)) if t1_terms else 0j

    # Weighted series, Abel-swapped: sum_{k=2..K} S(k) (beta_k - beta_{k+1})
    # equals sum_{k=2..K} D(k) beta_k - S(K) beta_{K+1}, with
    # beta_k = integral over (sigma, inf) of k^-u / zeta(u); the k > K
    # remainder is added exactly through its divisor reorganization.
    ks = np.flatnonzero(d_values[2:])
    ks += 2
    t2 = 0j
    tail_correction = 0j
    tail_slack = 0.0
    if ks.size:
        head = _SeriesHead(d_values, ks)
        d_values = None
        res_h = integral_sigma_to_inf(
            head.integrand,
            sigma,
            rate=float(ks[0]),
            bound=head.bound(sigma),
            quad_tol=quad_tol,
            tail_tol=tail_tol,
        )
        beta_edge = integral_sigma_to_inf(
            lambda u: float(K + 1) ** -u / zeta_real(u),
            sigma,
            rate=float(K + 1),
            bound=float(K + 1) ** -sigma,
            quad_tol=quad_tol,
            tail_tol=tail_tol,
        )
        s_k = complex(s_values[K])
        t2 = n * (res_h.value - s_k * beta_edge.value)
        quad_error += n * (res_h.error + abs(s_k) * beta_edge.error)
        del head, ks  # the head's arrays go before the tail's are formed

        series_tail = _SeriesTail(a, K, s_k)
        tail_res = integral_sigma_to_inf(
            series_tail.integrand,
            sigma,
            rate=float(K + 1),
            bound=series_tail.bound(sigma),
            quad_tol=quad_tol,
            tail_tol=tail_tol,
        )
        tail_correction = n * tail_res.value
        quad_error += n * tail_res.error
        tail_slack = (
            2.0 * n * abs(s_k / K) * zeta_tail(sigma, K + 1) / (logn * math.log(K))
        )

    rhs = t1 - t2 - tail_correction
    return DifferenceIdentityResult(
        lhs=lhs,
        rhs=rhs,
        error=abs(lhs - rhs),
        tail_correction=tail_correction,
        tail_slack=tail_slack,
        quad_error=quad_error,
    )


# -- f_t estimate families (empirical ratio suite) ----------------------


def _comparison_lhs(table: SieveTable, k: int, x: int) -> float:
    """The integral over t > 0 of F_t(x) (k^-t - (k+1)^-t), the left side
    of the lemma's integrated comparison, in closed form: F_t(x) is the
    sum of mu(d) d^-t floor(x/d) over d <= x, and d^-t (k^-t - (k+1)^-t)
    integrates to 1/log(dk) - 1/log(d(k+1)), so the integral is the
    exactly rounded sum of mu(d) floor(x/d) times that over the
    squarefree d <= x."""
    mu, d, q = table.mobius_quotients(x)
    return rsum(mu * q * (1.0 / np.log(d * k) - 1.0 / np.log(d * (k + 1))))


def lemma_ratio_suite(
    table: SieveTable,
    envelope: float = LEMMA_ENVELOPE,
    quad_tol: float = QUAD_TOL,
    tail_tol: float = TAIL_TOL,
    t_grid=LEMMA_T_GRID,
    x_grid=LEMMA_X_GRID,
    k_grid=LEMMA_K_GRID,
    vx_grid=LEMMA_VX_GRID,
) -> list[dict]:
    """Empirical boundedness ratios for the five f_t estimate families.

    Families (per (t, x)): (i) sum f_t(m)/m against 1 + t log x;
    (ii) F_t(x) - x/zeta(1+t) against x^(1-t) + sum d^-t; (iii) the
    mu-weighted log identity, absolute; (iv) the doubling increment
    F_t(x) - F_t(x/2) against x(1/log x + t); and (v), per (k, x), the
    integrated F_t comparison against x/(k log^2(xk)): the integral of
    F_t(x) (k^-t - (k+1)^-t) over t > 0, an exact finite sum
    (:func:`_comparison_lhs`), less x times that of (k^-t - (k+1)^-t) /
    zeta(1+t), a quadrature at quad_tol and tail_tol.

    Returns one row per grid cell: family, t, x, k, value, bound, ratio,
    pass (ratio <= envelope).

    Every grid is checked before any table is built: t > 0, k >= 2,
    2 <= x and 1 <= vx, and x and vx at most the sieve limit. Per t, the
    five prefix sums that families (i)-(iv) read (of f_t(d)/d, d^-t,
    mu(d) d^(-1-t), mu(d) d^(-1-t) log d, and F_t itself) are gathered
    at the sorted distinct x and x // 2 from one chunked pass
    (:func:`summation._cumsums_at`), bit for bit their whole cumulative
    sums. So the f_t values of the current t
    (:func:`dirichlet._f_t_values`, 8 bytes per integer) are the one
    array of length max(x_grid) held: the prefix array of
    :func:`dirichlet.f_t_table`, as long again, is never built.
    """
    for t in t_grid:
        if not t > 0:
            raise ValueError(f"t_grid value {t} must be positive")
    for k in k_grid:
        if not k >= 2:
            raise ValueError(f"k_grid value {k} must be at least 2")
    for name, grid, low in (("x_grid", x_grid, 2), ("vx_grid", vx_grid, 1)):
        for x in grid:
            if not low <= x <= table.limit:
                raise ValueError(f"{name} value {x} outside [{low}, sieve limit {table.limit}]")
    x_max = max(x_grid)
    xs = np.asarray(x_grid, dtype=np.int64)
    # F_t is read at each x and at x // 2 (family (iv)).
    ends = _distinct(np.sort(np.concatenate((xs, xs // 2))))
    mu = table.mobius_array
    rows: list[dict] = []

    def add(family, t, x, k, value, bound):
        ratio = value / bound
        rows.append(
            {
                "family": family,
                "t": t,
                "x": x,
                "k": k,
                "value": value,
                "bound": bound,
                "ratio": ratio,
                "pass": ratio <= envelope,
            }
        )

    for t in t_grid:
        ft = _f_t_values(table, t, x_max)
        inv_zeta = 1.0 / zeta_real(1.0 + t)

        def terms(lo, hi):
            d = np.arange(lo, hi, dtype=np.float64)
            if not lo:
                d[0] = 1.0
            mu_d1t = mu[lo:hi] * d ** (-1.0 - t)
            return ft[lo:hi] / d, d**-t, mu_d1t, mu_d1t * np.log(d), ft[lo:hi]

        sums = _cumsums_at(ends, terms)
        for x in x_grid:
            at = np.searchsorted(ends, x)
            q_x, dt_x, p1_x, p2_x, f_x = (float(s[at]) for s in sums)
            logx = math.log(x)
            add("sum_ft_over_m", t, x, None, q_x, 1.0 + t * logx)
            add(
                "partial_sums",
                t,
                x,
                None,
                abs(f_x - x * inv_zeta),
                x ** (1.0 - t) + dt_x,
            )
            mu_log_sum = logx * p1_x - p2_x
            add("mu_log_identity", t, x, None, abs(q_x - mu_log_sum), 1.0)
            add(
                "doubling_increment",
                t,
                x,
                None,
                f_x - float(sums[4][np.searchsorted(ends, x // 2)]),
                x * (1.0 / logx + t),
            )
        del ft  # this t's values go before the next ones are built

    for k in k_grid:

        def rhs_integrand(t: float, k=k) -> float:
            w = float(k) ** -t - float(k + 1) ** -t
            if w == 0.0 or t <= 0.0:
                return 0.0
            return w / zeta_real(1.0 + t)

        i2 = integral_zero_to_inf(
            rhs_integrand, rate=float(k), bound=1.0, quad_tol=quad_tol, tail_tol=tail_tol
        )
        for x in vx_grid:
            value = abs(_comparison_lhs(table, k, x) - x * i2.value)
            bound = x / (k * math.log(x * k) ** 2)
            add("integrated_comparison", None, x, k, value, bound)

    return rows
