"""Adaptive quadrature for improper integrals with geometric decay.

The integrands in this package all decay like rate^-t with rate >= 2.
An integral over (0, inf) is cut at the point T where the analytic
envelope bound * rate^-T / log(rate) drops below the tail tolerance,
mapped onto a finite interval by the substitution u = exp(-t) (or its
rate-matched variant for half-line integrals starting at sigma), and
finished with adaptive Simpson's rule with Richardson extrapolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import QuadratureError

_MIN_CUT = 1.0
# Default Simpson and tail-cut tolerances of the quadratures in verify.
QUAD_TOL = 1e-8
TAIL_TOL = 1e-10


@dataclass(frozen=True)
class QuadResult:
    value: complex
    error: float
    evals: int
    depth_hits: int = 0


class _Simpson:
    """One run of :func:`adaptive_simpson`: the integrand, the depth
    cap and the counts. The recursion is a method, so no function refers
    to itself. A nested function that called itself would sit in a
    reference cycle through its own closure cell, and hold the integrand,
    and every array the integrand owns, until the cyclic collector ran."""

    __slots__ = ("f", "max_depth", "evals", "depth_hits")

    def __init__(self, f: Callable[[float], complex], max_depth: int):
        self.f = f
        self.max_depth = max_depth
        self.evals = 0
        self.depth_hits = 0

    def at(self, x: float) -> complex:
        self.evals += 1
        return complex(self.f(x))

    def refine(
        self,
        lo: float,
        hi: float,
        flo: complex,
        fmid: complex,
        fhi: complex,
        whole: complex,
        depth: int,
        budget: float,
    ) -> tuple[complex, float]:
        mid = 0.5 * (lo + hi)
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        flm = self.at(lm)
        frm = self.at(rm)
        left = _simpson(flo, flm, fmid, mid - lo)
        right = _simpson(fmid, frm, fhi, hi - mid)
        delta = (left + right - whole) / 15.0
        if abs(delta) <= budget:
            return left + right + delta, abs(delta)
        if depth >= self.max_depth:
            self.depth_hits += 1
            return left + right + delta, abs(delta)
        lval, lerr = self.refine(lo, mid, flo, flm, fmid, left, depth + 1, budget / 2)
        rval, rerr = self.refine(mid, hi, fmid, frm, fhi, right, depth + 1, budget / 2)
        return lval + rval, lerr + rerr


def _simpson(fa: complex, fm: complex, fb: complex, h: float) -> complex:
    return h / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(
    f: Callable[[float], complex],
    a: float,
    b: float,
    tol: float,
    max_depth: int = 64,
) -> QuadResult:
    """Adaptive Simpson integration of f over [a, b].

    Values may be complex; the refinement criterion uses the modulus of
    the Richardson error estimate. Subintervals that reach max_depth stop
    refining, contribute their local estimate to the reported error, and
    are counted in depth_hits so callers can distinguish benign endpoint
    refinement from genuine non-convergence. No reference to f outlives
    the call (:class:`_Simpson`), whether it returns or raises.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"quadrature tolerance must be finite and positive, got {tol}")
    if a == b:
        return QuadResult(0j, 0.0, 0)
    run = _Simpson(f, max_depth)
    fa_v = run.at(a)
    fb_v = run.at(b)
    mid = 0.5 * (a + b)
    fm_v = run.at(mid)
    whole = _simpson(fa_v, fm_v, fb_v, b - a)
    value, err = run.refine(a, b, fa_v, fm_v, fb_v, whole, 0, tol)
    return QuadResult(value, err, run.evals, run.depth_hits)


def _check_converged(res: QuadResult, quad_tol: float) -> None:
    if res.depth_hits and res.error > 1e3 * quad_tol:
        raise QuadratureError(
            f"quadrature stalled at max depth with error estimate "
            f"{res.error:.3e} (tolerance {quad_tol:.3e})"
        )


def _cut_point(bound: float, rate: float, tail_tol: float) -> float:
    """Smallest T with bound * rate^-T / log(rate) <= tail_tol."""
    if not 0 < tail_tol < math.inf:
        raise ValueError(f"tail tolerance must be finite and positive, got {tail_tol}")
    if rate <= 1:
        raise ValueError(f"decay rate must exceed 1, got {rate}")
    if bound <= 0:
        return _MIN_CUT
    lr = math.log(rate)
    return max(_MIN_CUT, math.log(bound / (tail_tol * lr)) / lr)


def _scaled_tol(quad_tol: float, bound: float, lr: float) -> float:
    """Tolerance scaled to the integral's natural magnitude bound/log(rate).

    Integrals far below 1 in absolute size would otherwise satisfy an
    absolute tolerance at the very first Simpson estimate; scaling makes
    quad_tol act relatively for small integrals while staying an
    absolute cap for large ones.
    """
    scale = bound / lr
    if scale <= 0:
        return quad_tol
    return quad_tol * min(1.0, scale)


def integral_zero_to_inf(
    f: Callable[[float], complex],
    rate: float,
    bound: float,
    quad_tol: float,
    tail_tol: float,
    max_depth: int = 64,
) -> QuadResult:
    """Integral of f over (0, inf) for |f(t)| <= bound * rate^-t.

    This is :func:`integral_sigma_to_inf` at sigma = 0: the substitution
    u = rate^-t matches the decay scale, so the transformed integrand
    stays bounded by bound/log(rate) on (0, 1].
    """
    return integral_sigma_to_inf(f, 0.0, rate, bound, quad_tol, tail_tol, max_depth)


def integral_sigma_to_inf(
    f: Callable[[float], complex],
    sigma: float,
    rate: float,
    bound: float,
    quad_tol: float,
    tail_tol: float,
    max_depth: int = 64,
) -> QuadResult:
    """Integral of f over (sigma, inf) for |f(sigma+s)| <= bound * rate^-s.

    Substitutes v = rate^-(u - sigma), which keeps the transformed
    integrand bounded all the way to the endpoint because the
    substitution matches the decay rate exactly.
    """
    T = _cut_point(bound, rate, tail_tol)
    lr = math.log(rate)

    def g(v: float) -> complex:
        return f(sigma - math.log(v) / lr) / (v * lr)

    tol = _scaled_tol(quad_tol, bound, lr)
    res = adaptive_simpson(g, rate**-T, 1.0, tol, max_depth)
    _check_converged(res, tol)
    tail = bound * rate**-T / lr if bound > 0 else 0.0
    return QuadResult(res.value, res.error + tail, res.evals, res.depth_hits)
