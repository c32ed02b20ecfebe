import gc
import math
import weakref

import pytest
from scipy.integrate import quad

from inghamsum import QuadratureError, adaptive_simpson, integral_sigma_to_inf, integral_zero_to_inf
from inghamsum.dirichlet import zeta_real


def test_simpson_exact_on_cubic():
    res = adaptive_simpson(lambda x: x**3 - 2 * x, 0.0, 2.0, 1e-12)
    assert res.value.real == pytest.approx(4.0 - 4.0, abs=1e-14)


def test_simpson_smooth():
    res = adaptive_simpson(math.exp, 0.0, 1.0, 1e-12)
    assert res.value.real == pytest.approx(math.e - 1.0, abs=1e-12)
    assert res.error <= 1e-10


def test_simpson_complex_values():
    res = adaptive_simpson(lambda x: complex(math.cos(x), math.sin(x)), 0.0, math.pi, 1e-12)
    assert res.value == pytest.approx(complex(0.0, 2.0), abs=1e-10)


def test_simpson_rejects_bad_tolerance():
    for tol in (0.0, -1e-8, math.nan, math.inf):
        with pytest.raises(ValueError, match="quadrature tolerance"):
            adaptive_simpson(math.exp, 0.0, 1.0, tol)


@pytest.mark.parametrize("tail_tol", [0.0, -1e-10, math.nan, math.inf])
@pytest.mark.parametrize("bound", [1.0, 0.0])
def test_integrals_reject_bad_tail_tolerance(tail_tol, bound):
    with pytest.raises(ValueError, match="tail tolerance"):
        integral_zero_to_inf(lambda t: 2.0**-t, rate=2.0, bound=bound, quad_tol=1e-8, tail_tol=tail_tol)
    with pytest.raises(ValueError, match="tail tolerance"):
        integral_sigma_to_inf(lambda u: 2.0**-u, 1.5, rate=2.0, bound=bound, quad_tol=1e-8, tail_tol=tail_tol)


@pytest.mark.parametrize("k", [2, 10, 100])
def test_decaying_integral_closed_form(k):
    res = integral_zero_to_inf(
        lambda t: float(k) ** -t - float(k + 1) ** -t,
        rate=float(k),
        bound=1.0,
        quad_tol=1e-10,
        tail_tol=1e-12,
    )
    exact = 1.0 / math.log(k) - 1.0 / math.log(k + 1)
    assert res.value.real == pytest.approx(exact, abs=1e-9)


def test_decaying_integral_exponential():
    res = integral_zero_to_inf(
        lambda t: math.exp(-3.0 * t), rate=math.e**3, bound=1.0, quad_tol=1e-10, tail_tol=1e-13
    )
    assert res.value.real == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_decaying_integral_matches_scipy():
    f = lambda t: (2.0**-t - 3.0**-t) / (1.0 + t * t)
    res = integral_zero_to_inf(f, rate=2.0, bound=1.0, quad_tol=1e-10, tail_tol=1e-12)
    oracle, _ = quad(f, 0, 60, limit=300)
    assert res.value.real == pytest.approx(oracle, abs=1e-9)


@pytest.mark.parametrize("k,sigma", [(2, 1.3), (11, 1.25), (1_000_001, 1.43)])
def test_halfline_integral_closed_form(k, sigma):
    res = integral_sigma_to_inf(
        lambda u: float(k) ** -u,
        sigma,
        rate=float(k),
        bound=float(k) ** -sigma,
        quad_tol=1e-10,
        tail_tol=1e-14,
    )
    exact = float(k) ** -sigma / math.log(k)
    # The reported error covers both Simpson refinement and the cut tail.
    assert abs(res.value.real - exact) <= 1.01 * res.error + 1e-12 * exact


def test_halfline_small_integral_stays_relatively_accurate():
    # The integral is ~1e-10; an absolute-only tolerance would accept the
    # first Simpson estimate and miss by several percent.
    k = 10**6 + 1
    sigma = 1.334
    res = integral_sigma_to_inf(
        lambda u: float(k) ** -u / zeta_real(u),
        sigma,
        rate=float(k),
        bound=float(k) ** -sigma,
        quad_tol=1e-8,
        tail_tol=1e-10,
    )
    oracle, _ = quad(lambda u: float(k) ** -u / zeta_real(u), sigma, 8, epsabs=1e-18, epsrel=1e-12)
    assert res.value.real == pytest.approx(oracle, rel=1e-6)


def test_max_depth_exhaustion_raises():
    with pytest.raises(QuadratureError):
        integral_zero_to_inf(
            lambda t: 2.0**-t / (1.0 + 40.0 * math.sin(8.0 * t) ** 2),
            rate=2.0,
            bound=1.0,
            quad_tol=1e-13,
            tail_tol=1e-13,
            max_depth=2,
        )


def test_rate_must_exceed_one():
    with pytest.raises(ValueError):
        integral_zero_to_inf(lambda t: 0.0, rate=1.0, bound=1.0, quad_tol=1e-8, tail_tol=1e-8)


def _adaptive_simpson_ref(f, a, b, tol, max_depth=64):
    """adaptive_simpson with its recursion a nested function that calls
    itself, as it was written before the recursion became a method."""
    evals = 0
    depth_hits = 0

    def eval_f(x):
        nonlocal evals
        evals += 1
        return complex(f(x))

    def simpson(fa, fm, fb, h):
        return h / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(lo, hi, flo, fmid, fhi, whole, depth, budget):
        nonlocal depth_hits
        mid = 0.5 * (lo + hi)
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        flm = eval_f(lm)
        frm = eval_f(rm)
        left = simpson(flo, flm, fmid, mid - lo)
        right = simpson(fmid, frm, fhi, hi - mid)
        delta = (left + right - whole) / 15.0
        if abs(delta) <= budget:
            return left + right + delta, abs(delta)
        if depth >= max_depth:
            depth_hits += 1
            return left + right + delta, abs(delta)
        lval, lerr = recurse(lo, mid, flo, flm, fmid, left, depth + 1, budget / 2)
        rval, rerr = recurse(mid, hi, fmid, frm, fhi, right, depth + 1, budget / 2)
        return lval + rval, lerr + rerr

    fa_v = eval_f(a)
    fb_v = eval_f(b)
    mid = 0.5 * (a + b)
    fm_v = eval_f(mid)
    whole = simpson(fa_v, fm_v, fb_v, b - a)
    value, err = recurse(a, b, fa_v, fm_v, fb_v, whole, 0, tol)
    return value, err, evals, depth_hits


@pytest.mark.parametrize(
    "f, a, b, tol, max_depth",
    [
        (math.exp, 0.0, 1.0, 1e-12, 64),
        (lambda x: complex(math.cos(x), math.sin(x)), 0.0, math.pi, 1e-12, 64),
        (lambda x: 2.0**-x / (1.0 + 40.0 * math.sin(8.0 * x) ** 2), 0.0, 30.0, 1e-13, 3),
        (lambda x: math.sqrt(x), 0.0, 1.0, 1e-14, 64),
    ],
)
def test_simpson_matches_the_nested_recursion(f, a, b, tol, max_depth):
    res = adaptive_simpson(f, a, b, tol, max_depth)
    assert (res.value, res.error, res.evals, res.depth_hits) == _adaptive_simpson_ref(f, a, b, tol, max_depth)


class _Boom(Exception):
    pass


class _Integrand:
    """A decaying integrand that a weakref can watch; it raises _Boom at
    its fail_at-th call when one is given."""

    def __init__(self, fn, fail_at=None):
        self.fn = fn
        self.fail_at = fail_at
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        if self.calls == self.fail_at:
            raise _Boom
        return self.fn(x)


def _smooth(t):
    return 2.0**-t - 3.0**-t


def _stalls(t):
    return 2.0**-t / (1.0 + 40.0 * math.sin(8.0 * t) ** 2)


_CALLS = {
    "simpson": lambda f: adaptive_simpson(f, 0.0, 30.0, 1e-10),
    "sigma_to_inf": lambda f: integral_sigma_to_inf(f, 1.5, rate=2.0, bound=1.0, quad_tol=1e-10, tail_tol=1e-12),
    "zero_to_inf": lambda f: integral_zero_to_inf(f, rate=2.0, bound=1.0, quad_tol=1e-10, tail_tol=1e-12),
    "stalled_sigma": lambda f: integral_sigma_to_inf(
        f, 0.5, rate=2.0, bound=1.0, quad_tol=1e-13, tail_tol=1e-13, max_depth=2
    ),
    "stalled_zero": lambda f: integral_zero_to_inf(f, rate=2.0, bound=1.0, quad_tol=1e-13, tail_tol=1e-13, max_depth=2),
}


@pytest.mark.parametrize(
    "call, fn, fail_at, raises",
    [
        *((call, _smooth, None, None) for call in ("simpson", "sigma_to_inf", "zero_to_inf")),
        *((call, _smooth, at, _Boom) for call in ("simpson", "sigma_to_inf", "zero_to_inf") for at in (1, 4, 40)),
        *((call, _stalls, None, QuadratureError) for call in ("stalled_sigma", "stalled_zero")),
    ],
)
def test_quadrature_frees_its_integrand(call, fn, fail_at, raises):
    # With the cyclic collector off, the integrand (and every array it
    # owns: the series head's in the difference identity) must go as
    # soon as the quadrature returns or raises. A recursion that was a
    # nested function calling itself held it in a reference cycle.
    integrand = _Integrand(fn, fail_at)
    ref = weakref.ref(integrand)
    raised = None
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            _CALLS[call](integrand)
        except (_Boom, QuadratureError) as exc:
            raised = type(exc)
        del integrand
        alive = ref() is not None
    finally:
        if enabled:
            gc.enable()
    assert raised is raises
    assert not alive
