import math

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
