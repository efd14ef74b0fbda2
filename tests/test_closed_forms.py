"""Exact tail formulas against independent references."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special, stats

import oracles
from levytail import closed_forms as cf
from levytail.errors import (
    InvalidCutoff,
    QuadratureFailure,
    ShapeTooLarge,
    UnsupportedJumpLaw,
)


# === regularized upper incomplete gamma ======================================


@pytest.mark.parametrize("a", [1e-4, 1e-3, 0.01, 0.1, 0.5, 0.9, 0.999])
@pytest.mark.parametrize("x", [1e-3, 0.3, 1.0, 2.5, 10.0])
def test_gamma_q_matches_mpmath(a, x):
    got = cf.regularized_gamma_q(a, x)
    expect = float(mpmath.gammainc(a, x, mpmath.inf, regularized=True))
    assert got == pytest.approx(expect, rel=5e-14)


def test_gamma_q_matches_scipy():
    for a in (0.01, 0.2, 0.7):
        for x in (0.05, 0.8, 3.0):
            assert cf.regularized_gamma_q(a, x) == pytest.approx(
                float(special.gammaincc(a, x)), rel=1e-12)


class TestGammaQProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=0.999),
           st.floats(min_value=1e-6, max_value=50.0))
    def test_in_unit_interval(self, a, x):
        q = cf.regularized_gamma_q(a, x)
        assert 0.0 <= q <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=1e-4, max_value=0.999),
           st.floats(min_value=1e-4, max_value=20.0),
           st.floats(min_value=1.01, max_value=3.0))
    def test_decreasing_in_x(self, a, x, mult):
        assert cf.regularized_gamma_q(a, x * mult) <= \
            cf.regularized_gamma_q(a, x) + 1e-15


# === model tails =============================================================


def test_cauchy_tail_value_and_scale_invariance():
    assert cf.cauchy_tail(1.0, 1.0).value == pytest.approx(0.5)
    for eps, t in ((0.3, 0.01), (1.2, 0.5)):
        a = cf.cauchy_tail(eps, t).value
        b = cf.cauchy_tail(2.0 * eps, 2.0 * t).value
        assert a == b


def test_gamma_tail_is_regularized_q():
    for t in (0.05, 0.3, 0.9):
        for eps in (0.2, 1.0, 1.7):
            got = cf.gamma_tail(eps, t)
            expect = float(mpmath.gammainc(t, eps, mpmath.inf, regularized=True))
            assert got.value == pytest.approx(expect, rel=1e-12)
            assert abs(got.value - expect) <= 10.0 * got.abs_error_estimate + 1e-16


def test_gamma_tail_error_estimate_covers_mpmath():
    # The series branch (eps < t + 1) returns 1 - P(t, eps), where the
    # rounding of P is an absolute error of up to a few ulp of 1.
    points = [(float(eps), float(t))
              for t in np.geomspace(1e-6, 0.999, 40)
              for eps in np.geomspace(1e-4, 50.0, 40)]
    for eps, t in points + [(1.0, 1e-5), (0.5, 1e-2)]:
        got = cf.gamma_tail(eps, t)
        expect = float(mpmath.gammainc(mpmath.mpf(t), mpmath.mpf(eps),
                                       mpmath.inf, regularized=True))
        assert abs(got.value - expect) <= got.abs_error_estimate, (eps, t)


def test_gamma_tail_rejects_shape_at_least_one():
    with pytest.raises(ShapeTooLarge):
        cf.gamma_tail(1.0, 1.0)


def test_ig_tail_matches_scipy_invgauss():
    # X_t is inverse Gaussian with mean sqrt(pi) t and shape 2 pi t^2.
    for t in (0.05, 0.2, 0.8):
        shape = 2.0 * math.pi * t * t
        mu = math.sqrt(math.pi) * t / shape
        for eps in (0.1, 0.5, 1.5):
            got = cf.ig_tail(eps, t)
            expect = float(stats.invgauss.sf(eps, mu, scale=shape))
            assert got.value == pytest.approx(expect, rel=1e-9)


def test_tail_argument_validation():
    with pytest.raises(InvalidCutoff):
        cf.cauchy_tail(0.0, 1.0)
    with pytest.raises(ValueError):
        cf.gamma_tail(1.0, -0.5)


# === compound Poisson tails ==================================================


def test_cpp_point_mass_is_poisson_sf():
    jump = cf.PointJump(0.5)
    for eps, expect_n in ((0.4, 1), (0.5, 1), (0.8, 2), (1.6, 4)):
        got = cf.cpp_exact_tail(2.0, jump, eps, 0.7)
        assert got.value == pytest.approx(
            float(stats.poisson.sf(expect_n - 1, 1.4)), rel=1e-12)


def test_cpp_uniform_below_support_is_one_jump():
    got = cf.cpp_exact_tail(1.5, cf.UniformJump(1.0, 2.0), 0.8, 0.3)
    assert got.value == pytest.approx(-math.expm1(-0.45), rel=1e-12)


def test_cpp_uniform_triangle_cross_check():
    # For eps in (2, 3), exactly n = 2 needs the triangular convolution of two
    # U[1, 2] jumps; n >= 3 always clears eps <= 3.  Small mu keeps the sum
    # concentrated on few terms.
    lam, t, eps = 1.0, 0.2, 2.5
    mu = lam * t
    p2 = 1.0 - (eps - 2.0) ** 2 / 2.0
    expect = (stats.poisson.pmf(2, mu) * p2 + stats.poisson.sf(2, mu))
    got = cf.cpp_exact_tail(lam, cf.UniformJump(1.0, 2.0), eps, t)
    assert got.value == pytest.approx(float(expect), rel=2e-4)
    assert abs(got.value - float(expect)) <= 4.0 * got.abs_error_estimate + 1e-9


@pytest.mark.parametrize("lam, lo, hi, eps", [
    (1.0, 1.0, 2.0, 2.3), (1.0, 1.0, 2.0, 4.0), (1.0, 1.0, 2.0, 5.0),
    (2.0, 0.5, 1.5, 1.2), (2.0, 0.5, 1.5, 2.0), (2.0, 0.5, 1.5, 2.5),
    (2.0, 0.5, 1.5, 3.0), (1.0, 0.0, 1.0, 1.5),
])
@pytest.mark.parametrize("t", [0.01, 0.1, 0.5, 0.9])
def test_cpp_uniform_tail_matches_irwin_hall_oracle(lam, lo, hi, eps, t):
    got = cf.cpp_exact_tail(lam, cf.UniformJump(lo, hi), eps, t)
    expect = float(oracles.cpp_uniform_tail(lam, lo, hi, eps, t))
    assert abs(got.value - expect) <= got.abs_error_estimate


def test_cpp_generic_law_needs_full_mass_beyond_eps():
    class Law:
        def tail(self, y):
            return 1.0 if y <= 0.25 else math.exp(0.25 - y)

    got = cf.cpp_exact_tail(2.0, Law(), 0.2, 0.5)
    assert got.value == pytest.approx(-math.expm1(-1.0), rel=1e-12)
    with pytest.raises(UnsupportedJumpLaw):
        cf.cpp_exact_tail(2.0, Law(), 0.9, 0.5)


def test_poisson_two_or_more_small_argument():
    x = 1e-8
    got = cf.poisson_two_or_more(x)
    assert got == pytest.approx(x * x / 2.0, rel=1e-6)
    assert cf.poisson_two_or_more(0.0) == 0.0


class TestCppProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.05, max_value=3.0),
           st.floats(min_value=0.01, max_value=1.5),
           st.floats(min_value=0.05, max_value=4.0))
    def test_point_mass_tail_in_unit_interval(self, lam, t, eps):
        got = cf.cpp_exact_tail(lam, cf.PointJump(0.5), eps, t)
        assert 0.0 <= got.value <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.05, max_value=2.0),
           st.floats(min_value=0.01, max_value=1.0),
           st.floats(min_value=0.1, max_value=5.0),
           st.floats(min_value=1.05, max_value=2.0))
    def test_uniform_tail_decreasing_in_eps(self, lam, t, eps, mult):
        jump = cf.UniformJump(1.0, 2.0)
        hi = cf.cpp_exact_tail(lam, jump, eps, t)
        lo = cf.cpp_exact_tail(lam, jump, eps * mult, t)
        assert lo.value <= hi.value + hi.abs_error_estimate \
            + lo.abs_error_estimate + 1e-12
