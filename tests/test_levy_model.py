"""Model layer: functionals, class certificates, builtins and parsing."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

from levytail import levy_model as lm
from levytail.errors import (
    InvalidCutoff,
    NonIntegrableTail,
    UndeclaredVariation,
)

BUILTIN_INSTANCES = [
    lm.cauchy(),
    lm.gamma(),
    lm.inverse_gaussian(),
    lm.stable(0.7),
    lm.stable(1.5),
    lm.tempered_stable(1.2, 1.0),
    lm.power_law(1.0, 0.5),
    lm.power_law(1.0, 1.5),
    lm.cpp_uniform(1.0, 1.0, 2.0),
]


# === dual-route functionals ==================================================


@pytest.mark.parametrize("model", BUILTIN_INSTANCES, ids=lambda m: m.name)
@pytest.mark.parametrize("eps", [0.05, 0.5, 1.0, 1.9])
def test_lambda_quadrature_agrees_with_direct_route(model, eps):
    auto = lm.lambda_(model, eps)
    quad = lm.lambda_(model, eps, method="quadrature")
    assert math.isfinite(quad.value)
    assert quad.value == pytest.approx(auto.value, rel=1e-9)


@pytest.mark.parametrize("model", BUILTIN_INSTANCES, ids=lambda m: m.name)
@pytest.mark.parametrize("eps", [0.05, 0.5, 1.0, 1.9])
def test_sigma2_quadrature_agrees_with_direct_route(model, eps):
    auto = lm.sigma2(model, eps)
    quad = lm.sigma2(model, eps, method="quadrature")
    assert quad.value == pytest.approx(auto.value, rel=1e-9)


@pytest.mark.parametrize("model", [lm.gamma(), lm.inverse_gaussian(),
                                   lm.cpp_uniform(1.0, 1.0, 2.0)],
                         ids=lambda m: m.name)
@pytest.mark.parametrize("eps", [0.1, 0.7, 1.3])
def test_drift_quadrature_agrees_with_direct_route(model, eps):
    auto = lm.drift_b(model, eps)
    quad = lm.drift_b(model, eps, method="quadrature")
    assert quad.value == pytest.approx(auto.value, rel=1e-8, abs=1e-12)


def test_symmetric_drift_is_exactly_zero():
    for model in (lm.cauchy(), lm.power_law(1.0, 1.5), lm.stable(0.7)):
        assert lm.drift_b(model, 0.5).value == 0.0
        assert lm.band_moment1(model, 0.5, 1.5).value == 0.0


def test_infinite_variation_drift_orientation():
    # b(eps) = -integral of x f over eps <= |x| <= 1 for eps <= 1; an
    # asymmetric IV model must pick up the sign.
    base = lm.power_law(1.0, 1.5)
    parts = tuple(dataclasses.replace(p, side="pos") for p in base.jump_parts)
    model = dataclasses.replace(base, symmetric=False, jump_parts=parts,
                                density=lm._parts_density(parts))
    got = lm.drift_b(model, 0.5)
    expect = -integrate.quad(lambda x: x * x ** -2.5, 0.5, 1.0)[0]
    assert got.value == pytest.approx(expect, rel=1e-10)
    above = lm.drift_b(model, 1.5)
    expect_above = integrate.quad(lambda x: x * x ** -2.5, 1.0, 1.5)[0]
    assert above.value == pytest.approx(expect_above, rel=1e-10)


def test_closed_forms_of_builtins():
    eps = 0.8
    c = lm.cauchy()
    assert lm.lambda_(c, eps).value == pytest.approx(2.0 / (math.pi * eps), rel=1e-14)
    assert lm.sigma2(c, eps).value == pytest.approx(2.0 * eps / math.pi, rel=1e-14)
    g = lm.gamma()
    assert lm.lambda_(g, eps).value == pytest.approx(special.exp1(eps), rel=1e-13)
    assert lm.sigma2(g, eps).value == pytest.approx(
        -math.expm1(-eps) - eps * math.exp(-eps), rel=1e-13)
    assert lm.drift_b(g, eps).value == pytest.approx(-math.expm1(-eps), rel=1e-13)
    ig = lm.inverse_gaussian()
    assert lm.lambda_(ig, eps).value == pytest.approx(
        2.0 * math.exp(-eps) / math.sqrt(eps)
        - 2.0 * math.sqrt(math.pi) * special.erfc(math.sqrt(eps)), rel=1e-13)
    assert lm.sigma2(ig, eps).value == pytest.approx(
        math.sqrt(math.pi) / 2.0 * special.gammainc(1.5, eps), rel=1e-13)
    assert lm.drift_b(ig, eps).value == pytest.approx(
        math.sqrt(math.pi) * special.erf(math.sqrt(eps)), rel=1e-13)


@pytest.mark.parametrize("functional, args", [
    ("lambda_", (0.5,)),
    ("lambda_band", (0.5, 1.5)),
    ("sigma2", (0.5,)),
    ("drift_b", (0.5,)),
    ("band_moment1", (0.5, 1.5)),
])
@pytest.mark.parametrize("model", [lm.gamma(), lm.cauchy()], ids=lambda m: m.name)
def test_functionals_reject_unknown_method(functional, args, model):
    with pytest.raises(ValueError, match="unknown method"):
        getattr(lm, functional)(model, *args, method="closedform")


def test_lambda_band_splits_the_tail():
    model = lm.gamma()
    total = lm.lambda_(model, 0.3).value
    below = lm.lambda_band(model, 0.3, 1.1).value
    above = lm.lambda_(model, 1.1).value
    assert below + above == pytest.approx(total, rel=1e-12)


# === class certificates ======================================================


def test_class_functional_bounds_formulas():
    model = lm.power_law(2.0, 0.5)
    b = lm.class_functional_bounds(model, 0.5)
    assert b.sigma2_over_a2_bound == pytest.approx(2 * 2 * 0.5 ** -0.5 / 1.5)
    assert b.lambda_bound == pytest.approx(2 * 2 * 0.5 ** -0.5 / 0.5)
    assert b.drift_bound == pytest.approx(2 * 2 * 0.5 ** 0.5 / 0.5)
    iv = lm.class_functional_bounds(lm.power_law(1.0, 1.5), 0.5)
    assert iv.drift_bound is None
    with pytest.raises(InvalidCutoff):
        lm.class_functional_bounds(model, 2.5)


@pytest.mark.parametrize("model", BUILTIN_INSTANCES, ids=lambda m: m.name)
def test_builtins_pass_class_membership(model):
    report = lm.verify_class_membership(model)
    assert report.passed, report


def test_membership_rejects_understated_certificate():
    lying = dataclasses.replace(lm.power_law(1.0, 1.5), class_M=0.25)
    report = lm.verify_class_membership(lying)
    assert not report.passed


def test_membership_rejects_false_symmetry_claim():
    base = lm.gamma()
    lying = dataclasses.replace(base, symmetric=True)
    report = lm.verify_class_membership(lying)
    assert not report.passed


def test_pure_stable_band_bound_is_tight():
    # For f = M |x|^-(1+alpha), the band mass over (a, 2] attains the class
    # bound minus the boundary term; domination must hold with the 1e-9 slack.
    model = lm.power_law(1.0, 0.5)
    for a in np.geomspace(1e-3, 2.0, 17):
        band = lm.lambda_band(model, a, 2.0, method="quadrature").value
        cap = lm.class_functional_bounds(model, a).lambda_bound
        assert band <= cap * (1.0 + 1e-9)


# === tail envelopes and quadrature safety ====================================


def test_non_integrable_tail_detected():
    heavy = lm.LevyModel(
        density=lambda x: 1.0 / (1.0 + x * x),
        symmetric=True,
        variation="infinite",
        class_alpha=1.0,
        class_M=1.0,
        name="heavy",
    )
    with pytest.raises(NonIntegrableTail):
        lm.lambda_(heavy, 0.5, method="quadrature")


def test_custom_density_with_declared_envelope():
    model = lm.LevyModel(
        density=lambda x: math.exp(-abs(x)) / abs(x) ** 0.5 if x != 0 else 0.0,
        symmetric=True,
        variation="finite",
        class_alpha=0.5,
        class_M=1.0,
        tail_envelope=lm.TailEnvelope(coef=2.0, rate=1.0, beyond=1.0),
        name="custom",
    )
    got = lm.lambda_(model, 0.25).value
    expect = 2.0 * integrate.quad(
        lambda x: math.exp(-x) * x ** -0.5, 0.25, np.inf)[0]
    assert got == pytest.approx(expect, rel=1e-9)


def test_invalid_cutoffs_raise():
    model = lm.cauchy()
    with pytest.raises(InvalidCutoff):
        lm.lambda_(model, 0.0)
    with pytest.raises(InvalidCutoff):
        lm.sigma2(model, -1.0)
    with pytest.raises(InvalidCutoff):
        lm.lambda_band(model, 0.5, 0.2)


def test_undeclared_variation_blocks_drift():
    model = dataclasses.replace(lm.gamma(), variation=None)
    with pytest.raises(UndeclaredVariation):
        lm.drift_b(model, 0.5)


# === jump parts ==============================================================


def test_cauchy_is_stable_one_with_its_own_closed_forms():
    c, s = lm.cauchy(), lm.stable(1.0, 1.0 / math.pi)
    assert dataclasses.replace(c, name=s.name, closed=s.closed,
                               density=s.density) == s
    x = np.array([-3.0, -0.2, 0.5, 7.0])
    assert np.array_equal(c.density(x), s.density(x))
    assert c.name == "cauchy"
    assert c.closed.lambda_(0.8) == 2.0 / (math.pi * 0.8)
    assert c.closed.sigma2(0.8) == 2.0 * 0.8 / math.pi


class TestJumpParts:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.1, max_value=3.0),
           st.floats(min_value=0.05, max_value=1.9),
           st.floats(min_value=0.01, max_value=1.0),
           st.floats(min_value=1.01, max_value=3.0))
    def test_power_part_mass_matches_quadrature(self, coef, alpha, lo_frac, hi_mult):
        lo, hi = lo_frac, lo_frac * hi_mult
        part = lm.PowerPart(coef=coef, alpha=alpha, lo=0.0, hi=2.0, side="pos")
        got = part.mass(lo, min(hi, 2.0))
        expect = integrate.quad(lambda x: coef * x ** -(1 + alpha),
                                lo, min(hi, 2.0))[0]
        assert got == pytest.approx(expect, rel=1e-9, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.1, max_value=3.0),
           st.floats(min_value=0.05, max_value=1.9),
           st.floats(min_value=0.01, max_value=1.5))
    def test_power_part_moment2(self, coef, alpha, hi):
        part = lm.PowerPart(coef=coef, alpha=alpha, lo=0.0, hi=2.0, side="pos")
        got = part.moment2(0.0, hi)
        expect = integrate.quad(lambda x: x * x * coef * x ** -(1 + alpha),
                                0.0, hi, epsabs=1e-13, epsrel=1e-11)[0]
        assert got == pytest.approx(expect, rel=1e-7)

    def test_narrow_band_mass_is_within_its_estimate_of_mpmath(self):
        # x1^-a - x2^-a cancels when x2 is near x1; the closed value's
        # 4-ulp estimate must still cover the 40-digit reference
        mpmath.mp.dps = 40
        rng = np.random.default_rng(12)
        for _ in range(3000):
            alpha, coef = rng.uniform(0.05, 1.95), rng.uniform(0.1, 3.0)
            a = rng.uniform(0.01, 3.0)
            b = a * rng.uniform(1.0, 3.0)
            got = lm.lambda_band(lm.stable(alpha, coef), a, b)
            al = mpmath.mpf(alpha)
            ref = 2 * mpmath.mpf(coef) * (mpmath.mpf(a) ** -al
                                          - mpmath.mpf(b) ** -al) / al
            assert abs(got.value - ref) <= got.abs_error_estimate, (alpha, coef, a, b)

    def test_power_part_mass_to_infinity_is_the_plain_power(self):
        rng = np.random.default_rng(13)
        for _ in range(2000):
            alpha, a = rng.uniform(0.05, 1.95), rng.uniform(1e-3, 10.0)
            part = lm.PowerPart(coef=1.5, alpha=alpha, lo=0.0, hi=math.inf)
            assert part.mass(a, math.inf) == 2 * 1.5 * a ** -alpha / alpha

    def test_power_part_log_moment_at_alpha_one(self):
        part = lm.PowerPart(coef=1.0, alpha=1.0, lo=0.0, hi=2.0, side="pos")
        got = part.moment1_signed(0.5, 1.5)
        assert got == pytest.approx(math.log(3.0), rel=1e-14)

    def test_flat_part_closed_forms(self):
        part = lm.PowerPart(coef=2.0, alpha=-1.0, lo=1.0, hi=2.0, side="pos")
        assert part.mass(0.5, 3.0) == pytest.approx(2.0)
        assert part.moment2(0.0, 2.0) == pytest.approx(2.0 * 7.0 / 3.0)
        assert part.moment1_signed(1.0, 2.0) == pytest.approx(3.0)


# === parsing =================================================================


def test_parse_builtins():
    assert lm.parse_model("cauchy").name == "cauchy"
    assert lm.parse_model("power_law(1, 0.5)").class_alpha == 0.5
    assert lm.parse_model("stable(1.5)").class_alpha == 1.5
    cpp = lm.parse_model("cpp(1, uniform(1, 2))")
    assert cpp.variation == "finite"
    assert lm.lambda_(cpp, 0.5).value == pytest.approx(1.0)


def test_parse_overrides():
    model = lm.parse_model("power_law(1, 0.5); class_M=2; global_M=0.5")
    assert model.class_M == 2.0
    assert model.global_M == 0.5
    cert = lm.parse_model("cauchy; lipschitz=1.6:0.7:1.3:1.6").lipschitz_cert
    assert cert.constant == 1.6
    assert cert.lo == 0.7 and cert.hi == 1.3
    assert cert.m_lip == 1.6
    short = lm.parse_model("cauchy; lipschitz=1.6:0.7:1.3").lipschitz_cert
    assert short.m_lip is None


def test_parse_rejects_unknown():
    with pytest.raises(InvalidCutoff):
        lm.parse_model("levy_flight")
    with pytest.raises(InvalidCutoff):
        lm.parse_model("cauchy; volatility=3")
    with pytest.raises(InvalidCutoff):
        lm.parse_model("cpp(1)")
