"""Bound assembly, windows and gating for the small-time inequalities."""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from levytail import bounds as bd
from levytail import levy_model as lm
from levytail.errors import (
    AlphaOutOfRange,
    CertTooWeak,
    DegenerateSigma,
    InvalidCutoff,
    LambdaOutOfRange,
    MissingGlobalM,
    MissingLipschitzCert,
    NoApplicableBound,
    NotSymmetric,
    UndeclaredVariation,
    WindowViolated,
    WrongVariation,
)
from levytail.levy_model import (
    LipschitzCert,
    cauchy,
    cpp_uniform,
    drift_b,
    gamma,
    lambda_,
    power_law,
    sigma2,
)


def _cauchy_cert(eps, pad=0.05):
    # |f'| = 2 / (pi x^3) is decreasing, so the sup over the window sits at
    # the left end.
    e1 = min(eps, 1.0)
    lo = 0.75 * e1 - pad
    c = 2.0 / (math.pi * lo ** 3)
    return LipschitzCert(constant=c, lo=lo, hi=2.0 * eps - 0.75 * e1 + pad,
                         m_lip=c * e1 ** 3)


# === Chernoff small-jump bounds ==============================================


def test_chernoff_refined_regime_switch():
    model = cauchy()
    small = bd.chernoff_small_jumps(model, 1.0, 0.01)
    assert "refined_one_sided" in small.constants_used
    one_sided = min(small.constants_used["general_one_sided"],
                    small.constants_used["refined_one_sided"])
    assert small.value == 2.0 * one_sided
    # t sigma2(eps) > eps^2 disables the refined form
    big = bd.chernoff_small_jumps(model, 1.0, 2.0)
    assert "refined_one_sided" not in big.constants_used
    assert big.constants_used["raw_value"] == \
        2.0 * big.constants_used["general_one_sided"]


def test_chernoff_level_defaults_to_eps():
    model = cauchy()
    assert bd.chernoff_small_jumps(model, 0.7, 0.02).value == \
        bd.chernoff_small_jumps(model, 0.7, 0.02, x=0.7).value


def test_chernoff_no_small_jumps_gives_zero():
    model = cpp_uniform(1.0, 1.0, 2.0)
    res = bd.chernoff_small_jumps(model, 0.5, 0.1)
    assert res.value == 0.0
    assert res.constants_used["degenerate"] is True


def test_chernoff_clamps_and_keeps_raw():
    res = bd.chernoff_small_jumps(cauchy(), 1.0, 200.0)
    assert res.value == 1.0
    assert res.constants_used["raw_value"] > 1.0


def test_chernoff_one_sided_is_half():
    both = bd.chernoff_small_jumps(cauchy(), 0.5, 0.01)
    one = bd.chernoff_small_jumps(cauchy(), 0.5, 0.01, two_sided=False)
    assert both.value == pytest.approx(2.0 * one.value, rel=1e-15)


def test_chernoff_rejects_bad_arguments():
    with pytest.raises(InvalidCutoff):
        bd.chernoff_small_jumps(cauchy(), 1.5, 0.1)
    with pytest.raises(ValueError):
        bd.chernoff_small_jumps(cauchy(), 0.5, -0.1)
    with pytest.raises(ValueError):
        bd.chernoff_small_jumps(cauchy(), 0.5, 0.1, x=0.0)


def test_gaussian_variant_reduces_to_general_at_sigma_zero():
    model, eps, t = cauchy(), 1.0, 2.0
    plain = bd.chernoff_small_jumps(model, eps, t, two_sided=False)
    gauss = bd.chernoff_with_gaussian(model, 0.0, eps, t)
    # bit-identical, both routed through the same log expression
    assert gauss.value == plain.constants_used["general_one_sided"]
    assert gauss.value == plain.value
    assert gauss.theorem == "lemma_sj_gauss"


def test_gaussian_variant_grows_with_sigma():
    model, eps, t = cauchy(), 1.0, 2.0
    base = bd.chernoff_with_gaussian(model, 0.0, eps, t).value
    assert bd.chernoff_with_gaussian(model, 0.5, eps, t).value > base


def test_gaussian_variant_needs_small_jump_mass():
    with pytest.raises(DegenerateSigma):
        bd.chernoff_with_gaussian(cpp_uniform(1.0, 1.0, 2.0), 0.3, 0.5, 0.1)


def test_markov_baseline_matches_chebyshev():
    model, eps, t = cauchy(), 0.5, 0.01
    expect = t * sigma2(model, eps).value / (eps * eps)
    got = bd.markov_baseline(model, eps, t)
    assert isinstance(got, float)
    assert got == pytest.approx(expect, rel=1e-15)
    assert bd.markov_baseline(model, 0.5, 1e6) == 1.0


# === finite-variation small-jump bound =======================================


def test_fv_smalljump_symmetric_window_and_value():
    model = power_law(1.0, 0.5)
    eps = 0.8
    a, m = 0.5, 1.0
    t_max = eps ** a * (2.0 - a) / (m * 2.0 ** (a + 1.0))
    res = bd.bound_smalljump_fv(model, eps, t_max)
    assert res.theorem == "ps1"
    assert res.t_max == pytest.approx(t_max, rel=1e-15)
    assert res.valid  # window is closed on the right
    c2 = bd.constants(a)["C2"]
    t = 0.01
    res2 = bd.bound_smalljump_fv(model, eps, t)
    assert res2.value == pytest.approx(
        2.0 * t * t * m * m * c2 * eps ** (-2.0 * a), rel=1e-14)
    assert "C2" in res2.constants_used


def test_fv_smalljump_general_uses_c1():
    model = gamma()
    eps = 0.6
    a, m = 0.5, 1.0
    t_max = (1.0 - a) * eps ** a / (m * 4.0 ** (1.0 + a))
    res = bd.bound_smalljump_fv(model, eps, 1.001 * t_max)
    assert "C1" in res.constants_used
    assert not res.valid
    assert res.rate_exponent == 2.0


def test_fv_gating():
    with pytest.raises(AlphaOutOfRange):
        bd.bound_smalljump_fv(cauchy(), 0.5, 0.01)
    with pytest.raises(AlphaOutOfRange):
        bd.bound_smalljump_fv(power_law(1.0, 1.5), 0.5, 0.01)
    fv = power_law(1.0, 0.5)
    with pytest.raises(UndeclaredVariation):
        bd.bound_smalljump_fv(dataclasses.replace(fv, variation=None), 0.5, 0.01)
    with pytest.raises(WrongVariation):
        bd.bound_smalljump_fv(dataclasses.replace(fv, variation="infinite"),
                              0.5, 0.01)
    with pytest.raises(InvalidCutoff):
        bd.bound_smalljump_fv(fv, 1.2, 0.01)


# === finite-variation residual bound =========================================


def test_teo1_symmetric_small_eps_formula():
    model = power_law(1.0, 0.5)
    eps, t = 0.5, 0.005
    res = bd.bound_cdf_fv(model, eps, t)
    assert res.constants_used["branch"] == "symmetric_small_eps"
    a, m = 0.5, 1.0
    cs = bd.constants(a)
    lam_e = lambda_(model, eps).value
    lam_2e = lambda_(model, 2.0 * eps).value
    expect = (2.0 * t * t * m * m * eps ** (-2.0 * a) * (cs["C2"] + cs["D3"])
              + (t * t * m / (2.0 * (2.0 - a))) * (lam_e + 4.0 * lam_2e)
              * eps ** -a
              + 2.0 * t * t * lam_e * lam_e)
    assert res.value == pytest.approx(expect, rel=1e-13)
    assert res.rate_exponent == 2.0


def test_teo1_general_small_eps_branch():
    res = bd.bound_cdf_fv(gamma(), 0.5, 0.005)
    assert res.constants_used["branch"] == "general_small_eps"
    assert {"C1", "D1", "D2"} <= res.constants_used.keys()


def test_teo1_symmetric_large_eps_branch():
    res = bd.bound_cdf_fv(power_law(1.0, 0.5), 1.5, 0.005)
    assert res.constants_used["branch"] == "symmetric_large_eps"
    assert "lambda_1_plus_eps" in res.constants_used
    # global_M enters through M = max(class_M, global_M)
    assert res.constants_used["M"] == 1.0


def test_teo1_general_large_eps_indicators():
    model = gamma()
    a, m = 0.5, 1.0  # class_M dominates exp(-1)
    t = 0.01
    base = bd.bound_cdf_fv(model, 1.5, t)
    assert base.constants_used["branch"] == "general_large_eps"
    b1 = abs(drift_b(model, 1.0).value)
    lam1 = lambda_(model, 1.0).value
    lam2 = lambda_(model, 2.0).value
    cs = bd.constants(a)
    # eps = 1.5 with small t: both indicator terms off
    expect = (2.0 * m * m * t * t * (cs["tildeD1"] + cs["C1"])
              + 2.0 * t * t * lam1 * lam1
              + m * t * t * (8.0 / 5.0 + 1.5 * lam2 + 4.0 * lam1 / (2.0 - a)))
    assert base.value == pytest.approx(expect, rel=1e-13)
    # just above 1 the near-one term 4 * 5^alpha switches on
    near = bd.bound_cdf_fv(model, 1.0 + t * b1, t)
    assert near.value == pytest.approx(
        expect + m * t * t * 4.0 * 5.0 ** a, rel=1e-12)
    # far out the drift-reach term switches on
    far = bd.bound_cdf_fv(model, 2.0, t)
    reach = 2.0 * m * t * t * (4.0 / (2.0 - a)) * (2.0 - 1.5 - t * b1)
    assert far.value == pytest.approx(expect + reach, rel=1e-12)


def test_teo1_window_is_strict():
    model = gamma()
    t_max = (1.0 - 0.5) * 0.5 ** 0.5 / (1.0 * 4.0 ** 1.5)
    at = bd.bound_cdf_fv(model, 0.5, t_max)
    below = bd.bound_cdf_fv(model, 0.5, 0.999 * t_max)
    assert not at.valid
    assert below.valid
    assert at.t_max == pytest.approx(t_max, rel=1e-15)


def test_teo1_needs_global_m_beyond_one():
    stripped = dataclasses.replace(gamma(), global_M=None)
    with pytest.raises(MissingGlobalM):
        bd.bound_cdf_fv(stripped, 1.5, 0.01)
    # still fine below eps = 1
    assert bd.bound_cdf_fv(stripped, 0.5, 0.01).value > 0.0


def test_teo1_is_not_clamped():
    res = bd.bound_cdf_fv(power_law(1.0, 0.5), 0.5, 5.0)
    assert res.value > 1.0
    assert not res.valid


# === infinite-variation small-jump bound =====================================


def test_iv_smalljump_above_one_formula():
    model = power_law(1.0, 1.5)
    eps, t = 0.5, 0.001
    res = bd.bound_smalljump_iv(model, eps, t)
    assert res.theorem == "ps2"
    a, m = 1.5, 1.0
    e1 = bd.constants(a)["E1"]
    expect = (2.0 ** (2.0 + a) * m * t ** (1.0 + 1.0 / a) / eps ** (1.0 + a)
              * (1.0 + m / (a * (2.0 - a) * (a - 1.0)))
              + 2.0 * t * t * m * m * e1 * eps ** (-2.0 * a))
    assert res.value == pytest.approx(expect, rel=1e-13)
    assert res.rate_exponent == pytest.approx(1.0 + 1.0 / a)
    assert res.constants_used["two_sided_already"] is True


def test_iv_smalljump_alpha_one_doubles_per_side():
    model = cauchy()
    both = bd.bound_smalljump_iv(model, 0.5, 0.001)
    one = bd.bound_smalljump_iv(model, 0.5, 0.001, two_sided=False)
    assert both.value == pytest.approx(2.0 * one.value, rel=1e-15)
    assert one.value == pytest.approx(one.constants_used["per_side"], rel=1e-15)
    assert both.rate_exponent == 2.0
    assert both.constants_used["log_factor"] == pytest.approx(
        math.log(0.5 / 0.002), rel=1e-15)


def test_iv_smalljump_window_strict_and_clamped():
    model = cauchy()
    t_max = 0.5 / 2.0  # (eps/2)^1 * min(1, (2-1) * pi / 2) = eps / 2
    assert not bd.bound_smalljump_iv(model, 0.5, t_max).valid
    res = bd.bound_smalljump_iv(model, 0.5, 0.2)
    assert res.valid
    assert res.value == 1.0
    assert res.constants_used["raw_value"] > 1.0


def test_iv_smalljump_gating():
    with pytest.raises(AlphaOutOfRange):
        bd.bound_smalljump_iv(power_law(1.0, 0.5), 0.5, 0.01)
    with pytest.raises(NotSymmetric):
        bd.bound_smalljump_iv(dataclasses.replace(cauchy(), symmetric=False),
                              0.5, 0.01)
    with pytest.raises(InvalidCutoff):
        bd.bound_smalljump_iv(cauchy(), 1.2, 0.01)


# === bounded-density residual bound ==========================================


def test_iv_general_formula_above_one_alpha():
    model = power_law(1.0, 1.5)
    eps, t = 0.8, 0.01
    res = bd.bound_cdf_iv_general(model, eps, t)
    assert res.theorem == "lambda2bis"
    a, m = 1.5, 1.0
    cs = bd.constants(a, M=m)
    lam1 = lambda_(model, 1.0).value
    lam_e1 = lambda_(model, eps).value
    expect = (cs["G1"] * t ** (1.0 + 1.0 / a) / eps ** (1.0 + a)
              + cs["G2"] * t * t / eps ** (2.0 * a)
              + 5.0 * m * t * t * lam1 / ((2.0 - a) * eps * eps)
              + 2.0 * t * t * lam_e1 * lam_e1)
    assert res.value == pytest.approx(expect, rel=1e-13)
    assert "log_near_term" not in res.constants_used
    assert "log_wide_term" not in res.constants_used


def test_iv_general_alpha_one_log_terms():
    model = cauchy()
    # at eps = 1 the near-window width w = min(1, eps, eps - 1) collapses
    at_one = bd.bound_cdf_iv_general(model, 1.0, 0.05)
    assert "log_near_term" not in at_one.constants_used
    assert "log_wide_term" in at_one.constants_used
    # just above 1 it reappears, positive for small t
    above = bd.bound_cdf_iv_general(model, 1.2, 0.05)
    assert above.constants_used["log_near_term"] > 0.0
    # the log is kept even when it turns negative
    late = bd.bound_cdf_iv_general(model, 1.2, 0.3)
    assert late.constants_used["log_near_term"] < 0.0


def test_iv_general_far_term_beyond_two():
    model = cauchy()
    assert "far_term" not in bd.bound_cdf_iv_general(model, 1.5, 0.01).constants_used
    far = bd.bound_cdf_iv_general(model, 2.5, 0.01)
    m = 1.0 / math.pi
    assert far.constants_used["far_term"] == pytest.approx(
        4.0 * m * m * 1e-4 * 2.5 / (2.0 - 1.0), rel=1e-13)


def test_iv_general_window_and_gating():
    model = cauchy()
    t_max = 0.5  # (1/2)^1 * min(1, pi/2)
    res = bd.bound_cdf_iv_general(model, 1.0, t_max)
    assert res.t_max == pytest.approx(t_max, rel=1e-15)
    assert not res.valid
    with pytest.raises(MissingGlobalM):
        bd.bound_cdf_iv_general(dataclasses.replace(model, global_M=None),
                                1.0, 0.01)
    with pytest.raises(AlphaOutOfRange):
        bd.bound_cdf_iv_general(power_law(1.0, 0.5), 0.5, 0.01)


# === Lipschitz residual bound ================================================


def test_lipschitz_bound_accepts_enlarged_class_constant():
    eps = 1.0
    model = cauchy().with_lipschitz(_cauchy_cert(eps))
    res = bd.bound_cdf_iv_lipschitz(model, eps, 0.01)
    assert res.theorem == "lambda2"
    # the enlarged constant drives both the window and the value
    m = res.constants_used["M"]
    assert m == pytest.approx(model.lipschitz_cert.m_lip, rel=1e-15)
    assert res.t_max == pytest.approx((2.0 - 1.0) / (4.0 * m), rel=1e-13)
    # nonstrict window
    assert bd.bound_cdf_iv_lipschitz(model, eps, res.t_max).valid
    assert not bd.bound_cdf_iv_lipschitz(model, eps, 1.0001 * res.t_max).valid


def test_lipschitz_bound_value_below_one():
    eps, t = 0.8, 0.01
    model = cauchy().with_lipschitz(_cauchy_cert(eps))
    res = bd.bound_cdf_iv_lipschitz(model, eps, t)
    a = 1.0
    m = model.lipschitz_cert.m_lip
    cs = bd.constants(a, eps=eps)
    lam1 = lambda_(model, 1.0).value
    expect = (t * t * m * m * (cs["F1"] * eps ** (-2.0 * a)
                               + lam1 * eps ** -a * cs["F2"])
              + 2.0 * t * t * lam1 * lam1
              + t ** 4 * m ** 4 * cs["F5"] / eps ** (4.0 * a))
    assert res.value == pytest.approx(expect, rel=1e-13)
    assert {"F1", "F2", "F5"} <= res.constants_used.keys()


def test_lipschitz_bound_above_one_uses_f3_f4():
    eps = 1.3
    model = cauchy().with_lipschitz(_cauchy_cert(eps))
    res = bd.bound_cdf_iv_lipschitz(model, eps, 0.01)
    assert {"F3", "F4"} <= res.constants_used.keys()
    assert "F1" not in res.constants_used


def test_lipschitz_bound_certificate_gating():
    with pytest.raises(MissingLipschitzCert):
        bd.bound_cdf_iv_lipschitz(cauchy(), 1.0, 0.01)
    short = LipschitzCert(constant=1.6, lo=0.8, hi=1.25, m_lip=1.6)
    with pytest.raises(MissingLipschitzCert, match="certificate covers"):
        bd.bound_cdf_iv_lipschitz(cauchy().with_lipschitz(short), 1.0, 0.01)
    # a true constant without the enlarged class declaration is too weak
    # against class_M = 1/pi
    weak = LipschitzCert(constant=2.0 / (math.pi * 0.7 ** 3), lo=0.7, hi=1.3)
    with pytest.raises(CertTooWeak):
        bd.bound_cdf_iv_lipschitz(cauchy().with_lipschitz(weak), 1.0, 0.01)


# === stable-type product-form bounds =========================================


def test_stable_type_fv_window():
    lam = lambda_(power_law(1.0, 0.5), 0.5).value
    w = 2.0 ** -0.5 * 1.5 / 0.5
    res = bd.bound_stable_type(1.0, 1.0, 0.5, 0.5, 0.9 * w / lam, "fv", lam)
    assert res.theorem == "corollary"
    assert res.valid
    assert res.t_max == pytest.approx(w / lam, rel=1e-15)
    assert res.rate_exponent == 2.0
    beyond = bd.bound_stable_type(1.0, 1.0, 0.5, 0.5, 1.01 * w / lam, "fv", lam)
    assert not beyond.valid


def test_stable_type_iv_general_log_factor_at_alpha_one():
    lam = 2.0 / math.pi
    res = bd.bound_stable_type(1.0 / math.pi, 1.0 / math.pi, 1.0, 1.0,
                               0.01, "iv_general", lam)
    cu = res.constants_used
    prod = 0.01 * lam
    expect = cu["B"] * prod ** 2.0 * math.log(cu["Btilde"] / prod)
    assert res.value == expect
    assert res.rate_exponent == 2.0


def test_stable_type_iv_general_alpha_one_beyond_btilde():
    # For the Cauchy t lambda_eps passes Btilde at t = (e/2) eps, outside the
    # window, where log(Btilde / (t lambda_eps)) would turn the bound negative.
    m, eps = 1.0 / math.pi, 0.21
    lam = 2.0 / (math.pi * eps)
    res = bd.bound_stable_type(m, m, 1.0, eps, 0.2865, "iv_general", lam)
    assert not res.valid
    assert 0.0 <= res.value < math.inf
    values = [bd.bound_stable_type(m, m, 1.0, eps, t, "iv_general", lam).value
              for t in (0.05, 0.1, 0.2, 0.2854, 0.2855, 0.2865, 0.5, 1.5)]
    assert values == sorted(values)


def test_stable_type_iv_lipschitz_rate():
    res = bd.bound_stable_type(0.5, 1.0, 1.5, 1.0, 0.001, "iv_lipschitz",
                               4.0 / 3.0)
    assert res.rate_exponent == 2.0
    assert res.constants_used["C"] > 0.0


def test_stable_type_gating():
    with pytest.raises(InvalidCutoff):
        bd.bound_stable_type(2.0, 1.0, 0.5, 0.5, 0.01, "fv", 1.0)
    with pytest.raises(InvalidCutoff):
        bd.bound_stable_type(1.0, 1.0, 0.5, 1.5, 0.01, "fv", 1.0)
    with pytest.raises(WindowViolated):
        bd.bound_stable_type(1.0, 1.0, 0.5, 0.5, 0.01, "fv", 0.0)
    with pytest.raises(AlphaOutOfRange):
        bd.bound_stable_type(1.0, 1.0, 1.5, 0.5, 0.01, "fv", 1.0)
    with pytest.raises(AlphaOutOfRange):
        bd.bound_stable_type(1.0, 1.0, 0.5, 0.5, 0.01, "iv_general", 1.0)
    with pytest.raises(ValueError, match="unknown variant"):
        bd.bound_stable_type(1.0, 1.0, 0.5, 0.5, 0.01, "both", 1.0)


# === compound Poisson centering ==============================================


def test_ccpp_branches():
    below = bd.ccpp_centering_gap(0.5, 0.3)
    assert below.constants_used["branch"] == "lam<=1"
    assert below.value == pytest.approx(
        2.0 * 0.5 * math.exp(-0.5) * 0.3, rel=1e-15)
    above = bd.ccpp_centering_gap(1.5, 0.3)
    assert above.constants_used["branch"] == "lam>1"
    assert above.value == pytest.approx(
        2.0 * 1.5 ** 2 * math.exp(-1.5) * 0.3, rel=1e-15)
    assert above.rate_exponent == 0.0


def test_ccpp_clamps_and_gates():
    res = bd.ccpp_centering_gap(1.0, 5.0, sup_g=10.0)
    assert res.value == 1.0
    assert res.constants_used["raw_value"] > 1.0
    for lam in (0.0, -1.0, 2.5):
        with pytest.raises(LambdaOutOfRange):
            bd.ccpp_centering_gap(lam, 0.3)


# === selection ===============================================================


def test_auto_select_routes_by_hypotheses():
    assert bd.auto_select(cauchy(), 0.5, 0.01).theorem == "lambda2bis"
    assert bd.auto_select(gamma(), 0.5, 0.001).theorem == "teo1"


def test_auto_select_prefers_in_window_results():
    model = cauchy().with_lipschitz(_cauchy_cert(1.0))
    lip_t_max = bd.bound_cdf_iv_lipschitz(model, 1.0, 0.01).t_max
    res = bd.auto_select(model, 1.0, 2.0 * lip_t_max)
    assert res.theorem == "lambda2bis"
    assert res.valid
    # with both windows open the smaller value wins
    both_open = bd.auto_select(model, 1.0, 0.5 * lip_t_max)
    lo = min(bd.bound_cdf_iv_general(model, 1.0, 0.5 * lip_t_max).value,
             bd.bound_cdf_iv_lipschitz(model, 1.0, 0.5 * lip_t_max).value)
    assert both_open.value == lo


def test_auto_select_exhausted():
    hopeless = dataclasses.replace(cauchy(), symmetric=False)
    with pytest.raises(NoApplicableBound):
        bd.auto_select(hopeless, 0.5, 0.01)


# === structural properties ===================================================


class TestBoundProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.05, max_value=1.0),
           st.floats(min_value=1e-4, max_value=50.0))
    def test_probability_bounds_stay_in_unit_interval(self, eps, t):
        model = cauchy()
        for res in (bd.chernoff_small_jumps(model, eps, t),
                    bd.bound_smalljump_iv(model, eps, t)):
            assert 0.0 <= res.value <= 1.0
        assert 0.0 <= bd.markov_baseline(model, eps, t) <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.1, max_value=1.0),
           st.floats(min_value=1e-4, max_value=0.05),
           st.floats(min_value=1.01, max_value=4.0))
    def test_chernoff_monotone_in_t(self, eps, t, mult):
        model = power_law(1.0, 1.5)
        lo = bd.chernoff_small_jumps(model, eps, t)
        hi = bd.chernoff_small_jumps(model, eps, t * mult)
        assert lo.value <= hi.value + 1e-15

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.1, max_value=1.0),
           st.floats(min_value=1e-5, max_value=1e-2),
           st.floats(min_value=1.01, max_value=2.0))
    def test_residual_bound_monotone_in_t_within_window(self, eps, t, mult):
        model = power_law(1.0, 0.5)
        hi = bd.bound_cdf_fv(model, eps, t * mult)
        if not hi.valid:
            return
        lo = bd.bound_cdf_fv(model, eps, t)
        assert lo.value <= hi.value * (1.0 + 1e-12)
