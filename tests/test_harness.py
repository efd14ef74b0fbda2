"""Grids, rate fits, validation rows and the notched worked example."""

import dataclasses
import math

import numpy as np
import pytest

from levytail import bounds as bd
from levytail import harness as hn
from levytail.closed_forms import ExactTail
from levytail.errors import (
    AlphaOutOfRange,
    CertTooWeak,
    InvalidCutoff,
    MissingGlobalM,
    MissingLipschitzCert,
    NotSymmetric,
    TooFewPoints,
    TruthUnavailable,
)
from levytail.levy_model import (
    ClosedFunctionals,
    cauchy,
    gamma,
    lambda_,
    parse_model,
    power_law,
    stable,
    verify_class_membership,
)
from levytail.simulate import SeededStream


# === grids ===================================================================


def test_t_log_grid_density_and_endpoints():
    g = hn.t_log_grid(1e-4, 1e-2)
    assert len(g) == 25  # two decades at 12 per decade, inclusive
    assert g[0] == pytest.approx(1e-4)
    assert g[-1] == pytest.approx(1e-2)
    assert np.all(np.diff(np.log(g)) > 0)
    assert len(hn.t_log_grid(1.0, 1.3, per_decade=4)) >= 2


def test_clip_to_window():
    g = [0.1, 0.2, 0.3, 0.4]
    assert list(hn.clip_to_window(g, 0.3)) == [0.1, 0.2]
    assert list(hn.clip_to_window(g, 0.3, strict=False)) == [0.1, 0.2, 0.3]
    assert list(hn.clip_to_window(g, 0.05)) == []


# === theorem dispatch ========================================================


def test_theorem_bound_dispatch():
    model = cauchy()
    for name, expect in (("ps2", "ps2"), ("lambda2bis", "lambda2bis"),
                         ("lemma_sj", "lemma_sj"), ("auto", "lambda2bis")):
        res = hn.theorem_bound(model, 0.5, 0.01, name)
        assert res.theorem == expect
    mk = hn.theorem_bound(model, 0.5, 0.01, "markov")
    assert mk.theorem == "markov"
    assert mk.t_max == math.inf
    assert mk.valid
    assert mk.rate_exponent == 1.0
    with pytest.raises(ValueError):
        hn.theorem_bound(model, 0.5, 0.01, "teorema")


def test_theorem_bound_corollary_needs_lower_envelope():
    model = cauchy()
    with pytest.raises(ValueError, match="lower envelope"):
        hn.theorem_bound(model, 0.5, 0.001, "corollary")
    res = hn.theorem_bound(model, 0.5, 0.001, "corollary", m1=1.0 / math.pi)
    assert res.theorem == "corollary"
    fv = hn.theorem_bound(power_law(1.0, 0.5), 0.5, 0.001, "corollary", m1=1.0)
    assert "A" in fv.constants_used


_CAUCHY_LIP = "cauchy; lipschitz=2.4:0.65:1.3:2.4"  # m_lip = 2.4 > 1/pi

# table name -> (model text, eps, m1, the BoundResult.theorem it returns);
# each model meets the hypotheses of its theorem at (eps, t = 1e-3)
_TABLE_CASES = {
    "auto": ("cauchy", 0.5, None, "lambda2bis"),
    "ps1": ("power_law(1,0.5)", 0.5, None, "ps1"),
    "teo1": ("power_law(1,0.5)", 0.5, None, "teo1"),
    "ps2": ("cauchy", 0.5, None, "ps2"),
    "lambda2bis": ("cauchy", 0.5, None, "lambda2bis"),
    "lambda2": (_CAUCHY_LIP, 0.9, None, "lambda2"),
    "lemma_sj": ("cauchy", 0.5, None, "lemma_sj"),
    "markov": ("cauchy", 0.5, None, "markov"),
    "corollary": ("cauchy", 0.5, 1.0 / math.pi, "corollary"),
    "corollary_fv": ("stable(0.5,1)", 0.5, 1.0, "corollary"),
    "corollary_iv_general": ("stable(1.5,1)", 0.5, 1.0, "corollary"),
    "corollary_iv_lipschitz": (_CAUCHY_LIP, 0.9, 1.0 / math.pi, "corollary"),
}


@pytest.mark.parametrize("name", sorted(bd.THEOREMS))
def test_every_table_name_evaluates_its_theorem(name):
    text, eps, m1, expect = _TABLE_CASES[name]
    res = hn.theorem_bound(parse_model(text), eps, 1e-3, name, m1=m1)
    assert res.theorem == expect
    assert res.valid
    assert bd.THEOREMS[name][0] in ("probability", "residual")


def test_corollary_needs_a_symmetric_density():
    # gamma is one-sided; its class_alpha = 0.5 picks the fv variant
    with pytest.raises(NotSymmetric):
        hn.theorem_bound(gamma(), 0.5, 1e-3, "corollary", m1=0.3)


def test_corollary_iv_general_needs_the_global_bound_and_uses_it():
    model = dataclasses.replace(stable(1.5, 1.0), global_M=None)
    with pytest.raises(MissingGlobalM):
        hn.theorem_bound(model, 0.5, 1e-3, "corollary_iv_general", m1=1.0)
    # M2 = max(class_M, global_M), as in lambda2bis
    model = dataclasses.replace(stable(1.5, 1.0), global_M=2.0)
    res = hn.theorem_bound(model, 0.5, 1e-3, "corollary_iv_general", m1=1.0)
    lam = lambda_(model, 0.5).value
    assert res == bd.bound_stable_type(1.0, 2.0, 1.5, 0.5, 1e-3,
                                       "iv_general", lam)


def test_corollary_iv_lipschitz_checks_the_certificate_and_uses_its_m():
    with pytest.raises(MissingLipschitzCert):
        hn.theorem_bound(stable(1.5, 1.0), 0.5, 1e-3,
                         "corollary_iv_lipschitz", m1=1.0)
    weak = parse_model("stable(1.5,1); lipschitz=5:0.2:2:1")
    with pytest.raises(CertTooWeak):
        hn.theorem_bound(weak, 0.9, 1e-3, "corollary_iv_lipschitz", m1=1.0)
    # M2 = max(class_M, m_lip) = 2.4, as in lambda2
    model = parse_model(_CAUCHY_LIP)
    res = hn.theorem_bound(model, 0.9, 1e-3, "corollary_iv_lipschitz",
                           m1=1.0 / math.pi)
    expect = bd.bound_stable_type(1.0 / math.pi, 2.4, 1.0, 0.9, 1e-3,
                                  "iv_lipschitz", lambda_(model, 0.9).value)
    assert (res, res.constants_used) == (expect, expect.constants_used)


# === residual curves =========================================================


def test_residual_curve_closed_truth():
    model = cauchy()
    grid = [0.01, 0.001, 0.005]  # deliberately unsorted
    curve = hn.residual_curve(model, 1.0, grid)
    assert [p.t for p in curve.points] == sorted(grid)
    assert curve.truth_source == "closed"
    assert curve.lambda_eps == pytest.approx(2.0 / math.pi, rel=1e-12)
    for p in curve.points:
        assert p.truth == pytest.approx(2.0 / math.pi * math.atan2(p.t, 1.0),
                                        rel=1e-12)
        assert p.residual == pytest.approx(p.truth - p.lambda_t, rel=1e-9)


def test_residual_curve_truth_gating():
    no_tail = power_law(1.0, 0.5)
    with pytest.raises(TruthUnavailable, match="closed-form tail"):
        hn.residual_curve(no_tail, 0.5, [0.01])
    with pytest.raises(TruthUnavailable, match="seeded stream"):
        hn.residual_curve(cauchy(), 0.5, [0.01], truth="mc")
    with pytest.raises(TruthUnavailable, match="unknown truth"):
        hn.residual_curve(cauchy(), 0.5, [0.01], truth="exact")


def test_residual_curve_mc_truth_brackets_closed():
    model = cauchy()
    curve = hn.residual_curve(model, 1.0, [0.02, 0.05], truth="mc",
                              stream=SeededStream(41), n=100_000)
    for p in curve.points:
        exact = model.closed.tail(1.0, p.t).value
        assert p.ci_low <= exact <= p.ci_high


# === rate fits ===============================================================


def _synthetic_curve(slope, coef=0.7, n=10):
    ts = np.geomspace(1e-4, 1e-2, n)
    pts = tuple(
        hn.ResidualPoint(t=float(t), truth=coef * t ** slope, ci_low=0.0,
                         ci_high=1e-16, lambda_t=0.0,
                         residual=coef * t ** slope)
        for t in ts
    )
    return hn.ResidualCurve(eps=1.0, lambda_eps=0.0, truth_source="closed",
                            points=pts)


def test_fit_rate_recovers_exact_power_law():
    fit = hn.fit_rate(_synthetic_curve(2.5))
    assert fit.slope == pytest.approx(2.5, abs=1e-9)
    assert fit.intercept == pytest.approx(math.log(0.7), abs=1e-9)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.points_used == 10


def test_fit_rate_respects_t_range():
    fit = hn.fit_rate(_synthetic_curve(3.0), t_range=(1e-3, 1e-2))
    assert fit.t_range[0] >= 1e-3
    assert fit.points_used < 10
    assert fit.slope == pytest.approx(3.0, abs=1e-9)


def test_fit_rate_drops_unresolved_points():
    # residuals buried inside wide truth intervals carry no rate signal
    ts = np.geomspace(1e-4, 1e-2, 6)
    pts = tuple(
        hn.ResidualPoint(t=float(t), truth=t * t, ci_low=0.0, ci_high=t * t,
                         lambda_t=0.0, residual=t * t)
        for t in ts
    )
    curve = hn.ResidualCurve(eps=1.0, lambda_eps=0.0, truth_source="mc",
                             points=pts)
    with pytest.raises(TooFewPoints):
        hn.fit_rate(curve)


def test_fit_rate_needs_three_points():
    with pytest.raises(TooFewPoints):
        hn.fit_rate(_synthetic_curve(2.0, n=2))


def test_cauchy_residual_rate_is_cubic():
    # atan expansion: P - t lambda = -(2/pi) t^3 / 3 + O(t^5) at eps = 1
    curve = hn.residual_curve(cauchy(), 1.0, hn.t_log_grid(1e-4, 1e-2))
    fit = hn.fit_rate(curve)
    assert fit.slope == pytest.approx(3.0, abs=0.05)


# === validation ==============================================================


def test_validate_bounds_cauchy_passes():
    report = hn.validate_bounds(cauchy(), [0.5, 1.0],
                                hn.t_log_grid(1e-3, 1e-2),
                                theorem="lambda2bis")
    assert report.passed
    assert report.n_fail == 0
    assert report.n_pass == len(report.rows)
    for row in report.rows:
        assert row.status == "PASS"
        assert row.bound >= abs(row.residual) - (row.ci_high - row.ci_low)
        assert row.theorem == "lambda2bis"


def test_validate_bounds_marks_out_of_window_rows_skip():
    report = hn.validate_bounds(cauchy(), [1.0], [0.01, 0.45, 0.7],
                                theorem="lambda2bis")
    by_t = {round(r.t, 3): r.status for r in report.rows}
    assert by_t[0.01] == "PASS"
    assert by_t[0.7] == "SKIP"  # t_max = 0.5 at eps = 1
    assert report.passed  # SKIPs do not fail a report


def test_validate_bounds_detects_lying_truth():
    # graft a constant fake tail onto the Cauchy model: the residual bound
    # cannot cover a truth that never decays
    fake = ClosedFunctionals(
        lambda_=lambda a: 2.0 / (math.pi * a),
        sigma2=lambda a: 2.0 * a / math.pi,
        drift=lambda eps: 0.0,
        tail=lambda eps, t: ExactTail(value=0.9, abs_error_estimate=0.0,
                                      method="constant"),
    )
    liar = dataclasses.replace(cauchy(), closed=fake)
    report = hn.validate_bounds(liar, [1.0], [0.01, 0.02], theorem="lambda2bis")
    assert not report.passed
    assert report.n_fail == len(report.rows)


def test_validate_bounds_probability_theorem_uses_one_sided_slack():
    # the Cauchy truth lies below t lambda, so a two-sided certificate
    # would count t lambda - ci_high against these bounds
    models = {"ps1": gamma(), "ps2": cauchy(), "lemma_sj": cauchy(),
              "markov": cauchy()}
    assert set(models) == {name for name, (kind, *_) in bd.THEOREMS.items()
                           if kind == "probability"}
    for name, model in models.items():
        report = hn.validate_bounds(model, [0.5], hn.t_log_grid(1e-3, 1e-2),
                                    theorem=name)
        assert report.passed
        for row in report.rows:
            assert row.theorem == name
            excess = max(0.0, row.ci_low - row.lambda_eps * row.t)
            assert row.margin == row.bound - excess


@pytest.mark.parametrize("truth, stream, match", [
    ("bogus", SeededStream(0), "unknown truth"),
    ("mc", None, "seeded stream"),
    ("closed", None, "closed-form tail"),
])
def test_validate_bounds_rejects_unusable_truth_before_any_row(truth, stream,
                                                              match):
    # eps = 5 lies outside ps1's domain, so the loop alone would emit no row
    # and report a pass
    with pytest.raises(TruthUnavailable, match=match):
        hn.validate_bounds(power_law(1.0, 0.5), [5.0], [0.01], theorem="ps1",
                           truth=truth, stream=stream)


def test_validate_bounds_mc_truth():
    report = hn.validate_bounds(cauchy(), [1.0], [0.02, 0.05], truth="mc",
                                stream=SeededStream(13), n=50_000,
                                theorem="lambda2bis")
    assert report.passed
    for row in report.rows:
        assert row.ci_high > row.ci_low


# === worked example with a discontinuous density =============================


def test_discontinuous_example_is_class_member():
    model = hn.discontinuous_example(1.5, 1.0)
    assert verify_class_membership(model)
    assert model.symmetric
    assert model.class_M == 1.0
    # the notch drops the density just past eps, never above the envelope
    assert model.density(1.1) == pytest.approx(0.2 * 1.1 ** -2.5, rel=1e-12)
    assert model.density(0.9) == pytest.approx(0.9 ** -2.5, rel=1e-12)
    assert model.density(1.7) == pytest.approx(1.7 ** -2.5, rel=1e-12)


def test_discontinuous_example_global_bound():
    # essential sup beyond 1; the boundary point itself belongs to the
    # inner piece
    model = hn.discontinuous_example(1.5, 1.0)
    xs = np.linspace(1.0001, 2.0, 2001)
    assert float(np.max(model.density(xs))) <= model.global_M + 1e-12


def test_discontinuous_example_gating():
    with pytest.raises(AlphaOutOfRange):
        hn.discontinuous_example(0.5, 1.0)
    with pytest.raises(AlphaOutOfRange):
        hn.discontinuous_example(2.0, 1.0)
    with pytest.raises(InvalidCutoff):
        hn.discontinuous_example(1.5, 2.5)
    with pytest.raises(InvalidCutoff):
        hn.discontinuous_example(1.5, 1.0, notch_depth=0.0)
    with pytest.raises(InvalidCutoff):
        hn.discontinuous_example(1.5, 1.0, notch_width=-0.1)


def test_discontinuous_example_lambda_is_piecewise():
    model = hn.discontinuous_example(1.5, 1.0, notch_depth=0.8,
                                     notch_width=0.5)
    # beyond the notch the intensity matches the plain truncated power law
    plain = power_law(1.0, 1.5)
    assert lambda_(model, 1.6).value == pytest.approx(
        lambda_(plain, 1.6).value, rel=1e-10)
    # inside the notch it is strictly smaller
    assert lambda_(model, 1.0).value < lambda_(plain, 1.0).value
