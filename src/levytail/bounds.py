"""Explicit non-asymptotic tail bounds for Levy processes of stable type.

Decompose X_t = t b(eps) + M_t(eps) + Z_t(eps) into the truncation drift, the
compensated small-jump martingale and the large-jump compound Poisson part.
For densities dominated by M |x| ** -(1 + alpha) near the origin this module
evaluates, with fully explicit constants:

* Chernoff bounds on P(|M_t(eps)| > x), with a refined variant when
  t sigma2(eps) <= eps^2 and a Gaussian-augmented variant,
* small-time bounds on P(|t b(eps) + M_t(eps)| >= eps) of order t^2
  (finite variation) and t^(1 + 1/alpha) (infinite variation),
* bounds on the CDF residual |P(|X_t| >= eps) - t lambda_eps|, in four
  regimes: finite variation, symmetric infinite variation with a bounded
  density, and symmetric infinite variation with a Lipschitz certificate,
* a rephrasing of the residual bounds purely in terms of t lambda_eps for
  densities bracketed between two stable envelopes,
* the centering gap of a compensated compound Poisson expectation.

Every bound is returned as a :class:`BoundResult` carrying the validity
window, the decay exponent in t and the constants that built the value.
Probability bounds are clamped to [0, 1] (the raw value is preserved under
``constants_used["raw_value"]``); residual bounds are reported unclamped.
Exceeding the validity window is reported through ``valid=False`` rather than
an exception, so overlaying a bound curve against its window is one loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import (
    AlphaOutOfRange,
    DegenerateSigma,
    InvalidCutoff,
    LambdaOutOfRange,
    MissingGlobalM,
    MissingLipschitzCert,
    CertTooWeak,
    NoApplicableBound,
    NotSymmetric,
    UndeclaredVariation,
    WindowViolated,
    WrongVariation,
)
from .levy_model import LevyModel, drift_b, lambda_, sigma2

__all__ = [
    "BoundResult",
    "constants",
    "chernoff_small_jumps",
    "chernoff_with_gaussian",
    "markov_baseline",
    "bound_smalljump_fv",
    "bound_cdf_fv",
    "bound_smalljump_iv",
    "bound_cdf_iv_general",
    "bound_cdf_iv_lipschitz",
    "bound_stable_type",
    "ccpp_centering_gap",
    "auto_select",
]

_E_2E = math.exp(2.0 + 1.0 / math.e)
_E_3E = math.exp(3.0 + 1.0 / math.e)


@dataclass(frozen=True)
class BoundResult:
    """One evaluated bound: its value, provenance and validity window."""

    value: float
    theorem: str
    t_max: float
    valid: bool
    rate_exponent: float
    constants_used: dict = field(compare=False)


# === the constants table =====================================================


def constants(alpha: float, M: Optional[float] = None,
              eps: Optional[float] = None) -> dict:
    """All explicit constants defined at this alpha.

    Constants for the finite-variation family need alpha in (0, 1); the
    infinite-variation family needs alpha in [1, 2), with K2 restricted to
    alpha > 1.  G1, G2 and L1 additionally need the class constant ``M``;
    K5 and F3 additionally need the level ``eps`` (they are only defined for
    eps > 1).  At alpha = 1 the K4 and K5 entries use the limiting forms the
    alpha > 1 expressions degenerate to (a log replaces the 1/(alpha - 1)
    pole), triggered on exact equality alpha == 1.0.
    """
    if not 0.0 < alpha < 2.0:
        raise AlphaOutOfRange(f"alpha must lie in (0, 2), got {alpha}")
    a = alpha
    out: dict = {}

    if a < 1.0:
        c1a = 2.0 ** (1.0 + 4.0 * a) / (a * (2.0 - a))
        c2a = (
            2.0 ** (2.0 + a) / (1.0 - a)
            + 2.0 ** (4.0 * a + 3.0)
            * (2.0 ** (1.0 - a) * a * (2.0 - a) + 2.0 + a)
            / (a * (2.0 - a) * (1.0 - a) * 3.0 ** (1.0 + a))
            + 28.0 * 4.0 ** (2.0 * a) / (a * a * (2.0 - a))
            + 2.0 ** (1.0 + 4.0 * a) / (a * (2.0 - a))
        )
        out["C1a"] = c1a
        out["C2a"] = c2a
        out["C1"] = 16.0 + 64.0 / (a * a) + c1a + c2a
        out["C2"] = (
            3.0 * 2.0 ** (2.0 * a - 1.0) * _E_2E / (2.0 - a) ** 2
            + 4.0 ** (1.0 + a) / (a * (1.0 - a) * (2.0 - a))
            + 4.0 ** a / (a * a)
        )
        out["D1"] = (4.0 / (1.0 - a)) * (3.0 + (2.0 + a) / (a * (2.0 - a)))
        out["D2"] = 4.0 * (
            1.0 / (2.0 - a) + 1.0
            + 2.0 ** a * (2.0 + (2.0 + a) / (a * (2.0 - a)))
        )
        out["D3"] = 2.0 * (2.0 + a) / ((2.0 - a) * a * (1.0 - a))
        out["tildeD1"] = 5.0 / (1.0 - a) + 10.0 / (a * (2.0 - a) * (1.0 - a))
        return out

    # alpha in [1, 2)
    out["E1"] = (
        4.0 * _E_2E / (2.0 - a) ** 2
        + 4.0 ** (1.0 + a) / (a * a)
        + 2.0 ** (a + 1.0) / (9.0 * a * (2.0 - a))
    )
    out["K1"] = 4.0 ** (1.0 + a) * (_E_2E / (2.0 - a) ** 2 + 1.0 / (a * a))
    if a > 1.0:
        out["K2"] = 2.0 ** (1.0 + 3.0 * a) / (a * (2.0 - a) * (a - 1.0))
    out["K3"] = 2.0 ** (3.0 * (1.0 + a)) * _E_3E / (a * (2.0 - a) ** 3)
    if a > 1.0:
        k4_mid = 2.0 ** (3.0 * a) / (a * (a - 1.0) * (2.0 - a))
    else:
        k4_mid = 2.0 ** (2.0 + a) * math.log(3.0) / (a * (2.0 - a))
    out["K4"] = (
        2.0 ** (2.0 * a - 1.0) / (a * (2.0 - a) ** 2)
        + k4_mid
        + 2.0 ** (4.0 * a + 1.0) / (21.0 ** a * a * (2.0 - a))
        + 2.0 ** (2.0 * a + 2.0) / (a * (2.0 - a))
    )
    out["K6"] = 2.0 ** (2.0 * a + 1.0) / (3.0 ** a * (2.0 - a))

    log_terms = 64.0 * math.log(2.0) if a == 1.0 else 0.0
    k2_terms = 2.0 * out["K2"] if a > 1.0 else 0.0
    out["F1"] = 2.0 * out["K1"] + k2_terms + out["K4"] + log_terms + 6.0 / (a * a)
    out["F4"] = 2.0 * out["K1"] + k2_terms + log_terms + 6.0 / (a * a)
    out["F2"] = out["K6"]
    out["F5"] = 2.0 * out["K3"]

    if eps is not None and eps > 1.0:
        if eps < 1.5:
            if a > 1.0:
                k5_mid = 2.0 ** (3.0 * a) / (a * (a - 1.0) * (2.0 - a))
            else:
                k5_mid = (2.0 ** (2.0 + a) * math.log(3.0 / (4.0 * eps - 3.0))
                          / (a * (2.0 - a)))
            out["K5"] = 8.0 * 0.75 ** (2.0 - a) / (a * (2.0 - a) ** 2) + k5_mid
        else:
            out["K5"] = 4.0 ** (1.0 + a) / (3.0 ** a * (2.0 - a))
        out["F3"] = out["K5"]

    if M is not None:
        if M <= 0.0:
            raise AlphaOutOfRange(f"M must be positive, got {M}")
        c_low = min(1.0, (2.0 - a) / (2.0 * M)) ** (1.0 / a)
        out["C_low"] = c_low
        l1 = 6.0 * M / c_low
        if a > 1.0:
            l1 += 24.0 * M * M * c_low ** (a - 1.0) / (a * (2.0 - a) * (a - 1.0))
        out["L1"] = l1
        g1 = l1
        if a > 1.0:
            g1 += 2.0 ** (2.0 + a) * M * (1.0 + M / (a * (2.0 - a) * (a - 1.0)))
        else:
            g1 += 4.0 * M * M * (_E_2E + 37.0 / 9.0) + 4.0 * M
        out["G1"] = g1
        out["G2"] = 8.0 * M * M / (a * (2.0 - a)) + (
            M * M * out["E1"] if a > 1.0 else 0.0
        )
    return out


# === Chernoff bounds on the small-jump martingale ============================


def _general_log(x: float, eps: float, t: float,
                 s2: float) -> tuple[float, float]:
    # log of the one-sided general Chernoff factor
    #   exp(x/eps) (t s2 / (x eps + t s2)) ** ((x eps + t s2) / eps^2)
    # together with log(1 + x eps / (t s2)), which the Gaussian variant reuses.
    lg = math.log1p(x * eps / (t * s2))
    return x / eps - (x * eps + t * s2) / (eps * eps) * lg, lg


def _check_level(eps: float, t: float, x: float) -> None:
    if not 0.0 < eps <= 1.0:
        raise InvalidCutoff(f"the small-jump bounds need eps in (0, 1], got {eps}")
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    if x <= 0.0:
        raise ValueError(f"the level x must be positive, got {x}")


def _clamped(raw: float, theorem: str, t_max: float, valid: bool,
             rate: float, consts: dict) -> BoundResult:
    value = min(1.0, max(0.0, raw))
    if value != raw:
        consts = {**consts, "raw_value": raw}
    return BoundResult(value=value, theorem=theorem, t_max=t_max, valid=valid,
                       rate_exponent=rate, constants_used=consts)


def chernoff_small_jumps(model: LevyModel, eps: float, t: float,
                         x: Optional[float] = None,
                         two_sided: bool = True) -> BoundResult:
    """Chernoff bound on P(|M_t(eps)| > x) (or one side of it).

    The general form is 2 exp(x/eps) (t s / (x eps + t s)) ** ((x eps + t s)
    / eps^2) with s = t-free sigma2(eps).  When t sigma2(eps) <= eps^2 the
    refined one-sided form (e sigma2(eps) / eps^2) ** (x/eps) e^(1/e) t^(x/eps)
    is also evaluated and the smaller of the two is returned per side.
    ``x`` defaults to eps.
    """
    if x is None:
        x = eps
    _check_level(eps, t, x)
    s2 = sigma2(model, eps).value
    consts: dict = {"sigma2_eps": s2, "x": x, "two_sided": two_sided}
    if s2 == 0.0:
        consts["degenerate"] = True
        return BoundResult(value=0.0, theorem="lemma_sj", t_max=math.inf,
                           valid=True, rate_exponent=x / eps,
                           constants_used=consts)
    log_gen, _ = _general_log(x, eps, t, s2)
    general = math.exp(log_gen)
    one_sided = general
    consts["general_one_sided"] = general
    ratio = t * s2 / (eps * eps)
    if ratio <= 1.0:
        log_ref = (x / eps) * (1.0 + math.log(s2 / (eps * eps)) + math.log(t)) \
            + 1.0 / math.e
        refined = math.exp(log_ref)
        consts["refined_one_sided"] = refined
        one_sided = min(one_sided, refined)
    raw = 2.0 * one_sided if two_sided else one_sided
    return _clamped(raw, "lemma_sj", math.inf, True, x / eps, consts)


def chernoff_with_gaussian(model: LevyModel, Sigma: float, eps: float,
                           t: float, x: Optional[float] = None) -> BoundResult:
    """One-sided Chernoff bound with an independent Gaussian component.

    Bounds P(Sigma W_t + M_t(eps) > x) by the general small-jump factor times
    exp(t Sigma^2 / (2 eps^2) log^2(1 + x eps / (t sigma2(eps)))).  With
    Sigma = 0 this reproduces the one-sided general bound exactly.
    """
    if x is None:
        x = eps
    _check_level(eps, t, x)
    if Sigma < 0.0:
        raise ValueError(f"Sigma must be nonnegative, got {Sigma}")
    s2 = sigma2(model, eps).value
    if s2 == 0.0:
        raise DegenerateSigma(
            "the Gaussian-augmented bound needs sigma2(eps) > 0; "
            "with no small jumps use a plain Gaussian tail instead"
        )
    log_gen, lg = _general_log(x, eps, t, s2)
    raw = math.exp(log_gen + t * Sigma * Sigma / (2.0 * eps * eps) * lg * lg)
    consts = {"sigma2_eps": s2, "x": x, "Sigma": Sigma,
              "gaussian_exponent": t * Sigma * Sigma / (2.0 * eps * eps) * lg * lg}
    return _clamped(raw, "lemma_sj_gauss", math.inf, True, x / eps, consts)


def markov_baseline(model: LevyModel, eps: float, t: float,
                    x: Optional[float] = None) -> float:
    """Chebyshev baseline min(1, t sigma2(eps) / x^2), x defaulting to eps."""
    if x is None:
        x = eps
    _check_level(eps, t, x)
    return min(1.0, t * sigma2(model, eps).value / (x * x))


# === small-time bounds, finite variation =====================================


def _require_fv(model: LevyModel, what: str) -> None:
    if not 0.0 < model.class_alpha < 1.0:
        raise AlphaOutOfRange(
            f"{what} needs class_alpha in (0, 1), got {model.class_alpha}"
        )
    if model.variation is None:
        raise UndeclaredVariation(f"{what} needs the model to declare finite variation")
    if model.variation != "finite":
        raise WrongVariation(f"{what} holds for finite-variation models only")


def bound_smalljump_fv(model: LevyModel, eps: float, t: float) -> BoundResult:
    """P(|t b(eps) + M_t(eps)| >= eps) <= 2 t^2 M^2 C eps^(-2 alpha).

    C is C1 in general, valid for t <= (1 - alpha) eps^alpha / (M 4^(1+alpha)),
    and C2 for symmetric densities, valid for
    t <= eps^alpha (2 - alpha) / (M 2^(alpha+1)).
    """
    _require_fv(model, "the finite-variation small-jump bound")
    if not 0.0 < eps <= 1.0:
        raise InvalidCutoff(f"eps must lie in (0, 1], got {eps}")
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    a, m = model.class_alpha, model.class_M
    cs = constants(a)
    if model.symmetric:
        cname, c = "C2", cs["C2"]
        t_max = eps ** a * (2.0 - a) / (m * 2.0 ** (a + 1.0))
    else:
        cname, c = "C1", cs["C1"]
        t_max = (1.0 - a) * eps ** a / (m * 4.0 ** (1.0 + a))
    raw = 2.0 * t * t * m * m * c * eps ** (-2.0 * a)
    return _clamped(raw, "ps1", t_max, t <= t_max, 2.0,
                    {cname: c, "M": m, "symmetric": model.symmetric})


def bound_cdf_fv(model: LevyModel, eps: float, t: float) -> BoundResult:
    """|P(|X_t| >= eps) - t lambda_eps| for finite variation, alpha in (0, 1).

    Four regimes: eps <= 1 or eps > 1, crossed with symmetric or general.
    The eps > 1 regimes additionally require the density to be bounded by
    global_M beyond 1 and use M = max(class_M, global_M) throughout.
    """
    _require_fv(model, "the finite-variation residual bound")
    if eps <= 0.0:
        raise InvalidCutoff(f"eps must be positive, got {eps}")
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    a = model.class_alpha
    cs = constants(a)
    consts: dict = {}

    if eps <= 1.0:
        m = model.class_M
        lam_eps = lambda_(model, eps).value
        consts.update(M=m, lambda_eps=lam_eps)
        if model.symmetric:
            t_max = eps ** a * (2.0 - a) / (m * 2.0 ** (a + 1.0))
            lam_2eps = lambda_(model, 2.0 * eps).value
            raw = (
                2.0 * t * t * m * m * eps ** (-2.0 * a) * (cs["C2"] + cs["D3"])
                + (t * t * m / (2.0 * (2.0 - a)))
                * (lam_eps + 4.0 * lam_2eps) * eps ** -a
                + 2.0 * t * t * lam_eps * lam_eps
            )
            consts.update(branch="symmetric_small_eps", C2=cs["C2"],
                          D3=cs["D3"], lambda_2eps=lam_2eps)
        else:
            t_max = (1.0 - a) * eps ** a / (m * 4.0 ** (1.0 + a))
            raw = (
                t * t * m * m * eps ** (-2.0 * a) * (2.0 * cs["C1"] + cs["D1"])
                + t * t * m * lam_eps * eps ** -a * cs["D2"]
                + 2.0 * t * t * lam_eps * lam_eps
            )
            consts.update(branch="general_small_eps", C1=cs["C1"],
                          D1=cs["D1"], D2=cs["D2"])
    else:
        if model.global_M is None:
            raise MissingGlobalM(
                "the residual bound beyond eps = 1 needs a declared bound on "
                "sup of f over |x| >= 1"
            )
        m = max(model.class_M, model.global_M)
        lam1 = lambda_(model, 1.0).value
        consts.update(M=m, lambda_1=lam1)
        if model.symmetric:
            t_max = (2.0 - a) / (m * 2.0 ** (a + 1.0))
            lam_1pe = lambda_(model, 1.0 + eps).value
            raw = (
                2.0 * t * t * m * m * cs["C2"]
                + (t * t * m / (2.0 - a))
                * (lam1 * 2.0 ** -a + 4.0 * m / (a * (1.0 - a)) + lam_1pe)
                + 2.0 * t * t * lam1 * lam1
            )
            consts.update(branch="symmetric_large_eps", C2=cs["C2"],
                          lambda_1_plus_eps=lam_1pe)
        else:
            t_max = (1.0 - a) / (5.0 * m)
            b1 = abs(drift_b(model, 1.0).value)
            lam2 = lambda_(model, 2.0).value
            drift_reach = 2.0 * m * t * t * (4.0 / (2.0 - a)) \
                * (eps - 1.5 - t * b1) if eps > 1.5 + t * b1 else 0.0
            near_one = 4.0 * 5.0 ** a if 1.0 < eps < 1.0 + 2.0 * t * b1 else 0.0
            raw = (
                2.0 * m * m * t * t * (cs["tildeD1"] + cs["C1"])
                + 2.0 * t * t * lam1 * lam1
                + drift_reach
                + m * t * t * (near_one + 8.0 / 5.0 + 1.5 * lam2
                               + 4.0 * lam1 / (2.0 - a))
            )
            consts.update(branch="general_large_eps", C1=cs["C1"],
                          tildeD1=cs["tildeD1"], b1_abs=b1, lambda_2=lam2)

    return BoundResult(value=raw, theorem="teo1", t_max=t_max,
                       valid=t < t_max, rate_exponent=2.0,
                       constants_used=consts)


# === small-time bounds, infinite variation ===================================


def _require_iv_sym(model: LevyModel, what: str) -> None:
    if not 1.0 <= model.class_alpha < 2.0:
        raise AlphaOutOfRange(
            f"{what} needs class_alpha in [1, 2), got {model.class_alpha}"
        )
    if not model.symmetric:
        raise NotSymmetric(f"{what} holds for symmetric densities only")


def bound_smalljump_iv(model: LevyModel, eps: float, t: float,
                       two_sided: bool = True) -> BoundResult:
    """P(|M_t(eps)| >= eps) for symmetric densities with alpha in [1, 2).

    For alpha > 1 the bound is
    2^(2+alpha) M t^(1 + 1/alpha) eps^-(1+alpha) (1 + M / (alpha (2-alpha)
    (alpha-1))) + 2 t^2 M^2 E1 eps^(-2 alpha), already covering both sides.
    For alpha = 1 the stated bound is one-sided and is doubled when
    ``two_sided``.  Valid for t < (eps/2)^alpha min(1, (2-alpha)/(2M)).
    """
    _require_iv_sym(model, "the infinite-variation small-jump bound")
    if not 0.0 < eps <= 1.0:
        raise InvalidCutoff(f"eps must lie in (0, 1], got {eps}")
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    a, m = model.class_alpha, model.class_M
    t_max = (eps / 2.0) ** a * min(1.0, (2.0 - a) / (2.0 * m))
    if a > 1.0:
        e1 = constants(a)["E1"]
        raw = (
            2.0 ** (2.0 + a) * m * t ** (1.0 + 1.0 / a) / eps ** (1.0 + a)
            * (1.0 + m / (a * (2.0 - a) * (a - 1.0)))
            + 2.0 * t * t * m * m * e1 * eps ** (-2.0 * a)
        )
        consts = {"E1": e1, "M": m, "two_sided_already": True}
        rate = 1.0 + 1.0 / a
    else:
        per_side = (
            (4.0 * t * t * m * m / (eps * eps)) * (_E_2E + 37.0 / 9.0)
            + 4.0 * m * t * t / (eps * eps)
            + (16.0 * m * m / (eps * eps)) * t * t * math.log(eps / (2.0 * t))
        )
        raw = 2.0 * per_side if two_sided else per_side
        consts = {"M": m, "per_side": per_side, "log_factor": math.log(eps / (2.0 * t))}
        rate = 2.0
    return _clamped(raw, "ps2", t_max, t < t_max, rate, consts)


def bound_cdf_iv_general(model: LevyModel, eps: float, t: float) -> BoundResult:
    """|P(|X_t| >= eps) - t lambda_eps| for symmetric alpha in [1, 2).

    Needs the density bounded by global_M beyond 1; M = max(class_M,
    global_M).  Writing e1 = min(eps, 1), the bound is

        G1 t^(1+1/alpha) / e1^(1+alpha) + G2 t^2 / e1^(2 alpha)
        + 5 M t^2 lambda_1 / ((2-alpha) e1^2)
        + 4 M^2 t^2 eps / (2-alpha)                     (only for eps > 2)
        + alpha = 1 log corrections
        + 2 t^2 lambda_e1^2,

    valid for t < (e1/2)^alpha min(1, (2-alpha)/(2M)).  At alpha = 1 the
    corrections are M^2 t^2 (12/e1) log(C w / t) with w = min(1, eps,
    max(eps-1, 0)) (dropped when w = 0) and M^2 t^2 (16/eps^2) log(eps/(2t)),
    where C = min(1, (2-alpha)/(2M))^(1/alpha).
    """
    _require_iv_sym(model, "the bounded-density residual bound")
    if eps <= 0.0:
        raise InvalidCutoff(f"eps must be positive, got {eps}")
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    if model.global_M is None:
        raise MissingGlobalM(
            "the bounded-density residual bound needs a declared bound on "
            "sup of f over |x| >= 1"
        )
    a = model.class_alpha
    m = max(model.class_M, model.global_M)
    cs = constants(a, M=m)
    e1 = min(eps, 1.0)
    t_max = (e1 / 2.0) ** a * min(1.0, (2.0 - a) / (2.0 * m))
    lam1 = lambda_(model, 1.0).value
    lam_e1 = lambda_(model, e1).value

    raw = (
        cs["G1"] * t ** (1.0 + 1.0 / a) / e1 ** (1.0 + a)
        + cs["G2"] * t * t / e1 ** (2.0 * a)
        + 5.0 * m * t * t * lam1 / ((2.0 - a) * e1 * e1)
        + 2.0 * t * t * lam_e1 * lam_e1
    )
    consts = {"G1": cs["G1"], "G2": cs["G2"], "M": m, "lambda_1": lam1,
              "lambda_min_eps_1": lam_e1}
    if eps > 2.0:
        far = 4.0 * m * m * t * t * eps / (2.0 - a)
        raw += far
        consts["far_term"] = far
    if a == 1.0:
        w = min(1.0, eps, max(eps - 1.0, 0.0))
        if w > 0.0:
            near = m * m * t * t * (12.0 / e1) * math.log(cs["C_low"] * w / t)
            raw += near
            consts["log_near_term"] = near
        wide = m * m * t * t * (16.0 / (eps * eps)) * math.log(eps / (2.0 * t))
        raw += wide
        consts["log_wide_term"] = wide
    return BoundResult(value=raw, theorem="lambda2bis", t_max=t_max,
                       valid=t < t_max, rate_exponent=1.0 + 1.0 / a,
                       constants_used=consts)


def bound_cdf_iv_lipschitz(model: LevyModel, eps: float, t: float) -> BoundResult:
    """|P(|X_t| >= eps) - t lambda_eps| under a Lipschitz certificate.

    The certificate must cover (0.75 e1, 2 eps - 0.75 e1) with e1 =
    min(eps, 1) and assert a Lipschitz constant at most
    M e1^-(2+alpha) for M = max(class_M, certificate M); otherwise
    :class:`MissingLipschitzCert` or :class:`CertTooWeak` is raised.  Valid
    for t <= (2-alpha) e1^alpha / (2^(1+alpha) M), nonstrict.
    """
    _require_iv_sym(model, "the Lipschitz residual bound")
    if eps <= 0.0:
        raise InvalidCutoff(f"eps must be positive, got {eps}")
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    cert = model.lipschitz_cert
    if cert is None:
        raise MissingLipschitzCert(
            "the Lipschitz residual bound needs a Lipschitz certificate on "
            "the density"
        )
    a = model.class_alpha
    e1 = min(eps, 1.0)
    lo_req, hi_req = 0.75 * e1, 2.0 * eps - 0.75 * e1
    if cert.lo > lo_req or cert.hi < hi_req:
        raise MissingLipschitzCert(
            f"certificate covers ({cert.lo:g}, {cert.hi:g}) but eps = {eps:g} "
            f"needs ({lo_req:g}, {hi_req:g})"
        )
    m = max(model.class_M, cert.m_lip or 0.0)
    required = m * e1 ** -(2.0 + a)
    if cert.constant > required * (1.0 + 1e-12):
        raise CertTooWeak(
            f"certified Lipschitz constant {cert.constant:g} exceeds "
            f"M (eps ^ (2+alpha))^-1 = {required:g}"
        )
    cs = constants(a, eps=eps)
    t_max = (2.0 - a) * e1 ** a / (2.0 ** (1.0 + a) * m)
    lam1 = lambda_(model, 1.0).value
    if eps <= 1.0:
        main = t * t * m * m * (
            cs["F1"] * eps ** (-2.0 * a) + lam1 * eps ** -a * cs["F2"]
        )
        used = {"F1": cs["F1"], "F2": cs["F2"]}
    else:
        main = t * t * m * m * (eps * eps * cs["F3"] + cs["F4"])
        used = {"F3": cs["F3"], "F4": cs["F4"]}
    quartic = t ** 4 * m ** 4 * cs["F5"] / e1 ** (4.0 * a)
    raw = main + 2.0 * t * t * lam1 * lam1 + quartic
    used.update(F5=cs["F5"], M=m, lambda_1=lam1)
    return BoundResult(value=raw, theorem="lambda2", t_max=t_max,
                       valid=t <= t_max, rate_exponent=2.0,
                       constants_used=used)


# === bounds phrased in t lambda_eps ==========================================


def bound_stable_type(M1: float, M2: float, alpha: float, eps: float, t: float,
                      variant: str, lambda_eps: float) -> BoundResult:
    """Residual bounds for densities bracketed between stable envelopes.

    Assumes M1 |x|^-(1+alpha) <= f(x) <= M2 |x|^-(1+alpha), f symmetric, and
    rephrases the residual bounds purely in terms of the product t lambda_eps
    for eps in (0, 1].  Variants:

    * ``fv`` (alpha in (0, 1)):        A (t lambda_eps)^2
    * ``iv_general`` (alpha in [1, 2)): B (t lambda_eps)^(1+1/alpha), times
      log(max(Btilde / (t lambda_eps), e)) at alpha = 1; needs f <= M2 globally
    * ``iv_lipschitz`` (alpha in [1, 2)): C (t lambda_eps)^2; needs f
      Lipschitz as in the windowed residual bound

    each valid on t lambda_eps <= W for a variant-specific window W.
    """
    if not 0.0 < M1 <= M2:
        raise InvalidCutoff(f"need 0 < M1 <= M2, got M1={M1}, M2={M2}")
    if not 0.0 < eps <= 1.0:
        raise InvalidCutoff(f"the stable-type bounds need eps in (0, 1], got {eps}")
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    if lambda_eps <= 0.0:
        raise WindowViolated(
            f"lambda_eps must be positive to place t lambda_eps in the "
            f"window, got {lambda_eps}"
        )
    a = alpha
    prod = t * lambda_eps

    if variant == "fv":
        if not 0.0 < a < 1.0:
            raise AlphaOutOfRange(f"variant 'fv' needs alpha in (0, 1), got {a}")
        cs = constants(a)
        w = 2.0 ** -a * (2.0 - a) / a
        big_a = ((cs["C2"] + cs["D3"]) * M2 * M2 * a * a / (2.0 * M1 * M1)
                 + 5.0 * a * M2 / (4.0 * M1 * (2.0 - a))
                 + 2.0)
        raw = big_a * prod * prod
        consts = {"A": big_a, "W": w, "C2": cs["C2"], "D3": cs["D3"]}
        rate = 2.0
    elif variant == "iv_general":
        if not 1.0 <= a < 2.0:
            raise AlphaOutOfRange(
                f"variant 'iv_general' needs alpha in [1, 2), got {a}"
            )
        cs = constants(a, M=M2)
        u = a / (2.0 * M1)
        w = 2.0 ** (1.0 - a) * M2 * min(1.0, (2.0 - a) / (2.0 * M2)) / a
        big_b = (
            cs["G1"] * u ** (1.0 + 1.0 / a)
            + cs["G2"] * u * u * w ** (1.0 - 1.0 / a)
            + (5.0 * M2 / (2.0 - a)) * (2.0 * M2 / a) * u ** (2.0 / a)
            * (w * u * u) ** (1.0 - 1.0 / a)
            + 2.0 * w ** (1.0 - 1.0 / a)
        )
        if a == 1.0:
            big_b += 16.0 * M2 * M2 * u * u
        btilde = max(M2, math.e * w)
        raw = big_b * prod ** (1.0 + 1.0 / a)
        if a == 1.0:
            # Btilde >= e W: the floor at e acts only outside the window
            raw *= math.log(max(btilde / prod, math.e))
        consts = {"B": big_b, "Btilde": btilde, "W": w, "U": u,
                  "G1": cs["G1"], "G2": cs["G2"]}
        rate = 1.0 + 1.0 / a
    elif variant == "iv_lipschitz":
        if not 1.0 <= a < 2.0:
            raise AlphaOutOfRange(
                f"variant 'iv_lipschitz' needs alpha in [1, 2), got {a}"
            )
        cs = constants(a)
        w = 2.0 ** -a * (2.0 - a) / a
        big_c = (
            M2 * M2 * cs["F1"] * a * a / (4.0 * M1 * M1)
            + M2 * M2 * cs["F2"] * a / (2.0 * M1)
            + 2.0
            + w * w * M2 ** 4 * cs["F5"] * a ** 4 / (16.0 * M1 ** 4)
        )
        raw = big_c * prod * prod
        consts = {"C": big_c, "W": w, "F1": cs["F1"], "F2": cs["F2"],
                  "F5": cs["F5"]}
        rate = 2.0
    else:
        raise ValueError(
            f"unknown variant {variant!r}; expected 'fv', 'iv_general' or "
            f"'iv_lipschitz'"
        )
    return BoundResult(value=raw, theorem="corollary", t_max=w / lambda_eps,
                       valid=prod <= w, rate_exponent=rate,
                       constants_used=consts)


# === compensated compound Poisson centering ==================================


def ccpp_centering_gap(lam: float, mean_jump: float,
                       sup_g: float = 1.0) -> BoundResult:
    """Gap from recentering a compound Poisson functional at one expected jump.

    For N Poisson(lam) and iid jumps Y with mean mean_jump, the difference
    |E g(S_N - lam E Y) - E g(S_N - E Y)| is at most
    2 lam exp(-lam) |E Y| sup|g'| for lam <= 1 and
    2 lam^2 exp(-lam) |E Y| sup|g'| for 1 < lam <= 2.
    """
    if not 0.0 < lam <= 2.0:
        raise LambdaOutOfRange(
            f"the centering gap is stated for lam in (0, 2], got {lam}"
        )
    scale = 2.0 * lam if lam <= 1.0 else 2.0 * lam * lam
    raw = scale * math.exp(-lam) * abs(mean_jump) * sup_g
    return _clamped(raw, "ccpp", math.inf, True, 0.0,
                    {"lam": lam, "mean_jump": mean_jump, "sup_g": sup_g,
                     "branch": "lam<=1" if lam <= 1.0 else "lam>1"})


# === selection ===============================================================


def auto_select(model: LevyModel, eps: float, t: float) -> BoundResult:
    """The best applicable residual bound at (eps, t).

    Tries the finite-variation, bounded-density and Lipschitz residual bounds,
    skipping those whose hypotheses the model does not certify.  Among the
    results, in-window ones are preferred, then the smallest value, then the
    smaller decay exponent.  Raises :class:`NoApplicableBound` when nothing
    applies.
    """
    candidates: list[BoundResult] = []
    for fn in (bound_cdf_fv, bound_cdf_iv_general, bound_cdf_iv_lipschitz):
        try:
            candidates.append(fn(model, eps, t))
        except (AlphaOutOfRange, NotSymmetric, WrongVariation,
                UndeclaredVariation, MissingGlobalM, MissingLipschitzCert,
                CertTooWeak, InvalidCutoff):
            continue
    if not candidates:
        raise NoApplicableBound(
            f"no residual bound applies to model {model.name!r} at eps = {eps:g}"
        )
    in_window = [c for c in candidates if c.valid]
    pool = in_window or candidates
    return min(pool, key=lambda c: (c.value, c.rate_exponent))
