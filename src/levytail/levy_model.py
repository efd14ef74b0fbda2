"""Levy jump-density models: class certificates and measure functionals.

A :class:`LevyModel` describes a pure-jump Levy process through its jump
density ``f`` together with the certificates used by the bound machinery:

* stable-type class: ``f(x) <= class_M * |x| ** -(1 + class_alpha)`` for
  ``0 < |x| <= 2``,
* bounded class: ``sup_{|x| >= 1} f(x) <= global_M`` (optional),
* an optional Lipschitz certificate on a window around the exceedance level.

The functionals computed here are the truncated-measure quantities

    lambda_a  = integral of f(x) over |x| > a,
    sigma2(a) = integral of x^2 f(x) over |x| <= a,
    b(eps)    = integral of x f(x) over |x| <= eps          (finite variation),
              = - integral of x f(x) over eps <= |x| <= 1   (infinite variation),

evaluated from declared closed forms or structured jump parts when available
and by certified quadrature otherwise.  Quadrature targets a relative error of
1e-10 or an absolute error of 1e-12, whichever is looser, and raises
:class:`QuadratureFailure` when it cannot certify that.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import integrate

from . import closed_forms
from .errors import (
    AlphaOutOfRange,
    InvalidCutoff,
    NonIntegrableTail,
    QuadratureFailure,
    UndeclaredVariation,
)

__all__ = [
    "FunctionalValue",
    "TailEnvelope",
    "LipschitzCert",
    "ClosedFunctionals",
    "PowerPart",
    "LevyModel",
    "ClassFunctionalBounds",
    "MembershipReport",
    "lambda_",
    "lambda_band",
    "sigma2",
    "drift_b",
    "band_moment1",
    "class_functional_bounds",
    "verify_class_membership",
    "builtin_model",
    "parse_model",
    "cauchy",
    "gamma",
    "inverse_gaussian",
    "stable",
    "tempered_stable",
    "power_law",
    "cpp_uniform",
]

# Quadrature tolerances: relative 1e-10 / absolute 1e-12, whichever is looser.
_EPSABS = 1e-13
_EPSREL = 1e-11
_TOL_REL = 1e-10
_TOL_ABS = 1e-12

_ULP = 2.220446049250313e-16


@dataclass(frozen=True)
class FunctionalValue:
    """A functional of the jump measure with a certified error estimate."""

    value: float
    abs_error_estimate: float
    source: str  # "closed_form" or "quadrature"

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise QuadratureFailure("functional value is not finite")
        if self.abs_error_estimate < 0.0:
            raise QuadratureFailure("abs_error_estimate must be nonnegative")


@dataclass(frozen=True)
class TailEnvelope:
    """Declared integrable envelope of the density beyond ``beyond``.

    ``kind == "exp"`` asserts f(x) + f(-x) <= coef * exp(-rate * x) and
    ``kind == "power"`` asserts f(x) + f(-x) <= coef * x ** -(1 + rate),
    both for x >= beyond.  The default (coef=1, rate=1, beyond=1, exp) is the
    assumption made for custom densities that declare nothing.
    """

    coef: float = 1.0
    rate: float = 1.0
    beyond: float = 1.0
    kind: str = "exp"

    def __post_init__(self) -> None:
        if self.rate <= 0.0 or self.coef < 0.0 or self.beyond <= 0.0:
            raise NonIntegrableTail(
                "tail envelope must have positive rate and beyond and nonnegative coef"
            )
        if self.kind not in ("exp", "power"):
            raise NonIntegrableTail("tail envelope kind must be 'exp' or 'power'")

    def at(self, x: float) -> float:
        if self.kind == "exp":
            return self.coef * math.exp(-self.rate * x)
        return self.coef * x ** -(1.0 + self.rate)


@dataclass(frozen=True)
class LipschitzCert:
    """Certificate that f is ``constant``-Lipschitz on the interval (lo, hi).

    ``m_lip`` optionally names the class constant under which the Lipschitz
    hypothesis of the window bound is asserted; enlarging the class constant
    is always sound because class membership is monotone in it.
    """

    constant: float
    lo: float
    hi: float
    m_lip: Optional[float] = None


@dataclass(frozen=True)
class ClosedFunctionals:
    """Optional closed-form overrides for the measure functionals, the tail
    and the exact sampler: ``sample(t, rng, n)`` draws n values of X_t."""

    lambda_: Optional[Callable[[float], float]] = None
    sigma2: Optional[Callable[[float], float]] = None
    drift: Optional[Callable[[float], float]] = None
    tail: Optional[Callable[[float, float], "closed_forms.ExactTail"]] = None
    sample: Optional[Callable[[float, np.random.Generator, int], np.ndarray]] = None


# === densities ===============================================================
#
# Quadrature, membership checks and the envelope probe call a density with one
# float; the rejection sampler calls it with arrays.  A float takes numpy's
# ufuncs on the scalar (not Python's ``**`` or ``math.exp``, which round
# differently on some points), so it gets the array path's bits without an
# array round trip.

# |x| ** -3 <= 1e270 above _TINY, so there a kernel (a pole of order below 3
# times a coefficient below 1e38) cannot overflow and a float skips the
# cost of np.errstate.
_TINY = 1e-90


def _on_band(x, kernel: Callable, lo: float = 0.0, hi: float = math.inf,
             side: str = "both"):
    """kernel(|x|) on lo < |x| <= hi and the side ("both", "pos", "neg"), else 0.

    A float gives a float; anything else is read as an array and gives an
    array (a float for 0-d input).  Both are quiet about overflow at the pole.
    """
    if isinstance(x, float):
        ax = abs(x)
        if not lo < ax <= hi or (side != "both" and (x > 0) != (side == "pos")):
            return 0.0
        if ax >= _TINY:
            return float(kernel(ax))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return float(kernel(ax))
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    inside = (ax > lo) & (ax <= hi)
    if side != "both":
        inside &= (x > 0) if side == "pos" else (x < 0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals = np.where(inside, kernel(np.where(ax > 0, ax, 1.0)), 0.0)
    return vals if vals.ndim else float(vals)


# === structured jump parts ===================================================
#
# Builtin densities are sums of power segments with closed-form band masses
# and moments.  "both" parts are symmetric pairs; one-sided parts carry their
# sign.


@dataclass(frozen=True)
class PowerPart:
    """coef * |x| ** -(1 + alpha) on lo < |x| <= hi; alpha = -1 is flat."""

    coef: float
    alpha: float
    lo: float
    hi: float
    side: str = "both"  # "both", "pos" or "neg"

    def density(self, x):
        e = -(1.0 + self.alpha)
        return _on_band(x, lambda a: self.coef * np.power(a, e),
                        self.lo, self.hi, self.side)

    def _clip(self, a: float, b: float) -> tuple[float, float]:
        return max(a, self.lo), min(b, self.hi)

    def _nsides(self) -> int:
        return 2 if self.side == "both" else 1

    def mass(self, a: float, b: float) -> float:
        x1, x2 = self._clip(a, b)
        if x1 >= x2:
            return 0.0
        al = self.alpha
        if al > 0.0:  # x1^-al - x2^-al without cancellation on narrow bands
            diff = x1 ** -al * -math.expm1(-al * math.log1p((x2 - x1) / x1))
        else:
            diff = x1 ** -al - x2 ** -al
        return self._nsides() * self.coef * diff / al

    def moment2(self, a: float, b: float) -> float:
        x1, x2 = self._clip(a, b)
        if x1 >= x2:
            return 0.0
        p = 2.0 - self.alpha
        return self._nsides() * self.coef * (x2 ** p - x1 ** p) / p

    def moment1_signed(self, a: float, b: float) -> float:
        if self.side == "both":
            return 0.0
        x1, x2 = self._clip(a, b)
        if x1 >= x2:
            return 0.0
        if self.alpha == 1.0:
            m = self.coef * math.log(x2 / x1)
        else:
            p = 1.0 - self.alpha
            m = self.coef * (x2 ** p - x1 ** p) / p
        return m if self.side == "pos" else -m

    def breakpoints(self) -> tuple[float, ...]:
        return (self.lo, self.hi)


def _parts_density(parts: Sequence[PowerPart]) -> Callable:
    return lambda x: sum(p.density(x) for p in parts)


# === the model ===============================================================


@dataclass(frozen=True)
class LevyModel:
    """A Levy jump density plus the certificates the bounds rely on."""

    density: Callable
    symmetric: bool
    variation: Optional[str]
    class_alpha: float
    class_M: float
    global_M: Optional[float] = None
    lipschitz_cert: Optional[LipschitzCert] = None
    closed: Optional[ClosedFunctionals] = None
    tail_envelope: Optional[TailEnvelope] = None
    support_radius: Optional[float] = None
    jump_parts: Optional[tuple[PowerPart, ...]] = None
    name: str = "custom"

    def __post_init__(self) -> None:
        if not 0.0 < self.class_alpha < 2.0:
            raise AlphaOutOfRange(
                f"class_alpha must lie in (0, 2), got {self.class_alpha}"
            )
        if self.class_M <= 0.0:
            raise AlphaOutOfRange("class_M must be positive")
        if self.variation not in (None, "finite", "infinite"):
            raise UndeclaredVariation(
                "variation must be 'finite' or 'infinite' when declared"
            )

    def envelope(self) -> TailEnvelope:
        """The declared tail envelope, or the default exp(-x) beyond 1."""
        return self.tail_envelope if self.tail_envelope is not None else TailEnvelope()

    def with_lipschitz(self, cert: LipschitzCert) -> "LevyModel":
        return replace(self, lipschitz_cert=cert)


# === quadrature engine =======================================================


def _quad(fn, lo: float, hi: float, what: str) -> tuple[float, float]:
    with np.errstate(all="ignore"):
        out = integrate.quad(fn, lo, hi, epsabs=_EPSABS, epsrel=_EPSREL,
                             limit=200, full_output=1)
    val, err = out[0], out[1]
    if len(out) > 3 and err > max(10.0 * _EPSABS, abs(val) * 10.0 * _EPSREL):
        # QUADPACK warns about roundoff even when its own error estimate is
        # far inside tolerance; only a warning with a bad estimate is fatal.
        raise QuadratureFailure(
            f"quadrature for {what} on [{lo:g}, {hi:g}] did not converge: {out[3]}"
        )
    return val, err


def _probe_tail_envelope(model: LevyModel, start: float) -> None:
    """Spot-check the density against its declared envelope on a log grid."""
    env = model.envelope()
    lo = max(start, env.beyond)
    for x in np.geomspace(lo, lo * 1e6, 16):
        fx = float(model.density(x)) + float(model.density(-x))
        bound = env.at(float(x))
        if fx > bound * 1.1 + 1e-300:
            raise NonIntegrableTail(
                f"density exceeds its declared tail envelope at |x| = {x:g} "
                f"({fx:g} > {bound:g}); declare a heavier envelope or a closed form"
            )


def _segment_edges(model: LevyModel, lo: float, hi: float) -> list[float]:
    """Quadrature segment edges on [lo, hi], cut at the density's breakpoints;
    empty when the range is."""
    if model.support_radius is not None:
        hi = min(hi, model.support_radius)
    if hi <= lo:
        return []
    breaks = {2.0, model.envelope().beyond}
    if model.jump_parts:
        for part in model.jump_parts:
            breaks.update(part.breakpoints())
    cuts = sorted(b for b in breaks if lo < b < hi and math.isfinite(b))
    return [lo, *cuts, hi]


def _side_integral(model: LevyModel, sign: int, weight: int,
                   edges: list[float]) -> tuple[float, float]:
    """Integral of x**weight * f(sign * x) dx over the segments between edges."""
    f = model.density
    total, toterr = 0.0, 0.0
    for x1, x2 in zip(edges[:-1], edges[1:]):
        if x1 == 0.0:
            # Substitute x = exp(-u): the class envelope makes the integrand
            # decay like exp(-(weight - class_alpha) u).  Integrate only up
            # to where x ** -(1 + alpha) stays representable and charge the
            # envelope remainder to the error estimate; u_hi is chosen so the
            # remainder sits far below the certification tolerances for any
            # reasonable certificate.
            u_lo = -math.log(x2)
            u_hi = max(u_lo + 50.0, 690.0 / (1.0 + model.class_alpha))

            def g(u, _s=sign, _w=weight):
                x = math.exp(-u)
                if x == 0.0:
                    return 0.0
                return math.exp(-(1.0 + _w) * u) * float(f(_s * x))

            val, err = _quad(g, u_lo, u_hi, "origin segment")
            decay = weight - model.class_alpha
            if decay > 0.0:
                err += model.class_M * math.exp(-decay * u_hi) / decay
            else:
                err += math.inf
        elif math.isinf(x2):
            def g(v, _s=sign, _w=weight):
                x = 1.0 / v
                return float(f(_s * x)) * x ** _w / (v * v)

            val, err = _quad(g, 0.0, 1.0 / x1, "tail segment")
        else:
            def g(x, _s=sign, _w=weight):
                return float(f(_s * x)) * x ** _w

            val, err = _quad(g, x1, x2, "interior segment")
        total += val
        toterr += err
    return total, toterr


def _both_sides(model: LevyModel, weight: int, lo: float, hi: float,
                signed: bool = False) -> tuple[float, float]:
    edges = _segment_edges(model, lo, hi)
    if edges and math.isinf(edges[-1]):
        # the probe reads f(x) + f(-x), so one probe serves both sides
        _probe_tail_envelope(model, edges[-2])
    pos, pos_err = _side_integral(model, +1, weight, edges)
    neg, neg_err = _side_integral(model, -1, weight, edges)
    if signed:
        return pos - neg, pos_err + neg_err
    return pos + neg, pos_err + neg_err


def _certify(value: float, err: float, what: str) -> FunctionalValue:
    if err > max(_TOL_REL * abs(value), _TOL_ABS):
        raise QuadratureFailure(
            f"quadrature error {err:g} for {what} exceeds the configured "
            f"tolerance (rel 1e-10 / abs 1e-12, whichever is looser)"
        )
    return FunctionalValue(value=value, abs_error_estimate=err, source="quadrature")


def _closed_value(value: float) -> FunctionalValue:
    return FunctionalValue(value=value, abs_error_estimate=4.0 * _ULP * abs(value),
                           source="closed_form")


def _check_method(method: str) -> None:
    if method not in ("auto", "closed_form", "quadrature"):
        raise ValueError(f"unknown method {method!r}")


# === functionals =============================================================


def lambda_(model: LevyModel, a: float, method: str = "auto") -> FunctionalValue:
    """lambda_a = integral of f over |x| > a (the jump intensity beyond a).

    ``method`` may force "closed_form" or "quadrature"; "auto" prefers closed
    forms and falls back to quadrature.
    """
    if a <= 0.0:
        raise InvalidCutoff(f"the cutoff a must be positive, got {a}")
    _check_method(method)
    if method != "quadrature":
        if model.closed is not None and model.closed.lambda_ is not None:
            return _closed_value(float(model.closed.lambda_(a)))
        if model.jump_parts is not None:
            return _closed_value(sum(p.mass(a, math.inf) for p in model.jump_parts))
        if method == "closed_form":
            raise ValueError("model declares no closed form for lambda")
    value, err = _both_sides(model, 0, a, math.inf)
    return _certify(value, err, f"lambda_{a:g}")


def lambda_band(model: LevyModel, a: float, b: float,
                method: str = "auto") -> FunctionalValue:
    """Band intensity: integral of f over a < |x| <= b."""
    if a <= 0.0 or b < a:
        raise InvalidCutoff(f"the band requires 0 < a <= b, got a={a}, b={b}")
    _check_method(method)
    if method != "quadrature":
        if model.closed is not None and model.closed.lambda_ is not None:
            lam = model.closed.lambda_
            return _closed_value(float(lam(a)) - (float(lam(b)) if math.isfinite(b) else 0.0))
        if model.jump_parts is not None:
            return _closed_value(sum(p.mass(a, b) for p in model.jump_parts))
        if method == "closed_form":
            raise ValueError("model declares no closed form for lambda")
    value, err = _both_sides(model, 0, a, b)
    return _certify(value, err, f"lambda_({a:g},{b:g}]")


def sigma2(model: LevyModel, a: float, method: str = "auto") -> FunctionalValue:
    """sigma2(a) = integral of x^2 f(x) over 0 < |x| <= a."""
    if a <= 0.0:
        raise InvalidCutoff(f"the cutoff a must be positive, got {a}")
    _check_method(method)
    if method != "quadrature":
        if model.closed is not None and model.closed.sigma2 is not None:
            return _closed_value(float(model.closed.sigma2(a)))
        if model.jump_parts is not None:
            return _closed_value(sum(p.moment2(0.0, a) for p in model.jump_parts))
        if method == "closed_form":
            raise ValueError("model declares no closed form for sigma2")
    value, err = _both_sides(model, 2, 0.0, a)
    return _certify(value, err, f"sigma2({a:g})")


def drift_b(model: LevyModel, eps: float, method: str = "auto") -> FunctionalValue:
    """The truncation drift b(eps).

    Finite variation: b(eps) = integral of x f(x) over |x| <= eps.
    Infinite variation: b(eps) = - integral of x f(x) over eps <= |x| <= 1
    (so b(eps) accumulates sign from the side weights; for eps > 1 the band
    flips orientation).  Symmetric models return exactly 0.0.
    """
    if eps <= 0.0:
        raise InvalidCutoff(f"eps must be positive, got {eps}")
    _check_method(method)
    if model.variation is None:
        raise UndeclaredVariation(
            "drift_b requires the model to declare finite or infinite variation"
        )
    if model.symmetric:
        return _closed_value(0.0)
    if method != "quadrature":
        if model.closed is not None and model.closed.drift is not None:
            return _closed_value(float(model.closed.drift(eps)))
        if model.jump_parts is not None:
            if model.variation == "finite":
                val = sum(p.moment1_signed(0.0, eps) for p in model.jump_parts)
            else:
                lo, hi = min(eps, 1.0), max(eps, 1.0)
                val = sum(p.moment1_signed(lo, hi) for p in model.jump_parts)
                val = -val if eps <= 1.0 else val
            return _closed_value(val)
        if method == "closed_form":
            raise ValueError("model declares no closed form for the drift")
    if model.variation == "finite":
        value, err = _both_sides(model, 1, 0.0, eps, signed=True)
    else:
        lo, hi = min(eps, 1.0), max(eps, 1.0)
        value, err = _both_sides(model, 1, lo, hi, signed=True)
        value = -value if eps <= 1.0 else value
    return _certify(value, err, f"b({eps:g})")


def band_moment1(model: LevyModel, a: float, b: float,
                 method: str = "auto") -> FunctionalValue:
    """Signed first moment of the jump measure on the band a < |x| <= b.

    This is the compensator density of the band's compound Poisson part;
    it vanishes identically for symmetric models.
    """
    if a <= 0.0 or b < a:
        raise InvalidCutoff(f"the band requires 0 < a <= b, got a={a}, b={b}")
    _check_method(method)
    if model.symmetric:
        return _closed_value(0.0)
    if method != "quadrature":
        if model.jump_parts is not None:
            return _closed_value(sum(p.moment1_signed(a, b)
                                     for p in model.jump_parts))
        if method == "closed_form":
            raise ValueError("model declares no closed form for band moments")
    value, err = _both_sides(model, 1, a, b, signed=True)
    return _certify(value, err, f"moment1({a:g},{b:g}]")


@dataclass(frozen=True)
class ClassFunctionalBounds:
    """Right-hand sides of the explicit class inequalities at cutoff a.

    sigma2_over_a2_bound dominates sigma2(a) / a^2, lambda_bound dominates the
    band intensity below 2 (and the full lambda_a for densities dominated by
    the stable envelope on the whole line), drift_bound dominates |b(a)| for
    finite-variation models (alpha < 1 only).
    """

    sigma2_over_a2_bound: float
    lambda_bound: float
    drift_bound: Optional[float]


def class_functional_bounds(model: LevyModel, a: float) -> ClassFunctionalBounds:
    """Evaluate 2M a^-alpha/(2-alpha), 2M a^-alpha/alpha and 2M a^(1-alpha)/(1-alpha)."""
    if not 0.0 < a <= 2.0:
        raise InvalidCutoff(
            f"class functional bounds hold on the class region 0 < a <= 2, got {a}"
        )
    m, al = model.class_M, model.class_alpha
    drift = 2.0 * m * a ** (1.0 - al) / (1.0 - al) if al < 1.0 else None
    return ClassFunctionalBounds(
        sigma2_over_a2_bound=2.0 * m * a ** -al / (2.0 - al),
        lambda_bound=2.0 * m * a ** -al / al,
        drift_bound=drift,
    )


# === membership checks =======================================================


@dataclass(frozen=True)
class MembershipReport:
    passed: bool
    failures: tuple[str, ...]
    details: dict = field(compare=False, default_factory=dict)


_MEMBERSHIP_SLACK = 1e-9  # pure stable-type densities sit exactly on the bound


def verify_class_membership(model: LevyModel, grid_points: int = 50) -> MembershipReport:
    """Check the declared certificates against the density on log grids.

    Checks performed: stable-type domination on (0, 2], the global sup bound
    on [1, X] when global_M is declared, evenness when symmetric is declared,
    and a stabilization test of integral |x| f over shrinking inner cutoffs
    against the declared variation.
    """
    failures: list[str] = []
    details: dict = {}

    xs = np.geomspace(1e-6, 2.0, grid_points)
    worst = -math.inf
    worst_x = xs[0]
    for x in xs:
        fx = max(float(model.density(x)), float(model.density(-x)))
        ratio = fx * x ** (1.0 + model.class_alpha) / model.class_M
        if ratio > worst:
            worst, worst_x = ratio, x
    details["class_ratio"] = (worst, float(worst_x))
    if worst > 1.0 + _MEMBERSHIP_SLACK:
        failures.append(
            f"stable-type class violated: f(x) x^(1+alpha) = {worst:.6g} * class_M "
            f"at |x| = {worst_x:g}"
        )

    if model.global_M is not None:
        hi = model.support_radius or 50.0
        worst_g, worst_gx = -math.inf, 1.0
        for x in np.geomspace(1.0, max(hi, 1.0 + 1e-9), grid_points):
            fx = max(float(model.density(x)), float(model.density(-x)))
            if fx > worst_g:
                worst_g, worst_gx = fx, x
        details["global_sup"] = (worst_g, float(worst_gx))
        if worst_g > model.global_M * (1.0 + _MEMBERSHIP_SLACK):
            failures.append(
                f"global sup bound violated: f = {worst_g:.6g} > global_M at "
                f"|x| = {worst_gx:g}"
            )

    if model.symmetric:
        asym = 0.0
        for x in xs:
            fp, fn = float(model.density(x)), float(model.density(-x))
            asym = max(asym, abs(fp - fn) / (1.0 + max(fp, fn)))
        details["asymmetry"] = asym
        if asym > 1e-9:
            failures.append(f"density declared symmetric but differs by {asym:.3g}")

    if model.variation is not None:
        cuts = (1e-2, 1e-4, 1e-6)
        masses = []
        for c in cuts:
            val, _ = _both_sides(model, 1, c, 1.0)
            masses.append(val)
        inc1 = masses[1] - masses[0]
        inc2 = masses[2] - masses[1]
        details["fv_increments"] = (masses[0], inc1, inc2)
        converges = inc2 <= max(1e-8, 0.6 * inc1)
        if model.variation == "finite" and not converges:
            failures.append(
                "integral |x| f does not stabilize although variation is declared finite"
            )
        if model.variation == "infinite" and converges:
            failures.append(
                "integral |x| f stabilizes although variation is declared infinite"
            )

    return MembershipReport(passed=not failures, failures=tuple(failures),
                            details=details)


# === builtin models ==========================================================

_SQRT_PI = math.sqrt(math.pi)


def cauchy() -> LevyModel:
    """Cauchy process: stable(1, 1/pi) with closed lambda_a = 2/(pi a),
    sigma2(a) = 2a/pi and numpy's Cauchy sampler."""
    closed = ClosedFunctionals(
        lambda_=lambda a: 2.0 / (math.pi * a),
        sigma2=lambda a: 2.0 * a / math.pi,
        tail=closed_forms.cauchy_tail,
        sample=lambda t, rng, n: t * rng.standard_cauchy(n),
    )
    return replace(stable(1.0, 1.0 / math.pi), closed=closed, name="cauchy")


def gamma() -> LevyModel:
    """Gamma subordinator: f(x) = exp(-x)/x on (0, inf)."""
    from scipy import special

    def density(x):
        return _on_band(x, lambda a: np.exp(-a) / a, side="pos")

    closed = ClosedFunctionals(
        lambda_=lambda a: float(special.exp1(a)),
        sigma2=lambda a: -math.expm1(-a) - a * math.exp(-a),
        drift=lambda eps: -math.expm1(-eps),
        tail=closed_forms.gamma_tail,
        sample=lambda t, rng, n: rng.gamma(t, 1.0, size=n),
    )
    return LevyModel(
        density=density,
        symmetric=False,
        variation="finite",
        class_alpha=0.5,
        class_M=1.0,
        global_M=math.exp(-1.0),
        closed=closed,
        tail_envelope=TailEnvelope(coef=1.0, rate=1.0, beyond=1.0),
        name="gamma",
    )


def inverse_gaussian() -> LevyModel:
    """Inverse Gaussian subordinator: f(x) = exp(-x) x^(-3/2) on (0, inf)."""
    from scipy import special

    def density(x):
        return _on_band(x, lambda a: np.exp(-a) * np.power(a, -1.5), side="pos")

    closed = ClosedFunctionals(
        # integration by parts: integral_a^inf e^-x x^(-3/2) dx
        lambda_=lambda a: 2.0 * math.exp(-a) / math.sqrt(a)
        - 2.0 * _SQRT_PI * float(special.erfc(math.sqrt(a))),
        # lower incomplete gamma(3/2, a)
        sigma2=lambda a: (_SQRT_PI / 2.0) * float(special.gammainc(1.5, a)),
        drift=lambda eps: _SQRT_PI * float(special.erf(math.sqrt(eps))),
        tail=closed_forms.ig_tail,
        sample=lambda t, rng, n: rng.wald(t * _SQRT_PI, 2.0 * math.pi * t * t,
                                          size=n),
    )
    return LevyModel(
        density=density,
        symmetric=False,
        variation="finite",
        class_alpha=0.5,
        class_M=1.0,
        global_M=math.exp(-1.0),
        closed=closed,
        tail_envelope=TailEnvelope(coef=1.0, rate=1.0, beyond=1.0),
        name="inverse_gaussian",
    )


def _sample_stable(alpha: float, scale: float, t: float,
                   rng: np.random.Generator, n: int) -> np.ndarray:
    # Chambers-Mallows-Stuck for the symmetric case; the jump density
    # scale |x|^-(1+alpha) corresponds to the stable scale parameter below.
    sigma_t = (t * scale * math.pi
               / (math.gamma(1.0 + alpha) * math.sin(math.pi * alpha / 2.0))
               ) ** (1.0 / alpha)
    phi = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=n)
    if alpha == 1.0:
        return sigma_t * np.tan(phi)
    w = rng.standard_exponential(n)
    core = (np.sin(alpha * phi) / np.cos(phi) ** (1.0 / alpha)
            * (np.cos((1.0 - alpha) * phi) / w) ** ((1.0 - alpha) / alpha))
    return sigma_t * core


def stable(alpha: float, scale: float = 1.0) -> LevyModel:
    """Symmetric stable-type density f(x) = scale * |x| ** -(1 + alpha), all x."""
    if not 0.0 < alpha < 2.0:
        raise AlphaOutOfRange(f"stable alpha must lie in (0, 2), got {alpha}")
    parts = (PowerPart(coef=scale, alpha=alpha, lo=0.0, hi=math.inf),)
    closed = ClosedFunctionals(
        tail=closed_forms.cauchy_tail if alpha == 1.0 and scale == 1.0 / math.pi else None,
        sample=lambda t, rng, n: _sample_stable(alpha, scale, t, rng, n),
    )
    return LevyModel(
        density=_parts_density(parts),
        symmetric=True,
        variation="finite" if alpha < 1.0 else "infinite",
        class_alpha=alpha,
        class_M=scale,
        global_M=scale,
        closed=closed,
        tail_envelope=TailEnvelope(coef=2.0 * scale, rate=alpha, beyond=1.0, kind="power"),
        jump_parts=parts,
        name=f"stable({alpha:g},{scale:g})",
    )


def tempered_stable(alpha: float, theta: float) -> LevyModel:
    """f(x) = |x| ** -(1 + alpha) * exp(-theta |x|); functionals by quadrature."""
    if not 0.0 < alpha < 2.0:
        raise AlphaOutOfRange(f"tempered alpha must lie in (0, 2), got {alpha}")
    if theta <= 0.0:
        raise NonIntegrableTail("tempered_stable requires theta > 0")

    def density(x):
        return _on_band(
            x, lambda a: np.power(a, -(1.0 + alpha)) * np.exp(-theta * a))

    return LevyModel(
        density=density,
        symmetric=True,
        variation="finite" if alpha < 1.0 else "infinite",
        class_alpha=alpha,
        class_M=1.0,
        global_M=math.exp(-theta),
        tail_envelope=TailEnvelope(coef=2.0, rate=theta, beyond=1.0),
        name=f"tempered_stable({alpha:g},{theta:g})",
    )


def power_law(M: float, alpha: float, cut: float = 2.0) -> LevyModel:
    """f(x) = M |x| ** -(1 + alpha) truncated at |x| = cut."""
    if not 0.0 < alpha < 2.0:
        raise AlphaOutOfRange(f"power_law alpha must lie in (0, 2), got {alpha}")
    if M <= 0.0 or cut <= 0.0:
        raise InvalidCutoff("power_law requires M > 0 and cut > 0")
    parts = (PowerPart(coef=M, alpha=alpha, lo=0.0, hi=cut),)
    return LevyModel(
        density=_parts_density(parts),
        symmetric=True,
        variation="finite" if alpha < 1.0 else "infinite",
        class_alpha=alpha,
        class_M=M,
        global_M=M,
        support_radius=cut,
        jump_parts=parts,
        name=f"power_law({M:g},{alpha:g},{cut:g})",
    )


def cpp_uniform(lam: float, lo: float, hi: float,
                class_alpha: float = 0.5) -> LevyModel:
    """Compound Poisson with rate lam and jumps uniform on [lo, hi] (one-sided),
    whose jump density is a flat power part (alpha = -1)."""
    if lam <= 0.0 or lo < 0.0 or hi <= lo:
        raise InvalidCutoff("cpp requires lam > 0 and 0 <= lo < hi")
    height = lam / (hi - lo)
    parts = (PowerPart(coef=height, alpha=-1.0, lo=lo, hi=hi, side="pos"),)
    if lo < 2.0:
        class_m = height * min(hi, 2.0) ** (1.0 + class_alpha)
    else:
        class_m = 1.0  # vacuous: no mass on the class region
    jump = closed_forms.UniformJump(lo, hi)
    closed = ClosedFunctionals(
        tail=lambda eps, t: closed_forms.cpp_exact_tail(lam, jump, eps, t)
    )
    return LevyModel(
        density=_parts_density(parts),
        symmetric=False,
        variation="finite",
        class_alpha=class_alpha,
        class_M=class_m,
        global_M=height,
        closed=closed,
        support_radius=hi,
        jump_parts=parts,
        name=f"cpp({lam:g},uniform({lo:g},{hi:g}))",
    )


_BUILTINS = {
    "cauchy": (cauchy, 0, 0),
    "gamma": (gamma, 0, 0),
    "inverse_gaussian": (inverse_gaussian, 0, 0),
    "stable": (stable, 1, 2),
    "tempered_stable": (tempered_stable, 2, 2),
    "power_law": (power_law, 2, 3),
}


def builtin_model(kind: str, *args: float) -> LevyModel:
    if kind == "cpp":
        raise InvalidCutoff(
            "cpp models carry a jump law; write cpp(lam, uniform(lo, hi)) "
            "through parse_model or call cpp_uniform directly"
        )
    if kind not in _BUILTINS:
        raise InvalidCutoff(
            f"unknown builtin model {kind!r}; known kinds: "
            f"{', '.join(sorted(_BUILTINS))}, cpp"
        )
    ctor, lo_n, hi_n = _BUILTINS[kind]
    if not lo_n <= len(args) <= hi_n:
        raise InvalidCutoff(f"builtin {kind!r} takes {lo_n}..{hi_n} arguments")
    return ctor(*args)


_MODEL_RE = re.compile(r"^\s*([a-z_]+)\s*(?:\((.*)\))?\s*$", re.S)
_UNIFORM_RE = re.compile(r"^\s*uniform\s*\(\s*([^,]+)\s*,\s*([^)]+)\s*\)\s*$")


def parse_model(text: str) -> LevyModel:
    """Parse the model mini-format.

    Examples: ``cauchy``, ``stable(1.5, 1.0)``, ``power_law(1, 0.5, 2)``,
    ``cpp(1.0, uniform(1, 2))``.  Overrides follow after semicolons as
    key=value pairs: class_M, class_alpha, global_M, symmetric, variation,
    lipschitz=constant:lo:hi[:m_lip].
    """
    head, *override_parts = _split_overrides(text)
    m = _MODEL_RE.match(head)
    if m is None:
        raise InvalidCutoff(f"cannot parse model spec {text!r}")
    kind, argstr = m.group(1), m.group(2)

    if kind == "cpp":
        if argstr is None:
            raise InvalidCutoff("cpp needs (lambda, uniform(lo, hi))")
        lam_str, _, jump_str = argstr.partition(",")
        um = _UNIFORM_RE.match(jump_str)
        if um is None:
            raise InvalidCutoff(
                "cpp jump law must be uniform(lo, hi); point masses are only "
                "supported through the exact-tail API"
            )
        model = cpp_uniform(float(lam_str), float(um.group(1)), float(um.group(2)))
    else:
        args = []
        if argstr:
            for tok in argstr.split(","):
                tok = tok.strip()
                if "=" in tok:
                    tok = tok.split("=", 1)[1]
                args.append(float(tok))
        model = builtin_model(kind, *args)

    return _apply_overrides(model, override_parts)


def _split_overrides(text: str) -> list[str]:
    # split on semicolons that are not inside parentheses
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == ";" and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _apply_overrides(model: LevyModel, overrides: list[str]) -> LevyModel:
    for item in overrides:
        item = item.strip()
        if not item:
            continue
        key, _, val = item.partition("=")
        key, val = key.strip(), val.strip()
        if key == "class_M":
            model = replace(model, class_M=float(val))
        elif key == "class_alpha":
            model = replace(model, class_alpha=float(val))
        elif key == "global_M":
            model = replace(model, global_M=float(val))
        elif key == "symmetric":
            model = replace(model, symmetric=val.lower() in ("1", "true", "yes"))
        elif key == "variation":
            model = replace(model, variation=val)
        elif key == "lipschitz":
            fields = [float(tok) for tok in val.split(":")]
            if len(fields) not in (3, 4):
                raise InvalidCutoff("lipschitz override takes constant:lo:hi[:m_lip]")
            cert = LipschitzCert(constant=fields[0], lo=fields[1], hi=fields[2],
                                 m_lip=fields[3] if len(fields) == 4 else None)
            model = replace(model, lipschitz_cert=cert)
        else:
            raise InvalidCutoff(f"unknown model override {key!r}")
    return model
