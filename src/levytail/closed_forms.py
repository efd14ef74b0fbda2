"""Reference tail probabilities with certified error estimates.

Each function returns an :class:`ExactTail` for P(|X_t| >= eps) of a specific
process: the Cauchy process, the gamma subordinator, the inverse Gaussian
subordinator and compound Poisson processes with simple jump laws.  These are
the ground truths the validation harness compares bounds against, so every
value carries an explicit absolute error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy import integrate, stats

from .errors import (
    InvalidCutoff,
    QuadratureFailure,
    ShapeTooLarge,
    UnsupportedJumpLaw,
)

__all__ = [
    "ExactTail",
    "cauchy_tail",
    "gamma_tail",
    "ig_tail",
    "PointJump",
    "UniformJump",
    "cpp_exact_tail",
    "poisson_two_or_more",
    "regularized_gamma_q",
]

_EPS = 2.220446049250313e-16
_FPMIN = 1e-300
_MAX_ITER = 500


@dataclass(frozen=True)
class ExactTail:
    """A reference value of P(|X_t| >= eps) with an absolute error estimate."""

    value: float
    abs_error_estimate: float
    method: str


def _check_args(eps: float, t: float) -> None:
    if eps <= 0.0:
        raise InvalidCutoff(f"eps must be positive, got {eps}")
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")


def cauchy_tail(eps: float, t: float) -> ExactTail:
    """Cauchy process: P(|X_t| >= eps) = (2/pi) arctan(t/eps), exact."""
    _check_args(eps, t)
    value = (2.0 / math.pi) * math.atan2(t, eps)
    return ExactTail(value=value, abs_error_estimate=4.0 * _EPS * value,
                     method="exact")


# --- regularized incomplete gamma, hand rolled so the error budget is ours ---


def _lower_series(a: float, x: float) -> float:
    # P(a, x) by the standard power series, good for x < a + 1.
    ap = a
    summ = 1.0 / a
    term = summ
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        summ += term
        if abs(term) < abs(summ) * _EPS:
            return summ * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise QuadratureFailure("incomplete gamma series did not converge")


def _upper_cf(a: float, x: float) -> float:
    # Q(a, x) by the continued fraction with modified Lentz iteration,
    # good for x >= a + 1.
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise QuadratureFailure("incomplete gamma continued fraction did not converge")


def regularized_gamma_q(a: float, x: float) -> float:
    """Q(a, x) = Gamma(a, x) / Gamma(a) for a > 0, x >= 0."""
    if a <= 0.0:
        raise ValueError(f"shape a must be positive, got {a}")
    if x < 0.0:
        raise ValueError(f"x must be nonnegative, got {x}")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _lower_series(a, x)
    return _upper_cf(a, x)


def gamma_tail(eps: float, t: float) -> ExactTail:
    """Gamma subordinator with f(x) = exp(-x)/x: P(X_t >= eps) = Q(t, eps).

    The identity is used for shapes t in (0, 1) only; larger t raises
    :class:`ShapeTooLarge`.
    """
    _check_args(eps, t)
    if t >= 1.0:
        raise ShapeTooLarge(
            f"the gamma closed form is restricted to 0 < t < 1, got t = {t}"
        )
    value = regularized_gamma_q(t, eps)
    err = 5e-14 * max(value, 1e-30)
    if eps < t + 1.0:
        # the series branch returns 1 - P(t, eps): P's rounding is absolute
        err += 32.0 * _EPS
    return ExactTail(value=value, abs_error_estimate=err, method="series")


def ig_tail(eps: float, t: float) -> ExactTail:
    """Inverse Gaussian subordinator with f(x) = exp(-x) x^(-3/2).

    P(X_t >= eps) = t exp(2 t sqrt(pi)) * integral over [eps, inf) of
    exp(-x - pi t^2 / x) x^(-3/2) dx, evaluated by adaptive quadrature split
    at the inner scale pi t^2.
    """
    _check_args(eps, t)
    c = math.pi * t * t

    def integrand(x: float) -> float:
        return math.exp(-x - c / x) * x ** -1.5

    mid = max(2.0 * eps, 4.0 * c, eps + 10.0)
    v1, e1 = integrate.quad(integrand, eps, mid, epsabs=1e-15, epsrel=1e-12,
                            limit=200)
    v2, e2 = integrate.quad(integrand, mid, np.inf, epsabs=1e-15, epsrel=1e-12,
                            limit=200)
    pref = t * math.exp(2.0 * t * math.sqrt(math.pi))
    value = pref * (v1 + v2)
    err = pref * (e1 + e2) + 4.0 * _EPS * value
    if err > max(1e-10 * value, 1e-13):
        raise QuadratureFailure(
            f"inverse Gaussian tail quadrature error {err:g} is not certifiable"
        )
    return ExactTail(value=value, abs_error_estimate=err, method="quadrature")


# --- compound Poisson exact tails --------------------------------------------


@dataclass(frozen=True)
class PointJump:
    """Deterministic jump size a > 0."""

    a: float

    def tail(self, y: float) -> float:
        return 1.0 if self.a >= y else 0.0


@dataclass(frozen=True)
class UniformJump:
    """Jump size uniform on [lo, hi], 0 <= lo < hi."""

    lo: float
    hi: float


def _irwin_hall_tail(lo: float, hi: float, eps: float, n: int) -> float:
    # P(S_n >= eps) for n uniform(lo, hi) jumps.  S_n = n lo + (hi - lo) IH_n
    # and P(IH_n >= x) = P(IH_n <= n - x), so this is the Irwin-Hall CDF
    # F(z) = sum_k (-1)^k C(n, k) (z - k)^n / n! at z = (n hi - eps) / (hi - lo),
    # summed exactly over integers and rounded once.  Past z = n/2 the shorter
    # sum 1 - F(n - z) is taken.
    z = (n * Fraction(hi) - Fraction(eps)) / (Fraction(hi) - Fraction(lo))
    if z <= 0:
        return 0.0
    if z >= n:
        return 1.0
    p, q = z.numerator, z.denominator
    flip = 2 * p > n * q
    if flip:
        p = n * q - p
    total = sum((-1) ** k * math.comb(n, k) * (p - k * q) ** n
                for k in range(p // q + 1))
    scale = q ** n * math.factorial(n)
    return (scale - total if flip else total) / scale


def cpp_exact_tail(lam: float, jump, eps: float, t: float,
                   n_max: int = 64) -> ExactTail:
    """P(Z_t >= eps) for a compound Poisson process with nonnegative jumps.

    ``jump`` is a :class:`PointJump`, a :class:`UniformJump`, or any object
    with a ``tail(y)`` method (a bare callable works too).  Laws without
    special structure are only supported when a single jump already clears
    eps, in which case P(Z_t >= eps) = P(N_t >= 1) exactly.
    """
    if lam <= 0.0:
        raise ValueError(f"lam must be positive, got {lam}")
    _check_args(eps, t)
    mu = lam * t

    if isinstance(jump, PointJump):
        n_min = max(1, math.ceil(eps / jump.a - 1e-12))
        value = float(stats.poisson.sf(n_min - 1, mu))
        return ExactTail(value=value, abs_error_estimate=8.0 * _EPS,
                         method="exact")

    if isinstance(jump, UniformJump):
        if eps <= jump.lo:
            value = -math.expm1(-mu)
            return ExactTail(value=value, abs_error_estimate=4.0 * _EPS,
                             method="exact")
        n_sure = math.ceil(eps / jump.lo - 1e-12) if jump.lo > 0.0 else None
        n_top = n_max if n_sure is None else min(n_sure - 1, n_max)
        tails = [_irwin_hall_tail(jump.lo, jump.hi, eps, n)
                 for n in range(1, n_top + 1)]
        pmf = stats.poisson.pmf(np.arange(1, n_top + 1), mu)
        value = float(np.dot(pmf, tails))
        # each tail is exact to half an ulp; the Poisson weights are not
        err = (n_top + 8) * _EPS * value + 8.0 * _EPS
        if n_sure is not None and n_sure - 1 <= n_max:
            value += float(stats.poisson.sf(n_sure - 1, mu))
        else:
            err += float(stats.poisson.sf(n_top, mu))
        return ExactTail(value=value, abs_error_estimate=err, method="exact")

    tail_fn: Callable[[float], float]
    if hasattr(jump, "tail"):
        tail_fn = jump.tail
    elif callable(jump):
        tail_fn = jump
    else:
        raise UnsupportedJumpLaw("jump law must expose tail(y) or be callable")
    if float(tail_fn(eps)) >= 1.0:
        value = -math.expm1(-mu)
        return ExactTail(value=value, abs_error_estimate=4.0 * _EPS,
                         method="exact")
    raise UnsupportedJumpLaw(
        "exact compound tails are implemented for point and uniform jump laws "
        "only, unless every single jump clears eps"
    )


def poisson_two_or_more(x: float) -> float:
    """P(N >= 2) for N Poisson with mean x, as -expm1(-x) - x exp(-x).

    This is the exact exceedance probability of a compound Poisson process
    whose jumps all lie in [3 eps / 4, eps): one jump never clears eps and
    any two always do.
    """
    if x < 0.0:
        raise ValueError(f"the Poisson mean must be nonnegative, got {x}")
    return -math.expm1(-x) - x * math.exp(-x)
