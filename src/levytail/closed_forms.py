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
from scipy import integrate, special

from .errors import (
    InvalidCutoff,
    QuadratureFailure,
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
]

_EPS = 2.220446049250313e-16


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


def gamma_tail(eps: float, t: float) -> ExactTail:
    """Gamma subordinator with f(x) = exp(-x)/x: X_t is Gamma(t, 1), so
    P(X_t >= eps) = Q(t, eps) for every t > 0."""
    _check_args(eps, t)
    value = float(special.gammaincc(t, eps))
    # Measured with scipy 1.17 against 40-digit mpmath Q(t, eps) on 21,600
    # points: the 40x40 log grid t in [1e-6, 0.999], eps in [1e-4, 50],
    # random points on the same ranges, the strip eps in (t + 1, 1.1] and
    # eps in [0.5, 2.5]; and at (eps, t) = (0.99989, 0.50007).  The error was
    # at most 0.79 of this estimate, at that last point, where scipy is off
    # by 427 ulp of the value: a relative charge of a few hundred ulp would
    # not cover it, the 32 ulp of 1 on the branch eps < t + 1 does.  Past t = 8
    # the error grows about like t, and so does the estimate: 40,500 points,
    # t in [1, 1e4], came to at most 0.51 of it (a flat 5e-14 missed by 1.08x
    # at t = 49 and 300x at t = 7,673).
    err = 5e-14 * max(1.0, t / 8.0) * max(value, 1e-30)
    if eps < t + 1.0:
        err += 32.0 * _EPS
    return ExactTail(value=value, abs_error_estimate=err, method="series")


def ig_tail(eps: float, t: float) -> ExactTail:
    """Inverse Gaussian subordinator with f(x) = exp(-x) x^(-3/2).

    P(X_t >= eps) = t * integral over [eps, inf) of
    exp(2 t sqrt(pi) - x - pi t^2 / x) x^(-3/2) dx; the exponent peaks at 0,
    so no factor e^(2 t sqrt(pi)) scales QUADPACK's absolute tolerance.  The
    quadrature splits at pi t^2 and at eps + 40, past which lies under e^-40
    of the value (a first estimate on [eps + 10, inf) had missed by 59x).
    """
    _check_args(eps, t)
    c = math.pi * t * t
    s = 2.0 * t * math.sqrt(math.pi)

    def integrand(x: float) -> float:
        return math.exp(s - x - c / x) * x ** -1.5

    mid = max(2.0 * eps, 4.0 * c, eps + 40.0)
    v1, e1 = integrate.quad(integrand, eps, mid, epsabs=1e-15, epsrel=1e-12,
                            limit=200)
    v2, e2 = integrate.quad(integrand, mid, np.inf, epsabs=1e-15, epsrel=1e-12,
                            limit=200)
    value = t * (v1 + v2)
    err = t * (e1 + e2) + 4.0 * _EPS * value
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


def cpp_exact_tail(lam: float, jump, eps: float, t: float) -> ExactTail:
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
        n_min = max(1, math.ceil(Fraction(eps) / Fraction(jump.a)))
        value = float(special.pdtrc(n_min - 1, mu))
        return ExactTail(value=value, abs_error_estimate=8.0 * _EPS,
                         method="exact")

    if isinstance(jump, UniformJump):
        if eps <= jump.lo:
            value = -math.expm1(-mu)
            return ExactTail(value=value, abs_error_estimate=4.0 * _EPS,
                             method="exact")
        # n_sure jumps always clear eps; the sum is cut after n_top terms
        n_top = max(64, int(10.0 * mu) + 16)
        n_sure = (math.ceil(Fraction(eps) / Fraction(jump.lo))
                  if jump.lo > 0.0 else math.inf)
        sure = n_sure - 1 <= n_top
        n_top = min(n_top, n_sure - 1)
        tails = [_irwin_hall_tail(jump.lo, jump.hi, eps, n)
                 for n in range(1, n_top + 1)]
        n = np.arange(1, n_top + 1)
        pmf = np.exp(special.xlogy(n, mu) - special.gammaln(n + 1) - mu)
        value = float(np.dot(pmf, tails))
        # each tail is exact to half an ulp; the Poisson weights are not
        err = (n_top + 8) * _EPS * value + 8.0 * _EPS
        rest = float(special.pdtrc(n_top, mu))  # P(N > n_top)
        if sure:
            value += rest
        else:
            err += rest
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
    """P(N >= 2) for N Poisson with mean x, by ``scipy.special.pdtrc``,
    which does not cancel at small x as 1 - exp(-x) - x exp(-x) does.

    This is the exact exceedance probability of a compound Poisson process
    whose jumps all lie in [3 eps / 4, eps): one jump never clears eps and
    any two always do.
    """
    if x < 0.0:
        raise ValueError(f"the Poisson mean must be nonnegative, got {x}")
    return float(special.pdtrc(1, x))
