"""Independent reference values for the benchmark's correctness checks.

Every formula here is written from the mathematics, in mpmath, without
importing levytail, so agreement with the package is a second derivation and
not a tautology.  Values are memoised per argument tuple: the checks run off
the clock, and the seed-independent ops of a workload repeat every round.
"""

from __future__ import annotations

import functools
import math

import mpmath as mp

mp.mp.dps = 40

SQRT_PI = mp.sqrt(mp.pi)


# === exact tails P(|X_t| >= eps) =============================================


@functools.lru_cache(maxsize=None)
def cauchy_tail(eps: float, t: float) -> float:
    """Cauchy process with jump density 1/(pi x^2): (2/pi) atan(t/eps)."""
    return float(2 / mp.pi * mp.atan(mp.mpf(t) / mp.mpf(eps)))


@functools.lru_cache(maxsize=None)
def gamma_tail(eps: float, t: float) -> float:
    """Gamma subordinator, density exp(-x)/x: X_t ~ Gamma(t, 1), so the tail
    is the regularised upper incomplete gamma Q(t, eps)."""
    return float(mp.gammainc(mp.mpf(t), mp.mpf(eps), mp.inf, regularized=True))


@functools.lru_cache(maxsize=None)
def ig_tail(eps: float, t: float) -> float:
    """Inverse Gaussian subordinator, density exp(-x) x^(-3/2): X_t is Wald
    with mean mu = t sqrt(pi) and shape lam = 2 pi t^2; the Wald survival
    function is Phi(-r (x/mu - 1)) - exp(2 lam/mu) Phi(-r (x/mu + 1)) with
    r = sqrt(lam / x)."""
    t, x = mp.mpf(t), mp.mpf(eps)
    mu, lam = t * SQRT_PI, 2 * mp.pi * t * t
    r = mp.sqrt(lam / x)
    return float(mp.ncdf(-r * (x / mu - 1)) - mp.exp(2 * lam / mu) * mp.ncdf(-r * (x / mu + 1)))


def _irwin_hall_sf(n: int, y) -> mp.mpf:
    """P(U_1 + ... + U_n >= y) for iid uniform(0, 1) summands."""
    if y <= 0:
        return mp.mpf(1)
    if y >= n:
        return mp.mpf(0)
    z = n - y  # P(S >= y) = P(S <= n - y) by symmetry
    cdf = mp.fsum((-1) ** k * mp.binomial(n, k) * (z - k) ** n
                  for k in range(int(mp.floor(z)) + 1))
    return cdf / mp.factorial(n)


@functools.lru_cache(maxsize=None)
def cpp_uniform_tail(lam: float, lo: float, hi: float, eps: float, t: float) -> float:
    """Compound Poisson with rate lam and uniform(lo, hi) jumps: the Poisson
    mixture of Irwin-Hall tails, sum_n P(N_t = n) P(S_n >= eps)."""
    mu = mp.mpf(lam) * mp.mpf(t)
    lo_m, width, eps_m = mp.mpf(lo), mp.mpf(hi) - mp.mpf(lo), mp.mpf(eps)
    total = mp.mpf(0)
    below = mp.exp(-mu)  # P(N_t < n), accumulated
    n = 1
    while True:
        pmf = mp.exp(-mu) * mu ** n / mp.factorial(n)
        if lo > 0 and n * lo_m >= eps_m:
            # every path with n or more jumps clears eps
            return float(total + (1 - below))
        total += pmf * _irwin_hall_sf(n, (eps_m - n * lo_m) / width)
        below += pmf
        if n > mu and pmf < mp.mpf(10) ** -45:
            return float(total)
        n += 1


# === jump intensities lambda_a ===============================================


def _lam_stable(scale, alpha, a):
    return 2 * scale * a ** -alpha / alpha


@functools.lru_cache(maxsize=None)
def lambda_ref(kind: str, params: tuple, a: float) -> float:
    """lambda_a = integral of f over |x| > a for the model family ``kind``."""
    a = mp.mpf(a)
    p = [mp.mpf(v) for v in params]
    if kind == "cauchy":
        value = 2 / (mp.pi * a)
    elif kind == "gamma":
        value = mp.gammainc(0, a)          # E1(a)
    elif kind == "inverse_gaussian":
        value = mp.gammainc(-0.5, a)       # Gamma(-1/2, a)
    elif kind == "stable":
        alpha, scale = p
        value = _lam_stable(scale, alpha, a)
    elif kind == "power_law":
        m, alpha, cut = p
        value = (_lam_stable(m, alpha, a) - _lam_stable(m, alpha, cut)) if a < cut else 0
    elif kind == "tempered_stable":
        alpha, theta = p
        value = 2 * theta ** alpha * mp.gammainc(-alpha, theta * a)
    elif kind == "cpp":
        lam, lo, hi = p
        value = lam * min(1, max(0, (hi - a) / (hi - lo)))
    else:
        raise KeyError(f"no lambda reference for model kind {kind!r}")
    return float(value)


def exact_tail(kind: str, params: tuple, eps: float, t: float):
    """The reference tail for models that have one, else None."""
    if kind == "cauchy":
        return cauchy_tail(eps, t)
    if kind == "gamma":
        return gamma_tail(eps, t)
    if kind == "inverse_gaussian":
        return ig_tail(eps, t)
    if kind == "cpp":
        return cpp_uniform_tail(*params, eps, t)
    return None


def ulp(x: float) -> float:
    return math.ulp(abs(x))
