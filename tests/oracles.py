"""Independent high-precision reference values for the explicit constants
and for compound Poisson tails with uniform jumps.

Every formula here is transcribed separately from the library (mpmath
arithmetic, no imports from levytail), so agreement with bounds.constants and
closed_forms.cpp_exact_tail is a genuine double-entry check, not a tautology.  Domains mirror the library:
the finite-variation family lives on alpha in (0, 1), the infinite-variation
family on [1, 2) with the alpha > 1 pole terms dropped at alpha = 1 (the
limiting log forms for K4 and K5 are asserted as frozen values in
test_constants instead of being swept here).
"""

from __future__ import annotations

from mpmath import binomial, exp, factorial, floor, fsum, log, mp, mpf

mp.dps = 40

E_2E = exp(2 + exp(-1))
E_3E = exp(3 + exp(-1))


def fv_constants(alpha) -> dict:
    a = mpf(alpha)
    c1a = 2 ** (1 + 4 * a) / (a * (2 - a))
    c2a = (
        2 ** (2 + a) / (1 - a)
        + 2 ** (4 * a + 3) * (2 ** (1 - a) * a * (2 - a) + 2 + a)
        / (a * (2 - a) * (1 - a) * 3 ** (1 + a))
        + 28 * 4 ** (2 * a) / (a ** 2 * (2 - a))
        + 2 ** (1 + 4 * a) / (a * (2 - a))
    )
    return {
        "C1a": c1a,
        "C2a": c2a,
        "C1": 16 + 64 / a ** 2 + c1a + c2a,
        "C2": (
            3 * 2 ** (2 * a - 1) * E_2E / (2 - a) ** 2
            + 4 ** (1 + a) / (a * (1 - a) * (2 - a))
            + 4 ** a / a ** 2
        ),
        "D1": (4 / (1 - a)) * (3 + (2 + a) / (a * (2 - a))),
        "D2": 4 * (1 / (2 - a) + 1 + 2 ** a * (2 + (2 + a) / (a * (2 - a)))),
        "D3": 2 * (2 + a) / ((2 - a) * a * (1 - a)),
        "tildeD1": 5 / (1 - a) + 10 / (a * (2 - a) * (1 - a)),
    }


def iv_constants(alpha, M=None, eps=None) -> dict:
    a = mpf(alpha)
    out = {
        "E1": (4 * E_2E / (2 - a) ** 2 + 4 ** (1 + a) / a ** 2
               + 2 ** (a + 1) / (9 * a * (2 - a))),
        "K1": 4 ** (1 + a) * (E_2E / (2 - a) ** 2 + 1 / a ** 2),
        "K3": 2 ** (3 * (1 + a)) * E_3E / (a * (2 - a) ** 3),
        "K6": 2 ** (2 * a + 1) / (3 ** a * (2 - a)),
    }
    if a > 1:
        out["K2"] = 2 ** (1 + 3 * a) / (a * (2 - a) * (a - 1))
        out["K4"] = (
            2 ** (2 * a - 1) / (a * (2 - a) ** 2)
            + 2 ** (3 * a) / (a * (a - 1) * (2 - a))
            + 2 ** (4 * a + 1) / (21 ** a * a * (2 - a))
            + 2 ** (2 * a + 2) / (a * (2 - a))
        )
        out["F1"] = (2 * out["K1"] + 2 * out["K2"] + out["K4"]
                     + 6 / a ** 2)
        out["F4"] = 2 * out["K1"] + 2 * out["K2"] + 6 / a ** 2
    out["F2"] = out["K6"]
    out["F5"] = 2 * out["K3"]
    if eps is not None and mpf(eps) > 1:
        e = mpf(eps)
        if e < mpf(3) / 2:
            if a > 1:
                out["K5"] = (
                    8 * mpf(0.75) ** (2 - a) / (a * (2 - a) ** 2)
                    + 2 ** (3 * a) / (a * (a - 1) * (2 - a))
                )
                out["F3"] = out["K5"]
        else:
            out["K5"] = 4 ** (1 + a) / (3 ** a * (2 - a))
            out["F3"] = out["K5"]
    if M is not None:
        m = mpf(M)
        c_low = min(mpf(1), (2 - a) / (2 * m)) ** (1 / a)
        out["C_low"] = c_low
        l1 = 6 * m / c_low
        if a > 1:
            l1 += 24 * m ** 2 * c_low ** (a - 1) / (a * (2 - a) * (a - 1))
        out["L1"] = l1
        if a > 1:
            g1 = l1 + 2 ** (2 + a) * m * (1 + m / (a * (2 - a) * (a - 1)))
            g2 = 8 * m ** 2 / (a * (2 - a)) + m ** 2 * out["E1"]
        else:
            g1 = l1 + 4 * m ** 2 * (E_2E + mpf(37) / 9) + 4 * m
            g2 = 8 * m ** 2 / (a * (2 - a))
        out["G1"] = g1
        out["G2"] = g2
    return out


def constants(alpha, M=None, eps=None) -> dict:
    """Oracle counterpart of bounds.constants over the shared key set."""
    if mpf(alpha) < 1:
        return fv_constants(alpha)
    return iv_constants(alpha, M=M, eps=eps)


# === stable-type corollary assembly ==========================================
#
# The packaged corollary constants A, B, Btilde, C and the window W are
# algebraic combinations of the theorem constants with the envelope brackets
# eps^-alpha <= alpha lambda_eps / (2 M1) and eps^alpha <= 2 M2 / (alpha
# lambda_eps) substituted.  Recomputed here from scratch for the oracle.


def corollary_fv(alpha, M1, M2) -> dict:
    a, m1, m2 = mpf(alpha), mpf(M1), mpf(M2)
    fv = fv_constants(a)
    A = ((fv["C2"] + fv["D3"]) * m2 ** 2 * a ** 2 / (2 * m1 ** 2)
         + 5 * a * m2 / (4 * m1 * (2 - a)) + 2)
    W = 2 ** -a * (2 - a) / a
    return {"A": A, "W": W}


def corollary_iv_general(alpha, M1, M2) -> dict:
    a, m1, m2 = mpf(alpha), mpf(M1), mpf(M2)
    iv = iv_constants(a, M=m2)
    U = a / (2 * m1)
    W = 2 ** (1 - a) * m2 * min(mpf(1), (2 - a) / (2 * m2)) / a
    B = (
        iv["G1"] * U ** (1 + 1 / a)
        + iv["G2"] * U ** 2 * W ** (1 - 1 / a)
        + (5 * m2 / (2 - a)) * (2 * m2 / a) * U ** (2 / a)
        * (W * U ** 2) ** (1 - 1 / a)
        + 2 * W ** (1 - 1 / a)
    )
    if a == 1:
        B += 16 * m2 ** 2 * U ** 2
    Btilde = max(m2, exp(1) * W)
    return {"B": B, "Btilde": Btilde, "W": W}


def corollary_iv_lipschitz(alpha, M1, M2) -> dict:
    a, m1, m2 = mpf(alpha), mpf(M1), mpf(M2)
    iv = iv_constants(a, M=m2)
    W = 2 ** -a * (2 - a) / a
    f1 = iv["F1"] if a > 1 else (2 * iv["K1"]
                                 + (2 + 8 * log(3) + mpf(32) / 21 + 16)
                                 + 64 * log(2) + 6)
    C = (m2 ** 2 * f1 * a ** 2 / (4 * m1 ** 2)
         + m2 ** 2 * iv["F2"] * a / (2 * m1)
         + 2
         + W ** 2 * m2 ** 4 * 2 * iv["K3"] * a ** 4 / (16 * m1 ** 4))
    return {"C": C, "W": W}


# === compound Poisson with uniform jumps =====================================


def _irwin_hall_sf(n: int, x):
    """P(U_1 + ... + U_n >= x) for iid uniform(0, 1) summands, written as
    the CDF at n - x by the symmetry of the Irwin-Hall law."""
    if x <= 0:
        return mpf(1)
    if x >= n:
        return mpf(0)
    z = n - x
    return fsum((-1) ** k * binomial(n, k) * (z - k) ** n
                for k in range(int(floor(z)) + 1)) / factorial(n)


def cpp_uniform_tail(lam, lo, hi, eps, t):
    """P(Z_t >= eps) for rate lam and uniform(lo, hi) jumps: the Poisson
    mixture sum_n P(N_t = n) P(n lo + (hi - lo) IH_n >= eps), summed until
    the Poisson weights fall below 1e-45."""
    mu = mpf(lam) * mpf(t)
    lo, hi, eps = mpf(lo), mpf(hi), mpf(eps)
    total, n = mpf(0), 1
    while True:
        pmf = exp(-mu) * mu ** n / factorial(n)
        total += pmf * _irwin_hall_sf(n, (eps - n * lo) / (hi - lo))
        if n > mu and pmf < mpf(10) ** -45:
            return total
        n += 1
