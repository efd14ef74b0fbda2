"""Monte Carlo estimation of Levy tail probabilities.

Sampling is exact where the model declares a sampler (``closed.sample``) or
its jump parts have finite mass (a compound Poisson), and composed otherwise:
X_t = t b(1) + M_t(1) + Z_t(1), where Z_t(1) collects jumps beyond 1, and
M_t(1) is approximated by a :class:`SmallJumpScheme` that simulates the
compensated jumps above a cutoff delta and either discards the remainder or
replaces it by a Gaussian with the matching variance.  The scheme's effect on
a tail probability is certified through a margin argument: exceedances of
eps - margin and eps + margin are counted alongside eps, and the confidence
interval is widened by a proven bound on P(|discarded part| > margin).

Streams are deterministic and shard-invariant.  Draws are organized in blocks
of 2^14 paths; block j always uses the Philox generator keyed by
(master_seed, stream_id) with its counter advanced to block j, so any
partition of blocks across shards reproduces identical counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import special

from . import bounds
from .errors import SchemeInfeasible
from .levy_model import (
    LevyModel,
    band_moment1,
    drift_b,
    lambda_,
    lambda_band,
    sigma2,
)

__all__ = [
    "BLOCK",
    "SeededStream",
    "SmallJumpScheme",
    "MCEstimate",
    "scheme_bias_bound",
    "sample_jump_band",
    "sample_compound_band",
    "sample_small_jumps",
    "sample_increment",
    "estimate_tail_prob",
    "estimate_smalljump_tail",
]

BLOCK = 1 << 14


@dataclass(frozen=True)
class SeededStream:
    """A named substream of the master seed, stable across shard layouts."""

    master_seed: int
    stream_id: int = 0

    def child(self, i: int) -> "SeededStream":
        return SeededStream(self.master_seed, self.stream_id * 1000003 + i + 1)

    def generator(self) -> np.random.Generator:
        return self.block_generator(0)

    def block_generator(self, block: int) -> np.random.Generator:
        key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
        counter = np.array([0, 0, block, 0], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key, counter=counter))


@dataclass(frozen=True)
class SmallJumpScheme:
    """How to treat jumps below ``delta`` when simulating M_t(eps).

    With ``gaussian_refinement`` the discarded compensated jumps are replaced
    by a centered Gaussian with variance t sigma2(delta); otherwise they are
    dropped.  ``bias_budget``, when set, caps the certified bias: schemes
    whose certificate exceeds it raise :class:`SchemeInfeasible`.
    """

    delta: float
    gaussian_refinement: bool = False
    bias_budget: Optional[float] = None

    def __post_init__(self) -> None:
        if self.delta <= 0.0:
            raise SchemeInfeasible(f"delta must be positive, got {self.delta}")

    @classmethod
    def default(cls, eps: float) -> "SmallJumpScheme":
        """The scheme used when none is given: delta = eps/8 capped at 1e-3,
        no refinement and no budget."""
        return cls(delta=min(1e-3, eps / 8.0))


@dataclass(frozen=True)
class MCEstimate:
    """A binomial tail estimate with its confidence interval.

    ``bias`` is the certified scheme bias folded into the interval (zero for
    exact samplers) and ``margin`` the threshold slack used to absorb it.
    """

    p_hat: float
    n: int
    ci_low: float
    ci_high: float
    confidence: float
    method: str
    bias: float = 0.0
    margin: float = 0.0


# === confidence intervals ====================================================


def _wilson(k: int, n: int, confidence: float) -> tuple[float, float]:
    z = float(special.ndtri(0.5 + confidence / 2.0))
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _clopper_pearson(k: int, n: int, confidence: float) -> tuple[float, float]:
    a = 1.0 - confidence
    lo = 0.0 if k == 0 else float(special.betaincinv(k, n - k + 1, a / 2.0))
    hi = 1.0 if k == n else float(special.betaincinv(k + 1, n - k, 1.0 - a / 2.0))
    return lo, hi


_CI = {"wilson": _wilson, "clopper_pearson": _clopper_pearson}


# === jump sampling ===========================================================


def _signs(rng: np.random.Generator, part_side: str, n: int) -> np.ndarray:
    if part_side == "pos":
        return np.ones(n)
    if part_side == "neg":
        return -np.ones(n)
    return rng.integers(0, 2, size=n) * 2.0 - 1.0


def _sample_part_band(part, lo: float, hi: float, rng: np.random.Generator,
                      n: int) -> np.ndarray:
    a, b, al = max(lo, part.lo), min(hi, part.hi), part.alpha
    u = rng.random(n)
    ta, tb = a ** -al, (0.0 if math.isinf(b) else b ** -al)
    r = (ta - u * (ta - tb)) ** (-1.0 / al)
    return _signs(rng, part.side, n) * r


def sample_jump_band(model: LevyModel, lo: float, hi: float,
                     rng: np.random.Generator, n: int) -> np.ndarray:
    """n jumps drawn from f restricted to lo < |x| <= hi."""
    if n == 0:
        return np.empty(0)
    if model.jump_parts is not None:
        live = [(p, p.mass(lo, hi)) for p in model.jump_parts]
        live = [(p, w) for p, w in live if w > 0.0]
        if not live:
            raise SchemeInfeasible(
                f"the jump density carries no mass on ({lo:g}, {hi:g}]"
            )
        if len(live) == 1:
            return _sample_part_band(live[0][0], lo, hi, rng, n)
        weights = np.array([w for _, w in live])
        idx = rng.choice(len(live), size=n, p=weights / weights.sum())
        out = np.empty(n)
        for k, (part, _) in enumerate(live):
            sel = idx == k
            cnt = int(sel.sum())
            if cnt:
                out[sel] = _sample_part_band(part, lo, hi, rng, cnt)
        return out
    return _sample_band_rejection(model, lo, hi, rng, n)


def _envelope_pieces(model: LevyModel, lo: float, hi: float):
    # Piecewise dominating envelope of f(r) + f(-r) on the band: the class
    # envelope 2 M r^-(1+alpha) up to 2, the declared tail envelope beyond.
    env = model.envelope()
    if env.beyond > 2.0:
        raise SchemeInfeasible(
            "rejection sampling needs the tail envelope to start by |x| = 2"
        )
    if model.support_radius is not None:
        hi = min(hi, model.support_radius)
    pieces = []
    a, b = lo, min(hi, 2.0)
    if a < b:
        m2 = 2.0 * model.class_M
        mass = m2 * (a ** -model.class_alpha - b ** -model.class_alpha) \
            / model.class_alpha
        pieces.append(("power", model.class_alpha, m2, a, b, mass))
    a = max(lo, 2.0)
    if a < hi:
        if env.kind == "exp":
            top = 0.0 if math.isinf(hi) else math.exp(-env.rate * hi)
            mass = env.coef * (math.exp(-env.rate * a) - top) / env.rate
            pieces.append(("exp", env.rate, env.coef, a, hi, mass))
        else:
            top = 0.0 if math.isinf(hi) else hi ** -env.rate
            mass = env.coef * (a ** -env.rate - top) / env.rate
            pieces.append(("power", env.rate, env.coef, a, hi, mass))
    if not pieces or all(p[5] <= 0.0 for p in pieces):
        raise SchemeInfeasible(
            f"no dominating envelope mass on ({lo:g}, {hi:g}]"
        )
    return pieces


def _draw_envelope(pieces, rng: np.random.Generator,
                   n: int) -> tuple[np.ndarray, np.ndarray]:
    masses = np.array([p[5] for p in pieces])
    idx = rng.choice(len(pieces), size=n, p=masses / masses.sum()) \
        if len(pieces) > 1 else np.zeros(n, dtype=int)
    r = np.empty(n)
    dens = np.empty(n)
    for k, (kind, rate, coef, a, b, _) in enumerate(pieces):
        sel = idx == k
        cnt = int(sel.sum())
        if not cnt:
            continue
        u = rng.random(cnt)
        if kind == "power":
            ta, tb = a ** -rate, (0.0 if math.isinf(b) else b ** -rate)
            rr = (ta - u * (ta - tb)) ** (-1.0 / rate)
            dd = coef * rr ** -(1.0 + rate)
        else:
            ea, eb = math.exp(-rate * a), (0.0 if math.isinf(b)
                                           else math.exp(-rate * b))
            rr = -np.log(ea - u * (ea - eb)) / rate
            dd = coef * np.exp(-rate * rr)
        r[sel] = rr
        dens[sel] = dd
    return r, dens


def _sample_band_rejection(model: LevyModel, lo: float, hi: float,
                           rng: np.random.Generator, n: int) -> np.ndarray:
    pieces = _envelope_pieces(model, lo, hi)
    out = np.empty(n)
    filled = 0
    for _ in range(500):
        want = n - filled
        batch = max(4 * want, 256)
        r, env = _draw_envelope(pieces, rng, batch)
        s = rng.integers(0, 2, size=batch) * 2.0 - 1.0
        fx = np.asarray(model.density(s * r), dtype=float)
        keep = rng.random(batch) * env < fx
        taken = min(int(keep.sum()), want)
        if taken:
            out[filled:filled + taken] = (s * r)[keep][:taken]
            filled += taken
        if filled == n:
            return out
    raise SchemeInfeasible(
        "rejection sampling stalled; the declared envelopes are far above "
        "the density on this band"
    )


def sample_compound_band(model: LevyModel, lo: float, hi: float, t: float,
                         rng: np.random.Generator, n: int) -> np.ndarray:
    """Per-path sums of the compound Poisson of jumps in lo < |x| <= hi."""
    return _compound_poisson(model, lo, hi, lambda_band(model, lo, hi).value,
                             t, rng, n)


def _compound_poisson(model: LevyModel, lo: float, hi: float, lam: float,
                      t: float, rng: np.random.Generator, n: int) -> np.ndarray:
    if lam <= 0.0:
        return np.zeros(n)
    counts = rng.poisson(t * lam, size=n)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(n)
    jumps = sample_jump_band(model, lo, hi, rng, total)
    owner = np.repeat(np.arange(n), counts)
    return np.bincount(owner, weights=jumps, minlength=n)


def sample_small_jumps(model: LevyModel, eps: float, t: float,
                       scheme: SmallJumpScheme, rng: np.random.Generator,
                       n: int) -> np.ndarray:
    """Approximate draws of M_t(eps) under the scheme.

    Simulates the compensated compound Poisson of jumps in (delta, eps] and,
    under Gaussian refinement, adds N(0, t sigma2(delta)) for the remainder.
    """
    return _small_jump_draw(model, eps, t, scheme)(rng, n)


def _small_jump_draw(model: LevyModel, eps: float, t: float,
                     scheme: SmallJumpScheme) -> Callable:
    # the scheme's functionals once; the returned draw(rng, n) makes the draws
    if scheme.delta >= eps:
        raise SchemeInfeasible(
            f"scheme delta {scheme.delta:g} must lie below eps {eps:g}"
        )
    d = scheme.delta
    lam = lambda_band(model, d, eps).value
    shift = None if model.symmetric else t * band_moment1(model, d, eps).value
    sd = math.sqrt(t * sigma2(model, d).value) \
        if scheme.gaussian_refinement else None

    def draw(rng: np.random.Generator, n: int) -> np.ndarray:
        out = _compound_poisson(model, d, eps, lam, t, rng, n)
        if shift is not None:
            out = out - shift
        if sd is not None:
            out = out + rng.normal(0.0, sd, size=n)
        return out

    return draw


# === exact marginal samplers =================================================


def _exact_sampler(model: LevyModel) -> Optional[Callable]:
    # the model's declared sampler, else the compound Poisson of all jumps
    # when every part has finite mass near 0
    if model.closed is not None and model.closed.sample is not None:
        return model.closed.sample
    parts = model.jump_parts
    if parts is None or not all(p.lo > 0.0 or p.alpha < 0.0 for p in parts):
        return None
    lam = sum(p.mass(0.0, math.inf) for p in parts)
    return lambda t, rng, n: _compound_poisson(model, 0.0, math.inf, lam,
                                               t, rng, n)


def sample_increment(model: LevyModel, t: float, rng: np.random.Generator,
                     n: int,
                     scheme: Optional[SmallJumpScheme] = None) -> np.ndarray:
    """Draws of X_t, exact where the marginal is known, composed otherwise.

    The composed route needs a scheme and assembles t b(1) + M_t(1) + Z_t(1)
    with the jumps beyond 1 simulated exactly.
    """
    return _increment_draw(model, t, scheme)(rng, n)


def _increment_draw(model: LevyModel, t: float,
                    scheme: Optional[SmallJumpScheme]) -> Callable:
    # the route and its functionals once; the returned draw(rng, n) draws X_t
    exact = _exact_sampler(model)
    if exact is not None:
        return lambda rng, n: exact(t, rng, n)
    if scheme is None:
        raise SchemeInfeasible(
            f"model {model.name!r} has no exact sampler; pass a SmallJumpScheme"
        )
    shift = 0.0 if model.symmetric else t * drift_b(model, 1.0).value
    small = _small_jump_draw(model, 1.0, t, scheme)
    lam = lambda_band(model, 1.0, math.inf).value
    return lambda rng, n: (shift + small(rng, n)
                           + _compound_poisson(model, 1.0, math.inf, lam,
                                               t, rng, n))


# === tail estimation =========================================================


def scheme_bias_bound(model: LevyModel, t: float, scheme: SmallJumpScheme,
                      margin: float) -> float:
    """Certified bound on the scheme's distortion of a tail count.

    Without refinement this bounds P(|M_t(delta)| > margin) by the smaller of
    the Chebyshev and Chernoff bounds at the cutoff.  With refinement both the
    discarded part and its Gaussian stand-in must clear margin/2, so the two
    bounds are summed: the jump part at margin/2 plus the exact Gaussian tail
    erfc(margin / (2 sqrt(2 t sigma2(delta)))).
    """
    if margin <= 0.0:
        raise SchemeInfeasible(f"margin must be positive, got {margin}")
    d = scheme.delta

    def jump_part(level: float) -> float:
        cheb = min(1.0, t * sigma2(model, d).value / (level * level))
        chern = bounds.chernoff_small_jumps(model, d, t, x=level).value
        return min(cheb, chern)

    if not scheme.gaussian_refinement:
        return jump_part(margin)
    s2 = sigma2(model, d).value
    gauss = float(special.erfc(margin / (2.0 * math.sqrt(2.0 * t * s2)))) \
        if s2 > 0.0 else 0.0
    return min(1.0, jump_part(margin / 2.0) + gauss)


def _estimate(model: LevyModel, eps: float, level: float, t: float, n: int,
              stream: SeededStream, scheme: Optional[SmallJumpScheme],
              exact: bool, make_draw: Callable, shards: int,
              confidence: float, method: str, margin: Optional[float],
              widen: str, side: str) -> MCEstimate:
    # The one estimate path: exact draws use margin 0 and bias 0; otherwise
    # the scheme (the default one when None) is certified at the margin
    # (eps/100 when None) and held to its budget before anything is drawn.
    # make_draw(scheme) computes the functionals the draws need once and
    # returns draw(rng, size), which draws one block of values.
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if method not in _CI:
        raise ValueError(
            f"unknown CI method {method!r}; expected one of {sorted(_CI)}"
        )
    if exact:
        scheme, m, beta = None, 0.0, 0.0
    else:
        scheme = scheme if scheme is not None else SmallJumpScheme.default(eps)
        m = margin if margin is not None else eps / 100.0
        beta = scheme_bias_bound(model, t, scheme, m)
        if scheme.bias_budget is not None and beta > scheme.bias_budget:
            raise SchemeInfeasible(
                f"certified scheme bias {beta:g} exceeds the budget "
                f"{scheme.bias_budget:g}; lower delta or enable refinement"
            )
    draw = make_draw(scheme)
    lo_thr, hi_thr = level - m, level + m
    c_lo = c_mid = c_hi = 0
    n_blocks = (n + BLOCK - 1) // BLOCK
    for shard in range(shards):
        for j in range(shard, n_blocks, shards):
            size = BLOCK if j < n_blocks - 1 else n - BLOCK * (n_blocks - 1)
            xs = draw(stream.block_generator(j), size)
            vals = np.abs(xs) if side == "abs" else xs
            c_lo += int((vals >= lo_thr).sum())
            c_mid += int((vals >= level).sum())
            c_hi += int((vals >= hi_thr).sum())
    ci = _CI[method]
    if widen == "certified" and (beta > 0.0 or m > 0.0):
        lo = max(0.0, ci(c_hi, n, confidence)[0] - beta)
        hi = min(1.0, ci(c_lo, n, confidence)[1] + beta)
    else:
        lo, hi = ci(c_mid, n, confidence)
    return MCEstimate(p_hat=c_mid / n, n=n, ci_low=lo, ci_high=hi,
                      confidence=confidence, method=method, bias=beta,
                      margin=m)


def estimate_tail_prob(model: LevyModel, eps: float, t: float, n: int,
                       stream: SeededStream, shards: int = 1,
                       confidence: float = 0.99, method: str = "wilson",
                       scheme: Optional[SmallJumpScheme] = None,
                       margin: Optional[float] = None,
                       widen: str = "certified",
                       side: str = "abs") -> MCEstimate:
    """Monte Carlo estimate of P(|X_t| >= eps) with a shard-invariant stream.

    For models without an exact sampler the default scheme
    (:meth:`SmallJumpScheme.default`) is used unless one is provided; the
    certified scheme bias and the threshold margin widen the interval unless
    ``widen="plain"``, which keeps the plain binomial interval and only
    reports the certificate in ``bias``.
    """
    return _estimate(
        model, eps, eps, t, n, stream, scheme, _exact_sampler(model) is not None,
        lambda s: _increment_draw(model, t, s),
        shards, confidence, method, margin, widen, side)


def estimate_smalljump_tail(model: LevyModel, eps: float, t: float, n: int,
                            stream: SeededStream,
                            scheme: Optional[SmallJumpScheme] = None,
                            x: Optional[float] = None, shards: int = 1,
                            confidence: float = 0.99, method: str = "wilson",
                            margin: Optional[float] = None,
                            widen: str = "certified",
                            side: str = "abs") -> MCEstimate:
    """Monte Carlo estimate of P(|M_t(eps)| >= x) (or one-sided with
    side="pos"), x defaulting to eps and the scheme to the default one."""
    return _estimate(
        model, eps, eps if x is None else x, t, n, stream, scheme, False,
        lambda s: _small_jump_draw(model, eps, t, s),
        shards, confidence, method, margin, widen, side)
