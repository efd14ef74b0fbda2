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
partition of blocks across shards reproduces identical counts.  An estimate
draws its blocks on as many threads as the process has CPUs and adds up
their integer counts, so the result does not depend on the CPU count either.
"""

from __future__ import annotations

import math
import mmap
import os
from concurrent.futures import Future, ThreadPoolExecutor
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
    ``jumps`` counts the band jumps drawn over all blocks (zero for a
    model's declared sampler).
    """

    p_hat: float
    n: int
    ci_low: float
    ci_high: float
    confidence: float
    method: str
    bias: float = 0.0
    margin: float = 0.0
    jumps: int = 0


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
#
# A block holds one float64 per jump it draws (and per candidate of a
# rejection batch): uniforms are transformed in place and everything else runs
# over chunks of _CHUNK values.  Chunked draws give the numbers one call would
# and leave the generator where it would, so the chunking changes no bit.

_CHUNK = 1 << 16


def _chunks(n: int):
    return ((i, min(i + _CHUNK, n)) for i in range(0, n, _CHUNK))


# Private pages, all faulted in by the one mmap call where the platform can:
# a third of the cost of shared pages faulted one by one.
_MAP = {} if os.name == "nt" else {
    "flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
    | getattr(mmap, "MAP_POPULATE", 0)}


def _band_array(n: int) -> np.ndarray:
    # n float64s for a whole band.  Past one chunk they are pages mapped for
    # the array alone, which go back to the system when it is freed; malloc
    # would keep freed arrays this large in each drawing thread's arena.
    if n <= _CHUNK:
        return np.empty(n)
    return np.frombuffer(mmap.mmap(-1, 8 * n, **_MAP), dtype=float)


def _invert_power(u: np.ndarray, rate: float, a: float, b: float) -> None:
    # u -> (a^-rate - u (a^-rate - b^-rate)) ** (-1 / rate) in place: the
    # inverse distribution function of r^-(1+rate) on (a, b]
    ta, tb = a ** -rate, (0.0 if math.isinf(b) else b ** -rate)
    u *= ta - tb
    np.subtract(ta, u, out=u)
    u **= -1.0 / rate


def _invert_exp(u: np.ndarray, rate: float, a: float, b: float) -> None:
    # u -> -log(e^(-rate a) - u (e^(-rate a) - e^(-rate b))) / rate in place:
    # the inverse distribution function of e^(-rate r) on (a, b]
    ea, eb = math.exp(-rate * a), (0.0 if math.isinf(b)
                                   else math.exp(-rate * b))
    u *= ea - eb
    np.subtract(ea, u, out=u)
    np.log(u, out=u)
    np.negative(u, out=u)
    u /= rate


def _sample_part_band(part, lo: float, hi: float, rng: np.random.Generator,
                      n: int) -> np.ndarray:
    s = _band_array(n)
    for i, j in _chunks(n):
        rng.random(out=s[i:j])
        _invert_power(s[i:j], part.alpha, max(lo, part.lo), min(hi, part.hi))
    if part.side == "neg":
        np.negative(s, out=s)
    elif part.side == "both":
        # one 32-bit draw per sign; a uint8 or bool draw takes other bits
        for i, j in _chunks(n):
            c = s[i:j]
            bits = rng.integers(0, 2, size=j - i, dtype=np.int32)
            np.negative(c, out=c, where=bits == 0)
    return s


def _choose(rng: np.random.Generator, weights: list, n: int) -> np.ndarray:
    # n indices into weights, drawn with those weights (one uniform each)
    w = np.array(weights)
    p = w / w.sum()
    idx = np.empty(n, dtype=np.int8)
    for i, j in _chunks(n):
        idx[i:j] = rng.choice(len(weights), size=j - i, p=p)
    return idx


def sample_jump_band(model: LevyModel, lo: float, hi: float,
                     rng: np.random.Generator, n: int) -> np.ndarray:
    """n jumps drawn from f restricted to lo < |x| <= hi."""
    if n == 0:
        return np.empty(0)
    return _band_jumps(model, lo, hi, lambda_band(model, lo, hi).value, rng, n)


def _band_jumps(model: LevyModel, lo: float, hi: float, lam: float,
                rng: np.random.Generator, n: int) -> np.ndarray:
    # n jumps on the band, whose mass lam the caller computed once
    if lam <= 0.0:
        raise SchemeInfeasible(
            f"the jump density carries no mass on ({lo:g}, {hi:g}]"
        )
    if model.jump_parts is not None:
        live = [(p, p.mass(lo, hi)) for p in model.jump_parts]
        live = [(p, w) for p, w in live if w > 0.0]
        if len(live) == 1:
            return _sample_part_band(live[0][0], lo, hi, rng, n)
        idx = _choose(rng, [w for _, w in live], n)
        out = _band_array(n)
        for k, (part, _) in enumerate(live):
            sel = idx == k
            cnt = int(np.count_nonzero(sel))
            if cnt:
                out[sel] = _sample_part_band(part, lo, hi, rng, cnt)
        return out
    return _sample_band_rejection(model, lo, hi, lam, rng, n)


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
                   n: int) -> tuple[np.ndarray, Optional[np.ndarray]]:
    # n candidates r from the envelope, and each one's piece (None for one
    # piece); each piece draws its uniforms in one run, in piece order
    idx = None if len(pieces) == 1 else _choose(rng, [p[5] for p in pieces], n)
    r = _band_array(n)
    for k, (kind, rate, _, a, b, _) in enumerate(pieces):
        sel = None if idx is None else idx == k
        u = r if sel is None else np.empty(int(np.count_nonzero(sel)))
        invert = _invert_power if kind == "power" else _invert_exp
        for i, j in _chunks(u.size):
            rng.random(out=u[i:j])
            invert(u[i:j], rate, a, b)
        if sel is not None:
            r[sel] = u
    return r, idx


def _envelope_density(pieces, r: np.ndarray,
                      idx: Optional[np.ndarray]) -> np.ndarray:
    # the envelope at the candidates r, each under its own piece
    def at(piece, rr):
        kind, rate, coef = piece[:3]
        if kind == "power":
            return coef * rr ** -(1.0 + rate)
        return coef * np.exp(-rate * rr)

    if idx is None:
        return at(pieces[0], r)
    out = np.empty(r.size)
    for k, piece in enumerate(pieces):
        sel = idx == k
        out[sel] = at(piece, r[sel])
    return out


# Candidates per batch at most: bounds memory when the band mass is a small
# share of the envelope mass.
_MAX_BATCH = 1 << 20


def _sample_band_rejection(model: LevyModel, lo: float, hi: float, lam: float,
                           rng: np.random.Generator, n: int) -> np.ndarray:
    # Rejection from the envelope of g(r) = f(r) + f(-r): a candidate r is
    # kept when v env(r) < g(r), a share lam / (envelope mass) of them.  Given
    # that, v env(r) / g(r) is uniform, so v env(r) < f(r) makes the jump r
    # with probability f(r) / g(r), and -r otherwise: the kept jumps have law
    # f on the band, symmetric or not.  A batch draws its candidates, then
    # one uniform v each, chunk by chunk, and tests each chunk as it goes.
    pieces = _envelope_pieces(model, lo, hi)
    acc = lam / sum(p[5] for p in pieces)
    out = _band_array(n)
    filled = 0
    for _ in range(500):
        batch = min(math.ceil((n - filled) / acc * 1.05) + 64, _MAX_BATCH)
        r, idx = _draw_envelope(pieces, rng, batch)
        v = np.empty(min(batch, _CHUNK))
        for i, j in _chunks(batch):
            # every v of the batch is drawn, also past the last jump needed
            vc = v[:j - i]
            rng.random(out=vc)
            if filled == n:
                continue
            rc = r[i:j]
            f = np.asarray(model.density(rc), dtype=float)
            # the built-ins give f(-r) == f(r) bit for bit when symmetric
            g = f + (f if model.symmetric
                     else np.asarray(model.density(-rc), dtype=float))
            vc *= _envelope_density(pieces, rc,
                                    None if idx is None else idx[i:j])
            x = np.where(vc < f, rc, -rc)[vc < g][:n - filled]
            out[filled:filled + x.size] = x
            filled += x.size
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
                             t, rng, n)[0]


def _compound_poisson(model: LevyModel, lo: float, hi: float, lam: float,
                      t: float, rng: np.random.Generator,
                      n: int) -> tuple[np.ndarray, int]:
    # per-path sums and the number of jumps drawn
    if lam <= 0.0:
        return np.zeros(n), 0
    counts = rng.poisson(t * lam, size=n)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(n), 0
    jumps = _band_jumps(model, lo, hi, lam, rng, total)
    # bincount over runs of whole paths, about _CHUNK jumps each: a path's
    # jumps are summed in order, as one bincount over all of them would
    out = np.empty(n)
    ends = np.cumsum(counts)
    p = 0
    while p < n:
        start = ends[p] - counts[p]
        q = int(np.searchsorted(ends, start + _CHUNK, side="right"))
        q = max(q, p + 1)  # a path with more than _CHUNK jumps alone
        owner = np.repeat(np.arange(q - p), counts[p:q])
        out[p:q] = np.bincount(owner, weights=jumps[start:ends[q - 1]],
                               minlength=q - p)
        p = q
    return out, total


def sample_small_jumps(model: LevyModel, eps: float, t: float,
                       scheme: SmallJumpScheme, rng: np.random.Generator,
                       n: int) -> np.ndarray:
    """Approximate draws of M_t(eps) under the scheme.

    Simulates the compensated compound Poisson of jumps in (delta, eps] and,
    under Gaussian refinement, adds N(0, t sigma2(delta)) for the remainder.
    """
    return _small_jump_draw(model, eps, t, scheme)(rng, n)[0]


def _small_jump_draw(model: LevyModel, eps: float, t: float,
                     scheme: SmallJumpScheme) -> Callable:
    # the scheme's functionals once; the returned draw(rng, n) makes the
    # draws and counts the jumps they took
    if scheme.delta >= eps:
        raise SchemeInfeasible(
            f"scheme delta {scheme.delta:g} must lie below eps {eps:g}"
        )
    d = scheme.delta
    lam = lambda_band(model, d, eps).value
    shift = None if model.symmetric else t * band_moment1(model, d, eps).value
    sd = math.sqrt(t * sigma2(model, d).value) \
        if scheme.gaussian_refinement else None

    def draw(rng: np.random.Generator, n: int) -> tuple[np.ndarray, int]:
        out, jumps = _compound_poisson(model, d, eps, lam, t, rng, n)
        if shift is not None:
            out -= shift
        if sd is not None:
            out += rng.normal(0.0, sd, size=n)
        return out, jumps

    return draw


# === exact marginal samplers =================================================


def _exact_sampler(model: LevyModel) -> Optional[Callable]:
    # sample(t, rng, n) -> (draws, jumps drawn): the model's declared sampler,
    # which draws no band jumps, else the compound Poisson of all jumps when
    # every part has finite mass near 0
    if model.closed is not None and model.closed.sample is not None:
        return lambda t, rng, n: (model.closed.sample(t, rng, n), 0)
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
    return _increment_draw(model, t, scheme)(rng, n)[0]


def _increment_draw(model: LevyModel, t: float,
                    scheme: Optional[SmallJumpScheme]) -> Callable:
    # the route and its functionals once; the returned draw(rng, n) draws X_t
    # and counts the jumps it took
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

    def draw(rng: np.random.Generator, n: int) -> tuple[np.ndarray, int]:
        m, k_small = small(rng, n)
        z, k_big = _compound_poisson(model, 1.0, math.inf, lam, t, rng, n)
        return shift + m + z, k_small + k_big

    return draw


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


def _run(fn: Callable, *args) -> Future:
    # fn(*args) on this thread, its result or error held as a pool's would be
    done = Future()
    try:
        done.set_result(fn(*args))
    except Exception as exc:
        done.set_exception(exc)
    return done


def _estimate(model: LevyModel, eps: float, level: float, t: float, n: int,
              stream: SeededStream, scheme: Optional[SmallJumpScheme],
              exact: bool, make_draw: Callable, shards: int,
              confidence: float, method: str, margin: Optional[float],
              widen: str, side: str) -> MCEstimate:
    # The one estimate path: exact draws use margin 0 and bias 0; otherwise
    # the scheme (the default one when None) is certified at the margin
    # (eps/100 when None) and held to its budget before anything is drawn.
    # make_draw(scheme) computes the functionals the draws need once and
    # returns draw(rng, size), which draws one block of values and counts
    # its jumps.  Blocks run on up to one thread per CPU; their counts are
    # integers, so neither the order nor the threads change a bit, and the
    # error raised is that of the first failing block in order.
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if shards <= 0:
        raise ValueError(f"shards must be positive, got {shards}")
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
    n_blocks = (n + BLOCK - 1) // BLOCK

    def block(j: int) -> tuple[int, int, int, int]:
        size = BLOCK if j < n_blocks - 1 else n - BLOCK * (n_blocks - 1)
        xs, jumps = draw(stream.block_generator(j), size)
        vals = np.abs(xs) if side == "abs" else xs
        return (int((vals >= lo_thr).sum()), int((vals >= level).sum()),
                int((vals >= hi_thr).sum()), jumps)

    order = [j for shard in range(shards)
             for j in range(shard, n_blocks, shards)]
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    workers = min(n_blocks, cpus)
    if workers == 1:
        tallies = [block(j) for j in order]
    else:
        with ThreadPoolExecutor(workers - 1) as pool:
            futures = [pool.submit(block, j) for j in order]
            # the calling thread draws, from the back, the blocks no pool
            # thread has started (one thread fewer keeps fewer malloc arenas)
            for k in reversed(range(len(order))):
                if futures[k].cancel():
                    futures[k] = _run(block, order[k])
            tallies = [f.result() for f in futures]
    c_lo, c_mid, c_hi, jumps = (sum(c) for c in zip(*tallies))
    ci = _CI[method]
    if widen == "certified" and (beta > 0.0 or m > 0.0):
        lo = max(0.0, ci(c_hi, n, confidence)[0] - beta)
        hi = min(1.0, ci(c_lo, n, confidence)[1] + beta)
    else:
        lo, hi = ci(c_mid, n, confidence)
    return MCEstimate(p_hat=c_mid / n, n=n, ci_low=lo, ci_high=hi,
                      confidence=confidence, method=method, bias=beta,
                      margin=m, jumps=jumps)


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
