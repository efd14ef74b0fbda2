"""Sampling determinism and Monte Carlo tail estimation."""

import dataclasses
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

import levytail
from levytail import simulate as sim
from levytail.errors import SchemeInfeasible
from levytail.harness import discontinuous_example
from levytail.levy_model import (
    LevyModel,
    PowerPart,
    TailEnvelope,
    cauchy,
    gamma,
    lambda_band,
    parse_model,
    power_law,
    stable,
    tempered_stable,
)
from levytail.simulate import (
    MCEstimate,
    SeededStream,
    SmallJumpScheme,
    estimate_smalljump_tail,
    estimate_tail_prob,
    sample_increment,
    scheme_bias_bound,
)


# === stream layout ===========================================================


def test_stream_is_reproducible():
    a = SeededStream(42).generator().normal(size=8)
    b = SeededStream(42).generator().normal(size=8)
    assert np.array_equal(a, b)


def test_children_are_distinct_and_stable():
    root = SeededStream(7)
    ids = {root.stream_id}
    for i in range(50):
        ids.add(root.child(i).stream_id)
    for i in range(10):
        ids.add(root.child(0).child(i).stream_id)
    assert len(ids) == 61
    a = root.child(3).generator().normal(size=4)
    b = root.child(4).generator().normal(size=4)
    assert not np.array_equal(a, b)


def test_block_generators_are_independent_of_each_other():
    s = SeededStream(1, 5)
    x0 = s.block_generator(0).normal(size=4)
    x1 = s.block_generator(1).normal(size=4)
    assert not np.array_equal(x0, x1)
    assert np.array_equal(x1, s.block_generator(1).normal(size=4))


# === exact samplers ==========================================================


def test_cauchy_estimate_brackets_closed_truth():
    model = cauchy()
    eps, t = 1.0, 0.02
    truth = model.closed.tail(eps, t).value
    est = estimate_tail_prob(model, eps, t, n=200_000, stream=SeededStream(11))
    assert est.ci_low <= truth <= est.ci_high
    assert est.bias == 0.0
    assert est.margin == 0.0


def test_stable_sampler_agrees_with_cauchy_at_alpha_one():
    # stable(1, 1/pi) is the Cauchy process, reached through the
    # Chambers-Mallows-Stuck route instead of the library sampler
    model = stable(1.0, 1.0 / math.pi)
    eps, t = 0.8, 0.05
    truth = cauchy().closed.tail(eps, t).value
    est = estimate_tail_prob(model, eps, t, n=400_000, stream=SeededStream(23))
    assert est.ci_low <= truth <= est.ci_high


def test_stable_sampler_ignores_looser_class_certificate():
    # class_M = 2 only loosens the certificate; the process is unchanged
    runs = [estimate_tail_prob(parse_model(text), 1.0, 0.05, n=50_000,
                               stream=SeededStream(3))
            for text in ("stable(1.5,1)", "stable(1.5,1); class_M=2")]
    assert runs[0] == runs[1]


def test_gamma_estimate_brackets_closed_truth():
    model = gamma()
    eps, t = 0.5, 0.3
    truth = model.closed.tail(eps, t).value
    est = estimate_tail_prob(model, eps, t, n=200_000, stream=SeededStream(5),
                             method="clopper_pearson")
    assert est.ci_low <= truth <= est.ci_high


def test_renamed_model_keeps_its_exact_sampler():
    kw = dict(eps=0.5, t=0.3, n=50_000, stream=SeededStream(5))
    renamed = dataclasses.replace(gamma(), name="renamed")
    assert estimate_tail_prob(renamed, **kw) == estimate_tail_prob(gamma(), **kw)


def test_name_alone_does_not_select_an_exact_sampler():
    # the gamma density without its closed forms, under the gamma name
    model = dataclasses.replace(gamma(), closed=None)
    assert model.name == "gamma"
    rng = SeededStream(0).generator()
    with pytest.raises(SchemeInfeasible, match="no exact sampler"):
        sample_increment(model, 0.1, rng, 10)


def test_cpp_with_jumps_from_zero_brackets_exact_tail():
    model = parse_model("cpp(1,uniform(0,1))")
    eps, t = 1.5, 0.5
    truth = model.closed.tail(eps, t).value
    est = estimate_tail_prob(model, eps, t, n=200_000, stream=SeededStream(13))
    assert est.bias == 0.0
    assert est.ci_low <= truth <= est.ci_high


def test_shard_layouts_give_identical_estimates():
    model = cauchy()
    runs = [estimate_tail_prob(model, 1.0, 0.05, n=100_000,
                               stream=SeededStream(3), shards=s)
            for s in (1, 4, 16)]
    assert runs[0] == runs[1] == runs[2]


def test_one_sided_count_never_exceeds_two_sided():
    model = cauchy()
    kw = dict(n=50_000, stream=SeededStream(9))
    pos = estimate_tail_prob(model, 1.0, 0.05, side="pos", **kw)
    both = estimate_tail_prob(model, 1.0, 0.05, side="abs", **kw)
    assert pos.p_hat <= both.p_hat


# === band jumps by envelope rejection ========================================


def _lopsided_density(x):
    # x^-1.5 e^-x for x > 0 and 0.3 |x|^-1.5 e^-2|x| for x < 0; 0 at x = 0
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(np.asarray(x) > 0, np.exp(-a), 0.3 * np.exp(-2.0 * a)) \
            * a ** -1.5
    return np.where(a > 0, f, 0.0)[()]


LOPSIDED = LevyModel(
    density=_lopsided_density,
    symmetric=False,
    variation="finite",
    class_alpha=0.5,
    class_M=1.0,
    # f(x) + f(-x) = x^-1.5 (e^-x + 0.3 e^-2x) <= 1.3 e^-x for x >= 1
    tail_envelope=TailEnvelope(coef=1.3, rate=1.0, beyond=1.0),
    name="lopsided",
)

REJECTION_MODELS = [tempered_stable(0.5, 1.0), tempered_stable(1.2, 1.0),
                    LOPSIDED]
REJECTION_BANDS = [(1e-3, 1.0), (0.5, 5.0), (1.0, math.inf)]


@pytest.mark.parametrize("band", REJECTION_BANDS, ids=str)
@pytest.mark.parametrize("model", REJECTION_MODELS, ids=lambda m: m.name)
def test_band_rejection_draws_follow_the_density(model, band):
    lo, hi = band
    n = 100_000
    x = sim.sample_jump_band(model, lo, hi, SeededStream(16).generator(), n)
    r = np.abs(x)
    assert x.shape == (n,) and np.all((r > lo) & (r <= hi))
    lam = lambda_band(model, lo, hi).value
    # |x| against lambda_band(lo, r) / lambda_band(lo, hi) on 25 quantiles;
    # 1.95 is the 0.1 % level of the Kolmogorov-Smirnov statistic
    qs = np.quantile(r, np.linspace(0.02, 0.98, 25))
    dev = max(abs(np.mean(r <= q) - lambda_band(model, lo, q).value / lam)
              for q in qs)
    assert math.sqrt(n) * dev < 1.95
    # the share of positive jumps against the mass of f on the positive side
    p = integrate.quad(model.density, lo, hi)[0] / lam
    assert abs(np.mean(x > 0) - p) < 4.0 * math.sqrt(p * (1.0 - p) / n)


@pytest.fixture
def envelope_batches(monkeypatch):
    """The sizes of the candidate batches drawn from the envelope."""
    drawn = []
    real = sim._draw_envelope

    def counting(pieces, rng, n):
        drawn.append(n)
        return real(pieces, rng, n)

    monkeypatch.setattr(sim, "_draw_envelope", counting)
    return drawn


def test_band_rejection_draws_about_one_candidate_per_jump(envelope_batches):
    n = 100_000
    sim.sample_jump_band(tempered_stable(0.5, 1.0), 1e-3, 1.0,
                         SeededStream(2).generator(), n)
    assert sum(envelope_batches) <= 1.5 * n


def test_low_acceptance_band_draws_in_bounded_batches(envelope_batches):
    # the band mass is 1e-4 of the class envelope's, so sizing the batch from
    # the acceptance alone would ask for 2.1e6 candidates at once
    faint = LevyModel(density=lambda x: 1e-4 * np.abs(x) ** -1.5,
                      symmetric=True, variation="finite", class_alpha=0.5,
                      class_M=1.0, name="faint")
    x = sim.sample_jump_band(faint, 1e-3, 1.0, SeededStream(4).generator(), 200)
    assert x.shape == (200,)
    assert max(envelope_batches) == sim._MAX_BATCH


# === stream exactness of the chunked samplers ================================
#
# One-shot references: the sampling formulas drawn in single calls, one
# rng.random(n), one int64 rng.integers(0, 2, size=n) and one repeat+bincount.
# The chunked samplers must give their bits and leave the generator as they do.


def _ref_part_band(part, lo, hi, rng, n):
    a, b, al = max(lo, part.lo), min(hi, part.hi), part.alpha
    u = rng.random(n)
    ta, tb = a ** -al, (0.0 if math.isinf(b) else b ** -al)
    r = (ta - u * (ta - tb)) ** (-1.0 / al)
    if part.side == "pos":
        return r
    if part.side == "neg":
        return -r
    return (rng.integers(0, 2, size=n) * 2.0 - 1.0) * r


def _ref_draw_envelope(pieces, rng, n):
    masses = np.array([p[5] for p in pieces])
    idx = rng.choice(len(pieces), size=n, p=masses / masses.sum()) \
        if len(pieces) > 1 else np.zeros(n, dtype=int)
    r, dens = np.empty(n), np.empty(n)
    for k, (kind, rate, coef, a, b, _) in enumerate(pieces):
        sel = idx == k
        u = rng.random(int(sel.sum()))
        if kind == "power":
            ta, tb = a ** -rate, (0.0 if math.isinf(b) else b ** -rate)
            rr = (ta - u * (ta - tb)) ** (-1.0 / rate)
            dd = coef * rr ** -(1.0 + rate)
        else:
            ea, eb = math.exp(-rate * a), (0.0 if math.isinf(b)
                                           else math.exp(-rate * b))
            rr = -np.log(ea - u * (ea - eb)) / rate
            dd = coef * np.exp(-rate * rr)
        r[sel], dens[sel] = rr, dd
    return r, dens


def _ref_band_jumps(model, lo, hi, lam, rng, n):
    if model.jump_parts is not None:
        live = [(p, p.mass(lo, hi)) for p in model.jump_parts]
        live = [(p, w) for p, w in live if w > 0.0]
        if len(live) == 1:
            return _ref_part_band(live[0][0], lo, hi, rng, n)
        weights = np.array([w for _, w in live])
        idx = rng.choice(len(live), size=n, p=weights / weights.sum())
        out = np.empty(n)
        for k, (part, _) in enumerate(live):
            sel = idx == k
            if sel.any():
                out[sel] = _ref_part_band(part, lo, hi, rng, int(sel.sum()))
        return out
    pieces = sim._envelope_pieces(model, lo, hi)
    acc = lam / sum(p[5] for p in pieces)
    out, filled = np.empty(n), 0
    while filled < n:
        want = n - filled
        batch = min(math.ceil(want / acc * 1.05) + 64, sim._MAX_BATCH)
        r, env = _ref_draw_envelope(pieces, rng, batch)
        f_pos = np.asarray(model.density(r), dtype=float)
        g = f_pos + np.asarray(model.density(-r), dtype=float)
        v = rng.random(batch) * env
        x = np.where(v < f_pos, r, -r)[v < g][:want]
        out[filled:filled + x.size] = x
        filled += x.size
    return out


def _ref_compound(model, lo, hi, lam, t, rng, n):
    counts = rng.poisson(t * lam, size=n)
    jumps = _ref_band_jumps(model, lo, hi, lam, rng, int(counts.sum()))
    owner = np.repeat(np.arange(n), counts)
    return np.bincount(owner, weights=jumps, minlength=n), int(counts.sum())


def _same_stream(chunked, reference, seed=21):
    """Run both draws on fresh generators of one seed; compare output bits
    and the generators' states after."""
    rng_c = SeededStream(seed).generator()
    rng_r = SeededStream(seed).generator()
    out_c, out_r = chunked(rng_c), reference(rng_r)
    assert repr(rng_c.bit_generator.state) == repr(rng_r.bit_generator.state)
    return out_c, out_r


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


PL = power_law(1.0, 0.5)
DISC = discontinuous_example(1.5, 1.0)


@pytest.mark.parametrize("n", [1000, sim._CHUNK, 2 * sim._CHUNK + 7])
def test_chunked_part_band_matches_one_shot_draws(n):
    lam = lambda_band(PL, 1e-3, 1.0).value
    out_c, out_r = _same_stream(
        lambda rng: sim._band_jumps(PL, 1e-3, 1.0, lam, rng, n),
        lambda rng: _ref_band_jumps(PL, 1e-3, 1.0, lam, rng, n))
    assert _bits(out_c) == _bits(out_r)


@pytest.mark.parametrize("side", ["pos", "neg", "both"])
def test_one_sided_parts_match_one_shot_draws(side):
    part = PowerPart(coef=1.0, alpha=1.2, lo=0.0, hi=2.0, side=side)
    n = sim._CHUNK + 3
    out_c, out_r = _same_stream(
        lambda rng: sim._sample_part_band(part, 0.01, 1.5, rng, n),
        lambda rng: _ref_part_band(part, 0.01, 1.5, rng, n))
    assert _bits(out_c) == _bits(out_r)
    assert side != "pos" or out_c.min() > 0
    assert side != "neg" or out_c.max() < 0


def test_odd_sign_count_carries_into_the_next_compound_poisson():
    # a Philox generator keeps the unused half of a 64-bit word between
    # 32-bit draws: an odd number of signs leaves it for the next band
    lam_s = lambda_band(PL, 1e-3, 1.0).value
    lam_b = lambda_band(PL, 1.0, math.inf).value

    def block(band_jumps, compound):
        def run(rng):
            first = band_jumps(PL, 1e-3, 1.0, lam_s, rng, sim._CHUNK + 1)
            return first, compound(PL, 1e-3, 1.0, lam_s, 0.05, rng, 301), \
                compound(PL, 1.0, math.inf, lam_b, 0.05, rng, 301)
        return run

    out_c, out_r = _same_stream(block(sim._band_jumps, sim._compound_poisson),
                                block(_ref_band_jumps, _ref_compound))
    assert _bits(out_c[0]) == _bits(out_r[0])
    for (sums_c, k_c), (sums_r, k_r) in zip(out_c[1:], out_r[1:]):
        assert _bits(sums_c) == _bits(sums_r) and k_c == k_r


def test_two_part_band_matches_one_shot_draws():
    lam = lambda_band(DISC, 1.0, math.inf).value
    n = 2 * sim._CHUNK + 5
    out_c, out_r = _same_stream(
        lambda rng: sim._band_jumps(DISC, 1.0, math.inf, lam, rng, n),
        lambda rng: _ref_band_jumps(DISC, 1.0, math.inf, lam, rng, n))
    assert _bits(out_c) == _bits(out_r)
    assert np.any(np.abs(out_c) > 1.5) and np.any(np.abs(out_c) <= 1.5)


def test_path_with_more_jumps_than_a_chunk_sums_as_one_bincount():
    lam = lambda_band(PL, 1e-3, 1.0).value
    t = 2.0 * sim._CHUNK / lam  # about two chunks of jumps per path
    out_c, out_r = _same_stream(
        lambda rng: sim._compound_poisson(PL, 1e-3, 1.0, lam, t, rng, 5),
        lambda rng: _ref_compound(PL, 1e-3, 1.0, lam, t, rng, 5))
    assert _bits(out_c[0]) == _bits(out_r[0])
    assert out_c[1] == out_r[1] > 8 * sim._CHUNK


@pytest.mark.parametrize("band", [(1e-3, 1.0), (1.0, math.inf)], ids=str)
@pytest.mark.parametrize("model", [tempered_stable(0.5, 1.0), LOPSIDED],
                         ids=lambda m: m.name)
def test_chunked_rejection_matches_one_shot_draws(model, band):
    lo, hi = band
    lam = lambda_band(model, lo, hi).value
    n = 100_000
    out_c, out_r = _same_stream(
        lambda rng: sim._band_jumps(model, lo, hi, lam, rng, n),
        lambda rng: _ref_band_jumps(model, lo, hi, lam, rng, n))
    assert _bits(out_c) == _bits(out_r)


def test_rejection_draws_every_v_of_a_batch_it_fills_early():
    # a batch of about 2 _CHUNK + 10 candidates keeps its n jumps about 5 %
    # before its end, so its last chunk of v's is drawn but not tested
    model, lo, hi = tempered_stable(0.5, 1.0), 1e-3, 1.0
    lam = lambda_band(model, lo, hi).value
    acc = lam / sum(p[5] for p in sim._envelope_pieces(model, lo, hi))
    n = int((2 * sim._CHUNK + 10 - 64) * acc / 1.05)
    out_c, out_r = _same_stream(
        lambda rng: sim._band_jumps(model, lo, hi, lam, rng, n),
        lambda rng: _ref_band_jumps(model, lo, hi, lam, rng, n))
    assert _bits(out_c) == _bits(out_r)


def test_band_without_mass_raises_before_drawing(monkeypatch):
    # vanishes on (1, 2] without declaring a support radius
    def density(x):
        a = np.abs(x)
        with np.errstate(divide="ignore"):
            return np.where((a > 0) & (a <= 1.0), a ** -1.5, 0.0)[()]

    model = LevyModel(density=density, symmetric=True, variation="finite",
                      class_alpha=0.5, class_M=1.0, name="gap")
    monkeypatch.setattr(sim, "_draw_envelope", None)  # any draw would fail
    rng = SeededStream(3).generator()
    with pytest.raises(SchemeInfeasible, match="carries no mass on"):
        sim.sample_jump_band(model, 1.0, 2.0, rng, 10 ** 6)
    assert rng.random() == SeededStream(3).generator().random()


# === scheme route ============================================================


def test_scheme_route_brackets_closed_truth():
    # drop the closed forms so the dispatch falls back to band simulation,
    # then check against the closed Cauchy tail it still represents
    model = dataclasses.replace(cauchy(), closed=None)
    eps, t = 1.0, 0.05
    truth = cauchy().closed.tail(eps, t).value
    scheme = SmallJumpScheme(delta=1e-3, gaussian_refinement=True)
    est = estimate_tail_prob(model, eps, t, n=100_000, stream=SeededStream(17),
                             scheme=scheme)
    assert est.bias > 0.0
    assert est.ci_low <= truth <= est.ci_high


def test_certified_interval_contains_plain_interval():
    model = power_law(1.0, 0.5)
    kw = dict(n=50_000, stream=SeededStream(31),
              scheme=SmallJumpScheme(delta=0.01))
    cert = estimate_tail_prob(model, 0.5, 0.05, widen="certified", **kw)
    plain = estimate_tail_prob(model, 0.5, 0.05, widen="plain", **kw)
    assert cert.ci_low <= plain.ci_low
    assert cert.ci_high >= plain.ci_high
    assert plain.bias == cert.bias  # certificate still reported
    assert plain.p_hat == cert.p_hat


def test_smalljump_estimator_needs_delta_below_eps():
    with pytest.raises(SchemeInfeasible):
        estimate_smalljump_tail(power_law(1.0, 0.5), 0.5, 0.01, n=100,
                                stream=SeededStream(0),
                                scheme=SmallJumpScheme(delta=0.5))


def test_missing_scheme_for_composed_model():
    model = power_law(1.0, 0.5)
    rng = SeededStream(0).generator()
    with pytest.raises(SchemeInfeasible, match="no exact sampler"):
        sample_increment(model, 0.1, rng, 10)


def test_scheme_rejects_nonpositive_delta():
    with pytest.raises(SchemeInfeasible):
        SmallJumpScheme(delta=0.0)


# === bias certificates =======================================================


def test_bias_bound_decreases_with_margin():
    model = power_law(1.0, 0.5)
    scheme = SmallJumpScheme(delta=1e-3)
    biases = [scheme_bias_bound(model, 0.01, scheme, m)
              for m in (0.002, 0.01, 0.05)]
    assert biases[0] >= biases[1] >= biases[2]
    assert all(0.0 <= b <= 1.0 for b in biases)


def test_bias_bound_refinement_uses_gaussian_tail():
    model = power_law(1.0, 0.5)
    t, margin = 0.01, 0.05
    plain = scheme_bias_bound(model, t, SmallJumpScheme(delta=1e-3), margin)
    refined = scheme_bias_bound(
        model, t, SmallJumpScheme(delta=1e-3, gaussian_refinement=True), margin)
    from levytail.levy_model import sigma2
    s2 = sigma2(model, 1e-3).value
    gauss = float(math.erfc(margin / (2.0 * math.sqrt(2.0 * t * s2))))
    assert refined <= 1.0
    assert refined >= gauss  # the Gaussian leg is included
    assert plain > 0.0


def test_bias_budget_is_enforced():
    model = power_law(1.0, 0.5)
    tight = SmallJumpScheme(delta=0.05, bias_budget=1e-12)
    with pytest.raises(SchemeInfeasible, match="budget"):
        estimate_tail_prob(model, 0.5, 0.05, n=1000, stream=SeededStream(0),
                           scheme=tight, margin=0.005)
    with pytest.raises(SchemeInfeasible):
        scheme_bias_bound(model, 0.05, SmallJumpScheme(delta=0.01), 0.0)


# === estimate structure ======================================================


def test_estimate_fields_and_ci_methods():
    model = cauchy()
    for method in ("wilson", "clopper_pearson"):
        est = estimate_tail_prob(model, 1.0, 0.05, n=20_000,
                                 stream=SeededStream(2), method=method,
                                 confidence=0.95)
        assert isinstance(est, MCEstimate)
        assert est.method == method
        assert est.confidence == 0.95
        assert est.n == 20_000
        assert est.ci_low <= est.p_hat <= est.ci_high
    with pytest.raises(ValueError, match="unknown CI method"):
        estimate_tail_prob(model, 1.0, 0.05, n=100, stream=SeededStream(0),
                           method="jeffreys")
    with pytest.raises(ValueError):
        estimate_tail_prob(model, 1.0, 0.05, n=0, stream=SeededStream(0))


def test_bad_ci_method_is_rejected_before_sampling(monkeypatch):
    # count the blocks drawn: the estimate builds its draw once and calls it
    # once per block
    calls = []
    real = sim._increment_draw

    def counting(*args, **kwargs):
        draw = real(*args, **kwargs)

        def counted(rng, n):
            calls.append(1)
            return draw(rng, n)

        return counted

    monkeypatch.setattr(sim, "_increment_draw", counting)
    with pytest.raises(ValueError, match="unknown CI method"):
        estimate_tail_prob(cauchy(), 1.0, 0.05, n=4 * 10 ** 6,
                           stream=SeededStream(0), method="jeffreys")
    assert calls == []
    with pytest.raises(ValueError, match="unknown CI method"):
        estimate_smalljump_tail(power_law(1.0, 0.5), 0.5, 0.01, n=10 ** 6,
                                stream=SeededStream(0), method="jeffreys")
    estimate_tail_prob(cauchy(), 1.0, 0.05, n=100, stream=SeededStream(0))
    assert calls == [1]


def test_smalljump_scheme_defaults_to_the_default_scheme():
    model = power_law(1.0, 0.5)
    kw = dict(eps=0.75, t=0.01, n=20_000, stream=SeededStream(6))
    assert estimate_smalljump_tail(model, **kw) == estimate_smalljump_tail(
        model, scheme=SmallJumpScheme.default(0.75), **kw)
    assert SmallJumpScheme.default(0.004).delta == 0.0005
    assert SmallJumpScheme.default(1.0) == SmallJumpScheme(delta=1e-3)


def test_intervals_match_scipy_stats_bit_for_bit():
    rng = np.random.default_rng(20)
    for _ in range(2000):
        n = int(rng.integers(1, 10 ** 7))
        k = int(rng.integers(0, n + 1))
        conf = float(rng.uniform(0.5, 0.999999))
        z = float(stats.norm.ppf(0.5 + conf / 2.0))
        p = k / n
        denom = 1.0 + z * z / n
        center = (p + z * z / (2.0 * n)) / denom
        half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
        assert sim._wilson(k, n, conf) == (max(0.0, center - half),
                                           min(1.0, center + half))
        a = 1.0 - conf
        lo = 0.0 if k == 0 else float(stats.beta.ppf(a / 2.0, k, n - k + 1))
        hi = 1.0 if k == n else float(stats.beta.ppf(1.0 - a / 2.0, k + 1,
                                                     n - k))
        assert sim._clopper_pearson(k, n, conf) == (lo, hi)


# === jumps drawn, concurrent blocks and their memory =========================


def test_jumps_are_the_poisson_counts_of_every_block():
    # replay each block with the one-shot references: M_t(1)'s band, then
    # the jumps beyond 1, as the composed increment draws them
    model, t = PL, 0.05
    scheme = SmallJumpScheme(delta=0.01)
    n, stream = 2 * sim.BLOCK + 1000, SeededStream(12, 3)
    lam_s = lambda_band(model, 0.01, 1.0).value
    lam_b = lambda_band(model, 1.0, math.inf).value
    total = 0
    for j, size in enumerate((sim.BLOCK, sim.BLOCK, 1000)):
        rng = stream.block_generator(j)
        total += _ref_compound(model, 0.01, 1.0, lam_s, t, rng, size)[1]
        total += _ref_compound(model, 1.0, math.inf, lam_b, t, rng, size)[1]
    ests = [estimate_tail_prob(model, 0.5, t, n, stream, shards=s,
                               scheme=scheme) for s in (1, 3)]
    assert ests[0].jumps == ests[1].jumps == total > 0
    assert estimate_tail_prob(cauchy(), 1.0, 0.05, n, stream).jumps == 0


@pytest.fixture
def block_threads(monkeypatch):
    """Set the CPUs the process may run on; record the threads that drew
    the blocks."""
    seen = []
    for name in ("_increment_draw", "_small_jump_draw"):
        real = getattr(sim, name)

        def recording(*args, _real=real, **kwargs):
            draw = _real(*args, **kwargs)

            def recorded(rng, n):
                seen.append(threading.get_ident())
                return draw(rng, n)

            return recorded

        monkeypatch.setattr(sim, name, recording)

    def set_cpus(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
        seen.clear()

    set_cpus.seen = seen
    return set_cpus


@pytest.mark.parametrize("shards", [1, 3])
def test_estimates_do_not_depend_on_the_cpu_count(block_threads, shards):
    n, stream = 3 * sim.BLOCK + 11, SeededStream(14)
    scheme = SmallJumpScheme(delta=0.01, gaussian_refinement=True)
    runs = []
    for cpus in ({0}, {0, 1, 2, 3}):
        block_threads(cpus)
        runs.append((
            estimate_tail_prob(tempered_stable(0.5, 1.0), 0.5, 0.05, n, stream,
                               shards=shards, scheme=scheme),
            estimate_smalljump_tail(DISC, 0.8, 0.02, n, stream, scheme,
                                    shards=shards, side="pos"),
        ))
        # the calling thread draws every block with one CPU; with four,
        # pool threads draw some of them
        seen = set(block_threads.seen)
        assert (seen == {threading.get_ident()}) == (len(cpus) == 1)
    assert runs[0] == runs[1]


def test_a_failing_block_raises_the_same_error_on_any_cpu_count(
        block_threads, monkeypatch):
    # acceptance 1e-9 with 64 candidates per batch: every block stalls
    faint = LevyModel(density=lambda x: 1e-9 * np.abs(x) ** -1.5,
                      symmetric=True, variation="finite", class_alpha=0.5,
                      class_M=1.0, name="faint")
    monkeypatch.setattr(sim, "_MAX_BATCH", 64)
    errors = []
    for cpus in ({0}, {0, 1, 2, 3}):
        block_threads(cpus)
        with pytest.raises(SchemeInfeasible) as info:
            estimate_smalljump_tail(faint, 0.5, 1e4, 2 * sim.BLOCK,
                                    SeededStream(1), SmallJumpScheme(0.01))
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    assert "stalled" in errors[0][1]


def test_two_blocks_in_flight_hold_about_one_float_per_jump(block_threads,
                                                            monkeypatch):
    # lambda of (1e-4, 1] is 4 (100 - 1) = 396, so t = 0.155 draws about
    # 61 jumps per path, 1 M per 2^14-path block; band arrays come from
    # numpy's allocator here, so that tracemalloc sees them
    block_threads({0, 1})
    monkeypatch.setattr(sim, "_band_array", np.empty)
    tracemalloc.start()
    try:
        est = estimate_tail_prob(PL, 0.5, 0.155, 2 * sim.BLOCK,
                                 SeededStream(3), scheme=SmallJumpScheme(1e-4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_block = est.jumps / 2
    assert 0.9e6 < per_block < 1.1e6
    assert peak < 2 * 8 * per_block + 8 * 2 ** 20, peak


def test_cli_import_leaves_scipy_stats_unloaded():
    code = ("import sys, levytail.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    # the child imports the levytail under test, wherever pytest found it
    src = os.path.dirname(os.path.dirname(levytail.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "[]"


class TestStreamProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31),
           st.integers(min_value=0, max_value=1000),
           st.integers(min_value=0, max_value=1000))
    def test_child_collision_free_within_parent(self, seed, i, j):
        root = SeededStream(seed)
        if i != j:
            assert root.child(i).stream_id != root.child(j).stream_id

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10),
           st.integers(min_value=0, max_value=10))
    def test_grandchildren_do_not_collide_with_children(self, i, j):
        root = SeededStream(0)
        assert root.child(i).child(j).stream_id != root.child(i).stream_id
