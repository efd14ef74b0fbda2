"""Sampling determinism and Monte Carlo tail estimation."""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

import levytail
from levytail import simulate as sim
from levytail.errors import SchemeInfeasible
from levytail.levy_model import (
    LevyModel,
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
