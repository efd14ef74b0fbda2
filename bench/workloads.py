"""Seeded op sequences for the three workloads, and the code that runs one op.

A workload is a fixed list of slots.  Round r of a run draws one op per slot
from a generator keyed by (seed, workload, r), so every round has the same
make-up of models, theorems and cost classes while the continuous inputs
(eps, t) are fresh.  Warm-up ops run on twin models: the same families with
other parameters, so warm-up evaluates no functional of a model that a timed
op uses.  Building a round calls nothing in levytail.

Ops return plain data (floats, strings, tuples) so the parent process can
check them against the references without importing levytail.
"""

from __future__ import annotations

import contextlib
import io
import math

import numpy as np

WORKLOADS = ("bound_curves", "validate_closed", "mc_composed")
_WORKLOAD_KEY = {name: i + 1 for i, name in enumerate(WORKLOADS)}

MIN_TIMED_OPS = 100  # so op_p90_ms always has ten samples beyond it
MAX_TIMED_S = 120.0  # stop adding rounds after this, whatever the op count

CURVE_POINTS = 16
VALIDATE_CHEAP_ROWS = 8
MC_PATHS = 1 << 15
MC_CONFIDENCE = 1.0 - 1e-9  # a correct sampler misses with probability 1e-9 per op

# Faults of the program that some ops show in every round, whatever the seed.
# An op that carries one is counted as failed; run.py expects it to fail
# through the check that fault breaks (checks.FAULT_CODE) and through no other.
GAMMA_FAULT = "closed_forms.gamma_tail"
CPP_FAULT = "closed_forms.cpp_exact_tail"
COROLLARY_FAULT = "bounds.bound_stable_type"


def _rng(seed: int, workload: str, round_index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, _WORKLOAD_KEY[workload], round_index, stream])


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


# === bound_curves ============================================================
#
# (kind, params, model text, theorem, m1, eps range).  The first ten slots are
# closed-form or structured models (about 20 us per point), the last five the
# quadrature-only tempered-stable models (5-10 ms per point).

_CAUCHY_LIP = "cauchy; lipschitz=2.4:0.65:1.3:2.4"  # 2/(pi 0.65^3) = 2.32 <= 2.4

CURVE_SLOTS = (
    ("cauchy", (), "cauchy", "auto", None, (0.2, 0.9)),
    ("cauchy", (), "cauchy", "corollary", 1.0 / math.pi, (0.2, 0.9)),
    ("cauchy", (), _CAUCHY_LIP, "lambda2", None, (0.87, 1.0)),
    ("cauchy", (), _CAUCHY_LIP, "auto", None, (0.87, 1.0)),
    ("gamma", (), "gamma", "auto", None, (0.2, 0.9)),
    ("inverse_gaussian", (), "inverse_gaussian", "teo1", None, (0.2, 0.9)),
    ("stable", (0.5, 1.0), "stable(0.5,1)", "auto", None, (0.2, 0.9)),
    ("stable", (1.5, 1.0), "stable(1.5,1)", "ps2", None, (0.2, 0.9)),
    ("power_law", (1.0, 0.5, 2.0), "power_law(1,0.5)", "ps1", None, (0.2, 0.9)),
    ("cpp", (1.0, 1.0, 2.0), "cpp(1, uniform(1,2))", "auto", None, (0.2, 0.9)),
    # The three tempered_stable(0.5,1) slots cost about the same and are the
    # dearest, so p90 (rank 13.5 of 15) falls in the middle of their block.
    ("tempered_stable", (0.5, 1.0), "tempered_stable(0.5,1)", "auto", None, (0.34, 0.36)),
    ("tempered_stable", (0.5, 1.0), "tempered_stable(0.5,1)", "teo1", None, (0.49, 0.51)),
    ("tempered_stable", (0.5, 1.0), "tempered_stable(0.5,1)", "auto", None, (0.64, 0.66)),
    ("tempered_stable", (1.2, 1.0), "tempered_stable(1.2,1)", "lambda2bis", None, (0.64, 0.66)),
    ("tempered_stable", (1.5, 2.0), "tempered_stable(1.5,2)", "auto", None, (0.49, 0.51)),
)


# The corollary curve runs on past its window, to t of at least 1.5 10^-0.05
# = 1.34.  For alpha = 1, bound_stable_type multiplies by log(Btilde / (t
# lambda_eps)), which turns negative beyond t = (e/2) eps (Cauchy), at most
# 1.22 for eps <= 0.9; so every op of that slot returns negative values, on
# every seed, and is counted as failed.
COROLLARY_T_TOP = 1.5

# Warm-up twins: same family and code path, other parameters.  gamma and
# inverse_gaussian have no parameters and hence no twin; they are not warmed
# up.  0.6 / 0.65^3 = 2.19 <= 2.4, so the twin's Lipschitz certificate holds.
CURVE_TWINS = {
    "cauchy": ("stable(1,0.3)", 0.3),  # (model text, m1 for the corollary)
    _CAUCHY_LIP: ("stable(1,0.3); lipschitz=2.4:0.65:1.3:2.4", None),
    "stable(0.5,1)": ("stable(0.5,1.2)", None),
    "stable(1.5,1)": ("stable(1.5,1.2)", None),
    "power_law(1,0.5)": ("power_law(1.2,0.5)", None),
    "cpp(1, uniform(1,2))": ("cpp(1.5, uniform(1,2.5))", None),
    "tempered_stable(0.5,1)": ("tempered_stable(0.5,1.2)", None),
    "tempered_stable(1.2,1)": ("tempered_stable(1.2,1.2)", None),
    "tempered_stable(1.5,2)": ("tempered_stable(1.5,2.2)", None),
}


def _curve_op(rng, slot) -> dict:
    kind, params, text, theorem, m1, (elo, ehi) = slot
    corollary = theorem == "corollary"
    t_lo = 1e-4 * 10.0 ** rng.uniform(0.0, 0.1)
    t_hi = (COROLLARY_T_TOP * 10.0 ** rng.uniform(-0.05, 0.0) if corollary
            else 0.3 * 10.0 ** rng.uniform(-0.1, 0.0))
    return {
        "kind": kind, "params": params, "model": text, "theorem": theorem,
        "m1": m1, "eps": float(rng.uniform(elo, ehi)),
        "t_grid": [float(v) for v in np.geomspace(t_lo, t_hi, CURVE_POINTS)],
        "cost": "quadrature" if kind == "tempered_stable" else "closed",
        "known_fault": COROLLARY_FAULT if corollary else None,
    }


def _run_curve(op: dict, lt) -> dict:
    model = lt.levy_model.parse_model(op["model"])
    points = []
    for t in op["t_grid"]:
        r = lt.harness.theorem_bound(model, op["eps"], t, op["theorem"], m1=op["m1"])
        lambdas = {k: v for k, v in r.constants_used.items()
                   if k.startswith("lambda") and isinstance(v, float)}
        points.append((t, r.value, r.valid, r.t_max, r.theorem, lambdas))
    return {"points": points}


# === validate_closed =========================================================
#
# (kind, params, model text, eps range or fixed eps, t grid rule, fault).
# Cheap ops are a validate run over 8 t points; cpp ops whose eps needs two or
# more jumps run over 2 t points, each point redoing the grid convolutions.

_CPP1 = ("cpp", (1.0, 1.0, 2.0), "cpp(1, uniform(1,2))")
_CPP2 = ("cpp", (2.0, 0.5, 1.5), "cpp(2, uniform(0.5,1.5))")

VALIDATE_SLOTS = (
    (("cauchy", (), "cauchy"), (0.2, 2.0), "cheap", None),
    (("cauchy", (), "cauchy"), (0.2, 2.0), "cheap", None),
    (("gamma", (), "gamma"), (1.6, 4.0), "cheap", None),
    (("gamma", (), "gamma"), (1.6, 4.0), "cheap", None),
    (("gamma", (), "gamma"), (1.6, 4.0), "cheap", None),
    (("gamma", (), "gamma"), 1.0, (1e-5, 1e-4, 1e-3, 1e-2), GAMMA_FAULT),
    (("inverse_gaussian", (), "inverse_gaussian"), (0.1, 3.0), "cheap", None),
    (("inverse_gaussian", (), "inverse_gaussian"), (0.1, 3.0), "cheap", None),
    (_CPP1, (1.05, 1.95), "cheap", None),
    (_CPP1, (1.05, 1.95), "cheap", None),
    (_CPP1, (1.05, 1.95), "cheap", None),
    (_CPP1, (1.05, 1.95), "cheap", None),
    (_CPP1, (1.05, 1.95), "cheap", None),
    (_CPP2, (0.55, 0.95), "cheap", None),
    (_CPP2, (0.55, 0.95), "cheap", None),
    (_CPP2, (0.55, 0.95), "cheap", None),
    (_CPP2, (0.55, 0.95), "cheap", None),
    (_CPP2, 1.2, "multi", None),
    (_CPP1, 4.0, (0.1, 0.5), CPP_FAULT),
    (_CPP1, 5.0, (0.1, 0.5), CPP_FAULT),
    (_CPP2, 3.0, "multi", None),
    (_CPP2, 3.0, "multi", None),
    (_CPP2, 3.0, "multi", None),
    (_CPP2, 3.0, "multi", None),
    (_CPP2, 3.0, "multi", None),
)


# Warm-up: cpp twins with other rates and jump laws, one single-jump and one
# multi-jump level; cauchy, gamma and inverse_gaussian have no twin with a
# closed tail and are not warmed up.
VALIDATE_WARMUP = (
    (("cpp", (1.5, 1.0, 2.5), "cpp(1.5, uniform(1,2.5))"), (1.05, 1.95), "cheap", None),
    (("cpp", (2.5, 0.5, 1.4), "cpp(2.5, uniform(0.5,1.4))"), (0.55, 0.95), "cheap", None),
    (("cpp", (2.5, 0.5, 1.4), "cpp(2.5, uniform(0.5,1.4))"), 1.2, (0.2,), None),
)


def _validate_op(rng, slot) -> dict:
    (kind, params, text), eps_rule, grid_rule, fault = slot
    eps = float(rng.uniform(*eps_rule)) if isinstance(eps_rule, tuple) else eps_rule
    if grid_rule == "cheap":
        lo, hi = 1e-4 * 10.0 ** rng.uniform(0.0, 0.2), 0.1 * 10.0 ** rng.uniform(-0.2, 0.0)
        grid = f"{lo!r}:{hi!r}:{VALIDATE_CHEAP_ROWS}"
        cost = "cheap"
    elif grid_rule == "multi":
        grid = f"{_log_uniform(rng, 0.01, 0.05)!r},{_log_uniform(rng, 0.3, 0.9)!r}"
        cost = "multi_jump"
    else:
        grid = ",".join(repr(t) for t in grid_rule)
        cost = "multi_jump" if kind == "cpp" else "cheap"
    return {"kind": kind, "params": params, "model": text, "eps": eps,
            "argv": ["validate", "--model", text, "--eps-grid", repr(eps),
                     "--t-grid", grid],
            "cost": cost, "known_fault": fault}


def _run_validate(op: dict, lt) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lt.cli.main(op["argv"])
    return {"exit": code, "stdout": buf.getvalue()}


# === mc_composed =============================================================
#
# Every op goes through the composed small-jump scheme at MC_PATHS paths (two
# blocks of 2^14).  t sits inside the window of the model's theorem, at a
# fixed log-position of [t_max/100, 0.98 t_max] per slot, where t_max is the
# window at the middle of the model's eps range (mc_windows, once per run at
# set-up), so that building a round evaluates nothing in levytail.

MC_MODELS = {
    # label: (theorem whose window holds t, delta, refinement, bias budget,
    #         margin as a share of eps or None for the default eps/100,
    #         eps range)
    "power_law(1,0.5)": ("teo1", 1e-4, False, 1e-6, None, (0.74, 0.76)),
    "power_law(1,1.5)": ("ps2", 0.01, False, 1.0, None, (0.74, 0.76)),
    "tempered_stable(0.5,1)": ("teo1", 1e-3, False, None, None, (0.74, 0.76)),
    "tempered_stable(1.2,1)": ("lambda2bis", 1e-2, False, None, None, (0.74, 0.76)),
    "discontinuous_example(1.5,1)": ("lambda2bis", 0.01, True, None, None, (0.99, 1.01)),
    "cauchy_composed": ("lambda2bis", 1e-3, False, None, 0.1, (0.74, 0.76)),
}

# (model label, routine, t as a log-position in [t_max/100, 0.98 t_max])
MC_SLOTS = (
    ("power_law(1,0.5)", "tail", 0.2),
    ("power_law(1,0.5)", "tail", 0.8),
    ("power_law(1,0.5)", "smalljump", 0.5),
    ("power_law(1,1.5)", "tail", 0.2),
    ("power_law(1,1.5)", "tail", 0.8),
    ("power_law(1,1.5)", "smalljump", 0.5),
    ("tempered_stable(0.5,1)", "tail", 0.2),
    ("tempered_stable(0.5,1)", "tail", 0.8),
    ("tempered_stable(1.2,1)", "tail", 0.2),
    ("tempered_stable(1.2,1)", "tail", 0.8),
    ("discontinuous_example(1.5,1)", "tail", 0.2),
    ("discontinuous_example(1.5,1)", "tail", 0.8),
    ("cauchy_composed", "tail", 0.2),
    ("cauchy_composed", "tail", 0.8),
    ("cauchy_composed", "smalljump", 0.5),
)


def build_mc_models(lt, twins: bool = False) -> dict:
    """The six models of mc_composed, keyed by label; with ``twins`` their
    warm-up twins, the same families with other parameters.  The composed
    Cauchy is the Cauchy density under another name and without its closed
    forms, so simulate finds no exact sampler and takes the small-jump route."""
    from dataclasses import replace
    lm = lt.levy_model
    s = 1.2 if twins else 1.0
    stable1 = lm.stable(1.0, 0.3) if twins else lm.cauchy()
    return {
        "power_law(1,0.5)": lm.power_law(s, 0.5),
        "power_law(1,1.5)": lm.power_law(s, 1.5),
        "tempered_stable(0.5,1)": lm.tempered_stable(0.5, s),
        "tempered_stable(1.2,1)": lm.tempered_stable(1.2, s),
        "discontinuous_example(1.5,1)": lt.harness.discontinuous_example(1.5, 1.1 if twins else 1.0),
        "cauchy_composed": replace(stable1, closed=None,
                                   name="stable_composed" if twins else "cauchy_composed"),
    }


def mc_windows(lt, models: dict) -> dict:
    """t_max of each model's theorem at the middle of its eps range."""
    out = {}
    for label, model in models.items():
        theorem, *_, (lo, hi) = MC_MODELS[label]
        out[label] = lt.harness.theorem_bound(model, 0.5 * (lo + hi), 1e-9, theorem).t_max
    return out


def _mc_op(rng, slot, windows: dict, stream_id: int) -> dict:
    label, routine, pos = slot
    theorem, delta, refine, budget, margin_share, eps_range = MC_MODELS[label]
    eps = float(rng.uniform(*eps_range))
    t_max = windows[label]
    # log-position pos in [t_max/100, 0.98 t_max], jittered by +-0.01
    p = pos + float(rng.uniform(-0.01, 0.01))
    t = float(math.exp(math.log(t_max / 100.0) + p * math.log(98.0)))
    return {"model": label, "routine": routine, "eps": eps, "t": t,
            "delta": delta, "refine": refine, "bias_budget": budget,
            "margin": None if margin_share is None else margin_share * eps,
            "stream_id": stream_id, "n": MC_PATHS,
            "cost": routine, "known_fault": None}


def run_mc(op: dict, lt, models: dict, shards: int = 1) -> dict:
    sim = lt.simulate
    scheme = sim.SmallJumpScheme(delta=op["delta"], gaussian_refinement=op["refine"],
                                 bias_budget=op["bias_budget"])
    stream = sim.SeededStream(op["seed"], op["stream_id"])
    common = dict(shards=shards, confidence=MC_CONFIDENCE,
                  method="clopper_pearson", margin=op["margin"])
    model = models[op["model"]]
    if op["routine"] == "tail":
        est = sim.estimate_tail_prob(model, op["eps"], op["t"], op["n"], stream,
                                     scheme=scheme, **common)
    else:
        est = sim.estimate_smalljump_tail(model, op["eps"], op["t"], op["n"],
                                          stream, scheme, **common)
    return {"p_hat": est.p_hat, "ci_low": est.ci_low, "ci_high": est.ci_high,
            "bias": est.bias, "margin": est.margin, "n": est.n}


# === sequences ===============================================================


def _slots(workload: str):
    return {"bound_curves": CURVE_SLOTS, "validate_closed": VALIDATE_SLOTS,
            "mc_composed": MC_SLOTS}[workload]


def _interleave(ops: list[dict]) -> list[dict]:
    """Run order of a round: the ops of each population spread evenly over
    the round, so that a population's latencies sample the machine at many
    moments of the round and not in one burst."""
    size, rank = {}, []
    for op in ops:
        rank.append(size.get(op["cost"], 0))
        size[op["cost"]] = rank[-1] + 1
    order = sorted(range(len(ops)), key=lambda i: (rank[i] + 0.5) / size[ops[i]["cost"]])
    return [ops[i] for i in order]


def round_ops(workload: str, seed: int, round_index: int, windows=None) -> list[dict]:
    """The ops of one round: one per slot, drawn from the round's own key in
    slot order and run in _interleave order.  ``windows`` (mc_composed only)
    is mc_windows of the timed models."""
    rng = _rng(seed, workload, round_index, 0)
    out = []
    for k, slot in enumerate(_slots(workload)):
        if workload == "bound_curves":
            op = _curve_op(rng, slot)
        elif workload == "validate_closed":
            op = _validate_op(rng, slot)
        else:
            op = _mc_op(rng, slot, windows, 10_000_000 + round_index * 1000 + k)
            op["seed"] = seed
        op["slot"] = k
        out.append(op)
    return _interleave(out)


def warmup(workload: str, seed: int, lt) -> tuple[list[dict], dict | None]:
    """Warm-up ops and the mc_composed models they run on.  Every op runs on
    a twin model (CURVE_TWINS, VALIDATE_WARMUP, build_mc_models(twins=True)),
    drawn from a key of its own, so warm-up shares no functional evaluation
    with the timed ops; a traced run counts any it does share."""
    rng = _rng(seed, workload, 0, 1)
    if workload == "bound_curves":
        ops = []
        for kind, params, text, theorem, m1, eps_range in CURVE_SLOTS:
            if text in CURVE_TWINS:
                twin, twin_m1 = CURVE_TWINS[text]
                slot = (kind, params, twin, theorem, twin_m1 if m1 else None, eps_range)
                ops.append(_curve_op(rng, slot))
        return ops, None
    if workload == "validate_closed":
        return [_validate_op(rng, slot) for slot in VALIDATE_WARMUP], None
    twins = build_mc_models(lt, twins=True)
    windows = mc_windows(lt, twins)
    ops = []
    for k, slot in enumerate(MC_SLOTS):
        op = _mc_op(rng, slot, windows, 20_000_000 + k)
        op.update(seed=seed, n=1 << 12)
        ops.append(op)
    return ops, twins


def op_key(op: dict) -> tuple:
    """(model, eps) identity of an op: the run reports the share of ops
    whose key appeared earlier."""
    return (op["model"], op["eps"])


def run_op(workload: str, op: dict, lt, models=None) -> dict:
    if workload == "bound_curves":
        return _run_curve(op, lt)
    if workload == "validate_closed":
        return _run_validate(op, lt)
    return run_mc(op, lt, models)
