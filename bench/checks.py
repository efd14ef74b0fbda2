"""Correctness checks of each workload's outputs against bench/refs.py.

``check_op`` returns the problems found in one op's output as (code, message)
pairs, empty when the op is correct.  The code is TRUTH for a closed-form
truth that misses its reference by more than its own error estimate, which
is how the named closed_forms faults show, NEGATIVE for a finite bound below
zero, which is how the named bounds fault shows, and CHECK for anything else.
All checks run in the parent process, after the worker has ended, and never
import levytail.
"""

from __future__ import annotations

import math

import refs

LAMBDA_RTOL = 1e-10
RESIDUAL_THEOREMS = {"teo1", "lambda2bis", "lambda2", "corollary"}
PROBABILITY_THEOREMS = {"ps1", "ps2", "lemma_sj", "markov"}
TRUTH = "truth"  # code of the closed-truth-vs-reference check
NEGATIVE = "negative"  # code of a finite bound below zero
CHECK = "check"

# named fault (workloads.py) -> the check it breaks
FAULT_CODE = {
    "closed_forms.gamma_tail": TRUTH,
    "closed_forms.cpp_exact_tail": TRUTH,
    "bounds.bound_stable_type": NEGATIVE,
}

# constants_used key -> the cutoff at which that lambda was evaluated
_LAMBDA_AT = {
    "lambda_eps": lambda eps: eps,
    "lambda_2eps": lambda eps: 2.0 * eps,
    "lambda_1": lambda eps: 1.0,
    "lambda_2": lambda eps: 2.0,
    "lambda_1_plus_eps": lambda eps: 1.0 + eps,
    "lambda_min_eps_1": lambda eps: min(eps, 1.0),
}


def _bad(message: str) -> tuple:
    return (CHECK, message)


def _rel_close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * abs(ref) + 1e-300


def _check_lambda(kind, params, eps, name, value, where) -> list:
    if name not in _LAMBDA_AT:
        return [_bad(f"{where}: no reference for constants_used[{name!r}]")]
    ref = refs.lambda_ref(kind, tuple(params), _LAMBDA_AT[name](eps))
    if not _rel_close(value, ref, LAMBDA_RTOL):
        return [_bad(f"{where}: {name} = {value!r}, reference {ref!r}")]
    return []


def check_curve(op: dict, out: dict) -> list:
    kind, params, eps = op["kind"], tuple(op["params"]), op["eps"]
    problems = []
    for t, value, valid, t_max, theorem, lambdas in out["points"]:
        where = f"{op['model']} eps={eps!r} t={t!r} {theorem}"
        if not math.isfinite(value):
            problems.append(_bad(f"{where}: bound {value!r} is not finite"))
            continue
        if value < 0.0:
            problems.append((NEGATIVE, f"{where}: bound {value!r} is negative"))
            continue
        if t < t_max * (1.0 - 1e-12) and not valid:
            problems.append(_bad(f"{where}: t < t_max = {t_max!r} but valid is false"))
        if t > t_max * (1.0 + 1e-12) and valid:
            problems.append(_bad(f"{where}: t > t_max = {t_max!r} but valid is true"))
        for name, lam in lambdas.items():
            problems += _check_lambda(kind, params, eps, name, lam, where)
        p = refs.exact_tail(kind, params, eps, t)
        if p is None or not valid:
            continue
        tl = t * refs.lambda_ref(kind, params, eps)
        slack = 1e-14 * max(p, tl)
        if theorem in RESIDUAL_THEOREMS and abs(p - tl) > value + slack:
            problems.append(_bad(f"{where}: |P - t lambda| = {abs(p - tl)!r} above bound {value!r}"))
        if theorem in PROBABILITY_THEOREMS and p - tl > value + slack:
            problems.append(_bad(f"{where}: P - t lambda = {p - tl!r} above bound {value!r}"))
    return problems


def _parse_validate(stdout: str):
    # The model column is not quoted and model names such as
    # cpp(1,uniform(1,2)) contain commas, so fields are split from the right.
    lines = stdout.strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.rsplit(",", len(header) - 1))) for line in lines[1:-1]]
    summary = dict(kv.split("=") for kv in lines[-1].split())
    return rows, {k: int(v) for k, v in summary.items()}


def check_validate(op: dict, out: dict) -> list:
    kind, params = op["kind"], tuple(op["params"])
    if out["exit"] != 0:
        return [_bad(f"validate exited with {out['exit']}")]
    rows, summary = _parse_validate(out["stdout"])
    problems = []
    if summary["fail"] != 0:
        problems.append(_bad(f"{summary['fail']} FAIL rows"))
    if summary["pass"] + summary["fail"] + summary["skip"] != len(rows):
        problems.append(_bad(f"summary {summary} does not add up to {len(rows)} rows"))
    statuses = {"pass": 0, "fail": 0, "skip": 0}
    for row in rows:
        eps, t = float(row["eps"]), float(row["t"])
        where = f"{op['model']} eps={eps!r} t={t!r}"
        status = ("skip" if row["valid"] != "true"
                  else "pass" if float(row["margin"]) >= 0.0 else "fail")
        statuses[status] += 1
        problems += _check_lambda(kind, params, eps, "lambda_eps",
                                  float(row["lambda_eps"]), where)
        truth = float(row["truth"])
        half = (float(row["ci_high"]) - float(row["ci_low"])) / 2.0
        ref = refs.exact_tail(kind, params, eps, t)
        if abs(truth - ref) > half + 4.0 * refs.ulp(ref):
            problems.append((TRUTH, f"{where}: truth {truth!r} is {abs(truth - ref):.3e} "
                                    f"from the reference {ref!r}, certified half-width "
                                    f"{half:.3e}"))
    if statuses != summary:
        problems.append(_bad(f"row statuses {statuses} disagree with the summary {summary}"))
    return problems


def check_mc(op: dict, out: dict) -> list:
    problems = []
    lo, p, hi = out["ci_low"], out["p_hat"], out["ci_high"]
    where = f"{op['model']} {op['routine']} eps={op['eps']!r} t={op['t']!r}"
    if not 0.0 <= lo <= p <= hi <= 1.0:
        problems.append(_bad(f"{where}: interval [{lo!r}, {hi!r}] around {p!r} is out of order"))
    if op["bias_budget"] is not None and out["bias"] > op["bias_budget"]:
        problems.append(_bad(f"{where}: bias {out['bias']!r} above budget {op['bias_budget']!r}"))
    if op["model"] == "cauchy_composed" and op["routine"] == "tail":
        ref = refs.cauchy_tail(op["eps"], op["t"])
        if not lo <= ref <= hi:
            problems.append(_bad(f"{where}: interval [{lo!r}, {hi!r}] misses the closed tail {ref!r}"))
    return problems


def check_op(workload: str, op: dict, out) -> list:
    if workload == "bound_curves":
        return check_curve(op, out)
    if workload == "validate_closed":
        return check_validate(op, out)
    return check_mc(op, out)
