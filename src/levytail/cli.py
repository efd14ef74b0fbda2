"""Command line front end."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Optional

from . import bounds as _bounds
from . import harness as _harness
from . import levy_model as _lm
from . import simulate as _sim
from .errors import ConfigError, NoApplicableBound, NumericError

_CSV_COLUMNS = ("model", "eps", "t", "truth", "ci_low", "ci_high",
                "lambda_eps", "residual", "bound", "theorem", "valid",
                "margin")


def _g17(v: float) -> str:
    return format(float(v), ".17g")


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


def _parse_grid(text: str) -> list[float]:
    """Grid syntax: "lo:hi:points", "lo:hi" (12 points per decade) or a
    comma separated list of values."""
    if ":" in text:
        fields = text.split(":")
        if len(fields) == 2:
            lo, hi = float(fields[0]), float(fields[1])
            return [float(v) for v in _harness.t_log_grid(lo, hi, 12)]
        if len(fields) == 3:
            import numpy as np
            lo, hi, npts = float(fields[0]), float(fields[1]), int(fields[2])
            if npts < 1:
                raise ConfigError(f"grid needs at least 1 point, got {npts}")
            if npts == 1:
                return [lo]
            return [float(v) for v in np.geomspace(lo, hi, npts)]
        raise ConfigError(f"bad grid spec {text!r}; use lo:hi or lo:hi:points")
    return [float(v) for v in text.split(",") if v.strip()]


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    cfg = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                body = line.split("#", 1)[0].strip()
                if not body:
                    continue
                if "=" not in body:
                    raise ConfigError(
                        f"{path}:{lineno}: expected key=value, got {body!r}"
                    )
                key, value = body.split("=", 1)
                cfg[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return cfg


class _Settings:
    """Flag values override config values override hard defaults."""

    def __init__(self, args: argparse.Namespace, allowed: set[str]):
        self.args = args
        self.cfg = _load_config(getattr(args, "config", None))
        unknown = set(self.cfg) - allowed
        if unknown:
            raise ConfigError(
                "unknown config keys: " + ", ".join(sorted(unknown))
            )

    def get(self, key: str, default=None, cast=str):
        flag = getattr(self.args, key, None)
        if flag is not None:
            return flag
        if key in self.cfg:
            raw = self.cfg[key]
            return _parse_bool(raw) if cast is bool else cast(raw)
        return default

    def require(self, key: str, cast=str):
        value = self.get(key, None, cast)
        if value is None:
            raise ConfigError(f"{key.replace('_', '-')} is required")
        return value


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _print_pairs(pairs: list[tuple[str, object]], fmt: str,
                 out: Optional[str]) -> None:
    if fmt == "json":
        body = {k: _jsonable(v) for k, v in pairs}
        _emit(json.dumps(body, sort_keys=True, indent=2) + "\n", out)
        return
    lines = []
    for key, value in pairs:
        if isinstance(value, float):
            lines.append(f"{key}={_g17(value)}")
        else:
            lines.append(f"{key}={value}")
    _emit("\n".join(lines) + "\n", out)


def _model_from(settings: _Settings) -> _lm.LevyModel:
    return _lm.parse_model(settings.require("model"))


def _mc_options(settings: _Settings, eps: float, method: str) -> dict:
    """The Monte Carlo keywords of validate, rate and simulate; ``method`` is
    the command's default interval.  Any scheme flag builds a scheme, whose
    delta defaults to that of the default scheme at ``eps``."""
    delta = settings.get("delta", None, float)
    refine = settings.get("refine", False, bool)
    budget = settings.get("bias_budget", None, float)
    scheme = None
    if delta is not None or refine or budget is not None:
        if delta is None:
            delta = _sim.SmallJumpScheme.default(eps).delta
        scheme = _sim.SmallJumpScheme(delta, refine, budget)
    return dict(
        stream=_sim.SeededStream(settings.get("seed", 0, int)),
        n=settings.get("n", 10 ** 6, int),
        shards=settings.get("shards", 1, int),
        confidence=settings.get("confidence", 0.99, float),
        method=settings.get("method", method),
        scheme=scheme,
        margin=settings.get("margin", None, float),
        widen=settings.get("widen", "certified"),
    )


# === subcommands =============================================================


def _cmd_constants(settings: _Settings) -> int:
    alpha = settings.require("alpha", float)
    m = settings.get("m", None, float)
    eps = settings.get("eps", None, float)
    table = _bounds.constants(alpha, M=m, eps=eps)
    pairs = [(k, table[k]) for k in sorted(table)]
    _print_pairs(pairs, settings.get("format", "text"),
                 settings.get("out", None))
    return 0


def _cmd_functionals(settings: _Settings) -> int:
    model = _model_from(settings)
    eps = settings.require("eps", float)
    rows: list[tuple[str, object]] = []
    for name, fn in (("lambda_eps", _lm.lambda_), ("sigma2", _lm.sigma2),
                     ("b", _lm.drift_b)):
        fv = fn(model, eps)
        rows.append((name, fv.value))
        rows.append((name + ".abs_error", fv.abs_error_estimate))
        rows.append((name + ".source", fv.source))
    _print_pairs(rows, settings.get("format", "text"),
                 settings.get("out", None))
    return 0


def _cmd_bound(settings: _Settings) -> int:
    model = _model_from(settings)
    eps = settings.require("eps", float)
    t = settings.require("t", float)
    theorem = settings.get("theorem", "auto")
    m1 = settings.get("m1", None, float)
    result = _harness.theorem_bound(model, eps, t, theorem, m1=m1)
    pairs: list[tuple[str, object]] = [
        ("value", result.value),
        ("theorem", result.theorem),
        ("t_max", result.t_max),
        ("valid", "true" if result.valid else "false"),
        ("rate_exponent", result.rate_exponent),
    ]
    if not result.valid:
        pairs.append(("window", f"violated: needs t below {_g17(result.t_max)}"))
    fmt = settings.get("format", "text")
    if fmt == "json":
        pairs.append(("constants_used", dict(result.constants_used)))
    _print_pairs(pairs, fmt, settings.get("out", None))
    return 0


def _csv(columns, rows) -> str:
    # minimal quoting keeps a model name such as cpp(1,uniform(1,2)) one field
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def _cmd_validate(settings: _Settings) -> int:
    model = _model_from(settings)
    eps_values = _parse_grid(settings.require("eps_grid"))
    t_grid = _parse_grid(settings.require("t_grid"))
    theorem = settings.get("theorem", "auto")
    report = _harness.validate_bounds(
        model, eps_values, t_grid, theorem=theorem,
        truth=settings.get("truth", "closed"),
        m1=settings.get("m1", None, float),
        **_mc_options(settings, min(eps_values), "clopper_pearson"),
    )
    if not report.rows:
        raise ConfigError(f"theorem {theorem} covers none of eps = "
                          + ", ".join(_g17(e) for e in eps_values))
    out = settings.get("out", None)
    fmt = settings.get("format", "csv")
    if fmt == "json":
        body = [_jsonable(vars(r)) | {"model": model.name, "status": r.status}
                for r in report.rows]
        _emit(json.dumps(body, sort_keys=True, indent=2) + "\n", out)
    else:
        _emit(_csv(_CSV_COLUMNS, ([
            model.name, _g17(r.eps), _g17(r.t), _g17(r.truth), _g17(r.ci_low),
            _g17(r.ci_high), _g17(r.lambda_eps), _g17(r.residual),
            _g17(r.bound), r.theorem, "true" if r.valid else "false",
            _g17(r.margin),
        ] for r in report.rows)), out)
    sys.stdout.write(f"pass={report.n_pass} fail={report.n_fail} "
                     f"skip={report.n_skip}\n")
    return 0 if report.passed else 5


def _cmd_rate(settings: _Settings) -> int:
    model = _model_from(settings)
    eps = settings.require("eps", float)
    t_grid = _parse_grid(settings.require("t_grid"))
    curve = _harness.residual_curve(
        model, eps, t_grid, truth=settings.get("truth", "closed"),
        **_mc_options(settings, eps, "clopper_pearson"),
    )
    fit = _harness.fit_rate(curve)
    out = settings.get("out", None)
    if out is not None:
        columns = ("model", "eps", "t", "truth", "ci_low", "ci_high",
                   "lambda_eps", "residual")
        _emit(_csv(columns, ([
            model.name, _g17(eps), _g17(p.t), _g17(p.truth),
            _g17(p.ci_low), _g17(p.ci_high), _g17(curve.lambda_eps),
            _g17(p.residual),
        ] for p in curve.points)), out)
    _print_pairs([
        ("slope", fit.slope),
        ("intercept", fit.intercept),
        ("r2", fit.r2),
        ("t_low", fit.t_range[0]),
        ("t_high", fit.t_range[1]),
        ("points_used", fit.points_used),
    ], settings.get("format", "text"), None)
    return 0


def _cmd_simulate(settings: _Settings) -> int:
    model = _model_from(settings)
    eps = settings.require("eps", float)
    t = settings.require("t", float)
    mc = _mc_options(settings, eps, "wilson")
    side = settings.get("side", "abs")
    if settings.get("smalljump", False, bool):
        est = _sim.estimate_smalljump_tail(
            model, eps, t, x=settings.get("x", None, float), side=side, **mc)
    else:
        est = _sim.estimate_tail_prob(model, eps, t, side=side, **mc)
    _print_pairs([
        ("p_hat", est.p_hat),
        ("ci_low", est.ci_low),
        ("ci_high", est.ci_high),
        ("n", est.n),
        ("confidence", est.confidence),
        ("method", est.method),
        ("bias", est.bias),
        ("margin", est.margin),
    ], settings.get("format", "text"), settings.get("out", None))
    return 0


# === argument wiring =========================================================


# every option defaults to None so config values can fill it in
_OPTIONS = {
    "model": dict(help="model expression, e.g. cauchy or power_law(1,0.5)"),
    "eps": dict(type=float, help="jump size cutoff"),
    "t": dict(type=float, help="time horizon"),
    "t_grid": dict(help="t grid: lo:hi, lo:hi:points or v1,v2,..."),
    "eps_grid": dict(help="eps grid: lo:hi, lo:hi:points or v1,v2,..."),
    "alpha": dict(type=float, help="stable-type index"),
    "m": dict(type=float, help="class constant M"),
    "m1": dict(type=float, help="lower envelope constant"),
    "n": dict(type=int, help="Monte Carlo paths (default 1000000)"),
    "seed": dict(type=int, help="master seed (default 0)"),
    "shards": dict(type=int, help="sample shards: the order of the blocks "
                                  "only, which run on up to one thread per "
                                  "CPU; output is the same for any count "
                                  "(default 1)"),
    "confidence": dict(type=float, help="CI level (default 0.99)"),
    "method": dict(choices=("wilson", "clopper_pearson"),
                   help="binomial interval"),
    "truth": dict(choices=("closed", "mc"), help="truth source"),
    "theorem": dict(help="bound selector (default auto): "
                         + ", ".join(_bounds.THEOREMS)
                         + "; the corollaries need --m1"),
    "delta": dict(type=float, help="small-jump simulation cutoff"),
    "refine": dict(action="store_true", default=None,
                   help="Gaussian refinement below delta"),
    "bias_budget": dict(type=float, help="certified bias budget"),
    "margin": dict(type=float, help="threshold margin for MC counts"),
    "widen": dict(choices=("certified", "plain"), help="CI widening"),
    "side": dict(choices=("abs", "pos"), help="tail side (default abs)"),
    "smalljump": dict(action="store_true", default=None,
                      help="estimate the small-jump martingale tail"),
    "x": dict(type=float, help="threshold for the small-jump tail"),
    "out": dict(help="write output to this file"),
    "format": dict(choices=("text", "json", "csv"), help="output format"),
}


_HANDLERS = {
    "constants": (_cmd_constants, ("alpha", "m", "eps", "out", "format")),
    "functionals": (_cmd_functionals, ("model", "eps", "out", "format")),
    "bound": (_cmd_bound, ("model", "eps", "t", "theorem", "m1", "out",
                           "format")),
    "validate": (_cmd_validate, ("model", "eps_grid", "t_grid", "theorem",
                                 "truth", "n", "seed", "shards", "confidence",
                                 "method", "delta", "refine", "bias_budget",
                                 "margin", "widen", "m1", "out", "format")),
    "rate": (_cmd_rate, ("model", "eps", "t_grid", "truth", "n", "seed",
                         "shards", "confidence", "method", "delta", "refine",
                         "bias_budget", "margin", "widen", "out", "format")),
    "simulate": (_cmd_simulate, ("model", "eps", "t", "n", "seed", "shards",
                                 "confidence", "method", "delta", "refine",
                                 "bias_budget", "margin", "widen", "side",
                                 "smalljump", "x", "out", "format")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levytail",
        description="Explicit tail bounds and validation for jump processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in _HANDLERS.items():
        subparser = sub.add_parser(name)
        for option in options:
            subparser.add_argument("--" + option.replace("_", "-"),
                                   **_OPTIONS[option])
        subparser.add_argument("--config", help="key=value config file")
    return parser


_PARSER = build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    handler, options = _HANDLERS[args.command]
    try:
        settings = _Settings(args, set(options))
        return handler(settings)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NoApplicableBound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
