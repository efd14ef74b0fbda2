"""Spans and counts around the public functions of levytail's modules.

:func:`install` replaces every public function of each layer module by a
wrapper, at every module-level name that refers to it (``bounds.lambda_`` as
well as ``levy_model.lambda_``), so calls are seen at the names their callers
look up.  A wrapper records one span (layer, function, start, end, parent
span, op id) in memory and, for a few functions, a count derived from the
arguments or the result.  Nothing is written until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import gzip
import math
import sys
import time
import types

LAYERS = ("levy_model", "bounds", "closed_forms", "simulate", "harness", "cli")

# levy_model functions that evaluate a functional of the jump measure
FUNCTIONALS = frozenset({"lambda_", "lambda_band", "sigma2", "drift_b", "band_moment1",
                         "class_functional_bounds", "verify_class_membership"})
SAMPLING = frozenset({"sample_increment", "sample_small_jumps"})
CERTIFY = "scheme_bias_bound"


def cpp_convolutions(jump, eps: float, n_max: int) -> int:
    """Grid convolutions one cpp_exact_tail call performs, computed from its
    arguments: 2 (n_top - 1) for a uniform law whose eps needs two jumps or
    more (the coarse and the fine grid each convolve n_top - 1 times)."""
    lo = getattr(jump, "lo", None)
    if lo is None or not hasattr(jump, "hi") or eps <= lo:
        return 0
    n_top = n_max if lo <= 0.0 else min(math.ceil(eps / lo - 1e-12) - 1, n_max)
    return 2 * max(n_top - 1, 0)


class Tracer:
    """In-memory span log.  Span fields: layer, name, start, end, parent, op."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.events: list[tuple] = []  # (op, kind, value)
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (module, name, function, wrapper)

    def wrap(self, layer: str, name: str, fn):
        spans, stack, events = self.spans, self._stack, self.events
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, name, clock(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
            if layer == "levy_model" and name in FUNCTIONALS:
                model = args[0]
                key = (name, model.name, model.class_M, model.class_alpha,
                       args[1:], tuple(sorted(kwargs.items())))
                events.append((self.op, "functional", key))
                if getattr(result, "source", None) == "quadrature":
                    events.append((self.op, "quadrature", 1))
            elif layer == "closed_forms" and name == "cpp_exact_tail":
                jump, eps = args[1], args[2]
                n_max = kwargs.get("n_max", args[4] if len(args) > 4 else 64)
                convs = cpp_convolutions(jump, eps, n_max)
                events.append((self.op, "convolutions", convs))
                # (jump law, eps, terms): the t-independent part of the work
                events.append((self.op, "cpp_key", (repr(jump), eps, convs)))
            elif layer == "simulate" and name == "sample_jump_band":
                events.append((self.op, "jumps", int(args[4] if len(args) > 4 else kwargs["n"])))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def dump(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("layer,name,start,end,parent,op\n")
            for layer, name, start, end, parent, op in self.spans:
                fh.write(f"{layer},{name},{start!r},{end!r},{parent},{op}\n")


def _public_functions(mod: types.ModuleType) -> dict:
    names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
    out = {}
    for n in names:
        fn = getattr(mod, n, None)
        if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
            out[n] = fn
    return out


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer at every name bound to them."""
    mods = [m for name, m in list(sys.modules.items())
            if m is not None and (name == "levytail" or name.startswith("levytail."))]
    for layer in LAYERS:
        mod = sys.modules[f"levytail.{layer}"]
        for fname, fn in _public_functions(mod).items():
            wrapper = tracer.wrap(layer, fname, fn)
            for m in mods:
                for gname, value in list(vars(m).items()):
                    if value is fn:
                        tracer._patches.append((m, gname, fn, wrapper))
                        setattr(m, gname, wrapper)


def set_tracing(tracer: Tracer, on: bool) -> None:
    """Put the wrappers (on) or the original functions (off) back at every
    name :func:`install` patched."""
    for mod, name, fn, wrapper in tracer._patches:
        setattr(mod, name, wrapper if on else fn)


# === summaries ===============================================================


def self_times(spans: list[list]) -> list[float]:
    """Per-span self time: duration minus the time its child spans cover.
    Children of one span run one after another in a single thread, so their
    durations add up to the covered time."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[4] >= 0:
            child[s[4]] += s[3] - s[2]
    return [s[3] - s[2] - c for s, c in zip(spans, child)]


def setup_reused(tracer: Tracer, n_setup: int) -> int:
    """Distinct functional evaluations (model, functional, arguments) made
    both in set-up (building the inputs and warm-up), the first ``n_setup``
    events, and in the timed ops.  A cache filled during set-up could serve
    only these; 0 means none."""
    warm = {v for _, kind, v in tracer.events[:n_setup] if kind == "functional"}
    timed = {v for op, kind, v in tracer.events if kind == "functional" and op >= 0}
    return len(warm & timed)


def summarise(tracer: Tracer, n_ops: int, count_ops: set) -> dict:
    """Per-layer metrics.  Times are per op over the ``n_ops`` traced ops;
    counts are per op over ``count_ops`` (round 0), so that they repeat
    exactly."""
    spans = tracer.spans
    selfs = self_times(spans)
    timed = [i for i, s in enumerate(spans) if s[5] >= 0]
    layer_self = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    parse = sample = certify = 0.0
    for i in timed:
        layer, name, start, end, parent, op = spans[i]
        layer_self[layer] += selfs[i]
        if op in count_ops:
            calls[layer] += (name in FUNCTIONALS) if layer == "levy_model" else 1
        if name == "parse_model":
            parse += end - start
        elif name in SAMPLING and (parent < 0 or spans[parent][1] not in SAMPLING):
            sample += end - start  # outermost sampling call only
        elif name == CERTIFY:
            certify += end - start

    quad = convs = jumps = jumps_all = 0
    keys: list = []
    cpp_keys: list = []
    for op, kind, value in tracer.events:
        if op < 0:
            continue
        if kind == "jumps":
            jumps_all += value
        if op not in count_ops:
            continue
        if kind == "functional":
            keys.append(value)
        elif kind == "quadrature":
            quad += value
        elif kind == "convolutions":
            convs += value
        elif kind == "cpp_key":
            cpp_keys.append(value)
        elif kind == "jumps":
            jumps += value

    n_count = max(len(count_ops), 1)
    per_op = 1e3 / max(n_ops, 1)
    return {
        "levy_model.calls": calls["levy_model"] / n_count,
        "levy_model.quadrature_calls": quad / n_count,
        "levy_model.unique_ratio": len(set(keys)) / len(keys) if keys else 1.0,
        "levy_model.self_ms": layer_self["levy_model"] * per_op,
        "levy_model.parse_ms": parse * per_op,
        "bounds.calls": calls["bounds"] / n_count,
        "bounds.self_ms": layer_self["bounds"] * per_op,
        "closed_forms.calls": calls["closed_forms"] / n_count,
        "closed_forms.convolutions": convs / n_count,
        "closed_forms.unique_ratio": len(set(cpp_keys)) / len(cpp_keys) if cpp_keys else 1.0,
        "closed_forms.self_ms": layer_self["closed_forms"] * per_op,
        "harness.self_ms": layer_self["harness"] * per_op,
        "cli.self_ms": layer_self["cli"] * per_op,
        "simulate.jumps": jumps / n_count,
        "simulate.sample_ms": sample * per_op,
        "simulate.jumps_per_s": jumps_all / sample if sample > 0 else 0.0,
        "simulate.certify_ms": certify * per_op,
        "simulate.self_ms": layer_self["simulate"] * per_op,
    }
