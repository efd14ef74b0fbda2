"""One workload in one fresh process: set up, run timed rounds, report.

Started by run.py, never by hand.  ``--spawned-at`` is the parent's
``time.monotonic()`` just before it started this process, so the set-up time
covers interpreter start, imports, building the inputs and warm-up.

Modes: ``setup`` stops where the first timed op would start; ``run`` times
whole rounds until ``--seconds`` have passed and at least MIN_TIMED_OPS ops
are done; ``rounds`` times exactly ``--rounds`` rounds (quick mode).  Each
timed round is written out as one JSON line as soon as it ends; the last
line is the summary.

With ``--trace 1`` the even rounds run traced and the odd rounds untraced,
alternately, so the tracing overhead is measured within one process at
nearly the same moments; spans go to
bench/out/trace-<workload>-seed<seed>.csv.gz.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_levytail():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    lt = importlib.import_module("levytail")
    for layer in ("levy_model", "bounds", "closed_forms", "simulate", "harness", "cli"):
        importlib.import_module(f"levytail.{layer}")
    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(lt.__file__).startswith(src + os.sep):
        raise SystemExit(f"levytail was imported from {lt.__file__}, not from {src}")
    return lt


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--mode", choices=("setup", "run", "rounds"), default="run")
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--spawned-at", type=float, required=True)
    args = p.parse_args(argv)

    lt = _import_levytail()
    sys.path.insert(0, HERE)
    import workloads as wl

    tracer = None
    if args.trace:
        import spans as tr
        tracer = tr.Tracer()
        tr.install(tracer)

    w = args.workload
    models = windows = None
    if w == "mc_composed":
        models = wl.build_mc_models(lt)
        windows = wl.mc_windows(lt, models)
    # Round 0 is built here; later rounds are built between rounds with the
    # clock paused, so set-up does not grow with --seconds.
    round0 = wl.round_ops(w, args.seed, 0, windows)
    warm_ops, warm_models = wl.warmup(w, args.seed, lt)
    for op in warm_ops:
        wl.run_op(w, op, lt, warm_models)
    if tracer is not None:
        tracer.spans.clear()  # set-up spans; its events stay, with op -1
        n_setup = len(tracer.events)

    setup_s = time.monotonic() - args.spawned_at
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    round_s = []
    n_ops = 0
    clock = time.perf_counter
    paused = 0.0
    t_first = clock()
    r = 0
    ops = round0
    while True:
        if r > 0:
            g0 = clock()
            if tracer is not None:
                tracer.op = -1
                tr.set_tracing(tracer, r % 2 == 0)
            ops = wl.round_ops(w, args.seed, r, windows)
            paused += clock() - g0
        outs, errors, lat = [], [], []
        r0 = clock()
        for op in ops:
            if tracer is not None:
                tracer.op = n_ops + len(lat)
            a = clock()
            try:
                out, err = wl.run_op(w, op, lt, models), None
            except Exception as exc:  # an op that raises is a failed op
                out, err = None, f"{type(exc).__name__}: {exc}"
            lat.append(clock() - a)
            outs.append(out)
            errors.append(err)
        round_s.append(clock() - r0)
        # Hand the round's outputs to the parent with the clock paused, so
        # the worker's memory does not grow with the number of ops it ran.
        g0 = clock()
        json.dump({"ops": ops, "outs": outs, "errors": errors, "lat_s": lat}, sys.stdout)
        sys.stdout.write("\n")
        sys.stdout.flush()
        paused += clock() - g0
        n_ops += len(ops)
        r += 1
        elapsed = clock() - t_first - paused
        if args.mode == "rounds":
            if r >= args.rounds:
                break
        elif elapsed >= args.seconds and n_ops >= wl.MIN_TIMED_OPS:
            break
        elif elapsed >= wl.MAX_TIMED_S:
            break
    wall_s = clock() - t_first - paused
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.op = -1
        tr.set_tracing(tracer, True)

    report = {"workload": w, "seed": args.seed, "setup_s": setup_s, "wall_s": wall_s,
              "rounds": r, "round_s": round_s, "peak_rss_mb": peak_rss_mb}
    if w == "mc_composed":
        report["shard_check"] = _shard_check(wl, lt, models, round0, args.seed)
    if tracer is not None:
        n_traced = len(round0) * ((r + 1) // 2)
        report["per_layer"] = tr.summarise(tracer, n_traced, set(range(len(round0))))
        pairs = r // 2  # (traced, untraced) round pairs
        report["per_layer"]["trace.overhead_pct"] = 100.0 * (
            sum(round_s[0:2 * pairs:2]) / sum(round_s[1:2 * pairs:2]) - 1.0)
        report["setup_reused"] = tr.setup_reused(tracer, n_setup)
        trace_file = os.path.join(HERE, "out", f"trace-{w}-seed{args.seed}.csv.gz")
        os.makedirs(os.path.dirname(trace_file), exist_ok=True)
        tracer.dump(trace_file)
        report["trace_file"] = os.path.relpath(trace_file, ROOT)
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


def _shard_check(wl, lt, models, round0, seed: int) -> list:
    """Rerun a seeded subset of round 0 with three shards instead of one."""
    import numpy as np
    rng = np.random.default_rng([seed, 3, 0, 2])
    picks = sorted(int(k) for k in rng.choice(len(round0), size=2, replace=False))
    return [{"index": k, "out": wl.run_mc(round0[k], lt, models, shards=3)} for k in picks]


if __name__ == "__main__":
    sys.exit(main())
