"""levytail benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload bound_curves --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload mc_composed --seed 1 --seconds 25 --trace 1
    python3 bench/run.py --quick --workload validate_closed --seed 1
    python3 bench/run.py --self-test

Each run starts the workload in a fresh worker process (bench/worker.py): one
client in a closed loop, BLAS and OpenMP pools held to at most two threads.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a run whose rounds alternate traced and untraced, plus the
tracing overhead between the two kinds of round.  Outputs are checked against bench/refs.py after the timed
section.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402  (after the path set-up above)
from workloads import MIN_TIMED_OPS, WORKLOADS, op_key  # noqa: E402

SETUP_PROBES = 2          # extra set-ups per untraced run; setup_s is the median of 3
QUICK_ROUNDS = 2          # rounds of --quick; a traced run needs a traced and an untraced one
WORKER_TIMEOUT_S = 170.0


def _spec(key: str) -> list:
    """The list BENCHMARK.json holds under ``key``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)[key]


def _with_units(values: dict, kind: str) -> dict:
    """Every metric BENCHMARK.json lists under ``kind``, with its unit."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in _spec(kind)}


def _worker_env() -> dict:
    env = dict(os.environ)
    threads = str(max(1, min(2, len(os.sched_getaffinity(0)))))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = threads
    return env


def _spawn(workload: str, seed: int, seconds: float, trace: int, mode: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--mode", mode, "--rounds", str(QUICK_ROUNDS)]
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                          env=_worker_env(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker ({workload}, {mode}) exited with {proc.returncode}")
    *rounds, summary = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    for key in ("ops", "outs", "errors", "lat_s"):
        summary[key] = [x for rnd in rounds for x in rnd[key]]
    return summary


# === checking ================================================================


def _outcomes(report: dict) -> list:
    """Per op: the list of (code, message) problems, empty when it passed."""
    w = report["workload"]
    out = []
    for op, res, err in zip(report["ops"], report["outs"], report["errors"]):
        out.append([("error", err)] if err else checks.check_op(w, op, res))
    for rerun in report.get("shard_check", []):
        k = rerun["index"]
        if rerun["out"] != report["outs"][k]:
            out[k].append(("shards", f"op {k}: three shards gave {rerun['out']}, "
                                     f"one shard {report['outs'][k]}"))
    return out


def _tally(report: dict, outcomes: list) -> tuple[bool, int, list]:
    """(correct, failed, unexpected problems).  An op fails when any check
    fails; a failure is expected only on an op that carries a named fault and
    only through the check that fault breaks."""
    failed, unexpected = 0, []
    for op, problems in zip(report["ops"], outcomes):
        if not problems:
            continue
        failed += 1
        code = checks.FAULT_CODE.get(op["known_fault"])
        if code is None or any(c != code for c, _ in problems):
            unexpected += [msg for _, msg in problems]
    return not unexpected, failed, unexpected


# === metrics =================================================================


def _quantile(values: list, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _end_to_end(report: dict, setups: list, quick: bool) -> dict:
    lat = report["lat_s"]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / report["wall_s"],
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": _quantile(lat, 0.9) * 1e3,
        "peak_rss_mb": report["peak_rss_mb"],
    }
    if len(lat) < MIN_TIMED_OPS and not quick:
        raise RuntimeError(f"only {len(lat)} timed ops; op_p90_ms needs {MIN_TIMED_OPS}")
    return _with_units(values, "end_to_end")


def _describe(report: dict) -> list[str]:
    """Human-readable lines: sample counts, population shares, repeats."""
    ops, lat = report["ops"], report["lat_s"]
    n = len(lat)
    order = sorted(range(n), key=lambda i: lat[i])
    shares = {}
    for op in ops:
        shares[op["cost"]] = shares.get(op["cost"], 0) + 1
    seen, repeats = set(), 0
    for op in ops:
        key = op_key(op)
        repeats += key in seen
        seen.add(key)
    lines = [f"{report['workload']}: {n} timed ops in {report['rounds']} rounds, "
             f"{report['wall_s']:.2f} s timed, setup {report['setup_s']:.3f} s",
             "populations: " + ", ".join(f"{k} {v / n:.1%}" for k, v in sorted(shares.items())),
             f"(model, eps) seen earlier in the run: {repeats / n:.1%}"]
    for q in (0.5, 0.9):
        i = order[min(n - 1, int(q * (n - 1)))]
        lo = lat[order[max(0, int((q - 0.05) * (n - 1)))]]
        hi = lat[order[min(n - 1, int((q + 0.05) * (n - 1)))]]
        lines.append(f"p{int(q * 100)}: {lat[i] * 1e3:.3f} ms, an op of population "
                     f"{ops[i]['cost']!r}; p{int(q * 100) - 5}..p{int(q * 100) + 5} "
                     f"spans {lo * 1e3:.3f}..{hi * 1e3:.3f} ms")
    return lines


# === the command =============================================================


def measure(workload: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    """Run one workload and return the result object plus per-op outcomes."""
    mode = "rounds" if quick else "run"
    info = []
    if trace:
        report = _spawn(workload, seed, seconds, 1, mode)
        metrics = _with_units(report["per_layer"], "per_layer")
        info.append(f"tracing overhead {report['per_layer']['trace.overhead_pct']:.1f}%, "
                    f"traced against untraced rounds of the same run; "
                    f"spans in {report['trace_file']}")
        info.append(f"functional evaluations shared by set-up and timed ops: "
                    f"{report['setup_reused']}")
    else:
        setups = [] if quick else [_spawn(workload, seed, seconds, 0, "setup")["setup_s"]
                                   for _ in range(SETUP_PROBES)]
        report = _spawn(workload, seed, seconds, 0, mode)
        metrics = _end_to_end(report, setups + [report["setup_s"]], quick)
    outcomes = _outcomes(report)
    correct, failed, unexpected = _tally(report, outcomes)
    info = _describe(report) + info
    faults = sorted({op["known_fault"] for op, p in zip(report["ops"], outcomes)
                     if p and op.get("known_fault")})
    info += [f"failed op (named fault): {f}" for f in faults]
    info += [f"UNEXPECTED: {msg}" for msg in unexpected[:20]]
    if quick and len(report["lat_s"]) < MIN_TIMED_OPS:
        info.append(f"quick mode: op_p90_ms from {len(report['lat_s'])} ops, "
                    f"not the {MIN_TIMED_OPS} a timed run uses")
    result = {"correct": correct, "attempted": len(report["ops"]), "failed": failed,
              "metrics": metrics}
    return {"result": result, "info": info, "ops": report["ops"],
            "outcomes": [[code for code, _ in p] for p in outcomes],
            "setup_reused": report.get("setup_reused")}


def self_test(seed: int) -> int:
    """Quick runs of every workload, traced and untraced, with assertions."""
    if [w["name"] for w in _spec("workloads")] != list(WORKLOADS):
        raise AssertionError("BENCHMARK.json names other workloads than workloads.py")
    for workload in WORKLOADS:
        runs = {}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            run = measure(workload, seed, 1.0, trace, quick=True)
            res = run["result"]
            want = {m["name"]: m["unit"] for m in _spec(kind)}
            if {k: v["unit"] for k, v in res["metrics"].items()} != want:
                raise AssertionError(f"{workload} trace={trace}: printed other metrics "
                                     f"than BENCHMARK.json lists")
            if not res["correct"]:
                raise AssertionError(f"{workload} trace={trace}: " + "; ".join(run["info"]))
            if any(not isinstance(v["value"], float) or not math.isfinite(v["value"])
                   for v in res["metrics"].values()):
                raise AssertionError(f"{workload} trace={trace}: a metric is not a finite float")
            runs[trace] = run
        untraced, traced = runs[0], runs[1]
        if traced["setup_reused"] != 0:
            raise AssertionError(f"{workload}: set-up evaluated {traced['setup_reused']} "
                                 f"functionals that timed ops evaluate too")
        if untraced["ops"] != traced["ops"] or untraced["outcomes"] != traced["outcomes"]:
            raise AssertionError(f"{workload}: traced and untraced runs differ in ops "
                                 f"or check outcomes")
        # the named faults must show, on exactly the ops that carry them
        failing = [bool(p) for p in untraced["outcomes"]]
        marked = [op["known_fault"] is not None for op in untraced["ops"]]
        if failing != marked:
            raise AssertionError(f"{workload}: failed ops {failing} are not the ops with "
                                 f"a named fault {marked}")
        print(f"self-test {workload}: ok, {untraced['result']['attempted']} ops, "
              f"{untraced['result']['failed']} failed on named faults")
    print("self-test: ok")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="two rounds, no set-up probes")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    if args.self_test:
        return self_test(args.seed)
    if args.workload is None:
        p.error("--workload is required")
    run = measure(args.workload, args.seed, args.seconds, args.trace, args.quick)
    for line in run["info"]:
        print(line)
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
