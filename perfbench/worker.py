"""One workload run in a fresh interpreter; started by ``run.py``.

The workload's seed fixes one round of ops.  Untraced (``--trace 0``): warm
up, then repeat the round in one closed loop (one caller, the next op sent
when the last returned) until ``--seconds`` have passed, and report the
end-to-end metrics.  The host this runs on is shared, and its speed swings by
up to a factor of two within seconds, so each op's latency is the fastest of
its repeats; latency percentiles are taken over the ops of one round, and
ok_per_s is the ok ops of a round over the sum of those fastest latencies.
The raw wall-clock rate of every round is reported beside it.

Traced (``--trace 1``): repeat the workload's traced round (for verify-grid
the whole default grid) a fixed number of times untraced, then the same
number of times with spans around every layer, and report
per-layer metrics.  The run is single-threaded, so no layer ever waits on
another and no wait time is reported.  The tracing overhead is the traced
ok_per_s minus the untraced one.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

import diractensor
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
HARD_LIMIT_S = 140.0  # no round starts once it would likely end past this

# percentile of the ok-op latency reported as op_tail_ms: the highest that
# leaves at least ten ok ops of a round beyond it at the seed commit
TAIL_PERCENTILE = {"verify-grid": 55.0, "shoot-ladder": 80.0, "cli-requests": 90.0}


def percentile(values: list, p: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summary(values: list) -> dict:
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    return {"median": statistics.median(values), "q1": percentile(values, 25.0),
            "q3": percentile(values, 75.0), "n": len(values)}


def run_op(op, tracer=None) -> tuple[float, list]:
    """Call and check one op; returns (latency, failed checks), never raises."""
    span = tracer.open(tracing.OP_SPAN) if tracer else None
    start = time.perf_counter()
    try:
        payload = op.call()
    except Exception as exc:  # the op failed; the run goes on
        latency, failures = time.perf_counter() - start, [type(exc).__name__]
    else:
        latency = time.perf_counter() - start
        try:
            failures = op.check(payload)
        except Exception as exc:
            failures = [f"check_raised_{type(exc).__name__}"]
    if tracer:
        tracer.close(span)
    return latency, failures


def run_pass(ops: list, seconds: float, repeats: int, started: float, tracer=None) -> dict:
    """Repeat the round of ``ops`` ``repeats`` times, or for ``seconds``: at
    least twice, and then only while another round would likely end in time.
    Keeps every op's fastest latency and its failures."""
    best = [float("inf")] * len(ops)
    failures: list = [[] for _ in ops]
    round_rates = []
    attempted = failed = 0
    longest_round = 0.0
    begin = time.perf_counter()
    while len(round_rates) < repeats:
        round_begin = time.perf_counter()
        if round_begin + longest_round - started > HARD_LIMIT_S and round_rates:
            break
        if round_begin + longest_round - begin > seconds and len(round_rates) >= 2:
            break
        ok = 0
        for i, op in enumerate(ops):
            if tracer:
                tracer.op_id = i
            latency, bad = run_op(op, tracer)
            best[i] = min(best[i], latency)
            attempted += 1
            failed += bool(bad)
            ok += not bad
            failures[i] += [reason for reason in bad if reason not in failures[i]]
        round_s = time.perf_counter() - round_begin
        longest_round = max(longest_round, round_s)
        round_rates.append(ok / round_s)
    ok_best = [t for t, bad in zip(best, failures) if not bad]
    return {"wall_s": time.perf_counter() - begin, "rounds": len(round_rates),
            "round_rates": round_rates, "attempted": attempted, "failed": failed,
            "ok_best": ok_best, "ok_per_s": len(ok_best) / sum(best),
            "failures": failures}


def failure_report(ops: list, failures: list) -> dict:
    reasons: dict = {}
    failed = []
    for op, bad in zip(ops, failures):
        for reason in bad:
            key = f"{op.kind}:{reason}"
            reasons[key] = reasons.get(key, 0) + 1
        if bad:
            failed.append({"kind": op.kind, "label": op.label, "validated": op.validated,
                           "failures": bad})
    return {"by_reason": reasons, "unexpected": [f for f in failed if f["validated"]],
            "ops": failed}


def end_to_end(name: str, measured: dict) -> dict:
    ms = [t * 1e3 for t in measured["ok_best"]]
    p = TAIL_PERCENTILE[name]
    tail = percentile(ms, p) if ms else 0.0
    lat = dict(summary(ms), over="ok ops of a round, fastest of %d repeats" % measured["rounds"])
    attempted = measured["attempted"]
    return {
        "ok_per_s": {"value": measured["ok_per_s"], "unit": "1/s",
                     **summary(measured["round_rates"]), "over": "wall-clock rate of rounds"},
        "op_p50_ms": {"value": lat["median"], "unit": "ms", **lat},
        "op_tail_ms": {"value": tail, "unit": "ms", **lat, "percentile": p,
                       "beyond": sum(1 for x in ms if x > tail)},
        "pass_rate": {"value": 1.0 - measured["failed"] / attempted, "unit": "fraction",
                      "n": attempted, "over": "attempted ops",
                      "error_rate": measured["failed"] / attempted},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB", "n": 1, "over": "ru_maxrss of this process"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True, help="JSON file the result is written to")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if Path(diractensor.__file__).resolve().parent != ROOT / "src" / "diractensor":
        print(f"diractensor imported from {diractensor.__file__}, not this checkout",
              file=sys.stderr)
        return 1
    scratch = ROOT / ".perfbench" / f"tmp-{args.workload}-{args.seed}-{args.trace}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, ROOT, scratch)
        for op in workload.warmup():
            run_op(op)
        result = {"versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                               "scipy": scipy.__version__}}
        if args.trace == 0:
            ops = workload.round()
            measured = run_pass(ops, args.seconds, sys.maxsize, started)
            result["metrics"] = end_to_end(args.workload, measured)
        else:
            ops, repeats = workload.trace_round(), workload.trace_rounds
            plain = run_pass(ops, float("inf"), repeats, started)
            tracer = tracing.Tracer(workloads.closed_form_level)
            tracer.install()
            try:
                measured = run_pass(ops, float("inf"), repeats, started, tracer)
            finally:
                tracer.uninstall()
            layers = tracer.layer_metrics(measured["wall_s"])
            layers["trace.pass_s"] = (measured["wall_s"], "s")
            layers["trace.overhead_ok_per_s"] = (measured["ok_per_s"] - plain["ok_per_s"], "1/s")
            result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
            result["spans"] = tracer.spans
        result["attempted"] = measured["attempted"]
        result["failed"] = measured["failed"]
        result["failures"] = failure_report(ops, measured["failures"])
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
