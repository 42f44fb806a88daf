"""Benchmark of diractensor: three workloads, each run in a fresh interpreter.

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload in turn

Run from the root of a checkout; the package is imported from ``src/``, and
the golden tables from ``tests/golden/``.  Workloads (see ``workloads.py``):

* verify-grid: ``cli.main(["verify", ...])`` on the default grid;
* shoot-ladder: ``solve_bound_level`` on levels n = 0..14 of seeded channels;
* cli-requests: a seeded stream of single ``cli.main`` requests.

With ``--trace 0`` the run reports the end-to-end metrics: setup_s (fresh
interpreter until ``diractensor.cli`` and its imports are loaded, median of
several), ok_per_s, op_p50_ms, op_tail_ms, pass_rate (1 - error_rate) and
peak_rss_mb.  With ``--trace 1`` it reports per-layer metrics from spans and
the import-time split of set-up.  Each metric is printed with its unit,
median, quartiles and sample count; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  ``correct`` is
false when an op fails inside the domain the repository's acceptance grid
covers; failures outside it are counted in ``failed`` and ``pass_rate``.
Full results, provenance, every failed op and the spans are written under
``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("verify-grid", "shoot-ladder", "cli-requests")
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 165.0
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
PROBE = "import sys, diractensor.cli; sys.stdout.write('ready\\n'); sys.stdout.flush()"


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    return env


def check_checkout(workload: str):
    if not (ROOT / "src" / "diractensor" / "__init__.py").is_file():
        raise BenchError(f"no diractensor package under {ROOT / 'src'}")
    if workload == "cli-requests":
        for name in ("fig1", "fig2", "fig3a", "fig3b"):
            if not (ROOT / "tests" / "golden" / f"{name}.csv").is_file():
                raise BenchError(f"golden table tests/golden/{name}.csv is missing")


def setup_probe(importtime: bool) -> tuple[float, str]:
    """Seconds from spawning a fresh interpreter until diractensor.cli is imported."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), "-c", PROBE]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"import probe failed: {err.strip()[-500:]}")
    return elapsed, err


def import_split(report: str) -> dict:
    """Self time of ``-X importtime`` entries, attributed to numpy, scipy or
    diractensor by the nearest enclosing import of one of them."""
    groups = ("numpy", "scipy", "diractensor")
    entries = []
    for line in report.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        parts = line.split("|")
        self_us = int(parts[0].split(":")[1])
        label = parts[2]
        depth = (len(label) - len(label.lstrip(" ")) - 1) // 2
        entries.append((depth, label.strip(), self_us))
    totals = dict.fromkeys(groups, 0.0)
    stack: list[tuple[int, str]] = []  # (depth, owning group or "")
    for depth, name, self_us in reversed(entries):  # parents now precede children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        root = name.split(".")[0]
        owner = root if root in groups else (stack[-1][1] if stack else "")
        stack.append((depth, owner))
        if owner:
            totals[owner] += self_us * 1e-6
    return totals


def provenance(workload: str, args) -> dict:
    info = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "thread_env": PINNED,
            "python": sys.version.split()[0]}
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        info["cpu"] = models[0] if models else "unknown"
    except OSError:
        info["cpu"] = "unknown"
    info["git_sha"], info["git_dirty"] = "unknown", None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=30)
            info["git_sha"] = sha.stdout.strip() or "unknown"
            info["git_dirty"] = bool(dirty.stdout.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    return info


def run_workload(workload: str, args) -> dict:
    check_checkout(workload)
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    result_file = OUT / f"{stem}.worker.json"
    result_file.unlink(missing_ok=True)

    setup_probe(False)  # untimed: compiles bytecode, fills the page cache
    probes = [setup_probe(bool(args.trace)) for _ in range(SETUP_PROBES)]

    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", str(result_file)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=sys.stderr)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ran past {WORKER_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not result_file.is_file():
        raise BenchError(f"{workload} worker exited with code {code}")
    result = json.loads(result_file.read_text())
    result_file.unlink()

    metrics = result["metrics"]
    if args.trace:
        splits = [import_split(err) for _, err in probes]
        for group in ("numpy", "scipy", "diractensor"):
            metrics[f"setup.{group}_s"] = {
                "value": statistics.median(s[group] for s in splits), "unit": "s"}
    else:
        times = [t for t, _ in probes]
        q1, _, q3 = statistics.quantiles(times, n=4, method="inclusive")
        metrics["setup_s"] = {"value": statistics.median(times), "unit": "s",
                              "median": statistics.median(times), "q1": q1, "q3": q3,
                              "n": len(times), "over": "fresh interpreters"}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {(m["name"], m["unit"]) for m in declared["per_layer" if args.trace else "end_to_end"]}
    emitted = {(name, m["unit"]) for name, m in metrics.items()}
    if names != emitted:
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(names ^ emitted)}")
    result["provenance"] = dict(provenance(workload, args), **result.pop("versions"))
    spans = result.pop("spans", None)
    if spans is not None:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op", "error"], "spans": spans}))
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1))
    return result


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(workload: str, result: dict):
    print(f"== {workload}  seed={result['provenance']['seed']}  "
          f"attempted={result['attempted']}  failed={result['failed']}")
    for name, m in result["metrics"].items():
        line = f"  {name:<48} {fmt(m['value']):>12} {m['unit']}"
        if "median" in m:
            line += (f"   median={fmt(m['median'])} q1={fmt(m['q1'])} q3={fmt(m['q3'])}"
                     f" n={m['n']} over {m['over']}")
        elif "n" in m:
            line += f"   n={m['n']} over {m['over']}"
        if "percentile" in m:
            line += f" p{m['percentile']:g} with {m['beyond']} beyond"
        if "error_rate" in m:
            line += f"   error_rate={fmt(m['error_rate'])}"
        print(line)
    for reason, count in sorted(result["failures"]["by_reason"].items()):
        print(f"  failed {reason}: {count} ops of the round")
    for record in result["failures"]["unexpected"][:10]:
        print(f"  UNEXPECTED failure in the validated domain: {record['label']} "
              f"{record['failures']}")
    prov = result["provenance"]
    print("  provenance: " + ", ".join(f"{k}={prov[k]}" for k in (
        "git_sha", "git_dirty", "python", "numpy", "scipy", "nproc", "cpu")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="diractensor benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for workload in names:
            results[workload] = run_workload(workload, args)
            report(workload, results[workload])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    single = len(names) == 1
    line = {
        "correct": all(not r["failures"]["unexpected"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (name if single else f"{workload}.{name}"): {"value": m["value"], "unit": m["unit"]}
            for workload, r in results.items() for name, m in r["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
