"""corrbb84 benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload certify|optimize|validate \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each workload runs in its own fresh
interpreter (one process, one thread, one caller in a closed loop), so the
process-wide bound cache and import state never leak from one workload into
another. Children get the package through an *absolute* ``PYTHONPATH`` and
BLAS/OpenMP thread counts of 1.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:

* ``setup_s``  median over fresh interpreters of the time from start until
  ``import corrbb84`` has returned and the workload's stored inputs are
  loaded -- the floor of every command-line call;
* ``wall_s``  median time of one unit of the workload;
* ``latency_p50_ms``  median latency of one request of the workload.

``wall_s`` and ``latency_p50_ms`` are in reference seconds (see
``reference.py``), which take out the machine's changes of speed; the report
prints the plain seconds next to them.

``--trace 1`` alternates untraced and traced units and reports the per-layer
metrics from the spans, plus ``trace.overhead_ratio``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report. Exit code 2 when the package sources are missing.
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
from pathlib import Path

import tracing  # benchmark module; imports no package code at import time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("certify", "optimize", "validate")
SETUP_PROBES = 5
IMPORTTIME_PROBES = 3
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)  # absolute: children may run under any cwd
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def worker(mode: str, args, inputs: Path, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
            "--inputs", str(inputs), *extra]


def setup_probes(args, inputs: Path, env: dict) -> tuple[list[float], int]:
    """Seconds from start to "ready" of fresh interpreters, and how many of
    them failed."""
    times, failed = [], 0
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(worker("setup", args, inputs), env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        if code == 0 and line.strip() == "ready":
            times.append(ready)
        else:
            failed += 1
    return times, failed


def import_times(env: dict) -> tuple[dict, int]:
    """Median cumulative import time (ms) of numpy, scipy and corrbb84, from
    ``-X importtime`` in fresh interpreters."""
    samples: dict[str, list[float]] = {"numpy": [], "scipy": [], "corrbb84": []}
    failed = 0
    for _ in range(IMPORTTIME_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import corrbb84"],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            failed += 1
            continue
        totals = _package_import_us(proc.stderr)
        for name in samples:
            samples[name].append(totals.get(name, 0) / 1e3)
    return {name: statistics.median(v) if v else 0.0 for name, v in samples.items()}, failed


def _package_import_us(report: str) -> dict:
    """Cumulative microseconds per top-level package: the sum over each
    package's outermost entries in the ``-X importtime`` tree."""
    entries = []  # (depth, package, cumulative_us), in completion order
    for line in report.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip().split(".")[0], int(cumulative)))
    totals: dict[str, int] = {}
    # an entry's parent is the next entry that completes at a smaller depth
    for i, (depth, package, cumulative) in enumerate(entries):
        parent = next((e for e in entries[i + 1:] if e[0] < depth), None)
        if parent is None or parent[1] != package:
            totals[package] = totals.get(package, 0) + cumulative
    return totals


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)]


def _median(pairs, which: int) -> float:
    return statistics.median(p[which] for p in pairs)


def end_to_end(result: dict, setup: list[float]) -> tuple[dict, list[str]]:
    """The end-to-end metrics and a readable report. ``setup_s`` is in plain
    seconds (start-up is disk and loader work, which the reference pass does
    not track); the others are in reference seconds, with the plain seconds
    in the report."""
    units, requests = result["unit"], result["requests"]
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": _median(units, 1), "unit": "s"},
        "latency_p50_ms": {"value": _median(requests, 1) * 1e3, "unit": "ms"},
    }
    report = [
        "metric            reference  measured  samples",
        f"setup_s           {'-':>9}  {statistics.median(setup):8.4f}  "
        f"{len(setup)} fresh interpreters",
        f"wall_s            {_median(units, 1):9.4f}  {_median(units, 0):8.4f}  "
        f"{len(units)} units",
        f"latency_p50_ms    {_median(requests, 1) * 1e3:9.4f}  "
        f"{_median(requests, 0) * 1e3:8.4f}  {len(requests)} requests",
    ]
    # the highest standard percentile with at least ten requests beyond it
    tail = next((q for q in (0.99, 0.9) if len(requests) * (1 - q) >= 10), None)
    if tail is not None:
        beyond = len(requests) - math.ceil(tail * len(requests))
        report.append(
            f"{f'latency_p{tail * 100:g}_ms':<18}"
            f"{percentile([r[1] for r in requests], tail) * 1e3:9.4f}  "
            f"{percentile([r[0] for r in requests], tail) * 1e3:8.4f}  "
            f"{len(requests)} requests, {beyond} beyond it")
    if "certified_bits" in result["stats"]:
        busy = [sum(r[i] for r in requests) for i in (0, 1)]
        report.append(f"evals_per_s       {len(requests) / busy[1]:9.1f}  "
                      f"{len(requests) / busy[0]:8.1f}  {len(requests)} certifications")
    for name, pairs in result["extra"].items():
        report.append(f"{name:<18}{_median(pairs, 1):9.4f}  "
                      f"{_median(pairs, 0):8.4f}  {len(pairs)} scans")
    if "key_bits" in result["stats"]:
        report.append(f"key_bits          {result['stats']['key_bits']}  "
                      "(sum of the optimized key lengths of both scans)")
    return metrics, report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "corrbb84" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}; run from a "
              "corrbb84 source checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    env = child_env()
    stem = f"{args.workload}-seed{args.seed}"
    inputs = WORK / f"inputs-{stem}.json"
    out = WORK / f"result-{stem}-trace{args.trace}.json"
    out.unlink(missing_ok=True)
    extra = ["--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", str(out)]
    if args.trace:
        extra += ["--spans", str(WORK / f"spans-{stem}.json")]
    # the worker's own output goes to stderr; stdout carries only the result
    code = subprocess.run(worker("run", args, inputs, *extra), env=env, cwd=ROOT,
                          stdout=sys.stderr, timeout=CHILD_TIMEOUT_S).returncode
    if code != 0 or not out.is_file():
        print(f"error: workload process exited with code {code}", file=sys.stderr)
        return 1
    result = json.loads(out.read_text())
    attempted, failed = result["attempted"], result["failed"]

    if args.trace:
        imports, import_failed = import_times(env)
        attempted += IMPORTTIME_PROBES
        failed += import_failed
        values = dict(result["metrics"])
        values.update({f"setup.import_ms.{name}": ms for name, ms in imports.items()})
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.UNITS.items()}
        report = [f"{name:<44}{m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
        report.append(f"{result['traced_units']} traced and as many untraced units, "
                      f"{result['spans']} spans")
    else:
        setup, setup_failed = setup_probes(args, inputs, env)
        attempted += SETUP_PROBES
        failed += setup_failed
        if not setup:
            print("error: no set-up probe succeeded", file=sys.stderr)
            return 1
        metrics, report = end_to_end(result, setup)

    print(f"corrbb84 benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for line in report:
        print("  " + line)
    print(f"  failed_ratio    {failed / attempted:.6g}  ({failed} of {attempted} operations)")
    for message in result["warnings"]:
        print(f"  captured warning: {message.splitlines()[0]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
