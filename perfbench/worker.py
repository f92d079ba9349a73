"""Child-process side of the benchmark; ``run.py`` starts it in a fresh
interpreter with the package on an absolute ``PYTHONPATH``.

    worker.py setup --workload W --inputs FILE
        import corrbb84, load the stored inputs, print "ready" (set-up probe)
    worker.py run --workload W --seed N --seconds S --trace 0|1 --inputs FILE
                  --out FILE [--spans FILE]
        make and store the inputs, load them back, check the fingerprint,
        then run units for S seconds and write a JSON result
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import warnings


def setup(args) -> None:
    import corrbb84  # noqa: F401  (the import is what is timed)
    import workloads

    workloads.load_inputs(args.inputs)
    print("ready", flush=True)


def run(args) -> None:
    import fingerprint
    import workloads

    workloads.write_inputs(args.inputs, workloads.generate(args.workload, args.seed))
    data = workloads.load_inputs(args.inputs)

    points, mismatches = fingerprint.check()
    for line in mismatches:
        print(f"fingerprint mismatch: {line}", file=sys.stderr)
    totals = {"attempted": points, "failed": len(mismatches)}
    state: dict = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        if args.trace:
            result = _traced(args, data, state, totals)
        else:
            result = _plain(args, data, state, totals)
    result.update(totals)
    result["warnings"] = sorted({str(w.message) for w in caught})
    with open(args.out, "w") as handle:
        json.dump(result, handle)


def _count(totals: dict, state: dict, unit) -> None:
    """Add a unit's operations; a unit whose exact counters differ from the
    first unit's counts as one more failed operation."""
    totals["attempted"] += unit.attempted + 1
    totals["failed"] += unit.failed + (state.setdefault("stats", unit.stats) != unit.stats)


def _plain(args, data, state, totals) -> dict:
    """Units for ``args.seconds``; every interval in seconds and in
    reference seconds (see ``reference``)."""
    import reference
    import workloads

    pacer = reference.Pacer()
    units = []
    start = time.perf_counter()
    while not units or time.perf_counter() - start < args.seconds:
        pacer.force()
        unit = workloads.run_unit(args.workload, data, state, pulse=pacer.pulse)
        pacer.force()
        _count(totals, state, unit)
        units.append(unit)

    def both(intervals):
        return [list(pacer.measure(i)) for i in intervals]

    extra = {}
    for unit in units:
        for name, interval in unit.extra.items():
            extra.setdefault(name, []).append(pacer.measure(interval))
    return {
        "unit": both(u.interval for u in units),
        "requests": both(r for u in units for r in u.requests),
        "extra": extra,
        "stats": units[0].stats,
    }


def _traced(args, data, state, totals) -> dict:
    """Alternate untraced and traced units; the traced ones give the spans.
    Reference passes between the units correct their times for the
    overhead ratio; the layer times are plain seconds."""
    import reference
    import tracing
    import workloads

    tracer = tracing.Tracer()
    pacer = reference.Pacer()
    plain, traced, calls = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        pacer.force()
        unit = workloads.run_unit(args.workload, data, state)
        pacer.force()
        _count(totals, state, unit)
        plain.append(unit.interval)

        first_span = len(tracer.spans)
        tracing.install(tracer)
        try:
            region = lambda fn: tracer.span(f"bench.{args.workload}", fn)  # noqa: E731
            unit = workloads.run_unit(args.workload, data, state, region)
        finally:
            tracer.restore()
        pacer.force()
        _count(totals, state, unit)
        traced.append(unit.interval)
        new = tracer.spans[first_span:]
        calls.append(sum(s[0] == "concentration.binomial_bound_pair" for s in new))

    spans = tracer.spans
    stats = state["stats"]
    bound_args = [s[4] for s in spans if s[0] == "concentration.binomial_bound_pair"]
    inversions, kl_calls = tracing.count_kl_evaluations(bound_args[:calls[0]])
    if stats["kl_inversions"] is not None:
        inversions = stats["kl_inversions"]
    # bound-pair calls per unit are an exact counter too
    totals["attempted"] += len(calls)
    totals["failed"] += sum(c != calls[0] for c in calls)

    metrics = tracing.layer_metrics(spans, len(traced), stats.get("evaluations", 0))
    metrics["concentration.kl_inversions"] = inversions
    metrics["concentration.kl_evals_per_inversion"] = (
        kl_calls / inversions if inversions else 0.0)
    metrics["concentration.cache_hit_ratio"] = (
        1.0 - inversions / calls[0] if calls[0] else 0.0)
    metrics["optimizer.evaluations"] = stats.get("evaluations", 0)
    metrics["optimizer.key_bits"] = stats.get("key_bits", 0)
    metrics["trace.overhead_ratio"] = (
        statistics.median(pacer.measure(i)[1] for i in traced)
        / statistics.median(pacer.measure(i)[1] for i in plain))
    if args.spans:
        tracer.write(args.spans)
    return {"metrics": metrics, "traced_units": len(traced), "spans": len(spans)}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    args = parser.parse_args()
    if args.mode == "setup":
        setup(args)
    else:
        run(args)


if __name__ == "__main__":
    main()
