"""Spans recorded from outside the package, and the per-layer metrics they give.

Nothing under ``src/`` is edited: the tracer replaces public functions in the
module namespace where their callers look them up, and puts the originals
back afterwards. Three binding rules decide where a wrapper has to go:

* a name imported with ``from module import name`` is looked up in the
  *importing* module, so it is wrapped there (``corrbb84.optimizer.
  expected_counts``, ``corrbb84.validation.sample_counts``, ...);
* a call through a module object (``corr.coin_parameter_bound`` in
  ``keyrate`` and ``validation``) is wrapped once, in the defining module;
* ``decoy`` binds ``binomial_bound_pair`` as a default argument when it is
  imported, so patching ``corrbb84.decoy.binomial_bound_pair`` would measure
  nothing. Instead ``corrbb84.keyrate.apply_decoy_bounds`` is wrapped so that
  it passes a timed ``bound_pair``.

A span is ``(name, start_ns, end_ns, parent, note)``; spans stay in memory
and are written out when the run ends.
"""

from __future__ import annotations

import json
from time import perf_counter_ns

# l_c_eff bands for the coin-parameter bound; its cost is linear in l_c.
LC_BANDS = (("lc_lt64", 0, 64), ("lc_64-127", 64, 128), ("lc_ge128", 128, None))

VALIDATION_CHECKS = (
    "g_plus_characterization",
    "coin_domination",
    "trace_distance_domination",
    "trash_bound_mc",
    "coin_inequality_mc",
)

LAYERS = (
    "concentration",
    "decoy",
    "correlations",
    "phase_error",
    "keyrate",
    "simulator",
    "optimizer",
    "validation",
)

# every per-layer metric with its unit; a traced run reports all of them on
# every workload, as 0 where the layer is not used
UNITS = {
    "concentration.kl_inversions": "count",
    "concentration.kl_evals_per_inversion": "count",
    "concentration.cache_hit_ratio": "ratio",
    "concentration.busy_us_per_eval": "us",
    "decoy.self_us_per_eval": "us",
    "correlations.coin_bound_us.lc_lt64": "us",
    "correlations.coin_bound_us.lc_64-127": "us",
    "correlations.coin_bound_us.lc_ge128": "us",
    "correlations.l_c_eff_mean": "count",
    "correlations.fidelity_s": "s",
    "correlations.fidelity_histories": "count",
    "phase_error.us_per_eval": "us",
    "phase_error.trivial_ratio": "ratio",
    "keyrate.self_us_per_eval": "us",
    "simulator.expected_counts_us": "us",
    "simulator.expected_counts_calls": "count",
    "simulator.sample_counts_us": "us",
    "simulator.sample_counts_calls": "count",
    "optimizer.evaluations": "count",
    "optimizer.us_per_evaluation": "us",
    "optimizer.self_ms_per_scan": "ms",
    "optimizer.key_bits": "bits",
    **{f"validation.{check}_s": "s" for check in VALIDATION_CHECKS},
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "setup.import_ms.numpy": "ms",
    "setup.import_ms.scipy": "ms",
    "setup.import_ms.corrbb84": "ms",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """In-memory span recorder with a parent stack (one thread)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list = []

    def span(self, name: str, fn, note=None):
        """Return ``fn`` wrapped so that each call records one span.

        ``note(args, kwargs, result)`` may attach one value to the span.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                value = note(args, kwargs, result) if note is not None else None
                spans[index] = (name, start, end, parent, value)

        return traced

    def patch(self, module, attr: str, name: str, note=None, make=None) -> None:
        """Replace ``module.attr`` by a traced wrapper; missing names are skipped."""
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapped = self.span(name, original if make is None else make(original), note)
        self._patched.append((module, attr, original))
        setattr(module, attr, wrapped)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "note"],
                       "spans": self.spans}, handle)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the three workloads cross."""
    from corrbb84 import concentration, correlations, keyrate, optimizer, validation

    bound_pair = tracer.span(
        "concentration.binomial_bound_pair",
        concentration.binomial_bound_pair,
        note=lambda args, kwargs, result: args,
    )

    def with_timed_bound_pair(apply_decoy_bounds):
        def call(observed, config):
            return apply_decoy_bounds(observed, config, bound_pair)
        return call

    tracer.patch(keyrate, "apply_decoy_bounds", "decoy.apply_decoy_bounds",
                 make=with_timed_bound_pair)
    tracer.patch(keyrate, "evaluate_pipeline", "keyrate.evaluate_pipeline")
    tracer.patch(optimizer, "evaluate_pipeline", "keyrate.evaluate_pipeline")

    first_arg = lambda args, kwargs, result: args[0]  # noqa: E731
    tracer.patch(correlations, "coin_parameter_bound",
                 "correlations.coin_parameter_bound", note=first_arg)
    tracer.patch(correlations, "required_truncation_length",
                 "correlations.required_truncation_length")
    tracer.patch(optimizer, "required_truncation_length",
                 "correlations.required_truncation_length")
    tracer.patch(correlations, "exact_global_fidelity",
                 "correlations.exact_global_fidelity",
                 note=lambda args, kwargs, result: 4 ** args[0])

    def trivial(args, kwargs, result):
        return int(result is not None
                   and result.audit.get("trivial_bound_reason") is not None)

    tracer.patch(keyrate, "phase_error_rate_bound",
                 "phase_error.phase_error_rate_bound", note=trivial)
    for site in (keyrate, validation):
        tracer.patch(site, "trash_minus_upper", "phase_error.trash_minus_upper")
    tracer.patch(keyrate, "total_pe_failure", "phase_error.total_pe_failure")
    tracer.patch(validation, "coin_inequality_check",
                 "phase_error.coin_inequality_check")
    tracer.patch(validation, "g_interval", "phase_error.g_interval")

    tracer.patch(optimizer, "expected_counts", "simulator.expected_counts")
    tracer.patch(validation, "sample_counts", "simulator.sample_counts")
    tracer.patch(validation, "coin_monte_carlo", "simulator.coin_monte_carlo")

    tracer.patch(optimizer, "scan_distance", "optimizer.scan_distance")

    tracer.patch(validation, "run_validation", "validation.run_validation")
    for check in VALIDATION_CHECKS:
        tracer.patch(validation, f"check_{check}", f"validation.{check}")


def count_kl_evaluations(bound_pair_args) -> tuple[int, int]:
    """Replay the distinct bound-pair arguments of a traced unit on a cold
    cache while counting ``bernoulli_kl`` calls: (inversions, kl_calls).

    Counting runs here, not inside the timed unit, so that the counter's cost
    does not inflate the concentration layer's busy time.
    """
    from corrbb84 import concentration

    distinct = list(dict.fromkeys(tuple(args) for args in bound_pair_args))
    original = concentration.bernoulli_kl
    calls = 0

    def counted(p, q):
        nonlocal calls
        calls += 1
        return original(p, q)

    clear = getattr(concentration.binomial_bound_pair, "cache_clear", None)
    if clear is not None:
        clear()
    concentration.bernoulli_kl = counted
    try:
        for args in distinct:
            concentration.binomial_bound_pair(*args)
    finally:
        concentration.bernoulli_kl = original
        if clear is not None:
            clear()
    return len(distinct), calls


def _self_times(spans) -> list[int]:
    self_ns = [end - start for _, start, end, _, _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            self_ns[parent] -= end - start
    return self_ns


def _under(spans, index: int, ancestor_name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == ancestor_name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, units: int, evaluations: int) -> dict:
    """Span-derived per-layer metrics of ``units`` identical traced units.

    Times are averaged over all traced units; counts are per unit.
    ``evaluations`` is the optimizer's own evaluation count per unit. Every
    metric is present on every workload, as 0 where the layer is not used.
    """
    self_ns = _self_times(spans)
    total_ns = sum(end - start for name, start, end, parent, _ in spans if parent < 0)
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(index)

    def dur(index):
        return spans[index][2] - spans[index][1]

    def total(name, of=dur):
        return sum(of(i) for i in by_name.get(name, ()))

    def per(value, count):
        return value / count if count else 0.0

    evals = by_name.get("keyrate.evaluate_pipeline", [])
    n_evals = len(evals)
    m: dict[str, float] = {}

    m["concentration.busy_us_per_eval"] = per(
        total("concentration.binomial_bound_pair") / 1e3, n_evals)

    m["decoy.self_us_per_eval"] = per(
        total("decoy.apply_decoy_bounds", of=lambda i: self_ns[i]) / 1e3, n_evals)
    phase_ns = sum(
        dur(i)
        for name in ("phase_error.phase_error_rate_bound",
                     "phase_error.trash_minus_upper", "phase_error.total_pe_failure")
        for i in by_name.get(name, ())
        if _under(spans, i, "keyrate.evaluate_pipeline")
    )
    m["phase_error.us_per_eval"] = per(phase_ns / 1e3, n_evals)
    bounds = by_name.get("phase_error.phase_error_rate_bound", [])
    m["phase_error.trivial_ratio"] = per(sum(spans[i][4] for i in bounds), len(bounds))
    m["keyrate.self_us_per_eval"] = per(sum(self_ns[i] for i in evals) / 1e3, n_evals)

    coin = by_name.get("correlations.coin_parameter_bound", [])
    for band, lo, hi in LC_BANDS:
        inside = [i for i in coin if spans[i][4] >= lo and (hi is None or spans[i][4] < hi)]
        m[f"correlations.coin_bound_us.{band}"] = per(
            sum(dur(i) for i in inside) / 1e3, len(inside))
    m["correlations.l_c_eff_mean"] = per(sum(spans[i][4] for i in coin), len(coin))
    fidelity = by_name.get("correlations.exact_global_fidelity", [])
    m["correlations.fidelity_s"] = per(total("correlations.exact_global_fidelity") / 1e9, units)
    m["correlations.fidelity_histories"] = per(sum(spans[i][4] for i in fidelity), units)

    for fn in ("expected_counts", "sample_counts"):
        calls = by_name.get(f"simulator.{fn}", [])
        m[f"simulator.{fn}_us"] = per(sum(dur(i) for i in calls) / 1e3, len(calls))
        m[f"simulator.{fn}_calls"] = per(len(calls), units)

    scans = by_name.get("optimizer.scan_distance", [])
    m["optimizer.us_per_evaluation"] = per(
        sum(dur(i) for i in scans) / 1e3, evaluations * units)
    m["optimizer.self_ms_per_scan"] = per(sum(self_ns[i] for i in scans) / 1e6, len(scans))

    for check in VALIDATION_CHECKS:
        m[f"validation.{check}_s"] = per(total(f"validation.{check}") / 1e9, units)

    shares = {layer: 0 for layer in LAYERS}
    for index, span in enumerate(spans):
        layer = span[0].split(".", 1)[0]
        if layer in shares:
            shares[layer] += self_ns[index]
    for layer in LAYERS:
        m[f"{layer}.self_share"] = per(shares[layer], total_ns)
    return m

