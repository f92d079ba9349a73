"""The three workloads: their inputs, one unit of work each, and its checks.

A *unit* is the amount of work timed as one ``wall_s`` sample; a *request*
is what a user of the command line waits for, timed as one latency sample.

* ``certify``  unit: one pass over the stored counts records, each certified
  once by ``evaluate_pipeline`` on a cold bound cache; request: one
  certification (the ``keyrate --counts`` command).
* ``optimize`` unit: one uncorrelated and one correlated ``scan_distance``
  over the fixed distance grid (the ``scan`` command); request: one
  objective evaluation, i.e. one candidate certified from expected counts.
* ``validate`` unit and request: one ``run_validation("full", seed)``
  (the ``validate --level full`` command).

Inputs are made from the seed alone and stored before timing starts, so the
timed loop sees only counts and configs.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np
from corrbb84 import concentration, correlations, keyrate, optimizer, validation
from corrbb84.correlations import CorrelationModel, required_truncation_length
from corrbb84.decoy import CountTriple
from corrbb84.keyrate import ObservedCounts, evaluate_pipeline
from corrbb84.model import EpsilonBudget, IntensitySet, ProtocolConfig, mean_intensity
from corrbb84.simulator import ChannelModel, expected_counts, sample_counts

N_ROUNDS = 10**9
TRUNCATION_D = 1e-12

# certify: records per unit; a quarter uncorrelated, the rest correlated with
# (delta_1, decay_C) drawn from these ranges, so l_c_eff spans about 35-190.
CERTIFY_RECORDS = 2000
CERTIFY_DISTANCE_KM = (0.0, 60.0)
CERTIFY_DELTA_1 = (0.01, 0.2)
CERTIFY_DECAY_C = (0.2, 1.0)

# optimize: the correlation model of the correlated scan is fixed, so that
# the seed moves only the optimizer's start points.
SCAN_DISTANCES_KM = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0)
SCAN_BUDGET = 400
SCAN_MODEL = CorrelationModel(delta_1=0.05, decay_C=1.0, truncation_d=TRUNCATION_D)

VALIDATION_LEVEL = "full"


def clear_bound_cache() -> None:
    """Empty the process-wide bound cache so that a unit starts cold, as a
    fresh command-line process does."""
    clear = getattr(concentration.binomial_bound_pair, "cache_clear", None)
    if clear is not None:
        clear()


def bound_cache_misses() -> int | None:
    info = getattr(concentration.binomial_bound_pair, "cache_info", None)
    return None if info is None else info().misses


# ---------------------------------------------------------------- inputs


def _stratified(rng, n: int, lo: float, hi: float):
    """n draws from [lo, hi), one per equal-width stratum, in random order;
    keeps the input mix nearly identical from seed to seed."""
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


def generate(workload: str, seed: int) -> dict:
    """The stored inputs of one workload, a pure function of ``seed``."""
    if workload == "certify":
        rng = np.random.default_rng(seed)
        n = CERTIFY_RECORDS
        distances = _stratified(rng, n, *CERTIFY_DISTANCE_KM)
        deltas = _stratified(rng, n, *CERTIFY_DELTA_1)
        decays = _stratified(rng, n, *CERTIFY_DECAY_C)
        correlated = rng.permutation(n) >= n // 4
        draw_seeds = rng.integers(0, 2**63 - 1, size=n)
        mu_bar = mean_intensity(validation.reference_intensities())
        records = []
        for i in range(n):
            model = None
            config = _certify_config(correlated[i])
            if correlated[i]:
                m = CorrelationModel(float(deltas[i]), float(decays[i]), TRUNCATION_D)
                l_c = required_truncation_length(N_ROUNDS, mu_bar, m)
                model = [m.delta_1, m.decay_C, m.truncation_d, l_c]
            observed, _ = sample_counts(
                config, ChannelModel(float(distances[i])), int(draw_seeds[i])
            )
            counts = [
                *_triple(observed.z_det), *_triple(observed.z_err),
                *_triple(observed.x_det), *_triple(observed.x_err),
                observed.n_sifted_det,
            ]
            records.append({"distance_km": float(distances[i]), "counts": counts,
                            "model": model})
        return {"workload": workload, "seed": seed, "records": records}
    if workload == "optimize":
        return {"workload": workload, "seed": seed,
                "distances_km": list(SCAN_DISTANCES_KM), "budget": SCAN_BUDGET}
    if workload == "validate":
        return {"workload": workload, "seed": seed, "level": VALIDATION_LEVEL}
    raise ValueError(f"unknown workload {workload!r}")


def _triple(t: CountTriple) -> list[int]:
    return [t.m_s, t.m_w, t.m_v]


def _certify_config(correlated: bool) -> ProtocolConfig:
    config = validation.reference_config(N_ROUNDS)
    if correlated:
        config = replace(config, epsilon_budget=replace(
            config.epsilon_budget, d=TRUNCATION_D))
    return config


@dataclass(frozen=True)
class CertifyInput:
    observed: ObservedCounts
    config: ProtocolConfig
    model: CorrelationModel | None


def write_inputs(path, data: dict) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        json.dump(data, handle)
    os.replace(tmp, path)


def load_inputs(path) -> dict:
    """Read stored inputs and build the objects the timed loop consumes."""
    with open(path) as handle:
        data = json.load(handle)
    if data["workload"] == "certify":
        configs = {False: _certify_config(False), True: _certify_config(True)}
        inputs = []
        for record in data["records"]:
            c = record["counts"]
            observed = ObservedCounts(
                z_det=CountTriple(*c[0:3]), z_err=CountTriple(*c[3:6]),
                x_det=CountTriple(*c[6:9]), x_err=CountTriple(*c[9:12]),
                n_sifted_det=c[12],
            )
            model = record["model"]
            if model is not None:
                delta_1, decay_C, d, l_c = model
                model = CorrelationModel(delta_1, decay_C, d, l_c)
            inputs.append(CertifyInput(observed, configs[model is not None], model))
        data["inputs"] = inputs
    return data


# ---------------------------------------------------------------- units


@dataclass
class UnitResult:
    interval: tuple  # (start, end) of the timed work, perf_counter seconds
    requests: list  # (start, end) of each request
    attempted: int
    failed: int
    stats: dict  # numbers that must repeat exactly from unit to unit
    extra: dict = field(default_factory=dict)  # name -> (start, end), for the report


def _untraced(fn):
    return fn


def _no_pulse(kind: str = "python"):
    pass


def run_unit(workload: str, data: dict, state: dict, region=_untraced,
             pulse=_no_pulse) -> UnitResult:
    """One unit of ``workload``.

    ``state`` carries results across the units of one run, so that later
    units are checked against the first. ``region(fn)`` wraps the timed part
    (the tracer passes a root span); checks run outside it and call the
    package through names bound at import, which the tracer leaves alone.
    ``pulse(kind)`` is called between short slices of the work, so that a
    ``reference.Pacer`` can time the machine next to them.
    """
    clear_bound_cache()
    misses = []

    def counted(fn):
        inner = region(fn)

        def call(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            finally:
                misses.append(bound_cache_misses())

        return call

    unit = {"certify": _certify_unit, "optimize": _optimize_unit,
            "validate": _validate_unit}[workload](data, state, counted, pulse)
    unit.stats["kl_inversions"] = misses[0]
    return unit


@contextmanager
def _paced(module, attr: str, pulse, kind: str = "python"):
    """Make ``module.attr``, a name the package looks up at call time, call
    ``pulse(kind)`` first; restored on exit."""
    original = getattr(module, attr)

    def call(*args, **kwargs):
        pulse(kind)
        return original(*args, **kwargs)

    if pulse is not _no_pulse:
        setattr(module, attr, call)
    try:
        yield
    finally:
        setattr(module, attr, original)


def _certify_unit(data: dict, state: dict, region, pulse) -> UnitResult:
    evaluate = keyrate.evaluate_pipeline
    clock = time.perf_counter
    requests, results = [], []

    def body():
        for item in data["inputs"]:
            t0 = clock()
            try:
                result = evaluate(item.observed, item.config, item.model)
            except Exception as exc:  # a failed request is counted, not fatal
                result = exc
            requests.append((t0, clock()))
            results.append(result)
            pulse()

    start = clock()
    region(body)()
    interval = (start, clock())

    failed = 0
    first = state.setdefault("certify_first", results)
    for item, result, reference in zip(data["inputs"], results, first):
        if not certify_ok(item, result) or (
            result is not reference and _outputs(result) != _outputs(reference)
        ):
            failed += 1
    certified = sum(r.key_length for r in results if not isinstance(r, Exception))
    return UnitResult(interval, requests, len(results), failed,
                      {"certified_bits": certified})


def _outputs(result):
    if isinstance(result, Exception):
        return None
    return (result.key_length, result.eps_sec, result.e_ph_upper)


def certify_ok(item: CertifyInput, result) -> bool:
    """Oracle checks on one certification that need no second evaluation."""
    if isinstance(result, Exception):
        return False
    budget = item.config.epsilon_budget
    l_c = 0 if item.model is None else item.model.l_c_eff
    eps_pe = 5 * budget.eps_A + (l_c + 1) * budget.eps_C + 10 * budget.eps_B + budget.d
    eps_sec = 2 * math.sqrt(eps_pe) + budget.eps_PA + budget.eps_EV
    return (
        isinstance(result.key_length, int)
        and 0 <= result.key_length <= item.observed.z_det.total
        and 0.0 <= result.e_ph_upper <= 1.0
        and 0.0 <= result.z_det_lower <= item.observed.z_det.total
        and result.eps_sec < 1.0
        and math.isclose(result.eps_sec, eps_sec, rel_tol=1e-12)
    )


def _optimize_unit(data: dict, state: dict, region, pulse) -> UnitResult:
    clock = time.perf_counter
    requests: list[tuple] = []
    counts, evaluate = optimizer.expected_counts, optimizer.evaluate_pipeline
    started = 0.0

    # one request per objective evaluation: expected_counts, then
    # evaluate_pipeline, both looked up in optimizer at call time
    def timed_counts(*args, **kwargs):
        nonlocal started
        pulse()
        started = clock()
        return counts(*args, **kwargs)

    def timed_evaluate(*args, **kwargs):
        try:
            return evaluate(*args, **kwargs)
        finally:
            requests.append((started, clock()))

    channel = validation.reference_channel(0.0)
    scan = optimizer.scan_distance
    rows, scans = [], {}
    errors = 0

    def body():
        nonlocal errors
        for name, model in (("scan_s.uncorrelated", None), ("scan_s.correlated", SCAN_MODEL)):
            spec = optimizer.OptimizationSpec(
                N=N_ROUNDS, budget=data["budget"], correlation=model)
            t0 = clock()
            try:
                scanned = scan(spec, channel, data["distances_km"], seed=data["seed"])
            except Exception:  # counted as failed scan points below
                scanned = []
                errors += len(data["distances_km"])
            scans[name] = (t0, clock())
            rows.extend((spec, row) for row in scanned)

    optimizer.expected_counts, optimizer.evaluate_pipeline = timed_counts, timed_evaluate
    try:
        start = clock()
        region(body)()
        interval = (start, clock())
    finally:
        optimizer.expected_counts, optimizer.evaluate_pipeline = counts, evaluate

    failed = errors + sum(not winner_ok(spec, channel, row) for spec, row in rows)
    stats = {
        "key_bits": sum(row["key_length"] for _, row in rows),
        "evaluations": sum(row["evaluations"] for _, row in rows),
    }
    return UnitResult(interval, requests, len(rows) + errors, failed, stats, scans)


def winner_ok(spec, channel: ChannelModel, row: dict) -> bool:
    """The reported winner re-evaluates to its key length and eps_sec < 1.

    The configuration is rebuilt from the reported parameters with the
    public types, following the parameterisation ``OptimizationSpec``
    documents: (u_A, u_B, u_C) split the parameter-estimation budget that the
    truncation error d leaves over across 5 eps_A, 10 eps_B and
    (l_c + 1) eps_C.
    """
    if "param_s" not in row:
        return row["key_length"] == 0
    p = {k[len("param_"):]: v for k, v in row.items() if k.startswith("param_")}
    iset = IntensitySet(s=p["s"], w=p["w"], v=p["v"],
                        p_s=p["p_s"], p_w=p["p_w"], p_v=p["p_v"])
    model, l_c, d = spec.correlation, 0, 0.0
    if model is not None:
        d = model.truncation_d
        l_c = required_truncation_length(spec.N, mean_intensity(iset), model)
        model = replace(model, l_c_eff=l_c)
    pe_mass = spec.eps_pe_target - d
    budget = EpsilonBudget(
        eps_A=p["u_A"] * pe_mass / 5.0, eps_B=p["u_B"] * pe_mass / 10.0,
        eps_C=p["u_C"] * pe_mass / (l_c + 1), eps_PA=spec.eps_PA,
        eps_EV=spec.eps_EV, d=d,
    )
    config = ProtocolConfig(N=spec.N, intensity_set=iset, p_keep=p["p_keep"],
                            epsilon_budget=budget)
    point = replace(channel, distance_km=row["distance_km"])
    observed, _ = expected_counts(config, point)
    result = evaluate_pipeline(observed, config, model, f_EC=spec.f_EC)
    return (result.key_length == row["key_length"]
            and result.eps_sec == row["eps_sec"] and result.eps_sec < 1.0)


def _validate_unit(data: dict, state: dict, region, pulse) -> UnitResult:
    clock = time.perf_counter
    run = validation.run_validation
    # the suites' inner loops: the trace-distance oracle's fidelity tables
    # and the sampled runs of the coin-inequality suite
    with _paced(correlations, "exact_global_fidelity", pulse, "array"), \
            _paced(validation, "sample_counts", pulse):
        start = clock()
        try:
            checks = region(run)(data["level"], data["seed"])
        except Exception:  # one failed request
            checks = None
        interval = (start, clock())
    if checks is None:
        return UnitResult(interval, [interval], 1, 1, {})
    failed = sum(not check.passed for check in checks)
    return UnitResult(interval, [interval], len(checks), failed,
                      {"suites": [check.name for check in checks]})
