import itertools
import math
import os
import random
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import corrbb84
from corrbb84 import optimizer
from corrbb84.correlations import CorrelationModel
from corrbb84.model import ConfigError, ProtocolConfig, lower_denominator
from corrbb84.keyrate import evaluate_pipeline
from corrbb84.optimizer import (
    BOXES,
    OptimizationSpec,
    _build_config,
    _center_start,
    _describe,
    optimize_params,
    scan_distance,
    validate_optimization,
)
from corrbb84.simulator import ChannelModel, expected_counts
from corrbb84.validation import reference_channel, reference_config

# small budgets keep the search cheap; the objective itself is deterministic.
# N must be large: the finite-size penalties zero out the key below ~1e9
FAST = dict(N=10**9, budget=60)


def _box_points(seed: int, count: int) -> list:
    """The centre start at v = 0, then count - 1 points drawn uniformly from
    the box: candidates spread over the whole search space."""
    draw = random.Random(seed).random
    return [_center_start(0.0)] + [
        tuple(lo + draw() * (hi - lo) for lo, hi in BOXES) for _ in range(count - 1)
    ]


def test_infeasible_candidates_are_rejected():
    spec = OptimizationSpec(N=10**9)
    feasible = np.array([0.5, 0.1, 0.7, 0.15, 0.8, 1 / 3, 1 / 3])
    assert _build_config(feasible, spec, {}) is not None
    ordering = feasible.copy()
    ordering[1] = 0.6  # w above s
    with pytest.raises(ConfigError, match="intensity ordering violated"):
        _build_config(ordering, spec, {})


def test_every_box_corner_below_the_signal_builds_a_config():
    """p_w and u_A are shares of what p_s and u_B leave, so every corner of
    the box with w below s is a valid simplex: p_v and u_C stay positive and
    the model accepts the configuration."""
    spec = OptimizationSpec(N=10**9)
    corners = [c for c in itertools.product(*BOXES) if c[1] < c[0]]
    assert len(corners) == 3 * 2**5
    for corner in corners:
        config = _build_config(corner, spec, {})
        params = _describe(corner, spec)
        assert config is not None, corner
        assert params["p_v"] > 0.0 and params["u_C"] > 0.0
        assert config.intensity_set.p_v == params["p_v"] and config.epsilon_budget.eps_C > 0.0


def test_unsolvable_decoy_candidates_are_rejected():
    """With v > 0, s > w > v is not enough: the decoy lower bound needs
    s(w - v) - w^2 + v^2 > 0, i.e. s > w + v."""
    spec = OptimizationSpec(N=10**9, v=0.2)
    solvable = (0.7, 0.3, 0.7, 0.15, 0.8, 1 / 3, 1 / 3)
    config = _build_config(solvable, spec, {})
    assert lower_denominator(config.intensity_set) > 0.0
    for s in (0.5, 0.45):  # s = w + v and s < w + v
        with pytest.raises(ConfigError, match="decoy bounds unsolvable"):
            _build_config((s,) + solvable[1:], spec, {})


@pytest.mark.parametrize("spec", [
    OptimizationSpec(N=10**9),
    OptimizationSpec(N=10**9, v=0.2),
    OptimizationSpec(N=10**9, eps_pe_target=1e-308),
    OptimizationSpec(N=10**9, eps_pe_target=1e-300, v=0.05,
                     correlation=CorrelationModel(0.05, 1.0, truncation_d=1e-301)),
], ids=["default", "v_0.2", "eps_pe_1e-308", "correlated_eps_pe_1e-300"])
def test_candidate_gate_is_the_configs_own_report(monkeypatch, spec):
    """_build_config refuses a candidate exactly when the model's validation
    report on the config it builds is not empty, with that report as its
    message, and otherwise returns that config, its report already made."""
    built = []

    def recording(*args, **kwargs):
        built.append(ProtocolConfig(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(optimizer, "ProtocolConfig", recording)
    points = _box_points(3, 64)
    # ordering and decoy-solvability edges of the centre start
    center = _center_start(0.0)
    points += [(0.1, 0.2) + center[2:], (0.3, 0.3) + center[2:], (0.5, 0.3) + center[2:]]
    refused = []
    for candidate in points:
        built.clear()
        try:
            config = _build_config(candidate, spec, {})
        except ConfigError as exc:
            assert len(built) == 1 and str(exc) == "; ".join(built[0].problems)
            refused.append(True)
            continue
        assert len(built) == 1 and config is built[0] and config.problems == ()
        refused.append(False)
    assert len(refused) > 10 and any(refused)


def test_pipeline_refusals_score_minus_inf_and_spend_budget(monkeypatch, channel_10km):
    """At eps_pe_target 1 - 2^-53 some splits' shares sum to 1.0, which
    ``total_pe_failure`` refuses; such a candidate scores -inf, spends its
    evaluation and leaves the search running."""
    real, refused = optimizer.evaluate_pipeline, []

    def counted(*args, **kwargs):
        try:
            result = real(*args, **kwargs)
        except ConfigError:
            refused.append(True)
            raise
        refused.append(False)
        return result

    monkeypatch.setattr(optimizer, "evaluate_pipeline", counted)
    outcome = optimize_params(OptimizationSpec(N=1000, eps_pe_target=1 - 2**-53), channel_10km)
    # every call but the winner's re-evaluation is one evaluation
    assert len(refused) == outcome.evaluations + 1
    assert any(refused) and not refused[-1]


def test_weak_box_below_its_floor_skips_the_weak_coordinate(monkeypatch, channel_10km):
    """At eps_pe_target 1e-308 every candidate is refused, so s keeps its
    0.005 start, below the weak intensity's box, whose top of 0.99 s then
    lies under its floor: that start's pass searches every coordinate but w,
    and the pass of the centre start, with s mid-box, searches all seven."""
    real, searched = optimizer._golden_section, []

    def recorded(objective, candidate, coord, lo, hi):
        searched.append((coord, candidate[0]))
        return real(objective, candidate, coord, lo, hi)

    monkeypatch.setattr(optimizer, "_golden_section", recorded)
    spec = OptimizationSpec(N=10**9, eps_pe_target=1e-308, budget=60)
    with pytest.raises(ConfigError, match="eps_A must lie in"):
        optimize_params(spec, channel_10km, (0.005, 0.002, 0.9, 0.1, 0.8, 0.3, 0.3))
    assert searched == ([(coord, 0.005) for coord in (0, 2, 3, 4, 5, 6)]
                        + [(coord, _center_start(0.0)[0]) for coord in range(len(BOXES))])


def test_refused_candidates_spend_no_budget(monkeypatch):
    """At eps_pe_target 1e-308 every split underflows an epsilon that
    validate_epsilons refuses, so no candidate is evaluated; no pass
    improves either, so the descent stops after one pass however large the
    budget, and the search raises the first refusal."""
    def never(*args, **kwargs):
        raise AssertionError("evaluated a refused candidate")

    monkeypatch.setattr(optimizer, "expected_counts", never)
    for budget in (20, 10**6):
        spec = OptimizationSpec(N=10**9, eps_pe_target=1e-308, budget=budget)
        started = time.perf_counter()
        with pytest.raises(ConfigError, match="^eps_A must lie in"):
            optimize_params(spec, reference_channel(10.0))
        assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("v, distance", [(0.0, 10.0), (0.1, 30.0)])
def test_descent_stops_when_a_pass_improves_nothing(v, distance):
    """A budget that does not bind leaves the no-improvement rule to end the
    descent: well under budget, at a key no lower than a budget of 400 finds,
    and at a point from which one more pass improves nothing (at v = 0.1 and
    30 km the fourth pass still gains)."""
    spec = OptimizationSpec(N=10**9, v=v, budget=10**6)
    channel = reference_channel(distance)
    outcome = optimize_params(spec, channel)
    assert outcome.evaluations < 5_000
    capped = optimize_params(replace(spec, budget=400), channel)
    assert outcome.key_length >= capped.key_length > 0
    objective = optimizer._Objective(spec, channel)
    optimizer._coordinate_descent(objective, outcome.point)
    assert objective.best[0] == outcome.point


@pytest.mark.parametrize("spec, distance", [
    (OptimizationSpec(N=10**9), 10.0),
    (OptimizationSpec(N=10**9, v=0.1), 30.0),
    (OptimizationSpec(N=10**9, eps_pe_target=2e-10,
                      correlation=CorrelationModel(0.05, 1.0, 1e-12)), 40.0),
], ids=["v_0_10km", "v_0.1_30km", "correlated_40km"])
def test_budget_truncates_the_search(monkeypatch, spec, distance):
    """A budget of b stops the search after the first b evaluations of one
    that no budget binds, and it returns the best of those b scores."""
    real, scores = optimizer.evaluate_pipeline, []

    def scored(*args, **kwargs):
        try:
            result = real(*args, **kwargs)
        except ConfigError:
            scores.append(-math.inf)
            raise
        if kwargs.get("stages") is not None:  # not the winner's re-evaluation
            scores.append(optimizer._score(result))
        return result

    monkeypatch.setattr(optimizer, "evaluate_pipeline", scored)
    channel = reference_channel(distance)
    unbound = optimize_params(replace(spec, budget=10**6), channel)
    whole = scores[:]
    assert len(whole) == unbound.evaluations > 280
    for budget in (1, 2, 3, 17, 60, 245, len(whole) - 1):
        scores.clear()
        outcome = optimize_params(replace(spec, budget=budget), channel)
        assert scores == whole[:budget]
        assert outcome.evaluations == budget
        assert optimizer._score(outcome.result) == max(whole[:budget])


def test_refusal_of_every_candidate_raises_the_centre_starts(channel_10km):
    """The search raises the first refusal, the centre start's, and names
    its correlation length."""
    model = CorrelationModel(delta_1=0.05, decay_C=1e-7, truncation_d=1e-12)
    spec = OptimizationSpec(N=10**9, eps_pe_target=2e-10, correlation=model)
    with pytest.raises(ConfigError) as raised:
        optimize_params(spec, channel_10km)
    assert str(raised.value) == ("decay_C=1e-07 with delta_1=0.05 and l_c=506638544 makes the "
                                 "coin bound compute more than 100000 lags")


def test_center_start_builds_a_config_at_every_v():
    """The centre start is the only cold start, so it must be feasible
    wherever validate_optimization accepts v: at v = 0.1 and below it is the
    mid-box point with w = s / 4, and it builds a config at every v in
    [0, 0.5) by steps of 1e-4 and at 0.5 - 2^-k for k = 14-26."""
    assert _center_start(0.0) == (0.55, 0.1375, 0.7, 0.5, 0.7495, 0.5, 1 / 3)
    for v in (0.05, 0.1):
        assert _center_start(v) == _center_start(0.0)
    values = [i * 1e-4 for i in range(5000)] + [0.5 - 2.0**-k for k in range(14, 27)]
    for v in values:
        spec = OptimizationSpec(N=10**9, v=v)
        assert validate_optimization(spec) == []
        config = _build_config(_center_start(v), spec, {})
        assert config.intensity_set.v == v


def test_search_at_a_large_vacuum_intensity_evaluates_candidates():
    """At v = 0.45 a mid-box signal leaves no weak intensity in (v, s - v), so
    the centre start moves s up to 2v + 0.01: the search evaluates
    candidates, and the zero key it reports rests on them."""
    outcome = optimize_params(OptimizationSpec(N=10**9, v=0.45), reference_channel(10.0))
    assert 0 < outcome.evaluations <= 400
    p = outcome.params
    assert outcome.zero_key_everywhere and p["s"] > p["w"] + p["v"] and p["v"] == 0.45


@pytest.mark.parametrize("distance", [0, 1, 2, 3, 4, 5])
def test_optimizer_positive_vacuum_intensity(distance):
    """With v > 0 every candidate near the start certifies 0 bits at
    distances 0-5 km; the -e_ph_upper score still leads the search off that
    plateau."""
    spec = OptimizationSpec(N=10**9, v=0.2, budget=150)
    outcome = optimize_params(spec, reference_channel(float(distance)))
    assert outcome.evaluations <= spec.budget
    assert outcome.key_length > 0 and not outcome.zero_key_everywhere
    p = outcome.params
    assert p["s"] > p["w"] + p["v"] and p["v"] == 0.2


def _field_values(config):
    iset, budget = config.intensity_set, config.epsilon_budget
    return [
        *(getattr(iset, name) for name in ("s", "w", "v", "p_s", "p_w", "p_v")),
        config.p_keep,
        *(getattr(budget, name) for name in ("eps_A", "eps_B", "eps_C", "eps_PA", "eps_EV", "d")),
    ]


@pytest.mark.parametrize("model", [None, CorrelationModel(0.05, 1.0, truncation_d=1e-12)])
def test_each_evaluation_calls_counts_then_pipeline(monkeypatch, channel_10km, model):
    """The optimize benchmark times one request from optimizer.expected_counts
    to the return of optimizer.evaluate_pipeline, so each counted evaluation,
    and the winner's re-evaluation, calls both names once, counts first."""
    calls = []

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(optimizer, "expected_counts", counting("counts", expected_counts))
    monkeypatch.setattr(optimizer, "evaluate_pipeline", counting("pipeline", evaluate_pipeline))
    outcome = optimize_params(OptimizationSpec(correlation=model, **FAST), channel_10km)
    assert outcome.key_length > 0
    assert calls == ["counts", "pipeline"] * (outcome.evaluations + 1)


@pytest.mark.parametrize("model", [None, CorrelationModel(0.05, 1.0, truncation_d=1e-12)])
def test_objective_certifies_builtin_floats(monkeypatch, channel_10km, model):
    configs = []

    def recording(observed, config, *args, **kwargs):
        configs.append(config)
        return evaluate_pipeline(observed, config, *args, **kwargs)

    monkeypatch.setattr(optimizer, "evaluate_pipeline", recording)
    # the second distance is started from the first one's winner, then from
    # the centre start
    spec = OptimizationSpec(correlation=model, **FAST)
    rows = scan_distance(spec, channel_10km, [10.0, 30.0])
    assert len(configs) == sum(row["evaluations"] + 1 for row in rows) > spec.budget
    for config in configs:
        assert all(type(x) is float for x in _field_values(config))


@pytest.mark.parametrize("model", [None, CorrelationModel(0.05, 1.0, truncation_d=1e-12)])
@pytest.mark.parametrize("distance", [0.0, 30.0, 60.0])
def test_numpy_and_float_candidates_certify_identically(model, distance):
    """A configuration with numpy.float64 fields and one with the same
    values as builtin floats certify bit for bit alike, so keeping the
    search on plain floats moves no output."""
    spec = OptimizationSpec(N=10**9, correlation=model)
    channel = reference_channel(distance)
    feasible = 0
    for candidate in _box_points(11, 64):
        try:
            as_floats = _build_config(candidate, spec, {})
        except ConfigError:
            with pytest.raises(ConfigError):
                _build_config(np.array(candidate), spec, {})
            continue
        as_numpy = _build_config(np.array(candidate), spec, {})
        feasible += 1
        assert all(type(x) is np.float64 for x in _field_values(as_numpy)[:2])
        results = []
        for config in (as_floats, as_numpy):
            observed, truth = expected_counts(config, channel)
            result = evaluate_pipeline(observed, config, model)
            results.append((observed, truth, result.key_length,
                            result.eps_sec.hex(), float(result.e_ph_upper).hex()))
        assert results[0] == results[1]
    assert feasible >= 12


def test_optimizer_deterministic(channel_10km):
    spec = OptimizationSpec(**FAST)
    first = optimize_params(spec, channel_10km)
    again = optimize_params(spec, channel_10km)
    assert first.params == again.params
    assert first.key_length == again.key_length
    assert first.evaluations == again.evaluations


def test_optimizer_respects_budget(channel_10km):
    spec = OptimizationSpec(**FAST)
    outcome = optimize_params(spec, channel_10km)
    assert outcome.evaluations <= spec.budget
    assert outcome.key_length > 0


@pytest.mark.parametrize("model", [None, CorrelationModel(0.05, 1.0, 1e-12)],
                         ids=["uncorrelated", "correlated"])
def test_winner_spends_its_failure_target(channel_10km, model):
    """The split of eps_pe_target - d over the epsilons adds back up to the
    target in the winner's audit, up to rounding."""
    spec = OptimizationSpec(correlation=model, **FAST)
    outcome = optimize_params(spec, channel_10km)
    assert outcome.key_length > 0
    eps_pe = outcome.result.audit["eps_PE"]
    assert math.isclose(eps_pe, spec.eps_pe_target, rel_tol=1e-14, abs_tol=0.0)


def test_optimizer_degenerate_channel_reports_zero_key():
    dead = ChannelModel(distance_km=3000.0)  # ~ 600 dB of fiber
    spec = OptimizationSpec(N=10**6, budget=20)
    outcome = optimize_params(spec, dead)
    assert outcome.key_length == 0
    assert outcome.zero_key_everywhere


def test_optimizer_correlations_never_help(channel_10km):
    clean = optimize_params(OptimizationSpec(**FAST), channel_10km)
    model = CorrelationModel(delta_1=0.1, decay_C=1.0, truncation_d=1e-12)
    spec = OptimizationSpec(correlation=model, **FAST)
    correlated = optimize_params(spec, channel_10km)
    assert correlated.key_length <= clean.key_length


def test_scan_empty_distances(channel_10km):
    assert scan_distance(OptimizationSpec(**FAST), channel_10km, []) == []


def test_scan_monotone_and_warm_start(channel_10km):
    spec = OptimizationSpec(**FAST)
    rows = scan_distance(spec, channel_10km, [10.0, 60.0])
    assert [row["distance_km"] for row in rows] == [10.0, 60.0]
    assert rows[0]["key_length"] >= rows[1]["key_length"]
    cold = scan_distance(spec, channel_10km, [60.0])
    warm_key, cold_key = rows[1]["key_length"], cold[0]["key_length"]
    if cold_key and abs(warm_key - cold_key) > 0.02 * max(warm_key, cold_key):
        # local-optimum stability probe: logged, not fatal
        warnings.warn(
            f"warm/cold scans disagree beyond 2%: {warm_key} vs {cold_key}",
            stacklevel=1,
        )


def test_import_leaves_scipy_unloaded():
    package_root = str(Path(corrbb84.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=package_root)
    probe = "import sys, corrbb84, corrbb84.cli; print('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_winner_disagreement_raises(monkeypatch, channel_10km):
    real = optimizer.evaluate_pipeline
    drift = itertools.count(1)

    def drifting(*args, **kwargs):
        result = real(*args, **kwargs)
        return replace(result, key_length=result.key_length + next(drift))

    monkeypatch.setattr(optimizer, "evaluate_pipeline", drifting)
    with pytest.raises(RuntimeError, match="winner re-evaluation disagrees"):
        optimize_params(OptimizationSpec(**FAST), channel_10km)


@pytest.mark.parametrize("edits, message", [
    ({"f_EC": 0.5}, "f_EC must be finite and >= 1, got 0.5"),
    ({"f_EC": math.nan}, "f_EC must be finite and >= 1, got nan"),
    ({"N": 0}, "N must be a positive round count, got 0"),
    ({"v": 0.6}, "v must lie in [0, 0.5), below the top of the box of w, got 0.6"),
    ({"eps_PA": 5e-324}, "eps_PA must lie in (0, 1) with 1/eps_PA finite, got 5e-324"),
    ({"eps_pe_target": 1e-12, "correlation": CorrelationModel(0.05, 1.0, truncation_d=1e-12)},
     "eps_pe_target must exceed the correlation model's truncation_d=1e-12, got 1e-12"),
    ({"budget": 2.5}, "budget must be a whole number of evaluations, got 2.5"),
    ({"budget": True}, "budget must be a whole number of evaluations, got True"),
], ids=["f_ec_below_1", "f_ec_nan", "N_zero", "v_above_box", "eps_PA_inverse_overflows",
        "eps_pe_target_at_d", "budget_fractional", "budget_bool"])
def test_invalid_spec_raises_before_any_evaluation(monkeypatch, channel_10km, edits, message):
    def never(*args, **kwargs):
        raise AssertionError("evaluated an invalid spec")

    monkeypatch.setattr(optimizer, "expected_counts", never)
    monkeypatch.setattr(optimizer, "evaluate_pipeline", never)
    spec = OptimizationSpec(**{**FAST, **edits})
    assert validate_optimization(spec) == [message]
    with pytest.raises(ConfigError) as raised:
        optimize_params(spec, channel_10km)
    assert str(raised.value) == message


def test_v_below_the_top_of_the_weak_box_is_valid():
    top = BOXES[1][1]
    assert validate_optimization(OptimizationSpec(N=10**9, v=math.nextafter(top, 0.0))) == []
    assert validate_optimization(OptimizationSpec(N=10**9, v=top)) != []


# --- stage reuse within one search --------------------------------------------


def _record_searches(monkeypatch):
    """Wrap ``optimizer.evaluate_pipeline``: each call with ``stages`` is kept
    with the sizes of its memo dicts before the call and the result."""
    evaluate, calls = optimizer.evaluate_pipeline, []

    def recorded(observed, config, model=None, f_EC=optimizer.DEFAULT_F_EC, *, stages=None):
        sizes = None if stages is None else (len(stages.decoy), len(stages.coin))
        result = evaluate(observed, config, model, f_EC, stages=stages)
        if stages is not None:
            calls.append((observed, config, model, f_EC, stages, sizes, result))
        return result

    monkeypatch.setattr(optimizer, "evaluate_pipeline", recorded)
    return calls


@pytest.mark.parametrize("searches", [1, 2])
@pytest.mark.parametrize("model", [None, CorrelationModel(0.05, 1.0, 1e-12)],
                         ids=["uncorrelated", "correlated"])
def test_stage_reuse_scores_equal_fresh_evaluations(monkeypatch, channel_10km, model, searches):
    """Budget 120: a smaller one ends before the first u_A line search,
    where the decoy inputs first repeat. With two searches, a scan's, the
    second starts from the first one's winner."""
    calls = _record_searches(monkeypatch)
    spec = OptimizationSpec(N=10**9, correlation=model, budget=120)
    rows = scan_distance(spec, channel_10km, [10.0, 30.0][:searches])
    assert len(calls) == sum(row["evaluations"] for row in rows) == 120 * searches
    for observed, config, correlation, f_EC, _, _, result in calls:
        fresh = evaluate_pipeline(observed, config, correlation, f_EC)
        assert repr(optimizer._score(result)) == repr(optimizer._score(fresh))
        assert result == fresh
    stages = calls[-1][4]
    calls = [call for call in calls if call[4] is stages]
    # the last search reused every stage, so the equalities above cover reuse
    assert len(calls) == 120 and len(stages.decoy) < len(calls)
    assert len({id(call[1].intensity_set) for call in calls}) < len(calls)
    if model is None:
        assert stages.coin == {}
    else:
        assert len(stages.coin) < len(calls)


def test_stage_memo_keys_every_input_its_stage_reads(channel_10km):
    """Calls that differ only in eps_B or in one count share no decoy entry,
    and calls that differ only in l_c_eff (at the same l_c) or in delta_1
    share no coin entry; every staged result is the fresh one."""
    model = CorrelationModel(0.05, 1.0, 1e-12)
    config = reference_config(10**9)
    config = replace(config, epsilon_budget=replace(config.epsilon_budget, d=1e-12))
    observed, _ = expected_counts(config, channel_10km)
    stages = optimizer._Objective(OptimizationSpec(N=config.N, correlation=model), channel_10km)
    base = evaluate_pipeline(observed, config, model, stages=stages)
    assert evaluate_pipeline(observed, config, model, stages=stages) == base
    assert (len(stages.decoy), len(stages.coin)) == (1, 1)

    budget = config.epsilon_budget
    fewer = replace(config, epsilon_budget=replace(budget, eps_B=budget.eps_B / 2))
    bumped = replace(observed.z_det, m_s=observed.z_det.m_s + 1)
    counted = replace(observed, z_det=bumped, x_det=bumped, n_sifted_det=observed.n_sifted_det + 2)
    l_c = base.audit["correlation"]["l_c"]
    variants = (
        ("decoy", observed, fewer, model),
        ("decoy", counted, config, model),
        ("coin", observed, config, replace(model, l_c_eff=l_c)),
        ("coin", observed, config, replace(model, delta_1=0.06)),
    )
    for stage, counts, variant, correlation in variants:
        before = len(getattr(stages, stage))
        staged = evaluate_pipeline(counts, variant, correlation, stages=stages)
        assert len(getattr(stages, stage)) == before + 1, (stage, variant, correlation)
        assert staged == evaluate_pipeline(counts, variant, correlation)
    assert evaluate_pipeline(observed, config, replace(model, l_c_eff=l_c)).audit[
        "correlation"]["l_c"] == l_c


def test_each_search_starts_with_empty_stage_memos(monkeypatch, channel_10km):
    """No stage outlives its search: a second search in the same process
    starts from empty dicts and builds its own intensity sets."""
    calls = _record_searches(monkeypatch)
    spec = OptimizationSpec(N=10**9, correlation=CorrelationModel(0.05, 1.0, 1e-12), budget=30)
    first = optimize_params(spec, channel_10km)
    searches = [calls[:first.evaluations]]
    second = optimize_params(spec, channel_10km)
    searches.append(calls[first.evaluations:])
    assert second == first and len(searches[1]) == second.evaluations
    assert searches[0][0][4] is not searches[1][0][4]
    for search in searches:
        assert search[0][5] == (0, 0)
        assert all(call[4] is search[0][4] for call in search)
    isets = [{id(call[1].intensity_set) for call in search} for search in searches]
    assert not isets[0] & isets[1]
