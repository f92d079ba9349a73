"""The call shapes that ``perfbench/`` relies on when it wraps the package.

Tier-1 never runs the benchmark's tracer or its request timer, so these tests
pin what they assume: the tracer replaces ``keyrate.apply_decoy_bounds`` with
a wrapper of exactly two positional parameters, and the optimize workload
times one request from each ``optimizer.expected_counts`` call to the
``optimizer.evaluate_pipeline`` call after it.
"""

from dataclasses import replace

import pytest

from corrbb84 import keyrate, optimizer
from corrbb84.correlations import CorrelationModel
from corrbb84.simulator import expected_counts
from corrbb84.validation import reference_config


@pytest.mark.parametrize("model", [None, CorrelationModel(0.05, 1.0, 1e-12)],
                         ids=["uncorrelated", "correlated"])
def test_keyrate_calls_apply_decoy_bounds_with_two_positional_arguments(
        monkeypatch, channel_10km, model):
    config = reference_config(10**9)
    if model is not None:
        config = replace(config, epsilon_budget=replace(config.epsilon_budget, d=1e-12))
    observed, _ = expected_counts(config, channel_10km)
    plain = keyrate.evaluate_pipeline(observed, config, model)
    original, calls = keyrate.apply_decoy_bounds, []

    def call(*args, **kwargs):  # the tracer's wrapper accepts (observed, config) only
        calls.append((args, kwargs))
        observed, config = args
        return original(observed, config)

    monkeypatch.setattr(keyrate, "apply_decoy_bounds", call)
    wrapped = keyrate.evaluate_pipeline(observed, config, model)
    assert calls == [((observed, config), {})]
    assert wrapped == plain and wrapped.audit == plain.audit


@pytest.mark.parametrize("model", [None, CorrelationModel(0.05, 1.0, 1e-12)],
                         ids=["uncorrelated", "correlated"])
def test_optimizer_calls_expected_counts_once_before_each_evaluation(
        monkeypatch, channel_10km, model):
    """Both names are looked up on the optimizer module at call time, and the
    winner's re-evaluation is one more pair than ``evaluations``."""
    log = []

    def logged(name, original):
        def call(*args, **kwargs):
            log.append(name)
            return original(*args, **kwargs)
        return call

    for name in ("expected_counts", "evaluate_pipeline"):
        monkeypatch.setattr(optimizer, name, logged(name, getattr(optimizer, name)))
    spec = optimizer.OptimizationSpec(N=10**9, correlation=model, budget=40, restarts=2,
                                      coordinate_passes=1)
    outcome = optimizer.optimize_params(spec, channel_10km, seed=1)
    assert outcome.evaluations == 40 and outcome.result is not None
    assert log == ["expected_counts", "evaluate_pipeline"] * (outcome.evaluations + 1)
