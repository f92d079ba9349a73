import itertools
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import corrbb84
from corrbb84 import optimizer
from corrbb84.correlations import CorrelationModel
from corrbb84.optimizer import (
    PARAM_NAMES,
    OptimizationSpec,
    _build_config,
    _sobol_points,
    optimize_params,
    scan_distance,
)
from corrbb84.simulator import ChannelModel

# small budgets keep the search cheap; the objective itself is deterministic.
# N must be large: the finite-size penalties zero out the key below ~1e9
FAST = dict(N=10**9, budget=60, restarts=2, coordinate_passes=1)


def test_infeasible_candidates_are_rejected():
    spec = OptimizationSpec(N=10**9)
    feasible = np.array([0.5, 0.1, 0.7, 0.15, 0.8, 1 / 3, 1 / 3])
    assert _build_config(feasible, spec) is not None
    ordering = feasible.copy()
    ordering[1] = 0.6  # w above s
    assert _build_config(ordering, spec) is None
    simplex = feasible.copy()
    simplex[2], simplex[3] = 0.7, 0.4  # p_v would be negative
    assert _build_config(simplex, spec) is None
    weights = feasible.copy()
    weights[5], weights[6] = 0.6, 0.5  # epsilon split exceeds the simplex
    assert _build_config(weights, spec) is None


def test_optimizer_deterministic(channel_10km):
    spec = OptimizationSpec(**FAST)
    first = optimize_params(spec, channel_10km, seed=5)
    again = optimize_params(spec, channel_10km, seed=5)
    assert first.params == again.params
    assert first.key_length == again.key_length
    assert first.evaluations == again.evaluations


def test_optimizer_respects_budget(channel_10km):
    spec = OptimizationSpec(**FAST)
    outcome = optimize_params(spec, channel_10km, seed=1)
    assert outcome.evaluations <= spec.budget
    assert outcome.key_length > 0


def test_optimizer_degenerate_channel_reports_zero_key():
    dead = ChannelModel(distance_km=3000.0)  # ~ 600 dB of fiber
    spec = OptimizationSpec(N=10**6, budget=20, restarts=1, coordinate_passes=1)
    outcome = optimize_params(spec, dead, seed=2)
    assert outcome.key_length == 0
    assert outcome.zero_key_everywhere


def test_optimizer_correlations_never_help(channel_10km):
    clean = optimize_params(OptimizationSpec(**FAST), channel_10km, seed=3)
    model = CorrelationModel(delta_1=0.1, decay_C=1.0, truncation_d=1e-12)
    spec = OptimizationSpec(correlation=model, **FAST)
    correlated = optimize_params(spec, channel_10km, seed=3)
    assert correlated.key_length <= clean.key_length


def test_scan_empty_distances(channel_10km):
    assert scan_distance(OptimizationSpec(**FAST), channel_10km, []) == []


def test_scan_monotone_and_warm_start(channel_10km):
    spec = OptimizationSpec(**FAST)
    rows = scan_distance(spec, channel_10km, [10.0, 60.0], seed=4)
    assert [row["distance_km"] for row in rows] == [10.0, 60.0]
    assert rows[0]["key_length"] >= rows[1]["key_length"]
    cold = scan_distance(spec, channel_10km, [60.0], seed=4)
    warm_key, cold_key = rows[1]["key_length"], cold[0]["key_length"]
    if cold_key and abs(warm_key - cold_key) > 0.02 * max(warm_key, cold_key):
        # local-optimum stability probe: logged, not fatal
        warnings.warn(
            f"warm/cold scans disagree beyond 2%: {warm_key} vs {cold_key}",
            stacklevel=1,
        )


@pytest.mark.parametrize("n", [1, 2, 5, 8, 64])
def test_sobol_points_equal_scipy_bit_for_bit(n):
    pytest.importorskip("scipy")
    from scipy.stats import qmc

    for seed in [*range(200), 9973]:
        with warnings.catch_warnings():
            # scipy warns that n = 5 breaks the power-of-2 balance properties
            warnings.simplefilter("ignore", UserWarning)
            expected = qmc.Sobol(d=len(PARAM_NAMES), scramble=True, seed=seed).random(n)
        got = _sobol_points(n, seed)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes(), f"seed {seed}"


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
        optimize_params(OptimizationSpec(**FAST), channel_10km, seed=1)
