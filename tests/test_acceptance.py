"""Acceptance suite: one test per criterion, at the stated tolerances.

Every analytical piece is checked against an independent route: closed forms
against 50-digit re-evaluation, bounds against brute-force oracles, and
statistical claims against seeded Monte Carlo at their declared failure
budgets. Each test prints a single PASS line with its runtime.
"""

import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from oracle_suites import (
    bernstein_upper_delta,
    check_bernstein_validity,
    check_binomial_coverage,
    check_decoy_bracketing,
)

import corrbb84
from corrbb84 import correlations as corr
from corrbb84 import validation
from corrbb84.concentration import azuma_delta
from corrbb84.correlations import CorrelationModel, required_truncation_length
from corrbb84.keyrate import evaluate_pipeline, key_length, security_parameter
from corrbb84.model import IntensitySet, mean_intensity
from corrbb84.phase_error import g_interval
from corrbb84.simulator import expected_counts
from corrbb84.validation import (
    check_coin_domination,
    check_coin_inequality_mc,
    check_g_plus_characterization,
    check_trace_distance_domination,
    check_trash_bound_mc,
    reference_channel,
    reference_config,
)

mp.mp.dps = 50

REL_TOL = 1e-12


def _report(number, description, elapsed, limit):
    print(f"ACCEPTANCE {number}: PASS - {description} [{elapsed:.2f}s < {limit}s]")
    assert elapsed < limit


def _rel_err(ours, reference):
    reference = float(reference)
    return abs(ours - reference) / max(abs(reference), 1e-300)


def _random_iset(rng):
    p_s = rng.uniform(0.3, 0.8)
    p_w = rng.uniform(0.05, 0.9) * (1 - p_s)
    return IntensitySet(
        s=rng.uniform(0.3, 1.0), w=rng.uniform(0.01, 0.2), v=0.0,
        p_s=p_s, p_w=p_w, p_v=1 - p_s - p_w,
    )


def _mp_coin_bound(l_c, iset, delta_1, decay):
    product = mp.mpf(1)
    for l in range(1, l_c + 1):
        delta_l = mp.mpf(delta_1) * mp.e ** (-mp.mpf(decay) * (l - 1))
        product *= sum(
            mp.mpf(p) * mp.e ** (-mp.mpf(m) * (1 - mp.cos(delta_l)))
            for m, p in iset.pairs()
        )
    return (1 - product) / 2


def _mp_tail(l_c, delta_1, decay):
    decay = mp.mpf(decay)
    return mp.mpf(delta_1) * mp.e ** (-decay * l_c) / (1 - mp.e ** (-decay))


def _mp_entropy(x):
    x = mp.mpf(x)
    if x > mp.mpf(0.5):
        return mp.mpf(1)
    if x == 0:
        return mp.mpf(0)
    return -x * mp.log(x, 2) - (1 - x) * mp.log(1 - x, 2)


def test_criterion_1_closed_form_fidelity():
    """Each closed form matches 50-digit re-evaluation at 20 random inputs."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(20):
        mean = rng.uniform(0.0, 1e6)
        eps = 10.0 ** rng.uniform(-12, -0.5)
        reference = mp.sqrt(2 * mp.mpf(mean) * mp.log(1 / mp.mpf(eps))) + mp.mpf(2) / 3 * mp.log(1 / mp.mpf(eps))
        assert _rel_err(bernstein_upper_delta(mean, eps), reference) < REL_TOL

        n = int(rng.integers(0, 10**8))
        assert _rel_err(azuma_delta(n, eps), mp.sqrt(2 * n * mp.log(1 / mp.mpf(eps)))) < REL_TOL

        y, z = rng.uniform(0, 1), rng.uniform(0, 1)
        g_minus, g_plus = g_interval(y, z)
        ym, zm = mp.mpf(y), mp.mpf(z)
        root = 2 * mp.sqrt(zm**2 * (1 - zm**2) * ym * (1 - ym))
        base = ym + (1 - zm**2) * (1 - 2 * ym)
        ref_plus = base + root if y < z * z else mp.mpf(1)
        ref_minus = base - root if y > 1 - z * z else mp.mpf(0)
        assert abs(g_plus - float(ref_plus)) < 1e-12
        assert abs(g_minus - float(ref_minus)) < 1e-12

        delta_1, decay = rng.uniform(0.01, 0.5), rng.uniform(0.2, 2.0)
        l_c = int(rng.integers(0, 40))
        model = CorrelationModel(delta_1=delta_1, decay_C=decay)
        assert _rel_err(corr.tail_sum(l_c, model), _mp_tail(l_c, delta_1, decay)) < REL_TOL

        iset = _random_iset(rng)
        lc_small = int(rng.integers(1, 6))
        ours = corr.coin_parameter_bound(lc_small, iset, model)
        assert _rel_err(ours, _mp_coin_bound(lc_small, iset, delta_1, decay)) < REL_TOL

        N = int(rng.integers(10**6, 10**10))
        mu_bar = rng.uniform(0.1, 0.6)
        ref_trace = min(mp.mpf(1), mp.sqrt(mp.mpf(N) * mp.mpf(mu_bar)) * _mp_tail(l_c, delta_1, decay))
        assert _rel_err(corr.trace_distance_bound(N, mu_bar, l_c, model), ref_trace) < REL_TOL

        n1 = rng.uniform(0, 1e7)
        e_ph = rng.uniform(0, 1)
        lam = rng.uniform(0, 1e6)
        eps_pa, eps_ev = 10.0 ** rng.uniform(-12, -2), 10.0 ** rng.uniform(-12, -2)
        raw = (
            mp.mpf(n1) * (1 - _mp_entropy(e_ph))
            - mp.mpf(lam)
            - 2 * mp.log(1 / (2 * mp.mpf(eps_pa)), 2)
            - mp.log(2 / mp.mpf(eps_ev), 2)
        )
        assert key_length(n1, e_ph, lam, eps_pa, eps_ev) == int(mp.floor(max(mp.mpf(0), raw)))

        pe = 10.0 ** rng.uniform(-20, -0.1)
        ref_sec = 2 * mp.sqrt(mp.mpf(pe)) + mp.mpf(eps_pa) + mp.mpf(eps_ev)
        assert _rel_err(security_parameter(pe, eps_pa, eps_ev), ref_sec) < REL_TOL
    _report(1, "closed forms match 50-digit re-evaluation", time.perf_counter() - start, 1.0)


def test_criterion_2_coin_parameter_domination():
    start = time.perf_counter()
    check = check_coin_domination(seed=202, tables=100)
    assert check.passed, check.stats
    for l_c, rel_gap in check.stats["extreme_rel_gap"].items():
        assert rel_gap < 0.10, f"extreme table at l_c={l_c} misses the bound: {rel_gap}"
    _report(2, "exact coin parameter dominated; extreme tables attain the bound",
            time.perf_counter() - start, 30.0)


def test_criterion_3_trace_distance_domination():
    start = time.perf_counter()
    check = check_trace_distance_domination(seed=303, tables=100)
    assert check.passed, check.stats
    _report(3, "exact trace distance dominated over all 4^N histories",
            time.perf_counter() - start, 120.0)


def _raised_g_plus(y, z):
    """G+ raised by 1e-5: on the suite's region G+ is at most 1 - 6.3e-5, so
    the raised value and the suite's step past it stay below 1."""
    g_minus, g_plus = g_interval(y, z)
    return g_minus, g_plus + 1e-5


# each suite at its quick size, with the bound it checks broken through the
# name it reads
@pytest.mark.parametrize("check, size, module, name, broken", [
    (check_g_plus_characterization, {"samples": 100}, validation, "g_interval", _raised_g_plus),
    (check_coin_domination, {"tables": 10}, corr, "coin_parameter_bound",
     lambda *args, real=corr.coin_parameter_bound: 0.5 * real(*args)),
    (check_trace_distance_domination, {"tables": 10}, corr, "trace_distance_bound",
     lambda *args: 0.0),
], ids=["g_plus_characterization", "coin_parameter_domination", "trace_distance_domination"])
def test_oracle_suite_fails_on_a_broken_bound(monkeypatch, check, size, module, name, broken):
    monkeypatch.setattr(module, name, broken)
    outcome = check(seed=0, **size)
    assert outcome.passed is False
    assert outcome.stats["failures"] > 0


def test_criterion_4_trash_bound_monte_carlo():
    start = time.perf_counter()
    check = check_trash_bound_mc(seed=404, trials=1000)
    assert check.passed, check.stats
    _report(4, "sampled coin tallies respect the trash bound at (l_c+1)*eps_C",
            time.perf_counter() - start, 300.0)


def test_criterion_5_concentration_coverage():
    start = time.perf_counter()
    coverage = check_binomial_coverage(seed=505, trials=10_000)
    assert coverage.passed, coverage.stats
    validity = check_bernstein_validity(seed=506, trials=10_000)
    assert validity.passed, validity.stats
    _report(5, "binomial bound coverage and one-sided deviation validity",
            time.perf_counter() - start, 120.0)


def test_criterion_6_coin_inequality_end_to_end():
    start = time.perf_counter()
    check = check_coin_inequality_mc(seed=606, runs=1000)
    assert check.passed, check.stats
    _report(6, "count-level coin inequality holds across sampled runs",
            time.perf_counter() - start, 600.0)


def test_criterion_7_decoy_bracketing():
    start = time.perf_counter()
    check = check_decoy_bracketing(seed=707, N=10**6, runs=200, eps_B=1e-3)
    assert check.passed, check.stats
    _report(7, "decoy bounds bracket true single-photon tallies",
            time.perf_counter() - start, 180.0)


def test_criterion_8_reduction_sanity_and_sweep():
    start = time.perf_counter()
    config = reference_config(10**9)
    channel = reference_channel(10.0)
    observed, _ = expected_counts(config, channel)

    bypassed = evaluate_pipeline(observed, config, None)
    explicit = evaluate_pipeline(
        observed, config, CorrelationModel(delta_1=0.0, decay_C=1.0)
    )
    assert bypassed.key_length == explicit.key_length
    assert bypassed.eps_sec == explicit.eps_sec
    assert bypassed.e_ph_upper == explicit.e_ph_upper

    mu_bar = mean_intensity(config.intensity_set)
    swept = replace(config, epsilon_budget=replace(config.epsilon_budget, d=1e-12))
    keys = []
    for delta_1 in np.linspace(0.0, 0.2, 10):
        if delta_1 == 0.0:
            keys.append(evaluate_pipeline(observed, config, None).key_length)
            continue
        model = CorrelationModel(delta_1=float(delta_1), decay_C=1.0, truncation_d=1e-12)
        model = replace(model, l_c_eff=required_truncation_length(config.N, mu_bar, model))
        keys.append(evaluate_pipeline(observed, swept, model).key_length)
    assert keys[0] > 0
    assert all(a >= b for a, b in zip(keys, keys[1:])), keys
    _report(8, f"uncorrelated reduction bit-exact; sweep nonincreasing {keys[0]}->{keys[-1]}",
            time.perf_counter() - start, 60.0)


# --- criterion 9: byte-identical numeric output for fixed inputs and seed ----

CLI_CONFIG = {
    "protocol": {
        "N": 10**9,
        "p_keep": 0.8,
        "intensities": {"s": 0.5, "w": 0.1, "v": 0.0},
        "intensity_probs": {"s": 0.7, "w": 0.15, "v": 0.15},
    },
    "epsilons": {
        "eps_A": 1e-10, "eps_B": 1e-10, "eps_C": 1e-10,
        "eps_PA": 1e-10, "eps_EV": 1e-10, "d": 0.0,
    },
    "channel": {"distance_km": 10.0},
}


def _run_cli(args, cwd):
    # the child runs in cwd, so a relative PYTHONPATH would not find the package
    package_root = str(Path(corrbb84.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "corrbb84.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _numeric_lines(path):
    """File content with the manifest comment stripped (timestamp varies)."""
    lines = path.read_text().splitlines()
    return [line for line in lines if not line.startswith("# corrbb84-manifest")]


def _numeric_json(path):
    payload = json.loads(path.read_text())
    payload.get("manifest", {}).pop("timestamp", None)
    return payload


@pytest.mark.parametrize(
    "command",
    ["simulate", "keyrate", "optimize", "scan", "validate"],
)
def test_criterion_9_determinism(command, tmp_path):
    start = time.perf_counter()
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CLI_CONFIG))
    outputs = []
    for attempt in ("a", "b"):
        if command == "simulate":
            counts = tmp_path / f"counts_{attempt}.csv"
            truth = tmp_path / f"truth_{attempt}.csv"
            _run_cli(
                ["simulate", "--config", str(config), "--mode", "sampled",
                 "--seed", "5", "--counts-out", str(counts), "--truth-out", str(truth)],
                tmp_path,
            )
            outputs.append((_numeric_lines(counts), _numeric_lines(truth)))
        elif command == "keyrate":
            out = tmp_path / f"result_{attempt}.json"
            _run_cli(
                ["keyrate", "--config", str(config), "--simulate", "--mode",
                 "sampled", "--seed", "5", "--out", str(out)],
                tmp_path,
            )
            outputs.append(_numeric_json(out))
        elif command == "optimize":
            out = tmp_path / f"best_{attempt}.json"
            _run_cli(["optimize", "--config", str(config), "--budget", "10",
                      "--out", str(out)], tmp_path)
            outputs.append(_numeric_json(out))
        elif command == "scan":
            out = tmp_path / f"scan_{attempt}.csv"
            _run_cli(["scan", "--config", str(config), "--distances", "0:20:10",
                      "--budget", "10", "--out", str(out)], tmp_path)
            outputs.append(_numeric_lines(out))
        else:
            stdout = _run_cli(["validate", "--level", "quick", "--seed", "7"], tmp_path)
            outputs.append(stdout)
    assert outputs[0] == outputs[1]
    _report(9, f"`{command}` reproduces byte-identical numeric output",
            time.perf_counter() - start, 600.0)
