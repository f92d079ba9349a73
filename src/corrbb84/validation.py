"""Oracle suites checking every analytical bound against brute force.

Each check is a pure function of an explicit seed, so a fixed (level, seed)
pair reproduces the identical report. The same functions back the CLI
``validate`` subcommand (``run_validation``; trial counts shrink at
level="quick") and the acceptance test suite. ``validate`` runs:

* g_plus boundary characterization against its defining inequality,
* coin-parameter bound vs the exact desk-scale evaluation (with an extreme
  table approaching equality),
* trace-distance bound vs exact global fidelity, over every setting prefix
  that enters it (the last l_c+1 rounds of a history enter no factor),
* trash-count bound vs sampled coin tallies,
* count-level coin inequality (the pipeline's coin envelope) on the true
  single-photon tallies of sampled honest-channel runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# the fidelity oracle is looked up as ``corr.exact_global_fidelity`` at call
# time, so that replacing the module attribute reaches the suites
from . import correlations as corr
from .concentration import azuma_delta
from .counts import GroundTruth
from .model import EpsilonBudget, IntensitySet, ProtocolConfig, mean_intensity, single_photon_prob
from .oracles import (coin_monte_carlo, exact_coin_parameter, extreme_deltas,
                      random_admissible_deltas)
from .phase_error import AZUMA_TERMS, coin_envelope, g_interval, trash_minus_upper
from .simulator import ChannelModel, sample_counts, sample_plan


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    stats: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CoinCheckResult:
    """Outcome of the count-level coin inequality on ground-truth tallies."""

    holds: bool
    margin: float
    lhs: float
    rhs: float
    trivial_branch: bool


def reference_intensities() -> IntensitySet:
    return IntensitySet(s=0.5, w=0.1, v=0.0, p_s=0.7, p_w=0.15, p_v=1.0 - 0.7 - 0.15)


def reference_budget(eps: float = 1e-10) -> EpsilonBudget:
    return EpsilonBudget(eps_A=eps, eps_B=eps, eps_C=eps, eps_PA=eps, eps_EV=eps)


def reference_config(N: int, p_keep: float = 0.8, eps: float = 1e-10) -> ProtocolConfig:
    return ProtocolConfig(
        N=N,
        intensity_set=reference_intensities(),
        p_keep=p_keep,
        epsilon_budget=reference_budget(eps),
    )


def reference_channel(distance_km: float = 10.0) -> ChannelModel:
    return ChannelModel(distance_km=distance_km)


def check_g_plus_characterization(seed: int = 0, samples: int = 1000) -> ValidationCheck:
    """G+ must sit exactly on the boundary of its defining inequality
    sqrt(y' y) + sqrt((1-y')(1-y)) >= z: satisfied at y' = G+, violated
    just above."""
    rng = np.random.default_rng(seed)
    worst_slack = math.inf
    failures = 0
    for _ in range(samples):
        z = rng.uniform(0.3, 0.999)
        y = rng.uniform(0.0, 0.95 * z * z)
        g_plus = g_interval(y, z)[1]  # at most 1 - 6.3e-5 here, so g_plus + 1e-6 < 1
        at_bound = math.sqrt(g_plus * y) + math.sqrt((1.0 - g_plus) * (1.0 - y))
        above = g_plus + 1e-6
        past_bound = math.sqrt(above * y) + math.sqrt((1.0 - above) * (1.0 - y))
        worst_slack = min(worst_slack, at_bound - z)
        if at_bound < z - 1e-9 or past_bound >= z:
            failures += 1
    return ValidationCheck(
        name="g_plus_characterization",
        passed=failures == 0,
        stats={"samples": samples, "failures": failures, "worst_slack": worst_slack},
    )


def check_coin_domination(seed: int = 0, tables: int = 100) -> ValidationCheck:
    """Exact coin parameter never exceeds the closed-form bound; the extreme
    table attains it to within 10%."""
    rng = np.random.default_rng(seed)
    iset = reference_intensities()
    model = corr.CorrelationModel(delta_1=0.3, decay_C=0.7)
    failures = 0
    worst_gap = -math.inf
    extreme_rel_gaps = {}
    for l_c in (1, 2, 3):
        bound = corr.coin_parameter_bound(l_c, iset, model)
        for deltas in random_admissible_deltas(model, l_c, rng, tables):
            exact = exact_coin_parameter(l_c, deltas, iset)
            gap = exact - bound
            worst_gap = max(worst_gap, gap)
            if gap > 1e-12:
                failures += 1
        extreme = exact_coin_parameter(l_c, extreme_deltas(model, l_c), iset)
        rel_gap = (bound - extreme) / bound
        extreme_rel_gaps[l_c] = rel_gap
        if not (-1e-12 <= rel_gap < 0.10):
            failures += 1
    return ValidationCheck(
        name="coin_parameter_domination",
        passed=failures == 0,
        stats={
            "tables_per_lc": tables,
            "failures": failures,
            "worst_gap": worst_gap,
            "extreme_rel_gap": extreme_rel_gaps,
        },
    )


def check_trace_distance_domination(seed: int = 0, tables: int = 100) -> ValidationCheck:
    """Exact trace distance sqrt(1 - F^2) never exceeds the tail bound."""
    rng = np.random.default_rng(seed)
    iset = reference_intensities()
    model = corr.CorrelationModel(delta_1=0.2, decay_C=0.8)
    mu_bar = mean_intensity(iset)
    failures = 0
    worst_gap = -math.inf
    for N in (2, 4, 6, 8):
        for l_c in (0, 1):
            bound = corr.trace_distance_bound(N, mu_bar, l_c, model)
            drawn = random_admissible_deltas(model, max(1, N - 1), rng, tables)
            for fidelity in corr.exact_global_fidelity(N, l_c, drawn, iset):
                exact = math.sqrt(max(0.0, 1.0 - fidelity * fidelity))
                gap = exact - bound
                worst_gap = max(worst_gap, gap)
                if gap > 1e-12:
                    failures += 1
    return ValidationCheck(
        name="trace_distance_domination",
        passed=failures == 0,
        stats={"tables_per_case": tables, "failures": failures, "worst_gap": worst_gap},
    )


def check_trash_bound_mc(seed: int = 0, trials: int = 1000) -> ValidationCheck:
    """Sampled coin tallies exceed the trash-count bound no more often than
    its (l_c + 1) eps_C failure budget allows (3 sigma sampling slack)."""
    N, l_c, eps_C = 100_000, 1, 1e-3
    config = reference_config(N)
    model = corr.CorrelationModel(delta_1=0.3, decay_C=0.5)
    deltas = extreme_deltas(model, l_c)
    coin = corr.coin_parameter_bound(l_c, config.intensity_set, model)
    p1 = single_photon_prob(config.intensity_set)
    bound = trash_minus_upper(N, p1, config.p_keep, l_c, coin, eps_C)
    tallies = coin_monte_carlo(N, config, deltas, l_c, trials, seed)
    violations = int((tallies > bound).sum())
    budget = (l_c + 1) * eps_C
    threshold = budget + 3.0 * math.sqrt(budget * (1.0 - budget) / trials)
    frequency = violations / trials
    return ValidationCheck(
        name="trash_bound_monte_carlo",
        passed=frequency <= threshold,
        stats={
            "trials": trials,
            "violations": violations,
            "frequency": frequency,
            "threshold": threshold,
            "bound": bound,
            "mean_tally": float(tallies.mean()),
        },
    )


def coin_inequality_check(
    ground_truth: GroundTruth,
    n_sifted_det: int,
    p_keep: float,
    eps_A: float,
) -> CoinCheckResult:
    """Evaluate the count-level coin inequality on true single-photon tallies.

    Checks whether the number of key-basis single-photon errors is at most
    the coin envelope of (n_z_det, n_x_det, n_x_err, n_minus), the one that
    ``phase_error_rate_bound`` certifies with. Requires simulator ground
    truth; where a guard fires, the check falls back to the deterministic
    bound (errors <= detections).
    """
    n_z_err = ground_truth.z_err[1].total
    n_z_det = ground_truth.z_det[1].total
    n_x_err = ground_truth.x_err[1].total
    n_x_det = ground_truth.x_det[1].total
    n_minus = ground_truth.trash_minus_single
    delta_A = azuma_delta(n_sifted_det, eps_A)
    rhs = coin_envelope(n_z_det, n_x_det, n_x_err, n_minus, delta_A, p_keep)[0]
    trivial = isinstance(rhs, str)
    if trivial:
        rhs = float(n_z_det)
    margin = rhs - n_z_err
    return CoinCheckResult(
        holds=margin >= 0.0,
        margin=margin,
        lhs=float(n_z_err),
        rhs=rhs,
        trivial_branch=trivial,
    )


def check_coin_inequality_mc(seed: int = 0, runs: int = 1000) -> ValidationCheck:
    """Count-level coin inequality on sampled honest-channel ground truth."""
    N, l_c, eps = 1_000_000, 1, 1e-3
    config = reference_config(N, eps=eps)
    channel = reference_channel()
    model = corr.CorrelationModel(delta_1=0.1, decay_C=0.5)
    p_minus = exact_coin_parameter(l_c, extreme_deltas(model, l_c), config.intensity_set)
    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, 2**63 - 1, size=runs)
    plan = sample_plan(config, channel, p_minus)  # one plan serves every run
    violations = 0
    trivial = 0
    for run_seed in seeds:
        observed, truth = sample_counts(
            config, channel, int(run_seed), coin_minus_prob=p_minus, plan=plan
        )
        outcome = coin_inequality_check(
            truth, observed.n_sifted_det, config.p_keep, eps
        )
        violations += 0 if outcome.holds else 1
        trivial += 1 if outcome.trivial_branch else 0
    threshold = AZUMA_TERMS * eps + (l_c + 1) * eps
    frequency = violations / runs
    return ValidationCheck(
        name="coin_inequality_end_to_end",
        passed=frequency <= threshold,
        stats={
            "runs": runs,
            "violations": violations,
            "frequency": frequency,
            "threshold": threshold,
            "trivial_branch_runs": trivial,
        },
    )


def run_validation(level: str = "full", seed: int = 0) -> list[ValidationCheck]:
    """The five oracle suites behind the ``validate`` command."""
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    quick = level == "quick"
    return [
        check_g_plus_characterization(seed, samples=100 if quick else 1000),
        check_coin_domination(seed, tables=10 if quick else 100),
        check_trace_distance_domination(seed, tables=10 if quick else 100),
        check_trash_bound_mc(seed, trials=100 if quick else 1000),
        check_coin_inequality_mc(seed, runs=50 if quick else 1000),
    ]
