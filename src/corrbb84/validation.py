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
* count-level coin inequality on sampled honest-channel runs.

Only ``tests/test_acceptance.py`` runs ``check_binomial_coverage``,
``check_bernstein_validity`` and ``check_decoy_bracketing``: two-sided
binomial-bound coverage, one-sided deviation validity, and decoy bounds
bracketing true single-photon tallies on sampled runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import correlations as corr
from .concentration import bernstein_upper_delta, binomial_bound_pair
from .decoy import DECOY_TERMS, apply_decoy_bounds
from .model import EpsilonBudget, IntensitySet, ProtocolConfig, mean_intensity, single_photon_prob
from .phase_error import AZUMA_TERMS, coin_inequality_check, g_interval, trash_minus_upper
from .simulator import ChannelModel, coin_monte_carlo, sample_counts


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    stats: dict = field(default_factory=dict)


def reference_intensities(p_s: float = 0.7, p_w: float = 0.15) -> IntensitySet:
    return IntensitySet(s=0.5, w=0.1, v=0.0, p_s=p_s, p_w=p_w, p_v=1.0 - p_s - p_w)


def reference_budget(eps: float = 1e-10, d: float = 0.0) -> EpsilonBudget:
    return EpsilonBudget(eps_A=eps, eps_B=eps, eps_C=eps, eps_PA=eps, eps_EV=eps, d=d)


def reference_config(
    N: int, p_keep: float = 0.8, eps: float = 1e-10, **kwargs
) -> ProtocolConfig:
    return ProtocolConfig(
        N=N,
        intensity_set=reference_intensities(**kwargs),
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
    tested = 0
    while tested < samples:
        z = rng.uniform(0.3, 0.999)
        y = rng.uniform(0.0, 0.95 * z * z)
        g_plus = g_interval(y, z)[1]
        if g_plus > 1.0 - 1e-6:
            continue
        tested += 1
        at_bound = math.sqrt(g_plus * y) + math.sqrt((1.0 - g_plus) * (1.0 - y))
        above = g_plus + 1e-6
        past_bound = math.sqrt(above * y) + math.sqrt((1.0 - above) * (1.0 - y))
        worst_slack = min(worst_slack, at_bound - z)
        if at_bound < z - 1e-9 or past_bound >= z:
            failures += 1
    return ValidationCheck(
        name="g_plus_characterization",
        passed=failures == 0,
        stats={"samples": tested, "failures": failures, "worst_slack": worst_slack},
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
        for _ in range(tables):
            deltas = corr.random_admissible_deltas(model, l_c, rng)
            exact = corr.exact_coin_parameter(l_c, deltas, iset)
            gap = exact - bound
            worst_gap = max(worst_gap, gap)
            if gap > 1e-12:
                failures += 1
        extreme = corr.exact_coin_parameter(l_c, corr.extreme_deltas(model, l_c), iset)
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
            for _ in range(tables):
                deltas = corr.random_admissible_deltas(model, max(1, N - 1), rng)
                fidelity = corr.exact_global_fidelity(N, l_c, deltas, iset)
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


def check_trash_bound_mc(
    seed: int = 0,
    N: int = 100_000,
    trials: int = 1000,
    eps_C: float = 1e-3,
) -> ValidationCheck:
    """Sampled coin tallies exceed the trash-count bound no more often than
    its (l_c + 1) eps_C failure budget allows (3 sigma sampling slack)."""
    l_c = 1
    config = reference_config(N)
    model = corr.CorrelationModel(delta_1=0.3, decay_C=0.5)
    deltas = corr.extreme_deltas(model, l_c)
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


def check_coin_inequality_mc(
    seed: int = 0,
    N: int = 1_000_000,
    runs: int = 1000,
    eps: float = 1e-3,
) -> ValidationCheck:
    """Count-level coin inequality on sampled honest-channel ground truth."""
    l_c = 1
    config = reference_config(N, eps=eps)
    channel = reference_channel()
    model = corr.CorrelationModel(delta_1=0.1, decay_C=0.5)
    p_minus = corr.exact_coin_parameter(
        l_c, corr.extreme_deltas(model, l_c), config.intensity_set
    )
    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, 2**63 - 1, size=runs)
    violations = 0
    trivial = 0
    for run_seed in seeds:
        observed, truth = sample_counts(
            config, channel, int(run_seed), coin_minus_prob=p_minus
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


def check_binomial_coverage(seed: int = 0, trials: int = 10_000) -> ValidationCheck:
    """Two-sided bound coverage over a (p, n, eps) grid of binomial draws."""
    rng = np.random.default_rng(seed)
    failures = 0
    worst = {}
    for p in (0.001, 0.01, 0.1, 0.5):
        for n in (1000, 10_000):
            draws = rng.binomial(n, p, size=trials)
            values, counts = np.unique(draws, return_counts=True)
            for eps in (1e-2, 1e-3):
                low_viol = 0
                high_viol = 0
                for k, count in zip(values, counts):
                    lower, upper = binomial_bound_pair(eps, int(k), n)
                    if n * p < lower:
                        low_viol += count
                    if n * p > upper:
                        high_viol += count
                slack = 3.0 * math.sqrt(eps * (1.0 - eps) / trials)
                for side, viol in (("low", int(low_viol)), ("high", int(high_viol))):
                    freq = viol / trials
                    key = f"p={p},n={n},eps={eps},{side}"
                    worst[key] = freq
                    if freq > eps + slack:
                        failures += 1
    worst_freq = max(worst.values())
    return ValidationCheck(
        name="binomial_bound_coverage",
        passed=failures == 0,
        stats={"trials": trials, "failures": failures, "worst_frequency": worst_freq},
    )


def check_bernstein_validity(seed: int = 0, trials: int = 10_000) -> ValidationCheck:
    """One-sided deviation bound on Bernoulli sums with known mean."""
    rng = np.random.default_rng(seed)
    failures = 0
    worst_freq = 0.0
    for p in (0.001, 0.01, 0.1, 0.5):
        for n in (1000, 10_000):
            mean = n * p
            draws = rng.binomial(n, p, size=trials)
            for eps in (1e-2, 1e-3):
                limit = mean + bernstein_upper_delta(mean, eps)
                freq = float((draws > limit).mean())
                worst_freq = max(worst_freq, freq)
                if freq > eps + 3.0 * math.sqrt(eps * (1.0 - eps) / trials):
                    failures += 1
    return ValidationCheck(
        name="bernstein_validity",
        passed=failures == 0,
        stats={"trials": trials, "failures": failures, "worst_frequency": worst_freq},
    )


def check_decoy_bracketing(
    seed: int = 0,
    N: int = 1_000_000,
    runs: int = 200,
    eps_B: float = 1e-3,
) -> ValidationCheck:
    """Decoy bounds bracket the true single-photon tallies of sampled runs
    within the ``DECOY_TERMS`` eps_B union failure budget (3 sigma sampling
    slack)."""
    config = ProtocolConfig(
        N=N,
        intensity_set=IntensitySet(s=0.5, w=0.1, v=0.0, p_s=0.5, p_w=0.35, p_v=0.15),
        p_keep=0.8,
        epsilon_budget=reference_budget(eps_B),
    )
    channel = reference_channel()
    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, 2**63 - 1, size=runs)
    failures = 0
    for run_seed in seeds:
        observed, truth = sample_counts(config, channel, int(run_seed))
        bounds = apply_decoy_bounds(observed, config)
        z1, x1, xe1 = truth.z_det[1].total, truth.x_det[1].total, truth.x_err[1].total
        failed = (
            z1 < bounds.z_det_lower
            or z1 > bounds.z_det_upper
            or x1 < bounds.x_det_lower
            or xe1 > bounds.x_err_upper
        )
        failures += 1 if failed else 0
    budget = DECOY_TERMS * eps_B
    threshold = budget + 3.0 * math.sqrt(budget * (1.0 - budget) / runs)
    frequency = failures / runs
    return ValidationCheck(
        name="decoy_bracketing",
        passed=frequency <= threshold,
        stats={
            "runs": runs,
            "failures": failures,
            "frequency": frequency,
            "threshold": threshold,
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
