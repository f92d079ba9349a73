"""Reference functions and oracle suites that only the tests run.

``poisson_pmf`` is the photon-number distribution the decoy cross-checks
weigh with, ``bernstein_upper_delta`` the one-sided Bernoulli-sum deviation
that ``check_bernstein_validity`` samples, and ``check_admissible`` tests an
explicit delta table against a correlation model. The three suites check
two-sided binomial-bound coverage, one-sided deviation validity, and decoy
bounds bracketing true single-photon tallies on sampled runs; each is a pure
function of its seed and reports a :class:`~corrbb84.validation.ValidationCheck`
like the suites behind ``corrbb84 validate``.
"""

import math

import numpy as np

from corrbb84.concentration import _check_epsilon, binomial_bound_pair
from corrbb84.correlations import CorrelationModel
from corrbb84.decoy import DECOY_TERMS, apply_decoy_bounds
from corrbb84.model import IntensitySet, ProtocolConfig
from corrbb84.oracles import ExplicitDeltas, correlation_magnitude
from corrbb84.simulator import sample_counts
from corrbb84.validation import ValidationCheck, reference_budget, reference_channel


def poisson_pmf(m: int, mu: float) -> float:
    """P[photon number = m] for mean photon number mu: e^{-mu} mu^m / m!."""
    if mu < 0:
        raise ValueError(f"mean photon number must be nonnegative, got {mu}")
    if m < 0:
        raise ValueError(f"photon number must be nonnegative, got {m}")
    if mu == 0.0:
        return 1.0 if m == 0 else 0.0
    # log-space evaluation keeps large m / small mu stable
    return math.exp(-mu + m * math.log(mu) - math.lgamma(m + 1))


def bernstein_upper_delta(mean: float, epsilon: float) -> float:
    """Upward deviation allowance for a Bernoulli sum with expectation ``mean``.

    Exceeding ``mean + bernstein_upper_delta(mean, epsilon)`` has probability
    at most ``epsilon``. Monotone increasing in ``mean``, decreasing in
    ``epsilon``.
    """
    _check_epsilon(epsilon)
    if mean < 0:
        raise ValueError(f"mean must be nonnegative, got {mean}")
    log_term = math.log(1.0 / epsilon)
    return math.sqrt(2.0 * mean * log_term) + (2.0 / 3.0) * log_term


def check_admissible(deltas: ExplicitDeltas, model: CorrelationModel) -> list[str]:
    """Per-lag admissibility report: spread at lag l must not exceed Delta_l."""
    problems = []
    for l in range(1, deltas.lags + 1):
        values = deltas.table[l - 1]
        spread = float(values.max() - values.min())
        limit = correlation_magnitude(l, model)
        if spread > limit + 1e-12:
            problems.append(f"lag {l}: spread {spread} exceeds Delta_l = {limit}")
    return problems


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
