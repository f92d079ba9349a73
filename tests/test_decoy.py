import math

import numpy as np
import pytest
from conftest import identity_bound_pair
from oracle_suites import poisson_pmf

from corrbb84.concentration import binomial_bound_pair
from corrbb84.decoy import (
    DECOY_TERMS,
    CountTriple,
    DecoyBounds,
    apply_decoy_bounds,
    single_photon_lower,
    single_photon_upper,
)
from corrbb84.keyrate import ObservedCounts
from corrbb84.model import ConfigError, IntensitySet, single_photon_prob
from corrbb84.simulator import expected_counts

# frozen from independent high-precision evaluation
POSTERIOR_S_M1 = 0.77019947901807829
FL_LOSSLESS_COEFF = 0.49027584059553124  # f_L / (N p1), identity bounds
FU_LOSSLESS_COEFF = 1.0517091807564762  # f_U / (N p1), identity bounds

THIRD = 1.0 / 3.0
UNIFORM = IntensitySet(s=0.5, w=0.1, v=0.0, p_s=THIRD, p_w=THIRD, p_v=THIRD)


def intensity_posterior(mu: str, m: int, intensity_set: IntensitySet) -> float:
    """Bayes posterior p(mu | m) that an m-photon event came from intensity
    ``mu`` ("s", "w" or "v"), the counterfactual the decoy estimate rests on."""
    if mu not in ("s", "w", "v"):
        raise ValueError(f"intensity label must be one of s/w/v, got {mu!r}")
    if m < 0:
        raise ValueError(f"photon number must be nonnegative, got {m}")
    weights = {
        label: prob * poisson_pmf(m, value)
        for label, (value, prob) in zip("swv", intensity_set.pairs())
    }
    denom = sum(weights.values())
    if denom <= 0.0:
        raise ValueError(
            f"no intensity has support at photon number {m}; posterior undefined"
        )
    return weights[mu] / denom


def test_posterior_vacuum_single_photon_is_zero():
    assert intensity_posterior("v", 1, UNIFORM) == 0.0


def test_posterior_known_value():
    assert math.isclose(intensity_posterior("s", 1, UNIFORM), POSTERIOR_S_M1, rel_tol=1e-12)


def test_posterior_symmetric_intensities():
    iset = IntensitySet(s=0.2, w=0.2, v=0.2, p_s=THIRD, p_w=THIRD, p_v=THIRD)
    assert math.isclose(intensity_posterior("w", 0, iset), THIRD, rel_tol=1e-12)


@pytest.mark.parametrize("m", range(11))
def test_posterior_rows_sum_to_one(m):
    total = sum(intensity_posterior(mu, m, UNIFORM) for mu in "swv")
    assert abs(total - 1.0) < 1e-12


def test_posterior_rejects_zero_support():
    dead = IntensitySet(s=0.0, w=0.0, v=0.0, p_s=THIRD, p_w=THIRD, p_v=THIRD)
    with pytest.raises(ValueError):
        intensity_posterior("s", 1, dead)


def test_bounds_built_by_hand_have_an_empty_audit():
    assert DecoyBounds(10.0, 20.0, 5.0, 1.0).audit == {}


def test_lower_zero_counts_clamp():
    zero = CountTriple(0, 0, 0)
    lower = single_photon_lower(zero, UNIFORM, 1e-3, binomial_bound_pair)
    assert lower.value == 0.0


def test_upper_zero_counts_structure():
    """All-zero counts: only the w upper-bound term survives."""
    zero = CountTriple(0, 0, 0)
    value = single_photon_upper(zero, UNIFORM, 1e-3, binomial_bound_pair).value
    ceiling = binomial_bound_pair(1e-3, 0, 0)[1]
    p1 = single_photon_prob(UNIFORM)
    expected = ceiling * p1 * math.exp(UNIFORM.w) / (UNIFORM.p_w * (UNIFORM.w - UNIFORM.v))
    assert value == max(0.0, expected)


def test_lossless_identity_mode_bounds():
    """Per-pulse yields all 1 and exact expectations: the analytic bounds
    bracket the true single-photon fraction p1."""
    N = 3 * 10**6
    counts = CountTriple(N // 3, N // 3, N // 3)
    p1 = single_photon_prob(UNIFORM)
    args = (UNIFORM, 1e-3, identity_bound_pair)
    lower = single_photon_lower(counts, *args).value
    upper = single_photon_upper(counts, *args).value
    assert math.isclose(lower, N * p1 * FL_LOSSLESS_COEFF, rel_tol=1e-12)
    assert math.isclose(upper, N * p1 * FU_LOSSLESS_COEFF, rel_tol=1e-12)
    true_singles = N * p1
    assert lower <= true_singles <= upper


def _random_triples(count, rng):
    for _ in range(count):
        m_s = int(rng.integers(0, 200000))
        m_w = int(rng.integers(0, max(2, m_s // 2 + 10)))
        m_v = int(rng.integers(0, 50))
        yield CountTriple(m_s, m_w, m_v)


def test_lower_monotone_in_weak_counts(intensity_set):
    rng = np.random.default_rng(11)
    args = (intensity_set, 1e-6, binomial_bound_pair)
    for triple in _random_triples(100, rng):
        bumped = CountTriple(triple.m_s, triple.m_w + 1, triple.m_v)
        low = single_photon_lower(triple, *args).value
        low_bumped = single_photon_lower(bumped, *args).value
        assert low_bumped >= low - 1e-9


def test_lower_never_exceeds_upper(intensity_set):
    rng = np.random.default_rng(13)
    args = (intensity_set, 1e-6, binomial_bound_pair)
    for triple in _random_triples(100, rng):
        low = single_photon_lower(triple, *args).value
        high = single_photon_upper(triple, *args).value
        assert low <= high + 1e-9


def test_solvability_rejected():
    bad = IntensitySet(s=0.15, w=0.1, v=0.06, p_s=THIRD, p_w=THIRD, p_v=THIRD)
    counts = CountTriple(10, 10, 10)
    with pytest.raises(ConfigError, match=r"must be positive \(need s > w \+ v\)"):
        single_photon_lower(counts, bad, 1e-3, binomial_bound_pair)
    flat = IntensitySet(s=0.5, w=0.1, v=0.1, p_s=THIRD, p_w=THIRD, p_v=THIRD)
    with pytest.raises(ConfigError, match=r"^need w > v, got w=0.1, v=0.1$"):
        single_photon_upper(counts, flat, 1e-3, binomial_bound_pair)


def test_apply_bounds_all_zero(config_1e6):
    observed = ObservedCounts(
        z_det=CountTriple(0, 0, 0),
        z_err=CountTriple(0, 0, 0),
        x_det=CountTriple(0, 0, 0),
        x_err=CountTriple(0, 0, 0),
        n_sifted_det=0,
    )
    sides = []

    def recording(epsilon, observed, total, lower, upper):
        sides.append(lower + upper)
        return binomial_bound_pair(epsilon, observed, total, lower, upper)

    bounds = apply_decoy_bounds(observed, config_1e6, recording)
    assert bounds.z_det_lower == 0.0 and bounds.x_det_lower == 0.0
    # DECOY_TERMS counts the one-sided substitutions, one eps_B each
    assert sum(sides) == DECOY_TERMS == 10


def test_apply_bounds_bracket_simulated_truth(config_1e9, channel_10km):
    observed, truth = expected_counts(config_1e9, channel_10km)
    bounds = apply_decoy_bounds(observed, config_1e9)
    assert bounds.z_det_lower <= truth.z_det[1].total <= bounds.z_det_upper
    assert bounds.x_det_lower <= truth.x_det[1].total
    assert truth.x_err[1].total <= bounds.x_err_upper


def test_nonzero_vacuum_intensity_supported(channel_10km):
    """A weak but nonzero third intensity must flow through the whole stack."""
    from dataclasses import replace

    from corrbb84.keyrate import evaluate_pipeline
    from corrbb84.simulator import expected_counts as expected
    from corrbb84.validation import reference_config

    iset = IntensitySet(s=0.5, w=0.1, v=0.002, p_s=0.7, p_w=0.15, p_v=0.15)
    config = replace(reference_config(10**9), intensity_set=iset)
    observed, truth = expected(config, channel_10km)
    bounds = apply_decoy_bounds(observed, config)
    assert bounds.z_det_lower <= truth.z_det[1].total <= bounds.z_det_upper
    assert evaluate_pipeline(observed, config, None).key_length > 0


def test_bounds_nest_when_eps_halves(config_1e6, channel_10km):
    from dataclasses import replace

    observed, _ = expected_counts(config_1e6, channel_10km)
    loose = apply_decoy_bounds(observed, config_1e6)
    budget = replace(config_1e6.epsilon_budget, eps_B=config_1e6.epsilon_budget.eps_B / 2)
    tight_config = replace(config_1e6, epsilon_budget=budget)
    tight = apply_decoy_bounds(observed, tight_config)
    assert tight.z_det_lower <= loose.z_det_lower
    assert tight.z_det_upper >= loose.z_det_upper
