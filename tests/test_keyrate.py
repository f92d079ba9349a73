import math
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrbb84.correlations import CorrelationModel, required_truncation_length
from corrbb84.decoy import CountTriple
from corrbb84.keyrate import (
    ObservedCounts,
    binary_entropy,
    ec_leakage,
    evaluate_pipeline,
    key_length,
    security_parameter,
)
from corrbb84.model import ConfigError, mean_intensity
from corrbb84.simulator import expected_counts
from corrbb84.validation import reference_channel, reference_config

# frozen from independent high-precision evaluation
H_011 = 0.49991595816452800
H_005 = 0.28639695711595613
EC_LEAK_EXAMPLE = 332220.47025450911
KEY_LENGTH_EXAMPLE = 413504
EPS_SEC_EXAMPLE = 2.6981675126464083e-05


def test_entropy_edges():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.7) == 1.0
    assert binary_entropy(1.0) == 1.0


def test_entropy_known_value():
    assert math.isclose(binary_entropy(0.11), H_011, rel_tol=1e-12)


def test_entropy_rejects_outside_unit_interval():
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(1.1)


def test_ec_leakage_values():
    assert ec_leakage(10**6, 0, 1.2) == 0.0
    assert ec_leakage(0, 0, 1.2) == 0.0
    assert math.isclose(ec_leakage(10**6, 5 * 10**4, 1.16), EC_LEAK_EXAMPLE, rel_tol=1e-12)


def test_ec_leakage_linear_at_fixed_qber():
    one = ec_leakage(10**5, 5 * 10**3, 1.16)
    two = ec_leakage(2 * 10**5, 10**4, 1.16)
    assert math.isclose(two, 2 * one, rel_tol=1e-12)


def test_key_length_zero_floor():
    assert key_length(0.0, 0.05, 1000.0, 1e-10, 1e-10) == 0


def test_key_length_known_value():
    assert key_length(10**6, 0.05, 3 * 10**5, 1e-10, 1e-10) == KEY_LENGTH_EXAMPLE


def test_key_length_entropy_clamp_above_half():
    assert key_length(10**6, 0.6, 10.0, 1e-10, 1e-10) == 0


def test_key_length_monotone_grid():
    base = key_length(10**6, 0.05, 3 * 10**5, 1e-10, 1e-10)
    assert key_length(10**6, 0.06, 3 * 10**5, 1e-10, 1e-10) <= base
    assert key_length(10**6, 0.05, 4 * 10**5, 1e-10, 1e-10) <= base
    assert key_length(2 * 10**6, 0.05, 3 * 10**5, 1e-10, 1e-10) >= base


def test_security_parameter_values():
    assert security_parameter(0.0, 1e-10, 2e-10) == 3e-10
    assert math.isclose(
        security_parameter(1.82e-10, 1e-10, 1e-10), EPS_SEC_EXAMPLE, rel_tol=1e-12
    )


def test_security_parameter_monotone():
    base = security_parameter(1e-10, 1e-10, 1e-10)
    assert security_parameter(2e-10, 1e-10, 1e-10) > base
    assert security_parameter(1e-10, 2e-10, 1e-10) > base


def test_observed_counts_validation():
    good = ObservedCounts(
        z_det=CountTriple(10, 5, 0),
        z_err=CountTriple(1, 0, 0),
        x_det=CountTriple(10, 5, 0),
        x_err=CountTriple(1, 0, 0),
        n_sifted_det=40,
    )
    assert good.validate() == []
    bad = replace(good, z_err=CountTriple(11, 0, 0))
    assert any("exceed" in p for p in bad.validate())
    bad = replace(good, n_sifted_det=10)
    assert any("sifted" in p for p in bad.validate())


def _zero_counts():
    zero = CountTriple(0, 0, 0)
    return ObservedCounts(z_det=zero, z_err=zero, x_det=zero, x_err=zero, n_sifted_det=0)


def test_pipeline_all_zero_counts(config_1e6):
    result = evaluate_pipeline(_zero_counts(), config_1e6)
    assert result.key_length == 0
    assert result.eps_sec > 0.0
    assert result.e_ph_upper == 1.0


def test_pipeline_rejects_invalid_config(config_1e6):
    bad = replace(config_1e6, p_keep=1.0)
    with pytest.raises(ConfigError):
        evaluate_pipeline(_zero_counts(), bad)


def test_pipeline_rejects_inconsistent_counts(config_1e6):
    counts = replace(_zero_counts(), z_err=CountTriple(1, 0, 0))
    with pytest.raises(ConfigError):
        evaluate_pipeline(counts, config_1e6)


def test_pipeline_rejects_more_sifted_detections_than_rounds(config_1e6):
    counts = replace(_zero_counts(), n_sifted_det=config_1e6.N + 1)
    with pytest.raises(ConfigError, match="exceed the block size"):
        evaluate_pipeline(counts, config_1e6)
    # N detections is the most a block can hold
    evaluate_pipeline(replace(counts, n_sifted_det=config_1e6.N), config_1e6)


def test_pipeline_uncorrelated_reduction_is_bit_exact(config_1e9, channel_10km):
    """delta_1 = 0, d = 0, l_c = 0 must equal the bypassed pipeline exactly."""
    observed, _ = expected_counts(config_1e9, channel_10km)
    bypassed = evaluate_pipeline(observed, config_1e9, None)
    explicit = evaluate_pipeline(
        observed, config_1e9, CorrelationModel(delta_1=0.0, decay_C=1.0)
    )
    assert bypassed.key_length == explicit.key_length
    assert bypassed.eps_sec == explicit.eps_sec
    assert bypassed.e_ph_upper == explicit.e_ph_upper
    assert bypassed.z_det_lower == explicit.z_det_lower
    assert bypassed.lambda_EC == explicit.lambda_EC


def test_pipeline_positive_key_at_reference_point(config_1e9, channel_10km):
    observed, _ = expected_counts(config_1e9, channel_10km)
    result = evaluate_pipeline(observed, config_1e9, None)
    assert result.key_length > 0
    # regression baseline for the reference configuration, not ground truth
    assert result.key_length == 2032334


def test_pipeline_rejects_undersized_truncation(config_1e9, channel_10km):
    observed, _ = expected_counts(config_1e9, channel_10km)
    model = CorrelationModel(delta_1=0.1, decay_C=1.0, truncation_d=1e-12, l_c_eff=3)
    config = replace(
        config_1e9, epsilon_budget=replace(config_1e9.epsilon_budget, d=1e-12)
    )
    with pytest.raises(ConfigError):
        evaluate_pipeline(observed, config, model)


def test_pipeline_rejects_correlated_without_length(config_1e9, channel_10km):
    observed, _ = expected_counts(config_1e9, channel_10km)
    model = CorrelationModel(delta_1=0.1, decay_C=1.0, truncation_d=0.0, l_c_eff=0)
    with pytest.raises(ConfigError):
        evaluate_pipeline(observed, config_1e9, model)


def test_pipeline_derives_missing_length(config_1e9, channel_10km):
    """Without l_c_eff the pipeline runs at required_truncation_length, bit
    for bit as if the caller had filled it in."""
    observed, _ = expected_counts(config_1e9, channel_10km)
    config = replace(
        config_1e9, epsilon_budget=replace(config_1e9.epsilon_budget, d=1e-12)
    )
    model = CorrelationModel(delta_1=0.05, decay_C=1.0, truncation_d=1e-12)
    needed = required_truncation_length(
        config.N, mean_intensity(config.intensity_set), model
    )
    derived = evaluate_pipeline(observed, config, model)
    filled = evaluate_pipeline(observed, config, replace(model, l_c_eff=needed))
    assert derived.key_length == filled.key_length > 0
    assert derived.eps_sec == filled.eps_sec
    assert derived.e_ph_upper == filled.e_ph_upper
    assert derived.audit["correlation"]["l_c"] == filled.audit["correlation"]["l_c"] == needed


@pytest.mark.parametrize("model", [
    CorrelationModel(delta_1=-0.1, decay_C=1.0, truncation_d=1e-12),
    CorrelationModel(delta_1=0.1, decay_C=0.0, truncation_d=1e-12),
    CorrelationModel(delta_1=0.0, decay_C=1.0, truncation_d=1e-12, l_c_eff=-1),
], ids=["negative_delta_1", "zero_decay_C", "negative_l_c_eff"])
def test_pipeline_rejects_invalid_model(config_1e9, channel_10km, model):
    observed, _ = expected_counts(config_1e9, channel_10km)
    config = replace(
        config_1e9, epsilon_budget=replace(config_1e9.epsilon_budget, d=1e-12)
    )
    with pytest.raises(ConfigError):
        evaluate_pipeline(observed, config, model)


def test_pipeline_rejects_inconsistent_truncation_budget(config_1e9, channel_10km):
    observed, _ = expected_counts(config_1e9, channel_10km)
    budgeted = replace(
        config_1e9, epsilon_budget=replace(config_1e9.epsilon_budget, d=1e-12)
    )
    with pytest.raises(ConfigError):
        evaluate_pipeline(observed, budgeted, None)
    model = CorrelationModel(delta_1=0.1, decay_C=1.0, truncation_d=1e-10, l_c_eff=40)
    with pytest.raises(ConfigError):
        evaluate_pipeline(observed, budgeted, model)


def test_pipeline_monotone_in_correlation_strength(config_1e9, channel_10km):
    observed, _ = expected_counts(config_1e9, channel_10km)
    mu_bar = mean_intensity(config_1e9.intensity_set)
    config = replace(
        config_1e9, epsilon_budget=replace(config_1e9.epsilon_budget, d=1e-12)
    )
    keys = [evaluate_pipeline(observed, config_1e9, None).key_length]
    for delta_1 in (0.05, 0.1, 0.15, 0.2):
        model = CorrelationModel(delta_1=delta_1, decay_C=1.0, truncation_d=1e-12)
        model = replace(
            model, l_c_eff=required_truncation_length(config.N, mu_bar, model)
        )
        keys.append(evaluate_pipeline(observed, config, model).key_length)
    assert all(a >= b for a, b in zip(keys, keys[1:]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    deltas=st.lists(st.floats(0.0, 0.3), min_size=2, max_size=2),
    decay_C=st.floats(0.2, 3.0),
    l_c_eff=st.integers(1, 80),
    distance_km=st.sampled_from([0.0, 10.0, 30.0, 60.0]),
)
def test_key_length_nonincreasing_in_delta_1(deltas, decay_C, l_c_eff, distance_km):
    config = reference_config(10**9)
    observed, _ = expected_counts(config, reference_channel(distance_km))
    weaker, stronger = sorted(deltas)
    keys = [
        evaluate_pipeline(
            observed, config, CorrelationModel(delta_1=delta_1, decay_C=decay_C, l_c_eff=l_c_eff)
        ).key_length
        for delta_1 in (weaker, stronger)
    ]
    assert keys[0] >= keys[1]


def test_pipeline_checks_failure_budget_before_coin_bound(config_1e9, channel_10km):
    """An over-budget allocation is refused before the coin bound, whose
    loop runs once per lag when the probabilities sum just below 1."""
    iset = replace(config_1e9.intensity_set, p_v=0.15 - 5e-13)
    config = replace(
        config_1e9,
        intensity_set=iset,
        epsilon_budget=replace(config_1e9.epsilon_budget, eps_C=1e-3),
    )
    observed, _ = expected_counts(config, channel_10km)
    model = CorrelationModel(delta_1=0.05, decay_C=1.0, l_c_eff=10**12)
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="failure budget"):
        evaluate_pipeline(observed, config, model)
    assert time.perf_counter() - start < 1.0


def test_pipeline_tiny_block_never_crashes(channel_10km):
    """Degenerate statistics must yield key 0, not an exception."""
    from corrbb84.simulator import sample_counts
    from corrbb84.validation import reference_config

    for N in (1, 10, 1000):
        config = reference_config(N)
        for seed in (0, 1):
            observed, _ = sample_counts(config, channel_10km, seed)
            result = evaluate_pipeline(observed, config, None)
            assert result.key_length == 0
            assert 0.0 <= result.e_ph_upper <= 1.0


@pytest.mark.parametrize("d", [0.0, 1e-12], ids=["uncorrelated", "correlated"])
def test_pipeline_audit_epsilon_shares(config_1e9, channel_10km, d):
    model = None if d == 0.0 else CorrelationModel(0.05, 1.0, d)
    config = replace(config_1e9, epsilon_budget=replace(config_1e9.epsilon_budget, d=d))
    observed, _ = expected_counts(config, channel_10km)
    result = evaluate_pipeline(observed, config, model)
    shares = result.audit["epsilon_shares"]
    assert set(shares) == {
        "azuma_5_eps_A", "trash_lc1_eps_C", "decoy_10_eps_B", "truncation_d",
    }
    assert sum(shares.values()) == result.audit["eps_PE"]
    budget = config.epsilon_budget
    l_c = result.audit["correlation"]["l_c"]
    assert (l_c > 0) == (model is not None)
    assert shares["azuma_5_eps_A"] == 5 * budget.eps_A
    assert shares["trash_lc1_eps_C"] == (l_c + 1) * budget.eps_C
    assert shares["decoy_10_eps_B"] == 10 * budget.eps_B
    assert shares["truncation_d"] == d


@pytest.mark.parametrize("f_ec", [math.nan, math.inf, 0.5], ids=["nan", "inf", "below_1"])
def test_pipeline_rejects_f_ec_outside_its_rule(config_1e9, channel_10km, f_ec):
    observed, _ = expected_counts(config_1e9, channel_10km)
    with pytest.raises(ConfigError, match=r"^f_EC must be finite and >= 1, got "):
        evaluate_pipeline(observed, config_1e9, f_EC=f_ec)
