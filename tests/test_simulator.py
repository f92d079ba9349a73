import math
from dataclasses import FrozenInstanceError, asdict, replace

import frozen_reference as frozen
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrbb84.correlations import CorrelationModel
from corrbb84.counts import CountTriple
from corrbb84.model import (MAX_BLOCK_SIZE, ConfigError, IntensitySet, ProtocolConfig,
                            single_photon_prob)
from corrbb84.oracles import ExplicitDeltas, coin_monte_carlo, extreme_deltas
from corrbb84.simulator import (
    ChannelModel,
    expected_counts,
    sample_counts,
    sample_plan,
    validate_channel,
)
from corrbb84.validation import reference_budget, reference_config

YIELD_EXAMPLE = 0.100009  # m=1, eta=0.1, Y0=1e-5


def channel_yield(m: int, channel: ChannelModel) -> float:
    """Detection probability of an m-photon pulse,
    Y_m = 1 - (1 - Y0)(1 - eta)^m."""
    if m < 0:
        raise ValueError(f"photon number must be nonnegative, got {m}")
    eta = channel.transmittance
    return 1.0 - (1.0 - channel.dark_click_prob) * (1.0 - eta) ** m


def _channel_with(eta, dark):
    """Distance-0 channel with a prescribed overall transmittance."""
    return ChannelModel(
        distance_km=0.0,
        detector_efficiency=eta,
        dark_count_prob=dark,
        misalignment=0.01,
    )


def test_yield_no_photons_no_darks():
    channel = _channel_with(0.3, 0.0)
    assert channel_yield(0, channel) == 0.0


def test_yield_unit_transmittance():
    channel = _channel_with(1.0, 0.0)
    for m in (1, 2, 5):
        assert channel_yield(m, channel) == 1.0


def test_yield_known_value():
    dark = 1.0 - math.sqrt(1.0 - 1e-5)  # Y0 = 1e-5 exactly
    channel = _channel_with(0.1, dark)
    assert math.isclose(channel_yield(1, channel), YIELD_EXAMPLE, rel_tol=1e-9)


def test_transmittance_decays_with_distance():
    channel = ChannelModel(distance_km=50.0)
    assert math.isclose(
        channel.transmittance, 0.25 * 10 ** (-0.2 * 50 / 10), rel_tol=1e-12
    )
    assert validate_channel(channel) == []


def test_expected_no_errors_without_noise(config_1e6):
    channel = ChannelModel(
        distance_km=0.0, detector_efficiency=1.0, dark_count_prob=0.0, misalignment=0.0
    )
    observed, truth = expected_counts(config_1e6, channel)
    assert observed.z_err.total == 0 and observed.x_err.total == 0
    assert truth.z_err[1].total == 0


def test_expected_vacuum_intensity_sees_only_darks(config_1e6):
    channel = ChannelModel(
        distance_km=0.0, detector_efficiency=1.0, dark_count_prob=1e-4, misalignment=0.0
    )
    observed, _ = expected_counts(config_1e6, channel)
    iset = config_1e6.intensity_set
    dark_floor = (
        config_1e6.N * iset.p_v * channel.dark_click_prob * config_1e6.p_keep / 4.0
    )
    assert observed.z_det.m_v == round(dark_floor)


def test_expected_detection_total_matches_yields(config_1e6, channel_10km):
    observed, truth = expected_counts(config_1e6, channel_10km)
    expected_total = 0.0
    for mu, p_mu in config_1e6.intensity_set.pairs():
        per_pulse = 1.0 - (1.0 - channel_10km.dark_click_prob) * math.exp(
            -mu * channel_10km.transmittance
        )
        expected_total += config_1e6.N * p_mu * per_pulse
    keep_sifted = observed.z_det.total + observed.x_det.total
    # 18 rounded ground-truth cells bound the aggregation error
    assert abs(keep_sifted - expected_total * config_1e6.p_keep / 2.0) <= 9.0
    assert truth.observed(observed.n_sifted_det) == observed


def test_expected_counts_deterministic(config_1e9, channel_10km):
    first, _ = expected_counts(config_1e9, channel_10km)
    second, _ = expected_counts(config_1e9, channel_10km)
    assert first == second


def test_sampled_ground_truth_marginals_exact(config_1e6, channel_10km):
    for seed in (0, 1, 2, 3):
        observed, truth = sample_counts(config_1e6, channel_10km, seed)
        assert truth.observed(observed.n_sifted_det) == observed
        assert observed.validate() == []


def test_sampled_determinism(config_1e6, channel_10km):
    first = sample_counts(config_1e6, channel_10km, seed=42)
    again = sample_counts(config_1e6, channel_10km, seed=42)
    other = sample_counts(config_1e6, channel_10km, seed=43)
    assert first[0] == again[0]
    assert first[1].z_det == again[1].z_det
    assert first[0] != other[0]


def test_sampled_zero_rounds(channel_10km):
    config = replace(reference_config(10**6), N=0)
    observed, truth = sample_counts(config, channel_10km, seed=1)
    assert observed.z_det.total == 0 and observed.n_sifted_det == 0
    assert truth.trash_minus_single == 0


def test_sampled_n_beyond_int64_is_a_config_error(channel_10km):
    """numpy's multinomial draws int64 counts: one more round is refused by
    name, not left to numpy's OverflowError."""
    assert MAX_BLOCK_SIZE == 2**63 - 1
    config = replace(reference_config(10**6), N=2**63)
    with pytest.raises(ConfigError, match=rf"^sampled simulation needs N <= {MAX_BLOCK_SIZE}, "
                                          rf"got {2**63}$"):
        sample_counts(config, channel_10km, seed=1)


PLAN_SETTINGS = {
    "N_0": (replace(reference_config(10**6), N=0), ChannelModel(10.0)),
    "N_1": (replace(reference_config(10**6), N=1), ChannelModel(10.0)),
    "N_max": (replace(reference_config(10**6), N=MAX_BLOCK_SIZE), ChannelModel(10.0)),
    "p_keep_0": (reference_config(10**6, p_keep=0.0), ChannelModel(10.0)),
    "p_keep_1": (reference_config(10**6, p_keep=1.0), ChannelModel(10.0)),
    "no_darks": (reference_config(10**6), ChannelModel(10.0, dark_count_prob=0.0)),
    "weak_vacuum": (
        replace(reference_config(10**6),
                intensity_set=IntensitySet(s=0.5, w=0.1, v=0.02, p_s=0.7, p_w=0.15, p_v=0.15)),
        ChannelModel(10.0),
    ),
    "0_km": (reference_config(10**6), ChannelModel(0.0)),
    "200_km": (reference_config(10**6), ChannelModel(200.0)),
}


@pytest.mark.parametrize("name", sorted(PLAN_SETTINGS))
@pytest.mark.parametrize("coin", [0.0, 0.013, 1.0])
def test_reused_plan_draws_what_a_fresh_draw_does(name, coin):
    """One plan serves many seeds: each draw is, bit for bit, the draw made
    without a plan and the frozen sampler's draw."""
    config, channel = PLAN_SETTINGS[name]
    plan = sample_plan(config, channel, coin)
    for seed in range(8):
        planned = sample_counts(config, channel, seed, coin, plan=plan)
        # repr also tells a builtin int from a numpy integer
        assert repr(planned) == repr(sample_counts(config, channel, seed, coin)), seed
        assert repr(planned) == repr(frozen.sample_counts(config, channel, seed, coin)), seed


def test_sample_counts_refuses_a_plan_of_another_setting(config_1e6, channel_10km):
    plan = sample_plan(config_1e6, channel_10km, 0.013)
    others = (
        (replace(config_1e6, N=config_1e6.N + 1), channel_10km, 0.013),
        (replace(config_1e6, p_keep=0.7), channel_10km, 0.013),
        (config_1e6, replace(channel_10km, distance_km=11.0), 0.013),
        (config_1e6, replace(channel_10km, dark_count_prob=0.0), 0.013),
        (config_1e6, channel_10km, 0.0),
    )
    for config, channel, coin in others:
        with pytest.raises(ValueError, match=r"^plan was built for another config, "
                                             r"channel or coin probability$"):
            sample_counts(config, channel, 1, coin, plan=plan)
    # an equal setting in new objects is the same setting
    same = sample_counts(replace(config_1e6), replace(channel_10km), 1, 0.013, plan=plan)
    assert same == sample_counts(config_1e6, channel_10km, 1, 0.013)


def test_sample_plan_checks_coin_probability_before_n(channel_10km):
    config = replace(reference_config(10**6), N=MAX_BLOCK_SIZE + 1)
    with pytest.raises(ValueError, match=r"^coin_minus_prob must lie in \[0, 1\], got 1.5$"):
        sample_plan(config, channel_10km, 1.5)
    with pytest.raises(ConfigError, match=r"^sampled simulation needs N <= "):
        sample_plan(config, channel_10km, 1.0)


def test_count_triple_is_a_checked_frozen_record():
    triple = CountTriple(3, 2, 1)
    assert repr(triple) == "CountTriple(m_s=3, m_w=2, m_v=1)"
    assert triple == CountTriple(3, 2, 1) and triple != CountTriple(3, 1, 2)
    assert hash(triple) == hash((3, 2, 1))
    assert asdict(triple) == {"m_s": 3, "m_w": 2, "m_v": 1}
    assert tuple(triple) == (3, 2, 1) and triple.total == 6
    with pytest.raises(FrozenInstanceError):
        triple.m_s = 4
    with pytest.raises(FrozenInstanceError):
        del triple.m_v
    assert not hasattr(triple, "__dict__")
    for args in ((-1, 0, 0), (0, -1, 0), (0, 0, -1)):
        with pytest.raises(ValueError, match=rf"^counts must be nonnegative, got "
                                             rf"CountTriple\(m_s={args[0]}, m_w={args[1]}, "
                                             rf"m_v={args[2]}\)$"):
            CountTriple(*args)


def test_sampled_means_match_expectation(channel_10km):
    config = reference_config(10**6)
    expected, _ = expected_counts(config, channel_10km)
    samples = [sample_counts(config, channel_10km, s)[0] for s in range(200)]
    for pick, target in (
        (lambda o: o.z_det.total, expected.z_det.total),
        (lambda o: o.x_err.total, expected.x_err.total),
        (lambda o: o.n_sifted_det, expected.n_sifted_det),
    ):
        totals = np.array([pick(o) for o in samples])
        spread = totals.std(ddof=1) / math.sqrt(len(totals))
        assert abs(totals.mean() - target) <= 5.0 * max(spread, 1.0)


SAMPLED_RUNS = 30
CLT_Z = 6.0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    log10_N=st.floats(3.0, 9.0),
    p_keep=st.floats(0.5, 0.95),
    s=st.floats(0.3, 0.8),
    w=st.floats(0.05, 0.2),
    v=st.sampled_from([0.0, 0.01, 0.03]),
    p_s=st.floats(0.4, 0.7),
    p_w=st.floats(0.1, 0.3),
    distance_km=st.floats(0.0, 100.0),
    dark=st.sampled_from([0.0, 1e-7, 1e-5, 1e-3]),
    misalignment=st.floats(0.0, 0.05),
)
def test_sampled_marginals_match_expectation(
    log10_N, p_keep, s, w, v, p_s, p_w, distance_km, dark, misalignment
):
    """Each announced count is binomial over the N rounds, so its variance
    is at most its mean E, and the mean of K runs lies within
    z sqrt(E / K) of E (CLT, z = 6) plus the rounding of expected_counts'
    cells (1/2 per cell, three photon buckets per marginal)."""
    config = ProtocolConfig(
        N=round(10.0**log10_N),
        intensity_set=IntensitySet(s=s, w=w, v=v, p_s=p_s, p_w=p_w, p_v=1.0 - p_s - p_w),
        p_keep=p_keep,
        epsilon_budget=reference_budget(),
    )
    channel = ChannelModel(
        distance_km=distance_km, dark_count_prob=dark, misalignment=misalignment
    )

    def marginals(observed):
        cells = [observed.n_sifted_det]
        for triple in (observed.z_det, observed.z_err, observed.x_det, observed.x_err):
            cells.extend(triple)
        return cells

    expected = marginals(expected_counts(config, channel)[0])
    runs = np.array([marginals(sample_counts(config, channel, seed)[0])
                     for seed in range(SAMPLED_RUNS)])
    for cell, (target, mean) in enumerate(zip(expected, runs.mean(axis=0))):
        slack = CLT_Z * math.sqrt(max(target, 1.0) / SAMPLED_RUNS) + 1.5
        assert abs(mean - target) <= slack, (cell, mean, target)


def test_sampled_coin_tally_present(config_1e6, channel_10km):
    observed, truth = sample_counts(config_1e6, channel_10km, 7, coin_minus_prob=0.01)
    p1 = single_photon_prob(config_1e6.intensity_set)
    mean = config_1e6.N * p1 * (1 - config_1e6.p_keep) / 2.0 * 0.01
    assert truth.trash_minus_single > 0
    assert abs(truth.trash_minus_single - mean) < 10.0 * math.sqrt(mean)


MODEL = CorrelationModel(delta_1=0.3, decay_C=0.5)


def test_coin_mc_ideal_encoder_is_silent(config_1e6):
    deltas = ExplicitDeltas(np.full((1, 2, 2), 0.2))
    tallies = coin_monte_carlo(10**5, config_1e6, deltas, 1, trials=50, seed=3)
    assert (tallies == 0).all()


def test_coin_mc_no_trash_rounds_is_silent():
    config = replace(reference_config(10**6), p_keep=1.0)
    deltas = extreme_deltas(MODEL, 1)
    tallies = coin_monte_carlo(10**5, config, deltas, 1, trials=50, seed=3)
    assert (tallies == 0).all()


def test_coin_mc_deterministic(config_1e6):
    deltas = extreme_deltas(MODEL, 1)
    first = coin_monte_carlo(10**5, config_1e6, deltas, 1, trials=20, seed=11)
    again = coin_monte_carlo(10**5, config_1e6, deltas, 1, trials=20, seed=11)
    assert (first == again).all()


def test_coin_mc_rejects_large_lc(config_1e6):
    deltas = ExplicitDeltas(np.zeros((5, 2, 2)))
    with pytest.raises(ValueError):
        coin_monte_carlo(10**4, config_1e6, deltas, 4, trials=5, seed=1)
