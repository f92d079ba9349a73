"""The rewritten sampler, fidelity oracle and Bernoulli relative entropy
against their frozen first versions (``frozen_reference.py``): equal bit for
bit, draw for draw."""

import math
from dataclasses import replace

import frozen_reference as frozen
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrbb84 import correlations as corr
from corrbb84 import oracles
from corrbb84 import validation
from corrbb84.concentration import bernoulli_kl
from corrbb84.model import IntensitySet
from corrbb84.simulator import ChannelModel, sample_counts
from corrbb84.validation import reference_config, reference_intensities, run_validation

VACUUM_SET = reference_intensities()
WEAK_VACUUM_SET = IntensitySet(s=0.5, w=0.1, v=0.02, p_s=0.7, p_w=0.15, p_v=0.15)

SAMPLER_CONFIGS = {
    "reference_1e6": reference_config(10**6),
    "reference_1e9": reference_config(10**9),
    "small_N": reference_config(1000),
    "p_keep_0.55": reference_config(10**6, p_keep=0.55),
    "weak_vacuum": replace(reference_config(10**6), intensity_set=WEAK_VACUUM_SET),
    "no_rounds": replace(reference_config(10**6), N=0),
}


@pytest.mark.parametrize("name", sorted(SAMPLER_CONFIGS))
def test_sample_counts_equals_frozen(name):
    config = SAMPLER_CONFIGS[name]
    for distance in (0.0, 10.0, 50.0, 150.0):
        for dark in (0.0, 1e-7, 0.3):
            channel = ChannelModel(distance_km=distance, dark_count_prob=dark)
            for coin in (0.0, 0.013, 1.0):
                for seed in range(4):
                    new = sample_counts(config, channel, seed, coin_minus_prob=coin)
                    old = frozen.sample_counts(config, channel, seed, coin_minus_prob=coin)
                    # repr also tells a builtin int from a numpy integer
                    assert repr(new) == repr(old), (distance, dark, coin, seed)


def test_sample_counts_rejects_coin_probability_outside_unit_interval(config_1e6, channel_10km):
    for coin in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError):
            sample_counts(config_1e6, channel_10km, 1, coin_minus_prob=coin)


@pytest.mark.parametrize(
    "draw",
    [
        pytest.param(lambda rng: rng.binomial(0, 0.3), id="binomial_n0"),
        pytest.param(lambda rng: rng.binomial(0, 1.0), id="binomial_n0_p1"),
        pytest.param(lambda rng: rng.binomial(1000, 0.0), id="binomial_p0"),
        pytest.param(lambda rng: rng.multinomial(0, [0.2, 0.3, 0.5]), id="multinomial_n0"),
    ],
)
def test_skipped_draws_consume_no_randomness(draw):
    rng = np.random.default_rng(7)
    before = rng.bit_generator.state
    assert not np.any(draw(rng))
    assert rng.bit_generator.state == before


def test_certain_binomial_consumes_randomness():
    # p == 1.0 is drawn, not skipped: numpy advances the generator for it
    rng = np.random.default_rng(7)
    before = rng.bit_generator.state
    assert rng.binomial(1000, 1.0) == 1000
    assert rng.bit_generator.state != before


REFERENCES = [(0, corr.Z), (0, corr.X), (1, corr.Z), (1, corr.X)]


@pytest.mark.parametrize("N", range(1, corr.MAX_ORACLE_ROUNDS + 1))
def test_exact_global_fidelity_equals_frozen(N):
    rng = np.random.default_rng(300 + N)
    model = corr.CorrelationModel(delta_1=0.2, decay_C=0.8)
    lags = max(1, N - 1)
    for l_c in range(4):
        for iset in (VACUUM_SET, WEAK_VACUUM_SET):
            for reference in REFERENCES:
                signed_zero = rng.uniform(-1.0, 1.0, size=(lags, 2, 2))
                signed_zero[:, 0, :] = -0.0
                tables = (
                    oracles.random_admissible_deltas(model, lags, rng),
                    oracles.ExplicitDeltas(rng.uniform(-math.pi, math.pi, size=(lags, 2, 2))),
                    oracles.extreme_deltas(model, lags),
                    oracles.ExplicitDeltas(signed_zero),
                )
                for deltas in tables:
                    new = corr.exact_global_fidelity(N, l_c, deltas, iset, reference)
                    old = frozen.exact_global_fidelity(N, l_c, deltas, iset, reference)
                    assert repr(new) == repr(old), (l_c, iset, reference)


@pytest.mark.parametrize("seed", [0, 1])
def test_full_validation_report_equals_frozen(seed, monkeypatch):
    report = run_validation("full", seed)
    monkeypatch.setattr(validation, "sample_counts", frozen.sample_counts)
    monkeypatch.setattr(corr, "exact_global_fidelity", frozen.exact_global_fidelity)
    assert repr(run_validation("full", seed)) == repr(report)


# the ends of [0, 1], the smallest subnormal, a tiny normal, an interior
# point and the double just below 1
KL_GRID = (0.0, 5e-324, 1e-300, 0.5, math.nextafter(1.0, 0.0), 1.0)
KL_OUT_OF_RANGE = (-5e-324, -0.5, math.nextafter(1.0, 2.0), 2.0, math.inf, -math.inf, math.nan)


def _assert_kl_equals_frozen(p, q):
    """The same value (inf included) or the same ValueError as the frozen D."""
    try:
        expected = frozen.bernoulli_kl(p, q)
    except ValueError as error:
        with pytest.raises(ValueError) as raised:
            bernoulli_kl(p, q)
        assert str(raised.value) == str(error)
        return
    assert bernoulli_kl(p, q) == expected, (p, q)


def test_bernoulli_kl_equals_frozen_on_grid():
    values = KL_GRID + KL_OUT_OF_RANGE
    for p in values:
        for q in values:
            _assert_kl_equals_frozen(p, q)


@settings(max_examples=500, deadline=None)
@given(
    p=st.one_of(st.sampled_from(KL_GRID), st.floats(0.0, 1.0), st.floats()),
    q=st.one_of(st.sampled_from(KL_GRID), st.floats(0.0, 1.0), st.floats()),
)
def test_bernoulli_kl_equals_frozen_on_drawn_inputs(p, q):
    _assert_kl_equals_frozen(p, q)
    _assert_kl_equals_frozen(p, p)
