"""The rewritten sampler, fidelity oracle, delta-table draws, Bernoulli
relative entropy, intensity sums, decoy bounds, coin bound and counts records against their
frozen first versions (``frozen_reference.py``): equal bit for bit, draw for
draw."""

import math
from dataclasses import asdict, replace

import frozen_reference as frozen
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrbb84 import correlations as corr
from corrbb84 import oracles
from corrbb84 import validation
from corrbb84.concentration import bernoulli_kl, binomial_bound_pair
from corrbb84.counts import CountTriple, GroundTruth, ObservedCounts
from corrbb84.decoy import apply_decoy_bounds, single_photon_lower, single_photon_upper
from corrbb84.model import PROB_SUM_TOL, IntensitySet, mean_intensity, single_photon_prob
from corrbb84.simulator import ChannelModel, expected_counts, sample_counts
from corrbb84.validation import (
    reference_budget, reference_config, reference_intensities, run_validation,
)

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


@pytest.mark.parametrize("N", range(1, corr.MAX_ORACLE_ROUNDS + 1))
def test_exact_global_fidelity_equals_frozen(N):
    rng = np.random.default_rng(300 + N)
    model = corr.CorrelationModel(delta_1=0.2, decay_C=0.8)
    lags = max(1, N - 1)
    for l_c in range(4):
        for iset in (VACUUM_SET, WEAK_VACUUM_SET):
            signed_zero = rng.uniform(-1.0, 1.0, size=(lags, 2, 2))
            signed_zero[:, 0, :] = -0.0
            tables = [
                oracles.random_admissible_deltas(model, lags, rng, 1)[0],
                oracles.ExplicitDeltas(rng.uniform(-math.pi, math.pi, size=(lags, 2, 2))),
                oracles.extreme_deltas(model, lags),
                oracles.ExplicitDeltas(signed_zero),
            ]
            # one call on the four kinds stacked: each gets its own frozen value
            new = corr.exact_global_fidelity(N, l_c, tables, iset)
            old = [frozen.exact_global_fidelity(N, l_c, deltas, iset) for deltas in tables]
            assert repr(new) == repr(old), (l_c, iset)


@pytest.mark.parametrize("lags", [1, 3, 7])
def test_random_admissible_deltas_equal_one_table_draws(lags):
    """``count`` tables from one call are, bit for bit, the tables of
    ``count`` one-table draws from the same generator state."""
    model = corr.CorrelationModel(delta_1=0.2, decay_C=0.8)
    rng, single_rng, frozen_rng = (np.random.default_rng(41) for _ in range(3))
    tables = oracles.random_admissible_deltas(model, lags, rng, 6)
    singles = [oracles.random_admissible_deltas(model, lags, single_rng, 1)[0] for _ in range(6)]
    frozen_draws = [frozen.random_admissible_deltas(model, lags, frozen_rng) for _ in range(6)]
    for drawn in (singles, frozen_draws):
        assert [t.table.tobytes() for t in tables] == [t.table.tobytes() for t in drawn]
    assert rng.bit_generator.state == single_rng.bit_generator.state == frozen_rng.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1])
def test_full_validation_report_equals_frozen(seed, monkeypatch):
    report = run_validation("full", seed)

    def frozen_per_run(config, channel, seed, coin_minus_prob=0.0, *, plan=None):
        return frozen.sample_counts(config, channel, seed, coin_minus_prob)

    monkeypatch.setattr(validation, "sample_counts", frozen_per_run)

    def frozen_per_table(N, l_c, tables, intensity_set):
        return [frozen.exact_global_fidelity(N, l_c, deltas, intensity_set) for deltas in tables]

    monkeypatch.setattr(corr, "exact_global_fidelity", frozen_per_table)
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


# the decoy bounds and the coin bound: the vacuum intensity at 0 and above
# it, and probability sums from 1 - PROB_SUM_TOL to 1 + PROB_SUM_TOL
@st.composite
def intensity_sets(draw, solvable=True):
    v = draw(st.one_of(st.just(0.0), st.floats(1e-6, 0.3)))
    w = v + draw(st.floats(1e-4, 1.0))
    s = (w + v if solvable else 0.0) + draw(st.floats(1e-4, 3.0))
    p_s = draw(st.floats(0.01, 0.97))
    p_w = draw(st.floats(0.01, 0.98 - p_s))
    excess = draw(st.one_of(st.sampled_from((0.0, PROB_SUM_TOL, -PROB_SUM_TOL)),
                            st.floats(-PROB_SUM_TOL, PROB_SUM_TOL)))
    return IntensitySet(s=s, w=w, v=v, p_s=p_s, p_w=p_w, p_v=1.0 - p_s - p_w + excess)


def count_triples():
    counts = st.one_of(st.integers(0, 20), st.integers(0, 10**9))
    return st.builds(CountTriple, counts, counts, counts)


def _recording(calls):
    def bound_pair(*args):
        calls.append(args)
        return binomial_bound_pair(*args)
    return bound_pair


def _outcome(bound, *args):
    """repr of the returned bound as a dict (the package returns a record,
    the frozen version a dict), or the type and message of the error."""
    try:
        result = bound(*args)
    except ValueError as error:
        return type(error).__name__, str(error)
    return repr(result if isinstance(result, dict) else asdict(result))


def _decoy_repr(bounds):
    """The four bounds and the audit dict: repr shows every value, key order
    and -0.0."""
    return repr((bounds.z_det_lower, bounds.z_det_upper, bounds.x_det_lower,
                 bounds.x_err_upper, bounds.audit))


@settings(max_examples=300, deadline=None)
@given(iset=intensity_sets(), triples=st.lists(count_triples(), min_size=4, max_size=4),
       eps_B=st.floats(1e-15, 1e-2))
def test_apply_decoy_bounds_equals_frozen(iset, triples, eps_B):
    observed = ObservedCounts(*triples, n_sifted_det=sum(t.total for t in triples))
    config = replace(reference_config(10**9), intensity_set=iset,
                     epsilon_budget=replace(reference_budget(), eps_B=eps_B))
    new_calls, old_calls = [], []
    new = apply_decoy_bounds(observed, config, _recording(new_calls))
    old = frozen.apply_decoy_bounds(observed, config, _recording(old_calls))
    assert _decoy_repr(new) == _decoy_repr(old)  # the audit dicts too
    assert new_calls == old_calls  # the same sides, asked in the same order
    assert _decoy_repr(apply_decoy_bounds(observed, config)) == _decoy_repr(old)

    # both bases on one triple, as expected_counts gives them: the test-basis
    # lower bound is the key-basis one, and its three sides are not asked again
    z_det, z_err, _, x_err = triples
    shared = ObservedCounts(z_det, z_err, z_det, x_err, observed.n_sifted_det)
    new_calls, old_calls = [], []
    new = apply_decoy_bounds(shared, config, _recording(new_calls))
    old = frozen.apply_decoy_bounds(shared, config, _recording(old_calls))
    assert _decoy_repr(new) == _decoy_repr(old)
    audit = new.audit  # one read: each read builds a new dict
    assert audit["x_det_lower"] is audit["z_det_lower"]
    assert old_calls[5:8] == old_calls[:3]  # x_det's three sides
    assert new_calls == old_calls[:5] + old_calls[8:]


@settings(max_examples=300, deadline=None)
@given(iset=st.one_of(intensity_sets(), intensity_sets(solvable=False)),
       counts=count_triples(), eps_B=st.floats(1e-15, 1e-2))
def test_single_photon_bounds_equal_frozen(iset, counts, eps_B):
    args = (counts, iset, eps_B, binomial_bound_pair)
    for new, old in ((single_photon_lower, frozen.single_photon_lower),
                     (single_photon_upper, frozen.single_photon_upper)):
        assert _outcome(new, *args) == _outcome(old, *args)


def test_coin_parameter_bound_equals_frozen_on_grid():
    sets = (VACUUM_SET, WEAK_VACUUM_SET,
            replace(VACUUM_SET, p_v=VACUUM_SET.p_v + PROB_SUM_TOL),
            replace(VACUUM_SET, p_v=VACUUM_SET.p_v - PROB_SUM_TOL))
    for iset in sets:
        for delta_1, decay_C in ((0.05, 1.0), (0.2, 0.2), (math.pi, 0.01), (1e-9, 1.0)):
            model = corr.CorrelationModel(delta_1=delta_1, decay_C=decay_C)
            for l_c in (0, 1, 2, 35, 64, 128, 200, 400):
                new = corr.coin_parameter_bound(l_c, iset, model)
                old = frozen.coin_parameter_bound(l_c, iset, model)
                assert repr(new) == repr(old), (iset, delta_1, decay_C, l_c)


@settings(max_examples=500, deadline=None)
@given(iset=intensity_sets(), l_c=st.integers(0, 400),
       delta_1=st.one_of(st.floats(0.0, math.pi), st.floats(1e-12, 1e-6)),
       decay_C=st.floats(1e-3, 10.0))
def test_coin_parameter_bound_equals_frozen_on_drawn_inputs(iset, l_c, delta_1, decay_C):
    model = corr.CorrelationModel(delta_1=delta_1, decay_C=decay_C)
    new = corr.coin_parameter_bound(l_c, iset, model)
    assert repr(new) == repr(frozen.coin_parameter_bound(l_c, iset, model))


@settings(max_examples=500, deadline=None)
@given(iset=st.one_of(intensity_sets(), intensity_sets(solvable=False)))
def test_intensity_sums_equal_frozen(iset):
    assert repr(single_photon_prob(iset)) == repr(frozen.single_photon_prob(iset))
    assert repr(mean_intensity(iset)) == repr(frozen.mean_intensity(iset))


# the counts records: v = 0 and v > 0, p_keep up to 0.999, N from 1 to 1e15,
# 0 to 200 km and a zero dark-count rate
@settings(max_examples=400, deadline=None)
@given(iset=st.one_of(intensity_sets(), intensity_sets(solvable=False)),
       N=st.one_of(st.integers(1, 1000), st.integers(1, 10**15)),
       p_keep=st.one_of(st.just(0.999), st.floats(0.001, 0.999)),
       distance=st.one_of(st.sampled_from((0.0, 200.0)), st.floats(0.0, 200.0)),
       dark=st.one_of(st.just(0.0), st.floats(0.0, 1e-3), st.floats(0.0, 0.5)),
       misalignment=st.floats(0.0, 0.5), efficiency=st.floats(1e-3, 1.0))
def test_expected_counts_equals_frozen(iset, N, p_keep, distance, dark, misalignment, efficiency):
    config = replace(reference_config(N, p_keep=p_keep), intensity_set=iset)
    channel = ChannelModel(distance_km=distance, detector_efficiency=efficiency,
                           dark_count_prob=dark, misalignment=misalignment)
    observed, truth = expected_counts(config, channel)
    assert repr((observed, truth)) == repr(frozen.expected_counts(config, channel))
    n_sifted_det = observed.n_sifted_det
    assert repr(truth.observed(n_sifted_det)) == repr(frozen.observed(truth, n_sifted_det))


def bucket_triples():
    return st.tuples(count_triples(), count_triples(), count_triples())


@settings(max_examples=300, deadline=None)
@given(buckets=st.lists(bucket_triples(), min_size=4, max_size=4),
       n_sifted_det=st.integers(0, 10**10))
def test_ground_truth_observed_equals_frozen(buckets, n_sifted_det):
    truth = GroundTruth(*buckets)
    assert repr(truth.observed(n_sifted_det)) == repr(frozen.observed(truth, n_sifted_det))


# small counts make errors above detections and keep-sifted sums above the
# sifted total common; negative totals reach the last check
@settings(max_examples=500, deadline=None)
@given(triples=st.lists(st.builds(CountTriple, *[st.integers(0, 6)] * 3),
                       min_size=4, max_size=4), n_sifted_det=st.integers(-3, 40))
def test_validate_equals_frozen(triples, n_sifted_det):
    counts = ObservedCounts(*triples, n_sifted_det=n_sifted_det)
    assert counts.validate() == frozen.validate(counts)


def test_validate_reports_every_violation_as_frozen():
    high, low = CountTriple(5, 5, 5), CountTriple(1, 1, 1)
    cases = [ObservedCounts(high, low, high, low, 30)]  # valid
    for field in ("m_s", "m_w", "m_v"):
        err = replace(low, **{field: 9})
        cases += [ObservedCounts(high, err, high, low, 30), ObservedCounts(high, low, high, err, 30)]
    cases += [ObservedCounts(high, low, high, low, 29), ObservedCounts(high, low, high, low, -1),
              ObservedCounts(low, high, low, high, -1)]  # every check fails at once
    reported = set()
    for counts in cases:
        problems = counts.validate()
        assert problems == frozen.validate(counts)
        reported.update(problems)
    assert len(reported) == 2 * 3 + 2


@pytest.mark.parametrize("values", [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (-2, -3, 4), (-5, -5, -5)])
def test_count_triple_rejects_negative_field_with_parent_message(values):
    m_s, m_w, m_v = values
    with pytest.raises(ValueError) as raised:
        CountTriple(*values)
    assert str(raised.value) == (
        f"counts must be nonnegative, got CountTriple(m_s={m_s}, m_w={m_w}, m_v={m_v})")
