import math
import time
import tracemalloc
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_suites import check_admissible

from corrbb84 import correlations as corr
from corrbb84 import oracles
from corrbb84.model import ConfigError, IntensitySet, validate_intensity_set
from corrbb84.validation import reference_intensities

# frozen from independent high-precision evaluation
MAG_L3 = 0.036787944117144232
TAIL_0 = 0.25414940825367983
TAIL_10 = 0.0017124452426622292
TRACE_BOUND_LC66 = 8.3725201652883130e-11
COIN_LC1_SINGLE = 0.0012474000807292096

MODEL = corr.CorrelationModel(delta_1=0.1, decay_C=0.5)
SINGLE = IntensitySet(s=0.5, w=0.1, v=0.0, p_s=1.0, p_w=0.0, p_v=0.0)


def test_magnitude_at_lag_one():
    assert oracles.correlation_magnitude(1, MODEL) == 0.1


def test_magnitude_known_value():
    assert math.isclose(oracles.correlation_magnitude(3, MODEL), MAG_L3, rel_tol=1e-12)


def test_magnitude_zero_model():
    model = corr.CorrelationModel(delta_1=0.0, decay_C=0.5)
    assert oracles.correlation_magnitude(7, model) == 0.0


def test_magnitude_rejects_lag_zero():
    with pytest.raises(ValueError):
        oracles.correlation_magnitude(0, MODEL)


def test_tail_sum_values():
    assert math.isclose(corr.tail_sum(0, MODEL), TAIL_0, rel_tol=1e-12)
    assert math.isclose(corr.tail_sum(10, MODEL), TAIL_10, rel_tol=1e-12)


@pytest.mark.parametrize("l_c", [0, 1, 5, 20])
def test_tail_sum_matches_partial_summation(l_c):
    terms = sum(
        oracles.correlation_magnitude(l, MODEL) for l in range(l_c + 1, 10 * l_c + 201)
    )
    assert abs(corr.tail_sum(l_c, MODEL) - terms) < 1e-10


def test_tail_sum_monotone_to_zero():
    values = [corr.tail_sum(l_c, MODEL) for l_c in range(0, 60, 5)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-12


@pytest.mark.parametrize("model, field", [
    (corr.CorrelationModel(delta_1=-0.1, decay_C=1.0), "delta_1"),
    (corr.CorrelationModel(delta_1=3.5, decay_C=1.0, l_c_eff=2), "delta_1"),
    (corr.CorrelationModel(delta_1=0.1, decay_C=0.0, l_c_eff=2), "decay_C"),
    (corr.CorrelationModel(delta_1=0.1, decay_C=math.inf, l_c_eff=2), "decay_C"),
    (corr.CorrelationModel(delta_1=0.1, decay_C=1.0, truncation_d=1.0, l_c_eff=2),
     "truncation_d"),
    (corr.CorrelationModel(delta_1=0.0, decay_C=1.0, l_c_eff=-1), "l_c_eff"),
    (corr.CorrelationModel(delta_1=0.1, decay_C=1.0), "explicit positive l_c_eff"),
], ids=["delta_1_negative", "delta_1_above_pi", "decay_C_zero", "decay_C_infinite",
        "d_one", "l_c_eff_negative", "d_zero_without_length"])
def test_validate_correlation_reports_each_violation(model, field):
    problems = corr.validate_correlation(model)
    assert len(problems) == 1 and field in problems[0]
    with pytest.raises(ConfigError, match=field):
        corr.effective_length(10**9, 0.4, model)


def test_effective_length_rules():
    truncated = corr.CorrelationModel(delta_1=0.1, decay_C=0.5, truncation_d=1e-10)
    needed = corr.required_truncation_length(10**10, 0.5, truncated)
    assert corr.validate_correlation(truncated) == []
    assert corr.effective_length(10**10, 0.5, None) == 0
    assert corr.effective_length(10**10, 0.5, truncated) == needed
    longer = replace(truncated, l_c_eff=needed + 5)
    assert corr.effective_length(10**10, 0.5, longer) == needed + 5
    with pytest.raises(ConfigError, match="below the required truncation length"):
        corr.effective_length(10**10, 0.5, replace(truncated, l_c_eff=needed - 1))
    bounded = replace(truncated, truncation_d=0.0, l_c_eff=3)
    assert corr.effective_length(10**10, 0.5, bounded) == 3
    uncorrelated = corr.CorrelationModel(delta_1=0.0, decay_C=1.0, truncation_d=1e-10)
    assert corr.effective_length(10**10, 0.5, uncorrelated) == 0


def test_effective_length_caps_the_coin_bound_lags(intensity_set):
    """A length beyond MAX_COIN_LAGS is refused exactly when 1 - cos Delta_l is
    still nonzero at that lag (Delta_l above about 2^-26.5), where the coin
    bound would still be computing factors; flat by then, any length runs."""
    cap = corr.MAX_COIN_LAGS
    derived = corr.CorrelationModel(delta_1=0.05, decay_C=1e-7, truncation_d=1e-12)
    with pytest.raises(ConfigError, match=f"more than {cap} lags"):
        corr.effective_length(10**9, 0.4, derived)
    edge = math.log(0.05 * 2.0**26.5) / cap  # Delta_cap = 2^-26.5 at decay_C = edge
    sloped = corr.CorrelationModel(delta_1=0.05, decay_C=0.99 * edge, l_c_eff=cap)
    assert corr.effective_length(10**9, 0.4, sloped) == cap
    with pytest.raises(ConfigError, match=f"more than {cap} lags"):
        corr.effective_length(10**9, 0.4, replace(sloped, l_c_eff=cap + 1))
    flat = replace(sloped, decay_C=1.01 * edge, l_c_eff=10**9)
    assert corr.effective_length(10**9, 0.4, flat) == 10**9
    start = time.perf_counter()
    corr.coin_parameter_bound(10**9, intensity_set, flat)
    assert time.perf_counter() - start < 1.0
    # the smallest decay_C the tests draw, at the largest delta_1, is not refused
    widest = corr.CorrelationModel(delta_1=math.pi, decay_C=1e-3, l_c_eff=10**9)
    assert corr.effective_length(10**9, 0.4, widest) == 10**9


def test_required_truncation_length_known_case():
    model = corr.CorrelationModel(delta_1=0.1, decay_C=0.5, truncation_d=1e-10)
    assert corr.required_truncation_length(10**10, 0.5, model) == 66


def test_required_truncation_length_log_dependence():
    model = corr.CorrelationModel(delta_1=0.1, decay_C=0.5, truncation_d=1e-10)
    base = corr.required_truncation_length(10**10, 0.5, model)
    doubled_d = corr.CorrelationModel(delta_1=0.1, decay_C=0.5, truncation_d=2e-10)
    step = math.ceil(math.log(2) / 0.5)
    assert base - step <= corr.required_truncation_length(10**10, 0.5, doubled_d) <= base
    assert base <= corr.required_truncation_length(4 * 10**10, 0.5, model) <= base + step


def test_required_truncation_length_rejects_zero_d():
    with pytest.raises(ValueError):
        corr.required_truncation_length(10**6, 0.5, MODEL)


def test_required_truncation_length_rejects_an_underflowing_log_argument():
    # sqrt(N mu_bar) delta_1 rounds to 0: a config error, not a math domain error
    model = corr.CorrelationModel(delta_1=5e-324, decay_C=1.0, truncation_d=1e-12)
    with pytest.raises(ConfigError, match="underflows to 0"):
        corr.required_truncation_length(10**9, 1.55e-160, model)


def test_trace_distance_bound_zero_correlations():
    model = corr.CorrelationModel(delta_1=0.0, decay_C=0.5)
    assert corr.trace_distance_bound(10**9, 0.5, 0, model) == 0.0


def test_trace_distance_bound_consistent_with_truncation_length():
    value = corr.trace_distance_bound(10**10, 0.5, 66, MODEL)
    assert math.isclose(value, TRACE_BOUND_LC66, rel_tol=1e-12)
    assert value <= 1e-10


def test_coin_bound_trivial_cases(intensity_set):
    assert corr.coin_parameter_bound(0, intensity_set, MODEL) == 0.0
    no_corr = corr.CorrelationModel(delta_1=0.0, decay_C=0.5)
    assert corr.coin_parameter_bound(5, intensity_set, no_corr) == 0.0


def test_coin_bound_known_value():
    assert math.isclose(
        corr.coin_parameter_bound(1, SINGLE, MODEL), COIN_LC1_SINGLE, rel_tol=1e-12
    )


def test_coin_bound_monotone_and_bounded(intensity_set):
    model = corr.CorrelationModel(delta_1=0.4, decay_C=0.3)
    values = [corr.coin_parameter_bound(l_c, intensity_set, model) for l_c in range(60)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] < 0.5
    # converged: the tail factors are essentially 1
    assert values[-1] - values[-10] < 1e-9
    stronger = corr.CorrelationModel(delta_1=0.5, decay_C=0.3)
    assert corr.coin_parameter_bound(5, intensity_set, stronger) >= values[5]


def test_exact_coin_ideal_source_is_zero(intensity_set):
    deltas = oracles.ExplicitDeltas(np.full((2, 2, 2), 0.123))
    assert abs(oracles.exact_coin_parameter(2, deltas, intensity_set)) < 1e-15


def test_exact_coin_shift_invariance(intensity_set):
    rng = np.random.default_rng(3)
    deltas = oracles.random_admissible_deltas(MODEL, 2, rng, 1)[0]
    shifted = deltas.table.copy()
    shifted[1] += 0.7  # constant shift at one lag leaves differences alone
    value = oracles.exact_coin_parameter(2, deltas, intensity_set)
    value_shifted = oracles.exact_coin_parameter(2, oracles.ExplicitDeltas(shifted), intensity_set)
    assert math.isclose(value, value_shifted, rel_tol=1e-12)


def test_exact_coin_rejects_large_lc(intensity_set):
    deltas = oracles.ExplicitDeltas(np.zeros((4, 2, 2)))
    with pytest.raises(ValueError):
        oracles.exact_coin_parameter(4, deltas, intensity_set)


@pytest.mark.parametrize("l_c", [1, 2, 3])
def test_exact_coin_dominated_by_bound(l_c, intensity_set):
    model = corr.CorrelationModel(delta_1=0.3, decay_C=0.7)
    rng = np.random.default_rng(17)
    bound = corr.coin_parameter_bound(l_c, intensity_set, model)
    for deltas in oracles.random_admissible_deltas(model, l_c, rng, 25):
        assert oracles.exact_coin_parameter(l_c, deltas, intensity_set) <= bound + 1e-12


@pytest.mark.parametrize("l_c", [1, 2, 3])
def test_extreme_table_attains_bound(l_c, intensity_set):
    model = corr.CorrelationModel(delta_1=0.3, decay_C=0.7)
    bound = corr.coin_parameter_bound(l_c, intensity_set, model)
    exact = oracles.exact_coin_parameter(l_c, oracles.extreme_deltas(model, l_c), intensity_set)
    assert math.isclose(exact, bound, rel_tol=1e-12)


def test_bulk_rounds_dominate_edges(intensity_set):
    """Dropping trailing overlap factors (an edge round's shorter future)
    never increases the coin parameter."""
    model = corr.CorrelationModel(delta_1=0.3, decay_C=0.7)
    rng = np.random.default_rng(23)
    for deltas in oracles.random_admissible_deltas(model, 3, rng, 20):
        full = oracles.exact_coin_parameter(3, deltas, intensity_set)
        for shorter in (0, 1, 2):
            edge = oracles.exact_coin_parameter(
                shorter, oracles.ExplicitDeltas(deltas.table[:shorter]), intensity_set
            )
            assert edge <= full + 1e-15


def test_fidelity_reference_tail_is_one(intensity_set):
    table = np.zeros((5, 2, 2))
    table[0] = [[0.3, -0.2], [0.1, 0.05]]  # lag 1 may differ; it is not truncated
    deltas = oracles.ExplicitDeltas(table)
    assert corr.exact_global_fidelity(6, 1, [deltas], intensity_set) == [1.0]


def test_fidelity_single_round_is_one(intensity_set):
    deltas = oracles.ExplicitDeltas(np.zeros((1, 2, 2)))
    assert corr.exact_global_fidelity(1, 0, [deltas], intensity_set) == [1.0]


def test_fidelity_call_memory_stays_within_one_table_peak(intensity_set):
    """One call on 100 tables at N=8 and l_c=0 evaluates them in chunks, so
    its traced peak stays within 921 KiB: the 942,392 bytes one such table
    took when the oracle evaluated a single table per call."""
    tables = oracles.random_admissible_deltas(MODEL, 7, np.random.default_rng(37), 100)
    corr.exact_global_fidelity(8, 0, tables[:1], intensity_set)  # numpy loaded and warm
    tracemalloc.start()
    try:
        corr.exact_global_fidelity(8, 0, tables, intensity_set)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 921 * 1024


def test_fidelity_rejects_large_N(intensity_set):
    deltas = oracles.ExplicitDeltas(np.zeros((10, 2, 2)))
    with pytest.raises(ValueError):
        corr.exact_global_fidelity(9, 1, [deltas], intensity_set)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_explicit_deltas_reject_non_finite_entries(bad):
    # a NaN spread compares False against the lag bound, so without this
    # check_admissible would pass the table and the oracles would return NaN
    for table in (np.full((3, 2, 2), bad), np.zeros((3, 2, 2))):
        table[1, 0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            oracles.ExplicitDeltas(table)


def _fidelity_all_histories(N, l_c, deltas, intensity_set):
    """Reference oracle: the per-round overlap product on every one of the
    4^N histories, trailing rounds included, then the mean; the truncated
    source holds setting 0 (bit 0, basis Z) at every lag beyond l_c."""
    codes = np.arange(4**N)
    digits = np.array([(codes // 4**k) % 4 for k in range(N)])
    flat = deltas.flat()
    total = np.ones(4**N)
    for k in range(l_c + 2, N + 1):
        dtheta = np.zeros(4**N)
        for lag in range(l_c + 1, k):
            dtheta += flat[lag - 1][digits[k - lag - 1]] - flat[lag - 1][0]
        one_minus_cos = 1.0 - np.cos(dtheta)
        total *= sum(p * np.exp(-mu * one_minus_cos) for mu, p in intensity_set.pairs())
    return float(total.mean())


@pytest.mark.parametrize("N", range(1, corr.MAX_ORACLE_ROUNDS + 1))
def test_fidelity_matches_all_history_enumeration(N, intensity_set):
    model = corr.CorrelationModel(delta_1=0.4, decay_C=0.5)
    rng = np.random.default_rng(100 + N)
    lags = max(1, N - 1)
    for l_c in range(N + 1):
        wide = oracles.ExplicitDeltas(rng.uniform(-math.pi, math.pi, size=(lags, 2, 2)))
        for deltas in (oracles.random_admissible_deltas(model, lags, rng, 1)[0], wide):
            fast = corr.exact_global_fidelity(N, l_c, [deltas], intensity_set)[0]
            full = _fidelity_all_histories(N, l_c, deltas, intensity_set)
            assert math.isclose(fast, full, rel_tol=1e-12), l_c


_TABLE_ENTRIES = st.floats(-math.pi, math.pi, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    N=st.integers(1, 5),
    l_c=st.integers(0, 5),
    table=st.lists(_TABLE_ENTRIES, min_size=16, max_size=16),
    redraw=st.lists(_TABLE_ENTRIES, min_size=16, max_size=16),
)
def test_fidelity_ignores_untruncated_lags(N, l_c, table, redraw):
    intensity_set = reference_intensities()
    deltas = oracles.ExplicitDeltas(np.reshape(table, (4, 2, 2)))
    fidelity = corr.exact_global_fidelity(N, l_c, [deltas], intensity_set)[0]
    assert 0.0 <= fidelity <= 1.0
    # rows at lags <= l_c are kept by the truncated source too, so they never enter F
    redrawn = np.array(deltas.table)
    redrawn[:l_c] = np.reshape(redraw, (4, 2, 2))[:l_c]
    redrawn = oracles.ExplicitDeltas(redrawn)
    assert corr.exact_global_fidelity(N, l_c, [redrawn], intensity_set) == [fidelity]


@pytest.mark.parametrize("N", [2, 4, 6])
def test_trace_distance_dominates_exact(N, intensity_set):
    model = corr.CorrelationModel(delta_1=0.2, decay_C=0.8)
    mu_bar = sum(mu * p for mu, p in intensity_set.pairs())
    rng = np.random.default_rng(29)
    for l_c in (0, 1):
        bound = corr.trace_distance_bound(N, mu_bar, l_c, model)
        tables = oracles.random_admissible_deltas(model, max(1, N - 1), rng, 20)
        for fidelity in corr.exact_global_fidelity(N, l_c, tables, intensity_set):
            exact = math.sqrt(max(0.0, 1.0 - fidelity**2))
            assert exact <= bound + 1e-12


def test_random_tables_are_admissible():
    rng = np.random.default_rng(31)
    for deltas in oracles.random_admissible_deltas(MODEL, 6, rng, 20):
        assert check_admissible(deltas, MODEL) == []
    assert check_admissible(oracles.extreme_deltas(MODEL, 6), MODEL) == []


def test_admissibility_flags_violations():
    table = np.zeros((2, 2, 2))
    table[1, 0, 0] = 1.0  # lag-2 spread far beyond Delta_2
    report = check_admissible(oracles.ExplicitDeltas(table), MODEL)
    assert len(report) == 1 and "lag 2" in report[0]


def test_reference_intensities_helper_matches_fixture(intensity_set):
    assert reference_intensities() == intensity_set


# --- coin bound: flat-lag shortcut equals the per-lag product ------------------


def _per_lag_coin_bound(l_c, intensity_set, model, clamp=True):
    """coin_parameter_bound with every lag through the intensity sum, each
    factor clamped at 1 (unless ``clamp`` is off): the reference that the
    flat-lag shortcut must equal bit for bit."""
    product = 1.0
    for l in range(1, l_c + 1):
        delta_l = oracles.correlation_magnitude(l, model)
        factor = sum(
            p * math.exp(-mu * (1.0 - math.cos(delta_l))) for mu, p in intensity_set.pairs()
        )
        product *= min(1.0, factor) if clamp else factor
    return 0.5 * (1.0 - product)


def _probability_sum(intensity_set):
    return sum(p for _, p in intensity_set.pairs())


def _sums_to_at_most_one(intensity_set):
    return _probability_sum(intensity_set) <= 1.0


def _exact_coin_bound(l_c, intensity_set, model):
    """The per-lag factors as coin_parameter_bound evaluates them in floats,
    multiplied exactly at 50 digits: the reference for the flat tail, whose
    closed form is not bit-identical to the per-lag float product."""
    flat = min(1.0, _probability_sum(intensity_set))
    with mp.workdps(50):
        product = mp.mpf(1)
        for l in range(1, l_c + 1):
            one_minus_cos = 1.0 - math.cos(oracles.correlation_magnitude(l, model))
            if one_minus_cos == 0.0:
                product *= mp.mpf(flat) ** (l_c - l + 1)
                break
            product *= min(1.0, sum(p * math.exp(-mu * one_minus_cos)
                                    for mu, p in intensity_set.pairs()))
        return (1 - product) / 2


COIN_SETS = (
    reference_intensities(),
    SINGLE,
    IntensitySet(s=0.6, w=0.2, v=0.01, p_s=0.5, p_w=0.3, p_v=0.2),
)


@pytest.mark.parametrize("delta_1", [1e-9, 1e-3, 0.05, 0.2, 1.0, math.pi])
@pytest.mark.parametrize("decay_C", [0.05, 0.3, 1.0, 5.0])
def test_coin_bound_equals_per_lag_product_on_grid(delta_1, decay_C):
    model = corr.CorrelationModel(delta_1=delta_1, decay_C=decay_C)
    for intensity_set in COIN_SETS:
        for l_c in (0, 1, 2, 10, 35, 100, 190, 300):
            bound = corr.coin_parameter_bound(l_c, intensity_set, model)
            assert bound == _per_lag_coin_bound(l_c, intensity_set, model)
            assert bound == _per_lag_coin_bound(l_c, intensity_set, model, clamp=False)
    # the flat-lag break relies on every lag after a flat one being flat too
    flat = [1.0 - math.cos(oracles.correlation_magnitude(l, model)) == 0.0 for l in range(1, 301)]
    assert flat == sorted(flat)


@st.composite
def _coin_intensity_sets(draw):
    s = draw(st.floats(0.05, 1.0))
    w = draw(st.floats(0.0, 1.0)) * s
    v = draw(st.sampled_from([0.0, draw(st.floats(0.0, 1.0)) * w]))
    p_s = draw(st.floats(0.05, 0.9))
    p_w = draw(st.floats(0.0, 1.0)) * (1.0 - p_s)
    return IntensitySet(s=s, w=w, v=v, p_s=p_s, p_w=p_w, p_v=1.0 - p_s - p_w)


@settings(max_examples=150, deadline=None)
@given(
    intensity_set=_coin_intensity_sets(),
    delta_1=st.floats(0.0, math.pi),
    decay_C=st.floats(0.05, 5.0),
    l_c=st.integers(0, 300),
)
def test_coin_bound_equals_per_lag_product_on_drawn_inputs(intensity_set, delta_1, decay_C, l_c):
    model = corr.CorrelationModel(delta_1=delta_1, decay_C=decay_C)
    bound = corr.coin_parameter_bound(l_c, intensity_set, model)
    if _probability_sum(intensity_set) < 1.0:
        # the flat tail is one rounded power, within an ulp of 1 per lag of
        # the per-lag product; the mpmath test below checks it is conservative
        assert abs(bound - _per_lag_coin_bound(l_c, intensity_set, model)) <= l_c * 2.0**-52
        return
    assert bound == _per_lag_coin_bound(l_c, intensity_set, model)
    if _sums_to_at_most_one(intensity_set):
        # the clamp changes nothing unless the probabilities sum above 1
        assert bound == _per_lag_coin_bound(l_c, intensity_set, model, clamp=False)


@settings(max_examples=150, deadline=None)
@given(
    intensity_set=_coin_intensity_sets(),
    delta_1=st.floats(0.0, math.pi),
    stronger=st.floats(0.0, 1.0),
    decay_C=st.floats(0.05, 5.0),
    l_c=st.integers(0, 300),
    longer=st.integers(1, 50),
)
def test_coin_bound_nondecreasing_in_length_and_delta(
    intensity_set, delta_1, stronger, decay_C, l_c, longer
):
    model = corr.CorrelationModel(delta_1=delta_1, decay_C=decay_C)
    bound = corr.coin_parameter_bound(l_c, intensity_set, model)
    assert 0.0 <= bound <= 0.5
    assert corr.coin_parameter_bound(l_c + longer, intensity_set, model) >= bound
    wider = replace(model, delta_1=min(math.pi, delta_1 + stronger * (math.pi - delta_1)))
    assert corr.coin_parameter_bound(l_c, intensity_set, wider) >= bound


UNDER_ONE = IntensitySet(s=0.6, w=0.2, v=0.01, p_s=0.7, p_w=0.15, p_v=0.15 - 5e-13)


def test_coin_bound_clamps_a_probability_sum_above_one():
    """Probabilities summing above 1 within PROB_SUM_TOL: every factor is
    clamped at 1, so the bound cannot fall with l_c or turn negative."""
    over = IntensitySet(s=0.6, w=0.2, v=0.01, p_s=0.7, p_w=0.15, p_v=0.15 + 5e-13)
    assert not _sums_to_at_most_one(over)
    assert validate_intensity_set(over) == []
    model = corr.CorrelationModel(delta_1=0.05, decay_C=1.0)
    bounds = [corr.coin_parameter_bound(l_c, over, model) for l_c in (0, 10, 200, 10**6)]
    assert bounds == sorted(bounds) and bounds[0] == 0.0
    assert bounds[2] == bounds[3] == _per_lag_coin_bound(200, over, model)
    # below 1 the flat factor is not 1, so every flat lag still counts
    assert corr.coin_parameter_bound(1000, UNDER_ONE, model) > bounds[2]


@pytest.mark.parametrize("delta_1", [0.0, 0.05], ids=["every_lag_flat", "flat_from_lag_17"])
@pytest.mark.parametrize("l_c", [10, 10**3, 10**5, 10**6])
def test_coin_bound_flat_tail_below_one_is_conservative(delta_1, l_c):
    """Probabilities summing just below 1: the flat tail, taken as one power
    rounded down, is never below the exact product's coin parameter and at
    most one ulp of 1 above it. That is within 1e-12 relative at delta_1
    0.05, and the resolution of 1 - product at delta_1 0 (coin 2.5e-12 at
    l_c 10)."""
    assert _probability_sum(UNDER_ONE) < 1.0 and validate_intensity_set(UNDER_ONE) == []
    model = corr.CorrelationModel(delta_1=delta_1, decay_C=1.0)
    bound = corr.coin_parameter_bound(l_c, UNDER_ONE, model)
    exact = _exact_coin_bound(l_c, UNDER_ONE, model)
    assert exact <= bound <= exact + 2.0**-52
    if delta_1:
        assert bound - exact <= 1e-12 * exact


def test_coin_bound_below_one_at_huge_length_is_fast():
    model = corr.CorrelationModel(delta_1=0.05, decay_C=1.0)
    start = time.perf_counter()
    bound = corr.coin_parameter_bound(10**9, UNDER_ONE, model)
    assert time.perf_counter() - start < 0.01
    assert bound >= _exact_coin_bound(10**9, UNDER_ONE, model)


def test_cos_is_exactly_one_below_the_flat_threshold():
    """The flat-lag break relies on 1 - cos(Delta_l) rounding to 0.0 for
    every Delta_l this small."""
    assert math.cos(2.0**-27) == 1.0
    assert math.cos(1e-9) == 1.0


def test_coin_bound_at_huge_length_stops_at_the_first_flat_lag(intensity_set):
    """l_c 10**7 and 10**9 give the l_c 200 value, each well within 50 ms."""
    reference = corr.coin_parameter_bound(200, intensity_set, MODEL)
    for l_c in (10**7, 10**9):
        start = time.perf_counter()
        assert corr.coin_parameter_bound(l_c, intensity_set, MODEL) == reference
        assert time.perf_counter() - start < 0.05
