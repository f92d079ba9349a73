import ast
import dataclasses
import math
import pickle
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_suites import poisson_pmf

from corrbb84 import model
from corrbb84.correlations import CorrelationModel
from corrbb84.counts import CountTriple
from corrbb84.decoy import apply_decoy_bounds
from corrbb84.keyrate import evaluate_pipeline
from corrbb84.model import (
    MAX_BLOCK_SIZE,
    MAX_INTENSITY,
    ConfigError,
    EpsilonBudget,
    IntensitySet,
    ProtocolConfig,
    decoy_weights,
    lower_denominator,
    mean_intensity,
    single_photon_prob,
    validate_config,
    validate_intensity_set,
)
from corrbb84.phase_error import phase_error_rate_bound, total_pe_failure
from corrbb84.simulator import expected_counts
from corrbb84.validation import reference_budget

# frozen from independent high-precision evaluation (mpmath, 40 digits)
POISSON_1_05 = 0.30326532985631671
POISSON_2_01 = 0.0045241870901797979
P1_UNIFORM_THIRDS = 0.13124969055330422


def test_poisson_vacuum_emits_vacuum():
    assert poisson_pmf(0, 0.0) == 1.0
    assert poisson_pmf(3, 0.0) == 0.0


@pytest.mark.parametrize(
    "m,mu,expected",
    [(1, 0.5, POISSON_1_05), (2, 0.1, POISSON_2_01)],
)
def test_poisson_known_values(m, mu, expected):
    assert math.isclose(poisson_pmf(m, mu), expected, rel_tol=1e-12)


def test_poisson_rejects_negative_mu():
    with pytest.raises(ValueError):
        poisson_pmf(1, -0.1)
    with pytest.raises(ValueError):
        poisson_pmf(-1, 0.5)


@pytest.mark.parametrize("mu", [0.1, 0.5, 1.0, 2.0, 5.0])
def test_poisson_normalization(mu):
    total = sum(poisson_pmf(m, mu) for m in range(201))
    assert abs(total - 1.0) < 1e-12


def test_single_photon_prob_degenerate_zero():
    iset = IntensitySet(s=0.0, w=0.0, v=0.0, p_s=0.4, p_w=0.3, p_v=0.3)
    assert single_photon_prob(iset) == 0.0


def test_single_photon_prob_single_intensity():
    iset = IntensitySet(s=0.5, w=0.1, v=0.0, p_s=1.0, p_w=0.0, p_v=0.0)
    assert math.isclose(single_photon_prob(iset), POISSON_1_05, rel_tol=1e-12)


def test_single_photon_prob_uniform_thirds():
    third = 1.0 / 3.0
    iset = IntensitySet(s=0.5, w=0.1, v=0.0, p_s=third, p_w=third, p_v=third)
    assert math.isclose(single_photon_prob(iset), P1_UNIFORM_THIRDS, rel_tol=1e-12)


def test_single_photon_prob_cross_checks_pmf(intensity_set):
    via_pmf = sum(p * poisson_pmf(1, mu) for mu, p in intensity_set.pairs())
    assert math.isclose(single_photon_prob(intensity_set), via_pmf, rel_tol=1e-14)


def test_mean_intensity_values():
    iset = IntensitySet(s=0.5, w=0.1, v=0.0, p_s=1.0, p_w=0.0, p_v=0.0)
    assert mean_intensity(iset) == 0.5
    third = 1.0 / 3.0
    iset = IntensitySet(s=0.5, w=0.1, v=0.0, p_s=third, p_w=third, p_v=third)
    assert math.isclose(mean_intensity(iset), 0.2, rel_tol=1e-12)
    iset = IntensitySet(s=0.5, w=0.1, v=0.0, p_s=0.8, p_w=0.1, p_v=0.1)
    assert math.isclose(mean_intensity(iset), 0.41, rel_tol=1e-12)


def test_mean_intensity_linear_in_probabilities():
    a = IntensitySet(s=0.5, w=0.1, v=0.0, p_s=0.8, p_w=0.1, p_v=0.1)
    b = IntensitySet(s=0.5, w=0.1, v=0.0, p_s=0.2, p_w=0.5, p_v=0.3)
    t = 0.3
    mixed = IntensitySet(
        s=0.5,
        w=0.1,
        v=0.0,
        p_s=t * a.p_s + (1 - t) * b.p_s,
        p_w=t * a.p_w + (1 - t) * b.p_w,
        p_v=t * a.p_v + (1 - t) * b.p_v,
    )
    expected = t * mean_intensity(a) + (1 - t) * mean_intensity(b)
    assert math.isclose(mean_intensity(mixed), expected, rel_tol=1e-12)


def _config(**overrides):
    base = dict(
        N=10**6,
        intensity_set=IntensitySet(s=0.5, w=0.1, v=0.0, p_s=0.7, p_w=0.15, p_v=0.15),
        p_keep=0.8,
        epsilon_budget=reference_budget(),
    )
    base.update(overrides)
    return ProtocolConfig(**base)


def test_validate_config_accepts_valid():
    assert validate_config(_config()) == []


def test_validate_config_names_p_keep_bound():
    report = validate_config(_config(p_keep=1.0))
    assert any("p_keep" in line for line in report)


def test_validate_config_names_intensity_ordering():
    bad = IntensitySet(s=0.1, w=0.1, v=0.0, p_s=0.7, p_w=0.15, p_v=0.15)
    report = validate_config(_config(intensity_set=bad))
    assert any("ordering" in line for line in report)


def test_validate_config_rejects_probability_sum():
    bad = IntensitySet(s=0.5, w=0.1, v=0.0, p_s=0.7, p_w=0.2, p_v=0.2)
    report = validate_config(_config(intensity_set=bad))
    assert any("sum to 1" in line for line in report)


def test_validate_config_rejects_bad_epsilons():
    bad = EpsilonBudget(eps_A=0.0, eps_B=1e-10, eps_C=1e-10, eps_PA=1e-10, eps_EV=1e-10)
    report = validate_config(_config(epsilon_budget=bad))
    assert any("eps_A" in line for line in report)


@pytest.mark.parametrize("s", [800.0, 1e300, math.inf, math.nextafter(MAX_INTENSITY, 1e3)])
def test_validate_config_rejects_intensity_beyond_exp_range(s):
    bad = IntensitySet(s=s, w=0.1, v=0.0, p_s=0.7, p_w=0.15, p_v=0.15)
    report = validate_config(_config(intensity_set=bad))
    assert any("intensity s must be finite and <= ln(DBL_MAX)" in line for line in report)


@pytest.mark.parametrize("name", ["s", "w", "v"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_validate_config_rejects_any_non_finite_intensity(name, value):
    fields = dict(s=0.5, w=0.1, v=0.0, p_s=0.7, p_w=0.15, p_v=0.15)
    fields[name] = value
    assert validate_intensity_set(IntensitySet(**fields)) != []


def test_largest_accepted_intensity_has_a_finite_exponential():
    assert MAX_INTENSITY == math.log(sys.float_info.max)
    assert math.isfinite(math.exp(MAX_INTENSITY))
    edge = IntensitySet(s=MAX_INTENSITY, w=0.1, v=0.0, p_s=0.7, p_w=0.15, p_v=0.15)
    assert validate_intensity_set(edge) == []


def test_validate_config_rejects_an_epsilon_whose_inverse_overflows():
    for name in ("eps_A", "eps_C"):
        fields = dict(eps_A=1e-10, eps_B=1e-10, eps_C=1e-10, eps_PA=1e-10, eps_EV=1e-10)
        fields[name] = 5e-324
        report = validate_config(_config(epsilon_budget=EpsilonBudget(**fields)))
        assert any(f"with 1/{name} finite, got 5e-324" in line for line in report)
    smallest_normal = sys.float_info.min
    assert validate_config(_config(epsilon_budget=EpsilonBudget(
        smallest_normal, 1e-10, smallest_normal, 1e-10, 1e-10))) == []


def test_block_size_ends_at_the_largest_int64():
    """The model owns N's ceiling for every command: the sampler's int64
    counts, and far below the N near 1e307 where the trash bound overflows."""
    assert MAX_BLOCK_SIZE == 2**63 - 1
    assert _config(N=MAX_BLOCK_SIZE).problems == ()
    assert _config(N=2**63).problems == (
        "N must be at most 9223372036854775807, got 9223372036854775808",)
    assert _config(N=0).problems == ("N must be a positive round count, got 0",)


@pytest.mark.parametrize("s, w, v", [(0.5, 0.3, 0.2), (0.5, 5e-324, 0.0), (1e-300, 5e-301, 0.0)])
def test_validate_intensity_set_rejects_unsolvable_decoy_bounds(s, w, v):
    """s <= w + v, or s (w - v) - w^2 + v^2 underflowing to 0: the decoy
    lower bound has no positive denominator."""
    iset = IntensitySet(s=s, w=w, v=v, p_s=0.7, p_w=0.15, p_v=0.15)
    assert lower_denominator(iset) <= 0.0
    assert any("decoy bounds unsolvable" in line for line in validate_intensity_set(iset))


def test_sums_add_left_to_right():
    """The two small terms are 0.4 and 0.375 ulp of the first, so a
    compensated sum (math.fsum, or sum() from Python 3.12) rounds up where
    adding left to right does not."""
    ulp = 2.0**-55  # of 0.5 / e
    p1_set = IntensitySet(s=1.0, w=1.6 * ulp, v=1.5 * ulp, p_s=0.5, p_w=0.25, p_v=0.25)
    terms = [p * mu * math.exp(-mu) for mu, p in p1_set.pairs()]
    assert single_photon_prob(p1_set) == terms[0] + terms[1] + terms[2] != math.fsum(terms)

    ulp = 2.0**-52  # of 1
    mean_set = IntensitySet(s=2.0, w=1.6 * ulp, v=1.5 * ulp, p_s=0.5, p_w=0.25, p_v=0.25)
    terms = [p * mu for mu, p in mean_set.pairs()]
    assert mean_intensity(mean_set) == terms[0] + terms[1] + terms[2] != math.fsum(terms)

    ulp = 2.0**-53  # of 0.5
    shares = {"a": 0.5, "b": 0.4 * ulp, "c": 0.375 * ulp, "d": 0.0}
    assert total_pe_failure(shares) == 0.5 != math.fsum(shares.values())


# --- the once-per-object memos ----------------------------------------------

_INTENSITIES = st.floats(0.0, 800.0, allow_nan=False)
_PROBABILITIES = st.floats(-0.1, 1.1, allow_nan=False)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(s=st.floats(1e-3, MAX_INTENSITY), w=st.floats(0.0, MAX_INTENSITY),
       v=st.floats(0.0, MAX_INTENSITY), p_s=st.floats(1e-300, 1.0),
       p_w=st.floats(1e-300, 1.0), p_v=st.floats(1e-300, 1.0))
def test_weights_memo_equals_decoy_weights_bit_for_bit(s, w, v, p_s, p_w, p_v):
    iset = IntensitySet(s=s, w=w, v=v, p_s=p_s, p_w=p_w, p_v=p_v)
    expected = [x.hex() for x in decoy_weights(iset)]
    assert [x.hex() for x in iset.weights] == expected
    assert iset.weights is iset.weights  # derived once
    assert iset.weights[0].hex() == single_photon_prob(iset).hex()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(s=_INTENSITIES, w=_INTENSITIES, v=_INTENSITIES, p_s=_PROBABILITIES,
       p_w=_PROBABILITIES, p_v=_PROBABILITIES, p_keep=st.floats(-0.5, 1.5),
       N=st.integers(-2, 10**12), eps_A=st.floats(0.0, 1.5))
def test_problems_memo_equals_validate_config(s, w, v, p_s, p_w, p_v, p_keep, N, eps_A):
    config = ProtocolConfig(
        N=N, intensity_set=IntensitySet(s=s, w=w, v=v, p_s=p_s, p_w=p_w, p_v=p_v),
        p_keep=p_keep, epsilon_budget=dataclasses.replace(reference_budget(), eps_A=eps_A),
    )
    expected = tuple(validate_config(config))
    assert config.problems == expected
    assert config.problems is config.problems  # validated once


def test_invalid_config_raises_on_every_evaluation(config_1e9, channel_10km):
    observed, _ = expected_counts(config_1e9, channel_10km)
    bad = dataclasses.replace(config_1e9, p_keep=1.0)
    for _ in range(3):
        with pytest.raises(ConfigError, match="p_keep must lie strictly in"):
            evaluate_pipeline(observed, bad)


def test_replace_gives_a_fresh_memo(config_1e9):
    assert config_1e9.problems == ()
    bad = dataclasses.replace(config_1e9, p_keep=1.0)
    assert bad.problems == tuple(validate_config(bad)) != ()
    assert config_1e9.problems == ()
    iset = config_1e9.intensity_set
    moved = dataclasses.replace(iset, s=0.6)
    assert iset.weights == decoy_weights(iset)
    assert moved.weights == decoy_weights(moved) != iset.weights


def test_one_config_validates_once_across_certifications(monkeypatch, channel_10km):
    calls = {"validate_config": 0, "decoy_weights": 0}

    def counted(name):
        original = getattr(model, name)

        def call(*args):
            calls[name] += 1
            return original(*args)
        return call

    for name in calls:
        monkeypatch.setattr(model, name, counted(name))
    config = _config(N=10**9)
    correlated = dataclasses.replace(
        config, epsilon_budget=dataclasses.replace(config.epsilon_budget, d=1e-12))
    # each config is validated when it is built; the correlated one shares the
    # intensity set, whose weights its validation derived
    assert calls == {"validate_config": 2, "decoy_weights": 1}
    observed, _ = expected_counts(config, channel_10km)
    first = evaluate_pipeline(observed, config)
    for _ in range(49):
        assert evaluate_pipeline(observed, config) == first
    evaluate_pipeline(observed, correlated, CorrelationModel(0.05, 1.0, 1e-12))
    assert config.problems == correlated.problems == ()
    assert calls == {"validate_config": 2, "decoy_weights": 1}  # no read validates


def test_certification_stores_nothing_on_per_record_inputs(config_1e9, channel_10km):
    """Only the config and its intensity set carry memos; the correlation
    model holds its fields and nothing else, and the counts and the result
    are slotted, with no instance dictionary to store anything in."""
    observed, truth = expected_counts(config_1e9, channel_10km)
    correlation = CorrelationModel(0.05, 1.0, 1e-12)
    budget = dataclasses.replace(config_1e9.epsilon_budget, d=1e-12)
    config = dataclasses.replace(config_1e9, epsilon_budget=budget)
    result = evaluate_pipeline(observed, config, correlation)
    for record in (observed, observed.z_det, observed.x_err, truth, truth.z_det[1], result):
        assert not hasattr(record, "__dict__")
        assert type(record).__slots__ == tuple(f.name for f in dataclasses.fields(record))
    for record in (correlation, budget):
        assert set(vars(record)) == {f.name for f in dataclasses.fields(record)}
    assert set(vars(config)) - {f.name for f in dataclasses.fields(config)} == {"problems"}


def _from_asdict(value):
    """Undo ``dataclasses.asdict`` on the counts records: a dict with the
    three intensity keys is a triple, a tuple holds one triple per bucket."""
    if isinstance(value, dict) and value.keys() == {"m_s", "m_w", "m_v"}:
        return CountTriple(**value)
    if isinstance(value, tuple):
        return tuple(_from_asdict(item) for item in value)
    return value


def test_slotted_records_round_trip(config_1e9, channel_10km):
    """Pickle, ``replace`` and ``asdict`` give back an equal record with the
    same hash and ``repr`` (audit included), and ``replace`` still checks a
    triple's counts."""
    observed, truth = expected_counts(config_1e9, channel_10km)
    decoy = apply_decoy_bounds(observed, config_1e9)
    phase = phase_error_rate_bound(decoy, 0.0, observed.n_sifted_det, config_1e9.p_keep,
                                   config_1e9.epsilon_budget.eps_A)
    result = evaluate_pipeline(observed, config_1e9)
    changes = ((observed.z_det, {"m_v": 1}), (observed, {"n_sifted_det": 0}),
               (truth, {"trash_minus_single": 1}), (decoy, {"x_det_lower": -1.0}),
               (phase, {"e_ph_upper": 1.0}), (result, {"key_length": -1}))
    for record, change in changes:
        # a memo field (init=False) is no constructor argument
        init = {f.name for f in dataclasses.fields(record) if f.init}
        rebuilt = type(record)(**{name: _from_asdict(value)
                                  for name, value in dataclasses.asdict(record).items()
                                  if name in init})
        for copy in (pickle.loads(pickle.dumps(record)), dataclasses.replace(record), rebuilt):
            assert type(copy) is type(record)
            assert copy == record and hash(copy) == hash(record) and repr(copy) == repr(record)
        assert dataclasses.replace(record, **change) != record
    with pytest.raises(ValueError, match="counts must be nonnegative"):
        dataclasses.replace(observed.z_det, m_w=-1)


def test_pickle_round_trip_keeps_equality_and_hash(config_1e9):
    fresh = _config()
    assert config_1e9.problems == () and config_1e9.intensity_set.weights  # both memos filled
    for config in (fresh, config_1e9):
        copy = pickle.loads(pickle.dumps(config))
        assert copy == config and hash(copy) == hash(config)
        assert copy.problems == config.problems == ()
        assert copy.intensity_set.weights == decoy_weights(config.intensity_set)


def test_no_source_touches_an_instance_dictionary():
    """Reading ``__dict__``, also through ``functools.cached_property``,
    materialises an instance's dictionary on CPython 3.11, which slows every
    later attribute read on that object; the memos use ``object.__setattr__``."""
    found = []
    for path in sorted(Path(model.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, "attr", None), getattr(node, "id", None)}
            names.update(alias.name for alias in getattr(node, "names", ()))
            found += [f"{path.name}:{node.lineno}" for name in ("__dict__", "cached_property")
                      if name in names]
    assert found == []


def test_a_record_with_a_non_numeric_field_fails_when_built():
    """Each record is validated when it is built, so a field that cannot be
    compared raises there, not at its first use."""
    with pytest.raises(TypeError):
        IntensitySet(s="0.5", w=0.1, v=0.0, p_s=0.7, p_w=0.15, p_v=0.15)
    with pytest.raises(TypeError):
        _config(N=None)
