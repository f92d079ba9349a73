"""Metamorphic relations of the whole pipeline: a change to the inputs that
can only weaken what the data certify must not raise the key. Halving any of
the five epsilons, one or seven more coin lags, a stronger nearest-neighbour
correlation, 1% more rounds with the same counts, one more Z error at the
signal intensity, or one more sifted detection (in a trash round, or in the
key basis at the signal intensity) leaves ``key_length`` where it was or
lowers it. The last relation is the one that sees a flipped sign of the
signal weight in the decoy lower bound. The other way round, ten times the
rounds with ten times every count does not lower the key per round: the
observed rates are the same, and every finite-size penalty shrinks.

Each record draws an intensity set with s > w + v and its probabilities, N
from 1e7 to 1e11, each epsilon from 1e-14 to 1e-5, a correlation model in 70%
of records, and expected or sampled counts at 0-80 km. These relations hold
for any sound certificate, so they survive changes that move certified
values on purpose, where the pins against frozen code do not.
"""

from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corrbb84.correlations import CorrelationModel, effective_length, required_truncation_length
from corrbb84.counts import CountTriple
from corrbb84.keyrate import evaluate_pipeline
from corrbb84.model import EpsilonBudget, IntensitySet, ProtocolConfig, mean_intensity
from corrbb84.simulator import ChannelModel, expected_counts, sample_counts

EXAMPLES = 40


def _decades(start: int, stop: int):
    """10^x for x from start to stop in steps of 0.1. Hypothesis draws many
    of its simplest value, 10^start, so start is the end where keys are
    positive and a relation can fail."""
    step = 0.1 if stop > start else -0.1
    return st.integers(0, round(abs(stop - start) * 10)).map(lambda k: 10.0 ** (start + k * step))


@st.composite
def records(draw):
    """(observed, config, model): a drawn run and the counts it announced."""
    v = draw(st.one_of(st.just(0.0), st.floats(1e-4, 0.05)))
    w = v + draw(st.floats(0.02, 0.5))
    s = w + v + draw(st.floats(0.05, 1.0))
    p_s = draw(st.floats(0.3, 0.85))
    p_w = draw(st.floats(0.05, 0.95 - p_s))
    iset = IntensitySet(s=s, w=w, v=v, p_s=p_s, p_w=p_w, p_v=1.0 - p_s - p_w)
    N = round(draw(_decades(11, 7)))
    eps = [draw(_decades(-5, -14)) for _ in range(5)]
    model = None
    if draw(st.floats(0.0, 1.0)) < 0.7:
        model = CorrelationModel(delta_1=draw(_decades(-4, -1)),
                                 decay_C=draw(st.floats(0.3, 3.0)),
                                 truncation_d=draw(_decades(-8, -14)))
        if draw(st.booleans()):  # an explicit length at or above the required one
            needed = required_truncation_length(N, mean_intensity(iset), model)
            model = replace(model, l_c_eff=needed + draw(st.integers(0, 5)))
    d = 0.0 if model is None else model.truncation_d
    config = ProtocolConfig(N=N, intensity_set=iset, p_keep=draw(st.floats(0.5, 0.99)),
                            epsilon_budget=EpsilonBudget(*eps, d=d))
    channel = ChannelModel(distance_km=draw(st.floats(0.0, 80.0)))
    if draw(st.booleans()):
        observed, _ = expected_counts(config, channel)
    else:
        observed, _ = sample_counts(config, channel, draw(st.integers(0, 2**32 - 1)))
    return observed, config, model


def _halved(name):
    def relate(observed, config, model):
        budget = config.epsilon_budget
        halved = replace(budget, **{name: getattr(budget, name) / 2.0})
        return observed, replace(config, epsilon_budget=halved), model
    return relate


def _more_lags(extra):
    def relate(observed, config, model):
        assume(model is not None)
        l_c = effective_length(config.N, mean_intensity(config.intensity_set), model)
        return observed, config, replace(model, l_c_eff=l_c + extra)
    return relate


def _long_enough(model, config):
    """An explicit length raised to the one ``model`` requires at ``config``'s
    N."""
    if model is not None and model.l_c_eff:
        needed = required_truncation_length(config.N, mean_intensity(config.intensity_set), model)
        model = replace(model, l_c_eff=max(model.l_c_eff, needed))
    return model


def _more_rounds(observed, config, model):
    """N raised by 1% with the same counts: the added rounds saw no
    detection. An explicit length is raised to the one the larger N
    requires, which can only lower the key further."""
    more = replace(config, N=round(1.01 * config.N))
    return observed, more, _long_enough(model, more)


def _stronger_correlation(observed, config, model):
    """delta_1 raised by half; an explicit length is raised to the one the
    stronger model requires, which can only lower the key further."""
    assume(model is not None)
    return observed, config, _long_enough(replace(model, delta_1=1.5 * model.delta_1), config)


def _one_more_z_error_at_s(observed, config, model):
    z_err = observed.z_err
    assume(z_err.m_s < observed.z_det.m_s)
    return replace(observed, z_err=replace(z_err, m_s=z_err.m_s + 1)), config, model


def _one_more_sifted_detection(observed, config, model):
    """A trash-sifted detection: only the sifted total grows."""
    assume(observed.n_sifted_det < config.N)
    return replace(observed, n_sifted_det=observed.n_sifted_det + 1), config, model


def _one_more_z_detection_at_s(observed, config, model):
    """A keep-sifted detection in the key basis at the signal intensity, which
    the sifted total counts too."""
    assume(observed.n_sifted_det < config.N)
    z_det = observed.z_det
    return replace(observed, z_det=replace(z_det, m_s=z_det.m_s + 1),
                   n_sifted_det=observed.n_sifted_det + 1), config, model


RELATIONS = {
    **{f"half_{name}": _halved(name) for name in ("eps_A", "eps_B", "eps_C", "eps_PA", "eps_EV")},
    "l_c_eff_plus_1": _more_lags(1),
    "l_c_eff_plus_7": _more_lags(7),
    "N_times_1.01": _more_rounds,
    "delta_1_times_1.5": _stronger_correlation,
    "z_error_at_s_plus_1": _one_more_z_error_at_s,
    "sifted_detection_plus_1": _one_more_sifted_detection,
    "z_detection_at_s_plus_1": _one_more_z_detection_at_s,
}


@pytest.mark.parametrize("relation", sorted(RELATIONS))
@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(record=records())
def test_key_does_not_rise(relation, record):
    before = evaluate_pipeline(*record).key_length
    after = evaluate_pipeline(*RELATIONS[relation](*record)).key_length
    assert after <= before


def _tenfold(observed, config, model):
    """N and every count ten times larger; an explicit length is raised to
    the one the larger N requires, as in ``_more_rounds``."""
    def scaled(triple):
        return CountTriple(*(10 * count for count in triple))

    more = replace(config, N=10 * config.N)
    counts = replace(observed, z_det=scaled(observed.z_det), z_err=scaled(observed.z_err),
                     x_det=scaled(observed.x_det), x_err=scaled(observed.x_err),
                     n_sifted_det=10 * observed.n_sifted_det)
    return counts, more, _long_enough(model, more)


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(record=records())
def test_key_per_round_does_not_fall_when_rounds_and_counts_grow_tenfold(record):
    before = evaluate_pipeline(*record).key_length
    after = evaluate_pipeline(*_tenfold(*record)).key_length
    assert after >= 10 * before
