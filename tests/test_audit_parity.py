"""The audit that a result builds from its stage records on each read equals
the dict the pipeline built on every call (``frozen_reference``): every key,
value and key order, -0.0 included, on the certified-output fingerprint grid
and on drawn sampled records, and for each guard of the phase-error bound."""

import math
from dataclasses import FrozenInstanceError, fields, replace

import frozen_reference as frozen
import numpy as np
import pytest

from corrbb84.correlations import CorrelationModel, required_truncation_length
from corrbb84.decoy import DecoyBounds
from corrbb84.keyrate import evaluate_pipeline
from corrbb84.model import mean_intensity
from corrbb84.phase_error import phase_error_rate_bound
from corrbb84.simulator import ChannelModel, expected_counts, sample_counts
from corrbb84.validation import reference_config

# the grid of perfbench/fingerprint.py: (delta_1, decay_C, d, l_c_eff), with
# l_c_eff None derived from d
GRID_DISTANCES_KM = (0.0, 10.0, 25.0, 40.0, 55.0)
GRID_CORRELATIONS = (None, (0.05, 1.0, 1e-12, None), (0.2, 0.2, 1e-12, None), (0.1, 0.5, 0.0, 4))
DRAWN_RECORDS = 240


def _outputs(result) -> str:
    return repr((result.key_length, result.eps_sec, result.e_ph_upper, result.z_det_lower,
                 result.lambda_EC, result.audit))


def _assert_parity(observed, config, model):
    new = evaluate_pipeline(observed, config, model)
    old = frozen.evaluate_pipeline(observed, config, model)
    assert _outputs(new) == _outputs(old)
    assert new.audit == new.audit  # the same dict on every read
    decoy = new.audit["decoy"]
    shared = decoy["x_det_lower"] is decoy["z_det_lower"]
    assert shared == (observed.x_det is observed.z_det)
    return new


def _grid_case(distance_km, correlation):
    config = reference_config(10**9)
    if correlation is None:
        return config, None
    delta_1, decay_C, d, l_c = correlation
    model = CorrelationModel(delta_1, decay_C, d, l_c or 0)
    if l_c is None:
        l_c = required_truncation_length(config.N, mean_intensity(config.intensity_set), model)
        model = replace(model, l_c_eff=l_c)
    return replace(config, epsilon_budget=replace(config.epsilon_budget, d=d)), model


def test_audit_equals_the_dict_built_on_every_call_on_the_fingerprint_grid():
    points = 0
    for correlation in GRID_CORRELATIONS:
        for distance in GRID_DISTANCES_KM:
            config, model = _grid_case(distance, correlation)
            observed, _ = expected_counts(config, ChannelModel(distance_km=distance))
            _assert_parity(observed, config, model)
            points += 1
    assert points == 20


def test_audit_equals_the_dict_built_on_every_call_on_drawn_records():
    """Sampled counts at 0-100 km and N from 1e5 to 1e11, 70% of them under a
    correlation model, so the draw certifies keys and zero keys alike and
    reaches three of the phase-error guards."""
    rng = np.random.default_rng(2026)
    reasons, keys = set(), []
    for index in range(DRAWN_RECORDS):
        config = reference_config(int(10 ** rng.uniform(5, 11)), p_keep=rng.uniform(0.55, 0.95))
        model = None
        if rng.random() < 0.7:
            model = CorrelationModel(rng.uniform(0.01, 0.2), rng.uniform(0.2, 1.0), 1e-12)
            config = replace(config, epsilon_budget=replace(config.epsilon_budget, d=1e-12))
        channel = ChannelModel(distance_km=rng.uniform(0.0, 100.0))
        observed, _ = sample_counts(config, channel, index)
        result = _assert_parity(observed, config, model)
        reasons.add(result.audit["phase_error"]["trivial_bound_reason"])
        keys.append(result.key_length)
    assert min(keys) == 0 < max(keys)
    assert len(reasons) == 4  # None and three guards


@pytest.mark.parametrize("bounds,trash,n_sifted_det,p_keep,reason", [
    ((9000.0, 10000.0, 10000.0, 500.0), 1000.0, 0, 0.5, None),
    ((0.0, 10.0, 10.0, 0.0), 0.0, 0, 0.9, "z_det_lower_nonpositive"),
    ((10.0, 10.0, 1.0, 0.0), 0.0, 10**6, 0.9, "x_det_lower_not_above_delta_A"),
    ((10.0, 10.0, 5.0, 50.0), 0.0, 0, 0.9, "y_out_of_range"),
    ((9000.0, 10000.0, 10000.0, 500.0), 1000.0, 0, 1.0, "coin_denominator_nonpositive"),
], ids=lambda value: value if isinstance(value, str) else None)
def test_phase_error_audit_names_each_guard(bounds, trash, n_sifted_det, p_keep, reason):
    decoy = DecoyBounds(*bounds)
    new = phase_error_rate_bound(decoy, trash, n_sifted_det, p_keep, 1e-10)
    old = frozen.phase_error_rate_bound(decoy, trash, n_sifted_det, p_keep, 1e-10)
    assert repr((new.e_ph_upper, new.audit)) == repr((old.e_ph_upper, old.audit))
    assert new.audit.get("trivial_bound_reason") == reason  # as the benchmark's tracer reads it
    assert (new.e_ph_upper == 1.0) == (reason is not None) and not math.isnan(new.e_ph_upper)


def test_records_are_frozen():
    """The decoy bounds, the phase-error bound and the result hold no memo:
    setting any field raises, and so does setting the audit or a new name
    (a TypeError on Python 3.11, whose slotted frozen dataclasses fail that
    way for a name that is not a field)."""
    config, model = _grid_case(10.0, GRID_CORRELATIONS[1])
    observed, _ = expected_counts(config, ChannelModel(distance_km=10.0))
    result = evaluate_pipeline(observed, config, model)
    decoy, phase = result.records[:2]
    for record in (decoy, phase, result):
        for field in fields(record):
            with pytest.raises(FrozenInstanceError):
                setattr(record, field.name, None)
        for name in ("audit", "_audit"):
            with pytest.raises((FrozenInstanceError, TypeError)):
                setattr(record, name, None)
