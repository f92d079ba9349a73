"""Every library function's own argument check: an out-of-range argument
raises ValueError with a message that names it, even where the function's
callers in the package already rule that argument out."""

import numpy as np
import pytest

from corrbb84 import correlations as corr
from corrbb84.concentration import azuma_delta
from corrbb84.keyrate import ec_leakage, security_parameter
from corrbb84.oracles import ExplicitDeltas, _coin_overlap_sum, coin_monte_carlo
from corrbb84.phase_error import trash_minus_upper
from corrbb84.validation import reference_config, reference_intensities, run_validation

MODEL = corr.CorrelationModel(delta_1=0.1, decay_C=0.5, truncation_d=1e-10)
ISET = reference_intensities()


def _lags(count):
    return ExplicitDeltas(np.zeros((count, 2, 2)))


@pytest.mark.parametrize("call, message", [
    (lambda: azuma_delta(-1, 1e-10), "n must be nonnegative"),
    (lambda: corr.tail_sum(-1, MODEL), "l_c must be nonnegative"),
    (lambda: corr.coin_parameter_bound(-1, ISET, MODEL), "l_c must be nonnegative"),
    (lambda: trash_minus_upper(10**6, 0.3, 0.8, -1, 0.1, 1e-10), "l_c must be nonnegative"),
    (lambda: corr.exact_global_fidelity(3, -1, [_lags(2)], ISET), "l_c must be nonnegative"),
    (lambda: corr.required_truncation_length(0, 0.4, MODEL), "N must be >= 1"),
    (lambda: corr.required_truncation_length(10**6, 0.0, MODEL),
     "mean intensity must be positive"),
    (lambda: corr.trace_distance_bound(0, 0.4, 1, MODEL), "N must be >= 1"),
    (lambda: corr.exact_global_fidelity(4, 0, [_lags(2)], ISET),
     "every delta table must cover 3 lags"),
    (lambda: ec_leakage(10, 11), "error count exceeds detection count"),
    (lambda: security_parameter(1.0, 1e-10, 1e-10), "eps_PE must lie in"),
    (lambda: ExplicitDeltas(np.zeros((2, 4))), "delta table must have shape"),
    (lambda: _coin_overlap_sum(2, _lags(1), ISET), "delta table covers 1 lags, need 2"),
    (lambda: coin_monte_carlo(10**6, reference_config(10**6), _lags(1), 1, 0, 0),
     "trials must be positive"),
    (lambda: run_validation(level="x"), "level must be 'quick' or 'full'"),
], ids=["azuma_delta", "tail_sum", "coin_parameter_bound", "trash_minus_upper",
        "exact_global_fidelity_lc", "required_truncation_length_N",
        "required_truncation_length_mu", "trace_distance_bound", "exact_global_fidelity_table",
        "ec_leakage", "security_parameter", "ExplicitDeltas", "_coin_overlap_sum",
        "coin_monte_carlo", "run_validation"])
def test_out_of_range_argument_raises_naming_it(call, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        call()
