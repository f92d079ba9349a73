import math

import numpy as np
import pytest

from corrbb84.decoy import DECOY_TERMS, DecoyBounds
from corrbb84.phase_error import (
    AZUMA_TERMS,
    g_interval,
    pe_shares,
    phase_error_rate_bound,
    total_pe_failure,
    trash_minus_upper,
)
from corrbb84.counts import CountTriple, GroundTruth
from corrbb84.validation import coin_inequality_check

# frozen from independent high-precision evaluation
G_PLUS_005_09 = 0.392
TRASH_MEAN_TERM = 8206.25
TRASH_SQRT_TERM = 952.35931671315874
TRASH_BERNSTEIN_TERM = 36.841361487904731


def _bounds(z_lo, z_hi, x_lo, x_err):
    return DecoyBounds(z_det_lower=z_lo, z_det_upper=z_hi, x_det_lower=x_lo, x_err_upper=x_err)


def test_g_perfect_coin_pins_rate():
    assert g_interval(0.0, 1.0) == (0.0, 0.0)


def test_g_known_value():
    g_minus, g_plus = g_interval(0.05, 0.9)
    assert math.isclose(g_plus, G_PLUS_005_09, rel_tol=1e-12)
    # y = 0.05 <= 1 - z^2 = 0.19: the lower branch collapses to 0 (the
    # quadratic root 0.05 is spurious there: y' = 0 satisfies the defining
    # inequality, so the envelope reaches all the way down)
    assert g_minus == 0.0


def test_g_upper_branch_saturates():
    assert g_interval(0.9, 0.9)[1] == 1.0


def test_g_rejects_bad_y():
    with pytest.raises(ValueError):
        g_interval(-0.01, 0.5)
    with pytest.raises(ValueError):
        g_interval(1.01, 0.5)


def test_g_negative_z_gives_trivial_interval():
    assert g_interval(0.3, -0.7) == (0.0, 1.0)


def test_g_ordering_and_range():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        y, z = rng.uniform(0, 1), rng.uniform(-1, 1)
        g_minus, g_plus = g_interval(y, z)
        assert 0.0 <= g_minus <= g_plus <= 1.0
        # the observed rate itself is always compatible
        assert g_minus <= y <= g_plus


def test_g_plus_monotone():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        y, z = rng.uniform(0, 0.95), rng.uniform(0.05, 1)
        up_y = g_interval(min(1.0, y + 0.01), z)[1]
        down_z = g_interval(y, max(0.0, z - 0.01))[1]
        base = g_interval(y, z)[1]
        assert up_y >= base - 1e-12
        assert down_z >= base - 1e-12


def test_g_plus_boundary_characterization_full():
    from corrbb84.validation import check_g_plus_characterization

    check = check_g_plus_characterization(seed=41, samples=1000)
    assert check.passed, check.stats


def test_g_plus_boundary_characterization():
    rng = np.random.default_rng(13)
    tested = 0
    while tested < 200:
        z = rng.uniform(0.3, 0.999)
        y = rng.uniform(0, 0.95 * z * z)
        g_plus = g_interval(y, z)[1]
        if g_plus > 1 - 1e-6:
            continue
        tested += 1
        assert math.sqrt(g_plus * y) + math.sqrt((1 - g_plus) * (1 - y)) >= z - 1e-9
        above = g_plus + 1e-6
        assert math.sqrt(above * y) + math.sqrt((1 - above) * (1 - y)) < z


def test_trash_bound_zero_coin_leaves_residual():
    for l_c in (0, 1, 3):
        expected = 2.0 * (l_c + 1) / 3.0 * math.log(1e12)
        value = trash_minus_upper(10**9, 0.13, 0.9, l_c, 0.0, 1e-12)
        assert math.isclose(value, expected, rel_tol=1e-12)


def test_trash_bound_term_decomposition():
    value = trash_minus_upper(10**9, 0.1313, 0.9, 1, 1.25e-3, 1e-12)
    expected = TRASH_MEAN_TERM + TRASH_SQRT_TERM + TRASH_BERNSTEIN_TERM
    assert math.isclose(value, expected, rel_tol=1e-12)


def test_trash_bound_rejects_bad_inputs():
    with pytest.raises(ValueError):
        trash_minus_upper(10**6, 0.1, 0.9, 1, 0.6, 1e-3)
    with pytest.raises(ValueError):
        trash_minus_upper(10**6, 0.1, 0.9, 1, 0.1, 1.5)


def test_total_pe_failure_values():
    assert total_pe_failure(pe_shares(0.0, 0.0, 0.0, 3, 0.0)) == 0.0
    value = total_pe_failure(pe_shares(1e-12, 1e-12, 1e-12, 66, 1e-10))
    assert math.isclose(value, 1.82e-10, rel_tol=1e-12)
    assert math.isclose(
        total_pe_failure(pe_shares(2e-12, 2e-12, 2e-12, 66, 2e-10)), 2 * value, rel_tol=1e-12
    )


def test_pe_shares_compose_total():
    shares = pe_shares(1e-12, 3e-12, 2e-12, 66, 1e-10)
    assert shares == {
        "azuma_5_eps_A": AZUMA_TERMS * 1e-12,
        "trash_lc1_eps_C": 67 * 2e-12,
        "decoy_10_eps_B": DECOY_TERMS * 3e-12,
        "truncation_d": 1e-10,
    }
    assert (AZUMA_TERMS, DECOY_TERMS) == (5, 10)
    assert total_pe_failure(shares) == sum(shares.values())
    with pytest.raises(ValueError):
        pe_shares(1e-12, 1e-12, 1e-12, -1, 0.0)


def test_total_pe_failure_rejects_saturated_budget():
    with pytest.raises(ValueError):
        total_pe_failure(pe_shares(0.1, 0.1, 0.1, 10, 0.0))


def test_phase_bound_huge_trash_saturates():
    bounds = _bounds(1000.0, 1000.0, 1000.0, 0.0)
    result = phase_error_rate_bound(bounds, 1e9, 0, 0.9, 1e-10)
    assert result.e_ph_upper == 1.0


def test_phase_bound_perfect_statistics():
    n = 10000.0
    bounds = _bounds(n, n, n, 0.0)
    result = phase_error_rate_bound(bounds, 0.0, 0, 0.9, 1e-10)
    assert result.e_ph_upper == 0.0
    assert result.audit["trivial_bound_reason"] is None


def test_phase_bound_degenerate_reasons():
    result = phase_error_rate_bound(_bounds(0.0, 10.0, 10.0, 0.0), 0.0, 0, 0.9, 1e-10)
    assert result.e_ph_upper == 1.0
    assert result.audit["trivial_bound_reason"] == "z_det_lower_nonpositive"
    result = phase_error_rate_bound(_bounds(10.0, 10.0, 1.0, 0.0), 0.0, 10**6, 0.9, 1e-10)
    assert result.audit["trivial_bound_reason"] == "x_det_lower_not_above_delta_A"
    result = phase_error_rate_bound(_bounds(10.0, 10.0, 5.0, 50.0), 0.0, 0, 0.9, 1e-10)
    assert result.audit["trivial_bound_reason"] == "y_out_of_range"


def test_phase_bound_composes_with_g():
    # arranged so Delta_A = 0, y = 0.05 and z = 0.9 exactly
    bounds = _bounds(9000.0, 10000.0, 10000.0, 500.0)
    result = phase_error_rate_bound(bounds, 1000.0, 0, 0.5, 1e-10)
    assert math.isclose(result.audit["y"], 0.05, rel_tol=1e-12)
    assert math.isclose(result.audit["z"], 0.9, rel_tol=1e-12)
    expected = 10000.0 * G_PLUS_005_09 / 9000.0
    assert math.isclose(result.e_ph_upper, expected, rel_tol=1e-12)


def test_phase_bound_monotone_grid():
    base = _bounds(9000.0, 10000.0, 10000.0, 500.0)
    result = phase_error_rate_bound(base, 1000.0, 10**4, 0.5, 1e-10)
    worse_err = phase_error_rate_bound(
        _bounds(9000.0, 10000.0, 10000.0, 800.0), 1000.0, 10**4, 0.5, 1e-10
    )
    worse_trash = phase_error_rate_bound(base, 2000.0, 10**4, 0.5, 1e-10)
    smaller_x = phase_error_rate_bound(
        _bounds(9000.0, 10000.0, 8000.0, 500.0), 1000.0, 10**4, 0.5, 1e-10
    )
    assert worse_err.e_ph_upper >= result.e_ph_upper
    assert worse_trash.e_ph_upper >= result.e_ph_upper
    assert smaller_x.e_ph_upper >= result.e_ph_upper


def test_phase_bound_monotone_in_z_det_upper():
    """Numerical probe of the claimed growth in the key-basis upper count."""
    rng = np.random.default_rng(17)
    for _ in range(200):
        z_lo = rng.uniform(1000, 5000)
        z_hi = z_lo * rng.uniform(1.0, 1.5)
        x_lo = rng.uniform(1000, 5000)
        x_err = rng.uniform(0, 0.2) * x_lo
        trash = rng.uniform(0, 0.05) * z_lo
        base = phase_error_rate_bound(
            _bounds(z_lo, z_hi, x_lo, x_err), trash, 10**4, 0.8, 1e-6
        )
        grown = phase_error_rate_bound(
            _bounds(z_lo, z_hi * 1.05, x_lo, x_err), trash, 10**4, 0.8, 1e-6
        )
        assert grown.e_ph_upper >= base.e_ph_upper - 1e-12


def _truth(z_det=1000, z_err=10, x_det=1000, x_err=10, minus=0):
    def cat(total):
        empty = CountTriple(0, 0, 0)
        return (empty, CountTriple(total, 0, 0), empty)

    return GroundTruth(
        z_det=cat(z_det), z_err=cat(z_err), x_det=cat(x_det), x_err=cat(x_err),
        trash_minus_single=minus,
    )


def test_coin_check_clean_run_holds():
    result = coin_inequality_check(_truth(z_err=0, x_err=0), 4000, 0.9, 1e-3)
    assert result.holds and result.margin > 0 and not result.trivial_branch


def test_coin_check_constructed_violation():
    result = coin_inequality_check(
        _truth(z_det=1000, z_err=1000, x_det=100000, x_err=0, minus=0),
        200000, 0.9, 0.5,
    )
    assert not result.holds


def test_coin_check_degenerate_takes_trivial_branch():
    result = coin_inequality_check(_truth(x_det=0), 10**6, 0.9, 1e-3)
    assert result.trivial_branch and result.holds
