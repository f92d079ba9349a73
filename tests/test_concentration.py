import math
import random
from contextlib import contextmanager
from dataclasses import replace

import frozen_reference as frozen
import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import identity_bound_pair
from oracle_suites import bernstein_upper_delta

from corrbb84 import concentration
from corrbb84.concentration import (
    BISECTION_TOL,
    azuma_delta,
    bernoulli_kl,
    binomial_bound_pair,
)
from corrbb84.correlations import CorrelationModel
from corrbb84.keyrate import evaluate_pipeline
from corrbb84.simulator import ChannelModel, expected_counts, sample_counts
from corrbb84.validation import reference_channel, reference_config

# frozen from independent high-precision evaluation
BERNSTEIN_0_001 = 3.0701134573253942
BERNSTEIN_100_001 = 33.418656045028321
AZUMA_1E6_1E10 = 6786.1404244151118


def test_bernstein_zero_mean():
    assert math.isclose(bernstein_upper_delta(0.0, 0.01), BERNSTEIN_0_001, rel_tol=1e-12)


def test_bernstein_known_value():
    assert math.isclose(
        bernstein_upper_delta(100.0, 0.01), BERNSTEIN_100_001, rel_tol=1e-12
    )


def test_bernstein_vanishes_as_epsilon_to_one():
    assert bernstein_upper_delta(100.0, 1.0 - 1e-12) < 1e-4


def test_bernstein_monotonicity():
    assert bernstein_upper_delta(200.0, 0.01) > bernstein_upper_delta(100.0, 0.01)
    assert bernstein_upper_delta(100.0, 0.001) > bernstein_upper_delta(100.0, 0.01)


@pytest.mark.parametrize("eps", [0.0, 1.0, -0.1, 1.5])
def test_epsilon_range_rejected(eps):
    with pytest.raises(ValueError):
        bernstein_upper_delta(1.0, eps)
    with pytest.raises(ValueError):
        azuma_delta(10, eps)
    with pytest.raises(ValueError):
        binomial_bound_pair(eps, 1, 10)


def test_azuma_values():
    assert azuma_delta(0, 0.5) == 0.0
    assert math.isclose(azuma_delta(10**6, 1e-10), AZUMA_1E6_1E10, rel_tol=1e-12)


def test_azuma_sqrt_scaling():
    assert math.isclose(
        azuma_delta(4 * 12345, 1e-5), 2 * azuma_delta(12345, 1e-5), rel_tol=1e-12
    )


def test_bernoulli_kl_basics():
    assert bernoulli_kl(0.5, 0.5) == 0.0
    assert bernoulli_kl(0.0, 0.3) > 0.0
    assert bernoulli_kl(0.5, 0.0) == math.inf
    assert bernoulli_kl(0.5, 1.0) == math.inf


def test_binomial_bounds_bracket_observation():
    for k, n in [(0, 10), (5, 10), (10, 10), (500, 1000), (3, 100000)]:
        lower, upper = binomial_bound_pair(0.01, k, n)
        assert lower <= k <= upper
        assert 0.0 <= lower and upper <= n


def test_binomial_bounds_empty_sample():
    assert binomial_bound_pair(0.01, 0, 0) == (0.0, 0.0)


def test_binomial_bounds_closed_form_endpoints():
    eps, n = 0.01, 1000
    _, upper = binomial_bound_pair(eps, 0, n)
    assert math.isclose(upper, n * (1.0 - eps ** (1.0 / n)), rel_tol=1e-9)
    lower, _ = binomial_bound_pair(eps, n, n)
    assert math.isclose(lower, n * eps ** (1.0 / n), rel_tol=1e-9)


def test_binomial_bounds_solve_kl_equation():
    eps, k, n = 0.01, 500, 1000
    lower, upper = binomial_bound_pair(eps, k, n)
    target = math.log(1.0 / eps) / n
    assert abs(bernoulli_kl(k / n, lower / n) - target) < 1e-9
    assert abs(bernoulli_kl(k / n, upper / n) - target) < 1e-9


def test_binomial_bounds_nest_in_epsilon():
    wide = binomial_bound_pair(0.001, 500, 1000)
    narrow = binomial_bound_pair(0.01, 500, 1000)
    assert wide[0] <= narrow[0] and narrow[1] <= wide[1]


def test_binomial_bounds_monotone_in_observation():
    previous = binomial_bound_pair(0.01, 0, 1000)
    for k in range(1, 1000, 37):
        current = binomial_bound_pair(0.01, k, 1000)
        assert current[0] >= previous[0] and current[1] >= previous[1]
        previous = current


def test_binomial_bounds_reject_bad_counts():
    with pytest.raises(ValueError):
        binomial_bound_pair(0.01, 11, 10)
    with pytest.raises(ValueError):
        binomial_bound_pair(0.01, -1, 10)


def test_identity_bound_pair():
    assert identity_bound_pair(0.01, 7, 100) == (7.0, 7.0)
    assert identity_bound_pair(0.01, 7, 100, True, False) == (7.0, 100.0)
    assert identity_bound_pair(0.01, 7, 100, False, True) == (0.0, 7.0)


def test_coverage_smoke():
    """Reduced-size coverage probe; the acceptance suite runs the full grid."""
    rng = np.random.default_rng(5)
    n, p, eps, trials = 1000, 0.1, 0.01, 2000
    draws = rng.binomial(n, p, size=trials)
    low = sum(1 for k in draws if n * p < binomial_bound_pair(eps, int(k), n)[0])
    high = sum(1 for k in draws if n * p > binomial_bound_pair(eps, int(k), n)[1])
    slack = 3.0 * math.sqrt(eps * (1 - eps) / trials)
    assert low / trials <= eps + slack
    assert high / trials <= eps + slack


# --- the replayed bisection equals the evaluated one --------------------------


def _evaluated_solve_kl(p_hat, target, lo, hi):
    """Bisection that evaluates D at every step: the reference that the
    replayed bisection of ``concentration._solve_kl`` must equal bit for bit."""
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if bernoulli_kl(p_hat, mid) >= target:
            if mid < p_hat:
                lo = mid
            else:
                hi = mid
        else:
            if mid < p_hat:
                hi = mid
            else:
                lo = mid
        if hi - lo <= BISECTION_TOL:
            break
    return 0.5 * (lo + hi)


def _evaluated_bound_pair(epsilon, observed, total):
    if total == 0:
        return (0.0, 0.0)
    p_hat = observed / total
    target = math.log(1.0 / epsilon) / total
    lower = 0.0 if observed == 0 else total * _evaluated_solve_kl(p_hat, target, 0.0, p_hat)
    upper = (
        float(total) if observed == total
        else total * _evaluated_solve_kl(p_hat, target, p_hat, 1.0)
    )
    return (min(lower, float(observed)), max(upper, float(observed)))


# beyond 1e15 a root can lie within a few ulp of p_hat
GRID_TOTALS = (1, 2, 3, 7, 10, 100, 1000, 12_345, 10**6, 10**8 + 7, 10**9, 10**11,
               10**15, 10**20, 10**30)
GRID_EPSILONS = (1e-300, 1e-30, 1e-20, 1e-10, 1e-3, 0.1, 0.5, 0.9999, 1.0 - 2.0**-53)


def _grid_observed(total):
    rng = random.Random(total)
    special = (0, 1, 2, total // 2, total - 1, total)
    return sorted({k for k in special if 0 <= k <= total}
                  | {rng.randint(0, total) for _ in range(3)})


@pytest.mark.parametrize("total", GRID_TOTALS)
def test_replayed_bisection_equals_evaluated_on_grid(total):
    for epsilon in GRID_EPSILONS:
        for k in _grid_observed(total):
            assert binomial_bound_pair(epsilon, k, total) == _evaluated_bound_pair(
                epsilon, k, total
            ), (epsilon, k, total)


@settings(max_examples=300, deadline=None)
@given(
    exponent=st.floats(0.0, 11.0),
    fraction=st.floats(0.0, 1.0),
    log_epsilon=st.floats(-30.0, math.log10(0.9999)),
)
def test_replayed_bisection_equals_evaluated_on_drawn_inputs(exponent, fraction, log_epsilon):
    total = max(1, int(10.0**exponent))
    observed = round(fraction * total)
    epsilon = 10.0**log_epsilon
    assert binomial_bound_pair(epsilon, observed, total) == _evaluated_bound_pair(
        epsilon, observed, total
    )


def _sides(epsilon, observed, total):
    """The (p_hat, target, lower) of both sides of one bound pair."""
    p_hat, target = observed / total, math.log(1.0 / epsilon) / total
    return [(p_hat, target, lower) for lower in (True, False)
            if (observed > 0 if lower else observed < total)]


def _window(p_hat, target, x):
    """The noise window at x (see the docstring of concentration)."""
    return 2.0**-52 * (1.0 + target) * x * (1.0 - x) / abs(x - p_hat) + math.ulp(x)


def _displaced(x, p_hat, target, lower, windows):
    """x moved ``windows`` noise windows towards p_hat (away if negative)."""
    if x == p_hat or not 0.0 <= x <= 1.0:
        return x
    return x + (windows if lower else -windows) * _window(p_hat, target, x)


@contextmanager
def _centres(start_at, newton_at):
    """Make every start a centre, placed by ``start_at(x, p_hat, target,
    lower)``, and every Newton root one placed by ``newton_at``."""
    start, newton = concentration._start, concentration._newton_root

    def placed_start(p_hat, target, lower):
        x, _ = start(p_hat, target, lower)
        return start_at(x, p_hat, target, lower), True

    def placed_root(p_hat, target, lower, x0):
        root = newton(p_hat, target, lower, x0)
        return None if root is None else newton_at(root, p_hat, target, lower)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(concentration, "_start", placed_start)
        patch.setattr(concentration, "_newton_root", placed_root)
        yield


def _assert_solves_equal_evaluated(sides):
    for p_hat, target, lower in sides:
        lo, hi = (0.0, p_hat) if lower else (p_hat, 1.0)
        assert concentration._solve_kl(p_hat, target, lower) == _evaluated_solve_kl(
            p_hat, target, lo, hi
        ), (p_hat, target, lower)


def _drawn_sides(count=150):
    """Sides drawn as ``test_replayed_bisection_equals_evaluated_on_drawn_inputs``
    draws them, from a fixed seed."""
    rng = random.Random(25)
    sides = []
    for _ in range(count):
        total = max(1, int(10.0 ** rng.uniform(0.0, 11.0)))
        epsilon = 10.0 ** rng.uniform(-30.0, math.log10(0.9999))
        sides += _sides(epsilon, round(rng.random() * total), total)
    return sides


@pytest.mark.parametrize("misplace", ["none", "toward_p_hat", "away_from_p_hat"])
def test_replay_never_depends_on_newton(misplace):
    """A missing or grossly misplaced centre, start and Newton root alike,
    must fall back to the evaluated bisection, never change the result."""
    def misplaced(x, p_hat, target, lower):
        if misplace == "none":
            return math.nan
        if misplace == "toward_p_hat":
            return 0.5 * (x + p_hat)
        return 0.5 * x if lower else 0.5 * (x + 1.0)

    with _centres(misplaced, misplaced):
        for epsilon, observed, total in [(1e-10, 12_345, 10**6), (1e-3, 3, 10**9),
                                         (0.5, 10**8, 10**11), (1e-30, 1, 2)]:
            assert binomial_bound_pair(epsilon, observed, total) == _evaluated_bound_pair(
                epsilon, observed, total
            )


@pytest.mark.parametrize("windows", [0, 4, -4, 8, -8, 15, -15, 17, -17])
def test_band_centre_never_changes_the_result(windows, production_sides):
    """Starts and Newton roots displaced by a few noise windows towards or
    away from p_hat, each taken as the centre: the bound stays the evaluated
    bisection's on the grid, on drawn sides and on the production sides."""
    def displaced(x, p_hat, target, lower):
        return _displaced(x, p_hat, target, lower, windows)

    grid = [side for total in GRID_TOTALS for epsilon in GRID_EPSILONS
            for k in _grid_observed(total) for side in _sides(epsilon, k, total)]
    with _centres(displaced, displaced):
        _assert_solves_equal_evaluated(grid + _drawn_sides() + list(production_sides))


def test_edge_short_of_the_margin_is_refused():
    """An edge on the right side of the target, but by less than
    10 u (1 + D), proves nothing, though its sign alone would pass; one that
    clears the margin proves its side. The centre moves away from p_hat a
    quarter window at a time, which brings the inner edge towards the root."""
    p_hat, target, lower = 0.013, 2.3e-7, True
    start, trusted = concentration._start(p_hat, target, lower)
    assert trusted
    outcomes = set()
    for quarters in range(4 * int(concentration.REPLAY_MARGIN)):
        centre = _displaced(start, p_hat, target, lower, -quarters / 4)
        inner = centre + concentration.REPLAY_MARGIN * _window(p_hat, target, centre)
        d = bernoulli_kl(p_hat, inner)
        if d >= target:  # the inner edge has crossed the root
            break
        short = target - d < 10.0 * 2.0**-52 * (1.0 + d)
        band = concentration._proven_band(p_hat, target, lower, centre)
        assert (band is None) == short, (quarters, target - d)
        outcomes.add(short)
    assert outcomes == {True, False}


@pytest.fixture(scope="module")
def production_sides():
    """The (p_hat, target, lower) of every KL side that 100
    certifications of ``sample_counts`` records solve: ``reference_config(10**9)``
    at 0-60 km, one record in four uncorrelated, the rest with a correlation
    model and its truncation budget d = 1e-12."""
    sides = []
    solve = concentration._solve_kl

    def recorded(p_hat, target, lower):
        sides.append((p_hat, target, lower))
        return solve(p_hat, target, lower)

    uncorrelated = reference_config(10**9)
    correlated = replace(
        uncorrelated, epsilon_budget=replace(uncorrelated.epsilon_budget, d=1e-12)
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(concentration, "_solve_kl", recorded)
        for i in range(100):
            model = None if i % 4 == 0 else CorrelationModel(0.01 + 0.002 * i, 0.5, 1e-12)
            config = uncorrelated if model is None else correlated
            observed, _ = sample_counts(config, ChannelModel(distance_km=0.6 * i), seed=i)
            evaluate_pipeline(observed, config, model)
    return sides


def test_replayed_bisection_equals_evaluated_on_production_sides(production_sides):
    for p_hat, target, lower in production_sides:
        lo, hi = (0.0, p_hat) if lower else (p_hat, 1.0)
        assert concentration._solve_kl(p_hat, target, lower) == _evaluated_solve_kl(
            p_hat, target, lo, hi
        ), (p_hat, target, lower)


# the sides, their bernoulli_kl calls (2.47 per side; 3.39 with every band
# centred on a Newton root, 4.55 from the cubic Taylor start), the
# _newton_root calls among them (one side in ten; every side before) and
# the evaluations _newton_root spends from the start (1.00 per side; 1.02
# from the earlier Poisson start, 2.18 from the cubic one)
PRODUCTION_SIDES, PRODUCTION_KL_CALLS = 992, 2455
PRODUCTION_NEWTON_FALLBACKS, PRODUCTION_NEWTON_CALLS = 100, 992


def _d_evaluations(solve, sides) -> list[int]:
    """The D evaluations that ``solve`` spends on each side."""
    counts, calls = [], 0
    kl = concentration.bernoulli_kl

    def counted(p, q):
        nonlocal calls
        calls += 1
        return kl(p, q)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(concentration, "bernoulli_kl", counted)
        for side in sides:
            calls = 0
            solve(*side)
            counts.append(calls)
    return counts


def _newton_from_start(p_hat, target, lower):
    return concentration._newton_root(
        p_hat, target, lower, concentration._start(p_hat, target, lower)[0])


def test_production_sides_evaluate_d_no_more_often(production_sides):
    """A machine-independent guard against a slower solver: the mean number
    of D evaluations per side must not rise."""
    assert len(production_sides) == PRODUCTION_SIDES
    assert sum(_d_evaluations(concentration._solve_kl, production_sides)) <= PRODUCTION_KL_CALLS


def test_production_sides_centre_most_bands_on_the_start(production_sides):
    """A machine-independent guard on the Newton fallback: the number of
    sides whose band needs a Newton root must not rise."""
    calls = 0
    newton = concentration._newton_root

    def counted(*args):
        nonlocal calls
        calls += 1
        return newton(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(concentration, "_newton_root", counted)
        for side in production_sides:
            concentration._solve_kl(*side)
    assert calls <= PRODUCTION_NEWTON_FALLBACKS


def test_production_sides_settle_after_one_newton_evaluation(production_sides):
    """The Poisson and fifth-order starts put almost every root within one
    Newton step of the noise window: the mean must not rise."""
    counts = _d_evaluations(_newton_from_start, production_sides)
    assert sum(counts) <= PRODUCTION_NEWTON_CALLS


# sides where an earlier form of the search took more evaluations than the
# cubic Taylor start: three upper sides (two from certify) where a step fell
# below an ulp of w and the search bisected its bracket (5, 5 and 21 against
# 3), and one where a third-order start took 3 against 2
NEWTON_SIDES = [
    (2.958832214019435e-07, 1.70324073716793e-06, False),
    (2.3363265960293896e-07, 1.3448976980956986e-06, False),
    (1.3751715526511933e-06, 3.636683429699404e-05, False),
    (0.07603614833281395, 0.008236940433693463, False),
]


def _newton_grid():
    """Both sides at observed/total from 1e-7 to 1, five per decade, and the
    mirror counts total - observed, for totals 1 to 1e12 and epsilons 1e-300
    to 0.9999."""
    sides = []
    for total in [10**k for k in range(13)] + [12_345, 7 * 10**8 + 3]:
        ks = {round(total * 10.0 ** (-e / 5)) for e in range(36)} | {0, 1, 2, total // 2}
        ks |= {total - k for k in ks}
        for epsilon in (1e-300, 1e-30, 1e-12, 1e-3, 0.5, 0.9999):
            target = math.log(1.0 / epsilon) / total
            for k in sorted(k for k in ks if 0 <= k <= total):
                sides += [(k / total, target, lower) for lower in (True, False)
                          if (k > 0 if lower else k < total)]
    return sides


def test_no_side_takes_more_newton_evaluations_than_the_cubic_start(production_sides):
    sides = NEWTON_SIDES + list(production_sides) + _newton_grid()
    new = _d_evaluations(_newton_from_start, sides)
    old = _d_evaluations(frozen.newton_root, sides)
    worse = [(side, a, b) for side, a, b in zip(sides, old, new) if b > a]
    assert not worse, worse[:10]


def _exact_root(p_hat, target, x0):
    """The root of D(p_hat || x) = target next to x0, within a window of it,
    by Newton steps at 40 digits; dD/dx = (x - p) / (x (1 - x))."""
    with mpmath.workdps(40):
        p, x = mpmath.mpf(p_hat), mpmath.mpf(x0)
        for _ in range(6):
            d = (p * mpmath.log(p / x) if p > 0 else 0) + (
                (1 - p) * mpmath.log((1 - p) / (1 - x)) if p < 1 else 0)
            x -= (d - target) * x * (1 - x) / (x - p)
        return x


def test_trusted_starts_lie_within_two_windows_of_the_root(production_sides):
    """Where ``_start`` trusts its start, the first omitted term is within a
    noise window, so the start is within two of the exact root: this pins
    the series coefficients and the trust limits."""
    sides = _newton_grid()[::7] + list(production_sides)[::3]
    trusted = 0
    for p_hat, target, lower in sides:
        x, trust = concentration._start(p_hat, target, lower)
        root = _newton_from_start(p_hat, target, lower)
        if not trust or root is None or not 0.0 < root < 1.0:
            continue
        trusted += 1
        exact = _exact_root(p_hat, target, root)
        assert abs(x - exact) <= 2.0 * _window(p_hat, target, float(exact)), (p_hat, target, lower)
    assert trusted >= 0.6 * len(sides)


@settings(max_examples=200, deadline=None)
@given(
    exponent=st.floats(0.0, 8.0),
    fractions=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    log_epsilon=st.floats(-30.0, -3.0),
)
def test_bound_pair_brackets_and_is_monotone_in_observed(exponent, fractions, log_epsilon):
    total = max(1, int(10.0**exponent))
    k1, k2 = sorted(round(f * total) for f in fractions)
    epsilon = 10.0**log_epsilon
    (lower1, upper1), (lower2, upper2) = (binomial_bound_pair(epsilon, k, total) for k in (k1, k2))
    assert 0.0 <= lower1 <= k1 <= upper1 <= total
    assert 0.0 <= lower2 <= k2 <= upper2 <= total
    # each end is within BISECTION_TOL (in the rate) of the exact root, which
    # is nondecreasing in observed; for these totals and epsilons the noise
    # window of D is narrower than the tolerance
    slack = 2.0 * total * BISECTION_TOL
    assert lower2 >= lower1 - slack
    assert upper2 >= upper1 - slack


# --- one-sided requests solve only the side asked for -------------------------


def _assert_one_sided_ends_match(epsilon, observed, total):
    """Each one-sided request returns that end of the two-sided pair bit for
    bit and the other end at its trivial bound, 0.0 or ``total``."""
    lower, upper = binomial_bound_pair(epsilon, observed, total)
    assert binomial_bound_pair(epsilon, observed, total, True, False) == (lower, float(total))
    assert binomial_bound_pair(epsilon, observed, total, False, True) == (0.0, upper)
    assert binomial_bound_pair(epsilon, observed, total, False, False) == (0.0, float(total))


@pytest.mark.parametrize("total", GRID_TOTALS)
def test_one_sided_request_equals_that_end_on_grid(total):
    observed = sorted({k for k in (0, 1, 2, total // 2, total - 1, total) if 0 <= k <= total})
    for epsilon in (1e-300, 1e-10, 1e-3, 0.9999):
        for k in observed:
            _assert_one_sided_ends_match(epsilon, k, total)


@settings(max_examples=200, deadline=None)
@given(
    exponent=st.floats(0.0, 11.0),
    fraction=st.floats(0.0, 1.0),
    log_epsilon=st.floats(-30.0, math.log10(0.9999)),
)
def test_one_sided_request_equals_that_end_on_drawn_inputs(exponent, fraction, log_epsilon):
    total = max(1, int(10.0**exponent))
    _assert_one_sided_ends_match(10.0**log_epsilon, round(fraction * total), total)


def test_bound_pair_does_not_depend_on_earlier_calls():
    """Equal arguments of another type give the same ends, but the ends of a
    call with plain ints are builtin floats whatever was asked before."""
    first = binomial_bound_pair(1e-7, 12_345, np.int64(67_890))
    again = binomial_bound_pair(1e-7, 12_345, 67_890)
    assert again == first
    assert all(type(end) is float for end in again)


def _kl_sides(monkeypatch, observed, config) -> int:
    """``_solve_kl`` calls of one certification."""
    calls = 0
    solve = concentration._solve_kl

    def counted(p_hat, target, lower):
        nonlocal calls
        calls += 1
        return solve(p_hat, target, lower)

    monkeypatch.setattr(concentration, "_solve_kl", counted)
    evaluate_pipeline(observed, config)
    return calls


def test_certification_solves_only_the_sides_it_reads(monkeypatch, config_1e9):
    """3 sides for each lower decoy bound and 2 for each upper one: 10 on
    sampled counts, 7 when both bases hold one detections triple (as
    ``expected_counts`` gives), whose lower bound serves both."""
    channel = reference_channel(10.0)
    sampled, _ = sample_counts(config_1e9, channel, seed=3)
    triples = (sampled.z_det, sampled.x_det, sampled.x_err)
    assert all(0 < m < t.total for t in triples for m in (t.m_s, t.m_w, t.m_v))
    assert sampled.x_det != sampled.z_det
    assert _kl_sides(monkeypatch, sampled, config_1e9) == 10

    expected, _ = expected_counts(config_1e9, channel)
    assert expected.x_det == expected.z_det
    assert _kl_sides(monkeypatch, expected, config_1e9) == 7
