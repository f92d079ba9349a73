"""Setting-history correlations of the encoder, and their security inputs.

The encoder is modeled as linear time-invariant: the emitted phase of round k
picks up an additive contribution from the bit/basis choice made l rounds
earlier, and the spread of those contributions at lag l is bounded by
Delta_l = Delta_1 * exp(-C (l-1)). Unbounded tails are handled by truncating
at an effective length l_c_eff and accounting the truncation error as a trace
distance between the actual and truncated source states.

Two families of results live here:

* closed-form bounds in plain ``math``. The key-rate pipeline runs
  ``coin_parameter_bound``, ``required_truncation_length``, the one rule that
  picks the length the analysis runs at (``effective_length``) and the
  model's invariants (``validate_correlation``); ``trace_distance_bound`` is
  the forward form of the truncation rule, which only validation calls;
* the exact desk-scale fidelity oracle ``exact_global_fidelity`` that the
  trace-distance bound is validated against; it imports numpy when called.

Coin oracles, delta tables and their Delta_l live in :mod:`corrbb84.oracles`.

Bit/basis settings are indexed as a in {0, 1} and basis Z=0, X=1 throughout;
a flat setting id is ``2*a + basis``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .model import ConfigError, IntensitySet, require

if TYPE_CHECKING:
    from collections.abc import Sequence

    from .oracles import ExplicitDeltas

Z, X = 0, 1

MAX_ORACLE_ROUNDS = 8
# the coin bound computes a factor per lag (about 0.3 us) until 1 - cos Delta_l
# rounds to 0, Delta_l below about 2^-26; effective_length refuses more lags
MAX_COIN_LAGS = 10**5


@dataclass(frozen=True)
class CorrelationModel:
    """Exponentially decaying correlation magnitudes plus truncation choice.

    ``delta_1`` is the nearest-neighbour magnitude (radians, in [0, pi]),
    ``decay_C`` the exponential decay rate (> 0), ``truncation_d`` the
    tolerated truncation error in [0, 1), and ``l_c_eff`` an explicit
    correlation length >= 0 (0: derive it from d, see :func:`effective_length`).
    Use :func:`validate_correlation` for the list of violated invariants.
    """

    delta_1: float
    decay_C: float
    truncation_d: float = 0.0
    l_c_eff: int = 0


def tail_sum(l_c: int, model: CorrelationModel) -> float:
    """Geometric tail sum of correlation magnitudes beyond lag l_c,
    Delta_1 * exp(-C l_c) / (1 - exp(-C))."""
    if l_c < 0:
        raise ValueError(f"l_c must be nonnegative, got {l_c}")
    return model.delta_1 * math.exp(-model.decay_C * l_c) / (1.0 - math.exp(-model.decay_C))


def required_truncation_length(N: int, mean_mu: float, model: CorrelationModel) -> int:
    """Smallest truncation length whose tail-induced trace distance is <= d.

    Ceiling of (1/C) ln(sqrt(N mu_bar) Delta_1 / (d (1 - e^-C))), floored at 1.
    Meaningless when d = 0 or Delta_1 = 0 (no truncation needed); callers then
    supply an explicit length instead. Raises
    :class:`~corrbb84.model.ConfigError` when the log's argument is 0 or inf.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if mean_mu <= 0:
        raise ValueError(f"mean intensity must be positive, got {mean_mu}")
    if model.truncation_d <= 0 or model.delta_1 <= 0:
        raise ValueError(
            "required_truncation_length needs d > 0 and delta_1 > 0; "
            "use an explicit correlation length otherwise"
        )
    denom = model.truncation_d * (1.0 - math.exp(-model.decay_C))
    ratio = math.sqrt(N * mean_mu) * model.delta_1 / denom if denom > 0.0 else math.inf
    if ratio == 0.0:
        raise ConfigError(f"sqrt(N mu_bar) delta_1 / (d (1 - e^-C)) underflows to 0 at {mean_mu}")
    length = math.log(ratio) / model.decay_C
    if length == math.inf:  # 1 - e^-C, or d times it, rounds to 0
        raise ConfigError(f"decay_C={model.decay_C} with d={model.truncation_d} "
                          "needs a truncation length beyond any float")
    return max(1, math.ceil(length))


def validate_correlation(model: CorrelationModel) -> list[str]:
    """List of violated invariants; empty means the model is usable."""
    problems = []
    if not (0.0 <= model.delta_1 <= math.pi):
        problems.append(f"delta_1 must lie in [0, pi], got {model.delta_1}")
    if not (0.0 < model.decay_C < math.inf):
        problems.append(f"decay_C must be positive and finite, got {model.decay_C}")
    if not (0.0 <= model.truncation_d < 1.0):
        problems.append(f"truncation_d must lie in [0, 1), got {model.truncation_d}")
    if model.l_c_eff < 0:
        problems.append(f"l_c_eff must be nonnegative, got {model.l_c_eff}")
    elif model.delta_1 > 0.0 and model.truncation_d == 0.0 and model.l_c_eff == 0:
        problems.append("correlated source with d=0 needs an explicit positive l_c_eff")
    return problems


def effective_length(N: int, mean_mu: float, model: CorrelationModel | None) -> int:
    """Correlation length the analysis runs at: 0 without a model, else the
    explicit ``l_c_eff``, else the length that truncation budget d requires.

    With delta_1 > 0 and d > 0 an explicit length must reach
    :func:`required_truncation_length`. A length beyond ``MAX_COIN_LAGS`` is
    refused when 1 - cos Delta_l is still nonzero at that lag, where
    :func:`coin_parameter_bound` would not yet have stopped. Any violation
    raises :class:`~corrbb84.model.ConfigError`.
    """
    if model is None:
        return 0
    require(validate_correlation(model))
    l_c = model.l_c_eff
    if model.delta_1 > 0.0 and model.truncation_d > 0.0:
        needed = required_truncation_length(N, mean_mu, model)
        if l_c == 0:
            l_c = needed
        elif l_c < needed:
            raise ConfigError(
                f"l_c_eff={l_c} below the required truncation length {needed} "
                f"for d={model.truncation_d}"
            )
    if l_c > MAX_COIN_LAGS and (
        1.0 - math.cos(model.delta_1 * math.exp(-model.decay_C * MAX_COIN_LAGS)) != 0.0
    ):
        raise ConfigError(
            f"decay_C={model.decay_C} with delta_1={model.delta_1} and l_c={l_c} makes the "
            f"coin bound compute more than {MAX_COIN_LAGS} lags"
        )
    return l_c


def trace_distance_bound(N: int, mean_mu: float, l_c: int, model: CorrelationModel) -> float:
    """Bound on the trace distance between the actual source state over N
    rounds and the one with correlations truncated at length l_c:
    min(1, sqrt(N mu_bar) * tail_sum(l_c))."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    return min(1.0, math.sqrt(N * mean_mu) * tail_sum(l_c, model))


def coin_parameter_bound(
    l_c: int, intensity_set: IntensitySet, model: CorrelationModel
) -> float:
    """Worst-case minus probability of the basis-coin measurement on a
    single-photon trash round, for spreads bounded by the model:
    (1/2) [1 - prod_{l=1}^{l_c} min(1, sum_mu p_mu exp(-mu (1 - cos Delta_l)))].

    The clamp changes nothing unless the probabilities sum above 1 (allowed
    within ``PROB_SUM_TOL``). A vacuum intensity v = 0 adds p_v itself, the
    exact value of its term. Delta_l decreases, so from the first lag where
    1 - cos Delta_l rounds to 0.0 (Delta_l below about 1e-8) every factor is
    the clamped probability sum ``flat``. If that is exactly 1 the loop stops
    there; otherwise the remaining factors are taken as one power of
    ``flat``, rounded down, which can only raise the bound.

    Monotone nondecreasing in l_c, Delta_1 and every intensity; in [0, 1/2].
    In Delta_1 that holds to one ulp of 1 when the probabilities sum below 1,
    because a lag that turns flat moves its factor into the rounded-down tail.
    """
    if l_c < 0:
        raise ValueError(f"l_c must be nonnegative, got {l_c}")
    (s, p_s), (w, p_w), (v, p_v) = intensity_set.pairs()
    flat = min(1.0, p_s + p_w + p_v)
    delta_1, minus_c, exp, cos = model.delta_1, -model.decay_C, math.exp, math.cos
    minus_s, minus_w, minus_v, vacuum = -s, -w, -v, v == 0.0
    product = 1.0
    for lag in range(l_c):  # lag = l - 1 for l = 1 .. l_c
        one_minus_cos = 1.0 - cos(delta_1 * exp(minus_c * lag))
        if one_minus_cos == 0.0:
            if flat != 1.0:
                product = math.nextafter(product * flat ** (l_c - lag), 0.0)
            break
        factor = (p_s * exp(minus_s * one_minus_cos) + p_w * exp(minus_w * one_minus_cos)
                  + (p_v if vacuum else p_v * exp(minus_v * one_minus_cos)))
        product *= factor if factor < 1.0 else 1.0
    return 0.5 * (1.0 - product)


def exact_global_fidelity(
    N: int,
    l_c: int,
    tables: Sequence[ExplicitDeltas],
    intensity_set: IntensitySet,
) -> list[float]:
    """Exact fidelity between the actual and lag-l_c-truncated source states
    over N rounds, one per delta table: the mean over all 4^N bit/basis
    histories of the product of per-round overlaps.

    Round k's phase difference reads only the settings of rounds 1 .. k-l_c-1
    (those more than l_c rounds back), so the last l_c+1 settings enter no
    factor and averaging over them changes nothing. The product is therefore
    grown over setting prefixes, one axis of 4 per round, and every one of the
    4^R prefixes (R = N-l_c-1) that enters F is enumerated exactly.

    Round m's phase differences are round m-1's on axes 1 .. m-1 plus one new
    axis in front, summed in the same order. The reference setting's offset
    is 0.0 and 0.0 + x == x (cos ignores a zero's sign), so round m-1's table
    is the first quarter of round m's: cos and exp run on round R's 4^R slots
    only, round m's factors being the first 4^m. Tables are stacked in chunks
    of at most 4^7 slots, and the products grow in used-up rows of the work
    array. A zero intensity's term is the constant p, as p * exp(-0.0 * x) ==
    p. Each result is the same bit for bit as building every round's table
    afresh.

    Every table must cover lags up to N-1; entries beyond lag l_c are the
    long-range contributions the truncated source replaces by those of the
    fixed reference setting, bit 0 in basis Z (setting 0). The exact trace
    distance is sqrt(1 - F^2), directly comparable to
    :func:`trace_distance_bound`.
    """
    import numpy as np

    if N < 1 or N > MAX_ORACLE_ROUNDS:
        raise ValueError(f"exact oracle supports 1 <= N <= {MAX_ORACLE_ROUNDS}, got {N}")
    if l_c < 0:
        raise ValueError(f"l_c must be nonnegative, got {l_c}")
    if any(deltas.lags < N - 1 for deltas in tables):
        raise ValueError(f"every delta table must cover {N - 1} lags")
    rounds = N - l_c - 1
    if rounds < 1 or not tables:
        return [1.0] * len(tables)  # no round reads a lag beyond l_c
    flat = np.array([deltas.flat()[l_c:N - 1] for deltas in tables])
    # off[t, m-1, s]: table t's lag-(l_c+m) contribution of setting s relative to setting 0
    off = flat - flat[:, :, :1]
    pairs = intensity_set.pairs()
    neg_mu = np.array([-mu for mu, _ in pairs if mu != 0.0])[:, None, None]
    p_mu = np.array([p for mu, p in pairs if mu != 0.0])[:, None, None]
    size, per = 4**rounds, 4 ** (MAX_ORACLE_ROUNDS - 1 - rounds)  # slots, tables per chunk
    work = np.empty((2 + len(neg_mu), min(per, len(tables)) * size))
    fidelities = []
    for chunk in np.split(off, range(per, len(tables), per)):
        grid = work[:, :len(chunk) * size].reshape(len(work), len(chunk), size)
        factor, terms = grid[1], grid[2:]
        grid[rounds % 2, :, 0] = 0.0  # round 0: no lag summed yet
        for m in range(1, rounds + 1):  # round m in row (R-m) % 2, so round R lands in row 0
            # round m+l_c+1 sees round j <= m (axis j-1) at lag m+l_c+1-j: axis 0 adds lag l_c+m
            np.add(chunk[:, m - 1, :, None], grid[(rounds - m + 1) % 2, :, None, :4 ** (m - 1)],
                   out=grid[(rounds - m) % 2, :, :4**m].reshape(len(chunk), 4, -1))
        np.cos(grid[0], out=grid[0])
        np.subtract(1.0, grid[0], out=grid[0])
        np.multiply(neg_mu, grid[0], out=terms)
        np.exp(terms, out=terms)
        np.multiply(terms, p_mu, out=terms)
        left = iter(terms)  # the intensity terms in (s, w, v) order
        s_term, w_term, v_term = (p if mu == 0.0 else next(left) for mu, p in pairs)
        np.add(np.add(s_term, w_term, out=factor), v_term, out=factor)
        product = factor[:, :4]
        for m in range(2, rounds + 1):  # rows 0 and 2 take turns holding the product up to m
            grown = grid[2 * (m % 2), :, :4**m].reshape(len(chunk), -1, 4)
            block = factor[:, :4**m].reshape(grown.shape)
            product = np.multiply(block, product[:, :, None], out=grown).reshape(len(chunk), -1)
        fidelities += product.mean(axis=1).tolist()
    return fidelities
