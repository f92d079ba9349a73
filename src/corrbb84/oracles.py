"""Exact brute-force coin oracles at desk scale, with their delta tables.

An :class:`ExplicitDeltas` table fixes every per-lag phase contribution of a
source. The random and extreme tables are admissible for a
:class:`~corrbb84.correlations.CorrelationModel`: their spread at every lag
stays within Delta_l (``correlation_magnitude``, derived apart from the
certification code). ``exact_coin_parameter`` is the exact counterpart of
``coin_parameter_bound`` and ``coin_monte_carlo`` samples the tally it
implies; no certification reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlations import X, Z, CorrelationModel
from .model import IntensitySet, ProtocolConfig, single_photon_prob

MAX_ORACLE_LC = 3


@dataclass(frozen=True)
class ExplicitDeltas:
    """Explicit per-lag phase contributions delta[lag-1, bit, basis] (radians).

    ``table`` has shape (lags, 2, 2) and finite entries; row l-1 holds the
    four lag-l values. Admissibility against a :class:`CorrelationModel`
    means the spread of the four values at lag l is at most Delta_l.
    """

    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=float)
        if table.ndim != 3 or table.shape[1:] != (2, 2):
            raise ValueError(f"delta table must have shape (lags, 2, 2), got {table.shape}")
        if not np.isfinite(table).all():
            # a NaN spread would pass an admissibility check and the oracles return NaN
            raise ValueError("delta table entries must be finite")
        object.__setattr__(self, "table", table)

    @property
    def lags(self) -> int:
        return self.table.shape[0]

    def flat(self) -> np.ndarray:
        """Shape (lags, 4) view indexed by setting id 2*a + basis."""
        return self.table.reshape(self.lags, 4)


def correlation_magnitude(l: int, model: CorrelationModel) -> float:
    """Spread bound Delta_l = Delta_1 * exp(-C (l-1)) at lag l >= 1."""
    if l < 1:
        raise ValueError(f"lag must be >= 1, got {l}")
    return model.delta_1 * math.exp(-model.decay_C * (l - 1))


def _coin_overlap_sum(l_c: int, deltas: ExplicitDeltas, intensity_set: IntensitySet) -> float:
    """Sign-compensated overlap sum S of the four (X-bit, Z-bit) branch pairs.

    The coin-minus probability of a single-photon trash round is (1 - S)/2.
    Only phase *differences* of the two compared round-k settings enter each
    later-round overlap, so the surrounding setting history cancels and S is
    the same for every neighbourhood; the maximum over neighbourhoods is
    therefore S itself, with no enumeration needed.
    """
    if deltas.lags < l_c:
        raise ValueError(f"delta table covers {deltas.lags} lags, need {l_c}")
    (s, p_s), (w, p_w), (v, p_v) = intensity_set.pairs()
    total = 0.0
    for a_x in (0, 1):
        for a_z in (0, 1):
            product = 1.0
            for l in range(1, l_c + 1):
                diff = deltas.table[l - 1, a_x, X] - deltas.table[l - 1, a_z, Z]
                one_minus_cos = 1.0 - math.cos(diff)
                # left to right: sum() compensates from Python 3.12 on
                product *= (p_s * math.exp(-s * one_minus_cos)
                            + p_w * math.exp(-w * one_minus_cos)
                            + p_v * math.exp(-v * one_minus_cos))
            total += product
    return 0.25 * total


def exact_coin_parameter(
    l_c: int, deltas: ExplicitDeltas, intensity_set: IntensitySet
) -> float:
    """Exact coin-minus probability for an explicit delta table, desk scale.

    Brute-force counterpart of :func:`coin_parameter_bound`; restricted to
    l_c <= 3 (bulk rounds dominate: edge rounds carry fewer overlap factors,
    each of which lies in (0, 1])."""
    if l_c < 0 or l_c > MAX_ORACLE_LC:
        raise ValueError(f"exact oracle supports 0 <= l_c <= {MAX_ORACLE_LC}, got {l_c}")
    return 0.5 * (1.0 - _coin_overlap_sum(l_c, deltas, intensity_set))


def random_admissible_deltas(
    model: CorrelationModel, lags: int, rng: np.random.Generator, count: int
) -> list[ExplicitDeltas]:
    """``count`` tables, each a uniform draw from [-Delta_l/2, +Delta_l/2] per
    setting at each lag; every pairwise difference then respects the lag's
    spread bound. One ``rng.uniform`` call draws them all, the same values
    as ``count`` draws of one table each."""
    half = np.array([correlation_magnitude(l, model) / 2.0 for l in range(1, lags + 1)])
    tables = rng.uniform(-1.0, 1.0, size=(count, lags, 2, 2)) * half[:, None, None]
    return [ExplicitDeltas(table) for table in tables]


def extreme_deltas(model: CorrelationModel, lags: int) -> ExplicitDeltas:
    """Admissible table that saturates every X-vs-Z difference at Delta_l,
    which attains the closed-form coin bound exactly."""
    half = np.array([correlation_magnitude(l, model) / 2.0 for l in range(1, lags + 1)])
    table = np.empty((lags, 2, 2))
    table[:, :, Z] = -half[:, None]
    table[:, :, X] = half[:, None]
    return ExplicitDeltas(table)


def coin_monte_carlo(
    N: int,
    config: ProtocolConfig,
    deltas: ExplicitDeltas,
    l_c: int,
    trials: int,
    seed: int,
) -> np.ndarray:
    """Empirical distribution of the single-photon trash-sifted coin-minus
    tally over ``trials`` independent runs of N rounds.

    A round qualifies when it emits exactly one photon (probability p1),
    is assigned to trash (1 - p_keep) and sifted (1/2); a qualifying round
    yields minus with the exact conditional probability of its setting
    neighbourhood, which the LTI delta table makes identical for every
    round (see :func:`exact_coin_parameter`), so the tally is sampled with
    nested binomials -- distributionally exact.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    p_minus = exact_coin_parameter(l_c, deltas, config.intensity_set)
    p_qualify = (
        single_photon_prob(config.intensity_set) * (1.0 - config.p_keep) / 2.0
    )
    rng = np.random.default_rng(seed)
    qualifying = rng.binomial(N, p_qualify, size=trials)
    return rng.binomial(qualifying, p_minus)
