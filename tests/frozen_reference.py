"""The sampled simulator, the exact fidelity oracle and the Bernoulli
relative entropy as first written, frozen verbatim. The first two drew every
binomial and multinomial, including the ones numpy answers without
randomness, and built every table with fresh temporaries; ``bernoulli_kl``
ran every range check before its interior case. ``test_equivalence.py`` pins
the rewritten package functions to them bit for bit; do not edit them.
"""

from __future__ import annotations

import math

import numpy as np

from corrbb84.correlations import MAX_ORACLE_ROUNDS, Z
from corrbb84.counts import CountTriple, GroundTruth, ObservedCounts
from corrbb84.model import IntensitySet, ProtocolConfig
from corrbb84.oracles import ExplicitDeltas
from corrbb84.simulator import ChannelModel


def _bucket_stats(mu: float, eta: float) -> list[tuple[float, float]]:
    """Per bucket: (emission probability, signal-click probability within
    the bucket) at transmittance eta. Bucket 2 aggregates m >= 2 exactly via
    the Poisson identity sum_m p_m (1-eta)^m = exp(-mu eta)."""
    p0 = math.exp(-mu)
    p1 = mu * math.exp(-mu)
    p2 = max(0.0, 1.0 - p0 - p1)
    stats = [(p0, 0.0), (p1, eta)]
    if p2 > 0.0:
        no_click_mass = math.exp(-mu * eta) - p0 - p1 * (1.0 - eta)
        sig2 = min(1.0, max(0.0, (p2 - no_click_mass) / p2))
        stats.append((p2, sig2))
    else:
        stats.append((0.0, 0.0))
    return stats


def _category_pvals(p_keep: float, error_prob: float) -> np.ndarray:
    """Detected-round split [kZ-err, kZ-ok, kX-err, kX-ok, keep-unsifted,
    trash-sifted, trash-unsifted]."""
    quarter = p_keep / 4.0
    pvals = np.array(
        [
            quarter * error_prob,
            quarter * (1.0 - error_prob),
            quarter * error_prob,
            quarter * (1.0 - error_prob),
            p_keep / 2.0,
            (1.0 - p_keep) / 2.0,
            0.0,
        ]
    )
    pvals[-1] = max(0.0, 1.0 - pvals[:-1].sum())
    return pvals


def _by_category(cells: list) -> list:
    """Regroup ``cells[intensity][bucket][category]`` into, per category, one
    CountTriple per photon bucket."""
    by_bucket = (
        [CountTriple(*per_intensity) for per_intensity in zip(*bucket)]
        for bucket in zip(*cells)
    )
    return list(zip(*by_bucket))


def sample_counts(
    config: ProtocolConfig,
    channel: ChannelModel,
    seed: int,
    coin_minus_prob: float = 0.0,
) -> tuple[ObservedCounts, GroundTruth]:
    """One sampled protocol realization; deterministic for a fixed seed.

    Sampling is hierarchical over intensity choice, photon-number bucket,
    click type and round classification, which reproduces the per-round
    category model exactly without materializing N rounds.
    """
    rng = np.random.default_rng(seed)
    pk = config.p_keep
    y0 = channel.dark_click_prob
    iset = config.intensity_set
    cells = []
    n_by_intensity = rng.multinomial(config.N, [iset.p_s, iset.p_w, iset.p_v])
    n_sifted_det = 0
    trash_sifted_single = 0
    sig_pvals = _category_pvals(pk, channel.misalignment)
    dark_pvals = _category_pvals(pk, 0.5)
    eta = channel.transmittance
    for n_mu, (mu, _) in zip(n_by_intensity, iset.pairs()):
        stats = _bucket_stats(mu, eta)
        bucket_p = np.array([p for p, _ in stats])
        n_buckets = rng.multinomial(n_mu, bucket_p / bucket_p.sum())
        row = []
        for bucket, (n_cell, (_, sig_prob)) in enumerate(zip(n_buckets, stats)):
            sig = int(rng.binomial(n_cell, sig_prob))
            dark = int(rng.binomial(n_cell - sig, y0))
            split = (
                rng.multinomial(sig, sig_pvals) + rng.multinomial(dark, dark_pvals)
            ).tolist()
            # one cell per GroundTruth category: z_det, z_err, x_det, x_err
            row.append((split[0] + split[1], split[0], split[2] + split[3], split[2]))
            n_sifted_det += split[0] + split[1] + split[2] + split[3] + split[5]
            if bucket == 1:
                undetected = n_cell - sig - dark
                trash_sifted_single += split[5]
                trash_sifted_single += int(rng.binomial(undetected, (1.0 - pk) / 2.0))
        cells.append(row)
    minus = int(rng.binomial(trash_sifted_single, coin_minus_prob))
    truth = GroundTruth(*_by_category(cells), trash_minus_single=minus)
    return truth.observed(n_sifted_det), truth


def exact_global_fidelity(
    N: int,
    l_c: int,
    deltas: ExplicitDeltas,
    intensity_set: IntensitySet,
    reference: tuple[int, int] = (0, Z),
) -> float:
    """Exact fidelity between the actual and lag-l_c-truncated source states
    over N rounds: the mean over all 4^N bit/basis histories of the product
    of per-round overlaps.

    Round k's phase difference reads only the settings of rounds 1 .. k-l_c-1
    (those more than l_c rounds back), so the last l_c+1 settings enter no
    factor and averaging over them changes nothing. The product is therefore
    grown over setting prefixes, one axis of 4 per round, and every one of the
    4^(N-l_c-1) prefixes that enters F is enumerated exactly.

    ``deltas`` must cover lags up to N-1; entries beyond lag l_c are the
    long-range contributions the truncated source replaces by the fixed
    ``reference`` setting. The exact trace distance is sqrt(1 - F^2),
    directly comparable to :func:`trace_distance_bound`.
    """
    if N < 1 or N > MAX_ORACLE_ROUNDS:
        raise ValueError(f"exact oracle supports 1 <= N <= {MAX_ORACLE_ROUNDS}, got {N}")
    if l_c < 0:
        raise ValueError(f"l_c must be nonnegative, got {l_c}")
    if deltas.lags < N - 1:
        raise ValueError(f"delta table covers {deltas.lags} lags, need {N - 1}")
    flat = deltas.flat()
    # off[lag-1, s]: lag-l contribution of setting s relative to the reference
    off = flat - flat[:, 2 * reference[0] + reference[1], None]
    total = np.ones(())
    for m in range(1, N - l_c):
        # round m+l_c+1 sees round j <= m at lag m+l_c+1-j; axis j-1 holds its setting
        dtheta = 0.0
        for j in range(m, 0, -1):
            dtheta = dtheta + off[m + l_c - j].reshape((4,) + (1,) * (m - j))
        one_minus_cos = 1.0 - np.cos(dtheta)
        per_round = sum(p * np.exp(-mu * one_minus_cos) for mu, p in intensity_set.pairs())
        total = total[..., None] * per_round
    return float(total.mean())


def bernoulli_kl(p: float, q: float) -> float:
    """Relative entropy D(p || q) between Bernoulli(p) and Bernoulli(q), nats.

    Uses the 0*log(0) = 0 convention; infinite when q puts no mass where p does.
    """
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise ValueError(f"arguments must be probabilities, got p={p}, q={q}")
    kl = 0.0
    if p > 0.0:
        if q == 0.0:
            return math.inf
        kl += p * math.log(p / q)
    if p < 1.0:
        if q == 1.0:
            return math.inf
        kl += (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
    return kl
