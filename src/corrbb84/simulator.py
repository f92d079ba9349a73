"""Honest lossy-channel statistics generator and the coin sampling oracle.

``expected_counts`` produces deterministic rounded expectations,
``sample_counts`` draws one protocol realization; both return the announced
:class:`~corrbb84.counts.ObservedCounts` together with a hidden
:class:`~corrbb84.counts.GroundTruth` that resolves every tally by photon
number (buckets 0, 1, 2+), which the validation oracles need and which no
real run could see.

Channel model: per emitted m-photon pulse, a signal click occurs with
probability 1 - (1-eta)^m (bit then decided by the signal, error probability
= misalignment); otherwise either of the two detectors dark-counts with
probability Y0 = 2 p_dark - p_dark^2 (bit random, error probability 1/2;
double clicks are squashed to a random bit, hence the 1/2). The overall
yield is Y_m = 1 - (1 - Y0)(1 - eta)^m.

The honest channel does not emulate any correlation-induced error on Bob's
side; correlations enter the security bound and, optionally, the ground-truth
coin tally through ``coin_minus_prob``. Randomness comes from numpy's
PCG64 via ``default_rng(seed)``; one seed fixes the entire draw order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlations import ExplicitDeltas, exact_coin_parameter
from .counts import CountTriple, GroundTruth, ObservedCounts
from .keyrate import DEFAULT_F_EC
from .model import ProtocolConfig, single_photon_prob


@dataclass(frozen=True)
class ChannelModel:
    """Honest lossy channel with threshold detectors.

    Defaults: 0.2 dB/km fiber, 25% detector efficiency, 1e-7 dark-count
    probability per detector per gate, 1% misalignment, error-correction
    inefficiency ``keyrate.DEFAULT_F_EC``.
    """

    distance_km: float
    attenuation_db_per_km: float = 0.2
    detector_efficiency: float = 0.25
    dark_count_prob: float = 1e-7
    misalignment: float = 0.01
    f_EC: float = DEFAULT_F_EC

    @property
    def transmittance(self) -> float:
        """Overall single-photon transmittance eta, detector included."""
        return self.detector_efficiency * 10.0 ** (
            -self.attenuation_db_per_km * self.distance_km / 10.0
        )

    @property
    def dark_click_prob(self) -> float:
        """Probability that at least one of the two detectors dark-counts."""
        p = self.dark_count_prob
        return 2.0 * p - p * p


def validate_channel(channel: ChannelModel) -> list[str]:
    problems = []
    if channel.distance_km < 0:
        problems.append(f"distance must be nonnegative, got {channel.distance_km}")
    if channel.attenuation_db_per_km <= 0:
        problems.append("attenuation must be positive")
    if not (0.0 < channel.transmittance <= 1.0):
        problems.append(f"transmittance {channel.transmittance} outside (0, 1]")
    if not (0.0 <= channel.dark_count_prob < 1.0):
        problems.append("dark count probability outside [0, 1)")
    if not (0.0 <= channel.misalignment <= 0.5):
        problems.append("misalignment outside [0, 0.5]")
    if channel.f_EC < 1.0:
        problems.append("f_EC must be >= 1")
    return problems


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


def expected_counts(
    config: ProtocolConfig,
    channel: ChannelModel,
    coin_minus_prob: float = 0.0,
) -> tuple[ObservedCounts, GroundTruth]:
    """Deterministic rounded expectations of one protocol run.

    Every ground-truth cell is rounded individually and the announced counts
    are sums of those cells, so the marginal-consistency invariant holds
    exactly. ``n_sifted_det`` is half of the expected detections.
    """
    pk = config.p_keep
    e_mis = channel.misalignment
    y0 = channel.dark_click_prob
    eta = channel.transmittance
    # rounded cells, det[bucket][intensity] and err[bucket][intensity]
    det = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    err = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    total_detected = 0.0
    for i, (mu, p_mu) in enumerate(config.intensity_set.pairs()):
        for bucket, (p_bucket, sig_prob) in enumerate(_bucket_stats(mu, eta)):
            n_cell = config.N * p_mu * p_bucket
            sig = n_cell * sig_prob
            dark = (n_cell - sig) * y0
            detected = sig + dark
            total_detected += detected
            det[bucket][i] = round(detected * pk / 4.0)
            err[bucket][i] = round((sig * e_mis + dark * 0.5) * pk / 4.0)
    det_marginal = CountTriple(*map(sum, zip(*det)))
    err_marginal = CountTriple(*map(sum, zip(*err)))
    det_buckets = tuple(CountTriple(*row) for row in det)
    err_buckets = tuple(CountTriple(*row) for row in err)
    truth = GroundTruth(  # the Z and X bases are symmetric
        z_det=det_buckets,
        z_err=err_buckets,
        x_det=det_buckets,
        x_err=err_buckets,
        trash_minus_single=round(
            config.N * single_photon_prob(config.intensity_set)
            * (1.0 - pk) / 2.0 * coin_minus_prob
        ),
    )
    # per-cell rounding may nudge keep-sifted sums past detected/2; keep the
    # count invariant keep-sifted <= sifted intact
    n_sifted_det = max(round(total_detected / 2.0), 2 * det_marginal.total)
    observed = ObservedCounts(det_marginal, err_marginal, det_marginal, err_marginal, n_sifted_det)
    return observed, truth


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
    round (see :func:`~corrbb84.correlations.exact_coin_parameter`), so
    the tally is sampled with nested binomials -- distributionally exact.
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
