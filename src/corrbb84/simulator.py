"""Honest lossy-channel statistics generator.

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
side; correlations enter the security bound and, optionally, the sampled
ground-truth coin tally through ``coin_minus_prob``. Randomness comes from
numpy's PCG64 via ``default_rng(seed)``; one seed fixes the entire draw order.
``sample_counts`` skips the draws numpy answers without touching the bit
generator (a binomial with n == 0 or p == 0.0, a multinomial with n == 0),
so the stream of random numbers, and every seeded output, is the same as
with every draw made. What no seed changes is a :class:`SamplePlan`, which a
caller drawing many seeds of one setting builds once (``sample_plan``) and
passes as ``plan=``; it moves no draw. numpy is imported only when a sample
is drawn, so the expected counts, and the commands built on them, never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .counts import CountTriple, GroundTruth, ObservedCounts
from .model import MAX_BLOCK_SIZE, ConfigError, ProtocolConfig

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class ChannelModel:
    """Honest lossy channel with threshold detectors.

    Defaults: 0.2 dB/km fiber, 25% detector efficiency, 1e-7 dark-count
    probability per detector per gate, 1% misalignment.
    """

    distance_km: float
    attenuation_db_per_km: float = 0.2
    detector_efficiency: float = 0.25
    dark_count_prob: float = 1e-7
    misalignment: float = 0.01

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
    # at a negative distance 10**(-dB/10) is a gain, which can overflow
    elif not channel.distance_km < 0 and not (0.0 < channel.transmittance <= 1.0):
        problems.append(f"transmittance {channel.transmittance} outside (0, 1]")
    if not (0.0 <= channel.dark_count_prob < 1.0):
        problems.append("dark count probability outside [0, 1)")
    if not (0.0 <= channel.misalignment <= 0.5):
        problems.append("misalignment outside [0, 0.5]")
    return problems


def _bucket_stats(mu: float, eta: float) -> tuple[tuple[float, float], ...]:
    """Per bucket: (emission probability, signal-click probability within
    the bucket) at transmittance eta. Bucket 2 aggregates m >= 2 exactly via
    the Poisson identity sum_m p_m (1-eta)^m = exp(-mu eta)."""
    p0 = math.exp(-mu)
    p1 = mu * p0
    p2 = max(0.0, 1.0 - p0 - p1)
    if p2 > 0.0:
        no_click_mass = math.exp(-mu * eta) - p0 - p1 * (1.0 - eta)
        return (p0, 0.0), (p1, eta), (p2, min(1.0, max(0.0, (p2 - no_click_mass) / p2)))
    return (p0, 0.0), (p1, eta), (0.0, 0.0)


def _category_pvals(p_keep: float, error_prob: float) -> list[float]:
    """Detected-round split [kZ-err, kZ-ok, kX-err, kX-ok, keep-unsifted,
    trash-sifted, trash-unsifted]."""
    quarter = p_keep / 4.0
    kz_err = kx_err = quarter * error_prob
    kz_ok = kx_ok = quarter * (1.0 - error_prob)
    keep_unsifted = p_keep / 2.0
    trash_sifted = (1.0 - p_keep) / 2.0
    # left to right, as numpy sums fewer than eight values
    sifted = kz_err + kz_ok + kx_err + kx_ok + keep_unsifted + trash_sifted
    return [kz_err, kz_ok, kx_err, kx_ok, keep_unsifted, trash_sifted, max(0.0, 1.0 - sifted)]


def expected_counts(
    config: ProtocolConfig, channel: ChannelModel
) -> tuple[ObservedCounts, GroundTruth]:
    """Deterministic rounded expectations of one protocol run.

    Every ground-truth cell is rounded individually and the announced counts
    are sums of those cells, so the marginal-consistency invariant holds
    exactly. ``n_sifted_det`` is half of the expected detections; the honest
    channel's coin tally ``trash_minus_single`` is 0. Both bases share one
    triple per category.
    """
    pk = config.p_keep
    e_mis = channel.misalignment
    y0 = channel.dark_click_prob
    eta = channel.transmittance
    N = config.N
    det, err = [], []  # rounded cells, (s, w, v) x (bucket 0, 1, 2)
    total_detected = 0.0
    for mu, p_mu in config.intensity_set.pairs():
        n_mu = N * p_mu
        for p_bucket, sig_prob in _bucket_stats(mu, eta):
            n_cell = n_mu * p_bucket
            sig = n_cell * sig_prob
            dark = (n_cell - sig) * y0
            detected = sig + dark
            total_detected += detected
            det.append(round(detected * pk / 4.0))
            err.append(round((sig * e_mis + dark * 0.5) * pk / 4.0))
    s0, s1, s2, w0, w1, w2, v0, v1, v2 = det
    det_marginal = CountTriple(s0 + s1 + s2, w0 + w1 + w2, v0 + v1 + v2)
    det_buckets = (CountTriple(s0, w0, v0), CountTriple(s1, w1, v1), CountTriple(s2, w2, v2))
    s0, s1, s2, w0, w1, w2, v0, v1, v2 = err
    err_marginal = CountTriple(s0 + s1 + s2, w0 + w1 + w2, v0 + v1 + v2)
    err_buckets = (CountTriple(s0, w0, v0), CountTriple(s1, w1, v1), CountTriple(s2, w2, v2))
    # the Z and X bases are symmetric
    truth = GroundTruth(det_buckets, err_buckets, det_buckets, err_buckets)
    # per-cell rounding may nudge keep-sifted sums past detected/2; keep the
    # count invariant keep-sifted <= sifted intact
    n_sifted_det = max(round(total_detected / 2.0), 2 * det_marginal.total)
    observed = ObservedCounts(det_marginal, err_marginal, det_marginal, err_marginal, n_sifted_det)
    return observed, truth


@dataclass(frozen=True, slots=True, eq=False)
class SamplePlan:
    """What :func:`sample_counts` draws from and no seed changes, for one
    config, channel and coin probability. It holds no generator."""

    config: ProtocolConfig
    channel: ChannelModel
    coin_minus_prob: float
    intensity_probs: list[float]
    buckets: tuple  # per intensity: normalised bucket and signal-click probabilities
    y0: float
    sig_pvals: np.ndarray  # the 7-category splits of signal and dark clicks
    dark_pvals: np.ndarray
    trash_prob: float  # (1 - p_keep) / 2


def sample_plan(
    config: ProtocolConfig, channel: ChannelModel, coin_minus_prob: float = 0.0
) -> SamplePlan:
    """The :class:`SamplePlan` of a setting, validated or not (a library caller may
    draw at N = 0). A coin probability outside [0, 1] is a ValueError, then an N
    beyond the model's ``MAX_BLOCK_SIZE`` a ConfigError, before numpy loads."""
    if not 0.0 <= coin_minus_prob <= 1.0:
        raise ValueError(f"coin_minus_prob must lie in [0, 1], got {coin_minus_prob}")
    if config.N > MAX_BLOCK_SIZE:
        raise ConfigError(f"sampled simulation needs N <= {MAX_BLOCK_SIZE}, got {config.N}")
    import numpy as np

    iset, pk, buckets = config.intensity_set, config.p_keep, []
    for mu, _ in iset.pairs():
        stats = _bucket_stats(mu, channel.transmittance)
        norm = stats[0][0] + stats[1][0] + stats[2][0]  # numpy's sum of three, left to right
        buckets.append((np.array([p / norm for p, _ in stats]), tuple(sig for _, sig in stats)))
    return SamplePlan(config, channel, coin_minus_prob, [iset.p_s, iset.p_w, iset.p_v],
                      tuple(buckets), channel.dark_click_prob,
                      np.array(_category_pvals(pk, channel.misalignment)),
                      np.array(_category_pvals(pk, 0.5)), (1.0 - pk) / 2.0)


def sample_counts(
    config: ProtocolConfig,
    channel: ChannelModel,
    seed: int,
    coin_minus_prob: float = 0.0,
    *, plan: SamplePlan | None = None,
) -> tuple[ObservedCounts, GroundTruth]:
    """One sampled protocol realization; deterministic for a fixed seed.

    Sampling is hierarchical over intensity choice, photon-number bucket,
    click type and round classification, which reproduces the per-round
    category model exactly without materializing N rounds.

    A binomial draw with n == 0 or p == 0.0 and a multinomial draw with
    n == 0 return zeros without consuming randomness, so they are skipped;
    every other draw is made in the same order with the same arguments, and
    a seed gives the same counts as drawing all of them. ``plan``, the
    :func:`sample_plan` of the arguments (built here when not given, with its
    checks), moves no draw; a plan of another setting is a ValueError.
    """
    if plan is None:
        plan = sample_plan(config, channel, coin_minus_prob)
    elif (plan.config, plan.channel, plan.coin_minus_prob) != (config, channel, coin_minus_prob):
        raise ValueError("plan was built for another config, channel or coin probability")
    import numpy as np

    rng = np.random.default_rng(seed)
    binomial, multinomial = rng.binomial, rng.multinomial
    y0, sig_pvals, dark_pvals = plan.y0, plan.sig_pvals, plan.dark_pvals
    # cells[category][bucket][intensity] for z_det, z_err, x_det, x_err
    cells = [[[0, 0, 0] for _ in range(3)] for _ in range(4)]
    z_det, z_err, x_det, x_err = cells
    n_sifted_det = trash_sifted_single = 0
    n_by_intensity = multinomial(config.N, plan.intensity_probs).tolist() if config.N else (0, 0, 0)
    for i, (n_mu, (bucket_probs, sig_probs)) in enumerate(zip(n_by_intensity, plan.buckets)):
        if not n_mu:
            continue
        n_buckets = multinomial(n_mu, bucket_probs).tolist()
        for bucket, (n_cell, sig_prob) in enumerate(zip(n_buckets, sig_probs)):
            if not n_cell:
                continue
            sig = binomial(n_cell, sig_prob) if sig_prob != 0.0 else 0
            dark = binomial(n_cell - sig, y0) if n_cell != sig and y0 != 0.0 else 0
            split = multinomial(sig, sig_pvals).tolist() if sig else None
            if dark:
                dark_split = multinomial(dark, dark_pvals).tolist()
                split = dark_split if split is None else [a + b for a, b in zip(split, dark_split)]
            trash_sifted = 0
            if split is not None:
                kz_err, kz_ok, kx_err, kx_ok, _, trash_sifted, _ = split
                z_det[bucket][i] = kz_err + kz_ok
                z_err[bucket][i] = kz_err
                x_det[bucket][i] = kx_err + kx_ok
                x_err[bucket][i] = kx_err
                n_sifted_det += kz_err + kz_ok + kx_err + kx_ok + trash_sifted
            if bucket == 1:
                undetected = n_cell - sig - dark
                trash_sifted_single += trash_sifted
                if undetected and plan.trash_prob != 0.0:
                    trash_sifted_single += binomial(undetected, plan.trash_prob)
    truth = GroundTruth(
        *[(CountTriple(*b0), CountTriple(*b1), CountTriple(*b2)) for b0, b1, b2 in cells],
        trash_minus_single=binomial(trash_sifted_single, coin_minus_prob)
        if trash_sifted_single and coin_minus_prob != 0.0 else 0,
    )
    return truth.observed(n_sifted_det), truth
