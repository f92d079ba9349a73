"""The sampled simulator, the exact fidelity oracle, the Bernoulli relative
entropy, the decoy bounds and the coin-parameter bound as first written,
frozen verbatim. The first two drew every binomial and multinomial,
including the ones numpy answers without randomness, and built every table
with fresh temporaries; ``bernoulli_kl`` ran every range check before its
interior case; ``single_photon_prob`` and ``mean_intensity`` summed a
generator over ``pairs()`` with ``sum()``, written out here left to right as
``sum()`` added before Python 3.12 compensated it; the decoy bounds derived
p1 and the e^mu / p_mu weights afresh in each of a run's four bounds, and
the coin bound evaluated p_v exp(-v x) at v = 0. ``test_equivalence.py``
pins the rewritten package functions to them bit for bit; do not edit them
(the sums aside, they are as first written). ``newton_root`` is the KL
root search with its cubic Taylor start, which only places the replay band
of ``concentration._solve_kl``; ``test_concentration.py`` counts its D
evaluations against the package's. ``expected_counts``, ``observed`` (the
method ``GroundTruth.observed``) and ``validate`` (``ObservedCounts.validate``)
built the counts records through ``zip``/``map``/``sum`` passes, a nested
helper and a ``getattr`` loop. ``DecoyBounds``, ``PhaseErrorBound``,
``KeyRateResult``, ``coin_envelope``, ``phase_error_rate_bound`` and
``evaluate_pipeline`` built the audit dicts on every call, before the
package kept stage records and built the audit from them when read; the pipeline
here runs the decoy bounds above, whose audit values are the package's.
``random_admissible_deltas`` drew one table per call, before a case's tables
were drawn in one call; the fidelity oracle took one table per call too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from corrbb84 import concentration
from corrbb84 import correlations as corr
from corrbb84.concentration import azuma_delta, binomial_bound_pair
from corrbb84.correlations import MAX_ORACLE_ROUNDS, Z, CorrelationModel
from corrbb84.counts import CountTriple, GroundTruth, ObservedCounts
from corrbb84.decoy import BoundPair
from corrbb84.keyrate import DEFAULT_F_EC, ec_leakage, key_length, security_parameter
from corrbb84.model import (ConfigError, IntensitySet, ProtocolConfig, lower_denominator,
                            require)
from corrbb84.phase_error import g_interval, pe_shares, total_pe_failure, trash_minus_upper
from corrbb84.oracles import ExplicitDeltas, correlation_magnitude
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


def random_admissible_deltas(
    model: CorrelationModel, lags: int, rng: np.random.Generator
) -> ExplicitDeltas:
    """Uniform draw from [-Delta_l/2, +Delta_l/2] per setting at each lag;
    every pairwise difference then respects the lag's spread bound."""
    half = np.array([correlation_magnitude(l, model) / 2.0 for l in range(1, lags + 1)])
    table = rng.uniform(-1.0, 1.0, size=(lags, 2, 2)) * half[:, None, None]
    return ExplicitDeltas(table)


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


@dataclass(frozen=True, slots=True)
class DecoyBounds:
    z_det_lower: float
    z_det_upper: float
    x_det_lower: float
    x_err_upper: float
    audit: dict = field(default_factory=dict, compare=False)


def single_photon_lower(
    counts: CountTriple,
    iset: IntensitySet,
    eps_B: float,
    bound_pair: BoundPair = binomial_bound_pair,
) -> dict:
    """Lower bound on the single-photon share of one event class.

    ``["value"]`` holds except with probability 3 * eps_B (three one-sided
    bound substitutions) and is clamped to [0, total]; a negative analytic
    value carries no information. The other entries are its intermediates.
    """
    denom = lower_denominator(iset)
    if denom <= 0.0:
        raise ConfigError(
            f"s(w-v) - w^2 + v^2 = {denom} must be positive (need s > w + v)"
        )
    total = counts.total
    m_w_lo = bound_pair(eps_B, counts.m_w, total, True, False)[0]
    m_v_hi = bound_pair(eps_B, counts.m_v, total, False, True)[1]
    m_s_hi = bound_pair(eps_B, counts.m_s, total, False, True)[1]
    p1 = single_photon_prob(iset)
    raw = (p1 * iset.s / denom) * (
        math.exp(iset.w) / iset.p_w * m_w_lo
        - math.exp(iset.v) / iset.p_v * m_v_hi
        - (iset.w**2 - iset.v**2) / iset.s**2 * math.exp(iset.s) / iset.p_s * m_s_hi
    )
    return {
        "raw": raw,
        "value": min(max(0.0, raw), float(total)),
        "m_w_lower": m_w_lo,
        "m_v_upper": m_v_hi,
        "m_s_upper": m_s_hi,
    }


def single_photon_upper(
    counts: CountTriple,
    iset: IntensitySet,
    eps_B: float,
    bound_pair: BoundPair = binomial_bound_pair,
) -> dict:
    """Upper bound on the single-photon share of one event class.

    ``["value"]`` holds except with probability 2 * eps_B and is clamped to
    [0, total]. The other entries are its intermediates.
    """
    if iset.w <= iset.v:
        raise ConfigError(f"need w > v, got w={iset.w}, v={iset.v}")
    total = counts.total
    m_w_hi = bound_pair(eps_B, counts.m_w, total, False, True)[1]
    m_v_lo = bound_pair(eps_B, counts.m_v, total, True, False)[0]
    p1 = single_photon_prob(iset)
    raw = (p1 / (iset.w - iset.v)) * (
        math.exp(iset.w) / iset.p_w * m_w_hi - math.exp(iset.v) / iset.p_v * m_v_lo
    )
    return {
        "raw": raw,
        "value": min(max(0.0, raw), float(total)),
        "m_w_upper": m_w_hi,
        "m_v_lower": m_v_lo,
    }


def apply_decoy_bounds(
    observed: ObservedCounts,
    config: ProtocolConfig,
    bound_pair: BoundPair = binomial_bound_pair,
) -> DecoyBounds:
    """Evaluate all four single-photon bounds of a protocol run.

    Lower and upper bounds on key-basis detections, lower bound on test-basis
    detections, upper bound on test-basis errors; joint failure probability at
    most ``DECOY_TERMS * eps_B``.
    """
    iset = config.intensity_set
    eps_B = config.epsilon_budget.eps_B
    z_lo = single_photon_lower(observed.z_det, iset, eps_B, bound_pair)
    z_hi = single_photon_upper(observed.z_det, iset, eps_B, bound_pair)
    x_lo = single_photon_lower(observed.x_det, iset, eps_B, bound_pair)
    e_hi = single_photon_upper(observed.x_err, iset, eps_B, bound_pair)
    return DecoyBounds(
        z_det_lower=z_lo["value"],
        z_det_upper=z_hi["value"],
        x_det_lower=x_lo["value"],
        x_err_upper=e_hi["value"],
        audit={
            "eps_B": eps_B,
            "z_det_lower": z_lo,
            "z_det_upper": z_hi,
            "x_det_lower": x_lo,
            "x_err_upper": e_hi,
        },
    )


def coin_parameter_bound(
    l_c: int, intensity_set: IntensitySet, model: CorrelationModel
) -> float:
    """Worst-case minus probability of the basis-coin measurement on a
    single-photon trash round, for spreads bounded by the model:
    (1/2) [1 - prod_{l=1}^{l_c} min(1, sum_mu p_mu exp(-mu (1 - cos Delta_l)))].

    The clamp changes nothing unless the probabilities sum above 1 (allowed
    within ``PROB_SUM_TOL``). Delta_l decreases, so from the first lag where
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
    product = 1.0
    for l in range(1, l_c + 1):
        one_minus_cos = 1.0 - cos(delta_1 * exp(minus_c * (l - 1)))
        if one_minus_cos == 0.0:
            if flat != 1.0:
                product = math.nextafter(product * flat ** (l_c - l + 1), 0.0)
            break
        factor = (p_s * exp(-s * one_minus_cos) + p_w * exp(-w * one_minus_cos)
                  + p_v * exp(-v * one_minus_cos))
        product *= factor if factor < 1.0 else 1.0
    return 0.5 * (1.0 - product)


def single_photon_prob(intensity_set: IntensitySet) -> float:
    """Overall single-photon emission probability sum_mu p_mu * mu * e^{-mu}."""
    (s, p_s), (w, p_w), (v, p_v) = intensity_set.pairs()
    return p_s * s * math.exp(-s) + p_w * w * math.exp(-w) + p_v * v * math.exp(-v)


def mean_intensity(intensity_set: IntensitySet) -> float:
    """Probability-weighted mean photon number sum_mu p_mu * mu."""
    (s, p_s), (w, p_w), (v, p_v) = intensity_set.pairs()
    return p_s * s + p_w * w + p_v * v


def newton_root(p_hat: float, target: float, lower: bool) -> float | None:
    """Root of D(p_hat || x) = target below (``lower``) or above p_hat, to
    within its noise window; None if the iteration does not settle. Every D
    goes through ``concentration.bernoulli_kl``, looked up at call time."""
    exp, ulp = math.exp, math.ulp
    noise = 2.0**-52 * (1.0 + target)
    q = p_hat if lower else 1.0 - p_hat
    w_out, w_in = 0.0, q  # outer end (D >= target) and inner end of the bracket
    # start from the cubic Taylor expansion of D(q || q - d) = target in d
    d = math.sqrt(2.0 * p_hat * (1.0 - p_hat) * target)
    w = q - d * (1.0 + d * (q / (1.0 - q) - (1.0 - q) / q) / 3.0) if 0.0 < q < 1.0 else q - d
    if not w_out < w < w_in:
        w = 0.5 * q
    step = error = math.inf
    for _ in range(60):
        x = w if lower else 1.0 - w
        if x == p_hat:
            return None
        # the noise window at x (see the docstring of concentration)
        if (step if step < error else error) <= noise * x * (1.0 - x) / abs(x - p_hat) + ulp(x):
            return x
        if not lower:
            w = 1.0 - x  # step from the rounded x that is evaluated
        f = concentration.bernoulli_kl(p_hat, x) - target
        if f == 0.0:
            return x
        if f > 0.0:
            w_out = w
        else:
            w_in = w
        s = f * (1.0 - w) / (q - w)  # Newton step in log w; capped below exp overflow
        new = w * exp(700.0 if s > 700.0 else s)
        if w_out < new < w_in:
            m = new if new > w else w  # the curvature grows with w, so bound it at the larger end
            error = 0.5 * s * s * m * m * (1.0 - q) * (1.0 - w) / ((1.0 - m) ** 2 * (q - w))
        else:
            new, error = 0.5 * (w_out + w_in), math.inf
        step = abs(new - w)
        w = new
    return None


def expected_counts(
    config: ProtocolConfig, channel: ChannelModel
) -> tuple[ObservedCounts, GroundTruth]:
    """Deterministic rounded expectations of one protocol run.

    Every ground-truth cell is rounded individually and the announced counts
    are sums of those cells, so the marginal-consistency invariant holds
    exactly. ``n_sifted_det`` is half of the expected detections; the honest
    channel's coin tally ``trash_minus_single`` is 0.
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
    )
    # per-cell rounding may nudge keep-sifted sums past detected/2; keep the
    # count invariant keep-sifted <= sifted intact
    n_sifted_det = max(round(total_detected / 2.0), 2 * det_marginal.total)
    observed = ObservedCounts(det_marginal, err_marginal, det_marginal, err_marginal, n_sifted_det)
    return observed, truth


def observed(truth: GroundTruth, n_sifted_det: int) -> ObservedCounts:
    """``GroundTruth.observed``: each category summed over photon buckets."""

    def marginal(buckets) -> CountTriple:
        b0, b1, b2 = buckets
        return CountTriple(b0.m_s + b1.m_s + b2.m_s, b0.m_w + b1.m_w + b2.m_w,
                           b0.m_v + b1.m_v + b2.m_v)

    return ObservedCounts(
        z_det=marginal(truth.z_det),
        z_err=marginal(truth.z_err),
        x_det=marginal(truth.x_det),
        x_err=marginal(truth.x_err),
        n_sifted_det=n_sifted_det,
    )


def validate(counts: ObservedCounts) -> list[str]:
    """``ObservedCounts.validate``."""
    problems = []
    for err, det, label in (
        (counts.z_err, counts.z_det, "Z"),
        (counts.x_err, counts.x_det, "X"),
    ):
        for mu in ("m_s", "m_w", "m_v"):
            if getattr(err, mu) > getattr(det, mu):
                problems.append(f"{label}-basis errors exceed detections at {mu}")
    if counts.z_det.total + counts.x_det.total > counts.n_sifted_det:
        problems.append("keep-sifted detections exceed total sifted detections")
    if counts.n_sifted_det < 0:
        problems.append("n_sifted_det must be nonnegative")
    return problems


@dataclass(frozen=True, slots=True)
class PhaseErrorBound:
    e_ph_upper: float
    audit: dict = field(default_factory=dict, compare=False)


def coin_envelope(z_det, x_det, x_err, minus, delta_A, p_keep, audit: dict) -> float | str:
    if x_det <= delta_A:
        return "x_det_lower_not_above_delta_A"
    y = (x_err + delta_A) / (x_det - delta_A)
    audit["y"] = y
    if not (0.0 <= y <= 1.0):
        return "y_out_of_range"
    denom = (1.0 - p_keep) * (z_det + x_det)
    if denom <= 0.0:
        return "coin_denominator_nonpositive"
    z = 1.0 - 2.0 * p_keep * (minus + delta_A) / denom
    audit["z"] = z
    g_plus = g_interval(y, z)[1]
    audit["g_plus"] = g_plus
    return (z_det + delta_A) * g_plus + delta_A


def phase_error_rate_bound(
    decoy,
    trash_upper: float,
    n_sifted_det: int,
    p_keep: float,
    eps_A: float,
) -> PhaseErrorBound:
    delta_A = azuma_delta(n_sifted_det, eps_A)
    audit: dict = {
        "delta_A": delta_A,
        "n_sifted_det": n_sifted_det,
        "eps_A": eps_A,
        "trash_minus_upper": trash_upper,
        "trivial_bound_reason": None,
    }

    envelope = ("z_det_lower_nonpositive" if decoy.z_det_lower <= 0.0
                else coin_envelope(decoy.z_det_upper, decoy.x_det_lower, decoy.x_err_upper,
                                   trash_upper, delta_A, p_keep, audit))
    if isinstance(envelope, str):
        audit["trivial_bound_reason"] = envelope
        return PhaseErrorBound(e_ph_upper=1.0, audit=audit)
    return PhaseErrorBound(e_ph_upper=min(1.0, envelope / decoy.z_det_lower), audit=audit)


@dataclass(frozen=True, slots=True)
class KeyRateResult:
    key_length: int
    eps_sec: float
    e_ph_upper: float
    z_det_lower: float
    lambda_EC: float
    audit: dict = field(default_factory=dict, compare=False)


def evaluate_pipeline(
    observed: ObservedCounts,
    config: ProtocolConfig,
    correlation_model: corr.CorrelationModel | None = None,
    f_EC: float = DEFAULT_F_EC,
) -> KeyRateResult:
    require(config.problems)
    require(observed.validate())
    if observed.n_sifted_det > config.N:
        raise ConfigError(
            f"{observed.n_sifted_det} sifted detections exceed the block size N={config.N}"
        )
    budget = config.epsilon_budget
    iset = config.intensity_set

    d_model = 0.0 if correlation_model is None else correlation_model.truncation_d
    if budget.d != d_model:
        raise ConfigError(
            f"epsilon budget carries d={budget.d} but the correlation model "
            f"carries truncation_d={d_model} (0 when there is none)"
        )
    l_c = corr.effective_length(config.N, mean_intensity(iset), correlation_model)
    shares = pe_shares(budget.eps_A, budget.eps_B, budget.eps_C, l_c, budget.d)
    eps_PE = total_pe_failure(shares)
    coin_param = 0.0
    if correlation_model is not None:
        coin_param = corr.coin_parameter_bound(l_c, iset, correlation_model)

    decoy_bounds = apply_decoy_bounds(observed, config)
    p1 = iset.weights[0]
    trash_upper = trash_minus_upper(
        config.N, p1, config.p_keep, l_c, coin_param, budget.eps_C
    )
    phase = phase_error_rate_bound(
        decoy_bounds, trash_upper, observed.n_sifted_det, config.p_keep, budget.eps_A
    )

    lambda_EC = ec_leakage(observed.z_det.total, observed.z_err.total, f_EC)
    n_K1_lower = decoy_bounds.z_det_lower
    length = key_length(
        n_K1_lower, phase.e_ph_upper, lambda_EC, budget.eps_PA, budget.eps_EV
    )
    if phase.e_ph_upper >= 1.0 or n_K1_lower <= 0.0:
        length = 0
    eps_sec = security_parameter(eps_PE, budget.eps_PA, budget.eps_EV)

    audit = {
        "decoy": decoy_bounds.audit,
        "decoy_bounds": {
            "z_det_lower": decoy_bounds.z_det_lower,
            "z_det_upper": decoy_bounds.z_det_upper,
            "x_det_lower": decoy_bounds.x_det_lower,
            "x_err_upper": decoy_bounds.x_err_upper,
        },
        "correlation": {
            "bypassed": correlation_model is None,
            "l_c": l_c,
            "coin_parameter": coin_param,
            "trash_minus_upper": trash_upper,
        },
        "phase_error": phase.audit,
        "e_ph_upper": phase.e_ph_upper,
        "lambda_EC": lambda_EC,
        "n_K1_lower": n_K1_lower,
        "epsilon_shares": shares,
        "eps_PE": eps_PE,
    }
    return KeyRateResult(
        key_length=length,
        eps_sec=eps_sec,
        e_ph_upper=phase.e_ph_upper,
        z_det_lower=decoy_bounds.z_det_lower,
        lambda_EC=lambda_EC,
        audit=audit,
    )
