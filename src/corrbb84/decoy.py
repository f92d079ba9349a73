"""Three-intensity decoy-state estimation (Lim et al., PRA 89, 022307 (2014)).

Converts per-intensity counts of one event class (detections or errors, per
basis; a :class:`~corrbb84.counts.CountTriple`) into bounds on the
single-photon contribution: ``single_photon_lower`` and
``single_photon_upper`` return one bound with its intermediates as a slotted
record, reading p1 and the e^mu / p_mu weights from ``IntensitySet.weights``
(derived once per intensity set), and ``apply_decoy_bounds`` evaluates the
four that the announced :class:`~corrbb84.counts.ObservedCounts` of a run
need; its ``DecoyBounds`` keeps the four records, and its audit dict is
built from the records on each read. The estimate
rests on the counterfactual in which the per-photon-number counts are fixed
first and each event is assigned an intensity with the Bayes posterior
p(mu | m) = p_mu p(m|mu) / sum_nu p_nu p(m|nu); the per-intensity counts are
then Bernoulli sums amenable to :func:`~corrbb84.concentration.binomial_bound_pair`.

The analytic three-intensity bounds require the solvability condition
s(w - v) - w^2 + v^2 > 0, i.e. s > w + v, and raise the model's ConfigError
where it fails. A full evaluation of one event
class consumes eps_B once per one-sided substitution (3 for the lower bound,
2 for the upper) and asks ``bound_pair`` only for those sides; the side flags
are passed positionally, so a wrapper that records the positional arguments
can replay the call. A run's four evaluations consume ``DECOY_TERMS`` eps_B.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable

from .concentration import binomial_bound_pair
from .counts import CountTriple, ObservedCounts
from .model import ConfigError, IntensitySet, ProtocolConfig, lower_denominator

BoundPair = Callable[[float, int, int, bool, bool], tuple[float, float]]

# one eps_B per one-sided substitution of a run: 3 + 2 + 3 + 2 over its four bounds
DECOY_TERMS = 10


@dataclass(slots=True)
class LowerBound:
    """A single-photon lower bound and its one-sided count bounds. Not frozen:
    a frozen record's ``__init__`` costs about four times as much."""

    raw: float
    value: float
    m_w_lower: float
    m_v_upper: float
    m_s_upper: float


@dataclass(slots=True)
class UpperBound:
    """A single-photon upper bound and its one-sided count bounds."""

    raw: float
    value: float
    m_w_upper: float
    m_v_lower: float


@dataclass(frozen=True, slots=True)
class DecoyBounds:
    """Single-photon count bounds for one protocol run.

    ``z_det_lower/z_det_upper`` bracket the single-photon detections in the
    key basis, ``x_det_lower`` and ``x_err_upper`` bound the test-basis
    detections and errors; jointly they fail with probability at most
    ``DECOY_TERMS * eps_B``. ``records`` holds eps_B and the four bound
    records in that order (empty for bounds built by hand); ``audit`` is
    built from the records on each read, where a record that serves both
    detection lower bounds gives one dict twice.
    """

    z_det_lower: float
    z_det_upper: float
    x_det_lower: float
    x_err_upper: float
    records: tuple = field(default=(), compare=False, repr=False)

    @property
    def audit(self) -> dict:
        if not self.records:
            return {}
        eps_B, z_lo, z_hi, x_lo, e_hi = self.records
        z_lo_dict = asdict(z_lo)
        return {"eps_B": eps_B, "z_det_lower": z_lo_dict, "z_det_upper": asdict(z_hi),
                "x_det_lower": z_lo_dict if x_lo is z_lo else asdict(x_lo),
                "x_err_upper": asdict(e_hi)}


def single_photon_lower(counts: CountTriple, iset: IntensitySet, eps_B: float,
                        bound_pair: BoundPair) -> LowerBound:
    """Lower bound on the single-photon share of one event class.

    ``value`` holds except with probability 3 * eps_B (three one-sided
    bound substitutions) and is clamped to [0, total]; a negative analytic
    value carries no information. The other fields are its intermediates.
    p1 and the weights are ``iset.weights``, read once the bound is solvable.
    """
    denom = lower_denominator(iset)
    if denom <= 0.0:
        raise ConfigError(
            f"s(w-v) - w^2 + v^2 = {denom} must be positive (need s > w + v)"
        )
    p1, w_weight, v_weight, s_weight = iset.weights
    total = counts.total
    m_w_lo = bound_pair(eps_B, counts.m_w, total, True, False)[0]
    m_v_hi = bound_pair(eps_B, counts.m_v, total, False, True)[1]
    m_s_hi = bound_pair(eps_B, counts.m_s, total, False, True)[1]
    raw = (p1 * iset.s / denom) * (w_weight * m_w_lo - v_weight * m_v_hi - s_weight * m_s_hi)
    return LowerBound(raw, min(max(0.0, raw), float(total)), m_w_lo, m_v_hi, m_s_hi)


def single_photon_upper(counts: CountTriple, iset: IntensitySet, eps_B: float,
                        bound_pair: BoundPair) -> UpperBound:
    """Upper bound on the single-photon share of one event class.

    ``value`` holds except with probability 2 * eps_B and is clamped to
    [0, total]. The other fields are its intermediates.
    """
    if iset.w <= iset.v:
        raise ConfigError(f"need w > v, got w={iset.w}, v={iset.v}")
    p1, w_weight, v_weight, _ = iset.weights
    total = counts.total
    m_w_hi = bound_pair(eps_B, counts.m_w, total, False, True)[1]
    m_v_lo = bound_pair(eps_B, counts.m_v, total, True, False)[0]
    raw = (p1 / (iset.w - iset.v)) * (w_weight * m_w_hi - v_weight * m_v_lo)
    return UpperBound(raw, min(max(0.0, raw), float(total)), m_w_hi, m_v_lo)


def apply_decoy_bounds(
    observed: ObservedCounts,
    config: ProtocolConfig,
    bound_pair: BoundPair = binomial_bound_pair,
) -> DecoyBounds:
    """Evaluate all four single-photon bounds of a protocol run.

    Lower and upper bounds on key-basis detections, lower bound on test-basis
    detections, upper bound on test-basis errors; joint failure probability at
    most ``DECOY_TERMS * eps_B``. Where both bases hold one triple (as in
    :func:`~corrbb84.simulator.expected_counts`), the test-basis lower bound
    is the key-basis one, the same record, and its three sides are not asked
    for again.
    """
    iset = config.intensity_set
    eps_B = config.epsilon_budget.eps_B
    z_det, x_det = observed.z_det, observed.x_det
    z_lo = single_photon_lower(z_det, iset, eps_B, bound_pair)
    z_hi = single_photon_upper(z_det, iset, eps_B, bound_pair)
    x_lo = z_lo if x_det is z_det else single_photon_lower(x_det, iset, eps_B, bound_pair)
    e_hi = single_photon_upper(observed.x_err, iset, eps_B, bound_pair)
    return DecoyBounds(z_lo.value, z_hi.value, x_lo.value, e_hi.value,
                       (eps_B, z_lo, z_hi, x_lo, e_hi))
