"""Phase-error estimation via the basis-coin argument.

The security statement needs an upper bound on the error rate a
complementary-basis measurement would have produced on the single-photon key
rounds. That bound is assembled from:

* ``g_interval`` -- the algebraic envelope [G-, G+] of rates compatible with
  given coin statistics,
* ``trash_minus_upper`` -- a concentration bound on the number of coin-minus
  outcomes among single-photon trash rounds,
* ``coin_envelope`` -- the count-level coin inequality's bound on key-basis
  errors, which validation also evaluates on true tallies,
* ``phase_error_rate_bound`` -- the composition with the decoy-state bounds
  and martingale deviations, and
* ``pe_shares`` and ``total_pe_failure`` -- the one failure-probability
  bookkeeping.

Degenerate statistics never raise: any undefined or out-of-range envelope
argument falls back to the trivial bound e_ph = 1, with the responsible guard
named in the audit record, which ``PhaseErrorBound`` builds from the
records on each read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .concentration import azuma_delta
from .decoy import DECOY_TERMS, DecoyBounds
from .model import ConfigError

AZUMA_TERMS = 5  # martingale deviations of the phase-error bound, one eps_A each


# the audit keys of PhaseErrorBound.records; the coin envelope's y, z and G+
# enter only once reached
PHASE_AUDIT_KEYS = ("delta_A", "n_sifted_det", "eps_A", "trash_minus_upper",
                    "trivial_bound_reason", "y", "z", "g_plus")


@dataclass(frozen=True, slots=True)
class PhaseErrorBound:
    """Phase-error-rate bound plus the intermediates needed for audit.

    ``records`` holds the values of ``PHASE_AUDIT_KEYS`` in order, None for
    an intermediate not reached; ``audit`` is built from the records on each
    read.
    """

    e_ph_upper: float
    records: tuple = field(compare=False, repr=False)

    @property
    def audit(self) -> dict:
        audit = dict(zip(PHASE_AUDIT_KEYS[:5], self.records[:5]))
        audit.update((key, value) for key, value in zip(PHASE_AUDIT_KEYS[5:], self.records[5:])
                     if value is not None)
        return audit


def g_interval(y: float, z: float) -> tuple[float, float]:
    """Envelope [G-, G+] of rates y' compatible with
    sqrt(y' y) + sqrt((1-y')(1-y)) >= z.

    G+ = g+(y, z) when y < z^2 and 1 otherwise; G- = g-(y, z) when
    y > 1 - z^2 and 0 otherwise, with
    g+-(y, z) = y + (1-z^2)(1-2y) +- 2 sqrt(z^2 (1-z^2) y (1-y)).
    ``z`` is clamped into [0, 1] first; z <= 0 carries no coin information
    and yields the trivial interval [0, 1].
    """
    if not (0.0 <= y <= 1.0):
        raise ValueError(f"y must lie in [0, 1], got {y}")
    z = min(max(z, 0.0), 1.0)
    z_sq = z * z
    root = 2.0 * math.sqrt(max(0.0, z_sq * (1.0 - z_sq) * y * (1.0 - y)))
    base = y + (1.0 - z_sq) * (1.0 - 2.0 * y)
    g_plus = base + root if y < z_sq else 1.0
    g_minus = base - root if y > 1.0 - z_sq else 0.0
    return (min(max(g_minus, 0.0), 1.0), min(max(g_plus, 0.0), 1.0))


def trash_minus_upper(
    N: int,
    p1: float,
    p_keep: float,
    l_c: int,
    coin_param: float,
    eps_C: float,
) -> float:
    """Upper bound on the number of single-photon trash-sifted coin-minus
    outcomes, holding except with probability (l_c + 1) * eps_C.

    Mean term N p1 (1-p_keep)/2 * coin_param, plus the aggregated one-sided
    Bernoulli-sum deviation over l_c + 1 interleaved groups of independent
    rounds: sqrt(N p1 (l_c+1) (1-p_keep) coin_param ln(1/eps_C))
    + (2 (l_c+1)/3) ln(1/eps_C).
    """
    if not (0.0 < eps_C < 1.0):
        raise ValueError(f"eps_C must lie strictly in (0, 1), got {eps_C}")
    if l_c < 0:
        raise ValueError(f"l_c must be nonnegative, got {l_c}")
    if not (0.0 <= coin_param <= 0.5):
        raise ValueError(f"coin parameter must lie in [0, 1/2], got {coin_param}")
    log_term = math.log(1.0 / eps_C)
    mean = N * p1 * (1.0 - p_keep) / 2.0 * coin_param
    deviation = math.sqrt(N * p1 * (l_c + 1) * (1.0 - p_keep) * coin_param * log_term)
    residual = 2.0 * (l_c + 1) / 3.0 * log_term
    return mean + deviation + residual


def pe_shares(eps_A: float, eps_B: float, eps_C: float, l_c: int, d: float) -> dict:
    """Every parameter-estimation failure probability, once: 5 eps_A (Azuma),
    (l_c + 1) eps_C (trash count), 10 eps_B (decoy) and the truncation d."""
    if l_c < 0:
        raise ValueError(f"l_c must be nonnegative, got {l_c}")
    return {
        "azuma_5_eps_A": AZUMA_TERMS * eps_A,
        "trash_lc1_eps_C": (l_c + 1) * eps_C,
        "decoy_10_eps_B": DECOY_TERMS * eps_B,
        "truncation_d": d,
    }


def pe_epsilons(u_A: float, u_B: float, u_C: float, pe_mass: float,
                l_c: int) -> tuple[float, float, float]:
    """The inverse of :func:`pe_shares`: (eps_A, eps_B, eps_C) whose Azuma,
    decoy and trash shares are the fractions u_A, u_B and u_C of pe_mass."""
    return u_A * pe_mass / AZUMA_TERMS, u_B * pe_mass / DECOY_TERMS, u_C * pe_mass / (l_c + 1)


def total_pe_failure(shares: dict) -> float:
    """eps_PE, the :func:`pe_shares` record added left to right; a total >= 1
    raises :class:`~corrbb84.model.ConfigError`."""
    total = 0.0
    for share in shares.values():
        total += share
    if total >= 1.0:
        raise ConfigError(
            f"parameter-estimation failure budget {total} >= 1; nothing can be certified"
        )
    return total


def coin_envelope(z_det, x_det, x_err, minus, delta_A, p_keep) -> tuple:
    """The count-level coin inequality's bound on key-basis errors,
    (z_det + Delta_A) G+(y, z) + Delta_A with
    y = (x_err + Delta_A) / (x_det - Delta_A) and
    z = 1 - 2 p_keep (minus + Delta_A) / ((1 - p_keep)(z_det + x_det)),
    or the name of the guard that fired; then y, z and G+, each None where
    the guard fired first.
    """
    if x_det <= delta_A:
        return "x_det_lower_not_above_delta_A", None, None, None
    y = (x_err + delta_A) / (x_det - delta_A)
    if not (0.0 <= y <= 1.0):
        return "y_out_of_range", y, None, None
    denom = (1.0 - p_keep) * (z_det + x_det)
    if denom <= 0.0:
        return "coin_denominator_nonpositive", y, None, None
    z = 1.0 - 2.0 * p_keep * (minus + delta_A) / denom
    g_plus = g_interval(y, z)[1]
    return (z_det + delta_A) * g_plus + delta_A, y, z, g_plus


def phase_error_rate_bound(
    decoy: DecoyBounds,
    trash_upper: float,
    n_sifted_det: int,
    p_keep: float,
    eps_A: float,
) -> PhaseErrorBound:
    """Data-driven upper bound on the single-photon phase-error rate.

    With Delta_A the martingale deviation for n_sifted_det rounds, the bound
    is the coin envelope of (z_det_upper, x_det_lower, x_err_upper,
    trash_upper) over z_det_lower, capped at 1. Out-of-range intermediates
    yield the trivial bound 1, with the guard that fired recorded in the
    audit.
    """
    delta_A = azuma_delta(n_sifted_det, eps_A)
    if decoy.z_det_lower <= 0.0:
        envelope, y, z, g_plus = "z_det_lower_nonpositive", None, None, None
    else:
        envelope, y, z, g_plus = coin_envelope(decoy.z_det_upper, decoy.x_det_lower,
                                               decoy.x_err_upper, trash_upper, delta_A, p_keep)
    reason = envelope if isinstance(envelope, str) else None
    e_ph_upper = 1.0 if reason else min(1.0, envelope / decoy.z_det_lower)
    return PhaseErrorBound(e_ph_upper,
                           (delta_A, n_sifted_det, eps_A, trash_upper, reason, y, z, g_plus))
