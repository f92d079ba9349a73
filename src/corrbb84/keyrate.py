"""Final key length, security parameter, and the end-to-end pipeline.

``evaluate_pipeline`` works out the security budget (``pe_budget``: l_c,
eps_PE and the security parameter), then chains decoy estimation ->
coin-parameter bound -> trash-round concentration -> phase-error bound ->
error-correction leakage -> key length. Its result keeps the record of every
stage, and its audit dict is built from the records on each read, so a
certified key length can be traced term by term while a caller that never
reads the audit (an optimizer search) does not pay for it.

The variable-length key formula is
l = max(0, n_1_lower (1 - h(e_ph)) - lambda_EC - 2 log2(1/(2 eps_PA))
        - log2(2/eps_EV))
with h the binary entropy clamped to 1 above 1/2; the produced key is
eps_sec-secure with eps_sec = 2 sqrt(eps_PE) + eps_PA + eps_EV, where eps_PE
is the total parameter-estimation failure probability. eps_sec bounds a trace
distance, which is at most 1, so a config whose eps_sec is not below 1 is
refused. All logarithms here are base 2 (key lengths in bits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import correlations as corr
from .counts import ObservedCounts
from .decoy import apply_decoy_bounds
from .model import ConfigError, ProtocolConfig, mean_intensity, require
from .phase_error import pe_shares, phase_error_rate_bound, total_pe_failure, trash_minus_upper

DEFAULT_F_EC = 1.16


@dataclass(frozen=True, slots=True)
class KeyRateResult:
    """Certified key length with its security parameter and audit trail.

    ``records`` holds the stage records the audit is built from: the decoy
    bounds, the phase-error bound, whether the correlation stage was
    bypassed, l_c, the coin parameter, the epsilon shares and eps_PE.
    ``audit`` is built from the records on each read; ``dataclasses.asdict``
    sees only fields, so a writer names ``audit``.
    """

    key_length: int
    eps_sec: float
    e_ph_upper: float
    z_det_lower: float
    lambda_EC: float
    records: tuple = field(compare=False, repr=False)

    @property
    def audit(self) -> dict:
        decoy, phase, bypassed, l_c, coin_param, shares, eps_PE = self.records
        terms = phase.audit
        return {
            "decoy": decoy.audit,
            "decoy_bounds": {
                "z_det_lower": decoy.z_det_lower,
                "z_det_upper": decoy.z_det_upper,
                "x_det_lower": decoy.x_det_lower,
                "x_err_upper": decoy.x_err_upper,
            },
            "correlation": {
                "bypassed": bypassed,
                "l_c": l_c,
                "coin_parameter": coin_param,
                "trash_minus_upper": terms["trash_minus_upper"],
            },
            "phase_error": terms,
            "e_ph_upper": self.e_ph_upper,
            "lambda_EC": self.lambda_EC,
            "n_K1_lower": decoy.z_det_lower,
            # every epsilon consumed, exactly once; shares sum to eps_PE
            "epsilon_shares": shares,
            "eps_PE": eps_PE,
        }


def binary_entropy(x: float) -> float:
    """Binary entropy in bits for x <= 1/2; exactly 1 above 1/2."""
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"entropy argument must lie in [0, 1], got {x}")
    if x > 0.5:
        return 1.0
    if x == 0.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def validate_f_ec(f_EC: float) -> list[str]:
    """The error-correction inefficiency's rule: finite and at least 1."""
    return [] if 1.0 <= f_EC < math.inf else [f"f_EC must be finite and >= 1, got {f_EC}"]


def ec_leakage(z_det_total: int, z_err_total: int, f_EC: float = DEFAULT_F_EC) -> float:
    """Bits disclosed by one-way error correction, modeled as
    f_EC * n * h(QBER); zero for an empty or error-free key. An ``f_EC``
    that breaks :func:`validate_f_ec` raises ConfigError."""
    require(validate_f_ec(f_EC))
    if z_err_total > z_det_total:
        raise ValueError("error count exceeds detection count")
    if z_det_total == 0:
        return 0.0
    return f_EC * z_det_total * binary_entropy(z_err_total / z_det_total)


def key_length(
    n_K1_lower: float,
    e_ph_upper: float,
    lambda_EC: float,
    eps_PA: float,
    eps_EV: float,
) -> int:
    """Certified key length in bits (floor of the max(0, .) expression), for
    epsilons that :func:`~corrbb84.model.validate_epsilons` admits."""
    raw = (
        n_K1_lower * (1.0 - binary_entropy(e_ph_upper))
        - lambda_EC
        - 2.0 * math.log2(1.0 / (2.0 * eps_PA))
        - math.log2(2.0 / eps_EV)
    )
    return int(math.floor(max(0.0, raw)))


def security_parameter(eps_PE: float, eps_PA: float, eps_EV: float) -> float:
    """Overall security parameter 2 sqrt(eps_PE) + eps_PA + eps_EV."""
    if not (0.0 <= eps_PE < 1.0):
        raise ValueError(f"eps_PE must lie in [0, 1), got {eps_PE}")
    return 2.0 * math.sqrt(eps_PE) + eps_PA + eps_EV


def security_level(eps_PE: float, eps_PA: float, eps_EV: float) -> tuple[float, list[str]]:
    """eps_sec (:func:`security_parameter`) and the problems of its rule:
    eps_sec bounds a trace distance, which is at most 1, so a level of 1 or
    more claims nothing."""
    eps_sec = security_parameter(eps_PE, eps_PA, eps_EV)
    if eps_sec < 1.0:
        return eps_sec, []
    return eps_sec, [f"eps_sec = 2 sqrt(eps_PE) + eps_PA + eps_EV = {eps_sec} must be below 1, "
                     f"with eps_PE={eps_PE}, eps_PA={eps_PA} and eps_EV={eps_EV}"]


def pe_budget(config: ProtocolConfig, model: corr.CorrelationModel | None = None) -> tuple:
    """The security budget ``config`` spends under the correlation ``model``:
    (l_c, shares, eps_PE, eps_sec), the correlation length the analysis runs
    at (:func:`~corrbb84.correlations.effective_length`), the epsilon shares
    of :func:`~corrbb84.phase_error.pe_shares`, their total and the security
    level they certify at. A budget whose d is not the model's truncation_d
    (0 without a model), a length that ``effective_length`` refuses, an
    eps_PE of 1 or more or an eps_sec that :func:`security_level` refuses
    raises :class:`~corrbb84.model.ConfigError`."""
    budget = config.epsilon_budget
    d_model = 0.0 if model is None else model.truncation_d
    if budget.d != d_model:
        raise ConfigError(f"epsilon budget carries d={budget.d} but the correlation model "
                          f"carries truncation_d={d_model} (0 when there is none)")
    l_c = corr.effective_length(config.N, mean_intensity(config.intensity_set), model)
    shares = pe_shares(budget.eps_A, budget.eps_B, budget.eps_C, l_c, budget.d)
    eps_PE = total_pe_failure(shares)
    eps_sec, problems = security_level(eps_PE, budget.eps_PA, budget.eps_EV)
    require(problems)
    return l_c, shares, eps_PE, eps_sec


def evaluate_pipeline(
    observed: ObservedCounts,
    config: ProtocolConfig,
    correlation_model: corr.CorrelationModel | None = None,
    f_EC: float = DEFAULT_F_EC,
    *,
    stages=None,
) -> KeyRateResult:
    """Full evaluation: observed counts + configuration -> certified key.

    ``correlation_model=None`` bypasses the correlation stage entirely
    (uncorrelated source: l_c = 0, d = 0, zero coin parameter); a model with
    delta_1 = 0 must produce the identical result. A model without ``l_c_eff``
    runs at the length its truncation budget d requires
    (:func:`~corrbb84.correlations.effective_length`). Degenerate statistics
    yield key_length 0 with the reason in the audit, never an exception;
    invalid configurations (an eps_sec of 1 or more among them, see
    :func:`pe_budget`), and counts with more sifted detections than the
    block has rounds, raise :class:`~corrbb84.model.ConfigError`. With
    ``stages`` (an optimizer search), the decoy and coin stages come from its
    ``decoy_bounds(observed, config)`` and ``coin_parameter(l_c, iset, model)``;
    the result is the same bit for bit.
    """
    require(config.problems)
    require(observed.validate())
    if observed.n_sifted_det > config.N:
        raise ConfigError(
            f"{observed.n_sifted_det} sifted detections exceed the block size N={config.N}"
        )
    budget = config.epsilon_budget
    iset = config.intensity_set
    # before the coin bound, whose cost grows with l_c
    l_c, shares, eps_PE, eps_sec = pe_budget(config, correlation_model)
    coin_param = 0.0
    if correlation_model is not None:
        coin_param = (corr.coin_parameter_bound(l_c, iset, correlation_model) if stages is None
                      else stages.coin_parameter(l_c, iset, correlation_model))

    decoy_bounds = (apply_decoy_bounds(observed, config) if stages is None
                    else stages.decoy_bounds(observed, config))
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

    return KeyRateResult(
        length, eps_sec, phase.e_ph_upper, n_K1_lower, lambda_EC,
        (decoy_bounds, phase, correlation_model is None, l_c, coin_param, shares, eps_PE),
    )
