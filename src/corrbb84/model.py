"""Protocol parameter types, their Poisson emission weights and validation.

Everything downstream (decoy estimation, coin analysis, key-rate pipeline)
consumes the types defined here. The photon-number distribution is fixed to
Poisson, i.e. phase-randomized coherent pulses; non-Poissonian sources are out
of scope. All functions are pure and thread-safe. Sums of floats add left to
right, so their bits do not depend on the Python version's ``sum``.

``IntensitySet.problems`` and ``ProtocolConfig.problems``, the reports of
:func:`validate_intensity_set` and :func:`validate_config`, are made when a
record is built, so each record is validated once however often it is read.
``IntensitySet.weights`` (:func:`decoy_weights`, p1 first) is a memo filled on
first read, since a set that fails validation may have no weights. All three
are stored with ``object.__setattr__`` outside the dataclass fields (no part
in ``==``, ``hash`` or ``repr``; ``dataclasses.replace`` builds afresh).
Reading the instance dictionary instead, directly or through functools'
cached property, would slow every later attribute read on CPython 3.11.
Two threads that fill the memo at once store equal tuples: a benign race.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

PROB_SUM_TOL = 1e-12
MAX_INTENSITY = 709.782712893384  # ln(DBL_MAX): e^mu overflows a double above it
# the largest int64, the sampler's count type; the bounds overflow near N = 1e307
MAX_BLOCK_SIZE = 2**63 - 1


class ConfigError(ValueError):
    """Raised when a configuration fails validation at a pipeline entry point."""


@dataclass(frozen=True)
class IntensitySet:
    """Three-intensity decoy setting: signal s > weak w > vacuum-like v >= 0.

    ``p_s + p_w + p_v`` must equal 1 within ``PROB_SUM_TOL``. ``problems``
    is the report of :func:`validate_intensity_set` (empty == valid), made
    when the set is built.
    """

    s: float
    w: float
    v: float
    p_s: float
    p_w: float
    p_v: float

    _weights = None  # the memo of ``weights``; not a field

    def __post_init__(self) -> None:
        object.__setattr__(self, "problems", tuple(validate_intensity_set(self)))

    def pairs(self) -> tuple[tuple[float, float], ...]:
        """(intensity, probability) pairs in (s, w, v) order."""
        return ((self.s, self.p_s), (self.w, self.p_w), (self.v, self.p_v))

    @property
    def weights(self) -> tuple[float, float, float, float]:
        """:func:`decoy_weights` of this set (p1 first), derived on first read."""
        weights = self._weights
        if weights is None:
            weights = decoy_weights(self)
            object.__setattr__(self, "_weights", weights)
        return weights


@dataclass(frozen=True)
class EpsilonBudget:
    """Failure-probability allocation.

    eps_A feeds the martingale deviation terms, eps_B the per-intensity decoy
    bounds, eps_C the trash-round concentration bound, eps_PA privacy
    amplification, eps_EV error verification. ``d`` is the tolerated
    state-truncation error for unbounded correlations (0 when the correlation
    length is exactly bounded).
    """

    eps_A: float
    eps_B: float
    eps_C: float
    eps_PA: float
    eps_EV: float
    d: float = 0.0


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything Alice and Bob fix before running: block size, intensities,
    keep probability and the epsilon budget. ``problems`` is the report of
    :func:`validate_config`, made when the config is built; pass it to
    :func:`require` to hard-fail."""

    N: int
    intensity_set: IntensitySet
    p_keep: float
    epsilon_budget: EpsilonBudget

    def __post_init__(self) -> None:
        object.__setattr__(self, "problems", tuple(validate_config(self)))


def single_photon_prob(intensity_set: IntensitySet) -> float:
    """Overall single-photon emission probability sum_mu p_mu * mu * e^{-mu}."""
    i, exp = intensity_set, math.exp
    return i.p_s * i.s * exp(-i.s) + i.p_w * i.w * exp(-i.w) + i.p_v * i.v * exp(-i.v)


def mean_intensity(intensity_set: IntensitySet) -> float:
    """Probability-weighted mean photon number sum_mu p_mu * mu."""
    i = intensity_set
    return i.p_s * i.s + i.p_w * i.w + i.p_v * i.v


def lower_denominator(iset: IntensitySet) -> float:
    """s(w - v) - w^2 + v^2: the decoy lower bound is solvable only where this
    is positive, i.e. s > w + v (for w > v)."""
    return iset.s * (iset.w - iset.v) - iset.w**2 + iset.v**2


def decoy_weights(iset: IntensitySet) -> tuple[float, float, float, float]:
    """p1 and the decoy bounds' weights e^w / p_w, e^v / p_v and
    (w^2 - v^2) / s^2 e^s / p_s, each grouped as the bound expressions have
    always grouped it."""
    return (single_photon_prob(iset), math.exp(iset.w) / iset.p_w, math.exp(iset.v) / iset.p_v,
            (iset.w**2 - iset.v**2) / iset.s**2 * math.exp(iset.s) / iset.p_s)


def validate_intensity_set(iset: IntensitySet) -> list[str]:
    """List of violated invariants; empty means the set is usable."""
    problems = []
    if not (iset.s > iset.w > iset.v >= 0.0):
        problems.append(
            f"intensity ordering violated: need s > w > v >= 0, "
            f"got s={iset.s}, w={iset.w}, v={iset.v}"
        )
    elif not iset.s <= MAX_INTENSITY:  # then every intensity is finite and fits
        problems.append(f"intensity s must be finite and <= ln(DBL_MAX), got {iset.s}")
    elif lower_denominator(iset) <= 0.0:  # also where it underflows to 0
        problems.append("decoy bounds unsolvable: need s(w-v) - w^2 + v^2 > 0 (s > w + v)")
    for name, p in (("p_s", iset.p_s), ("p_w", iset.p_w), ("p_v", iset.p_v)):
        if not (0.0 < p < 1.0):
            problems.append(f"{name} must lie strictly in (0, 1), got {p}")
    total = iset.p_s + iset.p_w + iset.p_v
    if abs(total - 1.0) > PROB_SUM_TOL:
        # rejected rather than renormalized: silent renormalization would
        # distort the epsilon accounting downstream
        problems.append(
            f"intensity probabilities must sum to 1 within {PROB_SUM_TOL}, got {total!r}"
        )
    # with no problem so far each weight is defined and positive; dividing by p_mu can overflow
    if not problems and math.inf in (weights := iset.weights):
        names = ("e^w / p_w", "e^v / p_v", "(w^2 - v^2) / s^2 e^s / p_s")
        problems.extend(f"decoy weight {name} must be finite, got {weight}"
                        for name, weight in zip(names, weights[1:]) if weight == math.inf)
    return problems


def validate_epsilons(holder: object, names: tuple[str, ...]) -> list[str]:
    """The failure-probability rule for the fields ``names`` of ``holder``,
    one message per field that breaks it: each lies in (0, 1) with a finite
    reciprocal, since the bounds take log(1/eps)."""
    problems = []
    for name in names:
        value = getattr(holder, name)
        if not (0.0 < value < 1.0) or 1.0 / value == math.inf:
            problems.append(f"{name} must lie in (0, 1) with 1/{name} finite, got {value}")
    return problems


def validate_block_size(N: int) -> list[str]:
    """The block-size rule: at least one round and at most ``MAX_BLOCK_SIZE``."""
    if not N >= 1:
        return [f"N must be a positive round count, got {N}"]
    return [] if N <= MAX_BLOCK_SIZE else [f"N must be at most {MAX_BLOCK_SIZE}, got {N}"]


def validate_epsilon_budget(budget: EpsilonBudget) -> list[str]:
    problems = validate_epsilons(budget, ("eps_A", "eps_B", "eps_C", "eps_PA", "eps_EV"))
    if not (0.0 <= budget.d < 1.0):
        problems.append(f"truncation tolerance d must lie in [0, 1), got {budget.d}")
    return problems


def validate_config(config: ProtocolConfig) -> list[str]:
    """Every violated invariant of the protocol configuration, as messages.

    An empty report means the configuration is runnable. Reporting only;
    callers that must hard-fail pass the report to :func:`require`.
    """
    problems = validate_block_size(config.N)
    if not (0.0 < config.p_keep < 1.0):
        # both p_keep and 1 - p_keep appear as divisors in the coin analysis
        problems.append(f"p_keep must lie strictly in (0, 1), got {config.p_keep}")
    problems.extend(config.intensity_set.problems)
    problems.extend(validate_epsilon_budget(config.epsilon_budget))
    return problems


def require(problems: list[str] | tuple[str, ...]) -> None:
    """Raise ConfigError listing every problem of a validation report; no-op
    for an empty one."""
    if problems:
        raise ConfigError("; ".join(problems))
