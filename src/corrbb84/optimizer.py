"""Derivative-free maximization of the certified key length.

Coordinate descent with golden-section line searches over box bounds, in
passes until one improves nothing, from one start: a scan's warm start (the
previous distance's winner), if there is one, then the centre start that
``_center_start`` derives from v. The search's ``_Objective`` alone knows the
evaluation budget, the one bound on work: the evaluation that would exceed it
raises instead, which ends the search wherever it is. It alone keeps the best
point too: each descent moves from the first candidate to reach its top
score, and the search returns the first candidate to reach the top score of
all it evaluated.
The objective is the key length of the expected-value pipeline
(deterministic counts; sampled counts would make the objective noisy), so a
fixed spec yields a reproducible trajectory and result. Where the key is zero
the objective scores ``-e_ph_upper`` instead, which still varies across a
zero-key plateau and so leads the search off it.

Free parameters: intensities s and w, their probabilities, p_keep, and the
split of the parameter-estimation failure budget across the three
concentration epsilons. The vacuum intensity v, the block size, the channel
and the correlation model stay fixed; each candidate runs at the correlation
length of ``correlations.effective_length``. A candidate is a tuple of plain
floats in ``PARAM_NAMES`` order, but for p_w and u_A, held as their shares of
1 - p_s and of 1 - u_B (``_params`` reads the values back), so every point of
``BOXES`` leaves p_v and u_C at least 1e-6. u_B keeps its own coordinate, so
a move of u_A's share leaves eps_B, and so the decoy stage, alone.
A search loads no numpy, and every configuration it certifies holds builtin
floats. A refused candidate scores ``-inf``: a configuration the model's
``problems`` report refuses (w above s, unsolvable decoy bounds, an epsilon
share out of range) or a correlation length that ``effective_length``
refuses (an explicit ``l_c_eff`` shorter than the candidate's required
truncation length, or more coin lags than its cap) consumes no budget, and a
candidate the pipeline refuses consumes its evaluation. A search in which
every candidate was refused raises the first refusal, so a model that no
candidate can run under is reported as the config error it is, not as a zero
key.

A coordinate move leaves most inputs alone, so one search computes each
stage once per distinct input: the intensity set with its correlation length
(keyed by s, w, p_s, p_w), and the decoy bounds and the coin parameter that
``evaluate_pipeline`` asks of its ``stages``, the search's ``_Objective``.
That object holds the search's whole state; its memos live and die with it,
and every score equals the pipeline's without them. A missed stage is called
as ``keyrate.apply_decoy_bounds`` and ``correlations.coin_parameter_bound``,
the names the benchmark's tracer wraps. The expected counts are not reused
yet: each evaluation calls ``expected_counts`` and then ``evaluate_pipeline``,
the pair the benchmark times as one request. The winner is re-evaluated
without any memo.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, replace

from . import correlations, keyrate
from .correlations import CorrelationModel, effective_length, validate_correlation
from .counts import ObservedCounts
from .decoy import DecoyBounds
from .keyrate import DEFAULT_F_EC, KeyRateResult, evaluate_pipeline, validate_f_ec
from .model import (ConfigError, EpsilonBudget, IntensitySet, ProtocolConfig, mean_intensity,
                    require, validate_block_size, validate_epsilons)
from .phase_error import pe_epsilons
from .simulator import ChannelModel, expected_counts

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

PARAM_NAMES = ("s", "w", "p_s", "p_w", "p_keep", "u_A", "u_B")
# search box of each candidate coordinate, in PARAM_NAMES order; those of p_w
# and u_A bound their shares (see _params)
BOXES = (
    (0.1, 1.0), (0.01, 0.5), (0.05, 0.99), (0.02, 0.9999), (0.5, 0.999), (0.02, 0.9999),
    (0.02, 0.99),
)
# a line search stops once its bracket is this fraction of the box
LINE_SEARCH_TOL = 5e-3
# one point of the search: a plain float per PARAM_NAMES entry
Candidate = tuple[float, ...]

@dataclass(frozen=True)
class OptimizationSpec:
    """Fixed quantities and evaluation budget; the search box is ``BOXES``."""

    N: int
    v: float = 0.0
    eps_pe_target: float = 1e-10
    eps_PA: float = 1e-10
    eps_EV: float = 1e-10
    correlation: CorrelationModel | None = None
    f_EC: float = DEFAULT_F_EC
    budget: int = 400


def validate_optimization(spec: OptimizationSpec) -> list[str]:
    """List of violated invariants; empty means the spec is usable. ``N``, the
    epsilons and ``f_EC`` follow their owners' rules in ``model`` and
    ``keyrate``; the ``v`` and ``eps_pe_target`` rules leave some candidate
    feasible and give every one a positive concentration budget."""
    if isinstance(spec.budget, bool) or not isinstance(spec.budget, int):
        problems = [f"budget must be a whole number of evaluations, got {spec.budget!r}"]
    else:
        problems = [] if spec.budget >= 1 else [f"budget must be >= 1, got {spec.budget}"]
    if not 0.0 <= spec.v < BOXES[1][1]:
        problems.append(f"v must lie in [0, {BOXES[1][1]}), below the top of the box of w, "
                        f"got {spec.v}")
    problems += validate_block_size(spec.N) + validate_f_ec(spec.f_EC)
    problems += validate_epsilons(spec, ("eps_pe_target", "eps_PA", "eps_EV"))
    if spec.correlation is not None:
        problems.extend(validate_correlation(spec.correlation))
        d = spec.correlation.truncation_d
        if not spec.eps_pe_target > d:
            problems.append(f"eps_pe_target must exceed the correlation model's "
                            f"truncation_d={d}, got {spec.eps_pe_target}")
    return problems


@dataclass(frozen=True)
class OptimizationResult:
    params: dict
    key_length: int
    result: KeyRateResult
    evaluations: int
    point: Candidate  # the winning candidate, which a scan passes on

    @property
    def zero_key_everywhere(self) -> bool:
        return self.key_length == 0


def _params(candidate: Candidate) -> Candidate:
    """The ``PARAM_NAMES`` values of a candidate, which holds p_w as its share
    of 1 - p_s and u_A as its share of 1 - u_B."""
    s, w, p_s, w_share, p_keep, a_share, u_b = candidate
    return s, w, p_s, w_share * (1.0 - p_s), p_keep, a_share * (1.0 - u_b), u_b


def _build_config(candidate: Candidate, spec: OptimizationSpec,
                  intensity_sets: dict) -> ProtocolConfig:
    """Candidate -> runnable configuration; the ConfigError of its
    ``problems`` report when that is not empty, or of ``effective_length``
    when it refuses its correlation length. ``intensity_sets``, one search's memo,
    maps (s, w, p_s, p_w) to the intensity set and its correlation length; a
    refusal is not stored."""
    s, w, p_s, p_w, p_keep, u_a, u_b = _params(candidate)
    p_v, u_c = 1.0 - p_s - p_w, 1.0 - u_a - u_b
    key = (s, w, p_s, p_w)
    known = intensity_sets.get(key)
    if known is None:
        iset = IntensitySet(s=s, w=w, v=spec.v, p_s=p_s, p_w=p_w, p_v=p_v)
        known = intensity_sets[key] = (
            iset, effective_length(spec.N, mean_intensity(iset), spec.correlation))
    iset, l_c = known
    d = 0.0 if spec.correlation is None else spec.correlation.truncation_d
    pe_mass = spec.eps_pe_target - d  # positive: validate_optimization
    budget = EpsilonBudget(*pe_epsilons(u_a, u_b, u_c, pe_mass, l_c),
                           eps_PA=spec.eps_PA, eps_EV=spec.eps_EV, d=d)
    config = ProtocolConfig(N=spec.N, intensity_set=iset, p_keep=p_keep, epsilon_budget=budget)
    require(config.problems)
    return config


def _score(result: KeyRateResult) -> float:
    """Key length when positive, else -e_ph_upper in [-1, 0]."""
    return result.key_length if result.key_length > 0 else -result.e_ph_upper


class _Spent(Exception):
    """An evaluation the budget has no room for; it ends the search."""


@dataclass
class _Objective:
    spec: OptimizationSpec
    channel: ChannelModel
    evaluations: int = 0
    cache: dict = field(default_factory=dict)  # candidate -> score, -inf if refused
    intensity_sets: dict = field(default_factory=dict)  # see _build_config
    decoy: dict = field(default_factory=dict)  # see decoy_bounds
    coin: dict = field(default_factory=dict)  # see coin_parameter
    refusal: ConfigError | None = None  # the first refusal, of any stage
    # (candidate, score): the first candidate to reach the top score of the
    # current descent, which resets it, and of the whole search
    best: tuple = (None, -math.inf)
    winner: tuple = (None, -math.inf)

    def decoy_bounds(self, observed: ObservedCounts, config: ProtocolConfig) -> DecoyBounds:
        """The decoy stage, keyed by every input it reads: the z_det, x_det and
        x_err counts, the six intensity-set values and eps_B."""
        # the triples' counts spelled out: hashing three triples costs twice this
        z, x, e, iset = observed.z_det, observed.x_det, observed.x_err, config.intensity_set
        key = (z.m_s, z.m_w, z.m_v, x.m_s, x.m_w, x.m_v, e.m_s, e.m_w, e.m_v, iset.s, iset.w,
               iset.v, iset.p_s, iset.p_w, iset.p_v, config.epsilon_budget.eps_B)
        bounds = self.decoy.get(key)
        if bounds is None:
            bounds = self.decoy[key] = keyrate.apply_decoy_bounds(observed, config)
        return bounds

    def coin_parameter(self, l_c: int, iset: IntensitySet, model: CorrelationModel) -> float:
        """The coin stage, keyed by every input it reads: (l_c, iset, model)."""
        key = (l_c, iset, model)
        coin_param = self.coin.get(key)
        if coin_param is None:
            coin_param = self.coin[key] = correlations.coin_parameter_bound(l_c, iset, model)
        return coin_param

    def __call__(self, candidate: Candidate) -> float:
        """The candidate's score, which ``best`` and ``winner`` take when it
        beats theirs; raises ``_Spent`` rather than evaluate past the budget.
        A refused candidate scores -inf, which beats nothing; only one that
        builds a config spends an evaluation."""
        score = self.cache.get(candidate)
        if score is None:
            try:
                config = _build_config(candidate, self.spec, self.intensity_sets)
                if self.evaluations >= self.spec.budget:
                    raise _Spent
                self.evaluations += 1
                observed, _ = expected_counts(config, self.channel)
                score = _score(evaluate_pipeline(observed, config, self.spec.correlation,
                                                 f_EC=self.spec.f_EC, stages=self))
            except ConfigError as exc:
                self.refusal = self.refusal or exc
                score = -math.inf
            self.cache[candidate] = score
        if score > self.best[1]:
            self.best = candidate, score
        if score > self.winner[1]:
            self.winner = candidate, score
        return score


def _golden_section(
    objective: _Objective, candidate: Candidate, coord: int, lo: float, hi: float
) -> None:
    """Maximize along one coordinate of ``candidate``; the objective keeps
    the best point probed."""

    def probe(value: float) -> float:
        return objective(candidate[:coord] + (value,) + candidate[coord + 1:])

    tol = LINE_SEARCH_TOL * (hi - lo)
    a, b = lo, hi
    c, d = b - INVPHI * (b - a), a + INVPHI * (b - a)
    fc, fd = probe(c), probe(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - INVPHI * (b - a)
            fc = probe(c)
        else:
            a, c, fc = c, d, fd
            d = a + INVPHI * (b - a)
            fd = probe(d)


def _coordinate_descent(objective: _Objective, start: Candidate) -> None:
    """Passes of line searches, each from ``objective.best``, which starts
    at ``start``, until a pass leaves its score where it was."""
    objective.best = start, -math.inf
    objective(start)
    passed = None  # best's score when the last pass began
    while objective.best[1] != passed:
        passed = objective.best[1]
        for coord, (lo, hi) in enumerate(BOXES):
            current = objective.best[0]
            if coord == 1:
                # keep the weak intensity's box below the current signal one
                hi = min(hi, current[0] * 0.99)
                if hi <= lo:
                    continue
            _golden_section(objective, current, coord, lo, hi)


def _center_start(v: float) -> Candidate:
    """The start every search descends from, feasible at each v that
    ``validate_optimization`` accepts but those within 1e-8 of 0.5, where the
    decoy bounds' (w - v)(s - w - v), at most (0.5 - v)^2 in the box, drowns
    in the rounding of the model's check. The signal intensity mid-box, or
    2v + 0.01 up to the top of its box where that is larger, so s > 2v; the
    weak decoy at a quarter of it, or at half of it where a quarter is not
    above v, which puts w midway in the (v, s - v) that the decoy bounds
    need; probabilities (0.7, 0.15, 0.15), mid-box p_keep, even epsilon
    split."""
    s = min(BOXES[0][1], max(0.5 * (BOXES[0][0] + BOXES[0][1]), 2.0 * v + 0.01))
    w = s / 4.0 if v < s / 4.0 else s / 2.0
    p_keep = 0.5 * (BOXES[4][0] + BOXES[4][1])
    return (s, w, 0.7, 0.5, p_keep, 0.5, 1.0 / 3.0)


def _describe(candidate: Candidate, spec: OptimizationSpec) -> dict:
    params = dict(zip(PARAM_NAMES, _params(candidate)))
    params["v"] = spec.v
    params["p_v"] = 1.0 - params["p_s"] - params["p_w"]
    params["u_C"] = 1.0 - params["u_A"] - params["u_B"]
    return params


def optimize_params(
    spec: OptimizationSpec,
    channel: ChannelModel,
    warm_start: Candidate | None = None,
) -> OptimizationResult:
    """Best (parameters, key rate) found within the evaluation budget,
    searched from ``warm_start``, if given, then from the centre start.

    Deterministic for fixed (spec, channel, warm_start). A run whose best
    candidate certifies no key is reported with ``zero_key_everywhere``
    rather than treated as a failure; a spec that fails
    :func:`validate_optimization`, or a search that refused every candidate
    it probed, raises :class:`~corrbb84.model.ConfigError`, the latter its
    first refusal.
    """
    require(validate_optimization(spec))
    objective = _Objective(spec, channel)
    starts = [] if warm_start is None else [tuple(map(float, warm_start))]
    with contextlib.suppress(_Spent):
        for start in starts + [_center_start(spec.v)]:
            _coordinate_descent(objective, start)
    best_point, best_score = objective.winner
    if best_point is None:
        raise objective.refusal
    config = _build_config(best_point, spec, {})
    observed, _ = expected_counts(config, channel)
    result = evaluate_pipeline(observed, config, spec.correlation, f_EC=spec.f_EC)
    if _score(result) != best_score:
        raise RuntimeError(
            f"winner re-evaluation disagrees: {_score(result)} != {best_score}"
        )
    return OptimizationResult(params=_describe(best_point, spec), key_length=result.key_length,
                              result=result, evaluations=objective.evaluations, point=best_point)


def scan_distance(
    spec: OptimizationSpec,
    channel: ChannelModel,
    distances: list[float],
    seed: int | None = None,
) -> list[dict]:
    """Optimized key length per channel distance; one row per distance, each
    search also started from the previous distance's winner. ``seed`` is
    ignored: the benchmark harness is the only caller that still passes it,
    and the benchmark change of ROADMAP Direction 5 deletes both."""
    rows, warm = [], None
    for distance in distances:
        outcome = optimize_params(spec, replace(channel, distance_km=distance), warm)
        warm = outcome.point
        row = {
            "distance_km": distance,
            "key_length": outcome.key_length,
            "eps_sec": outcome.result.eps_sec,
            "evaluations": outcome.evaluations,
        }
        row.update({f"param_{k}": v for k, v in outcome.params.items()})
        rows.append(row)
    return rows
