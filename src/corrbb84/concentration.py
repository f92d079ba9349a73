"""Concentration-inequality layer.

Two primitives back all statistical estimates:

* ``azuma_delta`` -- martingale deviation sqrt(2 n ln(1/eps)) for bounded
  increments over n steps.
* ``binomial_bound_pair`` -- confidence bounds on the mean of a sum of
  independent Bernoulli variables given an observed count, obtained by
  inverting the Chernoff bound exp(-n D(k/n || p)) in the Bernoulli relative
  entropy D. Bisection to absolute tolerance 1e-12 in the rate. Each side
  is one KL inversion and is computed only when asked for; a side not asked
  for is its trivial bound.

The computed D(p || x) takes the log of a ratio near 1, so it carries an
absolute error of a few ulp of (1 + D). Within a *noise window* of width
about u (1 + D) x (1 - x) / |x - p| around the root (u = 2^-52) the sign of
D - target is decided by that noise, and the window is comparable to the
bisection tolerance, so the returned midpoint depends on the exact sequence
of comparisons. ``_solve_kl`` therefore first locates the root with a
bracketed Newton iteration and then *replays* the bisection: every step
farther than ``REPLAY_MARGIN`` windows from the root is decided from the
root, only the few steps inside evaluate D. The returned bound is the
evaluated bisection's bit for bit, at about an eighth of its D evaluations.

All logarithms are natural. Pure functions, safe under concurrency.
"""

from __future__ import annotations

import math
from functools import lru_cache

BISECTION_TOL = 1e-12
# The bisection evaluates D only within this many noise windows of the
# Newton root (see ``_solve_kl``); NEWTON_STEPS caps the root search.
REPLAY_MARGIN = 16.0
NEWTON_STEPS = 60
_ROUNDOFF = 2.0**-52


def _check_epsilon(epsilon: float) -> None:
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie strictly in (0, 1), got {epsilon}")


def azuma_delta(n: int, epsilon: float) -> float:
    """Martingale deviation sqrt(2 n ln(1/epsilon)) for n bounded increments."""
    _check_epsilon(epsilon)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return math.sqrt(2.0 * n * math.log(1.0 / epsilon))


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


def _noise_window(p_hat: float, target: float, x: float) -> float:
    """Width in x around the root of D(p_hat || x) = target inside which the
    computed sign of D - target is rounding noise: the error u (1 + target)
    of D over its slope (x - p_hat) / (x (1 - x)), plus one ulp of x."""
    return _ROUNDOFF * (1.0 + target) * x * (1.0 - x) / abs(x - p_hat) + math.ulp(x)


def _newton_root(p_hat: float, target: float, lower: bool) -> float | None:
    """Root of D(p_hat || x) = target below (``lower``) or above p_hat, to
    within its noise window; None if the iteration does not settle.

    Works in w, the distance of x from the end of [0, 1] on its side (w = x
    below p_hat, 1 - x above), and q, that of p_hat. D is convex and
    decreasing in log w, so a Newton step in log w keeps w > 0 and, after
    the first step, approaches the root from outside; a step that leaves the
    bracket of evaluated signs falls back to its midpoint. It stops when the
    step, or the error that the curvature predicts after it, is inside the
    noise window.
    """
    q = p_hat if lower else 1.0 - p_hat
    w_out, w_in = 0.0, q  # outer end (D >= target) and inner end of the bracket
    # start from the cubic Taylor expansion of D(q || q - d) = target in d
    d = math.sqrt(2.0 * p_hat * (1.0 - p_hat) * target)
    w = q - d * (1.0 + d * (q / (1.0 - q) - (1.0 - q) / q) / 3.0) if 0.0 < q < 1.0 else q - d
    if not w_out < w < w_in:
        w = 0.5 * q
    step = error = math.inf
    for _ in range(NEWTON_STEPS):
        x = w if lower else 1.0 - w
        if x == p_hat:
            return None
        if min(error, step) <= _noise_window(p_hat, target, x):
            return x
        if not lower:
            w = 1.0 - x  # step from the rounded x that is evaluated
        f = bernoulli_kl(p_hat, x) - target
        if f == 0.0:
            return x
        if f > 0.0:
            w_out = w
        else:
            w_in = w
        s = f * (1.0 - w) / (q - w)  # Newton step in log w; capped below exp overflow
        new = w * math.exp(min(s, 700.0))
        if w_out < new < w_in:
            m = max(w, new)  # the curvature grows with w, so bound it at the larger end
            error = 0.5 * s * s * m * m * (1.0 - q) * (1.0 - w) / ((1.0 - m) ** 2 * (q - w))
        else:
            new, error = 0.5 * (w_out + w_in), math.inf
        step = abs(new - w)
        w = new
    return None


def _bisect(p_hat: float, target: float, lo: float, hi: float,
            below: float, above: float) -> float:
    """Bisection for D(p_hat || x) = target on [lo, hi], one side of p_hat.

    A midpoint below ``below`` or above ``above`` is decided from the root
    that these bracket; any other evaluates D. With ``below, above = lo, hi``
    every step evaluates D.
    """
    lower = hi <= p_hat
    # D(p_hat || .) is monotone on either side of p_hat, so plain bisection
    # converges; 100 halvings take the bracket far below BISECTION_TOL.
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        # a midpoint below the root moves lo, one above it hi; below p_hat
        # that is D >= target, above p_hat D < target
        if mid < below:
            lo = mid
        elif mid > above:
            hi = mid
        elif (bernoulli_kl(p_hat, mid) >= target) == lower:
            lo = mid
        else:
            hi = mid
        if hi - lo <= BISECTION_TOL:
            break
    return 0.5 * (lo + hi)


def _solve_kl(p_hat: float, target: float, lower: bool) -> float:
    """Root of D(p_hat || x) = target on [0, p_hat] (``lower``) or [p_hat, 1],
    as returned by the bisection that evaluates D at every step.

    The Newton root r decides every step outside r -+ ``REPLAY_MARGIN``
    noise windows. D is evaluated once at each end of that band first; if
    either lands on the wrong side of the target, or Newton did not settle,
    every step evaluates D, so the result never depends on Newton.
    """
    lo, hi = (0.0, p_hat) if lower else (p_hat, 1.0)
    root = _newton_root(p_hat, target, lower)
    if root is not None:
        margin = REPLAY_MARGIN * _noise_window(p_hat, target, root)
        below, above = root - margin, root + margin
        if (below <= lo or (bernoulli_kl(p_hat, below) >= target) == lower) and (
            above >= hi or (bernoulli_kl(p_hat, above) >= target) != lower
        ):
            return _bisect(p_hat, target, lo, hi, below, above)
    return _bisect(p_hat, target, lo, hi, lo, hi)


@lru_cache(maxsize=1 << 17)
def binomial_bound_pair(
    epsilon: float, observed: int, total: int, lower: bool = True, upper: bool = True
) -> tuple[float, float]:
    """Bounds on the expectation of a Bernoulli sum.

    For ``observed`` successes out of ``total`` independent (not necessarily
    identical) Bernoulli trials, returns counts ``(lower, upper)`` such that
    the true expectation of the sum lies outside either bound with
    probability at most ``epsilon`` per side. Only the sides whose flag is
    set are solved; the other comes back as its trivial bound, 0.0 below and
    ``total`` above, which holds with certainty. ``lower <= observed <=
    upper``, and each solved end is nondecreasing in ``observed`` up to the
    solver's precision: it lies within BISECTION_TOL of the exact root in the
    rate, or within the noise window of D where that is wider.
    """
    _check_epsilon(epsilon)
    if observed < 0 or total < 0 or observed > total:
        raise ValueError(f"need 0 <= observed <= total, got {observed}/{total}")
    if total == 0:
        # no trials: the sum is identically zero
        return (0.0, 0.0)
    p_hat = observed / total
    target = math.log(1.0 / epsilon) / total
    low, high = 0.0, float(total)
    # bisection may land an ulp past the observation; keep the contract exact
    if lower and observed > 0:
        low = min(total * _solve_kl(p_hat, target, True), float(observed))
    if upper and observed < total:
        high = max(total * _solve_kl(p_hat, target, False), float(observed))
    return (low, high)
