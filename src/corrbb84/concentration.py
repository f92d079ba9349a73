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
u (1 + D) x (1 - x) / |x - p| + ulp(x) around the root (u = 2^-52) the sign
of D - target is decided by that noise, and the window is comparable to the
bisection tolerance, so the returned midpoint depends on the exact sequence
of comparisons. ``_solve_kl`` therefore first locates the root with a
bracketed Newton iteration and then runs one bisection loop that decides
every midpoint farther than ``REPLAY_MARGIN`` windows from that root without
evaluating D; only the few midpoints inside evaluate it. When Newton cannot
be trusted the same loop evaluates every midpoint. Either way the returned
bound is the fully evaluated bisection's bit for bit, the replay at about an
eighth of its D evaluations.

Newton works in w, the distance of x from the end of [0, 1] on its side,
and q, that of p. With r = min(p, 1 - p), few counts (target >= r) start from
D = r (y - 1 - ln y) + r^2 (y - 1)^2 / 2 + O(r^3), x at r y from the end
nearer p (and w = exp(-r y (1 + r / 2)) where y > 1); many counts invert
D(q || q - d) = sum_n a_n d^n = target to fourth order in sqrt(2 q (1 - q) target).
After each step Newton stops once the step, or the error that the curvature
predicts after it, is inside the noise window at the new point: most sides
after one evaluation of D.

All logarithms are natural. Pure, uncached functions, safe under concurrency.
"""

from __future__ import annotations

import math

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
    if 0.0 < p < 1.0 and 0.0 < q < 1.0:
        return p * math.log(p / q) + (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
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


def _newton_root(p_hat: float, target: float, lower: bool) -> float | None:
    """Root of D(p_hat || x) = target below (``lower``) or above p_hat, to
    within its noise window; None if the iteration does not settle.

    Start, w, q and stopping rule as in the module docstring. D is convex and
    decreasing in log w, so a Newton step in log w keeps w > 0 and, after
    the first step, approaches the root from outside; a step that leaves the
    bracket of evaluated signs falls back to its midpoint.
    """
    exp, log, ulp = math.exp, math.log, math.ulp
    q = p_hat if lower else 1.0 - p_hat
    r = p_hat if p_hat < 0.5 else 1.0 - p_hat
    w = 0.5 * q  # the start where p_hat is 0 or 1 and D = -ln w: one step lands
    if target >= r > 0.0:  # few counts: the Poisson form
        c = target / r
        if q < 0.5:  # x between p_hat and the end nearer it: y < 1, a contraction by y
            y = exp(-1.0 - c)
            for _ in range(4):
                y = exp(y - 1.0 - c)
        else:  # y > 1: Newton steps on y - ln y = 1 + c
            y = 1.0 + c + log(1.0 + c)
            for _ in range(2):
                y *= (c + log(y)) / (y - 1.0)
        w = r * y * (1.0 + 0.5 * r * (1.0 - y)) if q < 0.5 else exp(-r * y * (1.0 + 0.5 * r))
    elif r > 0.0:  # many counts: d = q - w to fourth order in u, with k = 1 / (q (1 - q))
        k = 1.0 / (p_hat * (1.0 - p_hat))
        u = math.sqrt(2.0 * target / k)
        w = q - u * (1.0 + (k - 13.0) * target / 18.0
                     - (1.0 - 2.0 * q) * k * u / 3.0 * (1.0 - (k + 23.0) * target / 45.0))
    noise = _ROUNDOFF * (1.0 + target)
    w_out, w_in = 0.0, q  # outer end (D >= target) and inner end of the bracket
    if not lower and w < 0.5 * _ROUNDOFF:  # 1 - w would round to 1: start just below it
        w = 0.5 * _ROUNDOFF
    if not w_out < w < w_in:
        w = 0.5 * q
    x = w if lower else 1.0 - w
    if x == p_hat:
        return None
    for _ in range(NEWTON_STEPS):
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
        new = w * exp(700.0 if s > 700.0 else s)
        if w_out < new < w_in or new == w:  # new == w: the step is below an ulp of w
            m = new if new > w else w  # the curvature grows with w, so bound it at the larger end
            error = s * s * m * m * (1.0 - q) * (1.0 - w) / (2.0 * (1.0 - m) * (1.0 - m) * (q - w))
        else:
            new, error = 0.5 * (w_out + w_in), math.inf
        step = abs(new - w)
        x = new if lower else 1.0 - new
        if x == p_hat:
            return None
        # the noise window at x (see the module docstring)
        if (step if step < error else error) <= noise * x * (1.0 - x) / abs(x - p_hat) + ulp(x):
            return x
        w = new
    return None


def _solve_kl(p_hat: float, target: float, lower: bool) -> float:
    """Root of D(p_hat || x) = target on [0, p_hat] (``lower``) or [p_hat, 1],
    as returned by the bisection that evaluates D at every midpoint.

    The loop decides a midpoint below ``below`` from the root (it moves lo),
    one above ``above`` likewise (it moves hi), and evaluates D at any other.
    The band edges are the Newton root r -+ ``REPLAY_MARGIN`` noise windows
    once D at each edge lies on that edge's side of the target. If Newton
    does not settle or an edge check fails, the edges are ``lo, hi`` and
    every midpoint evaluates D, so the result never depends on Newton.
    """
    lo, hi = (0.0, p_hat) if lower else (p_hat, 1.0)
    below, above = lo, hi
    root = _newton_root(p_hat, target, lower)
    if root is not None:
        # REPLAY_MARGIN noise windows at the root (see the module docstring)
        margin = REPLAY_MARGIN * (_ROUNDOFF * (1.0 + target) * root * (1.0 - root)
                                  / abs(root - p_hat) + math.ulp(root))
        edge_lo, edge_hi = root - margin, root + margin
        if (edge_lo <= lo or (bernoulli_kl(p_hat, edge_lo) >= target) == lower) and (
            edge_hi >= hi or (bernoulli_kl(p_hat, edge_hi) >= target) != lower
        ):
            below, above = edge_lo, edge_hi
    tol = BISECTION_TOL
    # D(p_hat || .) is monotone on either side of p_hat, so plain bisection
    # converges. A bracket wider than BISECTION_TOL has its midpoint strictly
    # inside, so only the first midpoint, of a bracket an ulp or less wide
    # (p_hat next to 1), can land on an end and stop the search.
    mid = 0.5 * (lo + hi)
    if lo < mid < hi:
        while True:
            # a midpoint below the root moves lo, one above it hi; below
            # p_hat that is D >= target, above p_hat D < target
            if mid < below:
                lo = mid
            elif mid > above:
                hi = mid
            elif (bernoulli_kl(p_hat, mid) >= target) == lower:
                lo = mid
            else:
                hi = mid
            if hi - lo <= tol:
                break
            mid = 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


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
    rate, or within the noise window of D where that is wider. Uncached: the
    benchmark's certify repeats 0.01% of its requests and optimize 14%, and
    ``apply_decoy_bounds`` serves the detections triple both bases share.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie strictly in (0, 1), got {epsilon}")
    if observed < 0 or total < 0 or observed > total:
        raise ValueError(f"need 0 <= observed <= total, got {observed}/{total}")
    if total == 0:
        # no trials: the sum is identically zero
        return (0.0, 0.0)
    p_hat = observed / total
    target = math.log(1.0 / epsilon) / total
    low, high, count = 0.0, float(total), float(observed)
    # bisection may land an ulp past the observation; keep the contract exact
    if lower and observed > 0:
        low = total * _solve_kl(p_hat, target, True)
        low = count if low > count else low
    if upper and observed < total:
        high = total * _solve_kl(p_hat, target, False)
        high = count if high < count else high
    return (low, high)
