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

With u = 2^-52, basic operations correctly rounded and ``math.log`` within
an ulp, the computed D(p || x) of ``bernoulli_kl`` is within 4 u (1 + D) of
the exact D of the same doubles, to first order in u. Each of its two terms
takes the log of a rounded ratio, at most 1.6 u absolute and 2 u relative
error, and their sum rounds once more (0.5 u D); the negative term is at
most |x - p| in size, and |x - p| <= sqrt(D / 2) <= (1 + D) / (2 sqrt 2)
(Pinsker). So the error is at most (1.6 + 2.5 D + 4 |x - p|) u
<= 4 u (1 + D); sampled against 50-digit mpmath it stays below
1.5 u (1 + D). Within a *noise window* of width
u (1 + D) x (1 - x) / |x - p| + ulp(x) around the root, where D moves by one
u (1 + D), the sign of D - target is decided by that noise, and the window
is comparable to the bisection tolerance, so the returned midpoint depends
on the exact sequence of comparisons.

``_solve_kl`` therefore runs one bisection loop that decides every midpoint
outside a band of ``REPLAY_MARGIN`` windows either side of a centre without
evaluating D; only the few midpoints inside evaluate it. Each band edge
must prove its side first: D there must clear the target by 10 u (1 + D),
upward at the edge away from p and downward at the edge towards it. D is
monotone on each side of p, so the exact D at any midpoint beyond a proven
edge lies beyond the edge's, and its computed value, within 4 u (1 + D) of
it, compares with the target as the evaluated bisection's would, with
2 u (1 + D) to spare for the rounding of the test. So the returned bound is
the fully evaluated bisection's bit for bit wherever the centre lies; a
misplaced centre only costs D evaluations, since an edge that fails sends
every midpoint to D.

The centre is the start itself where the start is accurate a priori, that
is where the first term its series omits is within a noise window there.
With r = min(p, 1 - p):

* p in {0, 1}: the exact root, x = exp(-target) or 1 - exp(-target).
* few counts (target >= r): D / r = y - 1 - ln y + r (y - 1)^2 / 2 + ...
  puts x at r y (1 + a1 r + a2 r^2 + a3 r^3) from the end nearer p, with
  y - 1 - ln y = target / r solved by three Newton steps,
  a1 = (1 - y) / 2, a2 = (y - 1)(4 y - 7) / 24 and
  a3 = -(y - 1)(2 y^2 - 8 y + 9) / 48. The omitted a4 r^4 is at most
  0.13 r^4 for y < 1 and (r y)^4 / 120 for y > 1, within a window while r
  (y < 1) or r y (y > 1) is below ``POISSON_LIMIT``.
* many counts: D(q || q - d) = sum_n c_n d^n = target inverted to fifth
  order in h = sqrt(2 q (1 - q) target), q the distance of p from x's end
  and k = 1 / (q (1 - q)). The omitted sixth-order term is at most
  4 target^3 (k + 16)^2 / 8505, within the window 1 / (k h) in units of
  u while target^3 k h (k + 16)^2 is below ``SERIES_LIMIT``.

Elsewhere, or where an edge fails, the centre is the root of a bracketed
Newton iteration from the same start, in w, the distance of x from the end
of [0, 1] on its side; where y > 1 and r y > 1/2 the few-count series is no
start, and Newton takes w = exp(-r y (1 + r / 2)), which stays positive.
Newton stops once the step, or the error that the curvature predicts
after it, is inside the noise window at the new point: most sides after
one evaluation of D. On the benchmark's certify sides 90% of the centres
are starts; a side costs about 2.5 evaluations of D, against 3.4 when every
centre was a Newton root.

All logarithms are natural. Pure, uncached functions, safe under concurrency.
"""

from __future__ import annotations

import math

BISECTION_TOL = 1e-12
# The bisection evaluates D only within this many noise windows of its
# centre (see ``_solve_kl``); NEWTON_STEPS caps the root search.
REPLAY_MARGIN = 16.0
NEWTON_STEPS = 60
_ROUNDOFF = 2.0**-52
# An edge proves its side once D there clears the target by this many
# u (1 + D): twice the error bound of D, and 2 u (1 + D) for the test's own
# rounding (see the module docstring).
_EDGE_NOISE = 10.0 * _ROUNDOFF
# A start is the centre while r (or r y) and target^3 k h (k + 16)^2 stay
# below these; then its first omitted term is within a noise window.
POISSON_LIMIT = 1e-3
SERIES_LIMIT = 2126.0 * _ROUNDOFF


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


def _start(p_hat: float, target: float, lower: bool) -> tuple[float, bool]:
    """The a-priori root x of D(p_hat || x) = target below (``lower``) or
    above p_hat, and whether it is accurate enough to centre the band: its
    first omitted term within a noise window (see the module docstring)."""
    exp, log = math.exp, math.log
    r = p_hat if p_hat < 0.5 else 1.0 - p_hat
    if r == 0.0:  # p_hat is 0 or 1: D = -ln w exactly
        return (exp(-target) if lower else -math.expm1(-target)), True
    if target >= r:  # few counts: x at r y (1 + a1 r + a2 r^2 + a3 r^3) from the end nearer p_hat
        c = target / r
        near = (p_hat if lower else 1.0 - p_hat) < 0.5  # x between p_hat and that end: y < 1
        # y - 1 - ln y = c: one fixed-point step, then three Newton steps, in
        # ln y where y < 1 (it stays finite where y underflows)
        if near:
            z = -1.0 - c
            z += exp(z)
            y = exp(z)
            z -= (y - 1.0 - z - c) / (y - 1.0)
            y = exp(z)
            z -= (y - 1.0 - z - c) / (y - 1.0)
            y = exp(z)
            z -= (y - 1.0 - z - c) / (y - 1.0)
            y = exp(z)
        else:
            y = 1.0 + c + log(1.0 + c)
            y = 1.0 + c + log(y)
            y *= (c + log(y)) / (y - 1.0)
            y *= (c + log(y)) / (y - 1.0)
            y *= (c + log(y)) / (y - 1.0)
        dist = r * y
        if not near and dist > 0.5:  # w, the distance from x's end, kept positive for Newton
            w = exp(-dist * (1.0 + 0.5 * r))
            return (w if lower else 1.0 - w), False
        trusted = (r if near else dist) <= POISSON_LIMIT
        dist += dist * r * (y - 1.0) * (
            r * (y / 6.0 - 7.0 / 24.0 - r * ((y / 24.0 - 1.0 / 6.0) * y + 3.0 / 16.0)) - 0.5)
        return (dist if p_hat < 0.5 else 1.0 - dist), trusted
    # many counts: d = |x - p_hat| to fifth order in h = sqrt(2 target / k)
    k = 1.0 / (p_hat * (1.0 - p_hat))
    h = math.sqrt(2.0 * target / k)
    skew = (1.0 - 2.0 * p_hat) if lower else (2.0 * p_hat - 1.0)  # 1 - 2q
    d = h * (1.0 + (k - 13.0) * target / 18.0 + ((k - 26.0) * k + 313.0) * target * target / 1080.0
             - skew * k * h / 3.0 * (1.0 - (k + 23.0) * target / 45.0))
    trusted = target * target * target * k * h * (k + 16.0) * (k + 16.0) <= SERIES_LIMIT
    return (p_hat - d if lower else p_hat + d), trusted


def _newton_root(p_hat: float, target: float, lower: bool, start: float) -> float | None:
    """Root of D(p_hat || x) = target below (``lower``) or above p_hat, to
    within its noise window, searched from ``start``; None if the iteration
    does not settle.

    D is convex and decreasing in log w, so a Newton step in log w keeps
    w > 0 and, after the first step, approaches the root from outside; a
    step that leaves the bracket of evaluated signs falls back to its
    midpoint.
    """
    exp, ulp = math.exp, math.ulp
    q = p_hat if lower else 1.0 - p_hat
    w = start if lower else 1.0 - start
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


def _proven_band(p_hat: float, target: float, lower: bool,
                 centre: float) -> tuple[float, float] | None:
    """Band edges REPLAY_MARGIN noise windows either side of ``centre`` once
    each proves its side (see the module docstring), else None. An edge
    past an end of the search interval has no midpoint beyond it to prove."""
    if not (0.0 <= centre <= 1.0 and (centre < p_hat if lower else centre > p_hat)):
        return None
    lo, hi = (0.0, p_hat) if lower else (p_hat, 1.0)
    # the noise window at the centre, in an order that cannot underflow to 0
    # unless the window is below an ulp of the centre
    margin = REPLAY_MARGIN * (_ROUNDOFF * (1.0 + target) * (1.0 - centre)
                              / abs(centre - p_hat) * centre + math.ulp(centre))
    edge_lo, edge_hi = centre - margin, centre + margin
    # D falls towards p_hat: the outer edge must clear the target upward
    outer, inner = (edge_lo, edge_hi) if lower else (edge_hi, edge_lo)
    if lo < outer < hi:
        d = bernoulli_kl(p_hat, outer)
        if d - target < _EDGE_NOISE * (1.0 + d):
            return None
    if lo < inner < hi:
        d = bernoulli_kl(p_hat, inner)
        if target - d < _EDGE_NOISE * (1.0 + d):
            return None
    return edge_lo, edge_hi


def _solve_kl(p_hat: float, target: float, lower: bool) -> float:
    """Root of D(p_hat || x) = target on [0, p_hat] (``lower``) or [p_hat, 1],
    as returned by the bisection that evaluates D at every midpoint.

    The loop decides a midpoint below ``below`` from the root (it moves lo),
    one above ``above`` likewise (it moves hi), and evaluates D at any other.
    ``below`` and ``above`` are the edges of a band around the start where
    the start is accurate a priori and both edges prove their side, else
    around the Newton root, again once both edges prove their side; failing
    both they are ``lo, hi`` and every midpoint evaluates D. An edge proves
    its side by the noise bound of D alone (see the module docstring), so
    the result never depends on where the band is centred.
    """
    lo, hi = (0.0, p_hat) if lower else (p_hat, 1.0)
    start, trusted = _start(p_hat, target, lower)
    band = _proven_band(p_hat, target, lower, start) if trusted else None
    if band is None:
        root = _newton_root(p_hat, target, lower, start)
        if root is not None:
            band = _proven_band(p_hat, target, lower, root)
    below, above = (lo, hi) if band is None else band
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
