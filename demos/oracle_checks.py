#!/usr/bin/env python3
"""Show the analytical bounds side by side with their brute-force oracles.

Three comparisons at desk scale:
  1. coin-parameter bound vs exact enumeration for explicit delta tables,
  2. trace-distance bound vs the exact value over all 4^N histories,
  3. trash-count bound vs sampled coin tallies.
Equivalent to `corrbb84 validate` but with the numbers on display.
"""

import math

import numpy as np

from corrbb84 import correlations as corr
from corrbb84 import oracles
from corrbb84.model import single_photon_prob
from corrbb84.phase_error import trash_minus_upper
from corrbb84.validation import reference_config, reference_intensities


def main():
    iset = reference_intensities()
    model = corr.CorrelationModel(delta_1=0.3, decay_C=0.7)
    rng = np.random.default_rng(0)

    print("1) coin parameter: exact vs bound")
    for l_c in (1, 2, 3):
        bound = corr.coin_parameter_bound(l_c, iset, model)
        exact_values = [
            oracles.exact_coin_parameter(l_c, deltas, iset)
            for deltas in oracles.random_admissible_deltas(model, l_c, rng, 200)
        ]
        extreme = oracles.exact_coin_parameter(l_c, oracles.extreme_deltas(model, l_c), iset)
        print(f"   l_c={l_c}: bound={bound:.6e}  max over 200 random tables="
              f"{max(exact_values):.6e}  extreme table={extreme:.6e}")

    print("\n2) truncation error: exact trace distance vs bound (l_c = 1)")
    mu_bar = sum(mu * p for mu, p in iset.pairs())
    tr_model = corr.CorrelationModel(delta_1=0.2, decay_C=0.8)
    for N in (2, 4, 6, 8):
        bound = corr.trace_distance_bound(N, mu_bar, 1, tr_model)
        worst = 0.0
        tables = oracles.random_admissible_deltas(tr_model, N - 1, rng, 100)
        for fidelity in corr.exact_global_fidelity(N, 1, tables, iset):
            worst = max(worst, math.sqrt(max(0.0, 1.0 - fidelity**2)))
        print(f"   N={N}: bound={bound:.5f}  worst exact over 100 tables={worst:.5f}")

    print("\n3) trash-count bound vs sampled tallies (N=1e5, 1000 trials)")
    config = reference_config(10**5)
    deltas = oracles.extreme_deltas(model, 1)
    coin = corr.coin_parameter_bound(1, iset, model)
    p1 = single_photon_prob(iset)
    bound = trash_minus_upper(config.N, p1, config.p_keep, 1, coin, 1e-3)
    tallies = oracles.coin_monte_carlo(config.N, config, deltas, 1, trials=1000, seed=42)
    print(f"   bound={bound:.1f}  tally mean={tallies.mean():.1f}  "
          f"max={tallies.max()}  exceedances={(tallies > bound).sum()}/1000 "
          f"(budget allows {2 * 1e-3:.1%})")


if __name__ == "__main__":
    main()
