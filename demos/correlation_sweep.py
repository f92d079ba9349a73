#!/usr/bin/env python3
"""Key length versus encoder-correlation strength.

Sweeps the nearest-neighbour correlation magnitude at fixed decay rate and
shows how the certified key shrinks as the coin penalty grows, including the
derived truncation length. Plots the curve when matplotlib is available.
"""

from dataclasses import replace

import numpy as np

from corrbb84 import evaluate_pipeline, expected_counts
from corrbb84.correlations import CorrelationModel
from corrbb84.validation import reference_channel, reference_config

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    HAS_MPL = True
except Exception:
    HAS_MPL = False


def main():
    config = reference_config(10**9)
    swept = replace(config, epsilon_budget=replace(config.epsilon_budget, d=1e-12))
    channel = reference_channel(10.0)
    observed, _ = expected_counts(config, channel)

    print(" Delta_1 |  l_c_eff | coin bound |  e_ph bound | key length")
    print("---------+----------+------------+-------------+-----------")
    sweep = np.linspace(0.0, 0.2, 10)
    keys = []
    for delta_1 in sweep:
        if delta_1 == 0.0:
            result = evaluate_pipeline(observed, config, None)
        else:
            model = CorrelationModel(
                delta_1=float(delta_1), decay_C=1.0, truncation_d=1e-12
            )
            result = evaluate_pipeline(observed, swept, model)
        l_c = result.audit["correlation"]["l_c"]
        coin = result.audit["correlation"]["coin_parameter"]
        keys.append(result.key_length)
        print(f"  {delta_1:.4f} | {l_c:8d} | {coin:10.3e} | {result.e_ph_upper:11.5f} "
              f"| {result.key_length:10d}")

    if HAS_MPL:
        plt.figure(figsize=(6, 4))
        plt.plot(sweep, keys, marker="o")
        plt.xlabel("nearest-neighbour correlation magnitude (rad)")
        plt.ylabel("certified key length (bits)")
        plt.title("10 km, N = 1e9, decay rate C = 1")
        plt.grid(True)
        plt.tight_layout()
        plt.savefig("correlation_sweep.png", dpi=120)
        print("\nwrote correlation_sweep.png")


if __name__ == "__main__":
    main()
