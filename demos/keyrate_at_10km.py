#!/usr/bin/env python3
"""Walk through one key-rate evaluation at 10 km, term by term.

Builds a reference configuration, generates expected-value detection
statistics for an honest lossy channel, runs the full security pipeline and
prints every intermediate quantity that feeds the certified key length.
"""

from dataclasses import replace

from corrbb84 import (
    ChannelModel,
    EpsilonBudget,
    IntensitySet,
    ProtocolConfig,
    evaluate_pipeline,
    expected_counts,
)
from corrbb84.correlations import CorrelationModel


def main():
    config = ProtocolConfig(
        N=10**9,
        intensity_set=IntensitySet(s=0.5, w=0.1, v=0.0, p_s=0.7, p_w=0.15, p_v=0.15),
        p_keep=0.8,
        epsilon_budget=EpsilonBudget(
            eps_A=1e-10, eps_B=1e-10, eps_C=1e-10, eps_PA=1e-10, eps_EV=1e-10, d=1e-12
        ),
    )
    channel = ChannelModel(distance_km=10.0)
    print(f"channel: 10 km, transmittance eta = {channel.transmittance:.5f}")

    observed, truth = expected_counts(config, channel)
    print(f"detected keep-sifted Z counts (s/w/v): {observed.z_det}")
    print(f"total detected sifted rounds:          {observed.n_sifted_det}")
    print(f"true single-photon Z detections:       {truth.z_det[1].total}")

    # mild encoder correlations; the pipeline truncates them at the length
    # that keeps the state error below d
    model = CorrelationModel(delta_1=0.05, decay_C=1.0, truncation_d=1e-12)
    result = evaluate_pipeline(observed, config, model)
    audit = result.audit
    print(f"\ncorrelation model: Delta_1 = 0.05, C = 1.0 -> "
          f"l_c_eff = {audit['correlation']['l_c']}")
    print(f"decoy single-photon Z bounds: [{audit['decoy_bounds']['z_det_lower']:.1f}, "
          f"{audit['decoy_bounds']['z_det_upper']:.1f}]")
    print(f"coin parameter bound:         {audit['correlation']['coin_parameter']:.3e}")
    print(f"trash-minus upper bound:      {audit['correlation']['trash_minus_upper']:.1f}")
    print(f"phase-error rate bound:       {result.e_ph_upper:.5f}")
    print(f"error-correction leakage:     {result.lambda_EC:.1f} bits")
    print(f"\ncertified key length:         {result.key_length} bits")
    print(f"security parameter eps_sec:   {result.eps_sec:.3e}")

    clean = replace(config, epsilon_budget=replace(config.epsilon_budget, d=0.0))
    uncorrelated = evaluate_pipeline(observed, clean, None)
    print(f"(uncorrelated source would give {uncorrelated.key_length} bits)")


if __name__ == "__main__":
    main()
