"""Certified-output fingerprint: key_length, eps_sec and e_ph_upper from
``expected_counts`` on a fixed grid of distances x correlation settings.

The values in ``fingerprint.json`` were recorded once and are checked on
every benchmark run: ``key_length`` exactly, the floats to within the number
of ulp recorded with them. A mismatch counts as a failed operation; it does
not stop the run.

Record again (only when a change of the certified numbers is intended and
explained) with:

    PYTHONPATH=src python3 perfbench/fingerprint.py --record
"""

from __future__ import annotations

import argparse
import json
import math
from dataclasses import replace
from pathlib import Path

PATH = Path(__file__).with_name("fingerprint.json")

DISTANCES_KM = (0.0, 10.0, 25.0, 40.0, 55.0)
# (delta_1, decay_C, d, l_c_eff); l_c_eff None means derived from d
CORRELATIONS = (
    None,
    (0.05, 1.0, 1e-12, None),
    (0.2, 0.2, 1e-12, None),
    (0.1, 0.5, 0.0, 4),
)
FLOAT_ULPS = 4


def _case(distance_km: float, correlation):
    from corrbb84.correlations import CorrelationModel, required_truncation_length
    from corrbb84.model import mean_intensity
    from corrbb84.simulator import ChannelModel
    from corrbb84.validation import reference_config

    config = reference_config(10**9)
    model = None
    if correlation is not None:
        delta_1, decay_C, d, l_c = correlation
        model = CorrelationModel(delta_1, decay_C, d, l_c or 0)
        if l_c is None:
            l_c = required_truncation_length(
                config.N, mean_intensity(config.intensity_set), model)
            model = replace(model, l_c_eff=l_c)
        config = replace(config, epsilon_budget=replace(config.epsilon_budget, d=d))
    return config, ChannelModel(distance_km=distance_km), model


def evaluate() -> list[dict]:
    """The grid's current certified outputs."""
    from corrbb84.keyrate import evaluate_pipeline
    from corrbb84.simulator import expected_counts

    rows = []
    for correlation in CORRELATIONS:
        for distance in DISTANCES_KM:
            config, channel, model = _case(distance, correlation)
            observed, _ = expected_counts(config, channel)
            result = evaluate_pipeline(observed, config, model)
            rows.append({
                "distance_km": distance,
                "correlation": correlation,
                "key_length": result.key_length,
                "eps_sec": result.eps_sec,
                "e_ph_upper": result.e_ph_upper,
            })
    return rows


def _within_ulps(value: float, recorded: float, ulps: int) -> bool:
    return abs(value - recorded) <= ulps * math.ulp(recorded)


def check() -> tuple[int, list[str]]:
    """(points checked, mismatch messages) against the recorded values."""
    recorded = json.loads(PATH.read_text())
    ulps = recorded["float_ulps"]
    expected = recorded["points"]
    mismatches = []
    try:
        current = evaluate()
    except Exception as exc:  # every point counts as failed
        return len(expected), [f"grid evaluation raised {exc!r}"] * len(expected)
    if len(current) != len(expected):
        return len(expected), [f"grid has {len(current)} points, "
                               f"{len(expected)} recorded"] * len(expected)
    for want, got in zip(expected, current):
        where = f"{want['distance_km']} km, correlation {want['correlation']}"
        if got["key_length"] != want["key_length"]:
            mismatches.append(f"{where}: key_length {got['key_length']} "
                              f"!= {want['key_length']}")
        elif not all(_within_ulps(got[k], want[k], ulps) for k in ("eps_sec", "e_ph_upper")):
            mismatches.append(f"{where}: eps_sec/e_ph_upper "
                              f"{got['eps_sec']!r}/{got['e_ph_upper']!r} off by more "
                              f"than {ulps} ulp")
    return len(expected), mismatches


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="overwrite fingerprint.json with the current outputs")
    args = parser.parse_args()
    if args.record:
        import corrbb84

        PATH.write_text(json.dumps({
            "recorded_with": f"corrbb84 {corrbb84.__version__}",
            "float_ulps": FLOAT_ULPS,
            "points": evaluate(),
        }, indent=1) + "\n")
    points, mismatches = check()
    print(f"{points} points, {len(mismatches)} mismatches")
    for line in mismatches:
        print("  " + line)


if __name__ == "__main__":
    main()
