"""Optimizer grid: the key each cold search certifies on a fixed 105-cell grid.

Cells are the distances 0-60 km in 10 km steps, three settings (uncorrelated
at eps_pe_target 1e-10, with v = 0 and with a vacuum decoy of v = 0.1;
delta_1 0.05, decay_C 1, d 1e-12 at eps_pe_target 2e-10, v = 0) and seeds
1-5, at N = 1e9 on the reference channel.
Each cell is one ``optimize_params`` call with no warm start, so a change to
the search (its coordinates, boxes, starts or stopping rule) shows as a
per-cell and a summed key. For each budget and setting the report also
counts the distances whose key differs across the seeds, which move only the
search's drawn starts, and sums the evaluations the cells spent, so a change
to where the search stops shows even where no key moves. The grid runs at
budgets 100 and 400; the whole report takes a few seconds.

Run it from the repository root; it is a script, not a pytest module:

    PYTHONPATH=src python tests/optimizer_grid.py [--summary FILE]

The report goes to stdout; ``--summary`` also appends it to FILE, in a
Markdown code block.
"""

from __future__ import annotations

import argparse
import time

from corrbb84.correlations import CorrelationModel
from corrbb84.optimizer import OptimizationSpec, optimize_params
from corrbb84.validation import reference_channel

N = 10**9
DISTANCES_KM = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0)
SEEDS = (1, 2, 3, 4, 5)
BUDGETS = (100, 400)
# name -> (correlation model, eps_pe_target, vacuum intensity v)
SETTINGS = {
    "uncorrelated": (None, 1e-10, 0.0),
    "uncorr v=0.1": (None, 1e-10, 0.1),
    "correlated": (CorrelationModel(delta_1=0.05, decay_C=1.0, truncation_d=1e-12), 2e-10, 0.0),
}


def grid_keys(budget: int) -> dict[tuple[str, int, float], tuple[int, int]]:
    """(setting, seed, distance) -> the key length of that cell's search and
    the evaluations it spent."""
    keys = {}
    for name, (model, eps_pe_target, v) in SETTINGS.items():
        spec = OptimizationSpec(N=N, v=v, eps_pe_target=eps_pe_target, correlation=model,
                                budget=budget)
        for seed in SEEDS:
            for distance in DISTANCES_KM:
                outcome = optimize_params(spec, reference_channel(distance), seed=seed)
                keys[name, seed, distance] = outcome.key_length, outcome.evaluations
    return keys


def report() -> list[str]:
    lines = []
    for budget in BUDGETS:
        started = time.perf_counter()
        cells = grid_keys(budget)
        keys = {cell: key for cell, (key, _) in cells.items()}
        elapsed = time.perf_counter() - started
        lines.append(f"budget {budget} ({len(keys)} cells, {elapsed:.2f} s)")
        lines.append(f"{'setting':<13} {'seed':>4} " + " ".join(f"{d:>10.0f}" for d in DISTANCES_KM))
        for name in SETTINGS:
            for seed in SEEDS:
                row = " ".join(f"{keys[name, seed, d]:>10}" for d in DISTANCES_KM)
                lines.append(f"{name:<13} {seed:>4} {row}")
        moved = ", ".join(
            f"{name} {sum(len({keys[name, s, d] for s in SEEDS}) > 1 for d in DISTANCES_KM)}"
            for name in SETTINGS)
        lines.append(f"distances whose key differs across seeds {SEEDS[0]}-{SEEDS[-1]} "
                     f"(of {len(DISTANCES_KM)}): {moved}")
        spent = ", ".join(
            f"{name} {sum(cells[name, s, d][1] for s in SEEDS for d in DISTANCES_KM)}"
            for name in SETTINGS)
        lines.append(f"summed evaluations at budget {budget}: {spent}")
        lines.append(f"summed key at budget {budget}: {sum(keys.values())}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summary", help="also append the report to this file")
    args = parser.parse_args(argv)
    lines = report()
    print(*lines, sep="\n")
    if args.summary:
        with open(args.summary, "a") as handle:
            print("Optimizer grid (cold searches, key bits per cell; columns in km)", file=handle)
            print("```", *lines, "```", sep="\n", file=handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
