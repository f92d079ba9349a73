"""Optimizer grid: the key each cold search and each scan row certifies on a fixed grid.

Cells are the distances 0-60 km in 10 km steps and three settings
(uncorrelated at eps_pe_target 1e-10, with v = 0 and with a vacuum decoy of
v = 0.1; delta_1 0.05, decay_C 1, d 1e-12 at eps_pe_target 2e-10, v = 0), at
N = 1e9 on the reference channel.
Each cell is one ``optimize_params`` call with no warm start, so a change to
the search (its coordinates, boxes, start or stopping rule) shows as a
per-cell and a summed key. The report also gives the evaluations each cell
spent, so a cell whose search converges under the budget shows, and a change
to where the search stops shows even where no key moves. Each setting also
runs as one ``scan_distance`` over the seven distances, whose searches after
the first start from the previous row's winner (the warm path that no cold
cell takes), with the key and evaluations of each row and their sums. The
grid runs at budgets 100 and 400 and at the default budget, which a search
that converges never spends: the report gives the largest evaluation count
at the default, and the script exits 1 if a cell or a row spent all of it.
The whole report takes a few seconds.

Run it from the repository root; it is a script, not a pytest module:

    PYTHONPATH=src python tests/optimizer_grid.py [--summary FILE]

The report goes to stdout; ``--summary`` also appends it to FILE, in a
Markdown code block.
"""

from __future__ import annotations

import argparse
import time

from corrbb84.correlations import CorrelationModel
from corrbb84.optimizer import OptimizationSpec, optimize_params, scan_distance
from corrbb84.validation import reference_channel

N = 10**9
DISTANCES_KM = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0)
DEFAULT_BUDGET = OptimizationSpec.budget
BUDGETS = (100, 400, DEFAULT_BUDGET)
# name -> (correlation model, eps_pe_target, vacuum intensity v)
SETTINGS = {
    "uncorrelated": (None, 1e-10, 0.0),
    "uncorr v=0.1": (None, 1e-10, 0.1),
    "correlated": (CorrelationModel(delta_1=0.05, decay_C=1.0, truncation_d=1e-12), 2e-10, 0.0),
}


def grid_keys(budget: int, scan: bool) -> dict[tuple[str, float], tuple[int, int]]:
    """(setting, distance) -> the key length of that cell's search and the
    evaluations it spent: a cold search per cell, or with ``scan`` one scan
    per setting, a row per cell."""
    keys = {}
    for name, (model, eps_pe_target, v) in SETTINGS.items():
        spec = OptimizationSpec(N=N, v=v, eps_pe_target=eps_pe_target, correlation=model,
                                budget=budget)
        if scan:
            rows = scan_distance(spec, reference_channel(0.0), list(DISTANCES_KM))
            cells = [(row["key_length"], row["evaluations"]) for row in rows]
        else:
            outcomes = [optimize_params(spec, reference_channel(d)) for d in DISTANCES_KM]
            cells = [(outcome.key_length, outcome.evaluations) for outcome in outcomes]
        keys.update(((name, d), cell) for d, cell in zip(DISTANCES_KM, cells))
    return keys


def report() -> tuple[list[str], int]:
    """The report's lines, and the most evaluations a cell or row spent at
    the default budget."""
    lines, largest = [], 0
    header = f"{'setting':<13} {'':<5} " + " ".join(f"{d:>10.0f}" for d in DISTANCES_KM)
    for budget in BUDGETS:
        for scan, kind in ((False, "cells"), (True, "scan rows")):
            started = time.perf_counter()
            cells = grid_keys(budget, scan)
            elapsed = time.perf_counter() - started
            if budget == DEFAULT_BUDGET:
                largest = max(largest, *(spent for _, spent in cells.values()))
            lines += [f"budget {budget} ({len(cells)} {kind}, {elapsed:.2f} s)", header]
            for name in SETTINGS:
                for label, column in (("key", 0), ("evals", 1)):
                    row = " ".join(f"{cells[name, d][column]:>10}" for d in DISTANCES_KM)
                    lines.append(f"{name:<13} {label:<5} {row}")
            spent = ", ".join(f"{name} {sum(cells[name, d][1] for d in DISTANCES_KM)}"
                              for name in SETTINGS)
            summed = sum(key for key, _ in cells.values())
            lines.append(f"summed evaluations of the {kind} at budget {budget}: {spent}")
            lines.append(f"summed key of the {kind} at budget {budget}: {summed}")
    lines.append(f"largest evaluation count at the default budget {DEFAULT_BUDGET}: {largest}")
    return lines, largest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summary", help="also append the report to this file")
    args = parser.parse_args(argv)
    lines, largest = report()
    print(*lines, sep="\n")
    if args.summary:
        with open(args.summary, "a") as handle:
            print("Optimizer grid (cold searches, then one scan per setting; key bits "
                  "and evaluations per cell; columns in km)", file=handle)
            print("```", *lines, "```", sep="\n", file=handle)
    return 1 if largest >= DEFAULT_BUDGET else 0


if __name__ == "__main__":
    raise SystemExit(main())
