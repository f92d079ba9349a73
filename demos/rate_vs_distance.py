#!/usr/bin/env python3
"""Optimized key length as a function of channel distance.

Runs the derivative-free parameter search at each distance (after the
first, started from the previous optimum instead of the centre start) and
prints the resulting curve. Each distance's one coordinate descent runs until
a pass improves nothing or its 150 evaluations are spent. Equivalent to
`corrbb84 scan` but narrated.
"""

from corrbb84.optimizer import OptimizationSpec, scan_distance
from corrbb84.simulator import ChannelModel


def main():
    spec = OptimizationSpec(N=10**9, budget=150)
    channel = ChannelModel(distance_km=0.0)
    distances = [0.0, 10.0, 20.0, 40.0, 60.0, 80.0]
    print(f"searching {len(distances)} distances, "
          f"budget {spec.budget} evaluations each\n")
    print(" km  | key length |    s    |    w    | p_keep | evals")
    print("-----+------------+---------+---------+--------+------")
    for row in scan_distance(spec, channel, distances):
        s = row.get("param_s", float("nan"))
        w = row.get("param_w", float("nan"))
        pk = row.get("param_p_keep", float("nan"))
        print(f"{row['distance_km']:4.0f} | {row['key_length']:10d} | {s:7.4f} "
              f"| {w:7.4f} | {pk:6.4f} | {row['evaluations']:5d}")


if __name__ == "__main__":
    main()
