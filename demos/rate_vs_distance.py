#!/usr/bin/env python3
"""Optimized key length as a function of channel distance.

Runs the derivative-free parameter search at each distance (after the
first, started from the previous optimum instead of the centre start) and
prints the resulting curve. Each distance's one coordinate descent runs until
a pass improves nothing. Equivalent to `corrbb84 scan` but narrated.
"""

from corrbb84.optimizer import OptimizationSpec, scan_distance
from corrbb84.simulator import ChannelModel


def main():
    spec = OptimizationSpec(N=10**9)
    channel = ChannelModel(distance_km=0.0)
    distances = [0.0, 10.0, 20.0, 40.0, 60.0, 80.0]
    print(f"searching {len(distances)} distances, each until it converges\n")
    print(" km  | key length |    s    |    w    | p_keep | evals")
    print("-----+------------+---------+---------+--------+------")
    for row in scan_distance(spec, channel, distances):
        print(f"{row['distance_km']:4.0f} | {row['key_length']:10d} | {row['param_s']:7.4f} "
              f"| {row['param_w']:7.4f} | {row['param_p_keep']:6.4f} | {row['evaluations']:5d}")


if __name__ == "__main__":
    main()
