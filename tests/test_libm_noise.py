"""Certified key lengths under libm noise.

Every rounded ``math`` function the package uses (``NOISY``) is replaced, in
the namespace of each package module, by a wrapper that moves its finite,
nonzero results one ulp up or down, at random from a seeded generator; the
exact ones (``EXACT``) stay. The counts are made before the noise goes in:
it stands for another platform's libm under the certificate, not under the
data. On the 20 points of the certified-output fingerprint grid and on 200
sampled records of the kind the certify benchmark draws, each of five noise
seeds must leave every ``key_length`` where the plain run puts it.
``e_ph_upper`` may move; its largest relative move is reported.

Run as a script to print that move and the keys moved per noise seed
(``--summary FILE`` also appends the report to FILE):

    PYTHONPATH=src python tests/test_libm_noise.py [--summary FILE]
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib
import math
import pkgutil
import random
import types
from dataclasses import replace
from pathlib import Path

import pytest

import corrbb84
from corrbb84.correlations import CorrelationModel, required_truncation_length
from corrbb84.keyrate import evaluate_pipeline
from corrbb84.model import mean_intensity
from corrbb84.simulator import ChannelModel, expected_counts, sample_counts
from corrbb84.validation import reference_channel, reference_config
from test_audit_parity import GRID_CORRELATIONS, GRID_DISTANCES_KM, _grid_case

NOISY = ("cos", "exp", "expm1", "log", "log2", "sqrt")
EXACT = ("ceil", "floor", "isfinite", "nextafter", "ulp")
CONSTANTS = ("inf", "pi")
NOISE_SEEDS = (1, 2, 3, 4, 5)
# the certify benchmark's mix: N 1e9, 0-60 km, three in four records correlated
# with delta_1 in [0.01, 0.2], decay_C in [0.2, 1] and the derived length
SAMPLED_RECORDS = 200
TRUNCATION_D = 1e-12


def _math_names() -> set[str]:
    """Every ``math.<name>`` the package's source refers to."""
    names = set()
    for path in Path(corrbb84.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "math"):
                names.add(node.attr)
    return names


def _package_modules() -> list[types.ModuleType]:
    return [importlib.import_module(f"corrbb84.{info.name}")
            for info in pkgutil.iter_modules(corrbb84.__path__)]


@contextlib.contextmanager
def libm_noise(seed: int):
    """Every package module sees a ``math`` whose ``NOISY`` functions return
    one ulp off; yields the count of their calls, and restores ``math``."""
    flip, calls = random.Random(seed).random, [0]

    def noisy(function):
        def call(*args):
            calls[0] += 1
            value = function(*args)
            if value == 0.0 or not math.isfinite(value):
                return value
            return math.nextafter(value, math.inf if flip() < 0.5 else -math.inf)
        return call

    stand_in = types.SimpleNamespace(**vars(math))
    for name in NOISY:
        setattr(stand_in, name, noisy(getattr(math, name)))
    modules = [module for module in _package_modules() if getattr(module, "math", None) is math]
    for module in modules:
        module.math = stand_in
    try:
        yield calls
    finally:
        for module in modules:
            module.math = math


def records() -> list[tuple]:
    """(observed, config, model): the fingerprint grid's points, then the
    sampled records."""
    cases = []
    for correlation in GRID_CORRELATIONS:
        for distance in GRID_DISTANCES_KM:
            config, model = _grid_case(distance, correlation)
            cases.append((expected_counts(config, reference_channel(distance))[0], config, model))
    draw = random.Random(0).random
    plain = reference_config(10**9)
    correlated = replace(plain, epsilon_budget=replace(plain.epsilon_budget, d=TRUNCATION_D))
    for _ in range(SAMPLED_RECORDS):
        channel = ChannelModel(distance_km=60.0 * draw())
        config, model = plain, None
        if draw() < 0.75:
            config = correlated
            model = CorrelationModel(0.01 + 0.19 * draw(), 0.2 + 0.8 * draw(), TRUNCATION_D)
            model = replace(model, l_c_eff=required_truncation_length(
                config.N, mean_intensity(config.intensity_set), model))
        observed, _ = sample_counts(config, channel, int(draw() * 2**32))
        cases.append((observed, config, model))
    return cases


def certify(cases: list[tuple]) -> list[tuple[int, float]]:
    """(key_length, e_ph_upper) of each case."""
    return [(result.key_length, result.e_ph_upper)
            for result in (evaluate_pipeline(*case) for case in cases)]


def relative_move(plain: float, noisy: float) -> float:
    return 0.0 if plain == noisy else abs(noisy - plain) / abs(plain)


def test_every_math_name_the_package_uses_is_noisy_exact_or_a_constant():
    assert _math_names() == set(NOISY) | set(EXACT) | set(CONSTANTS)


@pytest.fixture(scope="module")
def plain_run():
    cases = records()
    return cases, certify(cases)


@pytest.mark.parametrize("seed", NOISE_SEEDS)
def test_one_ulp_of_libm_noise_moves_no_key(plain_run, seed):
    cases, plain = plain_run
    assert len(cases) == 20 + SAMPLED_RECORDS
    assert sum(key > 0 for key, _ in plain) > len(cases) // 3  # 96 of 220
    with libm_noise(seed) as calls:
        noisy = certify(cases)
    assert calls[0] > 0
    assert all(getattr(module, "math", math) is math for module in _package_modules())
    assert [key for key, _ in noisy] == [key for key, _ in plain]
    # the noise reached the bound: some e_ph_upper moved
    assert any(relative_move(p[1], n[1]) > 0.0 for p, n in zip(plain, noisy))


def report() -> list[str]:
    cases = records()
    plain = certify(cases)
    lines = [f"{len(cases)} records (20 fingerprint points, {SAMPLED_RECORDS} sampled)"]
    for seed in NOISE_SEEDS:
        with libm_noise(seed):
            noisy = certify(cases)
        moved = sum(p[0] != n[0] for p, n in zip(plain, noisy))
        largest = max(relative_move(p[1], n[1]) for p, n in zip(plain, noisy))
        lines.append(f"noise seed {seed}: {moved} keys moved, largest relative move of "
                     f"e_ph_upper {largest:.3g}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summary", help="also append the report to this file")
    args = parser.parse_args(argv)
    lines = report()
    print(*lines, sep="\n")
    if args.summary:
        with open(args.summary, "a") as handle:
            print("Libm noise (one ulp on every rounded math call; key_length must not move)",
                  file=handle)
            print("```", *lines, "```", sep="\n", file=handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
