import importlib
import pkgutil

import pytest

import corrbb84
from corrbb84.validation import reference_channel, reference_config, reference_intensities

# Hypothesis adds the number literals of every loaded local module to the pool
# it draws from, so a derandomized test draws the same cases in every selection
# and order of test files only if the same modules are loaded: load them all.
for _module in pkgutil.iter_modules(corrbb84.__path__):
    importlib.import_module(f"corrbb84.{_module.name}")


def identity_bound_pair(
    epsilon: float, observed: int, total: int, lower: bool = True, upper: bool = True
) -> tuple[float, float]:
    """Degenerate bound pair (observed, observed), with a side not asked for
    at its trivial bound as in ``binomial_bound_pair``; evaluates the decoy
    formulas on exact expectations in analytic cross-checks."""
    if observed < 0 or observed > total:
        raise ValueError(f"need 0 <= observed <= total, got {observed}/{total}")
    return (float(observed) if lower else 0.0, float(observed) if upper else float(total))


def reject_constant(name: str):
    """``parse_constant`` of strict JSON: a NaN or an Infinity fails the test."""
    raise AssertionError(f"non-finite number {name} in the output")


@pytest.fixture
def intensity_set():
    return reference_intensities()


@pytest.fixture
def config_1e6():
    return reference_config(10**6)


@pytest.fixture
def config_1e9():
    return reference_config(10**9)


@pytest.fixture
def channel_10km():
    return reference_channel(10.0)
