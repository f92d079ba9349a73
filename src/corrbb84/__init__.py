"""Finite-key security engine for decoy-state BB84 with correlated
bit-and-basis encoders.

Turns protocol parameters, a correlation model and observed (or simulated)
detection statistics into a certified secret-key length and security
parameter, with every analytical bound backed by a brute-force oracle at
desk scale.
"""

from importlib import import_module

__version__ = "0.1.0"

from .correlations import CorrelationModel
from .counts import CountTriple, ObservedCounts
from .decoy import DecoyBounds
from .keyrate import KeyRateResult, evaluate_pipeline
from .model import EpsilonBudget, IntensitySet, ProtocolConfig, validate_config

# The counts -> key path above needs only the standard library and none of
# the code that simulates, optimizes or checks; so those names, which
# ``keyrate --counts`` should not load, are imported on first access.
_LAZY = {
    **dict.fromkeys(("ChannelModel", "expected_counts", "sample_counts"), "simulator"),
    **dict.fromkeys(("OptimizationSpec", "optimize_params", "scan_distance"), "optimizer"),
    "ExplicitDeltas": "oracles",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value


__all__ = [
    "__version__",
    "ChannelModel",
    "CorrelationModel",
    "CountTriple",
    "DecoyBounds",
    "EpsilonBudget",
    "ExplicitDeltas",
    "IntensitySet",
    "KeyRateResult",
    "ObservedCounts",
    "OptimizationSpec",
    "ProtocolConfig",
    "evaluate_pipeline",
    "expected_counts",
    "optimize_params",
    "sample_counts",
    "scan_distance",
    "validate_config",
]
