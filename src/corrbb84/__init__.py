"""Finite-key security engine for decoy-state BB84 with correlated
bit-and-basis encoders.

Turns protocol parameters, a correlation model and observed (or simulated)
detection statistics into a certified secret-key length and security
parameter, with every analytical bound backed by a brute-force oracle at
desk scale.
"""

__version__ = "0.1.0"

from .correlations import CorrelationModel, ExplicitDeltas
from .counts import CountTriple, ObservedCounts
from .decoy import DecoyBounds
from .keyrate import KeyRateResult, evaluate_pipeline
from .model import EpsilonBudget, IntensitySet, ProtocolConfig, validate_config
from .optimizer import OptimizationSpec, optimize_params, scan_distance
from .simulator import ChannelModel, expected_counts, sample_counts

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
