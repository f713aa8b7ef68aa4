"""Semantic-distortion simulator and optimizer for physical-layer deception.

A transmitter sometimes encrypts a codeword with a short-lived key sent over
a side channel; a receiver that misses the key must decide whether to trust,
discard, or second-guess what it sees.  This package provides the closed-form
expected distortions, an exhaustive-enumeration oracle, a Monte Carlo
simulator of the full pipeline, and exact optimizers for the receiver's
option mix and the transmitter's activation rate.
"""
from .core import NULL_KEY, NULL_MSG, Scenario, ScenarioError, snr_db_to_linear
from .distortion import (
    DeltaTerms,
    DistortionReport,
    ReceiverStrategy,
    delta_terms,
    deterministic_pipeline_distortion,
    enumeration_oracle,
    opportunistic_distortion,
)
from .fbl import FblCode, error_rates, packet_error_rate, q_function
from .montecarlo import McEstimate, estimate_distortions
from .strategy import (
    DeceptionPlan,
    ReceiverSolution,
    optimal_receiver_strategy,
    optimize_deception,
)

__version__ = "0.1.0"

__all__ = [
    "DeceptionPlan",
    "DeltaTerms",
    "DistortionReport",
    "FblCode",
    "McEstimate",
    "NULL_KEY",
    "NULL_MSG",
    "ReceiverSolution",
    "ReceiverStrategy",
    "Scenario",
    "ScenarioError",
    "delta_terms",
    "deterministic_pipeline_distortion",
    "enumeration_oracle",
    "error_rates",
    "estimate_distortions",
    "opportunistic_distortion",
    "optimal_receiver_strategy",
    "optimize_deception",
    "packet_error_rate",
    "q_function",
    "snr_db_to_linear",
    "__version__",
]
