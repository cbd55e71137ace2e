"""Measurement and analysis helpers for the evaluation harness."""

from repro.analysis.deviation import (inversions, kendall_tau_distance,
                                      max_deviation, mean_deviation,
                                      positionwise_deviation)
from repro.analysis.fairness import (jains_index, max_relative_error,
                                     normalized_shares,
                                     weighted_jains_index)

__all__ = [
    "inversions",
    "kendall_tau_distance",
    "max_deviation",
    "mean_deviation",
    "positionwise_deviation",
    "jains_index",
    "max_relative_error",
    "normalized_shares",
    "weighted_jains_index",
]
