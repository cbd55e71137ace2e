"""Regression gate over the ``BENCH_*.json`` trajectory.

Compares a *current* set of BENCH records against committed
*baselines*: every metric marked ``"gated": true`` in the baseline must
stay within ``tolerance`` of its baseline median.  The comparison is a
gate, not a report — exit codes (surfaced by ``python -m repro.bench
compare``):

* ``0`` — every gated metric within tolerance;
* ``1`` — at least one gated metric regressed (or went missing from
  the current run);
* ``2`` — a baseline is missing or a file is malformed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.bench.results import (BenchFormatError, bench_path,
                                 gated_metrics, load_bench)

#: Fail when a gated median drops more than this fraction below its
#: baseline.
DEFAULT_TOLERANCE = 0.30

EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_ERROR = 2


@dataclass
class MetricComparison:
    """One gated metric's baseline-vs-current verdict."""

    scenario: str
    metric: str
    baseline: float
    current: Optional[float]
    tolerance: float

    @property
    def ratio(self) -> Optional[float]:
        if self.current is None or self.baseline == 0:
            return None
        return self.current / self.baseline

    @property
    def regressed(self) -> bool:
        if self.current is None:
            return True
        floor = self.baseline * (1.0 - self.tolerance)
        return self.current < floor

    def describe(self) -> str:
        if self.current is None:
            return (f"{self.scenario}.{self.metric}: MISSING from "
                    f"current run (baseline {self.baseline:.3f})")
        verdict = "REGRESSED" if self.regressed else "ok"
        delta = ((self.current - self.baseline) / self.baseline * 100
                 if self.baseline else float("nan"))
        return (f"{self.scenario}.{self.metric}: {verdict} "
                f"(baseline {self.baseline:.3f}, "
                f"current {self.current:.3f}, {delta:+.1f}%, "
                f"tolerance -{self.tolerance:.0%})")


def compare_records(baseline: Dict, current: Dict,
                    tolerance: float = DEFAULT_TOLERANCE
                    ) -> List[MetricComparison]:
    """Compare every baseline-gated metric; returns one row each."""
    if baseline["scenario"] != current["scenario"]:
        raise BenchFormatError(
            f"scenario mismatch: baseline {baseline['scenario']!r} vs "
            f"current {current['scenario']!r}")
    comparisons = []
    for name, metric in gated_metrics(baseline).items():
        current_metric = current["metrics"].get(name)
        comparisons.append(MetricComparison(
            scenario=baseline["scenario"], metric=name,
            baseline=float(metric["median"]),
            current=(float(current_metric["median"])
                     if current_metric is not None else None),
            tolerance=tolerance))
    return comparisons


def compare_dirs(baseline_dir, current_dir, scenarios,
                 tolerance: float = DEFAULT_TOLERANCE
                 ) -> Tuple[List[MetricComparison], List[str], int]:
    """Gate ``scenarios`` between two directories of BENCH files.

    Returns ``(comparisons, errors, exit_code)`` with the exit-code
    contract from the module docstring.
    """
    comparisons: List[MetricComparison] = []
    errors: List[str] = []
    for scenario in scenarios:
        try:
            baseline = load_bench(bench_path(baseline_dir, scenario))
            current = load_bench(bench_path(current_dir, scenario))
            comparisons.extend(
                compare_records(baseline, current, tolerance))
        except BenchFormatError as error:
            errors.append(str(error))
    if errors:
        return comparisons, errors, EXIT_ERROR
    if any(row.regressed for row in comparisons):
        return comparisons, errors, EXIT_REGRESSION
    return comparisons, errors, EXIT_OK
