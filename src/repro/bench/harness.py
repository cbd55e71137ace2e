"""Benchmark harness: calibration-normalized scenario measurement.

The repo's perf trajectory is tracked as *normalized* throughput: raw
packets/sec is meaningless across machines (and noisy even on one box),
so every scenario score is divided by :func:`calibration_score` — a
fixed pure-Python loop whose instruction mix (integer LCG, tuple heapq
churn, dict traffic) resembles the simulator's hot path — measured **in
the same process, interleaved with the workload**.  The normalized
ratio cancels host speed to first order; CI's bench-telemetry job gates
the quick scenarios with it.

Five scenarios are registered:

* ``hier`` — the single-link fig12 fast configuration (hierarchical
  Token Bucket + WF2Q+ over 100 flows);
* ``incast`` — a 4-port shared-buffer dataplane under 2x
  oversubscription (classifier/admission/multi-engine path);
* ``fabric`` — a leaf-spine :mod:`repro.net` fabric carrying
  open-loop Pareto flows at 0.5 load (routing/forwarding/multi-switch
  path);
* ``backend`` — mixed primitive ops through the ``fast`` ordered-list
  engine at N=4096;
* ``analyze`` — the offline analyzer (`TraceAnalysis` + flows + audit)
  over a traced hier run.

:func:`measure_scenario` runs a scenario for several interleaved
calibrate/run rounds with a :class:`~repro.obs.runtime.RuntimeProfiler`
sampling the workload, and returns a schema-valid BENCH record
(:mod:`repro.bench.results`) holding normalized medians/IQR, raw rates,
wall times, event/packet counts, component wall-time attribution, and
the host calibration score.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.bench import results
from repro.errors import ConfigurationError
from repro.obs.runtime import DEFAULT_INTERVAL_S, RuntimeProfiler

#: Iterations of the calibration loop (about 50 ms of pure Python).
CALIBRATION_ITERATIONS = 300_000
#: Default interleaved calibrate/run rounds.
DEFAULT_ROUNDS = 3
#: Rounds in ``--quick`` mode.
QUICK_ROUNDS = 2

#: Simulated durations — kept identical between quick and full modes so
#: committed baselines and quick CI runs measure the same workload.
HIER_DURATION = 0.003
INCAST_DURATION = 0.002
INCAST_BUFFER_KIB = 64

BACKEND_NAME = "fast"
BACKEND_CAPACITY = 4_096
BACKEND_OPERATIONS = 20_000
BACKEND_OPERATIONS_QUICK = 5_000

ANALYZE_DURATION = 0.002

FABRIC_DURATION = 0.002
FABRIC_LOAD = 0.5


def calibration_score(iterations: int = CALIBRATION_ITERATIONS) -> float:
    """Mops/sec of a fixed pure-Python loop shaped like the sim's hot
    path (integer LCG, tuple heap push/pop, dict get/set)."""
    heap: list = []
    table: dict = {}
    state = 12345
    start = time.perf_counter()
    for index in range(iterations):
        state = (1103515245 * state + 12345) % 2147483648
        heapq.heappush(heap, (state, index))
        if len(heap) > 64:
            _, evicted = heapq.heappop(heap)
            table[evicted & 255] = evicted
    elapsed = time.perf_counter() - start
    return iterations / elapsed / 1e6


# ----------------------------------------------------------------------
# Scenario registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """One registered benchmark workload."""

    name: str
    description: str
    unit: str
    #: Included in ``--quick`` runs (the default CI trajectory set).
    quick: bool
    #: ``run(quick) -> (rate_per_sec, counts)``.
    run: Callable[[bool], Tuple[float, Dict[str, int]]]


def _run_hier(quick: bool) -> Tuple[float, Dict[str, int]]:
    from repro.experiments.hier_common import (default_node_rates,
                                               run_hierarchy)
    from repro.sim.packet import reset_packet_ids
    reset_packet_ids(0)
    start = time.perf_counter()
    run = run_hierarchy(default_node_rates(), duration=HIER_DURATION)
    elapsed = time.perf_counter() - start
    packets = len(run.engine.recorder)
    return packets / elapsed, {"packets": packets}


def _run_incast(quick: bool) -> Tuple[float, Dict[str, int]]:
    from repro.experiments.incast import build_incast
    from repro.sim.events import Simulator
    from repro.sim.packet import reset_packet_ids
    reset_packet_ids(0)
    start = time.perf_counter()
    sim = Simulator()
    dataplane = build_incast(sim,
                             buffer_bytes=INCAST_BUFFER_KIB * 1024,
                             duration=INCAST_DURATION,
                             drop_policy="longest-queue")
    sim.run_until(INCAST_DURATION)
    elapsed = time.perf_counter() - start
    conservation = dataplane.conservation()
    return conservation["arrivals"] / elapsed, {
        "packets": conservation["arrivals"],
        "delivered": conservation["departures"],
        "drops": conservation["drops"],
    }


def _run_backend(quick: bool) -> Tuple[float, Dict[str, int]]:
    from repro.experiments.scheduling_rate import software_ops_per_sec
    operations = (BACKEND_OPERATIONS_QUICK if quick
                  else BACKEND_OPERATIONS)
    rate = software_ops_per_sec(BACKEND_NAME, BACKEND_CAPACITY,
                                operations=operations)
    return rate, {"ops": operations}


def _run_analyze(quick: bool) -> Tuple[float, Dict[str, int]]:
    from repro.experiments.hier_common import (default_node_rates,
                                               run_hierarchy)
    from repro.obs import TraceAnalysis, Tracer
    from repro.sim.packet import reset_packet_ids
    reset_packet_ids(0)
    tracer = Tracer()
    run_hierarchy(default_node_rates(), duration=ANALYZE_DURATION,
                  tracer=tracer)
    records = [event.to_dict() for event in tracer.events]
    start = time.perf_counter()
    analysis = TraceAnalysis(records)
    analysis.flows()
    analysis.audit()
    elapsed = time.perf_counter() - start
    return len(records) / elapsed, {"events": len(records)}


def _run_fabric(quick: bool) -> Tuple[float, Dict[str, int]]:
    from repro.experiments.fct import build_fct_fabric
    from repro.sim.packet import reset_packet_ids
    reset_packet_ids(0)
    start = time.perf_counter()
    fabric = build_fct_fabric(FABRIC_LOAD, workload="pareto",
                              duration=FABRIC_DURATION)
    fabric.sim.run()
    elapsed = time.perf_counter() - start
    conservation = fabric.conservation()
    stats = fabric.collector.slowdown_stats()
    # Per-hop arrivals: the multi-switch analogue of packets/sec (one
    # unit of dataplane work per packet per hop).
    return conservation["arrivals"] / elapsed, {
        "hop_arrivals": conservation["arrivals"],
        "flows": stats["flows"],
        "completed": stats["completed"],
    }


SCENARIOS: Dict[str, Scenario] = {
    "hier": Scenario(
        "hier", "single-link fig12 fast config (TB + WF2Q+, 100 flows)",
        "packets/sec", quick=True, run=_run_hier),
    "incast": Scenario(
        "incast", "4-port shared-buffer incast, 2x oversubscription",
        "packets/sec", quick=True, run=_run_incast),
    "fabric": Scenario(
        "fabric", "leaf-spine fct fabric (routed hosts, pareto flows, "
        f"load {FABRIC_LOAD})", "hop-arrivals/sec", quick=True,
        run=_run_fabric),
    "backend": Scenario(
        "backend", "mixed primitive ops through the fast list engine "
        f"at N={BACKEND_CAPACITY}", "ops/sec", quick=False,
        run=_run_backend),
    "analyze": Scenario(
        "analyze", "TraceAnalysis + flows + audit over a traced hier "
        "run", "events/sec", quick=False, run=_run_analyze),
}


def available_scenarios(quick: bool = False):
    """Registered scenario names (quick-mode subset when asked)."""
    return [name for name, scenario in SCENARIOS.items()
            if scenario.quick or not quick]


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown bench scenario {name!r}; available: "
            f"{', '.join(SCENARIOS)}") from None


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def measure_scenario(name: str, *, quick: bool = False,
                     rounds: Optional[int] = None,
                     profile: bool = True,
                     interval_s: float = DEFAULT_INTERVAL_S,
                     run_date: str = "unknown",
                     commit: Optional[str] = None) -> Dict[str, object]:
    """Measure one scenario; returns a schema-valid BENCH record.

    Each round interleaves one :func:`calibration_score` with one
    workload run (profiled by a sampling
    :class:`~repro.obs.runtime.RuntimeProfiler` when ``profile``), so
    the normalized score per round divides rates measured under the
    same instantaneous host conditions.
    """
    scenario = get_scenario(name)
    if rounds is None:
        rounds = QUICK_ROUNDS if quick else DEFAULT_ROUNDS
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    normalized = []
    raw_rates = []
    calibrations = []
    walls = []
    counts: Dict[str, int] = {}
    combined = None
    for _ in range(rounds):
        calibration = calibration_score()
        profiler = (RuntimeProfiler(interval_s=interval_s)
                    if profile else None)
        began = time.perf_counter()
        if profiler is not None:
            with profiler, profiler.phase(name):
                rate, counts = scenario.run(quick)
        else:
            rate, counts = scenario.run(quick)
        walls.append(time.perf_counter() - began)
        calibrations.append(calibration)
        raw_rates.append(rate)
        normalized.append(rate / calibration)
        if profiler is not None:
            report = profiler.report()
            combined = (report if combined is None
                        else combined.merge(report))
    attribution = None
    if combined is not None:
        attribution = {
            "interval_s": combined.interval_s,
            "samples": combined.total_samples,
            "components": {component: round(fraction, 4)
                           for component, fraction
                           in combined.fractions().items()},
            "attributed_fraction": round(
                combined.attributed_fraction(), 4),
            "overhead_s": round(combined.overhead_s, 6),
        }
    metrics = {
        "normalized": results.make_metric(
            f"{scenario.unit} per calibration Mops/sec", normalized,
            gated=True),
        "raw_rate": results.make_metric(scenario.unit, raw_rates),
        "calibration_mops": results.make_metric("Mops/sec",
                                                calibrations),
        "wall_s": results.make_metric("seconds", walls),
    }
    provenance = results.make_provenance(run_date, commit=commit,
                                         rounds=rounds, quick=quick)
    return results.make_result(name, metrics, counts, attribution,
                               provenance)
