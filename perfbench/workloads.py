"""The benchmark's four workloads, built through the experiments' public
builders with their default settings.

One *episode* builds a workload, runs it in equal sim-time ``run_until``
chunks (timing each chunk on the host clock), checks its outputs and
digests its simulated results.  A "packet" is one packet arrival at one
dataplane hop.  Only ``fabric`` is random; the others ignore the seed.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.experiments.fct import DEFAULT_DURATION, build_fct_fabric
from repro.experiments.hier_common import default_node_rates, run_hierarchy
from repro.experiments.incast import build_incast
from repro.sim.events import Simulator
from repro.sim.packet import reset_packet_ids

#: Livelock guard: events one chunk may fire before it counts as failed.
CHUNK_EVENT_BUDGET = 2_000_000

#: Node-rate error the Fig. 11 benchmark asserts (percent).
RATE_ERROR_PCT = 1.0


class SetupDone(Exception):
    """Raised by a set-up-only driver just before the first event."""


@dataclass
class Chunk:
    seconds: float     # host seconds spent in this run_until chunk
    sim_end: float     # sim time the chunk ran to
    packets: int = 0   # packets that arrived during the chunk


@dataclass
class Episode:
    packets: int = 0
    chunks: List[Chunk] = field(default_factory=list)
    digest: str = ""
    problems: List[str] = field(default_factory=list)
    events_fired: int = 0

    @property
    def run_seconds(self) -> float:
        return sum(chunk.seconds for chunk in self.chunks)


class Driver:
    """Runs a simulator in equal sim-time chunks and times each chunk.

    ``on_start`` runs once, just before the first event fires (the end
    of set-up); ``phase`` is a context manager around the whole run
    phase (the span tracer opens its root span there).
    """

    def __init__(self, chunk_s: float,
                 on_start: Optional[Callable[[], None]] = None,
                 phase: Callable = contextlib.nullcontext) -> None:
        self.chunk_s = chunk_s
        self.on_start = on_start
        self.phase = phase
        self.chunks: List[Chunk] = []

    def run(self, sim: Simulator, run_until: Callable,
            end: Optional[float],
            count: Optional[Callable[[], int]] = None) -> None:
        """Run to sim time ``end``, or until no event is pending when
        ``end`` is None.  ``count()`` reads the packets arrived so far;
        without it the caller fills in ``Chunk.packets`` afterwards."""
        if self.on_start is not None:
            self.on_start()
        clock = time.perf_counter
        before = count() if count is not None else 0
        index = 0
        with self.phase():
            while True:
                if end is None:
                    if sim.peek_next_time() is None:
                        break
                    target = (index + 1) * self.chunk_s
                else:
                    if index * self.chunk_s >= end:
                        break
                    target = min((index + 1) * self.chunk_s, end)
                index += 1
                start = clock()
                run_until(sim, target, CHUNK_EVENT_BUDGET)
                chunk = Chunk(clock() - start, target)
                if count is not None:
                    after = count()
                    chunk.packets = after - before
                    before = after
                self.chunks.append(chunk)


def chunk_us_per_pkt(episodes) -> List[float]:
    """Host µs per packet of every chunk with packets, over the
    episodes that ran to the end (an episode that raised has no
    digest)."""
    return [chunk.seconds * 1e6 / chunk.packets
            for episode in episodes if episode.digest
            for chunk in episode.chunks if chunk.packets]


def quantile(values, share: float) -> float:
    """Nearest-rank quantile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


@contextlib.contextmanager
def intercept_run_until(driver: Driver):
    """Route the builder's own ``Simulator.run_until(end)`` call through
    ``driver`` (once), so a builder that also runs — ``run_hierarchy`` —
    is driven in chunks without copying it."""
    original = Simulator.run_until

    def chunked(sim, end_time, max_events=None):
        Simulator.run_until = original
        driver.run(sim, original, end_time)

    Simulator.run_until = chunked
    try:
        yield
    finally:
        Simulator.run_until = original


def _sha(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _departure_lines(recorder):
    for d in recorder.departures:
        yield f"{d.time!r} {d.flow_id} {d.size_bytes} {d.packet_id}"


class Workload:
    name = ""
    why = ""
    #: Sim seconds per run_until chunk.
    chunk_s = 1e-4

    def episode(self, seed: int, driver: Driver, tracer=None,
                metrics=None) -> Episode:
        """Build, run, check and digest one episode.  Raises on an
        exception inside the program; failed checks land in
        ``Episode.problems``."""
        raise NotImplementedError


class Hier(Workload):
    """``run_hierarchy(default_node_rates())``: Token Bucket over WF2Q+,
    backlogged flows on one 40 Gbps link, closed loop."""

    name = "hier"
    why = ("Fig. 11/12 tree, 10x10 backlogged flows: most scheduler work "
           "per packet, small lists, the only run with the transmit drain")
    flows_per_node = 10
    #: Sim seconds per episode (rates are measured after a 10% warm-up).
    duration = 0.01
    #: Packets each backlogged source keeps outstanding (its prime).
    depth = 2

    def episode(self, seed, driver, tracer=None, metrics=None):
        reset_packet_ids(0)
        rates = default_node_rates()
        with intercept_run_until(driver):
            run = run_hierarchy(rates, duration=self.duration,
                                flows_per_node=self.flows_per_node,
                                tracer=tracer, metrics=metrics)
        # Closed loop: every departure triggers one arrival, after the
        # prime of ``depth`` packets per flow at t=0.
        times = [d.time for d in run.engine.recorder.departures]
        done = 0
        for chunk in driver.chunks:
            upto = bisect.bisect_right(times, chunk.sim_end)
            chunk.packets = upto - done
            done = upto
        driver.chunks[0].packets += (self.depth * self.flows_per_node
                                     * len(rates))
        episode = Episode(chunks=driver.chunks,
                          events_fired=run.sim.events_fired)
        episode.packets = sum(chunk.packets for chunk in driver.chunks)
        for index, target in enumerate(rates):
            achieved = run.node_rates_bps.get(f"n{index}", 0.0) / 1e9
            error = abs(achieved - target) / target * 100.0
            if error >= RATE_ERROR_PCT:
                episode.problems.append(
                    f"node n{index}: {achieved:.4f} Gbps vs {target} "
                    f"configured ({error:.2f}% error)")
        episode.digest = _sha(_departure_lines(run.engine.recorder))
        return episode


class HierWide(Hier):
    name = "hier-wide"
    why = ("the hier tree with 400 flows per node (4,000 flows): only N "
           "differs, so ordered-list cost shows here and not in hier")
    flows_per_node = 400


class Incast(Workload):
    """``build_incast``: 4 ports, longest-queue push-out, DRR, 64 KiB
    shared buffer, open-loop CBR at 2x oversubscription on p0."""

    name = "incast"
    why = ("4-port shared 64 KiB buffer, 2x oversubscribed: admit/evict "
           "beside dequeues, four engines so no drain, flat DRR")
    duration = 0.02
    buffer_bytes = 64 * 1024

    def episode(self, seed, driver, tracer=None, metrics=None):
        reset_packet_ids(0)
        sim = Simulator(tracer=tracer, metrics=metrics)
        dataplane = build_incast(sim, buffer_bytes=self.buffer_bytes,
                                 ports=4, drop_policy="longest-queue",
                                 algorithm="drr", duration=self.duration,
                                 tracer=tracer, metrics=metrics)
        driver.run(sim, Simulator.run_until, self.duration,
                   lambda: dataplane.arrivals)
        episode = Episode(chunks=driver.chunks,
                          packets=dataplane.arrivals,
                          events_fired=sim.events_fired)
        conservation = dataplane.conservation()
        if not conservation["balanced"]:
            episode.problems.append(f"conservation: {conservation}")
        lines = [f"{key} {conservation[key]}" for key in
                 ("arrivals", "departures", "drops", "residue")]
        lines.append(f"evicted {dataplane.buffer.evicted}")
        for port_id in sorted(dataplane.ports):
            lines.append(f"port {port_id}")
            lines.extend(_departure_lines(
                dataplane.ports[port_id].recorder))
        episode.digest = _sha(lines)
        return episode


class FabricFct(Workload):
    """``build_fct_fabric(0.5, workload="pareto", seed=seed)``: leaf-spine,
    open-loop Poisson flow arrivals, heavy-tail sizes, drained at the
    end."""

    name = "fabric"
    why = ("leaf-spine, Poisson flows with Pareto sizes, drained: the only "
           "run of repro.net routing, hosts and FCT; most timers per packet")
    chunk_s = 5e-5
    #: Flow arrivals stop here; the run then drains.
    duration = DEFAULT_DURATION

    def episode(self, seed, driver, tracer=None, metrics=None):
        reset_packet_ids(0)
        fabric = build_fct_fabric(0.5, workload="pareto", seed=seed,
                                  duration=self.duration,
                                  tracer=tracer, metrics=metrics)
        dataplanes = [node.dataplane for node in
                      (*fabric.hosts.values(), *fabric.switches.values())]
        driver.run(fabric.sim, Simulator.run_until, None,
                   lambda: sum(dp.arrivals for dp in dataplanes))
        conservation = fabric.conservation()
        episode = Episode(chunks=driver.chunks,
                          packets=conservation["arrivals"],
                          events_fired=fabric.sim.events_fired)
        if not conservation["balanced"]:
            episode.problems.append(
                "conservation: " + str({key: value for key, value
                                        in conservation.items()
                                        if key != "nodes"}))
        # The default tail-drop buffers drop now and then, and an
        # open-loop flow that lost a packet never completes.  So after
        # the drain every undelivered packet must be a drop, and every
        # flow that lost nothing must have completed.
        flows = fabric.collector.flows
        undelivered = sum(record.packets - record.packets_delivered
                          for record in flows.values())
        dropped = conservation["drops"] + conservation["ttl_drops"]
        if conservation["residue"] or undelivered != dropped:
            episode.problems.append(
                f"{undelivered} packets undelivered after the drain, "
                f"{dropped} dropped, {conservation['residue']} resident")
        unfinished = sum(1 for record in flows.values()
                         if not record.completed
                         and record.packets_delivered == record.packets)
        if unfinished:
            episode.problems.append(
                f"{unfinished} flows got every packet but did not "
                "complete")
        reordered = fabric.collector.reordered_total()
        if reordered:
            episode.problems.append(f"{reordered} reordered deliveries")
        episode.digest = _sha(
            f"{fid} {r.src} {r.dst} {r.size_bytes} {r.start_t!r} "
            f"{r.finish_t!r} {r.packets_delivered}"
            for fid, r in sorted(flows.items()))
        return episode


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (Hier(), HierWide(), Incast(), FabricFct())}
