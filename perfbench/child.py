"""One measurement phase of one workload, in a fresh interpreter.

Run by ``perfbench/run.py`` from the root of a checkout::

    python3 perfbench/child.py PHASE WORKLOAD SEED SECONDS

PHASE is one of

``setup``  build the workload, stop just before the first event fires,
           and report ``time.monotonic()`` at that instant;
``main``   after one untimed warm-up episode, run whole episodes with
           tracing off for 60% of SECONDS, then for the rest with a
           bounded ``repro.obs.Tracer`` and a ``MetricsRegistry`` passed
           through the builder;
``trace``  run two untraced episodes (the first warms up), then the same
           episode under the span tracer, and compute the per-layer
           metrics.

The last line of standard output is one JSON object.  An exception
inside an episode fails that episode only.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

from workloads import (WORKLOADS, Driver, Episode, SetupDone,  # noqa: E402
                       chunk_us_per_pkt, quantile)

#: Share of SECONDS spent on untraced episodes; the rest is observed.
MAIN_SHARE = 0.6
#: Ring-buffer size of the observed run's tracer.
OBS_TRACE_CAPACITY = 65536
#: Where the traced run writes its spans (inside the checkout).
SPAN_DIR = ".perfbench"


def run_episode(workload, seed, driver, **observers) -> Episode:
    try:
        return workload.episode(seed, driver, **observers)
    except Exception:  # a failing program is a failed episode
        lines = traceback.format_exc().strip().splitlines()
        return Episode(chunks=driver.chunks, problems=[lines[-1]])


def episode_summary(episode: Episode) -> dict:
    return {"packets": episode.packets,
            "seconds": episode.run_seconds,
            "digest": episode.digest,
            "problems": episode.problems}


def phase_setup(workload, seed, seconds):
    ready = []

    def on_start():
        ready.append(time.monotonic())
        raise SetupDone

    try:
        workload.episode(seed, Driver(workload.chunk_s, on_start))
    except SetupDone:
        pass
    return {"ready": ready[0]}


def episodes_for(seconds, workload, seed, **observers):
    """Whole episodes until ``seconds`` have passed (at least one)."""
    deadline = time.perf_counter() + seconds
    done = []
    while not done or time.perf_counter() < deadline:
        done.append(run_episode(workload, seed, Driver(workload.chunk_s),
                                **observers))
    return done


def phase_main(workload, seed, seconds):
    from repro.obs import MetricsRegistry, Tracer
    # The first episode runs cold: it is checked but not timed.  Peak
    # memory is read after it, so it does not depend on how many
    # episodes fit in ``seconds``.
    warm_up = run_episode(workload, seed, Driver(workload.chunk_s))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    timed = episodes_for(seconds * MAIN_SHARE, workload, seed)
    chunks = chunk_us_per_pkt(timed)
    observed = episodes_for(seconds * (1 - MAIN_SHARE), workload, seed,
                            tracer=Tracer(capacity=OBS_TRACE_CAPACITY),
                            metrics=MetricsRegistry())
    return {"warm_up": episode_summary(warm_up),
            "episodes": [episode_summary(e) for e in timed],
            "observed": [episode_summary(e) for e in observed],
            "chunks": len(chunks),
            "chunk_us_per_pkt.p95": quantile(chunks, 0.95) if chunks else 0,
            "peak_rss_mb": peak_kib / 1024.0}


def phase_trace(workload, seed, seconds):
    from spans import LAYERS, METHOD, SpanTracer
    # The first episode of a process runs cold; time the second.
    warm_up = run_episode(workload, seed, Driver(workload.chunk_s))
    plain = run_episode(workload, seed, Driver(workload.chunk_s))
    tracer = SpanTracer()
    tracer.install()
    try:
        tracer.calibrate(calls=50000)
        traced = run_episode(workload, seed,
                             Driver(workload.chunk_s, phase=tracer.root))
    finally:
        tracer.uninstall()
    os.makedirs(SPAN_DIR, exist_ok=True)
    tracer.dump(os.path.join(SPAN_DIR, f"spans-{workload.name}.bin"))
    result = {"untraced": [episode_summary(warm_up),
                           episode_summary(plain)],
              "traced": episode_summary(traced)}
    if not (plain.digest and traced.digest):
        return result
    report = tracer.layer_report()
    pkts = traced.packets
    sites, falsy = report["site_calls"], report["site_falsy"]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_us_per_pkt"] = \
            report["self_s"][layer] * 1e6 / pkts
        count = ("records_per_pkt" if layer == "sim.recorder"
                 else "calls_per_pkt")
        metrics[f"{layer}.{count}"] = report["calls"][layer] / pkts
    schedules = ("PieoScheduler.schedule", "HierarchicalScheduler.schedule")
    schedule_calls = sum(sites[name] for name in schedules)
    admits = sites["BufferManager.admit"]
    wall_traced = traced.run_seconds
    metrics.update({
        "sim.events.steps_per_pkt": sites["Simulator.step"] / pkts,
        "sim.events.fired_per_pkt": traced.events_fired / pkts,
        "sim.events.cancel_ratio": (sites["EventHandle.cancel"]
                                    / max(1, sites["Simulator.schedule"])),
        "sched.empty_schedule_ratio": (sum(falsy[name] for name in schedules)
                                       / max(1, schedule_calls)),
        "core.ops_per_pkt": report["outer_core_ops"] / pkts,
        "sim.buffer.admit_ok_ratio": ((admits
                                       - falsy["BufferManager.admit"])
                                      / admits if admits else 0.0),
        "sim.buffer.evictions_per_pkt":
            sites["BufferManager.note_eviction"] / pkts,
        "net.setup_s": report["site_seconds"]["build_routes"],
        "trace.unattributed_frac": report["unattributed_s"]
        / report["wall_s"],
        "trace.cost_frac": report["cost_s"] / report["wall_s"],
        "trace.overhead_frac": (wall_traced - plain.run_seconds)
        / wall_traced,
        "trace.span_cost_us": sum(tracer.costs[METHOD]) * 1e6,
        "trace.spans_per_pkt": report["spans"] / pkts,
        "chunk_us_per_pkt.p50": quantile(chunk_us_per_pkt([plain]), 0.5),
    })
    result["metrics"] = metrics
    result["breakdown"] = {
        "wall_s": report["wall_s"], "self_s": report["self_s"],
        "unattributed_s": report["unattributed_s"],
        "cost_s": report["cost_s"]}
    return result


PHASES = {"setup": phase_setup, "main": phase_main, "trace": phase_trace}


def main(argv) -> int:
    phase, name, seed, seconds = argv
    result = PHASES[phase](WORKLOADS[name], int(seed), float(seconds))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
