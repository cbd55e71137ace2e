"""End-to-end simulation throughput on the fig12 workload.

Measures packets/sec through the full stack (sources -> hierarchical
TokenBucket/WF2Q+ scheduler -> transmit engine -> 40 Gbps link) with the
transmit engine's batched drain off and on, and at 10 and 400 flows per
node, and records the result in ``bench_results/sim_throughput.txt``.

Methodology: this box's wall clock is noisy (±30% run to run), so raw
packets/sec from different invocations are not comparable.  Every round
therefore runs both configurations back to back and only the
*within-round ratio* against the baseline is trusted; the table reports
the median ratio across rounds next to the median raw rate.  The
baseline configuration (batched drain off) dispatches every transmit
timer through the event heap.

The batched drain adds a stable ~1.1x on this single-link workload; it
turns itself off on multi-port and fabric runs and whenever a tracer or
metrics registry is attached.  The 400-flows-per-node row keeps about
0.55x of the 10-flow rate (it also builds and starts 40x the flows);
with WF2Q+'s former O(N) virtual-time scan it kept 0.34x.  In the
profile (``sim_profile.txt``) no frame holds more than ~8% of self
time: the scheduling loop (``PieoScheduler.schedule``, ~7.5%), the
ordered list's dequeue and grouped insert (~5% and ~3%) and WF2Q+'s
Post-Dequeue and Pre-Enqueue (~5% and ~4%) lead, with framework
plumbing (enqueue/re-enqueue/transmit_head, ~3% each) behind them.
"""

import cProfile
import io
import pathlib
import pstats
import statistics
import time

from repro.experiments.hier_common import (FLOWS_PER_NODE,
                                           default_node_rates,
                                           run_hierarchy)
from repro.experiments.runner import Table
from repro.sim.packet import reset_packet_ids

DURATION = 0.003
ROUNDS = 3

#: (label, drain, flows_per_node) — first entry is the baseline; the
#: "wide" row is the default configuration with 40x the flows, so its
#: rate against "drain" measures how per-packet cost grows with N.
CONFIGS = (
    ("baseline", False, FLOWS_PER_NODE),
    ("drain", True, FLOWS_PER_NODE),
    ("wide", True, 400),
)


def _one_run(drain: bool, flows_per_node: int):
    """One fig12-workload simulation; returns (packets, elapsed_sec)."""
    reset_packet_ids(0)
    start = time.perf_counter()
    run = run_hierarchy(default_node_rates(), duration=DURATION,
                        drain=drain, flows_per_node=flows_per_node)
    elapsed = time.perf_counter() - start
    return len(run.engine.recorder), elapsed


def _throughput_table() -> Table:
    rates = {label: [] for label, _, _ in CONFIGS}
    ratios = {label: [] for label, _, _ in CONFIGS}
    scaling = {label: [] for label, _, _ in CONFIGS}
    packets = {}
    for _ in range(ROUNDS):
        round_rates = {}
        for label, drain, flows_per_node in CONFIGS:
            count, elapsed = _one_run(drain, flows_per_node)
            expected = packets.setdefault(flows_per_node, count)
            assert count == expected, (
                f"{label}: {count} packets != {expected} at "
                f"{flows_per_node} flows/node; configurations must be "
                "result-identical")
            round_rates[label] = count / elapsed
        base = round_rates[CONFIGS[0][0]]
        for label, rate in round_rates.items():
            rates[label].append(rate)
            ratios[label].append(rate / base)
            scaling[label].append(rate / round_rates["drain"])
    table = Table(
        title=(f"Simulation throughput, fig12 workload "
               f"({DURATION*1e3:g} ms simulated, {ROUNDS} interleaved "
               "rounds)"),
        headers=["config", "drain", "flows_per_node", "packets",
                 "pps_median", "ratio_vs_baseline", "ratio_vs_drain"],
    )
    for label, drain, flows_per_node in CONFIGS:
        table.add_row(label, "on" if drain else "off", flows_per_node,
                      packets[flows_per_node],
                      round(statistics.median(rates[label])),
                      round(statistics.median(ratios[label]), 2),
                      round(statistics.median(scaling[label]), 2))
    table.add_note("ratio_vs_baseline and ratio_vs_drain are medians of "
                   "within-round ratios (each round runs every config "
                   "back to back), which cancels machine-load drift; raw "
                   "pps_median is machine-state dependent and not "
                   "comparable across invocations. baseline = batched "
                   "drain off; wide = the drain config with "
                   f"{CONFIGS[2][2]} flows per node instead of "
                   f"{FLOWS_PER_NODE}.")
    return table


def _write_profile(path) -> None:
    """cProfile the default configuration; top frames by cumulative
    time."""
    profiler = cProfile.Profile()
    reset_packet_ids(0)
    profiler.enable()
    run_hierarchy(default_node_rates(), duration=DURATION)
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    # Bare file names keep the artifact independent of the checkout path.
    stats.strip_dirs().sort_stats("cumulative").print_stats(30)
    path.write_text(buffer.getvalue())


def test_sim_throughput_table(benchmark, save_table):
    table = benchmark.pedantic(_throughput_table, rounds=1, iterations=1)
    save_table("sim_throughput", table)
    ratio = dict(zip(table.column("config"),
                     table.column("ratio_vs_baseline")))
    # The floor sits well under the observed median (~1.1x) so a noisy
    # round cannot flake; dropping through it means the drain genuinely
    # regressed.
    assert ratio["drain"] >= 0.95, table.to_text()
    # Per-packet cost may grow with the flow count only through
    # O(log N) structures: 40x the flows keeps at least 0.45x the rate
    # (an O(N) per-packet pass over the flows measured 0.34x).
    scaling = dict(zip(table.column("config"),
                       table.column("ratio_vs_drain")))
    assert scaling["wide"] >= 0.45, table.to_text()


def test_sim_profile_artifact():
    """Regenerate the committed cProfile snapshot of the default
    configuration."""
    results_dir = pathlib.Path(__file__).parent / "bench_results"
    results_dir.mkdir(exist_ok=True)
    _write_profile(results_dir / "sim_profile.txt")
