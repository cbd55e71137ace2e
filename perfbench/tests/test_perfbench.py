"""Tests of the benchmark itself.  Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import re
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.experiments.hier_common import (  # noqa: E402
    default_node_rates, run_hierarchy)
from repro.net.fct import FctCollector  # noqa: E402
from repro.sim.dataplane import Dataplane  # noqa: E402
from repro.sim.packet import reset_packet_ids  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)

#: Short episodes, so each smoke run takes a fraction of a second.
SHORT = {"hier": 0.002, "hier-wide": 0.003, "incast": 0.002,
         "fabric": 0.001}


@pytest.fixture
def short(monkeypatch):
    """The workloads with their episodes shortened."""
    for name, duration in SHORT.items():
        monkeypatch.setattr(workloads.WORKLOADS[name], "duration",
                            duration)
    return workloads.WORKLOADS


def episode(workload, seed=3, **kwargs):
    return workload.episode(seed, workloads.Driver(workload.chunk_s),
                            **kwargs)


# -- self-time arithmetic ------------------------------------------------
def test_self_times_of_nested_spans():
    # root [0, 10] > a [1, 6] > (b [2, 3], c [4, 5.5]); d [7, 9] under root
    starts = [0.0, 1.0, 2.0, 4.0, 7.0]
    ends = [10.0, 6.0, 3.0, 5.5, 9.0]
    parents = [-1, 0, 1, 1, 0]
    assert list(spans.self_times(starts, ends, parents)) == \
        [3.0, 2.5, 1.0, 1.5, 2.0]


def test_layer_report_adds_up_to_the_wall_time():
    tracer = spans.SpanTracer()
    root = tracer.site("run", "unattributed", spans.ROOT)
    step = tracer.site("Simulator.step", "sim.events")
    sched = tracer.site("PieoScheduler.schedule", "sched")
    core = tracer.site("ReferencePieo.dequeue", "core")
    callback = tracer.site("callback:sim.engine", "sim.engine",
                           spans.CALLBACK)
    tracer.costs[spans.METHOD] = (0.01, 0.02)
    tracer.costs[spans.CALLBACK] = (0.03, 0.04)
    rows = [(root, -1, 0.0, 10.0), (step, 0, 1.0, 8.0),
            (callback, 1, 2.0, 7.0), (sched, 2, 3.0, 6.0),
            (core, 3, 4.0, 4.5), (core, 4, 4.1, 4.2)]
    for site, parent, start, end in rows:
        tracer.sites.append(site)
        tracer.parents.append(parent)
        tracer.starts.append(start)
        tracer.ends.append(end)
    report = tracer.layer_report()
    assert report["wall_s"] == 10.0
    total = (sum(report["self_s"].values()) + report["unattributed_s"]
             + report["cost_s"])
    assert total == pytest.approx(10.0)
    # step: 7 - 5 (callback) - 0.01 in - 0.04 (callback outside)
    assert report["self_s"]["sim.events"] == pytest.approx(1.95)
    assert report["self_s"]["core"] == pytest.approx(
        0.5 - 0.1 - 0.01 - 0.02 + 0.1 - 0.01)
    assert report["calls"]["core"] == 2
    assert report["outer_core_ops"] == 1
    assert report["unattributed_s"] == pytest.approx(3.0 - 0.02)


# -- metric names ----------------------------------------------------------
def test_metric_names_are_well_formed():
    names = [metric["name"] for key in ("end_to_end", "per_layer")
             for metric in SPEC[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
    assert [w["name"] for w in SPEC["workloads"]] == \
        list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_traced_run_reports_every_per_layer_metric(short):
    result = child.phase_trace(short["hier"], 3, 0)
    assert set(result["metrics"]) == \
        {metric["name"] for metric in SPEC["per_layer"]}
    digests = {e["digest"] for e in result["untraced"]}
    assert digests == {result["traced"]["digest"]}
    breakdown = result["breakdown"]
    assert (sum(breakdown["self_s"].values())
            + breakdown["unattributed_s"] + breakdown["cost_s"]) == \
        pytest.approx(breakdown["wall_s"])
    assert result["metrics"]["sched.calls_per_pkt"] > 0


# -- smoke runs ----------------------------------------------------------
@pytest.mark.parametrize("name", list(SHORT))
def test_each_workload_passes_its_checks(short, name):
    first = episode(short[name])
    second = episode(short[name])
    assert first.problems == []
    assert first.packets > 0
    assert first.packets == sum(chunk.packets for chunk in first.chunks)
    assert len(first.digest) == 64
    assert first.digest == second.digest


def test_chunked_hier_matches_one_run_until(short):
    chunked = episode(short["hier"])
    reset_packet_ids(0)
    whole = run_hierarchy(default_node_rates(), duration=SHORT["hier"])
    assert chunked.digest == workloads._sha(
        workloads._departure_lines(whole.engine.recorder))


def test_fabric_digest_follows_the_seed(short):
    assert episode(short["fabric"], seed=1).digest != \
        episode(short["fabric"], seed=2).digest


def test_fabric_accounts_for_dropped_packets(short, monkeypatch):
    # Seed 104 drops 86 packets at the default buffers, so two flows
    # never complete; the check accepts that but not a lost packet.
    monkeypatch.setattr(short["fabric"], "duration", 0.01)
    assert episode(short["fabric"], seed=104).problems == []
    real = FctCollector.packet_delivered
    seen = []

    def lose_the_first(collector, packet, now):
        seen.append(packet)
        if len(seen) > 1:
            real(collector, packet, now)

    monkeypatch.setattr(FctCollector, "packet_delivered", lose_the_first)
    assert episode(short["fabric"], seed=104).problems


def test_observers_leave_results_unchanged(short):
    result = child.phase_main(short["incast"], 3, 0)
    every = [result["warm_up"]] + result["episodes"] + result["observed"]
    assert len(every) == 3
    assert run.count_failures(every, every[0]["digest"]) == 0
    assert result["chunks"] > 0 and result["peak_rss_mb"] > 0


# -- failures are counted, not fatal ----------------------------------------
def test_imbalance_is_a_failed_episode(short, monkeypatch):
    original = Dataplane.conservation

    def unbalanced(self):
        snapshot = original(self)
        snapshot["balanced"] = False
        return snapshot

    monkeypatch.setattr(Dataplane, "conservation", unbalanced)
    result = child.phase_main(short["incast"], 3, 0)
    every = [result["warm_up"]] + result["episodes"] + result["observed"]
    assert all(episode["problems"] for episode in every)
    assert run.tally("incast", 3, every) == 3
    # The episodes ran to the end, so their timings still count.
    assert result["chunks"] > 0


def test_exception_is_a_failed_episode(short, monkeypatch):
    def explode(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(Dataplane, "arrival_sink", explode)
    result = child.phase_main(short["incast"], 3, 0)
    assert "injected" in result["episodes"][0]["problems"][0]
    assert "injected" in result["observed"][0]["problems"][0]
    assert result["chunks"] == 0


def test_bad_digest_is_a_failed_episode(capsys):
    good = {"problems": [], "digest": "a" * 64}
    bad = {"problems": [], "digest": "b" * 64}
    assert run.tally("hier", 1, [good, bad, good]) == 1
    assert f"digest hier seed=1 {good['digest']}" in capsys.readouterr().out


def test_quantile_is_nearest_rank():
    values = list(range(1, 101))
    assert workloads.quantile(values, 0.50) == 50
    assert workloads.quantile(values, 0.95) == 95
    assert workloads.quantile([7.0], 0.95) == 7.0
