"""The end-to-end FCT experiment: sharding byte-identity,
the fair-queueing-vs-FIFO policy gap, and the CLI surface."""

import io

import pytest

from repro.experiments.__main__ import main
from repro.experiments.fct import fct_table
from repro.net.workload import WORKLOADS
from repro.obs import Tracer, read_jsonl

DURATION = 0.002
LOADS = (0.3, 0.7)


def _run(*argv):
    return main(["prog", *argv])


def _table(jobs=1, loads=LOADS, **kwargs):
    sink = io.StringIO()
    tracer = Tracer(capacity=0, sink=sink)
    table = fct_table(loads=loads, duration=DURATION, tracer=tracer,
                      jobs=jobs, **kwargs)
    return table.to_text(), sink.getvalue()


def test_sharded_run_matches_sequential_bytes():
    sequential = _table(jobs=1)
    assert _table(jobs=4) == sequential
    # One mark per sweep point, regardless of sharding.
    assert sequential[1].count('"kind":"mark"') == len(LOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_runs(workload):
    table, _ = _table(loads=(0.4,), workload=workload)
    assert "workload=" + workload in table
    row = [line for line in table.splitlines() if "0.4" in line][0]
    fields = row.split()
    if workload != "data-mining":
        # data-mining's mean flow is megabytes: at a 2 ms horizon the
        # first Poisson arrival usually lands past the end of the run.
        assert int(fields[1]) > 0 and int(fields[2]) > 0


def test_fair_queueing_protects_short_flows_vs_fifo():
    """The experiment's reason to exist: under FIFO, short flows queue
    behind long ones and their p99 slowdown blows up; DRR keeps them
    near ideal.  Same seed, same workload, same fabric — only the
    per-port policy differs."""
    drr = fct_table(loads=(0.8,), duration=0.004, algorithm="drr")
    fcfs = fct_table(loads=(0.8,), duration=0.004, algorithm="fcfs")
    short_p99 = {table.title.split("algorithm=")[1].split(",")[0]:
                 float(table.rows[0][6])
                 for table in (drr, fcfs)}
    assert short_p99["fcfs"] > 2 * short_p99["drr"]


def test_slowdown_is_at_least_one():
    table = fct_table(loads=(0.2,), duration=DURATION)
    row = table.rows[0]
    # p50 <= p99 and nothing beats the ideal FCT.
    for p50, p99 in ((row[3], row[4]), (row[5], row[6])):
        assert 1.0 <= p50 <= p99


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_fct_runs_and_prints_table(capsys):
    assert _run("fct", "--duration", "0.001") == 0
    out = capsys.readouterr().out
    assert "FCT on leaf-spine" in out
    assert "short_p99" in out


def test_cli_fct_flags_reach_the_experiment(capsys):
    assert _run("fct", "--duration", "0.001", "--algorithm", "sfq",
                "--workload", "web-search", "--drop-policy",
                "longest-queue") == 0
    out = capsys.readouterr().out
    assert "algorithm=sfq" in out
    assert "workload=web-search" in out
    assert "policy=longest-queue" in out


def test_cli_unknown_workload_returns_2(capsys):
    assert _run("fct", "--workload", "mystery") == 2
    out = capsys.readouterr().out
    assert "mystery" in out
    for name in WORKLOADS:
        assert name in out  # suggests the registered names


def test_cli_traced_fct_carries_switch_labels(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    assert _run("fct", "--duration", "0.001", "--jobs", "2",
                "--trace", str(trace_path)) == 0
    records = read_jsonl(trace_path)
    switches = {record.get("switch") for record in records
                if record["kind"] == "departure"}
    # Host NICs and both switch tiers all label their events.
    assert any(s.startswith("h") for s in switches)
    assert any(s.startswith("l") for s in switches)
    assert any(s.startswith("sp") for s in switches)
    marks = [record for record in records if record["kind"] == "mark"]
    assert all(record["label"] == "fct.sweep" for record in marks)
