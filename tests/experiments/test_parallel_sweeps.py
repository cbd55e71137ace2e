"""Sweep determinism: --jobs N leaves output identical.

The contract (see :mod:`repro.experiments.runner`) is byte-identity:
the rendered table AND the merged JSONL trace stream of a sharded sweep
must equal the sequential run's.  Short durations keep
the workloads CI-sized; identity is duration-independent because every
sweep point reseeds its packet-id namespace from its index.
"""

import io

import pytest

from repro.core.backends import available_backends
from repro.experiments.fig11_rate_limit import rate_limit_table
from repro.experiments.fig12_fair_queue import fair_queue_table
from repro.experiments.incast import incast_table
from repro.experiments.runner import (POINT_ID_STRIDE, point_seed,
                                      run_sweep)
from repro.obs import Tracer

DURATION = 0.001


def _fig12(jobs):
    sink = io.StringIO()
    tracer = Tracer(capacity=0, sink=sink)
    table = fair_queue_table(sweep_gbps=(0.5, 2.0, 8.0),
                            duration=DURATION, tracer=tracer, jobs=jobs)
    return table.to_text(), sink.getvalue()


def _fig11(jobs):
    sink = io.StringIO()
    tracer = Tracer(capacity=0, sink=sink)
    table = rate_limit_table(sweep_gbps=(0.5, 4.0), duration=DURATION,
                             tracer=tracer, jobs=jobs)
    return table.to_text(), sink.getvalue()


def test_fig12_sharded_matches_sequential_bytes():
    sequential_text, sequential_trace = _fig12(1)
    sharded_text, sharded_trace = _fig12(2)
    assert sharded_text == sequential_text
    assert sharded_trace == sequential_trace
    assert sequential_trace.count('"kind":"mark"') == 3  # one per point


def test_fig11_sharded_matches_sequential_bytes():
    assert _fig11(2) == _fig11(1)


def test_point_seed_contract():
    assert point_seed(0) == 0
    assert point_seed(3) == 3 * POINT_ID_STRIDE
    with pytest.raises(ValueError):
        point_seed(-1)


def test_run_sweep_preserves_spec_order():
    specs = list(range(7))
    assert run_sweep(_square, specs, jobs=1) == [n * n for n in specs]
    assert run_sweep(_square, specs, jobs=3) == [n * n for n in specs]


def _square(n):
    return n * n


# ----------------------------------------------------------------------
# Multi-port incast: the same byte-identity contract must hold with a
# shared buffer in the loop, for every ordered-list backend.
# ----------------------------------------------------------------------
def _incast(jobs, backend):
    sink = io.StringIO()
    tracer = Tracer(capacity=0, sink=sink)
    table = incast_table(buffer_kib_sweep=(8, 32), duration=5e-4,
                         tracer=tracer, jobs=jobs, backend=backend)
    return table.to_text(), sink.getvalue()


@pytest.mark.parametrize("backend", available_backends())
def test_incast_byte_identical_across_jobs(backend):
    """4-port incast output is a function of the sweep spec alone:
    sharding over 4 workers must reproduce the sequential run byte for
    byte — under every list backend."""
    baseline_text, baseline_trace = _incast(1, backend)
    assert baseline_trace.count('"kind":"mark"') == 2  # one per point
    text, trace = _incast(4, backend)
    assert text == baseline_text, f"{backend}: table diverged"
    assert trace == baseline_trace, f"{backend}: trace diverged"
