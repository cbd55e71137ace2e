"""Tests for the discrete-event simulator."""

import math

import pytest

from repro.errors import SimulationError
from repro.sim.events import Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    log = []
    sim.schedule(3.0, lambda: log.append("c"))
    sim.schedule(1.0, lambda: log.append("a"))
    sim.schedule(2.0, lambda: log.append("b"))
    sim.run()
    assert log == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    log = []
    for name in "xyz":
        sim.schedule(1.0, lambda name=name: log.append(name))
    sim.run()
    assert log == ["x", "y", "z"]


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule(1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_in(-1.0, lambda: None)


def test_cancel_prevents_firing():
    sim = Simulator()
    log = []
    handle = sim.schedule(1.0, lambda: log.append("cancelled"))
    sim.schedule(2.0, lambda: log.append("kept"))
    handle.cancel()
    sim.run()
    assert log == ["kept"]


def test_run_until_stops_clock_at_end_time():
    sim = Simulator()
    log = []
    sim.schedule(1.0, lambda: log.append(1))
    sim.schedule(10.0, lambda: log.append(10))
    sim.run_until(5.0)
    assert log == [1]
    assert sim.now == 5.0
    sim.run_until(20.0)
    assert log == [1, 10]


def test_events_can_schedule_events():
    sim = Simulator()
    log = []

    def chain(depth):
        log.append(depth)
        if depth < 3:
            sim.schedule_in(1.0, lambda: chain(depth + 1))

    sim.schedule(0.0, lambda: chain(0))
    sim.run()
    assert log == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_livelock_guard():
    sim = Simulator()

    def rearm():
        sim.schedule_in(0.0, rearm)

    sim.schedule(0.0, rearm)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_peek_next_time_skips_cancelled():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    handle.cancel()
    assert sim.peek_next_time() == 2.0


def _three_events(sim, count=3):
    log = []
    for index in range(count):
        sim.schedule(float(index), lambda index=index: log.append(index))
    return log


@pytest.mark.parametrize("drain", [
    lambda sim: sim.run(max_events=3),
    lambda sim: sim.run_until(10.0, max_events=3),
], ids=["run", "run_until"])
def test_max_events_admits_exactly_the_budget(drain):
    sim = Simulator()
    log = _three_events(sim)
    drain(sim)
    assert log == [0, 1, 2]
    assert sim.events_fired == 3


@pytest.mark.parametrize("drain", [
    lambda sim: sim.run(max_events=3),
    lambda sim: sim.run_until(10.0, max_events=3),
], ids=["run", "run_until"])
def test_max_events_refuses_one_past_the_budget(drain):
    sim = Simulator()
    log = _three_events(sim, count=4)
    with pytest.raises(SimulationError, match="max_events=3"):
        drain(sim)
    assert log == [0, 1, 2]


def test_nan_event_times_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_in(float("nan"), lambda: None)
    assert sim.pending_events == 0


def test_infinite_event_time_allowed():
    sim = Simulator()
    log = []
    sim.schedule(math.inf, lambda: log.append("never-late"))
    sim.schedule_in(math.inf, lambda: log.append("also"))
    sim.run_until(1e9)
    assert log == []
    sim.run()
    assert log == ["never-late", "also"]
    assert sim.now == math.inf
