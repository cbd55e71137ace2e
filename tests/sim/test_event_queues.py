"""The simulator's event heap: ordering, cancellation, and soak tests.

The load-bearing property is that events fire in exactly ``(time, seq)``
order — including same-instant ties and lazily-cancelled entries.  The
hypothesis lockstep test below drives random schedule/cancel/advance
programs through a :class:`Simulator` and through an independent model
(a plain list kept sorted by ``(time, seq)``, cancelling eagerly) and
compares the full firing logs.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.obs import MetricsRegistry
from repro.sim.events import COMPACT_MIN_CANCELLED, Simulator


# ----------------------------------------------------------------------
# The simulator's basic contract
# ----------------------------------------------------------------------
def test_time_order_and_fifo_ties():
    sim = Simulator()
    log = []
    sim.schedule(2.0, lambda: log.append("late"))
    for name in "abc":  # same instant: scheduling order
        sim.schedule(1.0, lambda name=name: log.append(name))
    sim.schedule(0.5, lambda: log.append("early"))
    sim.run()
    assert log == ["early", "a", "b", "c", "late"]


def test_cancel_then_fire_race():
    """Cancelling one of several same-instant entries must skip exactly
    that one, even after a peek already surfaced it."""
    sim = Simulator()
    log = []
    doomed = sim.schedule(1.0, lambda: log.append("doomed"))
    sim.schedule(1.0, lambda: log.append("kept"))
    assert sim.peek_next_time() == 1.0
    doomed.cancel()
    assert sim.peek_next_time() == 1.0
    sim.run()
    assert log == ["kept"]
    assert sim.pending_events == 0


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run()
    handle.cancel()  # already fired: must not corrupt the gauges
    assert sim.cancelled_events == 0


# ----------------------------------------------------------------------
# Hypothesis: lockstep against a sorted-list model
# ----------------------------------------------------------------------
class _SortedListModel:
    """Independent reference event loop: a plain list kept sorted by
    ``(time, seq)``; cancellation removes the entry at once."""

    class Handle:
        def __init__(self, model, seq):
            self.model = model
            self.seq = seq

        def cancel(self):
            self.model.entries = [entry for entry in self.model.entries
                                  if entry[1] != self.seq]

    def __init__(self):
        self.now = 0.0
        self.entries = []
        self.events_fired = 0
        self._seq = itertools.count()

    @property
    def pending_events(self):
        return len(self.entries)

    def schedule(self, time, callback):
        seq = next(self._seq)
        self.entries = sorted(self.entries + [(time, seq, callback)],
                              key=lambda entry: entry[:2])
        return self.Handle(self, seq)

    def _fire_next(self):
        time, _, callback = self.entries.pop(0)
        self.now = time
        self.events_fired += 1
        callback()

    def run_until(self, end_time):
        while self.entries and self.entries[0][0] <= end_time:
            self._fire_next()
        self.now = max(self.now, end_time)

    def run(self):
        while self.entries:
            self._fire_next()


_DELAYS = st.sampled_from(
    [0.0, 1e-7, 1.5e-7, 5e-7, 1e-6, 1.5e-6, 3.7e-6, 1e-3])

_COMMANDS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _DELAYS),
        st.tuples(st.just("cancel"), st.integers(0, 63)),
        st.tuples(st.just("advance"), _DELAYS),
    ),
    max_size=80)


def _execute(sim, commands):
    """Run one command program; returns (firing log, live-event count
    after each command, final now, events fired).

    Callbacks occasionally reschedule so the lockstep also covers
    events scheduled from inside the dispatch loop.
    """
    log = []
    pending = []
    handles = []
    labels = itertools.count()

    def fire(label, delay):
        log.append((label, sim.now))
        if label % 7 == 3:  # deterministic in-callback reschedule
            chained = next(labels)
            handles.append(sim.schedule(
                sim.now + delay, lambda: log.append((chained, sim.now))))

    for kind, value in commands:
        if kind == "schedule":
            label = next(labels)
            handles.append(sim.schedule(
                sim.now + value, lambda l=label, d=value: fire(l, d)))
        elif kind == "cancel":
            if handles:
                handles[value % len(handles)].cancel()
        else:  # advance
            sim.run_until(sim.now + value)
        pending.append(sim.pending_events)
    sim.run()
    return log, pending, sim.now, sim.events_fired


@given(commands=_COMMANDS)
@settings(max_examples=60, deadline=None)
def test_heap_fires_like_sorted_list_model(commands):
    assert (_execute(Simulator(), commands)
            == _execute(_SortedListModel(), commands))


# ----------------------------------------------------------------------
# Soak: compaction bounds the resident set under cancel churn
# ----------------------------------------------------------------------
def test_compaction_bounds_resident_under_cancel_churn():
    """A retry-timer workload (arm, cancel, re-arm x5000) must not grow
    the heap: lazy cancellation alone would retain every dead entry
    until its time surfaced, but compaction rebuilds once dead entries
    outnumber live ones.  The obs gauges see the same bound."""
    metrics = MetricsRegistry()
    sim = Simulator(metrics=metrics)
    sim.schedule(1.0, lambda: None)  # one live keeper
    peak_resident = 0
    for _ in range(5_000):
        handle = sim.schedule(0.5, lambda: None)
        handle.cancel()
        peak_resident = max(peak_resident,
                            sim.pending_events + sim.cancelled_events)
    bound = 2 * COMPACT_MIN_CANCELLED + 8
    assert peak_resident <= bound
    assert sim.pending_events == 1
    assert sim.cancelled_events <= bound
    cancelled_gauge = metrics.gauge("sim.cancelled_events")
    pending_gauge = metrics.gauge("sim.pending_events")
    assert cancelled_gauge.max <= bound
    assert pending_gauge.max <= bound
    sim.run()
    assert sim.pending_events == 0
    assert pending_gauge.value == 0


def test_tiny_queues_skip_compaction():
    """Below the absolute floor, cancellations stay lazily resident."""
    sim = Simulator()
    handles = [sim.schedule(1.0, lambda: None)
               for _ in range(COMPACT_MIN_CANCELLED)]
    for handle in handles:
        handle.cancel()
    assert sim.cancelled_events == COMPACT_MIN_CANCELLED
    assert sim.pending_events == 0
