"""WF2Q+ virtual time from the start-time heap, checked exactly.

WF2Q+ advances ``virtual_time = max(vt + x, min start over backlogged
flows)`` after every decision.  The scheduler reads that minimum from a
lazily pruned heap (:mod:`repro.sched.wf2q`); these tests recompute it
with an independent O(N) pass over the flows after every decision and
require bit-for-bit equality, through arrivals, pauses, control-plane
writes, alarms and hierarchies.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sched.wf2q as wf2q
from repro.sched import (ControlPlane, HierarchicalScheduler,
                         PieoScheduler, SchedulingAlgorithm,
                         TriggerModel, WF2Qplus)
from repro.sched.hierarchical import SchedNode
from repro.sim import FlowQueue, Packet

LINK_BPS = 10e9
SIZES = st.sampled_from([64, 256, 1000, 1500])
WEIGHTS = st.sampled_from([0.5, 1.0, 3.0, 1000.0])


def oracle_min_start(flows):
    """Smallest start time over backlogged flows (missing = 0.0), or
    None when nothing is backlogged: the Fig. 2a minimum, by a scan."""
    starts = [flow.state.get("start_time", 0.0)
              for flow in flows.values() if flow.queue]
    return min(starts) if starts else None


class CheckedWF2Q(WF2Qplus):
    """WF2Q+ that checks every virtual-time update against the oracle."""

    def post_dequeue(self, ctx, flow) -> None:
        expected = (ctx.virtual_time
                    + flow.head_size() * 8 / ctx.link_rate_bps)
        super().post_dequeue(ctx, flow)
        min_start = oracle_min_start(ctx.flows)
        if min_start is not None and min_start > expected:
            expected = min_start
        assert ctx.virtual_time == expected


# One step of a random flat program.  Flow indices are taken modulo
# the flow count; "start" offsets are in units of one MTU at line rate
# (relative to the current virtual time).
FLAT_OPS = st.one_of(
    st.tuples(st.just("arrive"), st.integers(0, 7), SIZES),
    st.tuples(st.just("schedule")),
    st.tuples(st.just("schedule")),
    st.tuples(st.just("pause"), st.integers(0, 7)),
    st.tuples(st.just("resume"), st.integers(0, 7)),
    st.tuples(st.just("weight"), st.integers(0, 7), WEIGHTS),
    st.tuples(st.just("start"), st.integers(0, 7),
              st.integers(-3, 6)),
    st.tuples(st.just("alarm"), st.integers(0, 7)),
)


def _run_flat(trigger, weights, ops, check_start_writes=True):
    algorithm = CheckedWF2Q()
    scheduler = PieoScheduler(algorithm, trigger=trigger,
                              link_rate_bps=LINK_BPS)
    ids = [f"f{index}" for index in range(len(weights))]
    for flow_id, weight in zip(ids, weights):
        scheduler.add_flow(FlowQueue(flow_id, weight=weight))
    control = ControlPlane(scheduler)
    unit = 1500 * 8 / LINK_BPS
    now = 0.0
    for op in ops:
        kind = op[0]
        now += 1e-7
        if kind == "schedule":
            scheduler.schedule(now)
            continue
        flow_id = ids[op[1] % len(ids)]
        if kind == "arrive":
            scheduler.on_arrival(flow_id,
                                 Packet(flow_id, size_bytes=op[2]), now)
        elif kind == "pause":
            scheduler.pause_flow(flow_id, now)
        elif kind == "resume":
            scheduler.resume_flow(flow_id, now)
        elif kind == "weight":
            control.set_weight(flow_id, op[2], now=now)
        elif kind == "start" and check_start_writes:
            vt = scheduler.state.get("virtual_time", 0.0)
            control.set_state(flow_id, "start_time", vt + op[2] * unit,
                              now=now)
        elif kind == "alarm":
            # The Section 4.4 pattern: extract, re-run Pre-Enqueue.
            scheduler.run_alarm(flow_id, now,
                                handler=algorithm.pre_enqueue)
    # Drain what is schedulable so the tail of every program is checked.
    for _ in range(200):
        if not scheduler.schedule(now):
            break


@settings(max_examples=150, deadline=None)
@given(weights=st.lists(WEIGHTS, min_size=1, max_size=8),
       ops=st.lists(FLAT_OPS, max_size=80))
def test_flat_virtual_time_matches_scan(weights, ops):
    _run_flat(TriggerModel.OUTPUT, weights, ops)


def _paused_prefix(steps):
    """Pause a flow, give it a packet (no Pre-Enqueue runs) and write a
    start time ahead of virtual time: backlogged flows the heap never
    saw."""
    ops = []
    for index, size, offset in steps:
        ops += [("pause", index), ("arrive", index, size),
                ("start", index, offset)]
    return ops


@settings(max_examples=100, deadline=None)
@given(weights=st.lists(WEIGHTS, min_size=2, max_size=4),
       prefix=st.lists(st.tuples(st.integers(0, 7), SIZES,
                                 st.integers(1, 6)),
                       min_size=1, max_size=3).map(_paused_prefix),
       ops=st.lists(FLAT_OPS, max_size=40))
def test_paused_flows_virtual_time_matches_scan(weights, prefix, ops):
    _run_flat(TriggerModel.OUTPUT, weights, prefix + ops)


@settings(max_examples=60, deadline=None)
@given(weights=st.lists(WEIGHTS, min_size=1, max_size=8),
       ops=st.lists(FLAT_OPS, max_size=80))
def test_input_trigger_virtual_time_matches_scan(weights, ops):
    # Input-triggered WF2Q+ never runs Pre-Enqueue, so it assigns no
    # start times; see test_input_trigger_ignores_start_writes for the
    # control-plane start_time writes this program leaves out.
    _run_flat(TriggerModel.INPUT, weights, ops, check_start_writes=False)


def test_input_trigger_ignores_start_writes():
    """Under the input-triggered model virtual time counts only start
    times WF2Q+ assigned (none): a control-plane start_time write does
    not move it.  Every packet is stamped always-eligible, so virtual
    time orders nothing in this model."""
    scheduler = PieoScheduler(WF2Qplus(), trigger=TriggerModel.INPUT,
                              link_rate_bps=LINK_BPS)
    scheduler.add_flow(FlowQueue("a"))
    for _ in range(2):
        scheduler.on_arrival("a", Packet("a", size_bytes=1500), 0.0)
    ControlPlane(scheduler).set_state("a", "start_time", 1.0)
    assert len(scheduler.schedule(0.0)) == 1
    assert scheduler.state["virtual_time"] == 1500 * 8 / LINK_BPS


def test_paused_backlogged_flow_counts_toward_minimum():
    """A flow that turns backlogged while paused was never pushed; its
    start time must still bound virtual time from below."""
    scheduler = PieoScheduler(WF2Qplus(), link_rate_bps=LINK_BPS)
    for flow_id in ("a", "b"):
        scheduler.add_flow(FlowQueue(flow_id))
    scheduler.pause_flow("b", 0.0)
    scheduler.on_arrival("b", Packet("b", size_bytes=64), 0.0)
    ControlPlane(scheduler).set_state("b", "start_time", 5e-6)
    scheduler.on_arrival("a", Packet("a", size_bytes=64), 0.0)
    assert len(scheduler.schedule(0.0)) == 1
    assert scheduler.state["virtual_time"] == 5e-6


def test_resume_clears_the_paused_set():
    scheduler = PieoScheduler(WF2Qplus(), link_rate_bps=LINK_BPS)
    scheduler.add_flow(FlowQueue("a"))
    scheduler.pause_flow("a", 0.0)
    assert scheduler.blocked
    scheduler.resume_flow("a", 0.0)
    assert not scheduler.blocked


HIER_OPS = st.one_of(
    st.tuples(st.just("arrive"), st.integers(0, 3), st.integers(0, 2),
              SIZES),
    st.tuples(st.just("schedule")),
    st.tuples(st.just("schedule")),
    st.tuples(st.just("pause"), st.integers(0, 3)),
    st.tuples(st.just("resume"), st.integers(0, 3)),
    st.tuples(st.just("weight"), st.integers(0, 3), WEIGHTS),
)


@settings(max_examples=100, deadline=None)
@given(node_weights=st.lists(WEIGHTS, min_size=1, max_size=4),
       inner_wf2q=st.lists(st.booleans(), min_size=4, max_size=4),
       ops=st.lists(HIER_OPS, max_size=80))
def test_hierarchical_root_virtual_time_matches_scan(node_weights,
                                                     inner_wf2q, ops):
    """WF2Q+ at the root over SchedNode children (the children's
    ``queue`` is their subtree's backlog), FIFO or WF2Q+ inside."""
    root_algorithm = CheckedWF2Q()
    root = SchedNode("root", root_algorithm)
    nodes = []
    for index, weight in enumerate(node_weights):
        inner = (CheckedWF2Q() if inner_wf2q[index]
                 else SchedulingAlgorithm())
        node = SchedNode(f"n{index}", inner, weight=weight)
        root.add_child(node)
        for leaf in range(3):
            node.add_child(FlowQueue(f"n{index}.f{leaf}",
                                     weight=1.0 + leaf))
        nodes.append(node)
    hier = HierarchicalScheduler(root, link_rate_bps=LINK_BPS)
    control = ControlPlane(root.scheduler)
    now = 0.0
    for op in ops:
        kind = op[0]
        now += 1e-7
        if kind == "schedule":
            hier.schedule(now)
            continue
        node_id = nodes[op[1] % len(nodes)].flow_id
        if kind == "arrive":
            flow_id = f"{node_id}.f{op[2]}"
            hier.on_arrival(flow_id, Packet(flow_id, size_bytes=op[3]),
                            now)
        elif kind == "pause":
            root.scheduler.pause_flow(node_id, now)
        elif kind == "resume":
            root.scheduler.resume_flow(node_id, now)
        elif kind == "weight":
            control.set_weight(node_id, op[2], now=now)
    for _ in range(300):
        if not hier.schedule(now):
            break


def _skewed_run(decisions=4000):
    """64 backlogged flows, weights 1:1000: the weight-1 flow holds the
    minimum start while every heavy service leaves a stale entry
    above it.  Returns (virtual times, departure order, peak heap
    length, flow count)."""
    scheduler = PieoScheduler(WF2Qplus(), link_rate_bps=LINK_BPS)
    flows = [FlowQueue(f"f{index}",
                       weight=1.0 if index == 0 else 1000.0)
             for index in range(64)]
    for flow in flows:
        scheduler.add_flow(flow)
        for _ in range(2):
            scheduler.on_arrival(flow.flow_id, Packet(flow.flow_id), 0.0)
    virtual_times = []
    order = []
    peak = 0
    for _ in range(decisions):
        sent = scheduler.schedule(0.0)
        assert len(sent) == 1
        flow_id = sent[0].flow_id
        order.append(flow_id)
        # Keep every flow backlogged.
        scheduler.on_arrival(flow_id, Packet(flow_id), 0.0)
        virtual_times.append(scheduler.state["virtual_time"])
        peak = max(peak, len(scheduler.start_heap))
    return virtual_times, order, peak, len(flows)


def test_start_heap_stays_bounded(monkeypatch):
    virtual_times, order, peak, flow_count = _skewed_run()
    bound = 2 * flow_count + wf2q.COMPACT_MIN_STALE
    assert peak <= bound
    monkeypatch.setattr(wf2q, "COMPACT_MIN_STALE", 10**9)
    uncompacted = _skewed_run()
    # The workload really does pile up stale entries without the
    # rebuild, and the rebuild changes nothing the scheduler decides.
    assert uncompacted[2] > 4 * bound
    assert uncompacted[0] == virtual_times
    assert uncompacted[1] == order
