"""Worst-case Fair Weighted Fair Queuing, WF2Q+ (Sections 2.3 & 4.1).

WF2Q+ [Bennett & Zhang 1996] is the paper's motivating algorithm: it needs
*both* decisions — when a flow becomes eligible (virtual start time) and
in what order to serve eligible flows (virtual finish time) — so it cannot
be expressed on a single PIFO (Fig. 2).  On PIEO it is four lines:

* rank          = virtual finish time,
* send_time     = virtual start time,
* eligibility   = (virtual_time >= start_time),
* at dequeue the smallest-finish-time flow among eligible flows wins.

Virtual time (Fig. 2a)::

    f.start_time  = max(f.finish_time, virtual_time)  # arrival, empty queue
                  = f.finish_time                     # re-enqueue on dequeue
    f.finish_time = f.start_time + L / r
    virtual_time(t + x) = max(virtual_time(t) + x,
                              min over backlogged f of f.start_time)

where ``L`` is the head packet's length, ``r`` the flow's rate, and ``x``
the transmission time of the departing packet.

The minimum start time over backlogged flows is read from a min-heap of
``(start_time, tiebreak, flow)`` entries, the scheduler's
:attr:`~repro.sched.framework.PieoScheduler.start_heap`, in O(log N) per
packet.  This is the software counterpart of the hardware's
per-sublist smallest send_time, which yields the same minimum with a
sqrt(N)-wide priority-encoder read instead of a scan over the flows:

* every start time the Pre-Enqueue function assigns is pushed;
* entries are pruned lazily: an entry is *stale* once its flow is no
  longer backlogged or has been assigned a different start time since,
  and stale entries are popped from the top until a valid one (the
  minimum) surfaces;
* a paused flow (:meth:`~repro.sched.framework.PieoScheduler.pause_flow`)
  can become backlogged without Pre-Enqueue running, so the paused flows
  are also scanned, only while some flow is paused;
* once stale entries make up most of the heap it is rebuilt from its
  valid entries, which bounds its length by about twice the flow count.

Under the input-triggered model Pre-Enqueue never runs, so WF2Q+
assigns no start times and virtual time advances by ``x`` per packet.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import count

from repro.sched.base import SchedulingAlgorithm, TimeBase
from repro.sched.framework import SchedulerContext
from repro.sim.flow import FlowQueue

#: Slack above ``2 * len(flows)`` heap entries before the start heap is
#: rebuilt (the same amortisation as the simulator's
#: ``COMPACT_MIN_CANCELLED``: a rebuild costs O(len), and at least this
#: many stale entries pay for it).
COMPACT_MIN_STALE = 64

#: Unique tiebreak so equal start times never compare flows.  Shared by
#: every heap; entries tied on start time carry the same minimum, so no
#: result depends on its value.
_next_tiebreak = count().__next__


def _compact_start_heap(heap: list) -> None:
    """Rebuild ``heap`` in place from its valid entries, one per flow.

    Valid entries all carry their flow's current start time, so the
    minimum — the only thing :meth:`WF2Qplus.post_dequeue` reads — is
    unchanged.
    """
    live = {}
    for entry in heap:
        flow = entry[2]
        if flow.queue and flow.state["start_time"] == entry[0]:
            live[id(flow)] = entry
    heap[:] = live.values()
    heapify(heap)


class WorstCaseFairWeightedFairQueuing(SchedulingAlgorithm):
    """WF2Q+ on the PIEO primitive."""

    name = "wf2q+"
    time_base = TimeBase.VIRTUAL

    def pre_enqueue(self, ctx: SchedulerContext, flow: FlowQueue) -> None:
        finish = flow.state.get("finish_time", 0.0)
        if ctx.reason == "requeue":
            # Fig. 2a: if dequeue from flow queue, start = finish.
            start = finish
        else:
            # Fig. 2a: if enqueue into empty flow queue.
            start = max(finish, ctx.virtual_time)
        # flow_rate_bps(ctx, flow), inlined: this runs once per
        # transmitted packet.
        finish = start + (flow.head_size() * 8
                          / (ctx.link_rate_bps * flow.weight))
        flow.state["start_time"] = start
        flow.state["finish_time"] = finish
        heap = ctx.start_heap
        heappush(heap, (start, _next_tiebreak(), flow))
        length = len(heap)
        # The first test spares small heaps the flow-count lookup.
        if (length > COMPACT_MIN_STALE
                and length > 2 * len(ctx.flows) + COMPACT_MIN_STALE):
            _compact_start_heap(heap)
        ctx.enqueue(flow, rank=finish, send_time=start)

    def post_dequeue(self, ctx: SchedulerContext, flow: FlowQueue) -> None:
        transmission = flow.head_size() * 8 / ctx.link_rate_bps
        ctx.transmit_head(flow)
        # ``queue`` truthiness == backlogged: a plain attribute on
        # FlowQueue, so the hot path skips the is_empty property call.
        if flow.queue:
            ctx.reenqueue(flow)
        # Fig. 2a virtual-time update, with the served flow's start time
        # already advanced (Bennett & Zhang's B(t) is evaluated after the
        # departure): vt = max(vt + x, min start over backlogged flows).
        # The minimum is the first valid top of the start heap; stale
        # tops (flow drained, or assigned a different start since) are
        # popped.
        heap = ctx.start_heap
        while heap:
            min_start, _, top = heap[0]
            if top.queue and top.state["start_time"] == min_start:
                break
            heappop(heap)
        else:
            min_start = None
        blocked = ctx.blocked
        if blocked:
            # Paused flows may have turned backlogged without a push.
            flows = ctx.flows
            for flow_id, paused in blocked.items():
                if paused and flows[flow_id].queue:
                    start = flows[flow_id].state.get("start_time", 0.0)
                    if min_start is None or start < min_start:
                        min_start = start
        # ctx.virtual_time, read and written through one state lookup.
        state = ctx.state
        virtual_time = state.get("virtual_time", 0.0) + transmission
        if min_start is not None and min_start > virtual_time:
            virtual_time = min_start
        state["virtual_time"] = virtual_time


#: Short alias used throughout tests and benchmarks.
WF2Qplus = WorstCaseFairWeightedFairQueuing
