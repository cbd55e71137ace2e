"""A span tracer applied from outside the program.

Only for the traced run: :meth:`SpanTracer.install` wraps the public
methods in :data:`SITES` at class level, every concrete ordered list's
operations, and the routing functions; the wrapped
``Simulator.schedule`` also wraps each callback it is given, charged to
the layer of the module that owns the callback.  :meth:`uninstall`
restores every original.  ``src/`` is never edited.

Spans live in flat arrays (site, parent, start, end) in memory and are
written out once, by :meth:`SpanTracer.dump`, when the run ends.  A
span's *self time* is its duration minus the durations of its child
spans (children of one span never overlap: the simulator is one
thread).  The cost of an empty span, measured by :meth:`calibrate`, is
subtracted so that per-layer self times estimate the untraced program.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import sys
import time
from array import array
from typing import Dict, List, Sequence

#: Layers, in report order.  ``other`` takes callbacks from modules no
#: layer owns.
LAYERS = ("sim.events", "sched", "core", "sim.buffer", "sim.engine",
          "sim.link", "sim.recorder", "sim.dataplane", "sim.generators",
          "net.switch", "net.route", "net.host", "net.fct",
          "net.workload", "net.fabric", "other")

#: Owning module prefix -> layer, for callbacks (longest prefix wins).
MODULE_LAYERS = {
    "repro.sim.events": "sim.events",
    "repro.sched": "sched",
    "repro.core": "core",
    "repro.sim.buffer": "sim.buffer",
    "repro.sim.engine": "sim.engine",
    "repro.sim.port": "sim.engine",
    "repro.sim.link": "sim.link",
    "repro.sim.recorder": "sim.recorder",
    "repro.sim.dataplane": "sim.dataplane",
    "repro.sim.classifier": "sim.dataplane",
    "repro.sim.generators": "sim.generators",
    "repro.net.switch": "net.switch",
    "repro.net.routing": "net.route",
    "repro.net.host": "net.host",
    "repro.net.fct": "net.fct",
    "repro.net.workload": "net.workload",
    "repro.net.fabric": "net.fabric",
}

#: (module, class, public methods, layer) timed at class level.
SITES = (
    ("repro.sim.events", "Simulator",
     ("schedule", "step", "advance_to", "run_until"),
     "sim.events"),
    ("repro.sim.events", "EventHandle", ("cancel",), "sim.events"),
    ("repro.sched.framework", "PieoScheduler",
     ("on_arrival", "schedule", "next_eligible_time"), "sched"),
    ("repro.sched.hierarchical", "HierarchicalScheduler",
     ("on_arrival", "schedule", "next_eligible_time"), "sched"),
    ("repro.sim.buffer", "BufferManager",
     ("admit", "release", "note_eviction"), "sim.buffer"),
    ("repro.sim.engine", "TransmitEngine", ("arrival_sink", "kick"),
     "sim.engine"),
    ("repro.sim.port", "Port", ("accept",), "sim.engine"),
    ("repro.sim.link", "Link", ("transmit",), "sim.link"),
    ("repro.sim.recorder", "Recorder", ("record",), "sim.recorder"),
    ("repro.sim.dataplane", "Dataplane", ("arrival_sink",),
     "sim.dataplane"),
    ("repro.sim.classifier", "StaticClassifier", ("port_of",),
     "sim.dataplane"),
    ("repro.sim.classifier", "HashClassifier", ("port_of",),
     "sim.dataplane"),
    ("repro.sim.classifier", "FnClassifier", ("port_of",),
     "sim.dataplane"),
    ("repro.sim.generators", "BackloggedSource", ("on_departure",),
     "sim.generators"),
    ("repro.sim.generators", "EmpiricalCdfSampler", ("sample",),
     "sim.generators"),
    ("repro.sim.generators", "ParetoSampler", ("sample",),
     "sim.generators"),
    ("repro.net.switch", "FabricSwitch", ("ingest",), "net.switch"),
    ("repro.net.switch", "NextHopClassifier", ("port_of",), "net.route"),
    ("repro.net.host", "Host", ("inject", "receive"), "net.host"),
    ("repro.net.fct", "FctCollector",
     ("flow_started", "packet_delivered", "note_residence"), "net.fct"),
    ("repro.net.fabric", "Fabric", ("open_flow",), "net.fabric"),
)

#: Module-level functions, patched wherever a loaded module binds them.
FUNCTIONS = (("repro.net.routing", ("build_routes", "flow_path"),
              "net.route"),)

#: Ordered-list operations timed on every concrete ``PieoList``.
LIST_OPS = ("enqueue", "dequeue", "dequeue_flow", "peek", "min_send_time")
#: Modules holding the ordered lists the schedulers build by default.
LIST_MODULES = ("repro.core.reference", "repro.core.fastlist",
                "repro.sched.hierarchical")

#: Span kinds, each with its own calibrated cost.
METHOD, SCHEDULE, CALLBACK, ROOT = range(4)


def layer_of_module(module: str) -> str:
    best = ""
    for prefix in MODULE_LAYERS:
        if (module == prefix or module.startswith(prefix + ".")) \
                and len(prefix) > len(best):
            best = prefix
    return MODULE_LAYERS[best] if best else "other"


def self_times(starts: Sequence[float], ends: Sequence[float],
               parents: Sequence[int]) -> array:
    """Each span's duration minus the durations of its direct children
    (``parents[i]`` is the index of span i's parent, or -1)."""
    result = array("d", (end - start for start, end in zip(starts, ends)))
    for index, parent in enumerate(parents):
        if parent >= 0:
            result[parent] -= ends[index] - starts[index]
    return result


class SpanTracer:
    """Records one span per call into a wrapped site."""

    def __init__(self) -> None:
        #: Site names ("Class.method" or "callback:<layer>"), their
        #: layers and span kinds, indexed by site id.
        self.site_names: List[str] = []
        self.site_layers: List[str] = []
        self.site_kinds: List[int] = []
        self._site_ids: Dict[str, int] = {}
        self.sites = array("H")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        #: Calls per site whose result was falsy (an empty schedule, a
        #: refused admission).
        self.falsy: List[int] = []
        self._stack = [-1]
        self._patches: List[tuple] = []
        #: Owning module -> factory of that layer's callback spans.
        self._callback_makers: Dict[str, object] = {}
        #: Seconds per span of each kind: (inside the span, outside it).
        self.costs = {METHOD: (0.0, 0.0), SCHEDULE: (0.0, 0.0),
                      CALLBACK: (0.0, 0.0), ROOT: (0.0, 0.0)}

    # -- sites -----------------------------------------------------------
    def site(self, name: str, layer: str, kind: int = METHOD) -> int:
        site = self._site_ids.get(name)
        if site is None:
            site = self._site_ids[name] = len(self.site_names)
            self.site_names.append(name)
            self.site_layers.append(layer)
            self.site_kinds.append(kind)
            self.falsy.append(0)
        return site

    def clear(self) -> None:
        """Forget recorded spans (sites and costs stay)."""
        for store in (self.sites, self.parents, self.starts, self.ends):
            del store[:]
        # In place: the wrappers hold these very lists.
        self.falsy[:] = [0] * len(self.site_names)
        self._stack[:] = [-1]

    # -- wrappers --------------------------------------------------------
    def wrap(self, fn, site: int):
        """``fn`` inside a span of ``site``."""
        sites, parents = self.sites, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack
        falsy = self.falsy
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(sites)
            sites.append(site)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if not result:
                falsy[site] += 1
            return result

        traced.__perfbench_site__ = site
        return traced

    def wrap_callback(self, callback):
        """A scheduled callback inside a span charged to the layer of
        the module that owns it.  Bound methods already wrapped at class
        level keep their own span instead."""
        if hasattr(callback, "__perfbench_site__"):
            return callback
        owner = getattr(callback, "__module__", None) or ""
        make = self._callback_makers.get(owner)
        if make is None:
            make = self._callback_makers[owner] = self._callback_maker(
                layer_of_module(owner))
        return make(callback)

    def _callback_maker(self, layer: str):
        site = self.site(f"callback:{layer}", layer, CALLBACK)
        sites, parents = self.sites, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter

        def make(callback):
            def traced():
                index = len(sites)
                sites.append(site)
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(index)
                starts.append(clock())
                try:
                    callback()
                finally:
                    ends[index] = clock()
                    stack.pop()

            return traced

        return make

    def wrapping_callbacks(self, schedule):
        """``Simulator.schedule`` with each callback wrapped first; when
        this is wrapped in a span, the wrapping cost lands inside it."""
        wrap_callback = self.wrap_callback

        def traced_schedule(sim, when, callback):
            return schedule(sim, when, wrap_callback(callback))

        return traced_schedule

    @contextlib.contextmanager
    def root(self):
        """The root span around the run phase; its self time is the
        unattributed time."""
        site = self.site("run", "unattributed", ROOT)
        index = len(self.sites)
        self.sites.append(site)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[index] = time.perf_counter()
            self._stack.pop()

    # -- install / uninstall ---------------------------------------------
    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install(self) -> None:
        for module_name, class_name, methods, layer in SITES:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method in methods:
                fn = cls.__dict__[method]
                kind = METHOD
                if (class_name, method) == ("Simulator", "schedule"):
                    fn, kind = self.wrapping_callbacks(fn), SCHEDULE
                site = self.site(f"{class_name}.{method}", layer, kind)
                self._patch(cls, method, self.wrap(fn, site))
        for module_name in LIST_MODULES:
            importlib.import_module(module_name)
        from repro.core.interfaces import PieoList
        for cls in _concrete_subclasses(PieoList):
            for method in LIST_OPS:
                if method in cls.__dict__:
                    site = self.site(f"{cls.__name__}.{method}", "core")
                    self._patch(cls, method,
                                self.wrap(cls.__dict__[method], site))
        for module_name, names, layer in FUNCTIONS:
            module = importlib.import_module(module_name)
            for name in names:
                original = getattr(module, name)
                traced = self.wrap(original, self.site(name, layer))
                for loaded in list(sys.modules.values()):
                    if getattr(loaded, "__name__", "").startswith("repro") \
                            and loaded.__dict__.get(name) is original:
                        self._patch(loaded, name, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- calibration -----------------------------------------------------
    def calibrate(self, calls: int = 20000, rounds: int = 5) -> None:
        """Measure the cost of an empty span of each kind: the part
        inside the span (its recorded duration) and the part outside
        it (charged to the parent).  Medians over ``rounds``."""

        class Probe:
            def noop(self, first, second):
                return None

            def schedule(self, when, callback):
                return None

        class TracedProbe(Probe):
            noop = self.wrap(Probe.noop, self.site("probe.noop", "probe"))
            schedule = self.wrap(
                self.wrapping_callbacks(Probe.schedule),
                self.site("probe.schedule", "probe", SCHEDULE))

        def noop():
            return None

        loop = range(calls)

        def methods(probe):
            for _ in loop:
                probe.noop(1, 2)

        def schedules(probe):
            for _ in loop:
                probe.schedule(0.0, noop)

        def callbacks(functions):
            for function in functions:
                function()

        clock = time.perf_counter
        samples = {METHOD: [], SCHEDULE: [], CALLBACK: []}
        for _ in range(rounds):
            wrapped = [self.wrap_callback(noop) for _ in loop]
            cases = ((METHOD, methods, Probe(), TracedProbe()),
                     (SCHEDULE, schedules, Probe(), TracedProbe()),
                     (CALLBACK, callbacks, [noop] * calls, wrapped))
            for kind, run, plain, traced in cases:
                start = clock()
                run(plain)
                bare = clock() - start
                self.clear()
                start = clock()
                run(traced)
                samples[kind].append(self._split(clock() - start, bare,
                                                 calls))
        self.clear()
        for kind, pairs in samples.items():
            inside = statistics.median(pair[0] for pair in pairs)
            total = statistics.median(pair[0] + pair[1] for pair in pairs)
            self.costs[kind] = (inside, max(0.0, total - inside))

    def _split(self, wrapped: float, bare: float, calls: int):
        """(inside, outside) seconds per span from one timed loop."""
        inside = sum(end - start for start, end
                     in zip(self.starts, self.ends)) / calls
        total = (wrapped - bare) / calls
        return inside, total - inside

    # -- analysis --------------------------------------------------------
    def layer_report(self) -> Dict[str, object]:
        """Per-layer corrected self seconds and span counts for the
        spans under the root span, plus the subtracted tracing cost.

        ``sum(self_s.values()) + unattributed_s + cost_s`` equals the
        root span's duration."""
        sites, parents = self.sites, self.parents
        starts, ends = self.starts, self.ends
        inside = [self.costs[kind][0] for kind in self.site_kinds]
        outside = [self.costs[kind][1] for kind in self.site_kinds]
        layers = self.site_layers
        own = self_times(starts, ends, parents)
        for index, site in enumerate(sites):
            own[index] -= inside[site]
            parent = parents[index]
            if parent >= 0:
                own[parent] -= outside[site]
        root = sites.index(self._site_ids["run"])
        in_run = bytearray(len(sites))
        in_run[root] = 1
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        site_calls = [0] * len(self.site_names)
        site_seconds = [0.0] * len(self.site_names)
        outer_core = 0
        cost = 0.0
        for index, site in enumerate(sites):
            site_calls[site] += 1
            site_seconds[site] += ends[index] - starts[index]
            parent = parents[index]
            if index <= root or parent < 0 or not in_run[parent]:
                continue
            in_run[index] = 1
            layer = layers[site]
            self_s[layer] += own[index]
            calls[layer] += 1
            cost += inside[site] + outside[site]
            if layer == "core" and layers[sites[parent]] != "core":
                outer_core += 1
        return {
            "wall_s": ends[root] - starts[root],
            "self_s": self_s,
            "calls": calls,
            "unattributed_s": own[root],
            "cost_s": cost,
            "spans": sum(calls.values()),
            "outer_core_ops": outer_core,
            "site_calls": dict(zip(self.site_names, site_calls)),
            "site_seconds": dict(zip(self.site_names, site_seconds)),
            "site_falsy": dict(zip(self.site_names, self.falsy)),
        }

    def dump(self, path) -> None:
        """Write every recorded span: a JSON header line (sites, costs)
        then the raw arrays, in the order site, parent, start, end."""
        header = {"sites": self.site_names, "layers": self.site_layers,
                  "kinds": self.site_kinds, "spans": len(self.sites),
                  "costs": {str(kind): cost
                            for kind, cost in self.costs.items()}}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for store in (self.sites, self.parents, self.starts,
                          self.ends):
                store.tofile(out)


def _concrete_subclasses(base) -> List[type]:
    found, pending = [], list(base.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if not getattr(cls, "__abstractmethods__", None) \
                and cls not in found:
            found.append(cls)
    return found
