"""Span log and layer wrappers for the traced pass of the e2e benchmark.

Nothing under ``src/`` knows about this file.  :func:`install` replaces
the public entry points of each layer (class attributes and a few module
globals) with wrappers that record one span per call, *before* a testbed
is constructed -- bound methods captured during construction
(``host.inject`` handed to a source, ``port.kick`` handed to a gate
engine) then already resolve to the wrappers.  :meth:`Patches.undo`
restores every original.

Event actions have no public entry point to wrap, so the four
``Simulator`` scheduling calls wrap the *action they are handed*, named
after the module that defines the callable.  A span therefore has two
ancestors: ``parent`` is the span that encloses it in time (what self
time is computed from) and ``cause`` is the span that was open when the
action was posted.

Self time is duration minus the durations of direct children.  Recording
a span takes about a microsecond, part inside the span and part in its
parent, which would charge a layer for every wrapped call it makes (the
kernel loop for every action); :func:`span_cost` measures both parts on
the spot and :meth:`SpanLog.self_times` takes them back out.
``trace.overhead_ratio`` says by how much tracing stretched the run.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, Iterator, List, Tuple

__all__ = [
    "SpanLog",
    "NULL_LOG",
    "Patches",
    "span_cost",
    "install",
    "install_campaign",
    "SELF_TIME_METRICS",
    "STAGE_TIME_METRICS",
    "SPAN_COUNT_METRICS",
    "UNATTRIBUTED",
]


class SpanLog:
    """Spans as five parallel columns, appended in start order."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.cause = array("l")
        self.start = array("q")
        self.end = array("q")
        #: Index of the innermost open span; ``-1`` at the root.
        self.stack: List[int] = [-1]
        #: Counts taken at the same boundaries as the spans.
        self.counters: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.start)

    def intern(self, name: str) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    # ------------------------------------------------------------ recording

    def open(self, name_id: int, cause: int) -> int:
        index = len(self.start)
        stack = self.stack
        self.name.append(name_id)
        self.parent.append(stack[-1])
        self.cause.append(cause)
        self.end.append(0)
        stack.append(index)
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        self.stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """An ad-hoc span around harness code that calls into a layer."""
        index = self.open(self.intern(name), self.stack[-1])
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, function: Callable) -> Callable:
        """*function* with one span per call."""
        name_id = self.intern(name)
        open_span, close_span, stack = self.open, self.close, self.stack

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = open_span(name_id, stack[-1])
            try:
                return function(*args, **kwargs)
            finally:
                close_span(index)

        return traced

    def action(self, name: str, action: Callable[[], Any],
               cause: int) -> Callable[[], Any]:
        """A posted event action; *cause* is the span that posted it."""
        name_id = self.intern(name)
        open_span, close_span = self.open, self.close

        def fire():
            index = open_span(name_id, cause)
            try:
                return action()
            finally:
                close_span(index)

        return fire

    # ------------------------------------------------------------- analysis

    def self_times(self, cost: Tuple[int, int] = (0, 0)) -> List[int]:
        """Per-span self time (ns): duration minus direct children.

        *cost* is ``(inside, outside)`` from :func:`span_cost`: what
        recording one span adds to that span and to its parent.  Both are
        taken back out (never below zero), so a layer is not charged for
        the bookkeeping of the wrapped calls it makes.
        """
        inside, outside = cost
        start, end, parent = self.start, self.end, self.parent
        own = [end[i] - start[i] - inside for i in range(len(start))]
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                own[p] -= end[i] - start[i] + outside
        if inside or outside:
            own = [x if x > 0 else 0 for x in own]
        return own

    def by_name(self, cost: Tuple[int, int] = (0, 0)) -> Dict[str, Dict[str, int]]:
        """``name -> {count, total_ns, self_ns}`` over the whole log."""
        own = self.self_times(cost)
        start, end, name = self.start, self.end, self.name
        table: List[List[int]] = [[0, 0, 0] for _ in self.names]
        for i in range(len(start)):
            row = table[name[i]]
            row[0] += 1
            row[1] += end[i] - start[i]
            row[2] += own[i]
        return {
            self.names[k]: {"count": c, "total_ns": t, "self_ns": s}
            for k, (c, t, s) in enumerate(table)
        }

    def dump(self, path) -> None:
        """Write every span as one JSON line (name, start, end, parent,
        cause); times are ns on the log's clock."""
        with open(path, "w") as handle:
            for i in range(len(self.start)):
                handle.write(json.dumps([
                    self.names[self.name[i]], self.start[i], self.end[i],
                    self.parent[i], self.cause[i],
                ]) + "\n")


def span_cost(samples: int = 20_000) -> Tuple[int, int]:
    """``(inside, outside)`` ns that recording one span costs on this host.

    Measured on empty wrapped calls: *inside* is what lands between the
    span's own clock reads, *outside* is what its parent sees on top.
    """
    log = SpanLog()
    empty = log.wrap("child", lambda: None)
    with log.span("parent"):
        for _ in range(samples):
            empty()
    table = log.by_name()
    return (
        table["child"]["self_ns"] // samples,
        table["parent"]["self_ns"] // samples,
    )


class _NullLog:
    """Untraced runs share the workload code; spans cost nothing."""

    def span(self, name: str):
        return nullcontext()


NULL_LOG = _NullLog()


# ------------------------------------------------------------------ layers

#: Event actions are named after the module that defines the callable.
_ACTION_NAMES = {
    "repro.traffic.generator": "generator.tick",
    "repro.network.link": "link.arrive",
    "repro.switch.device": "ingress.process",
    "repro.switch.port": "port.tx_event",
    "repro.switch.gates": "gates.flip",
}

#: ``metric -> span-name prefixes`` whose self time it sums.
SELF_TIME_METRICS: Dict[str, Tuple[str, ...]] = {
    "kernel.self_s": ("kernel.",),
    "generator.self_s": ("generator.",),
    "host.self_s": ("host.",),
    "link.self_s": ("link.",),
    "ingress.self_s": ("ingress.",),
    "port.enqueue_self_s": ("port.enqueue",),
    "port.egress_self_s": ("port.kick", "port.tx_event", "port.gate_wake"),
    "gates.self_s": ("gates.",),
    "analyzer.self_s": ("analyzer.",),
    "obs.self_s": ("obs.",),
}

#: ``metric -> span name`` whose inclusive time it sums (pipeline stages).
STAGE_TIME_METRICS: Dict[str, str] = {
    "scenario.parse_s": "scenario.parse",
    "sizing.derive_s": "sizing.derive",
    "sched.plan_s.greedy": "sched.plan.greedy",
    "sched.plan_s.exact": "sched.plan.exact",
    "sched.plan_s.anneal": "sched.plan.anneal",
    "optimizer.search_s": "optimizer.search",
    "bram.report_s": "bram.report",
    "rtl.emit_s": "rtl.emit",
    "testbed.build_s": "testbed.build",
    "report.serialise_s": "report.serialise",
    "campaign.expand_s": "campaign.expand",
    "campaign.aggregate_s": "campaign.aggregate",
}

#: ``metric -> span-name prefix`` whose spans it counts.
SPAN_COUNT_METRICS: Dict[str, str] = {
    "optimizer.candidates": "optimizer.candidate",
    "port.kicks": "port.kick",
    "gates.queries": "gates.query",
    "gates.flip_events": "gates.flip",
    "gates.wakeups": "port.gate_wake",
    "obs.callbacks": "obs.",
}

#: Spans whose self time belongs to no layer: the harness root, the body
#: of ``Testbed.run`` and actions from modules not listed above.
UNATTRIBUTED = frozenset({"op", "testbed.run", "other.event"})


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(original)``; a classmethod
        stays one."""
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new: Any = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, new)

    def undo(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def _action_name(action: Callable, priority: int, gate_priority: int) -> str:
    function = getattr(action, "__func__", action)
    module = getattr(function, "__module__", None) or ""
    name = _ACTION_NAMES.get(module)
    if name is None:
        return "obs.tick" if module.startswith("repro.obs.") else "other.event"
    if name == "port.tx_event" and priority == gate_priority:
        # The table-mode engine's demand-driven gate wakeup: posted by the
        # port, at the priority a flip would have had.
        return "port.gate_wake"
    return name


def _wrap(patches: Patches, log: SpanLog, owner: Any,
          names: Dict[str, str]) -> None:
    """One plain span per call of ``owner.<attr>`` for ``attr -> name``."""
    for attr, span_name in names.items():
        patches.set(
            owner, attr,
            lambda original, span_name=span_name: log.wrap(span_name, original),
        )


def install_campaign(log: SpanLog) -> Patches:
    """Spans on the parent-process side of a sweep only.

    Forked pool workers inherit whatever is patched at fork time; keeping
    the dataplane unwrapped here keeps the workers at full speed.
    """
    import repro.campaign.runner as runner
    from repro.campaign.spec import SweepSpec

    patches = Patches()
    _wrap(patches, log, SweepSpec, {"expand": "campaign.expand"})
    _wrap(patches, log, runner, {"aggregate_rows": "campaign.aggregate"})
    _wrap(patches, log, runner.Campaign, {"run": "campaign.run"})
    return patches


def install(log: SpanLog) -> Patches:
    """Wrap every layer's public entry points; see the module docstring."""
    import repro.core.optimizer as optimizer
    import repro.network.testbed as testbed_module
    import repro.sched as sched
    from repro.network.analyzer import TsnAnalyzer
    from repro.network.host import Host
    from repro.network.link import Link
    from repro.network.scenario import ScenarioSpec
    from repro.network.testbed import ScenarioResult, Testbed
    from repro.obs.flowspans import FlowSpanRecorder
    from repro.obs.headroom import HeadroomRecorder, PortHeadroomProbes
    from repro.obs.instruments import PortInstruments, SwitchInstruments
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.kernel import Simulator
    from repro.switch.device import TsnSwitch
    from repro.switch.gates import GATE_EVENT_PRIORITY, GateEngine
    from repro.switch.pipeline import SwitchPipeline
    from repro.switch.port import EgressPort

    patches = Patches()
    plain = {
        # Pipeline stages.  ``from_json`` is ``json.loads`` plus
        # ``from_dict`` and campaign workers call ``from_dict`` directly,
        # so the span sits where both paths meet.
        ScenarioSpec: {
            "from_dict": "scenario.parse",
            "build_topology": "scenario.build_topology",
            "build_flows": "scenario.build_flows",
            "build_config": "sizing.derive",
            "build_testbed": "scenario.build_testbed",
        },
        Testbed: {"build": "testbed.build", "run": "testbed.run"},
        testbed_module: {"plan_flows": "sched.plan"},
        sched: {"plan_flows": "sched.plan"},
        optimizer: {"derive_config": "optimizer.candidate"},
        # Kernel loop and dataplane.
        Simulator: {"run": "kernel.run"},
        Host: {"inject": "host.inject", "receive": "host.receive"},
        Link: {"deliver": "link.deliver"},
        TsnSwitch: {"receive": "ingress.receive"},
        SwitchPipeline: {"process": "ingress.pipeline"},
        EgressPort: {"enqueue": "port.enqueue"},
        GateEngine: {
            attr: "gates.query" for attr in (
                "in_open", "out_open", "select_enqueue_queue",
                "time_until_out_close", "next_out_open_window",
            )
        },
        TsnAnalyzer: {"record": "analyzer.record"},
        # Observer entry points.
        ScenarioResult: {"headroom_report": "obs.headroom_report"},
        HeadroomRecorder: {
            "for_port": "obs.headroom_for_port", "finalize": "obs.finalize",
        },
        FlowSpanRecorder: {"record": "obs.record"},
        MetricsRegistry: {"snapshot": "obs.snapshot"},
    }
    for owner in (PortInstruments, SwitchInstruments, PortHeadroomProbes):
        plain[owner] = {
            attr: f"obs.{attr}" for attr in vars(owner)
            if attr.startswith("on_")
        }
    for owner, names in plain.items():
        _wrap(patches, log, owner, names)

    # The scheduling calls wrap themselves and every action they take.
    def scheduling_call(original):
        post_id = log.intern("kernel.post")
        open_span, close_span, stack = log.open, log.close, log.stack

        @functools.wraps(original)
        def traced(self, when, action, priority=0):
            cause = stack[-1]
            index = open_span(post_id, cause)
            try:
                name = _action_name(action, priority, GATE_EVENT_PRIORITY)
                return original(
                    self, when, log.action(name, action, cause), priority
                )
            finally:
                close_span(index)

        return traced

    for attr in ("post", "post_at", "schedule", "schedule_at"):
        patches.set(Simulator, attr, scheduling_call)

    def attach(original):
        # The link's carry callback is handed to the port here; wrapping
        # what is handed over keeps the link's share out of the port's.
        @functools.wraps(original)
        def traced(self, deliver):
            return original(self, log.wrap("link.carry", deliver))

        return traced

    patches.set(EgressPort, "attach", attach)

    def kick(original):
        kick_id = log.intern("port.kick")
        open_span, close_span, stack = log.open, log.close, log.stack
        counters = log.counters
        counters.setdefault("port.kicks_transmitting", 0)

        @functools.wraps(original)
        def traced(self):
            index = open_span(kick_id, stack[-1])
            was_busy = self.busy
            try:
                return original(self)
            finally:
                if not was_busy and self.busy:
                    counters["port.kicks_transmitting"] += 1
                close_span(index)

        return traced

    patches.set(EgressPort, "kick", kick)

    return patches
