"""Python calls and kernel events per unit of work stay within a budget.

A timing gate reads the host as much as the code; a call count or an event
count does not.  Every budget here profiles one piece of work with
``sys.setprofile``, counts the Python functions entered, and divides by the
units of work done.

Switch-hops.  Each document below is a smoke-size run of one end-to-end
benchmark workload (``benchmarks/e2e``): its ``Testbed.run`` is counted,
then divided by the frames that completed serialization on a switch port;
the events the kernel fired are divided by the same hops.  The observed
Qbv line runs four times, adding the metrics registry, the headroom probes
and the flow spans one at a time: what each observer adds per switch-hop
to the run before it is held under its own ceiling, and no observer may
fire a kernel event.

Kernel and scheduler work.  The event calendar is charged per fired event
on a self-rescheduling chain through ``Simulator.post`` and through
``Simulator.schedule``, and per scheduled entry in a storm that schedules
four events and cancels three per event fired.  The scheduling backends
are charged per placed flow (greedy), per search node (exact) and per
iteration (anneal) on instances built by ``tests/sched/test_backends.py``.
Each of these runs also reads back its exact counts: events, entries,
placements, nodes, status and peak.

The call ceilings are the counts measured when they were set plus 10 %;
the per-observer, kernel and scheduler ceilings carry at most half a call
of that, so one more Python call per event, entry, placement, node,
iteration or observed hop fails on any machine.  A per-hop total's 10 %
is three to four calls: it catches a few calls put back on every hop --
a property read, a helper split out of the port, a second gate query per
arbitration -- not one.  Event counts are deterministic, so their
ceilings carry no slack: a second event per frame's arrival, or any new
per-hop event, fails at once.  A change that makes the work cheaper
should lower both; re-measure with
``PYTHONPATH=src python -m tests.test_hop_budget``.

The flow-span recorder's memory is held the same way: the bytes a run on
the observed document keeps alive with a recorder attached, less those it
keeps without one, per switch-hop (``tracemalloc``), stay under the
measured figure plus 10 %.
"""

import functools
import gc
import sys
import tracemalloc
from typing import Tuple

import pytest

from repro.network.scenario import ScenarioSpec
from repro.obs.flowspans import FlowSpanRecorder
from repro.obs.headroom import HeadroomRecorder
from repro.obs.metrics import MetricsRegistry
from repro.sched import make_scheduler
from repro.sim.kernel import Simulator
from tests.sched.test_backends import (
    mixed_problem,
    tight_problem,
    uniform_problem,
)

_LINE = {"talkers": ["talker0"], "listener": "listener"}

_COMMON = {"config": "derive", "slot_us": 62.5, "seed": 1}

_QBV_LINE = {
    "topology": {"kind": "linear", "switch_count": 6, **_LINE},
    "duration_ms": 10,
    "gate_mechanism": "qbv",
    "flows": {"ts_count": 32, "size_bytes": 256,
              "rc_mbps": 100, "be_mbps": 100},
}

#: name -> (document, observers attached, ceiling in calls per switch-hop,
#: ceiling in kernel events per switch-hop).  The measured calls were
#: 31.26, 40.40, and 32.48 / 33.59 / 37.73 / 39.48 on the Qbv line as the
#: observers are added (31.33, 40.73 and 39.65 while every frame drew its
#: id from a process-global counter through a dataclass default factory;
#: 31.5, 41.7 and 40.6 while sources, the analyzer and hosts read the
#: kernel's ``now`` property per frame; 43.9 on the observed line
#: while the span recorder took four records per switch-hop; 35.7, 44.8
#: and 46.7 while every enqueue ran the arbiter; 38.7, 47.8 and 49.7 while
#: a link's arrival and the switch's processing were two events; 63.5 on
#: the observed line while the registry's gauges and counters were pushed
#: from every hop).  The events are exact: 3.20, 3.5952 and 2.6190 (4.20,
#: 4.5952 and 3.6190 with the two-event arrival).
WORKLOADS = {
    "ring_deep": (
        {
            "topology": {"kind": "ring", "switch_count": 16, **_LINE},
            "duration_ms": 5,
            "flows": {"ts_count": 16, "period_us": 1000, "size_bytes": 64},
        },
        (),
        34.4,
        3.20,
    ),
    "star_dense": (
        {
            "topology": {"kind": "star"},
            "duration_ms": 10,
            "flows": {"ts_count": 64, "size_bytes": 64,
                      "rc_mbps": 100, "be_mbps": 100},
        },
        (),
        44.4,
        3.60,
    ),
    "linear_qbv_bare": (_QBV_LINE, (), 35.7, 2.62),
    "linear_qbv_metrics": (_QBV_LINE, ("metrics",), 36.9, 2.62),
    "linear_qbv_headroom": (_QBV_LINE, ("metrics", "headroom"), 41.5, 2.62),
    "linear_qbv_observed": (
        _QBV_LINE, ("metrics", "headroom", "spans"), 43.4, 2.62,
    ),
}

#: observer -> (its class, the run without it, the run with it, ceiling in
#: the calls per switch-hop it adds).  Measured 1.12, 4.13 and 1.75.
OBSERVERS = {
    "metrics": (MetricsRegistry, "linear_qbv_bare", "linear_qbv_metrics",
                1.22),
    "headroom": (HeadroomRecorder, "linear_qbv_metrics",
                 "linear_qbv_headroom", 4.54),
    "spans": (FlowSpanRecorder, "linear_qbv_headroom",
              "linear_qbv_observed", 1.92),
}

#: Span-recorder bytes per switch-hop on ``linear_qbv_observed``: 277 when
#: set (645 while every switch-hop took four event tuples).
SPAN_BYTES_CEILING = 305


def count_calls(fn, *args):
    """(Python functions entered while ``fn(*args)`` runs, its result)."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(previous)
    return calls, result


@functools.lru_cache(maxsize=None)
def per_hop(name: str) -> Tuple[float, float]:
    """(Python calls, kernel events) per switch-hop of one run of *name*."""
    document, observers = WORKLOADS[name][:2]
    spec = ScenarioSpec.from_dict(dict(_COMMON, name="hop-budget", **document))

    def built():
        testbed = spec.build_testbed(
            **{observer: OBSERVERS[observer][0]() for observer in observers}
        )
        testbed.build()
        return testbed

    # Warm-up: what the process caches on first use (the arbiter's shared
    # decisions) is no hop's calls, and the count must not depend on what
    # ran before.
    built().run(spec.duration_ns)
    calls, result = count_calls(built().run, spec.duration_ns)
    hops = sum(s.counters.transmitted for s in result.switches.values())
    assert hops > 500, "the run carried too little traffic to measure"
    return calls / hops, result.sim_stats["fired"] / hops


def _chain(via: str) -> Tuple[float, dict]:
    """A chain of 10 000 events, each enqueueing the next through
    ``Simulator.<via>``: calls per fired event."""
    sim = Simulator()
    remaining = [10_000]
    enqueue = getattr(sim, via)

    def tick():
        remaining[0] -= 1
        if remaining[0] > 0:
            enqueue(10, tick)

    enqueue(10, tick)
    calls, _ = count_calls(sim.run)
    return calls / sim.events_executed, {"fired": sim.events_executed}


def _storm() -> Tuple[float, dict]:
    """5 000 events, each scheduling three more, cancelling them and
    rescheduling itself: calls per scheduled entry."""
    sim = Simulator()
    remaining = [5_000]

    def tick():
        remaining[0] -= 1
        handles = [sim.schedule(10 + i, lambda: None) for i in range(3)]
        for handle in handles:
            handle.cancel()
        if remaining[0] > 0:
            sim.schedule(10, tick)

    sim.schedule(10, tick)
    calls, _ = count_calls(sim.run)
    stats = sim.stats
    return calls / stats.scheduled, {"fired": stats.fired,
                                     "scheduled": stats.scheduled,
                                     "cancelled": stats.cancelled}


def _greedy() -> Tuple[float, dict]:
    calls, plan = count_calls(make_scheduler("greedy").solve,
                              uniform_problem(500, 1_000_000))
    return calls / plan.admitted_count, {"status": plan.status,
                                         "placed": plan.admitted_count}


def _exact() -> Tuple[float, dict]:
    calls, plan = count_calls(make_scheduler("exact", node_limit=20_000).solve,
                              tight_problem(13, 300_000))
    return calls / plan.nodes_explored, {"status": plan.status,
                                         "nodes": plan.nodes_explored}


def _anneal() -> Tuple[float, dict]:
    calls, plan = count_calls(make_scheduler("anneal", iterations=800).solve,
                              mixed_problem())
    return calls / plan.iterations, {"status": plan.status,
                                     "peak": plan.max_frames_per_slot}


#: work -> (how it runs, ceiling in calls per unit, its exact counts).  The
#: calls measured 2.00, 3.00, 4.00, 2.03, 1.51 and 12.62.
WORK = {
    "post_chain": (functools.partial(_chain, "post"), 2.2,
                   {"fired": 10_000}),
    "schedule_chain": (functools.partial(_chain, "schedule"), 3.3,
                       {"fired": 10_000}),
    "cancel_storm": (_storm, 4.4,
                     {"fired": 5_000, "scheduled": 20_000,
                      "cancelled": 15_000}),
    "greedy": (_greedy, 2.23, {"status": "feasible", "placed": 500}),
    "exact": (_exact, 1.66, {"status": "unknown", "nodes": 20_000}),
    "anneal": (_anneal, 13.12, {"status": "optimal", "peak": 20}),
}


@functools.lru_cache(maxsize=None)
def per_unit(name: str) -> Tuple[float, dict]:
    """(Python calls per unit of *name*'s work, the run's exact counts)."""
    return WORK[name][0]()


def _retained(spans: bool) -> Tuple[int, int]:
    """(bytes a run of the observed document keeps alive, switch-hops)."""
    spec = ScenarioSpec.from_dict(
        dict(_COMMON, name="hop-budget", **_QBV_LINE)
    )
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        observers = {"metrics": MetricsRegistry(),
                     "headroom": HeadroomRecorder()}
        if spans:
            observers["spans"] = FlowSpanRecorder()
        result = spec.build_testbed(**observers).run(spec.duration_ns)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    hops = sum(s.counters.transmitted for s in result.switches.values())
    return retained, hops


def span_bytes_per_hop() -> float:
    """Bytes the span recorder keeps per switch-hop."""
    _retained(True)  # warm-up: first-use caches are no recorder's bytes
    with_spans, hops = _retained(True)
    without, same_hops = _retained(False)
    assert hops == same_hops > 500
    return (with_spans - without) / hops


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_calls_per_switch_hop_stay_under_the_ceiling(name):
    ceiling = WORKLOADS[name][2]
    measured = per_hop(name)[0]
    assert measured <= ceiling, (
        f"{name}: {measured:.2f} Python calls per switch-hop, "
        f"ceiling {ceiling}"
    )


def test_span_recorder_bytes_per_switch_hop_stay_under_the_ceiling():
    measured = span_bytes_per_hop()
    assert measured <= SPAN_BYTES_CEILING, (
        f"flow spans keep {measured:.0f} B per switch-hop, ceiling "
        f"{SPAN_BYTES_CEILING}"
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_events_per_switch_hop_stay_under_the_ceiling(name):
    ceiling = WORKLOADS[name][3]
    measured = per_hop(name)[1]
    assert measured <= ceiling, (
        f"{name}: {measured:.4f} kernel events per switch-hop, "
        f"ceiling {ceiling}"
    )


@pytest.mark.parametrize("observer", list(OBSERVERS))
def test_each_observer_adds_calls_under_its_ceiling_and_no_event(observer):
    _, without, with_it, ceiling = OBSERVERS[observer]
    calls, events = per_hop(with_it)
    calls_before, events_before = per_hop(without)
    assert calls - calls_before <= ceiling, (
        f"{observer}: {calls - calls_before:.2f} Python calls per "
        f"switch-hop, ceiling {ceiling}"
    )
    assert events == events_before, f"{observer} fires kernel events"


@pytest.mark.parametrize("name", list(WORK))
def test_calls_per_unit_of_work_stay_under_the_ceiling(name):
    ceiling = WORK[name][1]
    measured = per_unit(name)[0]
    assert measured <= ceiling, (
        f"{name}: {measured:.2f} Python calls per unit, ceiling {ceiling}"
    )


@pytest.mark.parametrize("name", list(WORK))
def test_work_reads_its_exact_counts(name):
    assert per_unit(name)[1] == WORK[name][2]


if __name__ == "__main__":
    for name in WORKLOADS:
        calls, events = per_hop(name)
        print(f"{name}: {calls:.2f} calls, {events:.4f} events per "
              f"switch-hop")
    for observer, (_, without, with_it, _) in OBSERVERS.items():
        print(f"{observer}: +{per_hop(with_it)[0] - per_hop(without)[0]:.2f} "
              f"calls per switch-hop")
    for name in WORK:
        calls, counts = per_unit(name)
        print(f"{name}: {calls:.2f} calls per unit, {counts}")
    print(f"linear_qbv_observed: {span_bytes_per_hop():.0f} B of flow "
          f"spans per switch-hop")
