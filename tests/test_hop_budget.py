"""Python calls and kernel events per switch-hop stay within a budget.

A timing gate reads the host as much as the code; a call count or an event
count does not.  Each document below is a smoke-size run of one end-to-end
benchmark workload (``benchmarks/e2e``): its ``Testbed.run`` is profiled
with ``sys.setprofile`` and every Python function entered is counted, then
divided by the frames that completed serialization on a switch port; the
events the kernel fired are divided by the same hops.

The call ceilings are the counts measured when they were set plus 10 %.  A
change that puts a call back on every hop -- a property read, a helper
split out of the port, a second gate query per arbitration -- fails here
on any machine.  Event counts are deterministic, so their ceilings carry
no slack: a second event per frame's arrival, or any new per-hop event,
fails at once.  A change that makes the hop cheaper should lower both;
re-measure with ``PYTHONPATH=src python -m tests.test_hop_budget``.

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
from repro.switch.packet import reset_frame_ids

_LINE = {"talkers": ["talker0"], "listener": "listener"}

_COMMON = {"config": "derive", "slot_us": 62.5, "seed": 1}

#: name -> (document, observed, ceiling in calls per switch-hop, ceiling
#: in kernel events per switch-hop).  The measured calls were 31.33, 40.73
#: and 39.65 (31.5, 41.7 and 40.6 while sources, the analyzer and hosts
#: read the kernel's ``now`` property per frame; 43.9 on the observed line
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
        False,
        34.5,
        3.20,
    ),
    "star_dense": (
        {
            "topology": {"kind": "star"},
            "duration_ms": 10,
            "flows": {"ts_count": 64, "size_bytes": 64,
                      "rc_mbps": 100, "be_mbps": 100},
        },
        False,
        44.8,
        3.60,
    ),
    "linear_qbv_observed": (
        {
            "topology": {"kind": "linear", "switch_count": 6, **_LINE},
            "duration_ms": 10,
            "gate_mechanism": "qbv",
            "flows": {"ts_count": 32, "size_bytes": 256,
                      "rc_mbps": 100, "be_mbps": 100},
        },
        True,
        43.6,
        2.62,
    ),
}


#: Span-recorder bytes per switch-hop on ``linear_qbv_observed``: 277 when
#: set (645 while every switch-hop took four event tuples).
SPAN_BYTES_CEILING = 305


@functools.lru_cache(maxsize=None)
def per_hop(name: str) -> Tuple[float, float]:
    """(Python calls, kernel events) per switch-hop of one run of *name*."""
    document, observed = WORKLOADS[name][:2]
    spec = ScenarioSpec.from_dict(dict(_COMMON, name="hop-budget", **document))
    observers = (
        {
            "metrics": MetricsRegistry(),
            "headroom": HeadroomRecorder(),
            "spans": FlowSpanRecorder(),
        }
        if observed else {}
    )
    testbed = spec.build_testbed(**observers)
    testbed.build()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = testbed.run(duration_ns=spec.duration_ns)
    finally:
        sys.setprofile(previous)
    hops = sum(s.counters.transmitted for s in result.switches.values())
    assert hops > 500, "the run carried too little traffic to measure"
    return calls / hops, result.sim_stats["fired"] / hops


def _retained(spans: bool) -> Tuple[int, int]:
    """(bytes a run of the observed document keeps alive, switch-hops)."""
    document = WORKLOADS["linear_qbv_observed"][0]
    spec = ScenarioSpec.from_dict(dict(_COMMON, name="hop-budget", **document))
    reset_frame_ids()
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


if __name__ == "__main__":
    for name in sorted(WORKLOADS):
        calls, events = per_hop(name)
        print(f"{name}: {calls:.2f} calls, {events:.4f} events per "
              f"switch-hop")
    print(f"linear_qbv_observed: {span_bytes_per_hop():.0f} B of flow "
          f"spans per switch-hop")
