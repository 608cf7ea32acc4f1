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
fails at once.  A change that makes the hop cheaper should lower both.
"""

import functools
import sys
from typing import Tuple

import pytest

from repro.network.scenario import ScenarioSpec
from repro.obs.flowspans import FlowSpanRecorder
from repro.obs.headroom import HeadroomRecorder
from repro.obs.metrics import MetricsRegistry

_LINE = {"talkers": ["talker0"], "listener": "listener"}

_COMMON = {"config": "derive", "slot_us": 62.5, "seed": 1}

#: name -> (document, observed, ceiling in calls per switch-hop, ceiling
#: in kernel events per switch-hop).  The measured calls were 35.7, 44.8
#: and 46.7 (38.7, 47.8 and 49.7 while a link's arrival and the switch's
#: processing were two events; 63.5 on the observed line while the
#: registry's gauges and counters were pushed from every hop).  The events
#: are exact: 3.20, 3.5952 and 2.6190 (4.20, 4.5952 and 3.6190 with the
#: two-event arrival).
WORKLOADS = {
    "ring_deep": (
        {
            "topology": {"kind": "ring", "switch_count": 16, **_LINE},
            "duration_ms": 5,
            "flows": {"ts_count": 16, "period_us": 1000, "size_bytes": 64},
        },
        False,
        39.3,
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
        49.3,
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
        51.4,
        2.62,
    ),
}


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


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_calls_per_switch_hop_stay_under_the_ceiling(name):
    ceiling = WORKLOADS[name][2]
    measured = per_hop(name)[0]
    assert measured <= ceiling, (
        f"{name}: {measured:.2f} Python calls per switch-hop, "
        f"ceiling {ceiling}"
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_events_per_switch_hop_stay_under_the_ceiling(name):
    ceiling = WORKLOADS[name][3]
    measured = per_hop(name)[1]
    assert measured <= ceiling, (
        f"{name}: {measured:.4f} kernel events per switch-hop, "
        f"ceiling {ceiling}"
    )
