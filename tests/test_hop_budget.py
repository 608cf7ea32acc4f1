"""Python calls per switch-hop stay within a budget.

A timing gate reads the host as much as the code; a call count does not.
Each document below is a smoke-size run of one end-to-end benchmark
workload (``benchmarks/e2e``): its ``Testbed.run`` is profiled with
``sys.setprofile`` and every Python function entered is counted, then
divided by the frames that completed serialization on a switch port.

The ceilings are the counts measured when they were set plus 10 %.  A
change that puts a call back on every hop -- a property read, a helper
split out of the port, a second gate query per arbitration -- fails here
on any machine.  A change that makes the hop cheaper should lower them.
"""

import sys

import pytest

from repro.network.scenario import ScenarioSpec
from repro.obs.flowspans import FlowSpanRecorder
from repro.obs.headroom import HeadroomRecorder
from repro.obs.metrics import MetricsRegistry

_LINE = {"talkers": ["talker0"], "listener": "listener"}

_COMMON = {"config": "derive", "slot_us": 62.5, "seed": 1}

#: name -> (document, observed, ceiling in calls per switch-hop).  The
#: measured counts were 39.0, 47.8 and 49.7 (63.5 while the registry's
#: gauges and counters were pushed from every hop).
WORKLOADS = {
    "ring_deep": (
        {
            "topology": {"kind": "ring", "switch_count": 16, **_LINE},
            "duration_ms": 5,
            "flows": {"ts_count": 16, "period_us": 1000, "size_bytes": 64},
        },
        False,
        42.9,
    ),
    "star_dense": (
        {
            "topology": {"kind": "star"},
            "duration_ms": 10,
            "flows": {"ts_count": 64, "size_bytes": 64,
                      "rc_mbps": 100, "be_mbps": 100},
        },
        False,
        52.6,
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
        54.7,
    ),
}


def calls_per_hop(document: dict, observed: bool) -> float:
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
    return calls / hops


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_calls_per_switch_hop_stay_under_the_ceiling(name):
    document, observed, ceiling = WORKLOADS[name]
    measured = calls_per_hop(document, observed)
    assert measured <= ceiling, (
        f"{name}: {measured:.2f} Python calls per switch-hop, "
        f"ceiling {ceiling}"
    )
