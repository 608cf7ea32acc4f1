"""What ``benchmarks/e2e`` takes from the product *by name* still exists.

The harness wraps class attributes and reads testbed attributes by name,
and a product PR may not edit it.  A rename would otherwise surface only in
the slow benchmark CI step, or as a benchmark run whose every operation
failed; here it is a ``KeyError`` / ``AttributeError`` naming the attribute.
"""

import sys
from pathlib import Path

import pytest

from repro.network.scenario import ScenarioSpec
from repro.obs.metrics import MetricsRegistry
from repro.sim.trace import Tracer

HARNESS = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"

SMALLEST_STAR = {
    "name": "harness-contract",
    "topology": {"kind": "star", "talkers": ["talker0"],
                 "listener": "listener"},
    "flows": {"ts_count": 2, "period_us": 500, "size_bytes": 64},
    "duration_ms": 1,
}


@pytest.fixture
def spans(monkeypatch):
    """``e2e_spans``, every patch set it creates undone afterwards -- also
    when ``install`` dies half-way through its list."""
    monkeypatch.syspath_prepend(str(HARNESS))
    import e2e_spans

    created = []

    class TrackedPatches(e2e_spans.Patches):
        def __init__(self):
            super().__init__()
            created.append(self)

    monkeypatch.setattr(e2e_spans, "Patches", TrackedPatches)
    yield e2e_spans
    for patches in created:
        patches.undo()
    sys.modules.pop("e2e_spans", None)


def test_campaign_entry_points_exist(spans):
    spans.install_campaign(spans.SpanLog()).undo()


def test_layer_entry_points_exist_and_a_run_is_attributed(spans):
    log = spans.SpanLog()
    patches = spans.install(log)
    spec = ScenarioSpec.from_dict(SMALLEST_STAR)
    # The registry posts no event; a gate tracer is what narrates.
    testbed = spec.build_testbed(
        metrics=MetricsRegistry(), tracer=Tracer(enabled={"gate"})
    )
    testbed.build()
    result = testbed.run(duration_ns=spec.duration_ns)
    patches.undo()
    assert result.analyzer.received() > 0
    # Narration is posted from repro.switch.gates, port wakeups from
    # repro.switch.port at GATE_EVENT_PRIORITY: that is how the harness
    # tells the two apart.
    assert {"gates.flip", "port.gate_wake", "gates.query"} <= set(log.names)
    # Posted actions are attributed by the module that defines them: a
    # ``functools.partial`` or an action moved to another module would
    # silently turn hop time into ``other.event``.  A hop's arrival and its
    # switch pipeline are one event, posted by the link.
    assert {"link.arrive", "port.tx_event"} <= set(log.names)
    assert "ingress.process" not in log.names
    assert "other.event" not in log.names
    # What e2e_workloads.py reads off a finished run.
    assert hasattr(testbed, "batch") and testbed.batch is None
    assert testbed.sim.backend == "py"
    assert {
        port.gates.event_mode
        for switch in result.switches.values() for port in switch.ports
    } == {"table"}
    assert {"fired", "cancelled", "calendar_high_water"} <= set(
        result.sim_stats
    )
