"""Watching the gates changes no frame: bare vs. watched runs.

:class:`repro.switch.gates.GateEngine` answers every gate query from a
window table and posts no events; only when a gate tracer subscribes does
it *narrate* the table's boundaries (the ``gate`` trace records the
per-flip engine used to produce as a side effect of arbitrating).  A
metrics registry reads ``gate_flips_total`` off the same tables and posts
nothing.  These tests lock the contract that narration is narration: the
bare (table-only) run and the watched runs produce identical frame-level
traces -- every latency sample of every flow, every drop, duplicate and
reorder -- across CQF and Qbv gating, multi-switch topologies, and frame
preemption, and the only extra kernel events are the narration events
themselves.  Metrics, flow spans and headroom probes are held to the
stricter bar: they post nothing, so not even the event count moves.
"""

from collections import Counter

import pytest

from repro.network.scenario import ScenarioSpec
from repro.obs.flowspans import FlowSpanRecorder
from repro.obs.headroom import HeadroomRecorder
from repro.obs.metrics import MetricsRegistry
from repro.sim.trace import Tracer
from tests.test_golden_outputs import (
    _DRR_TEMPLATES,
    SCENARIOS as GOLDEN_SCENARIOS,
    latency_tuples,
)

#: This file's scenario names -> the golden scenarios they run.
SCENARIOS = {
    "star_cqf": "star_cqf",
    "ring_cqf": "ring16_cqf",
    "linear_qbv": "linear_qbv_cbs",
    "star_preemption": "star_preemption",
}


def _frame_trace(doc, **observers):
    result = ScenarioSpec.from_dict(doc).run(**observers)
    return latency_tuples(result), result


@pytest.mark.parametrize("label", sorted(SCENARIOS))
def test_flip_and_table_traces_identical(label):
    doc = GOLDEN_SCENARIOS[SCENARIOS[label]]
    bare_trace, bare = _frame_trace(doc)
    metered_trace, metered = _frame_trace(doc, metrics=MetricsRegistry())
    traced_trace, traced = _frame_trace(
        doc, tracer=Tracer(enabled={"gate"})
    )
    assert bare_trace == metered_trace == traced_trace
    # Metrics, flow spans and headroom probes only listen: they post no
    # event, so a run under any of them is the bare run, event count
    # included.
    for watched_trace, watched in (
        (metered_trace, metered),
        _frame_trace(doc, spans=FlowSpanRecorder()),
        _frame_trace(doc, headroom=HeadroomRecorder()),
    ):
        assert watched_trace == bare_trace
        assert watched.counters() == bare.counters()
        assert watched.drop_report() == bare.drop_report()
        assert watched.sim_stats == bare.sim_stats
    # The equivalence is not vacuous: traffic actually flowed...
    assert any(latencies for latencies, *_ in bare_trace.values())
    # ...and boundaries really were narrated, the same ones the registry
    # counts: every ``gate`` record after an engine's start record is one
    # ``gate_flips_total`` of that port and direction.
    records = traced.tracer.records
    start_ns = records[0].time
    narrated = Counter(r.message for r in records if r.time > start_ns)
    flips = Counter()
    for key, series in metered.metrics.counter("gate_flips_total").series():
        at = dict(key)
        flips[f"{at['switch']}.p{at['port']} {at['direction']}-gates"] = (
            series.value
        )
    assert narrated and narrated == +flips  # unary +: ports with no flips
    # One kernel event per narrated boundary, and nothing else.
    extra = sum(narrated.values())
    assert traced.sim_stats["fired"] - bare.sim_stats["fired"] == extra


@pytest.mark.parametrize("label", sorted(GOLDEN_SCENARIOS))
def test_registry_posts_no_event(label):
    # Gauges and counters read what the dataplane counts, gate flips what
    # the window tables say: attaching a registry leaves the calendar as
    # the bare run has it.
    runs = []
    for observers in ({}, {"metrics": MetricsRegistry()}):
        spec = ScenarioSpec.from_dict(GOLDEN_SCENARIOS[label])
        if label == "ring_drr":
            spec.extras["templates"] = _DRR_TEMPLATES
        runs.append(spec.run(**observers))
    bare, metered = runs
    assert metered.sim_stats == bare.sim_stats
    assert metered.metrics.counter("gate_flips_total").total() > 0
