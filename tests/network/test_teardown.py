"""A dropped testbed is freed by reference counting alone.

With the cyclic collector disabled, dropping a testbed and its result
must leave nothing for ``gc.collect()`` to find: a build leaves no
reference cycle but the trunk links', and :meth:`Testbed.close` -- run by
itself when an unclosed testbed is dropped -- breaks those and every cycle
a run adds (the calendar, the clocks' rate listeners, the gPTP tree).
The matrix covers the shipped example scenarios and a star with gPTP under
drift, with preemption and with Qbv gating, each bare and watched by
metrics, headroom probes and flow spans, built only and built and run.  A
registry held past the testbed keeps answering and keeps no switch alive.

A failing case's traceback is itself cyclic garbage once pytest lets go
of it, so the cases after a genuine failure fail too: read the first.
"""

import gc
import json
import weakref
from collections import Counter
from pathlib import Path

import pytest

from repro.core.errors import ConfigurationError
from repro.network.scenario import ScenarioSpec
from repro.obs.flowspans import FlowSpanRecorder
from repro.obs.headroom import HeadroomRecorder
from repro.obs.metrics import MetricsRegistry

EXAMPLES = Path(__file__).parents[2] / "examples"

RUN_NS = 3_000_000


def _example(name: str, **extras) -> dict:
    return {**json.loads((EXAMPLES / f"{name}.json").read_text()), **extras}


SCENARIOS = {
    "faults_ring": _example("faults_ring"),
    "headroom_case2": _example("headroom_case2"),
    "headroom_star": _example("headroom_star"),
    "sched_mixed_cell": _example("sched_mixed_cell"),
    "slo_star": _example("slo_star"),
    # The first sync (at 31.25 ms) lands inside the run, so the servo
    # re-rates clocks that started gate engines listen to.
    "slo_star_gptp": _example(
        "slo_star", enable_gptp=True, clock_drift_ppm=20.0,
        gptp_warmup_ns=30_000_000,
    ),
    "slo_star_preemption": _example("slo_star", preemption_enabled=True),
    "slo_star_qbv": _example("slo_star", gate_mechanism="qbv"),
}


def _observers(watched: bool) -> dict:
    if not watched:
        return {}
    return {
        "metrics": MetricsRegistry(),
        "headroom": HeadroomRecorder(),
        "spans": FlowSpanRecorder(),
    }


def cyclic_garbage() -> Counter:
    """``gc.collect()``, reporting what it found by type (empty: 0)."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        found = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return found


@pytest.fixture(scope="module")
def quiet_heap():
    """Collector off; the heap the suite built so far frozen out of sight,
    so each ``gc.collect()`` here looks only at what a test allocated."""
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


@pytest.fixture
def no_collector(quiet_heap):
    gc.collect()  # whatever an earlier test left


@pytest.mark.parametrize("run", [False, True], ids=["build", "run"])
@pytest.mark.parametrize("watched", [False, True], ids=["bare", "watched"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_dropped_testbed_leaves_no_cyclic_garbage(
    no_collector, scenario, watched, run
):
    spec = ScenarioSpec.from_dict(SCENARIOS[scenario])
    testbed = spec.build_testbed(**_observers(watched))
    testbed.build()
    result = testbed.run(RUN_NS) if run else None
    switch = weakref.ref(next(iter(testbed.switches.values())))
    del testbed, result, spec
    assert switch() is None
    assert not cyclic_garbage()


def test_closed_result_stays_readable(no_collector):
    spec = ScenarioSpec.from_dict(SCENARIOS["slo_star"])
    testbed = spec.build_testbed(headroom=HeadroomRecorder())
    result = testbed.run(RUN_NS)
    counters = result.counters()
    testbed.close()
    assert testbed.sim.pending == 0
    assert result.counters() == counters
    assert result.max_queue_high_water() > 0
    assert result.headroom_report().utilization_digest()
    assert sum(link.frames_carried for link in result.links) > 0
    del testbed
    switch = weakref.ref(next(iter(result.switches.values())))
    del result
    assert switch() is None
    assert not cyclic_garbage()


@pytest.mark.parametrize("ending", ["close", "drop"])
@pytest.mark.parametrize("scenario", ["slo_star", "slo_star_gptp"])
def test_held_registry_outlives_its_switches(no_collector, scenario, ending):
    # The registry's gauges and counters read the dataplane's own state:
    # once the testbed is gone they still answer, and hold no switch.
    registry = MetricsRegistry()
    spec = ScenarioSpec.from_dict(SCENARIOS[scenario])
    testbed = spec.build_testbed(metrics=registry)
    result = testbed.run(RUN_NS)
    snapshot = registry.snapshot()
    assert registry.counter("gate_flips_total").total() > 0
    assert registry.counter("frames_total").total() > 0
    switch = weakref.ref(next(iter(testbed.switches.values())))
    if ending == "close":
        testbed.close()
        assert registry.snapshot() == snapshot
    del testbed, result, spec
    assert switch() is None
    assert registry.snapshot() == snapshot
    assert not cyclic_garbage()


def test_close_twice_is_a_no_op():
    testbed = ScenarioSpec.from_dict(SCENARIOS["slo_star"]).build_testbed()
    testbed.build()
    testbed.close()
    testbed.close()


def test_closed_testbed_refuses_to_run():
    testbed = ScenarioSpec.from_dict(SCENARIOS["slo_star"]).build_testbed()
    testbed.build()
    testbed.close()
    with pytest.raises(ConfigurationError, match="closed"):
        testbed.run(RUN_NS)


def test_testbed_closed_before_build_refuses_to_build():
    testbed = ScenarioSpec.from_dict(SCENARIOS["slo_star"]).build_testbed()
    testbed.close()
    with pytest.raises(ConfigurationError, match="closed"):
        testbed.build()
