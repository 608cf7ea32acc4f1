"""Dataplane instrumentation: views over dataplane state, pushed series,
and end-to-end metric flow."""

import json

import pytest

from repro.core.presets import customized_config
from repro.core.units import ms
from repro.network.testbed import RunPlan, Testbed
from repro.network.topology import ring_topology
from repro.obs.chrome_trace import chrome_trace_events
from repro.obs.instruments import SwitchInstruments
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import WallClockProfiler
from repro.sim.kernel import Simulator
from repro.sim.trace import Tracer
from repro.switch.counters import SwitchCounters
from repro.switch.gates import GateEngine
from repro.switch.packet import Descriptor, EthernetFrame
from repro.switch.queueing import BufferPool, MetadataQueue
from repro.switch.tables import GateControlList, GateEntry

SLOT = 62_500


def _port_parts(sim, queue_num=8):
    """Queues, a buffer pool and a gate engine (a CQF pair 6/7 of 100 ns
    slots): the dataplane state one port's views read."""
    queues = [MetadataQueue(4, queue_id) for queue_id in range(queue_num)]
    in_gcl, out_gcl = GateControlList(2), GateControlList(2)
    in_gcl.program([GateEntry(0x40, 100), GateEntry(0x80, 100)])
    out_gcl.program([GateEntry(0x80, 100), GateEntry(0x40, 100)])
    return queues, BufferPool(64), GateEngine(sim, in_gcl, out_gcl)


def _descriptor(now_ns: int = 0) -> Descriptor:
    frame = EthernetFrame(src_mac=1, dst_mac=2, vlan_id=1, pcp=7,
                          size_bytes=64)
    return Descriptor(frame, 0, now_ns, 7)


class TestSwitchInstruments:
    def test_frame_lifecycle_counters(self):
        # Read off the switch's own counters, not pushed per frame.
        registry = MetricsRegistry()
        counters = SwitchCounters()
        SwitchInstruments(registry, "sw0", counters)
        counters.received += 2
        counters.forwarded += 1
        frames = registry.counter("frames_total")
        assert frames.value(switch="sw0", event="received") == 2
        assert frames.value(switch="sw0", event="forwarded") == 1
        assert frames.value(switch="sw0", event="transmitted") == 0

    def test_meter_decisions(self):
        registry = MetricsRegistry()
        instruments = SwitchInstruments(registry, "sw0", SwitchCounters())
        instruments.on_meter(True)
        instruments.on_meter(False)
        instruments.on_meter(False)
        meter = registry.counter("meter_decisions_total")
        assert meter.value(switch="sw0", decision="conform") == 1
        assert meter.value(switch="sw0", decision="violate") == 2

    def test_switches_share_metric_names_but_not_series(self):
        registry = MetricsRegistry()
        first, second = SwitchCounters(), SwitchCounters()
        SwitchInstruments(registry, "sw0", first)
        SwitchInstruments(registry, "sw1", second)
        first.received += 1
        second.received += 3
        frames = registry.counter("frames_total")
        assert frames.value(switch="sw0", event="received") == 1
        assert frames.value(switch="sw1", event="received") == 3

    def test_port_instruments_track_depth_and_residence(self):
        # Depth is read off the queue; residence is pushed per dequeue.
        registry = MetricsRegistry()
        queues, pool, gates = _port_parts(Simulator())
        port = SwitchInstruments(registry, "sw0", SwitchCounters()).for_port(
            0, queues, pool, gates
        )
        queues[7].enqueue(_descriptor())
        queues[7].enqueue(_descriptor())
        queues[7].dequeue()
        depth = registry.gauge("queue_depth")
        assert depth.value(switch="sw0", port=0, queue=7) == 1
        assert depth.high_water(switch="sw0", port=0, queue=7) == 2
        port.residence[7].observe(5_000)
        residence = registry.histogram("queue_residence_ns")
        series = residence.labels(switch="sw0", port=0, queue=7)
        assert series.count == 1 and series.sum == 5_000

    def test_port_buffer_and_drops(self):
        # Pool use is read off the pool; drops are pushed.
        registry = MetricsRegistry()
        queues, pool, gates = _port_parts(Simulator())
        port = SwitchInstruments(registry, "sw0", SwitchCounters()).for_port(
            2, queues, pool, gates
        )
        slots = [pool.allocate(64) for _ in range(40)]
        for slot in slots[10:]:
            pool.release(slot)
        port.on_drop("tail")
        buffer = registry.gauge("buffer_in_use")
        assert buffer.value(switch="sw0", port=2) == 10
        assert buffer.high_water(switch="sw0", port=2) == 40
        assert registry.counter("drops_total").value(
            switch="sw0", reason="tail") == 1

    def test_for_port_accepts_generator(self):
        registry = MetricsRegistry()
        queues, pool, gates = _port_parts(Simulator())
        port = SwitchInstruments(registry, "sw0", SwitchCounters()).for_port(
            0, (queue for queue in queues), pool, gates
        )
        queues[7].enqueue(_descriptor())
        port.residence[7].observe(100)
        assert registry.gauge("queue_depth").value(
            switch="sw0", port=0, queue=7) == 1
        series = registry.histogram("queue_residence_ns").labels(
            switch="sw0", port=0, queue=7
        )
        assert series.count == 1

    def test_gate_flips_read_the_window_tables(self):
        registry = MetricsRegistry()
        sim = Simulator()
        queues, pool, gates = _port_parts(sim)
        SwitchInstruments(registry, "sw0", SwitchCounters()).for_port(
            1, queues, pool, gates
        )
        flips = registry.counter("gate_flips_total")
        assert flips.total() == 0  # not started: no table yet
        gates.start()
        sim.run(until=250)
        # Boundaries at 100 and 200 ns, on both lists; nothing posted.
        assert flips.value(switch="sw0", port=1, direction="in") == 2
        assert flips.value(switch="sw0", port=1, direction="out") == 2
        assert sim.stats.fired == 0


@pytest.fixture(scope="module")
def observed_run():
    """One instrumented ring scenario shared by the end-to-end assertions."""
    from repro.traffic.iec60802 import production_cell_flows

    topo = ring_topology(switch_count=3, talkers=["talker0"])
    flows = production_cell_flows(["talker0"], "listener", flow_count=32)
    registry = MetricsRegistry()
    tracer = Tracer(enabled={"gate", "queue", "tx", "drop"})
    profiler = WallClockProfiler()
    testbed = Testbed(
        RunPlan(
            topo, customized_config(topo.max_enabled_ports), flows,
            slot_ns=SLOT,
        ),
        tracer=tracer, metrics=registry, profiler=profiler,
    )
    result = testbed.run(duration_ns=ms(30))
    return registry, tracer, profiler, result


class TestEndToEnd:
    def test_frames_flow_through_counters(self, observed_run):
        registry, _, _, result = observed_run
        frames = registry.counter("frames_total")
        received = sum(
            s.value for key, s in frames.series()
            if ("event", "received") in key
        )
        transmitted = sum(
            s.value for key, s in frames.series()
            if ("event", "transmitted") in key
        )
        assert received > 0
        assert transmitted > 0
        # Metrics agree with the legacy per-switch counters.
        assert received == sum(
            c["received"] for c in result.counters().values()
        )

    def test_queue_depth_high_water_positive(self, observed_run):
        registry, _, _, _ = observed_run
        assert registry.gauge("queue_depth").max_high_water() > 0

    def test_residence_histogram_collected(self, observed_run):
        registry, _, _, _ = observed_run
        residence = registry.histogram("queue_residence_ns")
        total = sum(series.count for _, series in residence.series())
        assert total > 0

    def test_gate_flips_counted(self, observed_run):
        registry, _, _, _ = observed_run
        assert registry.counter("gate_flips_total").total() > 0

    def test_nominal_run_has_no_drops(self, observed_run):
        registry, _, _, _ = observed_run
        assert registry.counter("drops_total").total() == 0

    def test_sim_stats_populated(self, observed_run):
        _, _, _, result = observed_run
        stats = result.sim_stats
        assert stats["fired"] > 0
        assert stats["scheduled"] >= stats["fired"]
        assert stats["calendar_high_water"] > 0

    def test_profiler_saw_the_run(self, observed_run):
        _, _, profiler, _ = observed_run
        assert profiler.total_ns > 0
        assert profiler.report()

    def test_trace_exports_as_chrome_events(self, observed_run):
        _, tracer, _, result = observed_run
        events = chrome_trace_events(tracer.records,
                                     end_ns=result.duration_ns)
        assert any(e["ph"] == "X" for e in events)
        for event in events:
            for key in ("name", "ph", "ts", "pid", "tid"):
                assert key in event

    def test_snapshot_is_json_serializable(self, observed_run):
        registry, _, _, _ = observed_run
        json.loads(registry.to_json())

    def test_unobserved_run_records_nothing(self):
        from repro.traffic.iec60802 import production_cell_flows

        topo = ring_topology(switch_count=3, talkers=["talker0"])
        flows = production_cell_flows(["talker0"], "listener", flow_count=8)
        testbed = Testbed(RunPlan(
            topo, customized_config(topo.max_enabled_ports), flows,
            slot_ns=SLOT,
        ))
        result = testbed.run(duration_ns=ms(10))
        assert result.metrics is None
        assert result.tracer.records == []
