"""TAS schedule synthesis and its testbed integration."""

import pytest

from repro.core.errors import ConfigurationError, SchedulingError
from repro.core.presets import customized_config
from repro.core.units import mbps, ms
from repro.cqf.bounds import cqf_bounds
from repro.cqf.gating import DISCIPLINES, QBV, from_document
from repro.cqf.schedule import CqfSchedule
from repro.network.testbed import RunPlan, Testbed
from repro.network.topology import ring_topology
from repro.qbv.synthesis import (
    PortTraffic,
    TasSynthesizer,
    estimate_gate_size,
)
from repro.sched import plan_flows
from repro.traffic.flows import FlowSpec, TrafficClass
from repro.traffic.iec60802 import production_cell_flows

SLOT = 62_500
SCHEDULE = CqfSchedule(SLOT, ms(10))


def _flows(count, size=64):
    return [
        FlowSpec(i, TrafficClass.TS, "t", "l", size, period_ns=ms(10))
        for i in range(count)
    ]


def _traffic(flows_by_slot, hops=(0,)):
    return PortTraffic(slot_flows=flows_by_slot, hop_indices=tuple(hops))


class TestSynthesizePort:
    def test_single_slot_schedule(self):
        flows = _flows(4)
        schedule = TasSynthesizer(SCHEDULE).synthesize_port(
            _traffic({0: flows})
        )
        assert len(schedule.window_set) == 1
        window = schedule.window_set.windows[0]
        assert window.queue_id == 7
        # shifted past the guard band
        assert window.start_ns >= 12_304
        assert sum(e.interval_ns for e in schedule.entries) == ms(10)

    def test_deeper_hop_opens_later_and_longer(self):
        flows = _flows(4)
        synth = TasSynthesizer(SCHEDULE)
        w0 = synth.synthesize_port(_traffic({0: flows}, hops=(0,)))
        w3 = synth.synthesize_port(_traffic({0: flows}, hops=(3,)))
        first0 = w0.window_set.windows[0]
        first3 = w3.window_set.windows[0]
        assert first3.start_ns == first0.start_ns + 3 * synth.hop_lead_ns
        assert first3.end_ns > first0.end_ns

    def test_multiple_slots(self):
        flows = _flows(8)
        per_slot = {s: flows for s in (0, 40, 80, 120)}
        schedule = TasSynthesizer(SCHEDULE).synthesize_port(
            _traffic(per_slot)
        )
        assert len(schedule.window_set) == 4
        # <= because zero-length segments (e.g. a window starting exactly at
        # the guard boundary) are elided by compilation
        assert 3 * 4 <= schedule.gate_size <= 3 * 4 + 1

    def test_overfull_slot_rejected(self):
        # 1500B x 40 frames = ~492 us of wire time >> one 62.5 us slot
        flows = _flows(40, size=1500)
        with pytest.raises(SchedulingError, match="does not fit"):
            TasSynthesizer(SCHEDULE).synthesize_port(_traffic({0: flows}))

    def test_slot_index_validated(self):
        with pytest.raises(SchedulingError, match="slot index"):
            TasSynthesizer(SCHEDULE).synthesize_port(
                _traffic({200: _flows(1)})
            )

    def test_empty_hops_rejected(self):
        with pytest.raises(SchedulingError):
            PortTraffic(slot_flows={}, hop_indices=())

    def test_estimate_gate_size(self):
        plan = plan_flows(_flows(16), SLOT)
        assert estimate_gate_size(plan) == 3 * 16 + 1


class TestTestbedIntegration:
    def _run(self, mechanism, gate_size=256, count=48):
        topology = ring_topology(switch_count=3, talkers=["talker0"])
        flows = production_cell_flows(["talker0"], "listener",
                                      flow_count=count)
        config = customized_config(1).with_updates(gate_size=gate_size)
        testbed = Testbed(RunPlan(topology, config, flows, slot_ns=SLOT,
                                  discipline=DISCIPLINES[mechanism]))
        return testbed.run(duration_ns=ms(30))

    def test_qbv_lossless_and_fast(self):
        result = self._run("qbv")
        assert result.ts_loss == 0.0
        # frames flow through without per-hop slot waits: far below even
        # the CQF lower bound for 3 hops
        assert result.ts_summary.max_ns < cqf_bounds(3, SLOT).min_ns

    def test_qbv_beats_cqf_latency(self):
        qbv = self._run("qbv")
        cqf = self._run("cqf")
        assert qbv.ts_summary.mean_ns < cqf.ts_summary.mean_ns / 5
        assert cqf.ts_loss == qbv.ts_loss == 0.0

    def test_qbv_needs_sized_gate_tables(self):
        with pytest.raises(ConfigurationError, match="gate entries"):
            self._run("qbv", gate_size=2)

    def test_derived_config_builds_128_flow_qbv(self):
        # 128 flows need 384 entries, more than the cycle's 160 slots;
        # derive_config used to size for the slots and fail at build.
        from repro.network.scenario import ScenarioSpec

        spec = ScenarioSpec.from_dict({
            "name": "qbv-128",
            "topology": {"kind": "linear", "switch_count": 2,
                         "talkers": ["talker0"], "listener": "listener"},
            "flows": {"ts_count": 128, "size_bytes": 64},
            "config": "derive",
            "slot_us": 62.5,
            "duration_ms": 2,
            "gate_mechanism": "qbv",
        })
        testbed = spec.build_testbed()
        testbed.build()
        assert testbed.base_config.gate_size == 3 * 128 + 1
        assert testbed.run(duration_ns=spec.duration_ns).ts_loss == 0.0

    def test_unknown_mechanism_rejected(self):
        topology = ring_topology(switch_count=2, talkers=["talker0"])
        flows = production_cell_flows(["talker0"], "listener", flow_count=4)
        with pytest.raises(ConfigurationError):
            RunPlan(topology, customized_config(1), flows, slot_ns=SLOT,
                    discipline=from_document("tas"))

    def test_qbv_without_ts_flows_rejected(self):
        from repro.traffic.flows import FlowSet
        from repro.traffic.iec60802 import background_flows

        topology = ring_topology(switch_count=2, talkers=["talker0"])
        flows = background_flows(["talker0"], "listener", mbps(10), mbps(10))
        testbed = Testbed(RunPlan(topology, customized_config(1), flows,
                                  slot_ns=SLOT, discipline=QBV))
        with pytest.raises(ConfigurationError, match="TS flows"):
            testbed.build()
