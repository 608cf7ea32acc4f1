"""The Section III.C sizing guidelines."""

import pytest

from repro.core.errors import ConfigurationError, SchedulingError
from repro.core.presets import bcm53154_config, ring_config
from repro.core.sizing import derive_config
from repro.cqf.gating import QBV, from_document
from repro.network.topology import linear_topology, ring_topology, star_topology
from repro.traffic.flows import FlowSet, FlowSpec, TrafficClass
from repro.traffic.iec60802 import production_cell_flows

SLOT = 62_500


def _paper_flows(count=1024):
    return production_cell_flows(
        ["t0", "t1", "t2"], "listener", flow_count=count
    )


class TestPaperDerivation:
    """From the paper's workload, the guidelines must land on the paper's
    customized parameters (Table III / Table I Case 2)."""

    def test_ring_column(self):
        result = derive_config(ring_topology(6), _paper_flows(), SLOT)
        config = result.config
        assert config.unicast_size == 1024
        assert config.class_size == 1024
        assert config.meter_size == 1024
        assert config.gate_size == 2
        assert config.queue_depth == 12
        assert config.buffer_num == 96
        assert config.port_num == 1
        assert config.total_bram_kb == ring_config().total_bram_kb == 2106

    def test_linear_column(self):
        result = derive_config(linear_topology(6), _paper_flows(), SLOT)
        assert result.config.port_num == 2
        assert result.config.total_bram_kb == 3942

    def test_star_column(self):
        result = derive_config(star_topology(), _paper_flows(), SLOT)
        assert result.config.port_num == 3
        assert result.config.total_bram_kb == 5778

    def test_itp_requirement_behind_depth(self):
        result = derive_config(ring_topology(6), _paper_flows(), SLOT)
        # 1024 flows over 160 slots -> ceil(1024/160) = 7 frames/slot.
        assert result.required_queue_depth == 7
        assert result.depth_margin_frames == 5

    def test_reduction_vs_commercial(self):
        result = derive_config(ring_topology(6), _paper_flows(), SLOT)
        reduction = result.config.resource_report().reduction_vs(
            bcm53154_config().resource_report()
        )
        assert reduction == pytest.approx(0.8053, abs=5e-5)


class TestGuidelineMechanics:
    def test_tables_track_flow_count(self):
        result = derive_config(ring_topology(2), _paper_flows(100), SLOT)
        assert result.config.unicast_size == 100

    def test_qbv_gate_size_is_slots_per_cycle(self):
        result = derive_config(
            ring_topology(2), _paper_flows(32), SLOT, discipline=QBV
        )
        # cycle = 10ms, slot = 62.5us -> 160 entries (> 3 * 32 + 1)
        assert result.config.gate_size == 160

    def test_qbv_gate_size_covers_synthesized_windows(self):
        # 64 flows land in 64 slots; each compiles to up to three entries
        # (guard, window, background), which outgrows one entry per slot.
        result = derive_config(
            ring_topology(2), _paper_flows(64), SLOT, discipline=QBV
        )
        assert result.config.gate_size == 3 * 64 + 1

    def test_unknown_gate_mechanism_rejected(self):
        with pytest.raises(ConfigurationError, match="'tas'"):
            derive_config(ring_topology(2), _paper_flows(8), SLOT,
                          discipline=from_document("tas"))

    def test_buffer_is_depth_times_queues(self):
        result = derive_config(ring_topology(2), _paper_flows(), SLOT)
        config = result.config
        assert config.buffer_num == config.queue_depth * config.queue_num

    def test_margin_knob(self):
        tight = derive_config(
            ring_topology(2), _paper_flows(), SLOT, queue_depth_margin=1.0
        )
        assert tight.required_queue_depth == 7
        assert tight.config.queue_depth == 8  # the multiple of 4 above

    def test_explicit_port_override(self):
        result = derive_config(
            None, _paper_flows(16), SLOT, max_enabled_ports=4
        )
        assert result.config.port_num == 4

    def test_zero_flows_rejected(self):
        with pytest.raises(SchedulingError):
            derive_config(ring_topology(2), FlowSet(), SLOT)

    def test_needs_ts_flows(self):
        flows = FlowSet(
            [
                FlowSpec(
                    flow_id=0,
                    traffic_class=TrafficClass.BE,
                    src="t0",
                    dst="l",
                    size_bytes=1024,
                    rate_bps=10**6,
                )
            ]
        )
        with pytest.raises(SchedulingError):
            derive_config(ring_topology(2), flows, SLOT)

    def test_mixed_periods_use_lcm(self):
        flows = FlowSet(
            [
                FlowSpec(0, TrafficClass.TS, "t0", "l", 64,
                         period_ns=10_000_000),
                FlowSpec(1, TrafficClass.TS, "t0", "l", 64,
                         period_ns=4_000_000),
            ]
        )
        result = derive_config(ring_topology(2), flows, slot_ns=500_000)
        # lcm(10ms, 4ms) = 20ms -> 40 slots of 0.5ms
        assert result.schedule.cycle_ns == 20_000_000
        assert result.schedule.slot_count == 40


class TestSufficientConfig:
    """Re-costing at observed demand under the sizing margin policy."""

    def test_depth_margin_and_rounding_match_table1_case2(self):
        from repro.core.presets import table1_case2
        from repro.core.sizing import ObservedDemand, sufficient_config

        base = table1_case2()
        config = sufficient_config(base, ObservedDemand(queue_depth=7))
        # ceil(7 * 1.5) = 11, rounded up to a multiple of 4 -> 12; and
        # buffer_num follows as depth x queue_num = 96 (the paper's Case 2
        # buffer/queue decomposition).
        assert config.queue_depth == 12
        assert config.buffer_num == 96

    def test_tables_shrink_to_observed_but_never_zero(self):
        from repro.core.presets import table1_case2
        from repro.core.sizing import ObservedDemand, sufficient_config

        base = table1_case2()
        config = sufficient_config(
            base, ObservedDemand(queue_depth=1, unicast=10, meters=0)
        )
        assert config.unicast_size == 10
        assert config.meter_size == 1  # a zero-size table cannot validate

    def test_buffer_floor_is_observed_slots(self):
        from repro.core.presets import table1_case2
        from repro.core.sizing import ObservedDemand, sufficient_config

        base = table1_case2()
        config = sufficient_config(
            base, ObservedDemand(queue_depth=1, buffer_slots=80)
        )
        # depth 4 x 8 queues = 32 < observed 80: the pool keeps the
        # observed demand as its floor.
        assert config.buffer_num == 80

    def test_result_validates(self):
        from repro.core.presets import table1_case2
        from repro.core.sizing import ObservedDemand, sufficient_config

        config = sufficient_config(table1_case2(), ObservedDemand())
        config.validate()

    def test_depth_margin_frames_property(self):
        result = derive_config(ring_topology(3), _paper_flows(64), SLOT)
        assert result.depth_margin_frames == (
            result.config.queue_depth - result.required_queue_depth
        )
        assert result.depth_margin_frames >= 0
