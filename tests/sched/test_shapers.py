"""CSQF and Multi-CQF shaper modes: GCL shape, gate engine, end to end."""

import pytest

from repro.core.errors import ConfigurationError, SchedulingError, \
    SpecValidationError
from repro.cqf.gating import CSQF, MULTI_CQF, multi_cqf_gate_entry_count
from repro.network.scenario import ScenarioSpec
from repro.switch.gates import CqfGroup

SLOT_NS = 50_000


def _scenario(shaper, backend="greedy", **extra):
    doc = {
        "name": f"shaper-{shaper}",
        "topology": {"kind": "star",
                     "talkers": ["talker0", "talker1", "talker2"],
                     "listener": "listener"},
        "flows": {"groups": [
            {"ts_count": 3, "period_us": 100, "size_bytes": 64},
            {"ts_count": 2, "period_us": 200, "size_bytes": 512},
        ]},
        "config": "derive",
        "slot_us": 50,
        "duration_ms": 2,
        "seed": 0,
        "sched": {"backend": backend, "shaper": shaper},
    }
    doc.update(extra)
    return ScenarioSpec.from_dict(doc)


class TestCsqfGcl:
    def test_three_entries_rotate(self):
        in_entries, out_entries = CSQF.rotation(SLOT_NS, (6, 7), 8)[:2]
        assert len(in_entries) == len(out_entries) == 3
        triple = (5, 6, 7)
        non_ts = sum(1 << q for q in range(8) if q not in triple)
        for i in range(3):
            assert in_entries[i].gate_states == non_ts | (1 << triple[i])
            assert out_entries[i].gate_states == (
                non_ts | (1 << triple[(i + 1) % 3])
            )

    def test_gather_drains_two_slots_later(self):
        in_entries, out_entries = CSQF.rotation(SLOT_NS, (6, 7), 8)[:2]
        for i in range(3):
            gathered = in_entries[i].gate_states & 0b1110_0000
            assert out_entries[(i + 2) % 3].gate_states & gathered

    def test_port_program_groups(self):
        _, _, groups = CSQF.rotation(SLOT_NS, (6, 7), 8)
        assert groups == [CqfGroup(5, 6, 7)]


class TestMultiCqfGcl:
    def test_entry_count_is_hyper_cycle(self):
        assert multi_cqf_gate_entry_count(SLOT_NS, 2 * SLOT_NS) == 4
        assert multi_cqf_gate_entry_count(SLOT_NS, 4 * SLOT_NS) == 8

    def test_slot2_must_divide(self):
        with pytest.raises(SchedulingError, match="multiple"):
            multi_cqf_gate_entry_count(SLOT_NS, SLOT_NS + 1)

    def test_each_segment_opens_one_member_per_group(self):
        in_entries, out_entries = MULTI_CQF.rotation(SLOT_NS, (6, 7), 8)[:2]
        assert len(in_entries) == 4
        for entry_in, entry_out in zip(in_entries, out_entries):
            for group in ((6, 7), (4, 5)):
                mask = sum(1 << q for q in group)
                gathering = entry_in.gate_states & mask
                draining = entry_out.gate_states & mask
                # exactly one member open per side, and opposite members
                assert bin(gathering).count("1") == 1
                assert bin(draining).count("1") == 1
                assert gathering != draining

    def test_base_system_alternates_twice_as_fast(self):
        in_entries, _ = MULTI_CQF.rotation(SLOT_NS, (6, 7), 8)[:2]
        base_members = [e.gate_states & 0b1100_0000 for e in in_entries]
        long_members = [e.gate_states & 0b0011_0000 for e in in_entries]
        assert base_members == [1 << 6, 1 << 7, 1 << 6, 1 << 7]
        assert long_members == [1 << 4, 1 << 4, 1 << 5, 1 << 5]

    def test_port_program_orders_base_then_long(self):
        _, _, groups = MULTI_CQF.rotation(SLOT_NS, (6, 7), 8)
        assert groups == [CqfGroup(6, 7), CqfGroup(4, 5)]


class TestCqfGroup:
    def test_needs_two_members(self):
        with pytest.raises(ConfigurationError):
            CqfGroup(5)

    def test_members_distinct(self):
        with pytest.raises(ConfigurationError):
            CqfGroup(5, 5, 6)


class TestShaperEndToEnd:
    @pytest.mark.parametrize("shaper", ["cqf", "csqf", "multi_cqf"])
    @pytest.mark.parametrize("backend", ["greedy", "exact"])
    def test_drop_free_at_derived_depth(self, shaper, backend):
        result = _scenario(shaper, backend=backend).run()
        assert result.ts_loss == 0.0
        assert result.sched_plan is not None
        assert (
            result.max_queue_high_water()
            <= result.sched_plan.required_queue_depth
        )

    def test_deep_csqf_line_drains_what_it_injected(self):
        # CSQF spends two slots a hop: 12 hops take up to 25 slots, far
        # past a fixed 8-slot drain, which left 5 % of the frames in flight.
        result = ScenarioSpec.from_dict({
            "name": "csqf-deep",
            "topology": {"kind": "linear", "switch_count": 12},
            "flows": {"ts_count": 32, "period_us": 1000, "size_bytes": 256},
            "config": "derive",
            "slot_us": 62.5,
            "duration_ms": 20,
            "injection_phase": "uniform",
            "sched": {"shaper": "csqf"},
        }).run()
        assert sum(s.counters.dropped_total
                   for s in result.switches.values()) == 0
        assert result.ts_loss == 0.0

    def test_gate_size_per_shaper(self):
        spec_csqf = _scenario("csqf")
        config = spec_csqf.build_config(
            spec_csqf.build_topology(), spec_csqf.build_flows()
        )
        assert config.gate_size == 3
        spec_multi = _scenario("multi_cqf")
        config = spec_multi.build_config(
            spec_multi.build_topology(), spec_multi.build_flows()
        )
        assert config.gate_size == 4

    def test_qbv_refuses_non_cqf_shaper(self):
        with pytest.raises(SpecValidationError) as caught:
            _scenario("csqf", gate_mechanism="qbv")
        assert caught.value.problems == [
            "gate_mechanism: 'qbv' does not run with sched.shaper 'csqf'"
        ]
