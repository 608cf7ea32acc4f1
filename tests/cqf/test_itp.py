"""Injection Time Planning."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import SchedulingError
from repro.core.units import ms
from repro.cqf.schedule import CqfSchedule
from repro.sched import SchedulePlan, SchedulingProblem, make_scheduler
from repro.traffic.flows import FlowSpec, TrafficClass

SLOT = 62_500
SCHEDULE = CqfSchedule(SLOT, ms(10))


def _ts_flows(count, period_ns=ms(10), size=64):
    return [
        FlowSpec(i, TrafficClass.TS, "t", "l", size, period_ns=period_ns)
        for i in range(count)
    ]


def _plan(flows, schedule=SCHEDULE, backend="greedy"):
    problem = SchedulingProblem.from_flows(flows, schedule)
    plan = make_scheduler(backend).solve(problem)
    plan.raise_if_infeasible()
    return plan


class TestGreedyBalance:
    def test_spreads_same_period_flows(self):
        plan = _plan(_ts_flows(160))
        # 160 flows over 160 slots: perfectly level
        assert plan.max_frames_per_slot == 1
        assert plan.load_balance_ratio() == 1.0

    def test_paper_scale(self):
        plan = _plan(_ts_flows(1024))
        assert plan.max_frames_per_slot == 7  # ceil(1024/160)
        assert plan.required_queue_depth == 7

    def test_beats_unplanned(self):
        flows = _ts_flows(300)
        planned = _plan(flows)
        naive = _plan(flows, backend="unplanned")
        assert naive.max_frames_per_slot == 300
        assert planned.max_frames_per_slot == 2

    def test_mixed_periods(self):
        schedule = CqfSchedule(500_000, ms(20))
        flows = [
            FlowSpec(0, TrafficClass.TS, "t", "l", 64, period_ns=ms(10)),
            FlowSpec(1, TrafficClass.TS, "t", "l", 64, period_ns=ms(4)),
        ]
        plan = _plan(flows, schedule)
        # 10 ms flow: 2 packets/cycle; 4 ms flow: 5 packets/cycle -> total 7
        assert sum(plan.slot_frames) == 7
        assert plan.max_frames_per_slot == 1

    def test_non_ts_flows_ignored(self):
        flows = _ts_flows(4) + [
            FlowSpec(100, TrafficClass.BE, "t", "l", 1024, rate_bps=10**6)
        ]
        plan = _plan(flows)
        assert 100 not in plan.offsets

    def test_unaligned_period_rejected(self):
        flow = FlowSpec(0, TrafficClass.TS, "t", "l", 64, period_ns=ms(10) + 1)
        with pytest.raises(SchedulingError):
            _plan([flow])

    def test_infeasible_load_rejected(self):
        # 4000 x 1500B in a 10ms cycle = 4.8 Gbps >> budget
        with pytest.raises(SchedulingError, match="injection slot"):
            _plan(_ts_flows(4000, size=1500))


class TestPhases:
    def test_same_slot_flows_staggered(self):
        plan = _plan(_ts_flows(161))
        # one slot holds two flows; their phases must differ
        by_slot = {}
        for flow_id, offset in plan.offsets.items():
            by_slot.setdefault(offset % SCHEDULE.slot_count, []).append(
                plan.phase_ns(flow_id)
            )
        doubled = [v for v in by_slot.values() if len(v) > 1]
        assert doubled and all(len(set(v)) == len(v) for v in doubled)

    def test_phase_stays_inside_slot(self):
        plan = _plan(_ts_flows(1024))
        for flow_id in plan.offsets:
            assert 0 <= plan.phase_ns(flow_id) < SLOT


class TestInjectionTimes:
    def test_periodic_and_slot_aligned(self):
        flows = _ts_flows(8)
        plan = _plan(flows)
        flow = flows[3]
        t0 = plan.injection_offset_ns(flow.flow_id)
        t1 = plan.injection_offset_ns(flow.flow_id) + flow.period_ns
        assert t1 - t0 == flow.period_ns
        assert t0 == (
            plan.offsets[flow.flow_id] * SLOT + plan.phase_ns(flow.flow_id)
        )


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=200))
    def test_total_injections_conserved(self, count):
        plan = _plan(_ts_flows(count))
        assert sum(plan.slot_frames) == count  # one packet per flow per cycle

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=200))
    def test_never_worse_than_unplanned(self, count):
        flows = _ts_flows(count)
        planned = _plan(flows)
        naive = _plan(flows, backend="unplanned")
        assert planned.max_frames_per_slot <= naive.max_frames_per_slot

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=320))
    def test_optimal_for_uniform_flows(self, count):
        plan = _plan(_ts_flows(count))
        optimal = -(-count // SCHEDULE.slot_count)
        assert plan.max_frames_per_slot == optimal


def _zero_demand_plan(schedule):
    problem = SchedulingProblem(schedule, demands=(), budget_bytes=0)
    return SchedulePlan(problem, offsets={}, backend="none", status="optimal")


class TestLoadBalanceRatio:
    def test_empty_plan_is_level(self):
        plan = _zero_demand_plan(SCHEDULE)
        assert plan.load_balance_ratio() == 1.0

    def test_zero_ts_load_is_level(self):
        plan = _zero_demand_plan(CqfSchedule(SLOT, 3 * SLOT))
        assert plan.slot_frames == [0, 0, 0]
        assert plan.load_balance_ratio() == 1.0

    def test_sched_plan_matches_itp_semantics(self):
        problem = SchedulingProblem.from_flows(_ts_flows(160), SCHEDULE)
        plan = make_scheduler("greedy").solve(problem)
        assert plan.load_balance_ratio() == 1.0
        frames = plan.slot_frames
        assert max(frames) / (sum(frames) / len(frames)) == 1.0
