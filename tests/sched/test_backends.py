"""Backend equivalence and gap properties of the scheduling layer."""

import json
from pathlib import Path

import pytest

from repro.bench import sched as bench_sched
from repro.core.errors import SchedulingError
from repro.cqf.schedule import CqfSchedule
from repro.network.scenario import ScenarioSpec
from repro.sched import (
    SchedPolicy,
    SchedulingProblem,
    available_backends,
    backend_options,
    base,
    make_scheduler,
    plan_flows,
    register_backend,
)
from repro.sched.greedy import GreedyScheduler
from repro.traffic.flows import FlowSpec, TrafficClass

SLOT_NS = 50_000
ROOT = Path(__file__).resolve().parents[2]


def _ts(flow_id, period_ns, size_bytes):
    return FlowSpec(
        flow_id, TrafficClass.TS, f"talker{flow_id % 3}", "listener",
        size_bytes, period_ns=period_ns,
    )


def gap_flows():
    """Greedy needs peak 3 here; the optimum is 2 (ISSUE acceptance case)."""
    return (
        [_ts(i, 100_000, 64) for i in range(3)]
        + [_ts(10 + i, 200_000, 512) for i in range(2)]
    )


def gap_problem(objective="min_peak"):
    flows = gap_flows()
    schedule = CqfSchedule.for_flows([f.period_ns for f in flows], SLOT_NS)
    return SchedulingProblem.from_flows(
        flows, schedule, 10**9, objective=objective
    )


def overload_problem():
    """More TS bytes than the slots can carry: admission must reject."""
    flows = [_ts(i, 100_000, 1500) for i in range(8)]
    schedule = CqfSchedule.for_flows([f.period_ns for f in flows], SLOT_NS)
    return SchedulingProblem.from_flows(
        flows, schedule, 10**9, objective="max_admission"
    )


class TestRegistry:
    def test_all_backends_registered(self):
        assert {"greedy", "exact", "anneal", "unplanned"} <= set(
            available_backends()
        )

    def test_unknown_backend_suggests(self):
        with pytest.raises(SchedulingError, match="greedy"):
            make_scheduler("greedyy")

    def test_unknown_option_message(self):
        with pytest.raises(SchedulingError) as err:
            make_scheduler("anneal", sed=1, iterations=5)
        assert str(err.value) == (
            "backend 'anneal' does not accept option(s) 'sed' (did you "
            "mean 'seed'?); accepted: ['iterations', 'seed', 't0', 't_min']"
        )
        with pytest.raises(SchedulingError) as err:
            make_scheduler("greedy", seed=1)
        assert str(err.value) == (
            "backend 'greedy' does not accept option(s) 'seed'; accepted: []"
        )

    def test_option_names_are_resolved_at_registration(self, monkeypatch):
        monkeypatch.setattr(base, "_REGISTRY", dict(base._REGISTRY))

        class Padded(GreedyScheduler):
            def __init__(self, pad=0):
                self.pad = pad

        register_backend("padded", Padded)
        assert backend_options("padded") == ("pad",)
        assert backend_options("no-such-backend") == ()

        def no_more_introspection(factory):
            raise AssertionError(f"signature of {factory} rebuilt per call")

        monkeypatch.setattr(base.inspect, "signature", no_more_introspection)
        assert make_scheduler("padded", pad=3).pad == 3
        assert backend_options("exact") == ("node_limit",)
        with pytest.raises(SchedulingError, match="'pda'.*'pad'"):
            make_scheduler("padded", pda=3)

    def test_every_backend_solves_the_gap_instance(self):
        for backend in available_backends():
            plan = make_scheduler(backend).solve(gap_problem())
            assert plan.backend == backend
            assert plan.status in ("optimal", "feasible")
            assert plan.admitted_count == 5


class TestPeakGap:
    def test_greedy_needs_three(self):
        plan = make_scheduler("greedy").solve(gap_problem())
        assert plan.required_queue_depth == 3

    def test_exact_proves_two_optimal(self):
        plan = make_scheduler("exact").solve(gap_problem())
        assert plan.status == "optimal"
        assert plan.required_queue_depth == 2
        assert plan.required_queue_depth == gap_problem().peak_lower_bound()

    def test_exact_never_worse_than_greedy(self):
        greedy = make_scheduler("greedy").solve(gap_problem())
        exact = make_scheduler("exact").solve(gap_problem())
        assert exact.required_queue_depth <= greedy.required_queue_depth

    def test_anneal_never_worse_than_greedy(self):
        # Seeded from the greedy incumbent, so it can only improve.
        greedy = make_scheduler("greedy").solve(gap_problem())
        anneal = make_scheduler("anneal").solve(gap_problem())
        assert anneal.required_queue_depth <= greedy.required_queue_depth


class TestCapacityBound:
    def test_mixed_cell_is_proven_optimal_under_the_benchmark_cap(self):
        # The plan_and_size benchmark's 106-flow mixed cell: 66 period-8
        # 128 B flows, 8 period-32 1500 B and 32 period-64 512 B flows on
        # 64 slots of 3 906 B.  Without a byte-aware bound the search
        # spends its whole 20 000-node budget under a dead prefix.
        spec = ScenarioSpec.from_file(ROOT / "examples/sched_mixed_cell.json")
        plan = plan_flows(
            list(spec.build_flows()), spec.slot_ns,
            policy=SchedPolicy(backend="exact",
                               options={"node_limit": 20_000}),
        )
        assert plan.status == "optimal"
        assert plan.max_frames_per_slot == 9
        assert plan.max_frames_per_slot == plan.problem.peak_lower_bound()
        assert plan.nodes_explored < 20_000

    def test_sched_benchmark_instances_search_as_recorded(self):
        # exact_capped and exact_proof have no greedy incumbent, so the
        # bound never runs there; gap has one and proves in as many nodes.
        recorded = json.loads((ROOT / "BENCH_sched.json").read_text())
        capped = bench_sched.bench_exact_capped(200_000)
        assert (capped["status"], capped["nodes"]) == ("unknown", 200_000)
        proof = bench_sched.bench_exact_proof()
        assert (proof["status"], proof["nodes"]) == ("infeasible", 29_460)
        assert proof["nodes"] == recorded["workloads"]["exact_proof"]["nodes"]
        gap = bench_sched.gap()
        assert (gap["exact_status"], gap["exact_nodes"]) == ("optimal", 13)
        assert gap == recorded["gap"]


class TestAdmission:
    def test_exact_admits_at_least_greedy(self):
        problem = overload_problem()
        greedy = make_scheduler("greedy").solve(problem)
        exact = make_scheduler("exact").solve(problem)
        assert greedy.rejected, "instance must actually overload the slots"
        assert exact.admitted_count >= greedy.admitted_count

    def test_min_peak_raises_where_max_admission_rejects(self):
        flows = [_ts(i, 100_000, 1500) for i in range(8)]
        schedule = CqfSchedule.for_flows(
            [f.period_ns for f in flows], SLOT_NS
        )
        strict = SchedulingProblem.from_flows(flows, schedule, 10**9)
        plan = make_scheduler("greedy").solve(strict)
        assert plan.status == "infeasible"
        with pytest.raises(SchedulingError, match="injection slot"):
            plan.raise_if_infeasible()


class TestDeterminism:
    @pytest.mark.parametrize("backend", ["greedy", "exact", "anneal",
                                         "unplanned"])
    def test_repeated_solves_identical(self, backend):
        scheduler = make_scheduler(backend)
        first = scheduler.solve(gap_problem())
        second = scheduler.solve(gap_problem())
        assert first.offsets == second.offsets
        assert first.status == second.status
        assert dict(first.summary()) == dict(second.summary())

    def test_anneal_seed_changes_are_explicit(self):
        base = make_scheduler("anneal").solve(gap_problem())
        reseeded = make_scheduler("anneal", seed=7).solve(gap_problem())
        # Different seeds may find different plans, but never worse status.
        assert reseeded.status in ("optimal", "feasible")
        assert base.required_queue_depth <= 3


class TestUnplanned:
    def test_everyone_in_slot_zero(self):
        flows = [_ts(i, 100_000, 64) for i in range(6)]
        schedule = CqfSchedule.for_flows(
            [f.period_ns for f in flows], SLOT_NS
        )
        problem = SchedulingProblem.from_flows(flows, schedule, 10**9)
        plan = make_scheduler("unplanned").solve(problem)
        assert plan.required_queue_depth == 6
        assert all(offset == 0 for offset in plan.offsets.values())
