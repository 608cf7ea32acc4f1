"""The exact backend against the branch and bound it grew out of.

Pruning may only skip subtrees that cannot hold a strictly better plan, so
the search must meet the same incumbents in the same order, each after at
most as many nodes.  The search as it stood before it learnt to bound by
slot capacity lives on here as the reference oracle: run to completion,
both return the same plan; cut off by a node limit, the current search
is never worse.
"""

from typing import Dict, List, Optional, Tuple

from hypothesis import assume, given, settings, strategies as st

from repro.cqf.schedule import CqfSchedule
from repro.sched import FlowDemand, SchedulePlan, SchedulingProblem
from repro.sched.exact import DEFAULT_NODE_LIMIT, ExactScheduler
from repro.sched.greedy import GreedyScheduler

SLOT_NS = 1_000

_NO_INCUMBENT = (1 << 60, 1 << 60)


# ---------------------------------------------------------------- oracle


class _ReferenceSearch:
    """The exact search without a capacity bound (verbatim otherwise)."""

    def __init__(self, problem: SchedulingProblem, node_limit: int):
        self.problem = problem
        self.node_limit = node_limit
        self.slot_count = problem.slot_count
        self.budget = problem.budget_bytes
        self.allow_reject = problem.objective == "max_admission"
        self.order: List[FlowDemand] = sorted(
            problem.demands,
            key=lambda d: (d.period_slots, -d.occupancy_bytes, d.flow_id),
        )
        self.peak_lb = problem.peak_lower_bound()
        self.prune_lb = 0 if self.allow_reject else self.peak_lb
        self.slot_frames = [0] * self.slot_count
        self.slot_bytes = [0] * self.slot_count
        self.offsets: Dict[int, int] = {}
        self.nodes = 0
        self.truncated = False
        self.best: Tuple[int, int] = _NO_INCUMBENT
        self.best_offsets: Optional[Dict[int, int]] = None

    def _seed_incumbent(self) -> None:
        greedy = GreedyScheduler().solve(self.problem)
        if greedy.status == "infeasible":
            return
        self.best = (len(greedy.rejected), greedy.max_frames_per_slot)
        self.best_offsets = dict(greedy.offsets)

    def run(self, backend: str) -> SchedulePlan:
        self._seed_incumbent()
        if not (self.best_offsets is not None
                and self.best == (0, self.peak_lb)):
            self._expand(0, 0, 0)
        proven = not self.truncated
        if self.best_offsets is None:
            return SchedulePlan(
                problem=self.problem,
                offsets={},
                backend=backend,
                status="infeasible" if proven else "unknown",
                rejected=tuple(d.flow_id for d in self.problem.demands),
                nodes_explored=self.nodes,
            )
        rejected = tuple(
            d.flow_id
            for d in self.problem.demands
            if d.flow_id not in self.best_offsets
        )
        return SchedulePlan(
            problem=self.problem,
            offsets=self.best_offsets,
            backend=backend,
            status="optimal" if proven else "feasible",
            rejected=rejected,
            nodes_explored=self.nodes,
        )

    def _expand(self, index: int, peak: int, rejections: int) -> None:
        if self.truncated:
            return
        if index == len(self.order):
            value = (rejections, peak)
            if value < self.best:
                self.best = value
                self.best_offsets = dict(self.offsets)
            return
        bound = (rejections, max(peak, self.prune_lb))
        if bound >= self.best:
            return
        demand = self.order[index]
        min_offset, force_reject = self._symmetry_floor(index)
        if not force_reject:
            for offset in range(min_offset, demand.period_slots):
                self.nodes += 1
                if self.nodes >= self.node_limit:
                    self.truncated = True
                    return
                new_peak = self._try_place(demand, offset, peak)
                if new_peak is None:
                    continue
                if (rejections, max(new_peak, self.prune_lb)) >= self.best:
                    self._unplace(demand, offset)
                    continue
                self._expand(index + 1, new_peak, rejections)
                self._unplace(demand, offset)
                if self.truncated:
                    return
        if self.allow_reject:
            self.nodes += 1
            if self.nodes >= self.node_limit:
                self.truncated = True
                return
            self._expand(index + 1, peak, rejections + 1)

    def _symmetry_floor(self, index: int) -> Tuple[int, bool]:
        if index == 0:
            return 0, False
        demand = self.order[index]
        prev = self.order[index - 1]
        if (prev.period_slots, prev.occupancy_bytes) != (
            demand.period_slots, demand.occupancy_bytes
        ):
            return 0, False
        prev_offset = self.offsets.get(prev.flow_id)
        if prev_offset is None:
            return 0, True
        return prev_offset, False

    def _try_place(
        self, demand: FlowDemand, offset: int, peak: int
    ) -> Optional[int]:
        touched = range(offset, self.slot_count, demand.period_slots)
        for s in touched:
            if self.slot_bytes[s] + demand.occupancy_bytes > self.budget:
                return None
        new_peak = peak
        for s in touched:
            self.slot_frames[s] += 1
            self.slot_bytes[s] += demand.occupancy_bytes
            if self.slot_frames[s] > new_peak:
                new_peak = self.slot_frames[s]
        self.offsets[demand.flow_id] = offset
        return new_peak

    def _unplace(self, demand: FlowDemand, offset: int) -> None:
        del self.offsets[demand.flow_id]
        for s in range(offset, self.slot_count, demand.period_slots):
            self.slot_frames[s] -= 1
            self.slot_bytes[s] -= demand.occupancy_bytes


def reference(problem: SchedulingProblem, node_limit: int) -> SchedulePlan:
    return _ReferenceSearch(problem, node_limit).run("exact")


# -------------------------------------------------------------- problems


_OCCUPANCIES = (84, 148, 532, 1538)


@st.composite
def problems(draw):
    slot_count = draw(st.integers(min_value=4, max_value=16))
    divisors = [p for p in range(1, slot_count + 1) if slot_count % p == 0]
    kinds = draw(st.lists(
        st.tuples(
            st.sampled_from(divisors),
            st.sampled_from(_OCCUPANCIES),
            st.integers(min_value=1, max_value=4),   # greedy's rate order
            st.integers(min_value=1, max_value=4),   # identical twins
        ),
        min_size=1, max_size=9,
    ))
    flows = [
        (period, occupancy, rate)
        for period, occupancy, rate, twins in kinds
        for _ in range(twins)
    ][:9]
    demands = tuple(
        FlowDemand(
            flow_id=flow_id, period_slots=period, occupancy_bytes=occupancy,
            rate_bps=rate, size_bytes=occupancy,
        )
        for flow_id, (period, occupancy, rate) in enumerate(flows)
    )
    # From "bytes never bind" down to "the mean slot load barely fits".
    load = sum(slot_count // d.period_slots * d.occupancy_bytes
               for d in demands)
    widest = max(d.occupancy_bytes for d in demands)
    slack = draw(st.sampled_from([1.0, 1.15, 1.4, 2.0, 1000.0]))
    budget = max(widest, int(load / slot_count * slack))
    objective = draw(st.sampled_from(["min_peak", "max_admission"]))
    return SchedulingProblem(
        schedule=CqfSchedule(SLOT_NS, SLOT_NS * slot_count),
        demands=demands,
        budget_bytes=budget,
        objective=objective,
    )


def objective(plan: SchedulePlan) -> Tuple[int, int]:
    return len(plan.rejected), plan.max_frames_per_slot


# ----------------------------------------------------------------- tests


class TestAgainstReference:
    @settings(max_examples=250, deadline=None)
    @given(problems())
    def test_complete_search_returns_the_same_plan(self, problem):
        expected = reference(problem, DEFAULT_NODE_LIMIT)
        assume(expected.status in ("optimal", "infeasible"))
        plan = ExactScheduler(DEFAULT_NODE_LIMIT).solve(problem)
        assert dict(plan.offsets) == dict(expected.offsets)
        assert plan.status == expected.status
        assert plan.rejected == expected.rejected
        assert plan.nodes_explored <= expected.nodes_explored

    @settings(max_examples=250, deadline=None)
    @given(problems(), st.integers(min_value=5, max_value=200))
    def test_capped_search_is_never_worse(self, problem, node_limit):
        expected = reference(problem, node_limit)
        plan = ExactScheduler(node_limit).solve(problem)
        assert objective(plan) <= objective(expected)
