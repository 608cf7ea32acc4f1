"""The incremental greedy planner against the full-scan planner it replaced.

``GreedyScheduler`` keeps per-residue-class load maxima current, and picks
offsets from lazy heaps over them, instead of rescanning every slot for
every offset of every flow.  Greedy offsets feed
phases, GCLs and every golden hash, so the old scan lives on here as the
reference oracle; ``anneal`` (seeded from greedy, now with an incremental
energy) is pinned to offsets captured on the commit before the change.
"""

import random
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.cqf.schedule import CqfSchedule
from repro.sched import FlowDemand, SchedulingProblem, make_scheduler
from repro.sched import greedy as greedy_module
from repro.sched.anneal import _PEAK_WEIGHT, _REJECT_WEIGHT, _State

SLOT_NS = 1_000


# ---------------------------------------------------------------- oracle


def _best_offset(
    demand: FlowDemand,
    slot_frames: List[int],
    slot_bytes: List[int],
    budget_bytes: int,
) -> Optional[int]:
    """The pre-incremental scan: every offset re-derives both maxima."""
    best_offset: Optional[int] = None
    best_key: Optional[Tuple[int, int]] = None
    period = demand.period_slots
    for offset in range(period):
        total_bytes = max(slot_bytes[offset::period])
        if total_bytes + demand.occupancy_bytes > budget_bytes:
            continue
        worst_frames = max(slot_frames[offset::period])
        key = (worst_frames, total_bytes)
        if best_key is None or key < best_key:
            best_key = key
            best_offset = offset
    return best_offset


def full_scan_greedy(problem: SchedulingProblem):
    """``(offsets, rejected, reason, status)`` of the old planner."""
    slot_count = problem.slot_count
    slot_frames = [0] * slot_count
    slot_bytes = [0] * slot_count
    offsets: Dict[int, int] = {}
    rejected: List[int] = []
    reason: Optional[str] = None
    ordered = sorted(problem.demands, key=lambda d: (-d.rate_bps, d.flow_id))
    for demand in ordered:
        offset = _best_offset(
            demand, slot_frames, slot_bytes, problem.budget_bytes
        )
        if offset is None:
            rejected.append(demand.flow_id)
            if reason is None:
                reason = (
                    f"flow {demand.flow_id}: no injection slot keeps "
                    f"per-slot TS load within {problem.budget_bytes}B "
                    f"-- reduce flows or widen slots"
                )
            if problem.objective == "min_peak":
                break
            continue
        for s in range(offset, slot_count, demand.period_slots):
            slot_frames[s] += 1
            slot_bytes[s] += demand.occupancy_bytes
        offsets[demand.flow_id] = offset
    infeasible = rejected and problem.objective == "min_peak"
    status = "infeasible" if infeasible else "feasible"
    return offsets, tuple(rejected), reason, status


# -------------------------------------------------------------- problems


def make_problem(slot_count, flows, budget_bytes, objective="min_peak"):
    """*flows* is ``[(period_slots, occupancy_bytes, rate_bps), ...]``."""
    demands = tuple(
        FlowDemand(
            flow_id=flow_id, period_slots=period, occupancy_bytes=occupancy,
            rate_bps=rate, size_bytes=occupancy,
        )
        for flow_id, (period, occupancy, rate) in enumerate(flows)
    )
    return SchedulingProblem(
        schedule=CqfSchedule(SLOT_NS, SLOT_NS * slot_count),
        demands=demands,
        budget_bytes=budget_bytes,
        objective=objective,
    )


@st.composite
def problems(draw):
    slot_count = draw(st.sampled_from([1, 2, 4, 6, 8, 12, 24, 60]))
    divisors = [p for p in range(1, slot_count + 1) if slot_count % p == 0]
    flows = draw(st.lists(
        st.tuples(
            st.sampled_from(divisors),
            st.sampled_from([84, 148, 532, 1538]),
            # Few distinct rates: ties fall through to the flow-id order.
            st.integers(min_value=1, max_value=4),
        ),
        max_size=40,
    ))
    # From "nothing ever overflows" down to "the winner overflows and the
    # filtered scan decides" and "some flow fits nowhere".
    budget = draw(st.sampled_from([400, 1_600, 3_100, 6_250, 10**6]))
    objective = draw(st.sampled_from(["min_peak", "max_admission"]))
    return make_problem(slot_count, flows, budget, objective)


@st.composite
def heap_scale_problems(draw):
    """Long cycles, few periods, many identical twins.

    Twins keep raising the same residues, so the per-period heaps fill up
    with stale entries; budgets around the mean slot load send late flows
    to the filtered fallback once those stale entries exist.
    """
    slot_count = draw(st.sampled_from([160, 500, 640]))
    divisors = [p for p in range(1, slot_count + 1) if slot_count % p == 0]
    periods = draw(st.lists(
        st.sampled_from(divisors), min_size=1, max_size=3, unique=True
    ))
    if draw(st.booleans()) and 1 not in periods:
        # Period 1 touches every slot, so it pushes into every table.
        periods[0] = 1
    kinds = [
        (period, occupancy, rate)
        for period in periods
        for occupancy, rate in draw(st.lists(
            st.tuples(
                st.sampled_from([84, 148, 532, 1538]),
                st.integers(min_value=1, max_value=3),
            ),
            min_size=1,
            max_size=2,
        ))
    ]
    count = draw(st.integers(min_value=100, max_value=400))
    flows = [kinds[i % len(kinds)] for i in range(count)]
    draw(st.randoms(use_true_random=False)).shuffle(flows)
    mean_load = sum(
        occupancy * (slot_count // period)
        for period, occupancy, _ in flows
    ) // slot_count
    factor = draw(st.sampled_from([0.5, 0.9, 1.0, 1.1, 1.5, None]))
    budget = 10**9 if factor is None else max(84, int(mean_load * factor))
    objective = draw(st.sampled_from(["min_peak", "max_admission"]))
    return make_problem(slot_count, flows, budget, objective)


@pytest.fixture
def min_calls(monkeypatch):
    """Records every ``min`` call made inside :mod:`repro.sched.greedy`."""
    calls = []

    def counting_min(*args, **kwargs):
        calls.append(args)
        return min(*args, **kwargs)

    monkeypatch.setattr(greedy_module, "min", counting_min, raising=False)
    return calls


def assert_same_as_full_scan(problem):
    plan = make_scheduler("greedy").solve(problem)
    offsets, rejected, reason, status = full_scan_greedy(problem)
    assert dict(plan.offsets) == offsets
    assert plan.rejected == rejected
    assert plan.reason == reason
    assert plan.status == status
    return plan


# ----------------------------------------------------------------- greedy


class TestAgainstFullScan:
    @settings(max_examples=300, deadline=None)
    @given(problems())
    def test_random_problems_identical(self, problem):
        plan = assert_same_as_full_scan(problem)
        demand_of = {d.flow_id: d for d in problem.demands}
        frames = [0] * problem.slot_count
        for flow_id, offset in plan.offsets.items():
            demand = demand_of[flow_id]
            assert 0 <= offset < demand.period_slots
            for s in range(offset, problem.slot_count, demand.period_slots):
                frames[s] += 1
        assert plan.slot_frames == frames
        assert max(plan.slot_bytes, default=0) <= problem.budget_bytes

    @settings(max_examples=40, deadline=None)
    @given(heap_scale_problems())
    def test_heap_scale_problems_identical(self, problem):
        plan = assert_same_as_full_scan(problem)
        assert max(plan.slot_bytes, default=0) <= problem.budget_bytes

    def test_loose_single_period_never_scans_a_table(self, min_calls):
        # Every choice comes off the heap: no pass over the 500 residues.
        # Equal twins fill the residues in order, lowest first, four times.
        plan = make_scheduler("greedy").solve(
            make_problem(500, [(500, 84, 1)] * 2_000, 10**9)
        )
        assert min_calls == []
        assert plan.offsets == {i: i % 500 for i in range(2_000)}

    def test_fallback_after_stale_entries(self, min_calls):
        # Residue 0 holds one MTU frame; the light twins fill residue 1,
        # leaving stale entries behind.  From the third twin on, residue 0
        # is the frames-least class but overflows, and the filtered scan
        # (the only min() call) sends the twin to residue 1.
        problem = make_problem(
            160, [(2, 1538, 9)] + [(2, 84, 1)] * 6, 1_600
        )
        plan = assert_same_as_full_scan(problem)
        assert plan.offsets == {0: 0, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1}
        assert len(min_calls) == 4

    @pytest.mark.parametrize("objective", ["min_peak", "max_admission"])
    def test_period_one_flows_share_the_only_offset(self, objective):
        problem = make_problem(
            4, [(1, 100, 3), (1, 100, 2), (1, 100, 1)], 250, objective
        )
        plan = assert_same_as_full_scan(problem)
        assert plan.offsets == {0: 0, 1: 0}
        assert plan.rejected == (2,)

    def test_single_slot_cycle(self):
        plan = assert_same_as_full_scan(
            make_problem(1, [(1, 84, 1)] * 5, 10**6)
        )
        assert plan.slot_frames == [5]

    def test_no_demands(self):
        plan = assert_same_as_full_scan(make_problem(8, [], 1_000))
        assert plan.offsets == {} and plan.status == "feasible"

    def test_filtered_fallback_picks_the_feasible_residue(self):
        # Offset 0 of period 2 holds the fewest frames but the most bytes,
        # so the unfiltered winner overflows and the budget filter decides.
        problem = make_problem(
            4,
            [(2, 1538, 9), (4, 84, 8), (4, 84, 7), (4, 84, 6), (4, 84, 5),
             (2, 532, 1)],
            2_000,
        )
        plan = assert_same_as_full_scan(problem)
        assert plan.offsets[5] == 1

    def test_other_periods_see_a_placement(self):
        # The period-2 flow loads slots 0 and 2; the period-4 table must
        # learn about both, or flow 1 would tie at offset 0.
        plan = assert_same_as_full_scan(
            make_problem(4, [(2, 84, 2), (4, 84, 1), (4, 84, 1)], 10**6)
        )
        assert plan.offsets == {0: 0, 1: 1, 2: 3}


# ----------------------------------------------------------------- anneal

#: Greedy rejects six period-1 flows here; annealing rebalances bytes until
#: one fits, and admitting a period-1 flow is what changes who is movable.
_TIGHT_FLOWS = (
    [(4, 1538, 6)] * 8 + [(8, 148, 4)] * 5 + [(4, 148, 6)] * 7
    + [(1, 84, 2)] * 8 + [(2, 84, 4)] * 5
)
#: Nothing is rejected and greedy already sits on the pigeonhole bound:
#: annealing wanders among equal-peak plans, a different one per seed.
_LOOSE_FLOWS = [(8, 532, 9)] * 6 + [(2, 84, 5)] * 6 + [(4, 148, 3)] * 7


def anneal_problem(name):
    if name == "tight":
        return make_problem(8, _TIGHT_FLOWS, 4_000, "max_admission")
    return make_problem(8, _LOOSE_FLOWS, 10**6, "min_peak")


#: ``(problem, seed) -> (offset per flow id, None = rejected; status)`` of
#: ``anneal(seed, iterations=600)``, captured on the commit before the
#: energy went incremental.
_ANNEAL_PINS = {
    ("loose", 0): (
        [0, 1, 2, 3, 4, 5, 0, 1, 0, 1, 0, 1, 3, 1, 2, 3, 0, 1, 2],
        "optimal",
    ),
    ("loose", 7): (
        [1, 1, 2, 5, 0, 5, 0, 0, 1, 0, 1, 1, 3, 0, 3, 2, 3, 0, 2],
        "optimal",
    ),
    ("tight", 0): (
        [0, 1, 2, 3, 0, 1, 2, 3, 2, 5, 0, 1, 4, 0, 3, 2, 3, 3, 1, 1,
         0, 0, 0, None, None, None, None, None, 1, 1, 0, 0, 0],
        "feasible",
    ),
    ("tight", 7): (
        [0, 1, 2, 3, 0, 1, 2, 3, 2, 6, 4, 0, 7, 0, 1, 2, 0, 3, 1, 2,
         0, 0, None, None, 0, None, None, None, 1, 1, 0, 0, 1],
        "feasible",
    ),
}


class TestAnnealPinned:
    @pytest.mark.parametrize("key", sorted(_ANNEAL_PINS))
    def test_seeded_offsets_unchanged(self, key):
        name, seed = key
        plan = make_scheduler("anneal", seed=seed, iterations=600).solve(
            anneal_problem(name)
        )
        pinned, status = _ANNEAL_PINS[key]
        assert dict(plan.offsets) == {
            flow_id: offset for flow_id, offset in enumerate(pinned)
            if offset is not None
        }
        assert plan.rejected == tuple(
            flow_id for flow_id, offset in enumerate(pinned)
            if offset is None
        )
        assert plan.status == status
        assert plan.iterations == 600

    def test_incremental_energy_matches_a_recount(self):
        state = _State(anneal_problem("tight"))
        rng = random.Random(3)
        for step in range(400):
            if state.propose_and_apply(rng) is not None and step % 3 == 0:
                state.undo()
            rejected = len(state.by_id) - len(state.offsets)
            assert state.energy() == (
                rejected * _REJECT_WEIGHT
                + max(state.slot_frames) * _PEAK_WEIGHT
                + sum(f * f for f in state.slot_frames)
            )
            assert state.movable == [
                d for d in sorted(state.by_id.values(),
                                  key=lambda d: d.flow_id)
                if d.period_slots > 1 or d.flow_id not in state.offsets
            ]
