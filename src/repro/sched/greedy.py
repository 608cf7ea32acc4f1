"""The greedy ITP backend -- the paper's planner behind one new interface.

This is the load-balancing core of Yan et al., *Injection Time Planning*
(INFOCOM 2020), on the :class:`~repro.sched.problem.SchedulingProblem`
model: flows are processed in decreasing
bandwidth-demand order and each picks the feasible injection slot that
minimizes the worst per-slot load it touches, ``(frames, bytes)``
lexicographically, ties to the lowest offset.

The placement arithmetic, ordering and tie-breaks are pinned: greedy plans
-- offsets, phases, per-slot loads -- feed the golden outputs, so they must
not drift (``tests/sched/test_greedy_incremental.py`` keeps the original
full-scan planner as the oracle).

Cost: an offset ``r`` of a period-``p`` flow is judged by the maxima over
the slots ``= r (mod p)``, and loads only ever grow, so the planner keeps
those maxima in one table per distinct period instead of re-deriving them,
and beside each table a lazy min-heap of ``(frames, bytes, residue)``
entries: every raise of a table entry pushes its new value, and an entry
that no longer equals its table value is stale and popped when it
surfaces.  The valid top is the table's first minimum, so choosing an
offset costs ``O(log)`` heap work instead of a pass over ``p`` entries;
placing a flow updates ``(slots / p) x (distinct periods)`` entries.  Only
when that winner would overflow the byte budget does a filtered pass over
the ``p`` table entries run.  Tables and heaps live and die inside one
``solve()`` call; nothing is remembered between problems.

Under ``objective="min_peak"`` a flow with no budget-feasible offset makes
the plan ``infeasible`` (greedy cannot *prove* infeasibility -- run the
exact backend for a proof); under ``"max_admission"`` the flow is rejected
and planning continues.

Also home to the ``unplanned`` backend: the no-ITP strawman where every
flow injects at its period start, so same-period flows pile into slot 0
and the required depth approaches the flow count -- the ablation baseline
showing what injection planning buys.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from .problem import SchedulePlan, SchedulingProblem

__all__ = ["GreedyScheduler", "UnplannedScheduler"]


class GreedyScheduler:
    """Greedy slot load balancing (the default backend)."""

    name = "greedy"

    def solve(self, problem: SchedulingProblem) -> SchedulePlan:
        slot_count = problem.slot_count
        budget_bytes = problem.budget_bytes
        slot_frames = [0] * slot_count
        slot_bytes = [0] * slot_count
        # tables[p][r] = (max frames, max bytes) over the slots = r (mod p):
        # exactly the key an offset r of a period-p flow is judged by.
        # Loads only grow, so each placement refreshes the entries it
        # raised and nothing is ever rescanned.  heaps[p] holds a
        # (frames, bytes, r) entry for every value tables[p][r] has taken;
        # values strictly grow, so the one equal to the table is the live
        # entry and every other is stale.  A sorted list is a valid heap.
        periods = {d.period_slots for d in problem.demands}
        tables: Dict[int, List[Tuple[int, int]]] = {
            period: [(0, 0)] * period for period in periods
        }
        heaps: Dict[int, List[Tuple[int, int, int]]] = {
            period: [(0, 0, r) for r in range(period)] for period in periods
        }
        watched = [
            (period, tables[period], heaps[period]) for period in periods
        ]
        offsets: Dict[int, int] = {}
        rejected: List[int] = []
        reason: Optional[str] = None
        # Largest bandwidth demand first: the classic greedy-balance order.
        ordered = sorted(
            problem.demands, key=lambda d: (-d.rate_bps, d.flow_id)
        )
        for demand in ordered:
            period = demand.period_slots
            occupancy = demand.occupancy_bytes
            table = tables[period]
            heap = heaps[period]
            # Pop stale tops; the live top is the table's first minimum,
            # ties to the lowest offset.
            least_frames, least_bytes, offset = heap[0]
            while table[offset] != (least_frames, least_bytes):
                heappop(heap)
                least_frames, least_bytes, offset = heap[0]
            if least_bytes + occupancy > budget_bytes:
                # The least-loaded residue class would overflow; only now
                # can the budget filter name a different winner (or none).
                offset = min(
                    (
                        o for o in range(period)
                        if table[o][1] + occupancy <= budget_bytes
                    ),
                    key=table.__getitem__,
                    default=None,
                )
            if offset is None:
                rejected.append(demand.flow_id)
                if reason is None:
                    reason = (
                        f"flow {demand.flow_id}: no injection slot keeps "
                        f"per-slot TS load within {budget_bytes}B "
                        f"-- reduce flows or widen slots"
                    )
                if problem.objective == "min_peak":
                    break
                continue
            for s in range(offset, slot_count, period):
                frames = slot_frames[s] = slot_frames[s] + 1
                load = slot_bytes[s] = slot_bytes[s] + occupancy
                for modulus, residues, pending in watched:
                    r = s % modulus
                    worst_frames, worst_bytes = residues[r]
                    if frames > worst_frames or load > worst_bytes:
                        if worst_frames < frames:
                            worst_frames = frames
                        if worst_bytes < load:
                            worst_bytes = load
                        residues[r] = (worst_frames, worst_bytes)
                        heappush(pending, (worst_frames, worst_bytes, r))
            offsets[demand.flow_id] = offset
        if rejected and problem.objective == "min_peak":
            status = "infeasible"
        else:
            status = "feasible"
        return SchedulePlan(
            problem=problem,
            offsets=offsets,
            backend=self.name,
            status=status,
            rejected=tuple(rejected),
            reason=reason,
        )


class UnplannedScheduler:
    """Every flow injects at its period start (the no-ITP strawman).

    Ignores the byte budget on purpose: the baseline models applications
    injecting whenever they please, and its blown-out per-slot load is
    exactly the measurement the ablation wants.
    """

    name = "unplanned"

    def solve(self, problem: SchedulingProblem) -> SchedulePlan:
        return SchedulePlan(
            problem=problem,
            offsets={d.flow_id: 0 for d in problem.demands},
            backend=self.name,
            status="feasible",
        )
