"""The greedy ITP backend -- the paper's planner behind one new interface.

This is the load-balancing core of Yan et al., *Injection Time Planning*
(INFOCOM 2020), on the :class:`~repro.sched.problem.SchedulingProblem`
model: flows are processed in decreasing
bandwidth-demand order and each picks the feasible injection slot that
minimizes the worst per-slot load it touches, ``(frames, bytes)``
lexicographically, ties to the lowest offset.

The placement arithmetic, ordering and tie-breaks are pinned: greedy plans
-- offsets, phases, per-slot loads -- feed the golden outputs, so they must
not drift.

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

from typing import Dict, List, Optional, Tuple

from .problem import FlowDemand, SchedulePlan, SchedulingProblem

__all__ = ["GreedyScheduler", "UnplannedScheduler"]


class GreedyScheduler:
    """Greedy slot load balancing (the default backend)."""

    name = "greedy"

    def solve(self, problem: SchedulingProblem) -> SchedulePlan:
        slot_count = problem.slot_count
        slot_frames = [0] * slot_count
        slot_bytes = [0] * slot_count
        offsets: Dict[int, int] = {}
        rejected: List[int] = []
        reason: Optional[str] = None
        # Largest bandwidth demand first: the classic greedy-balance order.
        ordered = sorted(
            problem.demands, key=lambda d: (-d.rate_bps, d.flow_id)
        )
        for demand in ordered:
            offset = _best_offset(
                demand, slot_frames, slot_bytes, slot_count,
                problem.budget_bytes,
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


def _best_offset(
    demand: FlowDemand,
    slot_frames: List[int],
    slot_bytes: List[int],
    slot_count: int,
    budget_bytes: int,
) -> Optional[int]:
    """The offset minimizing the worst touched ``(frames, bytes)`` load."""
    best_offset: Optional[int] = None
    best_key: Optional[Tuple[int, int]] = None
    period = demand.period_slots
    for offset in range(period):
        # Strided slices keep the max scans in C; the generator version
        # dominated plan-time profiles at campaign flow counts.
        total_bytes = max(slot_bytes[offset::period])
        if total_bytes + demand.occupancy_bytes > budget_bytes:
            continue
        worst_frames = max(slot_frames[offset::period])
        key = (worst_frames, total_bytes)
        if best_key is None or key < best_key:
            best_key = key
            best_offset = offset
    return best_offset


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
