"""The shared scheduling-problem model every backend consumes.

The paper's queue-sizing guideline 4 ("the queue should hold all the
packets that arrive at the queue in the same slot") turns flow scheduling
into a combinatorial question: pick each TS flow's injection slot so the
worst per-slot load -- frames *and* wire bytes -- stays as low as
possible.  :class:`SchedulingProblem` captures exactly that question,
independent of how it is answered:

* the :class:`~repro.cqf.schedule.CqfSchedule` (slot size, cycle, slot
  count),
* one :class:`FlowDemand` per TS flow (period in slots, wire-byte
  occupancy, the rate used for ordering and phase stagger),
* the per-slot byte budget (slot capacity x utilization limit -- CQF must
  drain every gathered frame within the next slot), and
* the *objective*: ``"min_peak"`` admits every flow or reports the
  instance infeasible; ``"max_admission"`` lexicographically maximizes the
  admitted flow count, then minimizes the peak.

Backends return a :class:`SchedulePlan`: offsets, rejected flows, a
status (``"optimal"`` and ``"infeasible"`` are *proofs* only when the
exact backend emits them), and search-effort counters.  It is the one
plan representation: sizing, the testbed's sources and Qbv window
synthesis, exports and sweep rows all read it directly -- per-slot load
(``slot_frames``, ``required_queue_depth``), offsets, and the
phase-stagger arithmetic (``phase_ns``, ``injection_offset_ns``).

Multi-CQF scenarios solve one problem per CQF system and aggregate the
per-system plans in a :class:`MultiSchedulePlan` with the same reporting
surface (the *worst* system decides the required queue depth).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.core.errors import InfeasiblePlanError, SchedulingError, \
    SlotError
from repro.core.units import GIGABIT, serialization_ns, wire_bytes
from repro.cqf.schedule import CqfSchedule
from repro.traffic.flows import FlowSpec, TrafficClass

__all__ = [
    "FlowDemand",
    "SchedulingProblem",
    "SchedulePlan",
    "MultiSchedulePlan",
    "OBJECTIVES",
]

#: Recognized problem objectives.
OBJECTIVES: Tuple[str, ...] = ("min_peak", "max_admission")

#: Plan statuses.  ``optimal``/``infeasible`` are proofs only from the
#: exact backend; heuristic backends use them in the weaker sense "this
#: backend admitted everything it tried" / "could not admit every flow".
STATUSES: Tuple[str, ...] = ("optimal", "feasible", "infeasible", "unknown")


class FlowDemand(NamedTuple):
    """One TS flow's load, as the slot planner sees it.

    A named tuple, not a frozen dataclass: ``from_flows`` builds one per
    TS flow for every sizing call and optimizer candidate, and a frozen
    dataclass pays one ``object.__setattr__`` per field to construct.
    """

    flow_id: int
    period_slots: int      # the flow's period expressed in slots
    occupancy_bytes: int   # wire bytes one frame occupies in its slot
    rate_bps: int          # bandwidth demand (greedy order, phase stagger)
    size_bytes: int        # L2 payload size (diagnostics)

    @classmethod
    def from_flow(cls, flow: FlowSpec, slot_ns: int) -> "FlowDemand":
        if flow.period_ns is None:
            raise SchedulingError(
                f"flow {flow.flow_id}: TS flow without a period"
            )
        if flow.period_ns % slot_ns:
            raise SlotError(
                f"flow {flow.flow_id}: period {flow.period_ns}ns is not a "
                f"multiple of the slot {slot_ns}ns"
            )
        return cls(
            flow_id=flow.flow_id,
            period_slots=flow.period_ns // slot_ns,
            occupancy_bytes=wire_bytes(flow.size_bytes),
            rate_bps=flow.effective_rate_bps,
            size_bytes=flow.size_bytes,
        )


@dataclass(frozen=True)
class SchedulingProblem:
    """One slot-assignment instance: demands, slotting, budget, objective."""

    schedule: CqfSchedule
    demands: Tuple[FlowDemand, ...]
    budget_bytes: int
    rate_bps: int = GIGABIT
    objective: str = "min_peak"

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise SchedulingError(
                f"unknown objective {self.objective!r}; "
                f"expected one of {OBJECTIVES}"
            )
        slot_count = self.schedule.slot_count
        for demand in self.demands:
            if slot_count % demand.period_slots:
                raise SchedulingError(
                    f"flow {demand.flow_id}: period of "
                    f"{demand.period_slots} slots does not divide the "
                    f"{slot_count}-slot cycle"
                )

    @classmethod
    def from_flows(
        cls,
        flows: Sequence[FlowSpec],
        schedule: CqfSchedule,
        rate_bps: int = GIGABIT,
        slot_utilization_limit: float = 0.5,
        objective: str = "min_peak",
    ) -> "SchedulingProblem":
        """Build the problem for the TS subset of *flows*.

        *slot_utilization_limit* bounds how much of a slot's wire time TS
        frames may fill (CQF must drain every gathered frame within the
        next slot, with headroom for one lower-priority MTU in flight).
        Demand order follows *flows* order -- the phase-stagger order.
        """
        demands = tuple(
            FlowDemand.from_flow(flow, schedule.slot_ns)
            for flow in flows
            if flow.traffic_class is TrafficClass.TS
        )
        budget = int(
            schedule.capacity_bytes(rate_bps) * slot_utilization_limit
        )
        return cls(
            schedule=schedule,
            demands=demands,
            budget_bytes=budget,
            rate_bps=rate_bps,
            objective=objective,
        )

    # ------------------------------------------------------------- helpers

    @property
    def slot_count(self) -> int:
        return self.schedule.slot_count

    def demand_of(self, flow_id: int) -> FlowDemand:
        for demand in self.demands:
            if demand.flow_id == flow_id:
                return demand
        raise KeyError(flow_id)

    def frame_slots(self, demand: FlowDemand) -> int:
        """Slots one cycle of *demand* occupies (frames per cycle)."""
        return self.slot_count // demand.period_slots

    def peak_lower_bound(self) -> int:
        """Pigeonhole bound on the best achievable frames-per-slot peak."""
        if not self.demands:
            return 0
        total = sum(self.frame_slots(d) for d in self.demands)
        return max(1, -(-total // self.slot_count))


@dataclass(frozen=True)
class SchedulePlan:
    """One backend's answer: offsets, rejections, status, effort."""

    problem: SchedulingProblem
    offsets: Mapping[int, int]          # flow_id -> injection slot offset
    backend: str
    status: str
    rejected: Tuple[int, ...] = ()
    nodes_explored: int = 0
    iterations: int = 0
    reason: Optional[str] = None        # human-readable infeasibility cause
    _phases: Dict[int, int] = field(
        default_factory=dict, repr=False, compare=False
    )
    _slot_frames: List[int] = field(
        default_factory=list, repr=False, compare=False
    )
    _slot_bytes: List[int] = field(
        default_factory=list, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise SchedulingError(
                f"unknown plan status {self.status!r}; "
                f"expected one of {STATUSES}"
            )
        self._recompute_load()
        self._assign_phases()

    # ----------------------------------------------------------- derivation

    def _recompute_load(self) -> None:
        slot_count = self.problem.slot_count
        frames = [0] * slot_count
        load = [0] * slot_count
        for demand in self.problem.demands:
            offset = self.offsets.get(demand.flow_id)
            if offset is None:
                continue
            occupancy = demand.occupancy_bytes
            for s in range(offset, slot_count, demand.period_slots):
                frames[s] += 1
                load[s] += occupancy
        self._slot_frames.extend(frames)
        self._slot_bytes.extend(load)

    def _assign_phases(self) -> None:
        """Stagger same-slot flows by one wire time each.

        Iterates demands in problem order -- the original flow-set order,
        not the backend's placement order -- so phases depend only on the
        offsets chosen.
        """
        next_phase: Dict[int, int] = {}
        slot_count = self.problem.slot_count
        for demand in self.problem.demands:
            offset = self.offsets.get(demand.flow_id)
            if offset is None:
                continue
            slot = offset % slot_count
            phase = next_phase.get(slot, 0)
            next_phase[slot] = phase + serialization_ns(
                demand.occupancy_bytes, self.problem.rate_bps
            )
            self._phases[demand.flow_id] = phase

    # ------------------------------------------------------------- queries

    @property
    def slot_frames(self) -> List[int]:
        return list(self._slot_frames)

    @property
    def slot_bytes(self) -> List[int]:
        return list(self._slot_bytes)

    @property
    def max_frames_per_slot(self) -> int:
        return max(self._slot_frames, default=0)

    @property
    def max_bytes_per_slot(self) -> int:
        return max(self._slot_bytes, default=0)

    @property
    def required_queue_depth(self) -> int:
        """Guideline 4: worst-case gathering-queue occupancy."""
        return self.max_frames_per_slot

    def load_balance_ratio(self) -> float:
        """max/mean per-slot frames; 1.0 is a perfectly level plan."""
        if not self._slot_frames or self.max_frames_per_slot == 0:
            return 1.0
        mean = sum(self._slot_frames) / len(self._slot_frames)
        return self.max_frames_per_slot / mean if mean else float("inf")

    @property
    def admitted(self) -> Tuple[int, ...]:
        return tuple(sorted(self.offsets))

    @property
    def admitted_count(self) -> int:
        return len(self.offsets)

    @property
    def demand_count(self) -> int:
        return len(self.problem.demands)

    @property
    def admission_rate(self) -> float:
        """Admitted fraction of the demanded flows; 1.0 when none demanded."""
        if not self.problem.demands:
            return 1.0
        return self.admitted_count / len(self.problem.demands)

    def phase_ns(self, flow_id: int) -> int:
        return self._phases[flow_id]

    def slot_ns_of(self, flow_id: int) -> int:
        """Slot size governing *flow_id* (uniform in a single-system plan)."""
        if flow_id not in self.offsets:
            raise KeyError(flow_id)
        return self.problem.schedule.slot_ns

    def system_of(self, flow_id: int) -> int:
        if flow_id not in self.offsets:
            raise KeyError(flow_id)
        return 0

    def injection_offset_ns(self, flow_id: int) -> int:
        """First-injection time: planned slot start plus stagger phase."""
        return (
            self.offsets[flow_id] * self.problem.schedule.slot_ns
            + self._phases[flow_id]
        )

    def raise_if_infeasible(self) -> None:
        """Raise :class:`InfeasiblePlanError` (a :class:`SchedulingError`)
        unless the plan is usable."""
        if self.status in ("infeasible", "unknown"):
            raise InfeasiblePlanError(
                self.reason
                or f"backend {self.backend!r} produced no feasible plan "
                   f"(status {self.status!r})"
            )

    def summary(self) -> Dict[str, object]:
        """JSON-ready digest (CLI, sweep rows, export)."""
        return {
            "backend": self.backend,
            "status": self.status,
            "objective": self.problem.objective,
            "demanded": len(self.problem.demands),
            "admitted": self.admitted_count,
            "rejected": len(self.rejected),
            "admission_rate": round(self.admission_rate, 6),
            "peak_frames_per_slot": self.max_frames_per_slot,
            "peak_bytes_per_slot": self.max_bytes_per_slot,
            "required_queue_depth": self.required_queue_depth,
            "peak_lower_bound": self.problem.peak_lower_bound(),
            "nodes_explored": self.nodes_explored,
            "iterations": self.iterations,
        }


_STATUS_RANK = {"optimal": 0, "feasible": 1, "unknown": 2, "infeasible": 3}


@dataclass(frozen=True)
class MultiSchedulePlan:
    """Per-system plans of a Multi-CQF port, with one reporting surface.

    ``systems[i]`` is the :class:`SchedulePlan` of CQF system *i*; each
    system runs its own slot size, so flow lookups dispatch on which
    system admitted the flow.  The required queue depth is the worst
    system's (every queue group is provisioned to the same depth).
    """

    systems: Tuple[SchedulePlan, ...]

    def __post_init__(self) -> None:
        if not self.systems:
            raise SchedulingError("MultiSchedulePlan needs >= 1 system")

    # ------------------------------------------------------------- queries

    @property
    def backend(self) -> str:
        return self.systems[0].backend

    @property
    def status(self) -> str:
        return max(
            (plan.status for plan in self.systems),
            key=lambda s: _STATUS_RANK[s],
        )

    @property
    def rejected(self) -> Tuple[int, ...]:
        return tuple(
            fid for plan in self.systems for fid in plan.rejected
        )

    @property
    def admitted_count(self) -> int:
        return sum(plan.admitted_count for plan in self.systems)

    @property
    def demand_count(self) -> int:
        return sum(len(plan.problem.demands) for plan in self.systems)

    @property
    def admission_rate(self) -> float:
        demanded = self.demand_count
        if not demanded:
            return 1.0
        return self.admitted_count / demanded

    @property
    def required_queue_depth(self) -> int:
        return max(plan.required_queue_depth for plan in self.systems)

    @property
    def max_frames_per_slot(self) -> int:
        return self.required_queue_depth

    @property
    def nodes_explored(self) -> int:
        return sum(plan.nodes_explored for plan in self.systems)

    @property
    def iterations(self) -> int:
        return sum(plan.iterations for plan in self.systems)

    def _plan_of(self, flow_id: int) -> Tuple[int, SchedulePlan]:
        for index, plan in enumerate(self.systems):
            if flow_id in plan.offsets:
                return index, plan
        raise KeyError(flow_id)

    def system_of(self, flow_id: int) -> int:
        return self._plan_of(flow_id)[0]

    def slot_ns_of(self, flow_id: int) -> int:
        return self._plan_of(flow_id)[1].problem.schedule.slot_ns

    def phase_ns(self, flow_id: int) -> int:
        return self._plan_of(flow_id)[1].phase_ns(flow_id)

    def injection_offset_ns(self, flow_id: int) -> int:
        return self._plan_of(flow_id)[1].injection_offset_ns(flow_id)

    @property
    def offsets(self) -> Dict[int, int]:
        merged: Dict[int, int] = {}
        for plan in self.systems:
            merged.update(plan.offsets)
        return merged

    def raise_if_infeasible(self) -> None:
        for plan in self.systems:
            plan.raise_if_infeasible()

    def summary(self) -> Dict[str, object]:
        return {
            "backend": self.backend,
            "status": self.status,
            "objective": self.systems[0].problem.objective,
            "demanded": self.demand_count,
            "admitted": self.admitted_count,
            "rejected": len(self.rejected),
            "admission_rate": round(self.admission_rate, 6),
            "peak_frames_per_slot": self.max_frames_per_slot,
            "required_queue_depth": self.required_queue_depth,
            "nodes_explored": self.nodes_explored,
            "iterations": self.iterations,
            "systems": [plan.summary() for plan in self.systems],
        }
