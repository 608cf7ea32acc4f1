"""Injection Time Planning (ITP) -- when should each TS flow inject?

The paper sizes its queues "with our flow scheduling algorithm [24]" (Yan et
al., *Injection Time Planning: Making CQF Practical in Time-Sensitive
Networking*, INFOCOM 2020).  The idea: under CQF a packet injected during
slot *s* occupies the gathering queue of slot *s* on every hop, so the
*injection slot choice* alone decides per-slot queue occupancy network-wide.
Left unplanned (all flows injecting at period start), 1024 flows pile into
one slot and need 1024 descriptors of queue depth; spread across the ~153
slots of a 10 ms period they need only ~7 -- which is exactly why the
paper's customized queue depth of 8-12 is safe.

The planners live in :mod:`repro.sched` (``make_scheduler("greedy")`` is
the paper's load-balancing core: flows are processed in decreasing
bandwidth-demand order and each picks the feasible injection slot that
minimizes the worst per-slot load it touches).  This module holds the plan
they project to via ``SchedulePlan.to_itp_plan()``: an :class:`ItpPlan`
reports the achieved ``max_frames_per_slot`` -- the queue-depth requirement
the sizing guidelines consume -- and concrete injection timestamps for the
traffic generators.

The load model is network-global (all TS flows of the evaluated scenarios
share the ring/linear/star trunk path, so the busiest egress port sees every
flow); a per-port refinement would only relax the bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.traffic.flows import FlowSpec
from .schedule import CqfSchedule

__all__ = ["ItpAssignment", "ItpPlan"]


@dataclass(frozen=True)
class ItpAssignment:
    """One flow's planned injection: slot offset + phase within the slot."""

    flow_id: int
    offset_slot: int      # slot index within the flow's own period
    phase_ns: int         # offset into the slot (staggers same-slot flows)
    period_slots: int     # the flow's period expressed in slots


@dataclass
class ItpPlan:
    """Outcome of planning one TS flow set onto a schedule."""

    schedule: CqfSchedule
    assignments: Dict[int, ItpAssignment] = field(default_factory=dict)
    slot_frames: List[int] = field(default_factory=list)
    slot_bytes: List[int] = field(default_factory=list)

    @property
    def max_frames_per_slot(self) -> int:
        """Worst-case gathering-queue occupancy: the queue-depth requirement."""
        return max(self.slot_frames, default=0)

    @property
    def max_bytes_per_slot(self) -> int:
        return max(self.slot_bytes, default=0)

    @property
    def required_queue_depth(self) -> int:
        """Paper III.C(4): 'the queue should hold all the packets that
        arrive at the queue in the same slot'."""
        return self.max_frames_per_slot

    def load_balance_ratio(self) -> float:
        """max/mean per-slot frames; 1.0 is a perfectly level plan."""
        if not self.slot_frames or self.max_frames_per_slot == 0:
            return 1.0
        mean = sum(self.slot_frames) / len(self.slot_frames)
        return self.max_frames_per_slot / mean if mean else float("inf")

    def injection_ns(self, flow: FlowSpec, k: int) -> int:
        """Absolute injection time of flow's *k*-th packet."""
        assignment = self.assignments[flow.flow_id]
        assert flow.period_ns is not None
        return (
            k * flow.period_ns
            + assignment.offset_slot * self.schedule.slot_ns
            + assignment.phase_ns
        )
