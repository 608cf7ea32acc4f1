"""Time-Aware Shaper (802.1Qbv) schedule synthesis.

CQF (what the paper's evaluation configures) buys its two-entry gate tables
by paying one full time slot of latency per hop.  A general Qbv schedule
instead opens each port's TS gate in a *per-hop transmission window* placed
where the slot's frame batch actually arrives, so frames flow through
without waiting out the slot -- at the cost of gate tables sized to the
schedule (paper guideline 2: entries grow with the slots of the scheduling
cycle).  This module synthesizes such schedules for ITP-planned flow sets;
the ``bench_extension_qbv`` benchmark contrasts the two mechanisms, making
the latency/gate-table trade-off the paper's guideline describes concrete.

Window placement per port and slot ``s`` (all times within the cycle):

* every window is shifted ``guard`` late so the compiled GCL's preceding
  guard band never crosses the cycle start;
* a port whose traversing flows see it as hop ``h`` opens
  ``guard + h * (processing + propagation)`` after the slot start -- the
  earliest a frame of that slot can reach it;
* the window stays open for the batch's wire time (twice -- once for the
  talker-side stagger, once for the drain) plus per-hop serialization skew
  and a safety margin.

Synthesis fails loudly (:class:`~repro.core.errors.SchedulingError`) when a
window cannot fit its slot alongside the guard band -- the same
infeasibility a Qbv GCL synthesis tool ([20] in the paper) would report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import SchedulingError
from repro.core.units import GIGABIT, serialization_ns, wire_bytes
from repro.cqf.schedule import CqfSchedule
from repro.switch.tables import GateEntry
from repro.traffic.flows import FlowSpec
from .windows import GateWindow, WindowSet, compile_gcl, guard_band_ns

if TYPE_CHECKING:
    from repro.sched.problem import SchedulePlan

__all__ = ["PortTraffic", "TasPortSchedule", "TasSynthesizer"]


@dataclass
class PortTraffic:
    """What one egress port carries: per-slot flow batches and hop depths.

    ``slot_flows`` maps a slot index to the TS flows whose planned batch
    crosses this port during that slot; ``hop_indices`` are the positions
    (0-based) this port occupies in those flows' paths.
    """

    slot_flows: Dict[int, List[FlowSpec]]
    hop_indices: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.hop_indices:
            raise SchedulingError("port traffic needs at least one hop index")


@dataclass
class TasPortSchedule:
    """Synthesized schedule of one port."""

    entries: List[GateEntry]
    window_set: WindowSet

    @property
    def gate_size(self) -> int:
        """Gate-table entries this schedule occupies (guideline 2)."""
        return len(self.entries)


class TasSynthesizer:
    """Builds per-port Qbv schedules from an ITP-planned flow set."""

    def __init__(
        self,
        schedule: CqfSchedule,
        rate_bps: int = GIGABIT,
        processing_delay_ns: int = 480,
        propagation_ns: int = 500,
        margin_ns: int = 2_000,
        ts_queue: int = 7,
        queue_num: int = 8,
        guard_ns: Optional[int] = None,
    ) -> None:
        self.schedule = schedule
        self.rate_bps = rate_bps
        self.processing_delay_ns = processing_delay_ns
        self.propagation_ns = propagation_ns
        self.margin_ns = margin_ns
        self.ts_queue = ts_queue
        self.queue_num = queue_num
        self.guard_ns = guard_band_ns(rate_bps) if guard_ns is None else guard_ns

    # ------------------------------------------------------------ internals

    @property
    def hop_lead_ns(self) -> int:
        """Per-hop arrival shift lower bound: pipeline + cable."""
        return self.processing_delay_ns + self.propagation_ns

    def _batch_wire_ns(self, flows: Sequence[FlowSpec]) -> int:
        total_bytes = sum(wire_bytes(flow.size_bytes) for flow in flows)
        return serialization_ns(total_bytes, self.rate_bps)

    def _max_frame_ns(self, flows: Sequence[FlowSpec]) -> int:
        return max(
            serialization_ns(wire_bytes(flow.size_bytes), self.rate_bps)
            for flow in flows
        )

    def _window_for_slot(
        self, slot: int, flows: Sequence[FlowSpec], traffic: PortTraffic
    ) -> GateWindow:
        h_min = min(traffic.hop_indices)
        h_max = max(traffic.hop_indices)
        batch = self._batch_wire_ns(flows)
        frame = self._max_frame_ns(flows)
        slot_start = slot * self.schedule.slot_ns
        start = slot_start + self.guard_ns + h_min * self.hop_lead_ns
        end = (
            slot_start
            + self.guard_ns
            + h_max * (self.hop_lead_ns + frame)
            + 2 * batch
            + self.margin_ns
        )
        if end - slot_start > self.schedule.slot_ns:
            raise SchedulingError(
                f"slot {slot}: TS window of {end - start}ns plus the "
                f"{self.guard_ns}ns guard does not fit the "
                f"{self.schedule.slot_ns}ns slot -- widen slots or reduce "
                "per-slot load"
            )
        return GateWindow(self.ts_queue, start, end)

    # -------------------------------------------------------------- public

    def synthesize_port(self, traffic: PortTraffic) -> TasPortSchedule:
        """The GCL of one port."""
        window_set = WindowSet(self.schedule.cycle_ns)
        for slot in sorted(traffic.slot_flows):
            flows = traffic.slot_flows[slot]
            if not flows:
                continue
            if not 0 <= slot < self.schedule.slot_count:
                raise SchedulingError(
                    f"slot index {slot} outside the "
                    f"{self.schedule.slot_count}-slot cycle"
                )
            window_set.add(self._window_for_slot(slot, flows, traffic))
        entries = compile_gcl(
            window_set,
            queue_num=self.queue_num,
            guard_ns=self.guard_ns,
            rate_bps=self.rate_bps,
        )
        return TasPortSchedule(entries, window_set)

    @staticmethod
    def required_gate_size(schedules: Sequence[TasPortSchedule]) -> int:
        """The gate-table size the synthesized network needs per port."""
        return max((s.gate_size for s in schedules), default=1)


def estimate_gate_size(plan: SchedulePlan) -> int:
    """Upper bound on per-port gate-table entries for a planned flow set.

    *plan* is the scheduler's :class:`~repro.sched.SchedulePlan`; only its
    per-slot frame counts (``slot_frames``) are read.

    Each active slot compiles to at most three GCL entries (guard band, TS
    window, background segment) plus one trailing background entry -- the
    concrete version of paper guideline 2 for this window encoding.  Use it
    to size ``gate_size`` before building a Qbv testbed.
    """
    active_slots = sum(1 for frames in plan.slot_frames if frames)
    return 3 * active_slots + 1
