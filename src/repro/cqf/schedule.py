"""Scheduling cycle and time-slot arithmetic.

Paper Section III.C(2): "The time is divided into multiple equally sized
'time slots'. ... The scheduling cycle defines a complete iteration and
equals to the least common multiple of all flow periods."

:class:`CqfSchedule` captures one network-wide slotting: the slot size, the
scheduling cycle, and the resulting slot count.  It is the shared input to
GCL generation (:mod:`repro.cqf.gating`), injection-time planning
(:mod:`repro.sched`), and the sizing guidelines
(:mod:`repro.core.sizing` -- general 802.1Qbv gate tables need one entry per
slot in the cycle; CQF compresses that to 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.errors import SchedulingError, SlotError

__all__ = ["CqfSchedule", "scheduling_cycle_ns", "slots_in_cycle"]

#: Safety limit on cycle length: pathological co-prime periods explode the
#: LCM; 10 s of cycle is far beyond any industrial schedule.
_MAX_CYCLE_NS = 10 * 10**9


def scheduling_cycle_ns(periods_ns: Iterable[int]) -> int:
    """The scheduling cycle: LCM of all flow periods (ns).

    Folds over the distinct periods in first-seen order: a repeated period
    cannot change the LCM, and the first non-positive period and the
    period that first breaks the cycle cap are the same either way.
    """
    distinct = dict.fromkeys(periods_ns)
    if not distinct:
        raise SchedulingError("cannot compute a cycle for zero flows")
    cycle = 1
    for period in distinct:
        if period <= 0:
            raise SchedulingError(f"flow period must be positive, got {period}")
        cycle = math.lcm(cycle, period)
        if cycle > _MAX_CYCLE_NS:
            raise SchedulingError(
                f"scheduling cycle exceeds {_MAX_CYCLE_NS}ns; flow periods "
                "are pathologically co-prime"
            )
    return cycle


def slots_in_cycle(cycle_ns: int, slot_ns: int) -> int:
    """Number of time slots per scheduling cycle; slot must divide cycle."""
    if slot_ns <= 0:
        raise SchedulingError(f"slot size must be positive, got {slot_ns}")
    if cycle_ns % slot_ns:
        raise SlotError(
            f"slot {slot_ns}ns does not divide the flows' scheduling cycle "
            f"{cycle_ns}ns -- pick a slot that divides every period"
        )
    return cycle_ns // slot_ns


@dataclass(frozen=True)
class CqfSchedule:
    """One network-wide CQF slotting."""

    slot_ns: int
    cycle_ns: int

    def __post_init__(self) -> None:
        slots_in_cycle(self.cycle_ns, self.slot_ns)  # a positive divisor

    @property
    def slot_count(self) -> int:
        return self.cycle_ns // self.slot_ns

    @classmethod
    def for_flows(cls, periods_ns: Sequence[int], slot_ns: int) -> "CqfSchedule":
        """Slot the LCM cycle of *periods_ns* into *slot_ns* slots."""
        return cls(slot_ns, scheduling_cycle_ns(periods_ns))

    def slot_of(self, time_ns: int) -> int:
        """Index (within the cycle) of the slot containing *time_ns*."""
        return (time_ns % self.cycle_ns) // self.slot_ns

    def slot_start(self, slot_index: int, cycle_index: int = 0) -> int:
        """Absolute start time of a slot in a given cycle iteration."""
        return cycle_index * self.cycle_ns + (slot_index % self.slot_count) * self.slot_ns

    def capacity_bytes(self, rate_bps: int) -> int:
        """Bytes one port can serialize within a slot (ignoring framing).

        A planning upper bound: per-frame preamble/IFG overhead (20 B per
        frame, see :func:`repro.core.units.wire_bytes`) reduces the usable
        share further, so schedulers should keep per-slot TS load well below
        this.
        """
        return self.slot_ns * rate_bps // (8 * 10**9)
