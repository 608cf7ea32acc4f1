"""Gate windows: the intermediate representation of 802.1Qbv schedules.

A *window* opens one queue's transmission gate for an interval of the
scheduling cycle.  A schedule synthesizer (:mod:`repro.qbv.synthesis`)
produces a :class:`WindowSet` per port; :func:`compile_gcl` lowers it to the
Gate Control List entries the Gate Ctrl template consumes -- which is where
the paper's guideline 2 arithmetic comes from: a general Qbv schedule needs
one gate-table entry per *distinct interval boundary* in the cycle, versus
CQF's fixed two.

Semantics of compilation:

* Windowed queues (those appearing in any window) are open *only* inside
  their windows.
* All other queues are open by default, except that every windowed-queue
  window is *exclusive*: other queues close for its duration plus a
  preceding *guard band* long enough to drain one in-flight MTU frame, so a
  best-effort frame started just before the window cannot trespass on it
  (the standard's guard-band construction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.errors import SchedulingError
from repro.core.units import GIGABIT, serialization_ns, wire_bytes
from repro.switch.tables import GateEntry

__all__ = ["GateWindow", "WindowSet", "compile_gcl", "guard_band_ns"]


def guard_band_ns(rate_bps: int = GIGABIT, mtu_bytes: int = 1518) -> int:
    """Wire time of one maximum frame: the classic Qbv guard band."""
    return serialization_ns(wire_bytes(mtu_bytes), rate_bps)


@dataclass(frozen=True)
class GateWindow:
    """One queue's open interval ``[start, end)`` within the cycle."""

    queue_id: int
    start_ns: int
    end_ns: int

    def __post_init__(self) -> None:
        if not 0 <= self.queue_id <= 7:
            raise SchedulingError(f"queue id {self.queue_id} outside 0..7")
        if self.start_ns < 0 or self.end_ns <= self.start_ns:
            raise SchedulingError(
                f"invalid window [{self.start_ns}, {self.end_ns})"
            )

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def overlaps(self, other: "GateWindow") -> bool:
        return self.start_ns < other.end_ns and other.start_ns < self.end_ns


class WindowSet:
    """All scheduled windows of one port over one cycle."""

    def __init__(self, cycle_ns: int, windows: Iterable[GateWindow] = ()):
        if cycle_ns <= 0:
            raise SchedulingError(f"cycle must be positive, got {cycle_ns}")
        self.cycle_ns = cycle_ns
        self._windows: List[GateWindow] = []
        for window in windows:
            self.add(window)

    def __len__(self) -> int:
        return len(self._windows)

    def __iter__(self):
        return iter(sorted(self._windows, key=lambda w: w.start_ns))

    @property
    def windows(self) -> List[GateWindow]:
        return sorted(self._windows, key=lambda w: w.start_ns)

    @property
    def scheduled_queues(self) -> Tuple[int, ...]:
        return tuple(sorted({w.queue_id for w in self._windows}))

    def add(self, window: GateWindow) -> None:
        """Insert a window; rejects cycle overruns and any overlap.

        Windows are exclusive by construction (one transmission owner at a
        time), so overlapping windows -- even of the same queue -- indicate
        a synthesis bug and are refused outright.
        """
        if window.end_ns > self.cycle_ns:
            raise SchedulingError(
                f"window [{window.start_ns}, {window.end_ns}) exceeds the "
                f"{self.cycle_ns}ns cycle"
            )
        for existing in self._windows:
            if window.overlaps(existing):
                raise SchedulingError(
                    f"window [{window.start_ns}, {window.end_ns}) of queue "
                    f"{window.queue_id} overlaps [{existing.start_ns}, "
                    f"{existing.end_ns}) of queue {existing.queue_id}"
                )
        self._windows.append(window)


def compile_gcl(
    window_set: WindowSet,
    queue_num: int = 8,
    guard_ns: Optional[int] = None,
    rate_bps: int = GIGABIT,
) -> List[GateEntry]:
    """Lower a :class:`WindowSet` to Gate Control List entries.

    Returns entries whose intervals sum exactly to the cycle.  Raises
    :class:`SchedulingError` if a guard band would have to start before the
    cycle begins (synthesizers should leave ``guard`` headroom before the
    first window) or if two windows sit closer than the guard band.
    """
    guard = guard_band_ns(rate_bps) if guard_ns is None else guard_ns
    default_mask = (1 << queue_num) - 1
    scheduled_mask = 0
    for queue in window_set.scheduled_queues:
        if queue >= queue_num:
            raise SchedulingError(
                f"scheduled queue {queue} outside the {queue_num} queues"
            )
        scheduled_mask |= 1 << queue
    background_mask = default_mask & ~scheduled_mask

    # Build the boundary list: (time, new_mask) transitions.
    transitions: List[Tuple[int, int]] = [(0, background_mask)]
    previous_end = 0
    for window in window_set.windows:
        guard_start = window.start_ns - guard
        if guard_start < 0:
            raise SchedulingError(
                f"window at {window.start_ns}ns leaves no room for the "
                f"{guard}ns guard band"
            )
        if guard_start < previous_end:
            raise SchedulingError(
                f"window at {window.start_ns}ns starts within the guard "
                f"band of the previous window (ends {previous_end}ns)"
            )
        # guard: everything closed; window: only the owner open
        transitions.append((guard_start, 0))
        transitions.append((window.start_ns, 1 << window.queue_id))
        transitions.append((window.end_ns, background_mask))
        previous_end = window.end_ns
    transitions.append((window_set.cycle_ns, background_mask))

    entries: List[GateEntry] = []
    for (time, mask), (next_time, _) in zip(transitions, transitions[1:]):
        if next_time == time:
            continue  # zero-length segment (e.g. guard of 0, or b2b windows)
        if entries and entries[-1].gate_states == mask:
            # Adjacent segments with identical masks (e.g. back-to-back
            # windows of one queue under a zero guard) are one gate-table
            # entry on hardware -- and one fewer flip event per cycle here.
            entries[-1] = GateEntry(mask, entries[-1].interval_ns + next_time - time)
            continue
        entries.append(GateEntry(mask, next_time - time))
    if sum(e.interval_ns for e in entries) != window_set.cycle_ns:
        raise AssertionError("compiled GCL does not cover the cycle")
    return entries
