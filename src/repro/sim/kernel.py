"""Discrete-event simulation kernel.

A deliberately small, fast core: a binary-heap calendar of plain tuples
``(time, priority, seq, payload)`` whose actions are Python callables.  All
times are integer nanoseconds (see :mod:`repro.core.units`).

Determinism: events at the same timestamp fire in (priority, insertion)
order, so two runs of the same scenario produce identical traces.  The
testbed relies on this to make latency distributions reproducible under a
fixed RNG seed.  Tuple comparison never reaches the payload element because
``seq`` is unique.

Calendar representation (the hot-path design):

* Entries are plain tuples, not objects -- CPython compares tuples of ints
  several times faster than it calls a dataclass ``__lt__``, and a tuple
  costs one allocation versus an object plus its dict/slots.
* The payload of a :meth:`Simulator.post` event is the bare action callable.
  ``post`` is the fire-and-forget fast path: no handle, no cancellation, no
  per-event bookkeeping object.  Dataplane hot paths (frame delivery, gate
  wakeups, periodic sources) use it.
* The payload of a :meth:`Simulator.schedule` event is a one-element list
  ``[action]`` -- a mutable *slot* shared with the returned
  :class:`EventHandle` so the handle can cancel the entry in O(1) by
  nulling the slot (classic lazy deletion).  The handle itself is the only
  per-event object allocated, and only on this path.
* Cancelled entries stay in the heap until they surface (lazy deletion) or
  until a threshold-triggered compaction rebuilds the heap without them, so
  cancellation storms (cut-through retries, gate re-arbitration) cannot
  inflate the calendar indefinitely.
* Posting bumps nothing but the sequence counter.  What
  :class:`SimStats` reports is derived from the calendar when it is read:
  ``scheduled`` is the sequence numbers handed out minus the reservations
  never redeemed, :attr:`Simulator.pending` is the heap length minus its
  dead entries, ``fired`` is what was scheduled and has left the heap
  other than as a dead or cleared entry.

This style (callbacks, not coroutines) was chosen over a simpy-like process
model because the switch dataplane is naturally event-shaped -- "frame fully
received", "gate state flips", "serialization done" -- and the kernel stays
trivially inspectable.

Observability: every kernel counts scheduling activity in :class:`SimStats`
(events scheduled/fired/cancelled/elided, dead entries reclaimed by
compaction, and the calendar's high-water mark -- plain integer bumps,
always on).
Wall-clock attribution of event actions is opt-in: pass a
:class:`repro.obs.profiler.WallClockProfiler` and each action's host-CPU
time is recorded under its qualified name.  With the default
``profiler=None`` the run loop performs **no** clock reads at all.

Two more opt-in hooks serve the campaign observability layer: attaching a
:class:`repro.obs.flight.FlightRecorder` (``sim.flight = recorder``) rings
every fired event for post-mortem dumps, and setting
:attr:`Simulator.event_budget` turns the kernel into its own deterministic
watchdog -- the run raises :class:`EventBudgetExceeded` at exactly the same
simulation point on any host, unlike a wall-clock ``SIGALRM``.  Both
default to off; the run loop tests one flag per event for all three.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.errors import SimulationError

__all__ = [
    "Simulator",
    "EventHandle",
    "SimStats",
    "EventBudgetExceeded",
]


class EventBudgetExceeded(SimulationError):
    """The run fired more events than its configured budget allows.

    A *deterministic* timeout: unlike a wall-clock ``SIGALRM``, the budget
    trips at exactly the same simulation point on every host and worker
    count, so campaign rows and flight-recorder dumps produced by budget
    kills are byte-identical wherever they run.
    """

Action = Callable[[], Any]


class _Fired:
    """Sentinel marking a cancellable slot whose action already ran.

    Distinct from ``None`` (= cancelled) so :meth:`EventHandle.cancel` can
    tell "already fired" apart from "already cancelled" and bump
    :attr:`SimStats.cancelled` only for true cancellations.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<fired>"


_FIRED = _Fired()

#: Compaction trigger: rebuild the heap once this many dead entries have
#: accumulated *and* they outnumber the live ones.  The floor keeps tiny
#: calendars from compacting constantly; the ratio bounds wasted memory and
#: pop work at 2x regardless of calendar size.
_COMPACT_MIN_DEAD = 64

#: ``run()``'s horizon when it is given none: later than any event.
_NEVER = 1 << 127


@dataclass
class SimStats:
    """Always-on calendar accounting of one kernel.

    :attr:`Simulator.stats` refreshes ``scheduled``, ``fired`` and
    ``calendar_high_water`` from the calendar each time it is read.
    """

    scheduled: int = 0            # entries put on the calendar
    fired: int = 0                # actions actually executed
    cancelled: int = 0            # handles cancelled before firing
    compacted: int = 0            # dead heap entries reclaimed by compaction
    calendar_high_water: int = 0  # max heap length (incl. cancelled entries)
    elided: int = 0               # seqs reserved and never posted

    def as_dict(self) -> Dict[str, int]:
        return {
            "scheduled": self.scheduled,
            "fired": self.fired,
            "cancelled": self.cancelled,
            "compacted": self.compacted,
            "calendar_high_water": self.calendar_high_water,
            "elided": self.elided,
        }


class EventHandle:
    """Opaque handle returned by :meth:`Simulator.schedule`; allows cancel."""

    __slots__ = ("_slot", "_time", "_sim")

    def __init__(self, slot: List[Optional[Action]], time: int,
                 sim: "Simulator"):
        self._slot = slot
        self._time = time
        self._sim = sim

    @property
    def time(self) -> int:
        """Absolute firing time of the event (ns)."""
        return self._time

    @property
    def active(self) -> bool:
        """True until the event fires or is cancelled."""
        payload = self._slot[0]
        return payload is not None and payload is not _FIRED

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once,
        and a no-op (not a miscount) if the event already fired."""
        slot = self._slot
        payload = slot[0]
        if payload is None or payload is _FIRED:
            return
        slot[0] = None
        self._sim._note_cancel()


class Simulator:
    """The event calendar and virtual clock.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(100, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> (sim.now, fired)
    (100, [100])

    *profiler* (optional) must offer ``clock() -> int`` and
    ``record_action(action, elapsed_ns)`` -- see
    :class:`repro.obs.profiler.WallClockProfiler`.  Left ``None``, the run
    loop takes the unprofiled fast path.
    """

    def __init__(self, profiler: Optional[Any] = None) -> None:
        self._now = 0
        # (time, priority, seq, payload); payload is the action itself
        # (post) or a mutable [action] slot (schedule).
        self._heap: List[Tuple[int, int, int, Any]] = []
        self._seq = 0
        self._dead = 0   # cancelled entries still in the heap
        self._gone = 0   # entries that left the heap without firing
        self._high = 0   # heap length high-water seen so far
        self._running = False
        self._stats = SimStats()
        self.profiler = profiler
        #: Optional :class:`repro.obs.flight.FlightRecorder`; when attached,
        #: every fired event is noted (time + category) in its ring.
        self.flight: Optional[Any] = None
        #: Optional cap on total events fired; exceeding it raises
        #: :class:`EventBudgetExceeded` (the deterministic per-run timeout
        #: the campaign engine injects).
        self.event_budget: Optional[int] = None

    # ------------------------------------------------------------ properties

    @property
    def backend(self) -> str:
        """Name of the dispatch loop, for run telemetry: always ``"py"``,
        the loop in :meth:`run` is the only one."""
        return "py"

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def stats(self) -> SimStats:
        """The calendar accounting, current as of this read (also from
        inside an event)."""
        stats = self._stats
        stats.scheduled = self._seq - stats.elided
        stats.fired = self._fired()
        stats.calendar_high_water = self._raise_high_water()
        return stats

    def _fired(self) -> int:
        # Every scheduled entry is still in the heap, left it dead or
        # cleared (``_gone``), or fired.
        return self._seq - self._stats.elided - len(self._heap) - self._gone

    def _raise_high_water(self) -> int:
        """Fold the heap's current length into the high-water mark; called
        before anything shrinks the heap, so the mark is an exact maximum."""
        length = len(self._heap)
        if length > self._high:
            self._high = length
        return self._high

    @property
    def events_executed(self) -> int:
        """Count of events fired so far (for progress/benchmark reporting)."""
        return self._fired()

    @property
    def pending(self) -> int:
        """Number of scheduled-and-not-cancelled events.  O(1)."""
        return len(self._heap) - self._dead

    # ------------------------------------------------------------ scheduling

    def post(self, delay: int, action: Action, priority: int = 0) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, minimal overhead.

        The hot-path primitive: use it whenever the caller never cancels.
        Lower *priority* fires first among same-time events.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}ns in the past")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self._now + delay, priority, seq, action))

    def post_at(self, time: int, action: Action, priority: int = 0) -> None:
        """Fire-and-forget :meth:`schedule_at` (absolute time, no handle)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time}ns, now is {self._now}ns"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, priority, seq, action))

    def reserve_seq(self) -> int:
        """Claim the insertion rank a ``post`` made now would get.

        For events that are usually no-ops: instead of posting, the caller
        keeps the returned sequence number and hands it to
        :meth:`post_reserved` only if the event turns out to be needed.
        The event then fires exactly where an eager post would have put it
        among same-time events; a reservation never redeemed costs no
        calendar entry and is counted in :attr:`SimStats.elided`.
        """
        seq = self._seq
        self._seq = seq + 1
        self._stats.elided += 1
        return seq

    def post_reserved(self, time: int, seq: int, action: Action) -> None:
        """Fire-and-forget post at *time* (priority 0) under a *seq* from
        :meth:`reserve_seq`; redeem each reservation at most once."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time}ns, now is {self._now}ns"
            )
        stats = self._stats
        if not 0 <= seq < self._seq or stats.elided <= 0:
            raise SimulationError(f"sequence number {seq} was never reserved")
        stats.elided -= 1
        heappush(self._heap, (time, 0, seq, action))

    def schedule(self, delay: int, action: Action, priority: int = 0) -> EventHandle:
        """Schedule *action* to fire *delay* ns from now.

        Lower *priority* fires first among same-time events; the default 0
        suits almost everything, gate wakeups use a negative priority so a
        gate that opens at time T affects a frame arriving exactly at T.
        Returns a cancellable handle; callers that never cancel should use
        :meth:`post` and skip the handle allocation.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}ns in the past")
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        slot: List[Optional[Action]] = [action]
        heappush(self._heap, (time, priority, seq, slot))
        return EventHandle(slot, time, self)

    def schedule_at(self, time: int, action: Action, priority: int = 0) -> EventHandle:
        """Schedule *action* at absolute simulation *time* (cancellable)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time}ns, now is {self._now}ns"
            )
        seq = self._seq
        self._seq = seq + 1
        slot: List[Optional[Action]] = [action]
        heappush(self._heap, (time, priority, seq, slot))
        return EventHandle(slot, time, self)

    # ------------------------------------------------------- lazy deletion

    def _note_cancel(self) -> None:
        self._stats.cancelled += 1
        self._dead = dead = self._dead + 1
        if dead >= _COMPACT_MIN_DEAD and dead > len(self._heap) - dead:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without dead entries.

        In-place (slice assignment) so bindings held by a running event
        loop stay valid.  ``calendar_high_water`` keeps its monotonic
        maximum: compaction reclaims memory, it does not rewrite history.
        """
        heap = self._heap
        self._raise_high_water()
        before = len(heap)
        heap[:] = [
            entry for entry in heap
            if not (type(entry[3]) is list and entry[3][0] is None)
        ]
        heapq.heapify(heap)
        removed = before - len(heap)
        self._stats.compacted += removed
        self._dead -= removed
        self._gone += removed

    def clear(self) -> None:
        """Drop every pending event without firing it.

        Teardown: the calendar is what keeps a finished run's devices
        reachable from each other (self-posting actions, frames in
        flight).  The clock and :attr:`stats` are left as they are.
        """
        if self._running:
            raise SimulationError("clear() called from an event")
        self._raise_high_water()
        self._gone += len(self._heap)
        self._dead = 0
        self._heap.clear()

    # --------------------------------------------------------------- running

    def run(self, until: Optional[int] = None) -> None:
        """Execute events in order until the calendar drains or *until* (ns).

        With *until* given, the clock is left exactly at *until* even if the
        calendar drained earlier, so repeated ``run(until=...)`` calls form a
        monotonic timeline.  Events scheduled exactly at *until* do fire.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly from an event")
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run until {until}ns, now is {self._now}ns"
            )
        self._running = True
        heap = self._heap
        horizon = _NEVER if until is None else until
        # Flight recorder, event budget and profiler: one test per event.
        watched = (
            self.profiler is not None
            or self.flight is not None
            or self.event_budget is not None
        )
        high = self._high
        try:
            while heap:
                if len(heap) > high:
                    high = self._raise_high_water()
                entry = heappop(heap)
                if entry[0] > horizon:
                    heappush(heap, entry)
                    break
                action = entry[3]
                if type(action) is list:
                    slot = action
                    action = slot[0]
                    if action is None:
                        # cancelled: lazy deletion surfaces here
                        self._dead -= 1
                        self._gone += 1
                        continue
                    slot[0] = _FIRED
                self._now = entry[0]
                if watched:
                    self._fire(entry[0], action)
                else:
                    action()
        finally:
            self._running = False
        if until is not None and until > self._now:
            self._now = until

    def _fire(self, time: int, action: Action) -> None:
        """Run one popped action under the flight recorder, the event
        budget and the profiler, whichever are attached."""
        if self.flight is not None:
            self.flight.record(time, action)
        budget = self.event_budget
        if budget is not None and self._fired() > budget:
            raise EventBudgetExceeded(
                f"event budget of {budget} events exceeded at {time}ns"
            )
        profiler = self.profiler
        if profiler is None:
            action()
            return
        clock = profiler.clock
        started = clock()
        try:
            action()
        finally:
            profiler.record_action(action, clock() - started)

    def step(self) -> bool:
        """Execute exactly one event.  Returns False if the calendar is empty."""
        heap = self._heap
        self._raise_high_water()
        while heap:
            entry = heappop(heap)
            payload = entry[3]
            if type(payload) is list:
                action = payload[0]
                if action is None:
                    self._dead -= 1
                    self._gone += 1
                    continue
                payload[0] = _FIRED
            else:
                action = payload
            self._now = entry[0]
            self._fire(entry[0], action)
            return True
        return False

    def peek(self) -> Optional[int]:
        """Timestamp of the next live event, or None if the calendar is empty.

        Dead (cancelled) heads are discarded on the way -- part of lazy
        deletion, and invisible to :class:`SimStats`: the high-water mark is
        a monotonic maximum and cancellations were already counted.
        """
        heap = self._heap
        self._raise_high_water()
        while heap:
            payload = heap[0][3]
            if type(payload) is list and payload[0] is None:
                heappop(heap)
                self._dead -= 1
                self._gone += 1
                continue
            return heap[0][0]
        return None
