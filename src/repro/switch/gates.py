"""The Gate Ctrl engine: driving queue gates from programmed GCLs.

Each port owns two Gate Control Lists (paper Section III.A): the *in-GCL*
gates enqueue eligibility, the *out-GCL* gates dequeue eligibility.  The
:class:`GateEngine` answers gate-state queries against the switch's
(synchronized) local clock and wakes the egress scheduler when gate state
it was blocked on changes.

Both GCLs are lowered once, in :meth:`GateEngine.start`, to a *window
table*: cumulative sim-time boundary offsets plus the gate mask per
segment.  Every timing question -- how long a gate stays open, when the
next usable window begins, when the next boundary falls -- is answered by
an O(log n) bisect on that table and a modulo for the cycle wrap.
Clock-rate changes (the gPTP servo, a frequency-step fault) rebuild the
tables via :meth:`repro.sim.clock.LocalClock.on_rate_change`, preserving
the already-committed end of the in-flight entry; a constant-rate run
converts no interval after ``start``.

Over that one query engine run two *event* disciplines:

``flip``
    One simulation event per table boundary: the engine advances the
    walker masks, emits the ``gate`` trace record, bumps
    ``gate_flips_total`` and kicks the egress scheduler.  Two flip events
    per entry per cycle dominate idle-network event counts, but every
    transition is observable.  Open/closed is read from the walker masks
    (between the in-flip and the out-flip of one instant they are what
    arbitration must see); how long a gate stays open is read from the
    table.

``table``
    **No periodic events at all.**  Open/closed is read from the table
    too, and the scheduler's re-arbitration is demand-driven: when
    arbitration blocks on a gate, it asks
    :meth:`GateEngine.next_out_open_window` for the next usable window and
    the port posts itself a single wakeup at that boundary (at
    :data:`GATE_EVENT_PRIORITY`, exactly when the flip would have kicked
    it).

The default ``mode="auto"`` picks ``flip`` when a gate tracer or port
instruments are attached (observability wants the transitions) and
``table`` otherwise, so uninstrumented production runs pay no per-cycle
gate events.  Frame-level behaviour is identical in both modes; the
equivalence is locked by tests comparing full frame traces.

Under CQF the two lists each have two entries that alternate a pair of TS
queues every time slot: while queue A's in-gate is open (absorbing arrivals),
queue B's out-gate is open (draining last slot's arrivals); next slot they
swap.  :func:`repro.cqf.gcl_gen` generates exactly those entries.

Non-TS queues are simply left open in every entry's mask, so RC/BE traffic
is gated only by priority and CBS credit.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.obs.instruments import PortInstruments
from repro.sim.clock import LocalClock
from repro.sim.kernel import Simulator
from repro.sim.trace import NULL_TRACER, Tracer
from .tables import GateControlList, GateEntry

__all__ = ["GateEngine", "CqfGroup", "CqfPair", "GATE_EVENT_PRIORITY"]

#: Gate-flip events (and the table engine's gate wakeups) run before
#: same-time frame events so a frame arriving at exactly a slot boundary
#: sees the new slot's gate states (the hardware updates gate registers on
#: the slot-boundary clock edge).
GATE_EVENT_PRIORITY = -10

_GATE_EVENT_MODES = ("auto", "flip", "table")


class CqfGroup:
    """A group of queues rotated cyclically by a CQF-family shaper.

    ``members`` are the queue ids; ingress enqueues into whichever
    member's in-gate is currently open.  Classic CQF rotates two queues,
    CSQF three; Multi-CQF ports carry one group per CQF system.
    """

    def __init__(self, *members: int):
        if len(members) < 2:
            raise ConfigurationError(
                f"CQF group needs at least two queues, got {members}"
            )
        if len(set(members)) != len(members):
            raise ConfigurationError(
                f"CQF group members must be distinct, got {members}"
            )
        self.members = tuple(members)

    def __contains__(self, queue_id: int) -> bool:
        return queue_id in self.members

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CqfGroup):
            return NotImplemented
        return self.members == other.members

    def __hash__(self) -> int:
        return hash(self.members)

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self.members}"


class CqfPair(CqfGroup):
    """The two-queue group operated by classic CQF (802.1Qch)."""

    def __init__(self, first: int, second: int):
        if first == second:
            raise ConfigurationError("CQF pair needs two distinct queues")
        super().__init__(first, second)


class _GclWalker:
    """One GCL and its gate register: the mask the last flip latched."""

    def __init__(self, gcl: GateControlList):
        self.gcl = gcl
        self.mask = 0xFF  # all open until programmed/started


class _WindowTable:
    """One GCL lowered to sim-time boundary offsets over one cycle.

    ``offsets[i]`` is the cumulative sim-ns offset (from ``anchor_ns``) at
    which table position *i* begins; ``masks[i]`` its gate states.  Position
    0 corresponds to GCL entry ``base_index`` -- after a mid-cycle rebuild
    the table is re-anchored at the in-flight entry's committed end, and
    the short stretch before the anchor is answered by ``pre_mask``.

    Each entry is converted on its own, ``max(1, round(interval / rate))``,
    and the results accumulated -- not a rounded cumulative sum -- so a
    boundary is where a per-entry timer chain would put it.
    """

    __slots__ = (
        "entries", "count", "offsets", "masks", "cycle_ns", "anchor_ns",
        "base_index", "pre_mask", "pre_start_ns", "_runs", "_fitting",
    )

    def __init__(
        self,
        entries: Tuple[GateEntry, ...],
        clock: LocalClock,
        anchor_ns: int,
        base_index: int = 0,
        pre_mask: Optional[int] = None,
        pre_start_ns: Optional[int] = None,
    ) -> None:
        self.entries = entries
        n = self.count = len(entries)
        offsets: List[int] = []
        masks: List[int] = []
        total = 0
        for i in range(n):
            entry = entries[(base_index + i) % n]
            offsets.append(total)
            masks.append(entry.gate_states)
            total += clock.sim_delay_for_local(entry.interval_ns)
        self.offsets = offsets
        self.masks = masks
        self.cycle_ns = total
        self.anchor_ns = anchor_ns
        self.base_index = base_index
        self.pre_mask = pre_mask
        self.pre_start_ns = pre_start_ns
        self._runs: dict = {}  # queue_id -> ((start_offset, length), ...)
        # (queue_id, needed_ns) -> start offsets of the runs that fit; a
        # port asks again per blocked arbitration, for a handful of sizes.
        self._fitting: dict = {}

    # ------------------------------------------------------------- queries

    def mask_at(self, now: int) -> int:
        if now < self.anchor_ns:
            return self.pre_mask if self.pre_mask is not None else self.masks[-1]
        pos = (now - self.anchor_ns) % self.cycle_ns
        return self.masks[bisect_right(self.offsets, pos) - 1]

    def locate(self, now: int) -> Tuple[int, int, int, int]:
        """(mask, segment_start, segment_end, table_pos) active at *now*.

        ``table_pos`` is -1 while *now* is still inside the pre-anchor
        stretch left behind by a mid-cycle rebuild.
        """
        if now < self.anchor_ns:
            mask = self.pre_mask if self.pre_mask is not None else self.masks[-1]
            start = self.pre_start_ns if self.pre_start_ns is not None else now
            return mask, start, self.anchor_ns, -1
        rel = now - self.anchor_ns
        pos = rel % self.cycle_ns
        cycle_start = now - pos
        j = bisect_right(self.offsets, pos) - 1
        end = (
            self.offsets[j + 1] if j + 1 < self.count else self.cycle_ns
        ) + cycle_start
        return self.masks[j], cycle_start + self.offsets[j], end, j

    def _duration(self, pos: int) -> int:
        nxt = self.offsets[pos + 1] if pos + 1 < self.count else self.cycle_ns
        return nxt - self.offsets[pos]

    def open_run_remaining(self, queue_id: int, now: int) -> Optional[int]:
        """Sim-ns until *queue_id*'s gate closes; None if it never does."""
        bit = 1 << queue_id
        mask, _start, end, j = self.locate(now)
        if not mask & bit:
            return 0
        total = end - now
        pos = 0 if j < 0 else (j + 1) % self.count
        for _ in range(self.count - 1 if j >= 0 else self.count):
            if not self.masks[pos] & bit:
                return total
            total += self._duration(pos)
            pos = (pos + 1) % self.count
        return None  # open in every entry: open forever

    def runs(self, queue_id: int) -> Tuple[Tuple[int, int], ...]:
        """Open runs of *queue_id* as ``(start_offset, length)`` tuples.

        A *run* is a maximal stretch of consecutive table segments whose
        masks keep the gate open; its start is where the gate transitions
        closed -> open.  Empty when the gate is open (or closed) for the
        whole cycle -- no transitions to wake on.
        """
        cached = self._runs.get(queue_id)
        if cached is not None:
            return cached
        bit = 1 << queue_id
        masks = self.masks
        n = self.count
        runs: List[Tuple[int, int]] = []
        for i in range(n):
            if masks[i] & bit and not masks[i - 1] & bit:
                length = 0
                pos = i
                for _ in range(n):
                    if not masks[pos] & bit:
                        break
                    length += self._duration(pos)
                    pos = (pos + 1) % n
                runs.append((self.offsets[i], length))
        result = tuple(runs)
        self._runs[queue_id] = result
        return result

    def next_open_window(
        self, queue_id: int, needed_ns: int, now: int
    ) -> Optional[int]:
        """Delay until the next run start with length >= *needed_ns*.

        Returns None when no future window within a cycle can ever fit the
        frame (it will never become eligible -- under flip events such a
        frame is re-checked on every flip and never passes).
        Only run *starts* are candidates: within a run the remaining window
        only shrinks, so a frame ineligible at the start stays ineligible.
        """
        candidates = self._fitting.get((queue_id, needed_ns))
        if candidates is None:
            candidates = self._fitting[queue_id, needed_ns] = tuple(
                offset for offset, length in self.runs(queue_id)
                if length >= needed_ns
            )
        if not candidates:
            return None
        if now < self.anchor_ns:
            return self.anchor_ns + min(candidates) - now
        pos = (now - self.anchor_ns) % self.cycle_ns
        cycle_start = now - pos
        best = None
        for offset in candidates:
            t = offset if offset > pos else offset + self.cycle_ns
            if best is None or t < best:
                best = t
        return cycle_start + best - now

    # ------------------------------------------------------------ rebuild

    def rebuilt(self, clock: LocalClock, now: int) -> "_WindowTable":
        """A new table reflecting the clock's current rate.

        The in-flight segment's committed end boundary is preserved (its
        flip event, if any, is already on the calendar); everything after
        is re-derived at the new rate.
        """
        mask, start, end, j = self.locate(now)
        if j < 0:
            # Still inside a previous rebuild's pre-anchor stretch: keep
            # the same committed boundary, refresh the rates beyond it.
            return _WindowTable(
                self.entries, clock, self.anchor_ns, self.base_index,
                self.pre_mask, self.pre_start_ns,
            )
        entry_index = (self.base_index + j) % self.count
        return _WindowTable(
            self.entries, clock, anchor_ns=end,
            base_index=(entry_index + 1) % self.count,
            pre_mask=mask, pre_start_ns=start,
        )


class GateEngine:
    """Runs the in/out GCLs of one port.

    Parameters
    ----------
    sim, clock:
        Simulation kernel and the device's local clock.  Entry intervals are
        expressed in local nanoseconds and converted through the clock, so a
        drifting unsynchronized clock visibly skews slot boundaries (which
        is what time sync exists to prevent).
    on_change:
        Called (with no arguments) after gate masks changed; the port's
        egress scheduler hooks this to re-arbitrate.  In ``table`` mode it
        fires only at :meth:`start` -- later re-arbitration is demand-driven
        through :meth:`next_out_open_window` wake hints.
    mode:
        ``"auto"`` (default) selects ``"flip"`` when gate tracing or port
        instruments are attached and ``"table"`` otherwise; either value
        forces that engine.
    """

    def __init__(
        self,
        sim: Simulator,
        in_gcl: GateControlList,
        out_gcl: GateControlList,
        clock: Optional[LocalClock] = None,
        cqf_pairs: Sequence[CqfGroup] = (),
        on_change: Optional[Callable[[], None]] = None,
        tracer: Tracer = NULL_TRACER,
        instruments: Optional[PortInstruments] = None,
        mode: str = "auto",
        name: str = "gate",
    ) -> None:
        if mode not in _GATE_EVENT_MODES:
            raise ConfigurationError(
                f"{name}: gate event mode must be one of "
                f"{_GATE_EVENT_MODES}, got {mode!r}"
            )
        self._sim = sim
        self._clock = clock or LocalClock(sim)
        self._in = _GclWalker(in_gcl)
        self._out = _GclWalker(out_gcl)
        self._cqf_pairs = list(cqf_pairs)
        self._on_change = on_change
        self._tracer = tracer
        self._obs = instruments
        self._mode = mode
        self._name = name
        self._started = False
        self._elide = False
        self._in_table: Optional[_WindowTable] = None
        self._out_table: Optional[_WindowTable] = None

    # ------------------------------------------------------------- lifecycle

    @property
    def in_gcl(self) -> GateControlList:
        return self._in.gcl

    @property
    def out_gcl(self) -> GateControlList:
        return self._out.gcl

    def set_on_change(self, callback: Optional[Callable[[], None]]) -> None:
        """Install the scheduler re-arbitration hook."""
        self._on_change = callback

    def program(
        self,
        in_entries: Sequence[GateEntry],
        out_entries: Sequence[GateEntry],
        cqf_pairs: Sequence[CqfGroup] = (),
    ) -> None:
        """Program both GCLs and the CQF group set (before ``start``)."""
        if self._started:
            raise ConfigurationError(f"{self._name}: already started")
        self._in.gcl.program(list(in_entries))
        self._out.gcl.program(list(out_entries))
        self._cqf_pairs = list(cqf_pairs)

    def start(self) -> None:
        """Begin walking both GCLs from their first entries, now.

        A real TAS aligns the cycle to a configured base time; the testbed
        starts all engines at the same simulation instant, which is the
        aligned case (time sync experiments perturb the clocks instead).
        """
        if self._started:
            raise ConfigurationError(f"{self._name}: engine already started")
        if len(self._in.gcl) == 0 or len(self._out.gcl) == 0:
            raise ConfigurationError(
                f"{self._name}: both GCLs must be programmed before start"
            )
        self._started = True
        if self._mode == "auto":
            self._elide = (
                not self._tracer.enabled_for("gate") and self._obs is None
            )
        else:
            self._elide = self._mode == "table"
        now = self._sim.now
        self._in_table = _WindowTable(self._in.gcl.entries, self._clock, now)
        self._out_table = _WindowTable(self._out.gcl.entries, self._clock, now)
        self._in.mask = self._in_table.masks[0]
        self._out.mask = self._out_table.masks[0]
        for walker, kind in ((self._in, "in"), (self._out, "out")):
            self._tracer.emit(
                now,
                "gate",
                f"{self._name} {kind}-gates",
                mask=f"{walker.mask:08b}",
            )
        subscribe = getattr(self._clock, "on_rate_change", None)
        if subscribe is not None:
            subscribe(self._on_rate_change)
        if not self._elide:
            self._schedule_flip(self._in, is_in=True)
            self._schedule_flip(self._out, is_in=False)
        self._notify()

    @property
    def event_mode(self) -> str:
        """The resolved event discipline: ``"flip"`` or ``"table"``.

        Only meaningful after :meth:`start` (``"auto"`` resolves there).
        """
        if not self._started:
            return self._mode
        return "table" if self._elide else "flip"

    @property
    def needs_wake_hints(self) -> bool:
        """True when blocked arbitrations must arm their own gate wakeups.

        Flip events kick the port on every transition, so hints are
        wasted work there; the table discipline posts no transitions and
        relies on the scheduler asking :meth:`next_out_open_window`.
        """
        return self._elide

    # --------------------------------------------------------- flip events

    def _schedule_flip(self, walker: _GclWalker, is_in: bool) -> None:
        """Latch the table segment beginning now; post the flip at its end."""
        table = self._in_table if is_in else self._out_table
        now = self._sim.now
        walker.mask, _start, end, _pos = table.locate(now)
        self._sim.post(
            end - now,
            lambda: self._flip(walker, is_in),
            GATE_EVENT_PRIORITY,
        )

    def _flip(self, walker: _GclWalker, is_in: bool) -> None:
        self._schedule_flip(walker, is_in)
        if self._obs is not None:
            self._obs.on_gate_flip("in" if is_in else "out")
        self._tracer.emit(
            self._sim.now,
            "gate",
            f"{self._name} {'in' if is_in else 'out'}-gates",
            mask=f"{walker.mask:08b}",
        )
        self._notify()

    def _notify(self) -> None:
        if self._on_change is not None:
            self._on_change()

    def _on_rate_change(self) -> None:
        now = self._sim.now
        self._in_table = self._in_table.rebuilt(self._clock, now)
        self._out_table = self._out_table.rebuilt(self._clock, now)

    # --------------------------------------------------------------- queries

    @property
    def started(self) -> bool:
        return self._started

    @property
    def in_mask(self) -> int:
        if self._elide:
            return self._in_table.mask_at(self._sim._now)
        return self._in.mask

    @property
    def out_mask(self) -> int:
        if self._elide:
            return self._out_table.mask_at(self._sim._now)
        return self._out.mask

    def in_open(self, queue_id: int) -> bool:
        """Is the enqueue gate of *queue_id* currently open?"""
        return bool(self.in_mask >> queue_id & 1)

    def out_open(self, queue_id: int) -> bool:
        """Is the dequeue gate of *queue_id* currently open?"""
        return bool(self.out_mask >> queue_id & 1)

    def select_enqueue_queue(self, queue_id: int) -> Optional[int]:
        """Resolve which queue should absorb a frame classified to *queue_id*.

        If the queue belongs to a CQF group, the open member of the group
        is returned (CQF-family shapers enqueue into the gathering queue of
        the current slot).  Otherwise *queue_id* itself is returned when its
        in-gate is open, or ``None`` when closed (the frame is filtered --
        a gate drop).
        """
        for pair in self._cqf_pairs:
            if queue_id in pair:
                in_mask = self.in_mask
                for member in pair.members:
                    if in_mask >> member & 1:
                        return member
                return None
        return queue_id if self.in_open(queue_id) else None

    def time_until_out_close(self, queue_id: int) -> Optional[int]:
        """Sim-ns until *queue_id*'s out-gate closes; None if it never does.

        Used by the egress scheduler's guard band: a frame is started only
        if its serialization completes before the gate closes, preventing
        slot overruns (802.1Qbv transmission-window check).
        """
        table = self._out_table
        if table is None:
            return None  # not started: every gate is open, none closes
        if not (self._elide or self._out.mask >> queue_id & 1):
            # Flip discipline, at a boundary instant whose out-flip has not
            # fired yet: the walker mask is what arbitration sees.
            return 0
        return table.open_run_remaining(queue_id, self._sim._now)

    def next_out_open_window(
        self, queue_id: int, needed_ns: int = 0
    ) -> Optional[int]:
        """Sim-ns until the next out-gate window fitting *needed_ns* opens.

        The table discipline's wake hint: the earliest future closed->open
        transition of *queue_id* whose contiguous open run is at least
        *needed_ns* long.  None when no such window exists in the cycle
        (the frame can never transmit) or when the engine runs per-flip
        events (the flips already provide the wakeups).
        """
        if not self._elide:
            return None
        return self._out_table.next_open_window(
            queue_id, needed_ns, self._sim._now
        )
