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
an O(log n) bisect on that table and a modulo for the cycle wrap; what
follows each segment is worked out once per queue (and frame length).
Clock-rate changes (the gPTP servo, a frequency-step fault) rebuild the
tables via :meth:`repro.sim.clock.LocalClock.on_rate_change`, preserving
the already-committed end of the in-flight entry; a constant-rate run
converts no interval after ``start``.

Gate state is *looked up* at the current instant, never latched, and the
engine posts **no periodic events**.  Re-arbitration is demand-driven:
when arbitration blocks on a gate, :meth:`GateEngine.out_wait` also says
when the next usable window opens, and the port posts itself a single
wakeup at that boundary (at :data:`GATE_EVENT_PRIORITY`).

``gate_flips_total`` is a view over the same tables: each table carries
the boundaries crossed before its anchor, so :meth:`GateEngine.flips` is
one bisect at the instant it is read, and a rebuild carries the count on.

A tracer that enables ``gate`` at :meth:`GateEngine.start` gets
*narration*: a chain of one event per table boundary, each emitting the
``gate`` trace record.  A narration event changes no state and
wakes nobody -- frame-level behaviour is the same with and without it --
and it fires one priority step ahead of the port wakeups of its instant,
so a streamed trace reads gate-then-tx.  Without that tracer the chain
does not exist.

Under CQF the two lists each have two entries that alternate a pair of TS
queues every time slot: while queue A's in-gate is open (absorbing arrivals),
queue B's out-gate is open (draining last slot's arrivals); next slot they
swap.  :mod:`repro.cqf.gating` generates exactly those entries.

Non-TS queues are simply left open in every entry's mask, so RC/BE traffic
is gated only by priority and CBS credit.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.sim.clock import LocalClock
from repro.sim.kernel import Simulator
from repro.sim.trace import NULL_TRACER, Tracer
from .tables import GateControlList, GateEntry

__all__ = ["GateEngine", "CqfGroup", "CqfPair", "GATE_EVENT_PRIORITY"]

#: A port's gate wakeups run before same-time frame events so a frame
#: arriving at exactly a slot boundary is arbitrated after the backlog the
#: new slot's gate states released (the hardware updates gate registers on
#: the slot-boundary clock edge).
GATE_EVENT_PRIORITY = -10

#: Narration of a boundary precedes the port wakeups of that instant.
_NARRATION_PRIORITY = GATE_EVENT_PRIORITY - 1

#: Gate states before ``start``: everything open.
_ALL_OPEN = 0xFF


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

    ``flips_before`` counts the boundaries crossed before the anchor: -1
    for the table built at start, whose anchor is the start itself.
    """

    __slots__ = (
        "entries", "count", "offsets", "masks", "cycle_ns", "anchor_ns",
        "base_index", "pre_mask", "flips_before", "_closes", "fits",
    )

    def __init__(
        self,
        entries: Tuple[GateEntry, ...],
        clock: LocalClock,
        anchor_ns: int,
        base_index: int = 0,
        pre_mask: Optional[int] = None,
        flips_before: int = -1,
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
        self.flips_before = flips_before
        self._closes: dict = {}  # queue_id -> see :meth:`closes`
        #: (queue_id, needed_ns) -> see :meth:`fit`; a port asks for a
        #: handful of frame lengths per queue.
        self.fits: dict = {}

    # ------------------------------------------------------------- queries

    def mask_at(self, now: int) -> int:
        if now < self.anchor_ns:
            return self.pre_mask if self.pre_mask is not None else self.masks[-1]
        pos = (now - self.anchor_ns) % self.cycle_ns
        return self.masks[bisect_right(self.offsets, pos) - 1]

    def locate(self, now: int) -> Tuple[int, int, int]:
        """(mask, segment_end, table_pos) active at *now*.

        ``table_pos`` is -1 while *now* is still inside the pre-anchor
        stretch left behind by a mid-cycle rebuild.
        """
        if now < self.anchor_ns:
            mask = self.pre_mask if self.pre_mask is not None else self.masks[-1]
            return mask, self.anchor_ns, -1
        pos = (now - self.anchor_ns) % self.cycle_ns
        cycle_start = now - pos
        j = bisect_right(self.offsets, pos) - 1
        end = (
            self.offsets[j + 1] if j + 1 < self.count else self.cycle_ns
        ) + cycle_start
        return self.masks[j], end, j

    def flips(self, now: int) -> int:
        """Boundaries crossed from the engine's start through *now*."""
        if now < self.anchor_ns:
            return self.flips_before
        cycles, pos = divmod(now - self.anchor_ns, self.cycle_ns)
        return (
            self.flips_before + cycles * self.count
            + bisect_right(self.offsets, pos)
        )

    def _duration(self, pos: int) -> int:
        nxt = self.offsets[pos + 1] if pos + 1 < self.count else self.cycle_ns
        return nxt - self.offsets[pos]

    def open_run_remaining(self, queue_id: int, now: int) -> Optional[int]:
        """Sim-ns until *queue_id*'s gate closes; None if it never does."""
        if now >= self.anchor_ns:
            closes = self.closes(queue_id)
            if closes is None:
                return None
            pos = (now - self.anchor_ns) % self.cycle_ns
            remaining = closes[bisect_right(self.offsets, pos) - 1] - pos
            return remaining if remaining > 0 else 0
        # The pre-anchor stretch: walk the entries from the anchor on.
        bit = 1 << queue_id
        if not self.mask_at(now) & bit:
            return 0
        total = self.anchor_ns - now
        for pos in range(self.count):
            if not self.masks[pos] & bit:
                return total
            total += self._duration(pos)
        return None

    def closes(self, queue_id: int) -> Optional[List[int]]:
        """Per segment, the cycle offset at which *queue_id*'s gate next
        closes (past ``cycle_ns`` when its run wraps; 0 where the gate is
        closed); None if the gate never closes."""
        if queue_id in self._closes:
            return self._closes[queue_id]
        bit = 1 << queue_id
        masks, n = self.masks, self.count
        closes: Optional[List[int]] = None
        if not all(mask & bit for mask in masks):
            closes = [0] * n
            # Twice round the cycle, backwards: ``upcoming`` is the start
            # of the nearest closed segment after position k.
            upcoming = 0
            for k in range(2 * n - 1, -1, -1):
                j = k % n
                if not masks[j] & bit:
                    upcoming = self.offsets[j] + (self.cycle_ns if k >= n else 0)
                elif k < n:
                    closes[j] = upcoming
        self._closes[queue_id] = closes
        return closes

    def fit(
        self, queue_id: int, needed_ns: int
    ) -> List[Tuple[int, Optional[int]]]:
        """Per segment, ``(latest, following)`` for a *needed_ns* frame.

        ``latest`` is the last cycle offset at which the frame still ends
        before the gate closes (-1 where it is closed); ``following`` the
        cycle offset (past ``cycle_ns``: next cycle) of the next run start
        after the segment whose run is long enough, None if none is.  Only
        run *starts* are candidates: within a run the remaining window
        only shrinks.
        """
        n, offsets = self.count, self.offsets
        closes = self.closes(queue_id)
        following: List[Optional[int]] = [None] * n
        if closes is None:  # never closes, so never opens either
            fit = [(self.cycle_ns, None)] * n
        else:
            starts = {
                offsets[j] for j in range(n)
                if closes[j] and not closes[j - 1]
                and closes[j] - offsets[j] >= needed_ns
            }
            if starts:
                upcoming = min(starts) + self.cycle_ns
                for j in range(n - 1, -1, -1):
                    following[j] = upcoming
                    if offsets[j] in starts:
                        upcoming = offsets[j]
            fit = [
                (close - needed_ns if close else -1, after)
                for close, after in zip(closes, following)
            ]
        self.fits[queue_id, needed_ns] = fit
        return fit

    def next_open_window(
        self, queue_id: int, needed_ns: int, now: int
    ) -> Optional[int]:
        """Delay until the next run start with length >= *needed_ns*; None
        when no window in the cycle ever fits the frame."""
        fit = self.fits.get((queue_id, needed_ns)) or self.fit(
            queue_id, needed_ns
        )
        if now < self.anchor_ns:  # the first fitting start after the anchor
            following = fit[-1][1]
            if following is None:
                return None
            return self.anchor_ns + following - self.cycle_ns - now
        pos = (now - self.anchor_ns) % self.cycle_ns
        following = fit[bisect_right(self.offsets, pos) - 1][1]
        return None if following is None else following - pos

    # ------------------------------------------------------------ rebuild

    def rebuilt(self, clock: LocalClock, now: int) -> "_WindowTable":
        """A new table reflecting the clock's current rate.

        The in-flight segment's committed end boundary is preserved (a
        port wakeup or a narration event may already be on the calendar
        for it); everything after is re-derived at the new rate.
        """
        mask, end, j = self.locate(now)
        flips = self.flips(now)
        if j < 0:
            # Still inside a previous rebuild's pre-anchor stretch: keep
            # the same committed boundary, refresh the rates beyond it.
            return _WindowTable(
                self.entries, clock, self.anchor_ns, self.base_index,
                self.pre_mask, flips,
            )
        entry_index = (self.base_index + j) % self.count
        return _WindowTable(
            self.entries, clock, anchor_ns=end,
            base_index=(entry_index + 1) % self.count,
            pre_mask=mask, flips_before=flips,
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
    tracer:
        If it enables ``gate`` when the engine starts, every table boundary
        is narrated to it.
    """

    def __init__(
        self,
        sim: Simulator,
        in_gcl: GateControlList,
        out_gcl: GateControlList,
        clock: Optional[LocalClock] = None,
        cqf_pairs: Sequence[CqfGroup] = (),
        tracer: Tracer = NULL_TRACER,
        name: str = "gate",
    ) -> None:
        self._sim = sim
        self._clock = clock or LocalClock(sim)
        self.in_gcl = in_gcl
        self.out_gcl = out_gcl
        self._set_groups(cqf_pairs)
        self._tracer = tracer
        self._name = name
        self._in_table: Optional[_WindowTable] = None
        self._out_table: Optional[_WindowTable] = None

    # ------------------------------------------------------------- lifecycle

    def program(
        self,
        in_entries: Sequence[GateEntry],
        out_entries: Sequence[GateEntry],
        cqf_pairs: Sequence[CqfGroup] = (),
    ) -> None:
        """Program both GCLs and the CQF group set (before ``start``)."""
        if self.started:
            raise ConfigurationError(f"{self._name}: already started")
        self.in_gcl.program(list(in_entries))
        self.out_gcl.program(list(out_entries))
        self._set_groups(cqf_pairs)

    def _set_groups(self, cqf_pairs: Sequence[CqfGroup]) -> None:
        #: queue id -> members of the first CQF group holding it.
        self._group_of: Dict[int, Tuple[int, ...]] = {}
        for group in cqf_pairs:
            for member in group.members:
                self._group_of.setdefault(member, group.members)

    def start(self) -> None:
        """Begin both GCL cycles at their first entries, now.

        A real TAS aligns the cycle to a configured base time; the testbed
        starts all engines at the same simulation instant, which is the
        aligned case (time sync experiments perturb the clocks instead).
        The owner of the port arbitrates it right after (``port.kick()``);
        later re-arbitration is demand-driven through the wake hints of
        :meth:`out_wait`.
        """
        if self.started:
            raise ConfigurationError(f"{self._name}: engine already started")
        if len(self.in_gcl) == 0 or len(self.out_gcl) == 0:
            raise ConfigurationError(
                f"{self._name}: both GCLs must be programmed before start"
            )
        now = self._sim.now
        self._in_table = _WindowTable(self.in_gcl.entries, self._clock, now)
        self._out_table = _WindowTable(self.out_gcl.entries, self._clock, now)
        subscribe = getattr(self._clock, "on_rate_change", None)
        if subscribe is not None:
            subscribe(self._on_rate_change)
        if self._tracer.enabled_for("gate"):
            self._narrate_in()
            self._narrate_out()

    @property
    def started(self) -> bool:
        return self._out_table is not None

    @property
    def event_mode(self) -> str:
        # Read by benchmarks/e2e only (its ``testbed.gate_mode`` flag); goes
        # with that flag in ROADMAP item 1c.
        return "table"

    def _on_rate_change(self) -> None:
        now = self._sim.now
        self._in_table = self._in_table.rebuilt(self._clock, now)
        self._out_table = self._out_table.rebuilt(self._clock, now)

    # ------------------------------------------------------------- narration

    def _narrate_in(self) -> None:
        """Narrate the in-GCL segment beginning now; post the next one."""
        self._narrate(self._in_table, self._narrate_in, "in")

    def _narrate_out(self) -> None:
        """Narrate the out-GCL segment beginning now; post the next one."""
        self._narrate(self._out_table, self._narrate_out, "out")

    def _narrate(
        self,
        table: _WindowTable,
        again: Callable[[], None],
        direction: str,
    ) -> None:
        """Report the segment of *table* beginning now and post *again* for
        its end -- so a rate change re-times every boundary but the
        committed one, exactly what the rebuilt table answers.
        """
        sim = self._sim
        now = sim._now
        mask, end, _pos = table.locate(now)
        sim.post(end - now, again, _NARRATION_PRIORITY)
        if self._tracer.active:
            self._tracer.emit(
                now, "gate", f"{self._name} {direction}-gates",
                mask=f"{mask:08b}",
            )

    # --------------------------------------------------------------- queries

    def flips(self, direction: str) -> int:
        """Boundaries the ``"in"`` or ``"out"`` GCL crossed since
        :meth:`start` (``gate_flips_total``); 0 before it."""
        table = self._in_table if direction == "in" else self._out_table
        return 0 if table is None else table.flips(self._sim._now)

    @property
    def in_mask(self) -> int:
        table = self._in_table
        return _ALL_OPEN if table is None else table.mask_at(self._sim._now)

    @property
    def out_mask(self) -> int:
        table = self._out_table
        return _ALL_OPEN if table is None else table.mask_at(self._sim._now)

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
        table = self._in_table
        now = self._sim._now
        if table is None:
            in_mask = _ALL_OPEN
        elif now < table.anchor_ns:
            in_mask = table.mask_at(now)
        else:  # mask_at, inlined: one lookup per frame per hop
            in_mask = table.masks[bisect_right(
                table.offsets, (now - table.anchor_ns) % table.cycle_ns
            ) - 1]
        members = self._group_of.get(queue_id)
        if members is None:
            return queue_id if in_mask >> queue_id & 1 else None
        for member in members:
            if in_mask >> member & 1:
                return member
        return None

    def out_wait(self, queue_id: int, needed_ns: int) -> Optional[int]:
        """The arbiter's one gate query for a *needed_ns* frame: 0 if it
        may start now (the 802.1Qbv window guard), else the sim-ns until
        :meth:`next_out_open_window`, None if no window ever fits it --
        :meth:`time_until_out_close` and that, in one bisect."""
        table = self._out_table
        if table is None or needed_ns <= 0:
            return 0  # not started: every gate is open, none closes
        now = self._sim._now
        if now < table.anchor_ns:
            window = table.open_run_remaining(queue_id, now)
            if window is None or needed_ns <= window:
                return 0
            return table.next_open_window(queue_id, needed_ns, now)
        fit = table.fits.get((queue_id, needed_ns)) or table.fit(
            queue_id, needed_ns
        )
        pos = (now - table.anchor_ns) % table.cycle_ns
        latest, following = fit[bisect_right(table.offsets, pos) - 1]
        if pos <= latest:
            return 0
        return None if following is None else following - pos

    def time_until_out_close(self, queue_id: int) -> Optional[int]:
        """Sim-ns until *queue_id*'s out-gate closes; None if it never does.

        Used by the egress scheduler's guard band: a frame is started only
        if its serialization completes before the gate closes, preventing
        slot overruns (802.1Qbv transmission-window check).
        """
        table = self._out_table
        if table is None:
            return None  # not started: every gate is open, none closes
        return table.open_run_remaining(queue_id, self._sim._now)

    def next_out_open_window(
        self, queue_id: int, needed_ns: int = 0
    ) -> Optional[int]:
        """Sim-ns until the next out-gate window fitting *needed_ns* opens.

        The wake hint of a blocked arbitration: the earliest future
        closed->open transition of *queue_id* whose contiguous open run is
        at least *needed_ns* long.  None when no such window exists in the
        cycle (the frame can never transmit) or before :meth:`start`
        (nothing is closed).
        """
        table = self._out_table
        if table is None:
            return None
        return table.next_open_window(queue_id, needed_ns, self._sim._now)
