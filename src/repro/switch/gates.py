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

Gate state is *looked up* at the current instant, never latched, and the
engine posts **no periodic events**.  Re-arbitration is demand-driven:
when arbitration blocks on a gate it asks
:meth:`GateEngine.next_out_open_window` for the next usable window and the
port posts itself a single wakeup at that boundary (at
:data:`GATE_EVENT_PRIORITY`).

Observers that want every transition get *narration*: when, at
:meth:`GateEngine.start`, the tracer enables ``gate`` or port instruments
are attached, a chain of one event per table boundary emits the ``gate``
trace record and bumps ``gate_flips_total``.  A narration event changes no
state and wakes nobody -- frame-level behaviour is the same with and
without it -- and it fires one priority step ahead of the port wakeups of
its instant, so a streamed trace reads gate-then-tx.  Without a subscriber
the chain does not exist.

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
    """

    __slots__ = (
        "entries", "count", "offsets", "masks", "cycle_ns", "anchor_ns",
        "base_index", "pre_mask", "_runs", "_fitting",
    )

    def __init__(
        self,
        entries: Tuple[GateEntry, ...],
        clock: LocalClock,
        anchor_ns: int,
        base_index: int = 0,
        pre_mask: Optional[int] = None,
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

    def _duration(self, pos: int) -> int:
        nxt = self.offsets[pos + 1] if pos + 1 < self.count else self.cycle_ns
        return nxt - self.offsets[pos]

    def open_run_remaining(self, queue_id: int, now: int) -> Optional[int]:
        """Sim-ns until *queue_id*'s gate closes; None if it never does."""
        bit = 1 << queue_id
        mask, end, j = self.locate(now)
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
        frame (it will never become eligible).
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

        The in-flight segment's committed end boundary is preserved (a
        port wakeup or a narration event may already be on the calendar
        for it); everything after is re-derived at the new rate.
        """
        mask, end, j = self.locate(now)
        if j < 0:
            # Still inside a previous rebuild's pre-anchor stretch: keep
            # the same committed boundary, refresh the rates beyond it.
            return _WindowTable(
                self.entries, clock, self.anchor_ns, self.base_index,
                self.pre_mask,
            )
        entry_index = (self.base_index + j) % self.count
        return _WindowTable(
            self.entries, clock, anchor_ns=end,
            base_index=(entry_index + 1) % self.count,
            pre_mask=mask,
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
    tracer, instruments:
        If the tracer enables ``gate`` or *instruments* is given when the
        engine starts, every table boundary is narrated to them.
    """

    def __init__(
        self,
        sim: Simulator,
        in_gcl: GateControlList,
        out_gcl: GateControlList,
        clock: Optional[LocalClock] = None,
        cqf_pairs: Sequence[CqfGroup] = (),
        tracer: Tracer = NULL_TRACER,
        instruments: Optional[PortInstruments] = None,
        name: str = "gate",
    ) -> None:
        self._sim = sim
        self._clock = clock or LocalClock(sim)
        self.in_gcl = in_gcl
        self.out_gcl = out_gcl
        self._cqf_pairs = list(cqf_pairs)
        self._tracer = tracer
        self._obs = instruments
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
        self._cqf_pairs = list(cqf_pairs)

    def start(self) -> None:
        """Begin both GCL cycles at their first entries, now.

        A real TAS aligns the cycle to a configured base time; the testbed
        starts all engines at the same simulation instant, which is the
        aligned case (time sync experiments perturb the clocks instead).
        The owner of the port arbitrates it right after (``port.kick()``);
        later re-arbitration is demand-driven through
        :meth:`next_out_open_window` wake hints.
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
        if self._tracer.enabled_for("gate") or self._obs is not None:
            self._narrate_in(boundary=False)
            self._narrate_out(boundary=False)

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

    def _narrate_in(self, boundary: bool = True) -> None:
        """Narrate the in-GCL segment beginning now; post the next one."""
        self._narrate(self._in_table, self._narrate_in, "in", boundary)

    def _narrate_out(self, boundary: bool = True) -> None:
        """Narrate the out-GCL segment beginning now; post the next one."""
        self._narrate(self._out_table, self._narrate_out, "out", boundary)

    def _narrate(
        self,
        table: _WindowTable,
        again: Callable[[], None],
        direction: str,
        boundary: bool,
    ) -> None:
        """Report the segment of *table* beginning now and post *again* for
        its end -- so a rate change re-times every boundary but the
        committed one, exactly what the rebuilt table answers.
        """
        sim = self._sim
        now = sim.now
        mask, end, _pos = table.locate(now)
        sim.post(end - now, again, _NARRATION_PRIORITY)
        if boundary and self._obs is not None:
            self._obs.on_gate_flip(direction)
        if self._tracer.active:
            self._tracer.emit(
                now, "gate", f"{self._name} {direction}-gates",
                mask=f"{mask:08b}",
            )

    # --------------------------------------------------------------- queries

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
