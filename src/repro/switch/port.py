"""One TSN egress port: queues, gates, shapers, buffer pool, transmitter.

The egress port is where the customized resources physically live (paper
Fig. 4): its 8 metadata queues of ``queue_depth`` descriptors, its pool of
``buffer_num`` 2048 B slots, its in/out GCL pair, and its CBS shapers.

Life of a frame here:

``enqueue()``  gate-selects the target queue (CQF redirects to the gathering
queue of the current slot), claims a buffer slot, appends the descriptor,
and arbitrates.  ``_start_transmission()`` dequeues the winner, occupies the
wire for the frame's serialization time plus preamble/IFG overhead, hands
the frame to the attached link at last-bit time, releases the buffer slot,
and re-arbitrates.

Optionally the port implements **frame preemption** (802.1Qbu / 802.3br):
queues in ``express_queues`` form the express MAC; everything else is
preemptable.  When an express frame becomes eligible while a preemptable
frame is on the wire, transmission is cut at the next 64 B fragment
boundary (provided both fragments stay >= 64 B), the express traffic runs,
and the preempted frame resumes afterwards with the extra per-fragment
wire overhead the standard charges.  This removes the one-MTU head-of-line
blocking that is otherwise the only background interference TS traffic
sees -- the residual jitter visible in the paper's Fig. 2 / Fig. 7(d).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.errors import ConfigurationError, SimulationError
from repro.core.units import serialization_ns, wire_bytes
from repro.obs.flowspans import FlowSpanRecorder
from repro.obs.headroom import PortHeadroomProbes
from repro.obs.instruments import PortInstruments
from repro.sim.kernel import EventHandle, Simulator
from repro.sim.trace import NULL_TRACER, Tracer
from .counters import SwitchCounters
from .gates import GATE_EVENT_PRIORITY, GateEngine
from .packet import Descriptor, EthernetFrame
from .queueing import BufferPool, MetadataQueue
from .scheduler import SchedulerDecision, StrictPriorityScheduler
from .shaper import CreditBasedShaper

__all__ = ["EgressPort", "MIN_FRAGMENT_BYTES", "RESUME_OVERHEAD_BYTES"]

#: Deliver callback: invoked when the frame's last bit leaves this port.
DeliverFn = Callable[[EthernetFrame], None]

#: 802.3br: every fragment must carry at least this much frame data.
MIN_FRAGMENT_BYTES = 64

#: First-fragment wire overhead equals a normal frame's (preamble/SMD + IFG);
#: each continuation fragment adds its own SMD-C preamble, frag count and
#: mCRC on top -- modelled as this many extra wire bytes per resume.
RESUME_OVERHEAD_BYTES = 24

#: Wire bytes occupied after a preemption cut (mCRC + IFG) before the
#: express frame's preamble may start.
CUT_TAIL_BYTES = 16

#: Wire overhead of an unfragmented frame (preamble/SFD + IFG).
_FRAME_OVERHEAD_BYTES = wire_bytes(0)

#: Shared idle decision for ports without express queues.
_NO_EXPRESS = SchedulerDecision(None)


class _WireTime(dict):
    """Frame bytes -> wire ns at ``rate_bps`` (the ceiling of bits/rate),
    each size worked out on first use: a port sees a handful."""

    rate_bps: int

    def __missing__(self, frame_bytes: int) -> int:
        ns = self[frame_bytes] = -(
            -frame_bytes * 8_000_000_000 // self.rate_bps
        )
        return ns


class _ActiveTx:
    """Bookkeeping of the fragment currently on the wire."""

    __slots__ = (
        "descriptor", "queue_id", "preemptable", "bytes_done",
        "fragment_start_ns", "fragment_data_bytes", "data_done_handle",
        "idle_handle", "cut_scheduled",
    )

    def __init__(
        self, descriptor: Descriptor, queue_id: int, preemptable: bool
    ) -> None:
        self.descriptor = descriptor
        self.queue_id = queue_id
        self.preemptable = preemptable
        self.bytes_done = 0  # frame bytes completed in earlier fragments
        # Set per fragment by ``_begin_fragment``; the handles only under
        # preemption (the one thing that cancels them).
        self.fragment_start_ns = 0
        self.fragment_data_bytes = 0  # frame bytes this fragment carries
        self.data_done_handle: Optional[EventHandle] = None
        self.idle_handle: Optional[EventHandle] = None
        self.cut_scheduled = False


class EgressPort:
    """The transmit side of one enabled TSN port."""

    # A dataplane object built once per port: slots keep it at a fixed size
    # instead of a per-instance dict (which outgrows CPython's key-sharing
    # layout past 30 keys).
    __slots__ = (
        "_sim", "port_id", "rate_bps", "_serialization_ns", "queues", "pool",
        "gates", "scheduler", "counters", "preemption_enabled",
        "express_queues", "preemptions", "_tracer", "_obs", "_spans",
        "_headroom", "name", "_deliver", "_busy_until", "_retry_armed_at",
        "_gate_wake_at", "_active", "_suspended", "_resident", "_idle_seq",
        "_queue_by_id", "_express_list", "_shapers", "_watched",
    )

    def __init__(
        self,
        sim: Simulator,
        port_id: int,
        rate_bps: int,
        queues: List[MetadataQueue],
        buffer_pool: BufferPool,
        gates: GateEngine,
        scheduler: StrictPriorityScheduler,
        counters: Optional[SwitchCounters] = None,
        preemption_enabled: bool = False,
        express_queues: Tuple[int, ...] = (6, 7),
        tracer: Tracer = NULL_TRACER,
        instruments: Optional[PortInstruments] = None,
        spans: Optional[FlowSpanRecorder] = None,
        headroom: Optional[PortHeadroomProbes] = None,
        name: str = "port",
    ) -> None:
        if rate_bps <= 0:
            raise ConfigurationError(f"port rate must be positive, got {rate_bps}")
        if not queues:
            raise ConfigurationError("port needs at least one queue")
        self._sim = sim
        self.port_id = port_id
        self.rate_bps = rate_bps
        #: Wire time of a frame size: a dict lookup, handed to the arbiter
        #: once per backlogged queue.
        wire_time = _WireTime()
        wire_time.rate_bps = rate_bps
        self._serialization_ns = wire_time.__getitem__
        self.queues = queues
        self.pool = buffer_pool
        self.gates = gates
        self.scheduler = scheduler
        self.counters = counters or SwitchCounters()
        self.preemption_enabled = preemption_enabled
        self.express_queues: Set[int] = set(express_queues)
        self.preemptions = 0
        self._tracer = tracer
        self._obs = instruments
        self._spans = spans
        self._headroom = headroom
        self.name = name
        self._deliver: Optional[DeliverFn] = None
        self._busy_until = 0
        self._retry_armed_at: Optional[int] = None
        self._gate_wake_at: Optional[int] = None
        self._active: Optional[_ActiveTx] = None
        self._suspended: Optional[_ActiveTx] = None
        #: Descriptors resident in ``queues`` (only ``enqueue`` and
        #: ``_start_transmission`` move them); zero means nothing to
        #: arbitrate.
        self._resident = 0
        #: Calendar position reserved for the current transmission's
        #: ``_tx_idle`` while that event is elided (see :meth:`kick`).
        self._idle_seq: Optional[int] = None
        self._queue_by_id: Dict[int, MetadataQueue] = {
            q.queue_id: q for q in queues
        }
        self._express_list = [
            q for q in queues if q.queue_id in self.express_queues
        ]
        #: The scheduler's shaper map itself: ``program_cbs`` fills it in
        #: place, and an empty map skips every credit update.
        self._shapers = scheduler.shapers
        #: Does anything watch this port?  Fixed at construction; when
        #: nothing does, a hop touches none of the observer fields.
        self._watched = (
            instruments is not None or spans is not None
            or headroom is not None or tracer.active
        )

    # ---------------------------------------------------------------- wiring

    def attach(self, deliver: DeliverFn) -> None:
        """Connect the transmit side to a link's receive path."""
        if self._deliver is not None:
            raise ConfigurationError(f"{self.name}: already attached to a link")
        self._deliver = deliver

    def detach(self) -> None:
        """Disconnect the transmit side (testbed teardown); idempotent."""
        self._deliver = None

    # --------------------------------------------------------------- ingress

    def enqueue(self, frame: EthernetFrame, queue_id: int) -> bool:
        """Admit *frame* toward queue *queue_id*; False if dropped.

        Applies, in order: gate-based queue selection (CQF redirect or
        802.1Qci-style gate filtering), buffer allocation, and the queue's
        depth bound.  Every drop is counted in both the port counters and
        the specific queue/pool stats.
        """
        target_id = self.gates.select_enqueue_queue(queue_id)
        if target_id is None:
            self.counters.dropped_gate += 1
            queue = self._queue_by_id.get(queue_id)
            if queue is not None:
                queue.stats.gate_drops += 1
            self._note_drop("gate", frame)
            return False
        queue = self._queue_by_id.get(target_id)
        if queue is None:
            raise SimulationError(
                f"{self.name}: gate selected unknown queue {target_id}"
            )
        pool = self.pool
        slot = pool.allocate(frame.size_bytes)
        if slot is None:
            self.counters.dropped_no_buffer += 1
            self._note_drop("no_buffer", frame)
            return False
        now = self._sim._now
        if not queue.enqueue(Descriptor(frame, slot, now, target_id)):
            pool.release(slot)
            self.counters.dropped_tail += 1
            self._note_drop("tail", frame)
            return False
        self._resident += 1
        # ``counters.note_enqueue``, inlined: once per frame per hop.
        per_queue = self.counters.per_queue_enqueued
        per_queue[target_id] = per_queue.get(target_id, 0) + 1
        if self._watched:
            occupancy = len(queue._fifo)
            headroom = self._headroom
            if headroom is not None:
                headroom.queues[target_id].update(now, occupancy)
                headroom.pool.update(now, pool.in_use)
            if self._spans is not None:
                self._spans.record(now, "enqueue", self.name, frame, target_id)
            if self._tracer.active:
                self._tracer.emit(
                    now,
                    "queue",
                    f"{self.name} enqueue",
                    queue=target_id,
                    occupancy=occupancy,
                    flow=frame.flow_id,
                )
        if self._shapers:
            shaper = self._shapers.get(target_id)
            if shaper is not None:
                shaper.set_backlog(now, True)
        self.kick()
        return True

    def _note_drop(self, reason: str, frame: EthernetFrame) -> None:
        if self._obs is not None:
            self._obs.on_drop(reason)
        if self._spans is not None:
            self._spans.record(self._sim._now, "drop", self.name, frame)

    # ---------------------------------------------------------------- egress

    def kick(self) -> None:
        """(Re-)arbitrate; called on enqueue, gate wakeups, tx completion.

        While a preemptable fragment occupies the wire, an eligible express
        frame triggers a preemption cut instead of waiting.  When idle, the
        order is: express traffic, then the resumption of a suspended
        preemptable frame, then everything else (802.3br: the preemptable
        MAC finishes its mPacket before starting a new preemptable frame).

        The gate engine posts no events of its own, so whenever an
        arbitration blocks on a gate this method arms a one-shot wakeup at
        the blocked frame's next usable window (the scheduler's
        ``gate_wake_delay_ns`` hint).

        Arbitration is demand-driven: a port with no resident descriptor
        returns before consulting the scheduler, and (without preemption) a
        transmission that leaves the port empty posts no ``_tx_idle`` --
        that event would only re-arbitrate nothing.  It keeps its calendar
        position reserved instead, and the first kick that finds backlog
        while the wire is still occupied posts it there, so it fires in
        exactly the order an eager post would have given it.
        """
        sim = self._sim
        now = sim._now
        if now < self._busy_until:
            if self._resident and self._idle_seq is not None:
                seq, self._idle_seq = self._idle_seq, None
                sim.post_reserved(self._busy_until, seq, self._tx_idle)
            if (
                self.preemption_enabled
                and self._active is not None
                and self._active.preemptable
                and not self._active.cut_scheduled
            ):
                express = self._express_select()
                if express.queue_id is not None:
                    self._schedule_cut()
                elif express.gate_wake_delay_ns is not None:
                    # An express frame could preempt once its gate opens
                    # mid-transmission; wake up to cut exactly then.
                    self._arm_gate_wake(express.gate_wake_delay_ns)
            return
        if not self._resident and self._suspended is None:
            return
        if self.preemption_enabled:
            express = self._express_select()
            if express.queue_id is not None:
                self._start_transmission(self._queue_by_id[express.queue_id])
                return
            suspended = self._suspended
            if suspended is not None:
                # Wake when the remainder next fits its gate, if not now.
                wait = self.gates.out_wait(
                    suspended.queue_id,
                    self._serialization_ns(
                        suspended.descriptor.size_bytes - suspended.bytes_done
                    ),
                )
                if wait == 0:
                    self._resume(suspended)
                    return
                if wait is not None:
                    self._arm_gate_wake(wait)
                if express.gate_wake_delay_ns is not None:
                    self._arm_gate_wake(express.gate_wake_delay_ns)
                return  # preemptable MAC is committed to the suspended frame
        decision = self.scheduler.select(
            now, self.queues, self.gates, self._serialization_ns
        )
        if decision.queue_id is not None:
            self._start_transmission(self._queue_by_id[decision.queue_id])
            return
        if decision.retry_delay_ns is not None:
            self._arm_retry(decision.retry_delay_ns)
        if decision.gate_wake_delay_ns is not None:
            self._arm_gate_wake(decision.gate_wake_delay_ns)

    def _express_select(self) -> SchedulerDecision:
        """Arbitration over the express queues only."""
        if not self._express_list:
            return _NO_EXPRESS
        return self.scheduler.select(
            self._sim._now,
            self._express_list,
            self.gates,
            self._serialization_ns,
        )

    def _arm_retry(self, delay_ns: int) -> None:
        when = self._sim._now + max(1, delay_ns)
        if self._retry_armed_at is not None and self._retry_armed_at <= when:
            return  # an earlier-or-equal retry is already pending
        self._retry_armed_at = when
        self._sim.post_at(when, self._retry_fire)

    def _retry_fire(self) -> None:
        self._retry_armed_at = None
        self.kick()

    def _arm_gate_wake(self, delay_ns: int) -> None:
        """One-shot re-arbitration when a blocked-on gate window opens.

        Fires at :data:`GATE_EVENT_PRIORITY`, ahead of same-time frame
        events: the backlog the window releases is arbitrated before a
        frame arriving at that very boundary.  Deduplicated: an
        already-armed earlier-or-equal wakeup is reused.
        """
        when = self._sim._now + delay_ns
        if self._gate_wake_at is not None and self._gate_wake_at <= when:
            return
        self._gate_wake_at = when
        self._sim.post_at(when, self._gate_wake_fire, GATE_EVENT_PRIORITY)

    def _gate_wake_fire(self) -> None:
        self._gate_wake_at = None
        self.kick()

    # -------------------------------------------------------- transmission

    def _begin_fragment(
        self,
        tx: _ActiveTx,
        data_bytes: int,
        overhead_bytes: int,
    ) -> None:
        """Put one fragment (possibly the whole frame) on the wire."""
        if self._deliver is None:
            raise SimulationError(f"{self.name}: transmitting with no link")
        sim = self._sim
        now = sim._now
        data_time = self._serialization_ns(data_bytes)
        wire_time = self._serialization_ns(data_bytes + overhead_bytes)
        tx.fragment_start_ns = now
        tx.fragment_data_bytes = data_bytes
        tx.cut_scheduled = False
        self._busy_until = now + wire_time
        if self.preemption_enabled:
            tx.data_done_handle = sim.schedule(
                data_time, lambda: self._fragment_data_done(tx)
            )
            tx.idle_handle = sim.schedule(wire_time, self._tx_idle)
            self._active = tx
            return
        # Only a preemption cut ever cancels these, so without preemption
        # they go fire-and-forget -- and the idle event only if there is
        # backlog for it to arbitrate; otherwise see :meth:`kick`.
        sim.post(data_time, lambda: self._fragment_data_done(tx))
        if self._resident:
            sim.post(wire_time, self._tx_idle)
            self._idle_seq = None
        else:
            self._idle_seq = sim.reserve_seq()

    def _start_transmission(self, queue: MetadataQueue) -> None:
        descriptor = queue.dequeue()
        self._resident -= 1
        queue_id = queue.queue_id
        now = self._sim._now
        if self._watched:
            if self._obs is not None:
                self._obs.residence[queue_id].observe(
                    now - descriptor.enqueued_ns
                )
            if self._headroom is not None:
                self._headroom.queues[queue_id].update(now, len(queue._fifo))
            if self._spans is not None:
                self._spans.record(
                    now, "dequeue", self.name, descriptor.frame, queue_id
                )
            if self._tracer.active:
                self._tracer.emit(
                    now,
                    "tx",
                    f"{self.name} start",
                    queue=queue_id,
                    flow=descriptor.frame.flow_id,
                    bytes=descriptor.size_bytes,
                )
        if self._shapers:
            shaper = self._shapers.get(queue_id)
            if shaper is not None:
                shaper.begin_transmission(now)
        preemptable = (
            self.preemption_enabled
            and queue_id not in self.express_queues
        )
        self._begin_fragment(
            _ActiveTx(descriptor, queue_id, preemptable),
            data_bytes=descriptor.size_bytes,
            overhead_bytes=_FRAME_OVERHEAD_BYTES,
        )

    def _resume(self, tx: _ActiveTx) -> None:
        """Continue a preempted frame with a continuation fragment."""
        self._suspended = None
        remaining = tx.descriptor.size_bytes - tx.bytes_done
        shaper = self._shapers.get(tx.queue_id)
        if shaper is not None:
            shaper.begin_transmission(self._sim.now)
        if self._tracer.active:
            self._tracer.emit(
                self._sim.now,
                "tx",
                f"{self.name} resume",
                queue=tx.queue_id,
                flow=tx.descriptor.frame.flow_id,
                remaining=remaining,
            )
        self._begin_fragment(
            tx,
            data_bytes=remaining,
            overhead_bytes=RESUME_OVERHEAD_BYTES,
        )

    # ----------------------------------------------------------- preemption

    def _schedule_cut(self) -> None:
        """Arrange to stop the active preemptable fragment at a legal
        boundary (both resulting fragments >= 64 B of frame data)."""
        tx = self._active
        assert tx is not None
        now = self._sim.now
        elapsed = now - tx.fragment_start_ns
        on_wire = elapsed * self.rate_bps // (8 * 10**9)
        cut_data = max(
            MIN_FRAGMENT_BYTES,
            -(-max(on_wire + 1, 1) // MIN_FRAGMENT_BYTES)
            * MIN_FRAGMENT_BYTES,
        )
        total_done_after = tx.bytes_done + cut_data
        if tx.descriptor.size_bytes - total_done_after < MIN_FRAGMENT_BYTES:
            return  # too close to the end; let the frame finish
        if cut_data >= tx.fragment_data_bytes:
            return
        tx.cut_scheduled = True
        tx.data_done_handle.cancel()
        tx.idle_handle.cancel()
        cut_time = tx.fragment_start_ns + self._serialization_ns(cut_data)
        tail_time = self._serialization_ns(CUT_TAIL_BYTES)
        self._busy_until = cut_time + tail_time
        self._sim.post_at(cut_time, lambda: self._execute_cut(tx, cut_data))
        self._sim.post_at(cut_time + tail_time, self._tx_idle)

    def _execute_cut(self, tx: _ActiveTx, cut_data: int) -> None:
        tx.bytes_done += cut_data
        self.preemptions += 1
        shaper = self._shapers.get(tx.queue_id)
        if shaper is not None:
            shaper.end_transmission(
                self._sim.now, not self._queue_by_id[tx.queue_id].empty
            )
        if self._tracer.active:
            self._tracer.emit(
                self._sim.now,
                "tx",
                f"{self.name} preempt",
                queue=tx.queue_id,
                flow=tx.descriptor.frame.flow_id,
                done=tx.bytes_done,
            )
        self._active = None
        self._suspended = tx

    # ----------------------------------------------------------- completion

    def _fragment_data_done(self, tx: _ActiveTx) -> None:
        """Last data bit of the fragment left; final fragments deliver."""
        tx.bytes_done += tx.fragment_data_bytes
        descriptor = tx.descriptor
        if tx.bytes_done < descriptor.size_bytes:
            raise SimulationError(
                f"{self.name}: fragment accounting out of sync"
            )
        pool = self.pool
        pool.release(descriptor.buffer_slot)
        self.counters.transmitted += 1
        now = self._sim._now
        if self._watched:
            if self._headroom is not None:
                self._headroom.pool.update(now, pool.in_use)
            if self._spans is not None:
                self._spans.record(
                    now, "tx", self.name, descriptor.frame, tx.queue_id
                )
        if self._shapers:
            shaper = self._shapers.get(tx.queue_id)
            if shaper is not None:
                shaper.end_transmission(
                    now, bool(self._queue_by_id[tx.queue_id]._fifo)
                )
        assert self._deliver is not None
        self._deliver(descriptor.frame)

    def _tx_idle(self) -> None:
        """Wire overhead elapsed: the port may carry the next fragment."""
        if self._active is not None and not self._active.cut_scheduled:
            self._active = None
        self.kick()

    # --------------------------------------------------------------- queries

    @property
    def busy(self) -> bool:
        return self._sim.now < self._busy_until

    def backlog_frames(self) -> int:
        return self._resident

    def backlog_bytes(self) -> int:
        return sum(d.size_bytes for q in self.queues for d in q)
