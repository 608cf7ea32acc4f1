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

    @property
    def total_bytes(self) -> int:
        return self.descriptor.size_bytes


class EgressPort:
    """The transmit side of one enabled TSN port."""

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

    # ---------------------------------------------------------------- wiring

    def attach(self, deliver: DeliverFn) -> None:
        """Connect the transmit side to a link's receive path."""
        if self._deliver is not None:
            raise ConfigurationError(f"{self.name}: already attached to a link")
        self._deliver = deliver

    @property
    def attached(self) -> bool:
        return self._deliver is not None

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
            if self._obs is not None:
                self._obs.on_drop("gate")
            if self._spans is not None:
                self._spans.record(self._sim.now, "drop", self.name, frame)
            return False
        queue = self._queue_by_id.get(target_id)
        if queue is None:
            raise SimulationError(
                f"{self.name}: gate selected unknown queue {target_id}"
            )
        slot = self.pool.allocate(frame.size_bytes)
        if slot is None:
            self.counters.dropped_no_buffer += 1
            if self._obs is not None:
                self._obs.on_drop("no_buffer")
            if self._spans is not None:
                self._spans.record(self._sim.now, "drop", self.name, frame)
            return False
        descriptor = Descriptor(
            frame=frame,
            buffer_slot=slot,
            enqueued_ns=self._sim._now,
            queue_id=target_id,
        )
        if not queue.enqueue(descriptor):
            self.pool.release(slot)
            self.counters.dropped_tail += 1
            if self._obs is not None:
                self._obs.on_drop("tail")
            if self._spans is not None:
                self._spans.record(self._sim.now, "drop", self.name, frame)
            return False
        self._resident += 1
        self.counters.note_enqueue(target_id)
        if self._obs is not None:
            self._obs.on_enqueue(target_id, len(queue))
            self._obs.on_buffer(self.pool.in_use)
        if self._headroom is not None:
            now = self._sim.now
            self._headroom.on_queue(target_id, len(queue), now)
            self._headroom.on_buffer(self.pool.in_use, now)
        if self._spans is not None:
            self._spans.record(
                self._sim.now, "enqueue", self.name, frame, target_id
            )
        self._update_shaper_backlog(target_id)
        if self._tracer.active:
            self._tracer.emit(
                self._sim.now,
                "queue",
                f"{self.name} enqueue",
                queue=target_id,
                occupancy=len(queue),
                flow=frame.flow_id,
            )
        self.kick()
        return True

    def _update_shaper_backlog(self, queue_id: int) -> None:
        shaper = self.scheduler.shapers.get(queue_id)
        if shaper is not None:
            shaper.set_backlog(
                self._sim._now, not self._queue_by_id[queue_id].empty
            )

    # ---------------------------------------------------------------- egress

    def _serialization_ns(self, frame_bytes: int) -> int:
        # Inlined :func:`repro.core.units.serialization_ns` (ceil of
        # bits/rate); called once per arbitration-eligibility check.
        return -(-frame_bytes * 8_000_000_000 // self.rate_bps)

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
        if sim._now < self._busy_until:
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
            if self._suspended is not None:
                if self._can_resume(self._suspended):
                    self._resume(self._suspended)
                else:
                    self._arm_resume_wake(self._suspended)
                    if express.gate_wake_delay_ns is not None:
                        self._arm_gate_wake(express.gate_wake_delay_ns)
                return  # preemptable MAC is committed to the suspended frame
        decision = self.scheduler.select(
            sim._now, self.queues, self.gates, self._serialization_ns
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
            self._sim.now,
            self._express_list,
            self.gates,
            self._serialization_ns,
        )

    def _arm_retry(self, delay_ns: int) -> None:
        when = self._sim.now + max(1, delay_ns)
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
        when = self._sim.now + delay_ns
        if self._gate_wake_at is not None and self._gate_wake_at <= when:
            return
        self._gate_wake_at = when
        self._sim.post_at(when, self._gate_wake_fire, GATE_EVENT_PRIORITY)

    def _gate_wake_fire(self) -> None:
        self._gate_wake_at = None
        self.kick()

    def _arm_resume_wake(self, tx: _ActiveTx) -> None:
        """Wake when the suspended frame's remainder next fits its gate."""
        remaining = tx.total_bytes - tx.bytes_done
        wait = self.gates.next_out_open_window(
            tx.queue_id, self._serialization_ns(remaining)
        )
        if wait is not None:
            self._arm_gate_wake(wait)

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
        now = self._sim._now
        if self._obs is not None:
            self._obs.on_dequeue(
                queue.queue_id, len(queue), now - descriptor.enqueued_ns
            )
        if self._headroom is not None:
            self._headroom.on_queue(queue.queue_id, len(queue), now)
        if self._spans is not None:
            self._spans.record(
                now, "dequeue", self.name, descriptor.frame, queue.queue_id
            )
        shaper = self.scheduler.shapers.get(queue.queue_id)
        if shaper is not None:
            shaper.begin_transmission(now)
        preemptable = (
            self.preemption_enabled
            and queue.queue_id not in self.express_queues
        )
        if self._tracer.active:
            self._tracer.emit(
                now,
                "tx",
                f"{self.name} start",
                queue=queue.queue_id,
                flow=descriptor.frame.flow_id,
                bytes=descriptor.size_bytes,
            )
        self._begin_fragment(
            _ActiveTx(descriptor, queue.queue_id, preemptable),
            data_bytes=descriptor.size_bytes,
            overhead_bytes=_FRAME_OVERHEAD_BYTES,
        )

    def _can_resume(self, tx: _ActiveTx) -> bool:
        remaining = tx.total_bytes - tx.bytes_done
        # Fused gate query: 0 = closed, None = open forever.
        window = self.gates.time_until_out_close(tx.queue_id)
        needed = self._serialization_ns(remaining)
        return window is None or needed <= window

    def _resume(self, tx: _ActiveTx) -> None:
        """Continue a preempted frame with a continuation fragment."""
        self._suspended = None
        remaining = tx.total_bytes - tx.bytes_done
        shaper = self.scheduler.shapers.get(tx.queue_id)
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
        if tx.total_bytes - total_done_after < MIN_FRAGMENT_BYTES:
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
        shaper = self.scheduler.shapers.get(tx.queue_id)
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
        if tx.bytes_done < tx.total_bytes:
            raise SimulationError(
                f"{self.name}: fragment accounting out of sync"
            )
        self.pool.release(tx.descriptor.buffer_slot)
        self.counters.transmitted += 1
        if self._obs is not None:
            self._obs.on_buffer(self.pool.in_use)
            self._obs.on_transmitted()
        if self._headroom is not None:
            self._headroom.on_buffer(self.pool.in_use, self._sim.now)
        if self._spans is not None:
            self._spans.record(
                self._sim.now, "tx", self.name, tx.descriptor.frame,
                tx.queue_id
            )
        shaper = self.scheduler.shapers.get(tx.queue_id)
        if shaper is not None:
            shaper.end_transmission(
                self._sim.now, not self._queue_by_id[tx.queue_id].empty
            )
        assert self._deliver is not None
        self._deliver(tx.descriptor.frame)

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
