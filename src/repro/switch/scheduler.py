"""The Egress Sched's arbitration: strict priority + gates + CBS.

Per transmission opportunity the scheduler scans queues from the highest id
(the highest priority, per 802.1Q convention) downward and starts the first
queue that passes all three eligibility checks:

1. **Backlog** -- the queue holds a descriptor.
2. **Gate** -- the queue's out-gate is open *and* the head frame's
   serialization finishes before the gate closes again (the 802.1Qbv
   transmission-window guard; this is what keeps CQF slots overrun-free).
3. **Credit** -- if the queue is CBS-mapped, its shaper credit is >= 0.

The decision also carries *retry hints*: when nothing is eligible but some
queue was blocked purely on CBS credit, ``retry_delay_ns`` says when credit
recovers so the port can arm a re-arbitration event instead of polling.
Queues blocked on a closed gate or a too-short gate window additionally
produce ``gate_wake_delay_ns`` -- the earliest future window that fits the
blocked head frame (see :mod:`repro.switch.gates`) -- so the port wakes at
exactly the boundary that makes the frame eligible and at no other.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, NamedTuple, Optional, Sequence

from .gates import GateEngine
from .queueing import MetadataQueue
from .shaper import CreditBasedShaper

__all__ = ["SchedulerDecision", "StrictPriorityScheduler"]


class SchedulerDecision(NamedTuple):
    """Outcome of one arbitration (immutable, so instances are shared)."""

    queue_id: Optional[int]
    retry_delay_ns: Optional[int] = None
    gate_wake_delay_ns: Optional[int] = None

    @property
    def idle(self) -> bool:
        return self.queue_id is None


#: "Nothing pending, nothing to wait for."
_IDLE = SchedulerDecision(None)


@lru_cache(maxsize=None)
def _wins(queue_id: int) -> SchedulerDecision:
    """The one shared "queue *queue_id* transmits" decision."""
    return SchedulerDecision(queue_id)


class EgressScheduler:
    """Base arbiter: gate/guard/credit eligibility shared by all variants.

    ``shapers`` maps queue id -> its :class:`CreditBasedShaper` for queues
    bound by the CBS map table; unmapped queues are unshaped.  Subclasses
    implement :meth:`select` using :meth:`_eligible` for the three checks.
    """

    def __init__(self, shapers: Optional[Dict[int, CreditBasedShaper]] = None):
        self.shapers: Dict[int, CreditBasedShaper] = dict(shapers or {})
        self._retry: Optional[int] = None
        self._gate_wake: Optional[int] = None
        self._order_src: Optional[Sequence[MetadataQueue]] = None
        self._order: Sequence[MetadataQueue] = ()

    def _ordered(
        self, queues: Sequence[MetadataQueue]
    ) -> Sequence[MetadataQueue]:
        """*queues* sorted by descending id, cached per queue set.

        A port arbitrates with the same queue list on every transmission
        opportunity; re-sorting it each time showed up in profiles.
        """
        if self._order_src is not queues:
            self._order = sorted(
                queues, key=lambda q: q.queue_id, reverse=True
            )
            self._order_src = queues
        return self._order

    def _eligible(
        self,
        now_ns: int,
        queue: MetadataQueue,
        gates: GateEngine,
        serialization_ns_of: Callable[[int], int],
        head=None,
    ) -> bool:
        # Callers that already peeked the head descriptor pass it in; the
        # redundant empty-probe + re-peek per queue showed up in profiles.
        if head is None:
            head = queue.head()
            if head is None:
                return False
        serialization = serialization_ns_of(head.size_bytes)
        # One fused gate query: ``time_until_out_close`` already folds the
        # open/closed state in (0 = closed, None = open forever), so the
        # separate ``out_open`` probe -- a second window-table walk per
        # arbitration -- is redundant.
        window = gates.time_until_out_close(queue.queue_id)
        if window is not None and serialization > window:
            # Gate closed, or the frame would overrun the remaining window;
            # wake at the next window that fits.
            wait = gates.next_out_open_window(queue.queue_id, serialization)
            if wait is not None and (
                self._gate_wake is None or wait < self._gate_wake
            ):
                self._gate_wake = wait
            return False
        shaper = self.shapers.get(queue.queue_id)
        if shaper is not None and not shaper.eligible(now_ns):
            wait = shaper.ns_until_eligible(now_ns)
            if wait is not None and (self._retry is None or wait < self._retry):
                self._retry = wait
            return False
        return True

    def _blocked(self) -> SchedulerDecision:
        """Nothing eligible: carry the wake hints the checks collected."""
        if self._retry is None and self._gate_wake is None:
            return _IDLE
        return SchedulerDecision(None, self._retry, self._gate_wake)

    def select(
        self,
        now_ns: int,
        queues: Sequence[MetadataQueue],
        gates: GateEngine,
        serialization_ns_of: Callable[[int], int],
    ) -> SchedulerDecision:
        raise NotImplementedError


class StrictPriorityScheduler(EgressScheduler):
    """The paper's Egress Sched: highest eligible queue id wins."""

    def select(
        self,
        now_ns: int,
        queues: Sequence[MetadataQueue],
        gates: GateEngine,
        serialization_ns_of: Callable[[int], int],
    ) -> SchedulerDecision:
        """Pick the queue to transmit from, or explain why none is ready.

        *serialization_ns_of* maps a frame byte count to its wire time on
        this port (the guard-band check needs it).
        """
        self._retry = None
        self._gate_wake = None
        for queue in self._ordered(queues):
            fifo = queue._fifo  # direct peek: most queues are empty
            if fifo and self._eligible(
                now_ns, queue, gates, serialization_ns_of, fifo[0]
            ):
                return _wins(queue.queue_id)
        return self._blocked()


class DeficitRoundRobinScheduler(EgressScheduler):
    """Strict priority above ``priority_floor``, byte-fair DRR below it.

    An alternative Egress Sched template logic: the gated TS queues keep
    absolute precedence (determinism first), while the remaining queues
    share leftover bandwidth by weighted deficit round robin instead of
    starving low ids -- the classic fix for BE starvation under heavy RC
    load.  Used by the custom-template example to demonstrate swapping a
    template's fixed logic without touching the resource model.
    """

    def __init__(
        self,
        weights: Optional[Dict[int, int]] = None,
        quantum_bytes: int = 1522,
        priority_floor: int = 6,
        shapers: Optional[Dict[int, CreditBasedShaper]] = None,
    ):
        super().__init__(shapers)
        self.weights = dict(weights or {})
        self.quantum_bytes = quantum_bytes
        self.priority_floor = priority_floor
        self._deficits: Dict[int, int] = {}
        self._rotation: int = 0

    def _weight(self, queue_id: int) -> int:
        return max(1, self.weights.get(queue_id, 1))

    def select(
        self,
        now_ns: int,
        queues: Sequence[MetadataQueue],
        gates: GateEngine,
        serialization_ns_of: Callable[[int], int],
    ) -> SchedulerDecision:
        self._retry = None
        self._gate_wake = None
        ordered = self._ordered(queues)
        # Stage 1: strict priority for the gated TS queues.
        for queue in ordered:
            if queue.queue_id < self.priority_floor:
                continue
            if self._eligible(now_ns, queue, gates, serialization_ns_of):
                return _wins(queue.queue_id)
        # Stage 2: DRR over the rest, starting after the last served queue.
        # Work-conserving formulation: find how many replenishment rounds
        # each eligible queue needs to afford its head frame, serve the one
        # needing fewest (rotation order breaks ties), and credit every
        # eligible queue with that many rounds -- equivalent to spinning the
        # classic DRR loop until somebody can send, without the loop.
        drr_queues = [q for q in ordered if q.queue_id < self.priority_floor]
        count = len(drr_queues)
        candidates = []
        for step in range(count):
            queue = drr_queues[(self._rotation + step) % count]
            head = queue.head()
            if head is None or not self._eligible(
                now_ns, queue, gates, serialization_ns_of, head
            ):
                continue
            deficit = self._deficits.get(queue.queue_id, 0)
            need = head.size_bytes - deficit
            per_round = self.quantum_bytes * self._weight(queue.queue_id)
            rounds = 0 if need <= 0 else -(-need // per_round)
            candidates.append((rounds, step, queue, head))
        if not candidates:
            return self._blocked()
        rounds_won, step_won, winner, head = min(
            candidates, key=lambda c: (c[0], c[1])
        )
        if rounds_won:
            for _, _, queue, _ in candidates:
                self._deficits[queue.queue_id] = (
                    self._deficits.get(queue.queue_id, 0)
                    + rounds_won
                    * self.quantum_bytes
                    * self._weight(queue.queue_id)
                )
        self._deficits[winner.queue_id] = (
            self._deficits.get(winner.queue_id, 0) - head.size_bytes
        )
        self._rotation = (self._rotation + step_won + 1) % count
        return _wins(winner.queue_id)
