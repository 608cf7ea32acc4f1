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

from itertools import compress
from operator import attrgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

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


_FIFO = attrgetter("_fifo")

#: "Nothing pending, nothing to wait for."
_IDLE = SchedulerDecision(None)


class EgressScheduler:
    """Base arbiter: gate/guard/credit eligibility shared by all variants.

    ``shapers`` maps queue id -> its :class:`CreditBasedShaper` for queues
    bound by the CBS map table; unmapped queues are unshaped.  Subclasses
    implement :meth:`select` on top of :meth:`_arbitrate`, which runs the
    three checks.
    """

    def __init__(self, shapers: Optional[Dict[int, CreditBasedShaper]] = None):
        self.shapers: Dict[int, CreditBasedShaper] = dict(shapers or {})
        #: id of each queue list resolved -> (that list, kept alive so the
        #: id stays its own; the list sorted by descending id).
        self._orders: Dict[int, tuple] = {}
        #: queue id -> the one shared "that queue transmits" decision.
        self._wins: Dict[int, SchedulerDecision] = {}

    def ordered(
        self, queues: Sequence[MetadataQueue]
    ) -> Sequence[MetadataQueue]:
        """*queues* sorted by descending id, resolved once per queue list,
        with the win decisions of their ids.

        A port arbitrates with the same list on every transmission
        opportunity (a preempting port with two, by turns); re-sorting
        showed up in profiles.  A port resolves its lists when built.
        """
        resolved = self._orders.get(id(queues))
        if resolved is None:
            resolved = self._orders[id(queues)] = (
                queues,
                sorted(queues, key=lambda q: q.queue_id, reverse=True),
            )
            for queue in queues:
                self._wins.setdefault(
                    queue.queue_id, SchedulerDecision(queue.queue_id)
                )
        return resolved[1]

    def _arbitrate(
        self,
        now_ns: int,
        queues: Sequence[MetadataQueue],
        gates: GateEngine,
        serialization_ns_of: Callable[[int], int],
        eligible: Optional[List[MetadataQueue]] = None,
        blocked: SchedulerDecision = _IDLE,
    ) -> SchedulerDecision:
        """Run the eligibility checks over *queues*, in order.

        The first queue that passes wins -- or, given a list *eligible*,
        every queue that passes is appended to it instead.  Otherwise the
        result carries the wake hints of the blocked queues, merged with
        those of *blocked* (an earlier pass over other queues).  One
        :meth:`GateEngine.out_wait` per backlogged queue answers both the
        window guard and, when it fails, the gate wake hint.
        """
        retry = blocked.retry_delay_ns
        gate_wake = blocked.gate_wake_delay_ns
        shapers = self.shapers
        # The backlogged queues, picked out in C: most queues are empty.
        for queue in compress(queues, map(_FIFO, queues)):
            queue_id = queue.queue_id
            wait = gates.out_wait(
                queue_id, serialization_ns_of(queue._fifo[0].size_bytes)
            )
            if wait is None:
                continue  # no window ever fits the head frame
            if wait:
                if gate_wake is None or wait < gate_wake:
                    gate_wake = wait
                continue
            if shapers:
                shaper = shapers.get(queue_id)
                if shaper is not None and not shaper.eligible(now_ns):
                    wait = shaper.ns_until_eligible(now_ns)
                    if wait is not None and (retry is None or wait < retry):
                        retry = wait
                    continue
            if eligible is None:
                return self._wins[queue_id]
            eligible.append(queue)
        if retry is None and gate_wake is None:
            return _IDLE
        # What SchedulerDecision(None, retry, gate_wake) runs, minus a frame.
        return tuple.__new__(SchedulerDecision, (None, retry, gate_wake))

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
        resolved = self._orders.get(id(queues))
        return self._arbitrate(
            now_ns,
            self.ordered(queues) if resolved is None else resolved[1],
            gates,
            serialization_ns_of,
        )


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
        # The two stages' queues, resolved once per ordered queue set.
        self._stages_src: Optional[Sequence[MetadataQueue]] = None
        self._stages: Tuple[List[MetadataQueue], List[MetadataQueue]] = (
            [], [],
        )

    def _weight(self, queue_id: int) -> int:
        return max(1, self.weights.get(queue_id, 1))

    def select(
        self,
        now_ns: int,
        queues: Sequence[MetadataQueue],
        gates: GateEngine,
        serialization_ns_of: Callable[[int], int],
    ) -> SchedulerDecision:
        ordered = self.ordered(queues)
        if self._stages_src is not ordered:
            floor = self.priority_floor
            self._stages = (
                [q for q in ordered if q.queue_id >= floor],
                [q for q in ordered if q.queue_id < floor],
            )
            self._stages_src = ordered
        strict, drr_queues = self._stages
        # Stage 1: strict priority for the gated TS queues.
        decision = self._arbitrate(now_ns, strict, gates, serialization_ns_of)
        if decision.queue_id is not None:
            return decision
        # Stage 2: DRR over the rest, starting after the last served queue.
        # Work-conserving formulation: find how many replenishment rounds
        # each eligible queue needs to afford its head frame, serve the one
        # needing fewest (rotation order breaks ties), and credit every
        # eligible queue with that many rounds -- equivalent to spinning the
        # classic DRR loop until somebody can send, without the loop.
        count = len(drr_queues)
        rotation = self._rotation % count if count else 0
        eligible: List[MetadataQueue] = []
        decision = self._arbitrate(
            now_ns, drr_queues[rotation:] + drr_queues[:rotation], gates,
            serialization_ns_of, eligible, decision,
        )
        if not eligible:
            return decision
        candidates = []
        for queue in eligible:
            step = (drr_queues.index(queue) - rotation) % count
            head = queue._fifo[0]
            deficit = self._deficits.get(queue.queue_id, 0)
            need = head.size_bytes - deficit
            per_round = self.quantum_bytes * self._weight(queue.queue_id)
            rounds = 0 if need <= 0 else -(-need // per_round)
            candidates.append((rounds, step, queue, head))
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
        return self._wins[winner.queue_id]
