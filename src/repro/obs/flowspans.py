"""End-to-end frame journeys: causal spans across hosts, links, switches.

The registry (:mod:`repro.obs.metrics`) answers *how much* -- counts,
occupancy, residence distributions.  This module answers *where exactly one
frame spent its time*: a :class:`FlowSpanRecorder` collects hop events as a
frame traverses the testbed (injection at the talker, ingress at each
switch, enqueue, dequeue after the gate wait, last-bit transmission,
arrival at the listener) and reconstructs them into
:class:`FrameJourney` objects -- one per frame, keyed by the frame's
``(flow_id, seq)`` tag stamped at generation time.

Design constraints mirror the rest of the observability layer:

* **Zero cost when off.**  Every dataplane hook is a single
  ``if self._spans is not None`` guard; the default is ``None``.
* **Cheap when on.**  An egress port writes one *hop record* per frame it
  carries, when the frame's last bit leaves: tx, enqueue and dequeue
  instants, port, queue and the frame's identity in one flat tuple.  The
  switch's ingress event folds into it (arrival = enqueue instant minus
  the switch's processing delay) for every frame the pipeline hands to
  exactly one port.  Sources, hosts, links and the other ingress cases
  append one flat event tuple each.  Events and journeys are rebuilt from
  these records when read; a journey's hop spans read its hop records.
* **Bounded.**  ``max_events`` caps memory on long heavy-traffic runs;
  overflow is counted (``dropped_events``), never silently ignored.

Journeys feed three consumers: the Chrome-trace exporter (async "flow"
events, so Perfetto shows a frame's whole path on one track), the SLO layer
(per-hop attribution of a deadline miss), and :func:`flow_stats` (the
analyzer's received / duplicate / lost accounting, plus the frames dropped
and still in flight, which only journeys can tell apart).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from itertools import islice
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError

__all__ = [
    "FlowSpanRecorder",
    "FrameJourney",
    "HopEvent",
    "HopSpan",
    "FlowJourneyStats",
    "flow_stats",
]

#: Event kinds in causal order along a path.  ``gen`` fires at the traffic
#: source, ``inject`` when the host NIC admits the frame, ``ingress`` when a
#: switch receives it, ``enqueue``/``dequeue``/``tx`` inside an egress port
#: (host NIC or switch), ``rx`` at the listener, ``drop`` wherever a frame
#: dies (detail carries no queue there; the node names the dropping port).
EVENT_KINDS = (
    "gen", "inject", "ingress", "enqueue", "dequeue", "tx", "rx", "drop",
)

#: Where each kind sorts among one frame's events at the same instant: the
#: order a frame meets them along its path (with zero propagation and
#: processing delay, a tx, the next ingress, its enqueue and its dequeue
#: can share one instant).
_CAUSAL_RANK = {
    "gen": 0, "inject": 1, "tx": 2, "ingress": 3, "enqueue": 4,
    "dequeue": 5, "drop": 6, "rx": 6,
}

#: Default event cap: ~8 events per hop per frame; 2**20 covers ~20k frames
#: over a 6-hop path while bounding the recorder to tens of MB.
DEFAULT_MAX_EVENTS = 1 << 20

#: One flat event: (time_ns, kind, node, frame_id, flow_id, seq, detail).
EventRow = Tuple[int, str, str, int, int, int, int]

#: One port-hop: (tx_ns, port, frame_id, flow_id, seq, queue_id,
#: enqueued_ns, dequeued_ns); -1 marks an instant a frame held at the end
#: of the run had not reached.
HopRecord = Tuple[int, str, int, int, int, int, int, int]


def _causal_order(row: EventRow) -> Tuple[int, int]:
    return row[0], _CAUSAL_RANK[row[1]]


@dataclass(frozen=True)
class HopEvent:
    """One observed instant of a frame's journey."""

    time_ns: int
    kind: str
    node: str      # emitting component: host, switch, or port name
    detail: int = -1   # queue id for enqueue/dequeue, else -1


@dataclass(frozen=True)
class HopSpan:
    """One egress port's handling of a frame, with the gate wait exposed."""

    node: str                        # port name, e.g. ``sw0.p1``
    queue_id: int
    arrived_ns: Optional[int]        # switch ingress (None at the host NIC)
    enqueued_ns: int
    dequeued_ns: Optional[int]       # None if never transmitted
    tx_ns: Optional[int]             # last data bit out

    @property
    def gate_wait_ns(self) -> Optional[int]:
        """Time spent queued (waiting for gate/arbitration), if known."""
        if self.dequeued_ns is None:
            return None
        return self.dequeued_ns - self.enqueued_ns

    @property
    def residence_ns(self) -> Optional[int]:
        """Enqueue to last-bit-out, if the frame left this port."""
        if self.tx_ns is None:
            return None
        return self.tx_ns - self.enqueued_ns


@dataclass
class FrameJourney:
    """Every observed event of one frame, in causal order, and its hop
    records, in enqueue order."""

    frame_id: int
    flow_id: int
    seq: int
    events: List[HopEvent] = field(default_factory=list)
    #: (hop record, the switch's processing delay ns or None at a host
    #: NIC), one per port that handled the frame.
    hops: List[Tuple[HopRecord, Optional[int]]] = field(default_factory=list)

    @property
    def start_ns(self) -> int:
        return self.events[0].time_ns

    @property
    def end_ns(self) -> int:
        return self.events[-1].time_ns

    @property
    def delivered(self) -> bool:
        return any(event.kind == "rx" for event in self.events)

    @property
    def dropped(self) -> bool:
        return any(event.kind == "drop" for event in self.events)

    @property
    def end_to_end_ns(self) -> Optional[int]:
        """Generation (or first observation) to listener arrival."""
        if not self.delivered:
            return None
        return self.events[-1].time_ns - self.events[0].time_ns

    def hop_spans(self) -> List[HopSpan]:
        """One span per hop record, in enqueue order.

        A switch port's arrival is its enqueue instant less the switch's
        processing delay (a host NIC has none); an instant a frame held at
        the end of the run had not reached reads ``None``.
        """
        return [
            HopSpan(port, queue_id,
                    None if delay is None else enqueued_ns - delay,
                    enqueued_ns,
                    None if dequeued_ns < 0 else dequeued_ns,
                    None if tx_ns < 0 else tx_ns)
            for (tx_ns, port, _, _, _, queue_id, enqueued_ns, dequeued_ns),
                delay in self.hops
        ]


class FlowSpanRecorder:
    """Collects hop events; the journey layer's hot-path handle.

    Components receive this via their ``spans=`` parameter (``None`` keeps
    the uninstrumented fast path).  An egress port writes :meth:`hop`
    records, a switch the :meth:`ingress` events no hop record folds, and
    :meth:`record` takes every other event (gen, inject, rx, drop);
    everything else is post-run reconstruction.

    ``len()`` and ``max_events`` count events, a hop record as the events
    it yields (enqueue, dequeue, tx, plus the folded ingress at a switch
    port).  A record is kept whole or not at all: one that would take the
    count past ``max_events`` is shed, and every event it would have
    yielded counts in ``dropped_events``.
    """

    __slots__ = (
        "max_events", "dropped_events", "_count", "_flat", "_hops",
        "_switch_of", "_unfolded",
    )

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        if max_events <= 0:
            raise ConfigurationError(
                f"max_events must be positive, got {max_events}"
            )
        self.max_events = max_events
        self.dropped_events = 0
        self._count = 0
        #: Flat event rows: gen, inject, rx, drop and the ingress events
        #: no hop record folds.
        self._flat: List[EventRow] = []
        self._hops: List[HopRecord] = []
        #: Switch port name -> (switch name, processing delay ns): a hop
        #: record there folds the switch's ingress event.
        self._switch_of: Dict[str, Tuple[str, int]] = {}
        #: (frame_id, switch, arrival ns) -> ports, in the order handed
        #: over, of each frame a switch handed to more than one target
        #: (ports or local hosts): it recorded the ingress itself.
        self._unfolded: Dict[Tuple[int, str, int], Tuple[str, ...]] = {}

    def __len__(self) -> int:
        return self._count

    # -------------------------------------------------------------- wiring

    def add_switch_port(
        self, port: str, switch: str, processing_delay_ns: int
    ) -> None:
        """Hop records of *port* fold *switch*'s ingress event."""
        self._switch_of[port] = (switch, processing_delay_ns)

    # -------------------------------------------------------------- hot path

    def record(self, time_ns: int, kind: str, node: str, frame,
               detail: int = -1) -> None:
        """Append one hop event for *frame* (any object with
        ``frame_id``/``flow_id``/``seq`` attributes)."""
        if self._count >= self.max_events:
            self.dropped_events += 1
            return
        self._count += 1
        self._flat.append(
            (time_ns, kind, node, frame.frame_id, frame.flow_id, frame.seq,
             detail)
        )

    def hop(self, record: HopRecord) -> None:
        """Append one egress port's handling of a frame (a
        :data:`HopRecord`), written when its last bit leaves."""
        count = self._count + 3
        if record[1] in self._switch_of and (
            not self._unfolded or self._folds_ingress(record)
        ):
            count += 1
        if count > self.max_events:
            self.dropped_events += count - self._count
            return
        self._count = count
        self._hops.append(record)

    def hold(self, record: HopRecord) -> None:
        """Append the partial hop of a frame a port still holds when the
        run ends: tx instant -1, and dequeue instant -1 if it is queued."""
        events = 1 + (record[7] >= 0) + self._folds_ingress(record)
        if self._count + events > self.max_events:
            self.dropped_events += events
            return
        self._count += events
        self._hops.append(record)

    def _folds_ingress(self, record: HopRecord) -> bool:
        origin = self._switch_of.get(record[1])
        return origin is not None and (
            record[2], origin[0], record[6] - origin[1]
        ) not in self._unfolded

    def ingress(self, time_ns: int, switch: str, frame,
                ports: Sequence[str] = ()) -> None:
        """Append the ingress event of a frame that arrived at *switch* at
        *time_ns* and that no hop record folds: dropped before or at port
        admission, delivered locally, or handed to *ports* (in that order)
        besides another port or a local host: their hop records then fold
        none."""
        self.record(time_ns, "ingress", switch, frame)
        if ports:
            self._unfolded[(frame.frame_id, switch, time_ns)] = tuple(ports)

    # -------------------------------------------------------- reconstruction

    def _rows(self) -> Iterator[EventRow]:
        """Every recorded event as a flat row, hop records unfolded."""
        yield from self._flat
        switch_of = self._switch_of
        unfolded = self._unfolded
        for (tx_ns, port, frame_id, flow_id, seq, queue_id, enqueued_ns,
             dequeued_ns) in self._hops:
            origin = switch_of.get(port)
            if origin is not None:
                arrived_ns = enqueued_ns - origin[1]
                if (frame_id, origin[0], arrived_ns) not in unfolded:
                    yield (arrived_ns, "ingress", origin[0], frame_id,
                           flow_id, seq, -1)
            yield (enqueued_ns, "enqueue", port, frame_id, flow_id, seq,
                   queue_id)
            if dequeued_ns >= 0:
                yield (dequeued_ns, "dequeue", port, frame_id, flow_id, seq,
                       queue_id)
            if tx_ns >= 0:
                yield (tx_ns, "tx", port, frame_id, flow_id, seq, queue_id)

    @property
    def events(self) -> List[EventRow]:
        """Every event as a flat ``(time_ns, kind, node, frame_id, flow_id,
        seq, detail)`` tuple, rebuilt on each read: in time order, a
        frame's events at one instant in the order it met them."""
        return sorted(self._rows(), key=_causal_order)

    def journeys(self) -> List[FrameJourney]:
        """One :class:`FrameJourney` per observed frame.

        A journey's events are in causal order: by instant, and at one
        instant in the order a frame meets them along its path -- at the
        instant a switch hands it to several ports, port by port in the
        order handed over.  (Events of such a frame's copies on different
        ports at a later common instant keep kind order.)  Sorted by
        (flow, seq, frame) so FRER member streams of the same (flow, seq)
        stay adjacent.  A journey's hop records are in enqueue order, and
        at one instant in the order handed over.
        """
        by_frame: Dict[int, List[EventRow]] = {}
        for row in self._rows():
            rows = by_frame.get(row[3])
            if rows is None:
                rows = by_frame[row[3]] = []
            rows.append(row)
        hops_of: Dict[int, List[Tuple[HopRecord, Optional[int]]]] = {}
        for record in self._hops:
            origin = self._switch_of.get(record[1])
            hops_of.setdefault(record[2], []).append(
                (record, None if origin is None else origin[1])
            )
        # frame_id -> (instant, port) -> place among the ports handed over.
        handed: Dict[int, Dict[Tuple[int, str], int]] = {}
        for (frame_id, _, arrived_ns), ports in self._unfolded.items():
            places = handed.setdefault(frame_id, {})
            for place, port in enumerate(ports):
                enqueued_ns = arrived_ns + self._switch_of[port][1]
                places[(enqueued_ns, port)] = place
        journeys = []
        for frame_id, rows in by_frame.items():
            places = handed.get(frame_id, {})
            if places:
                rows.sort(key=lambda row: (
                    row[0], places.get((row[0], row[2]), -1),
                    _CAUSAL_RANK[row[1]],
                ))
            else:
                rows.sort(key=_causal_order)
            hops = hops_of.get(frame_id, [])
            hops.sort(key=lambda hop: (
                hop[0][6], places.get((hop[0][6], hop[0][1]), -1),
            ))
            journeys.append(FrameJourney(
                frame_id, rows[0][4], rows[0][5],
                [HopEvent(time_ns, kind, node, detail)
                 for time_ns, kind, node, _, _, _, detail in rows],
                hops,
            ))
        journeys.sort(key=lambda j: (j.flow_id, j.seq, j.frame_id))
        return journeys

    def flow_journeys(self) -> Dict[int, List[FrameJourney]]:
        result: Dict[int, List[FrameJourney]] = {}
        for journey in self.journeys():
            result.setdefault(journey.flow_id, []).append(journey)
        return result


@dataclass
class FlowJourneyStats:
    """Frame-level accounting of one flow, from journey reconstruction,
    by the definitions in :mod:`repro.network.analyzer`.

    ``lost`` (expected - delivered) counts seqs; ``dropped`` and
    ``in_flight`` count the journeys that did not arrive: one per lost
    seq, except where FRER replicas of a seq travel as journeys of their
    own.
    """

    flow_id: int
    frames: int                      # distinct frames observed
    delivered: int                   # distinct seqs that arrived
    duplicates: int                  # extra arrivals of a delivered seq
    dropped: int                     # journeys ending in an observed drop
    in_flight: int                   # neither delivered nor dropped
    missing_seqs: Tuple[int, ...]    # the lost seqs (bounded listing)
    max_end_to_end_ns: Optional[int]
    mean_end_to_end_ns: Optional[float]
    #: Frames the generator emitted, or one past the highest seq observed.
    expected: InitVar[int]

    def __post_init__(self, expected: int) -> None:
        self.lost = expected - self.delivered


#: Cap the per-flow missing-sequence listing (a wholly lost flow would
#: otherwise enumerate its entire expected range).
_MAX_MISSING_LISTED = 256


def flow_stats(
    journeys: Sequence[FrameJourney],
    expected_by_flow: Optional[Dict[int, int]] = None,
) -> Dict[int, FlowJourneyStats]:
    """Per-flow loss/duplicate/latency accounting over reconstructed
    journeys.

    *expected_by_flow* (flow -> frames emitted, as reported by the
    generators) extends loss past the highest sequence number observed;
    without it a seq above every journey's is not seen lost.
    """
    by_flow: Dict[int, List[FrameJourney]] = {}
    for journey in journeys:
        by_flow.setdefault(journey.flow_id, []).append(journey)
    stats: Dict[int, FlowJourneyStats] = {}
    for flow_id, flow_journeys in sorted(by_flow.items()):
        seen: set = set()
        duplicates = dropped = in_flight = horizon = 0
        latencies: List[int] = []
        for journey in flow_journeys:
            horizon = max(horizon, journey.seq + 1)
            if journey.delivered:
                if journey.seq in seen:
                    duplicates += 1
                else:
                    seen.add(journey.seq)
                    latencies.append(journey.end_to_end_ns)
            elif journey.dropped:
                dropped += 1
            else:
                in_flight += 1
        if expected_by_flow is not None:
            horizon = max(horizon, expected_by_flow.get(flow_id, 0))
        missing = tuple(islice(
            (seq for seq in range(horizon) if seq not in seen),
            _MAX_MISSING_LISTED,
        ))
        stats[flow_id] = FlowJourneyStats(
            flow_id=flow_id,
            frames=len(flow_journeys),
            delivered=len(seen),
            duplicates=duplicates,
            dropped=dropped,
            in_flight=in_flight,
            missing_seqs=missing,
            max_end_to_end_ns=max(latencies) if latencies else None,
            mean_end_to_end_ns=(
                sum(latencies) / len(latencies) if latencies else None
            ),
            expected=horizon,
        )
    return stats
