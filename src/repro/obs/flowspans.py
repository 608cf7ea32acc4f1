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
* **Cheap when on.**  The hot path appends one plain tuple per event to a
  flat list -- no objects, no dict lookups, no per-frame allocation beyond
  the tuple itself.  Reconstruction into journeys happens after the run.
* **Bounded.**  ``max_events`` caps memory on long heavy-traffic runs;
  overflow is counted (``dropped_events``), never silently ignored.

Journeys feed three consumers: the Chrome-trace exporter (async "flow"
events, so Perfetto shows a frame's whole path on one track), the SLO layer
(per-hop attribution of a deadline miss), and :func:`flow_stats` (loss and
duplicate detection from sequence gaps -- the frame-level ground truth the
analyzer's aggregate counters approximate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

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

#: Default event cap: ~8 events per hop per frame; 2**20 covers ~20k frames
#: over a 6-hop path while bounding the recorder to tens of MB.
DEFAULT_MAX_EVENTS = 1 << 20


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
    """Every observed event of one frame, in causal order."""

    frame_id: int
    flow_id: int
    seq: int
    events: List[HopEvent] = field(default_factory=list)

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
    def drop_node(self) -> Optional[str]:
        for event in self.events:
            if event.kind == "drop":
                return event.node
        return None

    @property
    def end_to_end_ns(self) -> Optional[int]:
        """Generation (or first observation) to listener arrival."""
        if not self.delivered:
            return None
        return self.events[-1].time_ns - self.events[0].time_ns

    def hop_spans(self) -> List[HopSpan]:
        """Per-port spans reconstructed from enqueue/dequeue/tx triples.

        An ``ingress`` event is attached to the next ``enqueue`` (the
        switch-level receive that preceded the port-level admit); a hop cut
        short by a drop or the end of the run yields a partial span with
        ``None`` fields.
        """
        spans: List[HopSpan] = []
        pending_ingress: Optional[HopEvent] = None
        open_hop: Optional[Dict] = None

        def close(hop: Dict) -> None:
            spans.append(
                HopSpan(
                    node=hop["node"],
                    queue_id=hop["queue_id"],
                    arrived_ns=hop["arrived_ns"],
                    enqueued_ns=hop["enqueued_ns"],
                    dequeued_ns=hop.get("dequeued_ns"),
                    tx_ns=hop.get("tx_ns"),
                )
            )

        for event in self.events:
            if event.kind == "ingress":
                pending_ingress = event
            elif event.kind == "enqueue":
                if open_hop is not None:
                    close(open_hop)
                open_hop = {
                    "node": event.node,
                    "queue_id": event.detail,
                    "arrived_ns": (
                        pending_ingress.time_ns
                        if pending_ingress is not None
                        else None
                    ),
                    "enqueued_ns": event.time_ns,
                }
                pending_ingress = None
            elif event.kind == "dequeue":
                if open_hop is not None and open_hop["node"] == event.node:
                    open_hop["dequeued_ns"] = event.time_ns
            elif event.kind == "tx":
                if open_hop is not None and open_hop["node"] == event.node:
                    open_hop["tx_ns"] = event.time_ns
                    close(open_hop)
                    open_hop = None
        if open_hop is not None:
            close(open_hop)
        return spans


class FlowSpanRecorder:
    """Collects hop events; the journey layer's hot-path handle.

    Components receive this via their ``spans=`` parameter (``None`` keeps
    the uninstrumented fast path).  :meth:`record` is the only method the
    dataplane calls; everything else is post-run reconstruction.
    """

    __slots__ = ("max_events", "events", "dropped_events")

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        if max_events <= 0:
            raise ConfigurationError(
                f"max_events must be positive, got {max_events}"
            )
        self.max_events = max_events
        #: Flat (time_ns, kind, node, frame_id, flow_id, seq, detail) tuples.
        self.events: List[Tuple[int, str, str, int, int, int, int]] = []
        self.dropped_events = 0

    def __len__(self) -> int:
        return len(self.events)

    # -------------------------------------------------------------- hot path

    def record(self, time_ns: int, kind: str, node: str, frame,
               detail: int = -1) -> None:
        """Append one hop event for *frame* (any object with
        ``frame_id``/``flow_id``/``seq`` attributes)."""
        events = self.events
        if len(events) >= self.max_events:
            self.dropped_events += 1
            return
        events.append(
            (time_ns, kind, node, frame.frame_id, frame.flow_id, frame.seq,
             detail)
        )

    # -------------------------------------------------------- reconstruction

    def journeys(self) -> List[FrameJourney]:
        """One :class:`FrameJourney` per observed frame.

        Events keep recording order, so each journey's event list is
        causal.  The flat list is not globally time-sorted: a switch
        appends a frame's ``ingress`` record when its 480 ns pipeline
        finishes, stamped with the arrival instant, after records of other
        frames from inside that window.  Sorted by (flow, seq, frame) so
        FRER member streams of the same (flow, seq) stay adjacent.
        """
        by_frame: Dict[int, FrameJourney] = {}
        for time_ns, kind, node, frame_id, flow_id, seq, detail in self.events:
            journey = by_frame.get(frame_id)
            if journey is None:
                journey = by_frame[frame_id] = FrameJourney(
                    frame_id, flow_id, seq
                )
            journey.events.append(HopEvent(time_ns, kind, node, detail))
        return sorted(
            by_frame.values(),
            key=lambda j: (j.flow_id, j.seq, j.frame_id),
        )

    def flow_journeys(self) -> Dict[int, List[FrameJourney]]:
        result: Dict[int, List[FrameJourney]] = {}
        for journey in self.journeys():
            result.setdefault(journey.flow_id, []).append(journey)
        return result


@dataclass
class FlowJourneyStats:
    """Frame-level accounting of one flow, from journey reconstruction."""

    flow_id: int
    frames: int                      # distinct frames observed
    delivered: int                   # unique sequence numbers that arrived
    duplicates: int                  # extra arrivals of an already-seen seq
    dropped: int                     # journeys ending in an observed drop
    in_flight: int                   # neither delivered nor dropped
    missing_seqs: Tuple[int, ...]    # sequence gaps (bounded listing)
    max_end_to_end_ns: Optional[int]
    mean_end_to_end_ns: Optional[float]

    @property
    def lost(self) -> int:
        return len(self.missing_seqs)


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
    generators) extends gap detection past the highest sequence number that
    arrived; without it only interior gaps are visible.
    """
    by_flow: Dict[int, List[FrameJourney]] = {}
    for journey in journeys:
        by_flow.setdefault(journey.flow_id, []).append(journey)
    stats: Dict[int, FlowJourneyStats] = {}
    for flow_id, flow_journeys in sorted(by_flow.items()):
        seen: set = set()
        duplicates = dropped = in_flight = 0
        latencies: List[int] = []
        for journey in flow_journeys:
            if journey.delivered:
                if journey.seq in seen:
                    duplicates += 1
                else:
                    seen.add(journey.seq)
                    latency = journey.end_to_end_ns
                    if latency is not None:
                        latencies.append(latency)
            elif journey.dropped:
                dropped += 1
            else:
                in_flight += 1
        horizon = max(seen) + 1 if seen else 0
        if expected_by_flow is not None:
            horizon = max(horizon, expected_by_flow.get(flow_id, 0))
        missing = tuple(
            seq for seq in range(horizon) if seq not in seen
        )[:_MAX_MISSING_LISTED]
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
        )
    return stats
