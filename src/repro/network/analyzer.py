"""The TSN analyzer: latency / jitter / packet-loss measurement.

The paper's testbed ends in a "TSN analyzer ... used to receive the TS/RC/BE
flows and analyze the latency, jitter and packet loss".  This module is that
instrument: hook :meth:`TsnAnalyzer.record` to a listener host's
``on_receive`` and it timestamps every arrival against the frame's injection
time.

Definitions match the paper's usage:

* **latency** -- arrival time minus injection time (``created_ns``), end to
  end across the whole path including NICs and links;
* **jitter** -- the *standard deviation* of latency ("Here we use the
  standard deviation of latency to describe the jitter", Section IV.C),
  reported both per flow and across all packets of a class;
* **packet loss** -- 1 - received/expected, with expected counts supplied by
  the generators at the end of a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.errors import SimulationError
from repro.sim.kernel import Simulator
from repro.switch.packet import EthernetFrame
from repro.traffic.flows import FlowSet, TrafficClass

__all__ = ["FlowRecord", "LatencySummary", "TsnAnalyzer"]


@dataclass
class FlowRecord:
    """Arrival bookkeeping of one flow."""

    flow_id: int
    latencies_ns: List[int] = field(default_factory=list)
    deadline_ns: Optional[int] = None
    deadline_misses: int = 0
    duplicates: int = 0
    reorders: int = 0
    _last_seq: int = -1

    def note(self, latency_ns: int, seq: int) -> None:
        self.latencies_ns.append(latency_ns)
        if self.deadline_ns is not None and latency_ns > self.deadline_ns:
            self.deadline_misses += 1
        if seq == self._last_seq:
            self.duplicates += 1
        elif seq < self._last_seq:
            self.reorders += 1
        self._last_seq = max(self._last_seq, seq)

    @property
    def received(self) -> int:
        return len(self.latencies_ns)


@dataclass(frozen=True)
class LatencySummary:
    """Aggregate latency statistics over a set of packets."""

    count: int
    min_ns: int
    max_ns: int
    mean_ns: float
    jitter_ns: float   # standard deviation, the paper's jitter metric
    p99_ns: int

    @classmethod
    def of(cls, latencies: List[int]) -> "LatencySummary":
        if not latencies:
            raise SimulationError("no latencies to summarize")
        count = len(latencies)
        mean = sum(latencies) / count
        variance = sum((x - mean) ** 2 for x in latencies) / count
        ordered = sorted(latencies)
        p99 = ordered[min(count - 1, math.ceil(0.99 * count) - 1)]
        return cls(
            count=count,
            min_ns=ordered[0],
            max_ns=ordered[-1],
            mean_ns=mean,
            jitter_ns=math.sqrt(variance),
            p99_ns=p99,
        )


class TsnAnalyzer:
    """Receives frames at the listener and aggregates QoS statistics."""

    def __init__(self, sim: Simulator, flows: FlowSet):
        self._sim = sim
        self._flows = flows
        self.records: Dict[int, FlowRecord] = {}
        self.unknown_frames = 0
        #: Optional :class:`~repro.obs.slo.SloMonitor`; when set, every
        #: recorded arrival also streams through the SLO checks.
        self.slo = None
        for flow in flows:
            self.records[flow.flow_id] = FlowRecord(
                flow.flow_id, deadline_ns=flow.deadline_ns
            )

    # ------------------------------------------------------------- recording

    def record(self, frame: EthernetFrame) -> None:
        """Listener ``on_receive`` hook."""
        record = self.records.get(frame.flow_id)
        if record is None:
            self.unknown_frames += 1
            return
        if frame.created_ns < 0:
            raise SimulationError(
                f"frame of flow {frame.flow_id} carries no injection timestamp"
            )
        now = self._sim._now
        latency_ns = now - frame.created_ns
        record.note(latency_ns, frame.seq)
        if self.slo is not None:
            self.slo.observe(frame.flow_id, frame.seq, latency_ns, now)

    # ------------------------------------------------------------ statistics

    def class_latencies(self, traffic_class: TrafficClass) -> List[int]:
        """All packet latencies of one traffic class, in arrival order."""
        result: List[int] = []
        for flow in self._flows.by_class(traffic_class):
            result.extend(self.records[flow.flow_id].latencies_ns)
        return result

    def class_summary(self, traffic_class: TrafficClass) -> LatencySummary:
        return LatencySummary.of(self.class_latencies(traffic_class))

    def flow_summary(self, flow_id: int) -> LatencySummary:
        return LatencySummary.of(self.records[flow_id].latencies_ns)

    def per_flow_jitter_ns(self, traffic_class: TrafficClass) -> List[float]:
        """Each flow's own latency standard deviation.

        Under CQF this is near zero (every packet of a flow takes the same
        slot-aligned path); the cross-flow spread shows up only in
        :meth:`class_summary`'s jitter.
        """
        result = []
        for flow in self._flows.by_class(traffic_class):
            latencies = self.records[flow.flow_id].latencies_ns
            if len(latencies) >= 2:
                result.append(LatencySummary.of(latencies).jitter_ns)
        return result

    def received(self, traffic_class: Optional[TrafficClass] = None) -> int:
        flows = (
            list(self._flows)
            if traffic_class is None
            else self._flows.by_class(traffic_class)
        )
        return sum(self.records[f.flow_id].received for f in flows)

    def loss_rate(
        self, expected_by_flow: Dict[int, int], traffic_class: TrafficClass
    ) -> float:
        """1 - received/expected over a class; *expected_by_flow* comes from
        the generators' emitted counts."""
        flows = self._flows.by_class(traffic_class)
        expected = sum(expected_by_flow.get(f.flow_id, 0) for f in flows)
        if expected == 0:
            return 0.0
        got = sum(
            min(self.records[f.flow_id].received, expected_by_flow.get(f.flow_id, 0))
            for f in flows
        )
        return 1.0 - got / expected

    def class_digest(
        self, expected_by_flow: Dict[int, int]
    ) -> Dict[str, Dict]:
        """Per-class QoS digest: received/loss plus latency statistics.

        The one canonical shape shared by ``result_summary`` and campaign
        worker rows, keyed by traffic-class name; latency fields appear
        only for classes that received traffic.
        """
        digest: Dict[str, Dict] = {}
        for traffic_class in TrafficClass:
            received = self.received(traffic_class)
            entry: Dict = {
                "received": received,
                "loss": self.loss_rate(expected_by_flow, traffic_class),
            }
            if received:
                stats = self.class_summary(traffic_class)
                entry.update(
                    mean_ns=stats.mean_ns,
                    jitter_ns=stats.jitter_ns,
                    min_ns=stats.min_ns,
                    max_ns=stats.max_ns,
                    p99_ns=stats.p99_ns,
                )
            digest[traffic_class.name] = entry
        return digest

    def deadline_misses(self, traffic_class: TrafficClass) -> int:
        return sum(
            self.records[f.flow_id].deadline_misses
            for f in self._flows.by_class(traffic_class)
        )
