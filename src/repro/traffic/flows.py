"""Flow specifications: the TS / RC / BE taxonomy.

Paper Section II.A: TSN traffic divides into three types --

* **Time-Sensitive (TS)** flows, highest priority: periodic, must arrive
  before a deadline with ultra-low jitter and loss.
* **Rate-Constrained (RC)** flows, medium priority: reserved bandwidth,
  shaped by CBS.
* **Best-Effort (BE)** flows, lowest priority: whatever bandwidth is left.

A :class:`FlowSpec` is pure description -- who talks to whom, how much, how
often.  The testbed turns specs into generators, table entries, meters and
CBS reservations; ITP assigns TS specs their injection offsets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.core.units import ETH_MIN_FRAME_BYTES

__all__ = ["TrafficClass", "FlowSpec", "FlowSet"]


class TrafficClass(enum.Enum):
    """The three TSN traffic types with their 802.1Q priority mapping."""

    TS = "time-sensitive"
    RC = "rate-constrained"
    BE = "best-effort"

    @property
    def default_pcp(self) -> int:
        """Priority code point used when a spec does not override it.

        TS maps to PCP 7 (classified into the CQF queue pair 6/7), RC to
        PCP 5 (the top of the three RC queues 3..5), BE to PCP 0.
        """
        return _DEFAULT_PCP[self]


_DEFAULT_PCP = {TrafficClass.TS: 7, TrafficClass.RC: 5, TrafficClass.BE: 0}


@dataclass(frozen=True)
class FlowSpec:
    """One flow's contract.

    TS flows are periodic: ``period_ns`` and optionally ``deadline_ns``
    (checked by the analyzer) are required, ``rate_bps`` is derived.
    RC/BE flows are rate-based: ``rate_bps`` is required and ``period_ns``
    is the derived inter-frame gap.
    """

    flow_id: int
    traffic_class: TrafficClass
    src: str
    dst: str
    size_bytes: int
    period_ns: Optional[int] = None
    rate_bps: Optional[int] = None
    deadline_ns: Optional[int] = None
    pcp: Optional[int] = None
    vlan_id: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes < ETH_MIN_FRAME_BYTES:
            raise ConfigurationError(
                f"flow {self.flow_id}: frame size {self.size_bytes}B below "
                f"Ethernet minimum {ETH_MIN_FRAME_BYTES}B"
            )
        if self.traffic_class is TrafficClass.TS:
            if not self.period_ns or self.period_ns <= 0:
                raise ConfigurationError(
                    f"TS flow {self.flow_id} needs a positive period"
                )
            if self.deadline_ns is not None and self.deadline_ns <= 0:
                raise ConfigurationError(
                    f"TS flow {self.flow_id}: deadline must be positive"
                )
        else:
            if not self.rate_bps or self.rate_bps <= 0:
                raise ConfigurationError(
                    f"{self.traffic_class.name} flow {self.flow_id} needs a "
                    "positive rate"
                )
        if self.pcp is not None and not 0 <= self.pcp <= 7:
            raise ConfigurationError(
                f"flow {self.flow_id}: PCP must be 0..7, got {self.pcp}"
            )

    @property
    def effective_pcp(self) -> int:
        return self.pcp if self.pcp is not None else self.traffic_class.default_pcp

    @property
    def effective_rate_bps(self) -> int:
        """Offered load in bits/s (derived from the period for TS flows)."""
        if self.rate_bps is not None:
            return self.rate_bps
        assert self.period_ns is not None
        return self.size_bytes * 8 * 10**9 // self.period_ns

    @property
    def inter_frame_ns(self) -> int:
        """Gap between frame injections (derived from rate for RC/BE)."""
        if self.period_ns is not None:
            return self.period_ns
        assert self.rate_bps is not None
        return max(1, self.size_bytes * 8 * 10**9 // self.rate_bps)

    def with_updates(self, **changes) -> "FlowSpec":
        return replace(self, **changes)


class FlowSet:
    """An ordered, id-unique collection of flow specs."""

    def __init__(self, flows: Sequence[FlowSpec] = ()):
        self._flows: List[FlowSpec] = []
        self._by_id: Dict[int, FlowSpec] = {}
        for flow in flows:
            self.add(flow)

    def add(self, flow: FlowSpec) -> None:
        if flow.flow_id in self._by_id:
            raise ConfigurationError(f"duplicate flow id {flow.flow_id}")
        self._flows.append(flow)
        self._by_id[flow.flow_id] = flow

    def __len__(self) -> int:
        return len(self._flows)

    def __iter__(self) -> Iterator[FlowSpec]:
        return iter(self._flows)

    def __getitem__(self, flow_id: int) -> FlowSpec:
        return self._by_id[flow_id]

    def by_class(self, traffic_class: TrafficClass) -> List[FlowSpec]:
        return [f for f in self._flows if f.traffic_class is traffic_class]

    @property
    def ts_flows(self) -> List[FlowSpec]:
        return self.by_class(TrafficClass.TS)

    @property
    def rc_flows(self) -> List[FlowSpec]:
        return self.by_class(TrafficClass.RC)

    @property
    def be_flows(self) -> List[FlowSpec]:
        return self.by_class(TrafficClass.BE)

    def ts_periods(self) -> List[int]:
        """All TS periods (input to the scheduling-cycle LCM)."""
        periods = []
        for flow in self.ts_flows:
            assert flow.period_ns is not None
            periods.append(flow.period_ns)
        return periods

    def total_rate_bps(self, traffic_class: Optional[TrafficClass] = None) -> int:
        """Aggregate offered load, optionally restricted to one class."""
        flows: Sequence[FlowSpec]
        if traffic_class is None:
            flows = self._flows
        else:
            flows = self.by_class(traffic_class)
        return sum(flow.effective_rate_bps for flow in flows)

    def endpoints(self) -> Tuple[List[str], List[str]]:
        """(sorted unique sources, sorted unique destinations)."""
        return (
            sorted({f.src for f in self._flows}),
            sorted({f.dst for f in self._flows}),
        )
