"""Stream admission control (802.1Qat / MSRP-style, the "flow management"
family of the paper's intro).

Before a Rate-Constrained stream may use its CBS reservation, every hop on
its path must have the bandwidth to honor it.  :func:`admit_flows` walks
each RC flow's path and keeps per-(switch, port) ledgers:

* the **TS share** -- worst-case wire time the CQF schedule can hand TS
  traffic per slot (from the ITP plan, or the configured utilization
  limit);
* the **RC ledger** -- accumulated accepted reservations, capped at
  ``rc_limit`` of what TS leaves over (802.1Qav practice caps total
  shaped traffic at 75 % of link rate).

Flows are processed in request order; a flow is rejected at the *first*
hop that cannot carry it, with the hop and the shortfall in the verdict --
what an MSRP listener-ready failure would report.  Admission is a
*planning* check: the testbed will happily run an over-subscribed flow
set, and CBS will then shape RC flows down to their reservations; this
module is how a deployment avoids getting there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.core.units import GIGABIT
from repro.traffic.flows import FlowSet, TrafficClass
from .program import HopResolver

__all__ = ["AdmissionVerdict", "AdmissionReport", "admit_flows"]


@dataclass(frozen=True)
class AdmissionVerdict:
    """One flow's admission outcome."""

    flow_id: int
    admitted: bool
    reserved_bps: int
    rejecting_hop: Optional[Tuple[str, int]] = None
    shortfall_bps: int = 0

    def __str__(self) -> str:
        if self.admitted:
            return f"flow {self.flow_id}: admitted ({self.reserved_bps} bps)"
        return (
            f"flow {self.flow_id}: rejected at {self.rejecting_hop} "
            f"(short {self.shortfall_bps} bps)"
        )


@dataclass
class AdmissionReport:
    """All verdicts plus the resulting per-port ledgers."""

    verdicts: List[AdmissionVerdict] = field(default_factory=list)
    port_reserved_bps: Dict[Tuple[str, int], int] = field(
        default_factory=dict
    )
    port_budget_bps: Dict[Tuple[str, int], int] = field(default_factory=dict)

    @property
    def admitted(self) -> List[AdmissionVerdict]:
        return [v for v in self.verdicts if v.admitted]

    @property
    def rejected(self) -> List[AdmissionVerdict]:
        return [v for v in self.verdicts if not v.admitted]

    def verdict(self, flow_id: int) -> AdmissionVerdict:
        for verdict in self.verdicts:
            if verdict.flow_id == flow_id:
                return verdict
        raise KeyError(f"no verdict for flow {flow_id}")

    def utilization(self, hop: Tuple[str, int]) -> float:
        budget = self.port_budget_bps.get(hop, 0)
        if not budget:
            return 0.0
        return self.port_reserved_bps.get(hop, 0) / budget


def admit_flows(
    topology,
    flows: FlowSet,
    rate_bps: int = GIGABIT,
    rc_limit: float = 0.75,
    ts_utilization: float = 0.5,
    reservation_margin: float = 1.0,
) -> AdmissionReport:
    """Admit RC flows against per-hop bandwidth budgets.

    ``ts_utilization`` is the slot share CQF may hand TS traffic (the ITP
    planner's budget); the per-port RC budget is
    ``rc_limit * (1 - ts_utilization) * rate``.  ``reservation_margin``
    scales each flow's requested rate into its reservation (CBS practice
    reserves some headroom above the long-term rate).
    """
    if not 0 < rc_limit <= 1:
        raise ConfigurationError(f"rc_limit must be in (0, 1], got {rc_limit}")
    if not 0 <= ts_utilization < 1:
        raise ConfigurationError(
            f"ts_utilization must be in [0, 1), got {ts_utilization}"
        )
    if reservation_margin < 1.0:
        raise ConfigurationError(
            f"reservation margin must be >= 1, got {reservation_margin}"
        )
    budget_per_port = int(rc_limit * (1.0 - ts_utilization) * rate_bps)
    report = AdmissionReport()

    hop_ports = HopResolver(topology)
    for flow in flows.by_class(TrafficClass.RC):
        reservation = int(flow.effective_rate_bps * reservation_margin)
        hops = hop_ports(flow)
        rejecting: Optional[Tuple[str, int]] = None
        shortfall = 0
        for hop in hops:
            report.port_budget_bps.setdefault(hop, budget_per_port)
            used = report.port_reserved_bps.get(hop, 0)
            if used + reservation > budget_per_port:
                rejecting = hop
                shortfall = used + reservation - budget_per_port
                break
        if rejecting is None:
            for hop in hops:
                report.port_reserved_bps[hop] = (
                    report.port_reserved_bps.get(hop, 0) + reservation
                )
            report.verdicts.append(
                AdmissionVerdict(flow.flow_id, True, reservation)
            )
        else:
            report.verdicts.append(
                AdmissionVerdict(
                    flow.flow_id, False, reservation,
                    rejecting_hop=rejecting, shortfall_bps=shortfall,
                )
            )
    return report
