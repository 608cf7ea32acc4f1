"""Pre-flight deployment checks: will this configuration carry that load?

`SwitchConfig.validate()` checks *internal* consistency; this module checks
a configuration against an *application* (topology + flows + slotting),
catching at plan time what would otherwise surface as counted drops or
missed deadlines in simulation -- the checks a TSN-Builder user runs before
synthesizing bitstreams:

* shared tables large enough for the planned flow entries;
* gate tables large enough for the gate mechanism;
* queue depth covering ITP's worst per-slot arrivals (the paper's
  guideline 4 threshold);
* buffers backing the queues;
* CBS tables covering the RC queues in use;
* Eq. (1) worst-case latency within every flow deadline;
* ITP feasibility at the chosen slot size.

Returns :class:`Violation` records rather than raising, so callers can
render them (the CLI's ``simulate --check``) or assert emptiness (tests).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.core.config import SwitchConfig
from repro.core.errors import SchedulingError
from repro.cqf.bounds import cqf_bounds
from repro.cqf.schedule import CqfSchedule
from repro.sched import SchedPolicy, plan_flows
from repro.traffic.flows import FlowSet, TrafficClass

__all__ = ["Severity", "Violation", "check_deployment"]


class Severity(enum.Enum):
    ERROR = "error"      # packets will be lost or deadlines missed
    WARNING = "warning"  # works, but the margin is thin or wasteful


@dataclass(frozen=True)
class Violation:
    severity: Severity
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity.value}] {self.subject}: {self.message}"


def check_deployment(
    config: SwitchConfig,
    topology,
    flows: FlowSet,
    slot_ns: int,
    gate_mechanism: str = "cqf",
    aggregate_routes: bool = False,
    rate_bps: int = 10**9,
    sched: Optional[SchedPolicy] = None,
) -> List[Violation]:
    """Every mismatch between *config* and the planned deployment.

    ``sched`` is the policy the deployment plans with, as for
    :func:`~repro.core.sizing.derive_config` (default: greedy ITP); the
    queue checks judge that plan, not some other one.
    """
    violations: List[Violation] = []

    def error(subject: str, message: str) -> None:
        violations.append(Violation(Severity.ERROR, subject, message))

    def warn(subject: str, message: str) -> None:
        violations.append(Violation(Severity.WARNING, subject, message))

    config.validate()
    ts_flows = flows.ts_flows

    # --- shared tables (guideline 1)
    ts_count = len(ts_flows)
    if config.class_size < ts_count:
        error("class_tbl",
              f"{ts_count} TS flows need per-flow classification entries "
              f"but the table holds {config.class_size}")
    route_entries = (
        len({flow.dst for flow in flows}) if aggregate_routes else ts_count
    )
    if config.unicast_size < route_entries:
        error("unicast_tbl",
              f"{route_entries} forwarding entries needed "
              f"({'aggregated' if aggregate_routes else 'per-flow'}) but "
              f"the table holds {config.unicast_size}")
    if config.meter_size < ts_count:
        warn("meter_tbl",
             f"only {config.meter_size} meters for {ts_count} TS flows; "
             "overflow flows run unpoliced")

    # --- ports (guideline 5)
    if topology is not None and config.port_num < topology.max_enabled_ports:
        error("ports",
              f"topology needs {topology.max_enabled_ports} enabled ports, "
              f"config has {config.port_num}")

    # --- CBS (guideline 3)
    rc_queues = {flow.effective_pcp for flow in flows.rc_flows}
    if len(rc_queues) > config.cbs_map_size:
        error("cbs",
              f"{len(rc_queues)} RC queues in use but the CBS map holds "
              f"{config.cbs_map_size}")

    if not ts_flows:
        return violations

    # --- schedule + ITP (guidelines 2 and 4)
    try:
        schedule = CqfSchedule.for_flows(flows.ts_periods(), slot_ns)
    except SchedulingError as exc:
        error("slotting", str(exc))
        return violations
    if gate_mechanism == "cqf" and config.gate_size < 2:
        error("gate_tbl", "CQF needs 2 gate entries per list")
    try:
        plan = plan_flows(list(flows), slot_ns, rate_bps, policy=sched)
        plan.raise_if_infeasible()
    except SchedulingError as exc:
        error("itp", str(exc))
        return violations
    required = plan.required_queue_depth
    if config.queue_depth < required:
        error("queue_depth",
              f"ITP needs {required} descriptors per slot, configured "
              f"{config.queue_depth} -- TS tail drops guaranteed")
    elif config.queue_depth == required:
        warn("queue_depth",
             f"configured depth equals the ITP bound ({required}); any "
             "phase error drops packets")
    if config.buffer_num < required:
        error("buffers",
              f"{config.buffer_num} buffers cannot back the {required} "
              "frames a slot gathers")
    if config.buffer_num > config.queue_depth * config.queue_num:
        warn("buffers",
             f"{config.buffer_num} buffers exceed the "
             f"{config.queue_depth * config.queue_num} descriptors the "
             "queues can reference (guideline 4 sizes buffers = depth x "
             "queues)")

    # --- deadlines (Eq. 1), each flow at the slot of the CQF system the
    # plan put it on (Multi-CQF runs a second system at a longer slot)
    if topology is not None:
        for flow in ts_flows:
            if flow.deadline_ns is None:
                continue
            hops = topology.hops(flow.src, flow.dst)
            worst = cqf_bounds(hops, plan.slot_ns_of(flow.flow_id)).max_ns
            if gate_mechanism == "cqf" and worst > flow.deadline_ns:
                error("deadline",
                      f"flow {flow.flow_id}: Eq.(1) worst case {worst}ns "
                      f"over {hops} hops exceeds the "
                      f"{flow.deadline_ns}ns deadline")

    # --- RC bandwidth admission (802.1Qat-style, flow management)
    if topology is not None and flows.rc_flows:
        from repro.network.admission import admit_flows

        report = admit_flows(topology, flows, rate_bps=rate_bps)
        for verdict in report.rejected:
            error("rc_admission",
                  f"RC flow {verdict.flow_id} oversubscribes hop "
                  f"{verdict.rejecting_hop} by {verdict.shortfall_bps} bps "
                  "-- CBS will shape it below its request")
    return violations
