"""Per-switch control-plane programs, compiled once per run, and the
pre-flight that checks them.

The paper's embedded CPU "is used to configure the register and table
entries at run-time" (PAPER.md §IV.A): the entries are plain data.
:func:`compile_programs` lowers a ``RunPlan`` into that data without
building a device; ``Testbed`` installs it and :func:`check_deployment`
compares its exact occupancy with the switch model's capacities.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, \
    Tuple

from repro.core.config import SwitchConfig
from repro.core.errors import ConfigurationError, InfeasiblePlanError, \
    SlotError, TopologyError
from repro.cqf.gating import RC_QUEUES
from repro.cqf.schedule import CqfSchedule
from repro.switch.tables import CbsParams, ClassKey, RouteKey, UnicastTable
from repro.traffic.flows import FlowSet, FlowSpec, TrafficClass
from .host import host_mac

if TYPE_CHECKING:
    from .testbed import RunPlan

__all__ = ["Severity", "SwitchProgram", "Violation", "check_deployment",
           "compile_programs", "latency_bound_ns"]

#: VLAN ids a TS flow (or an FRER replica) can take: 1..4094, one each;
#: background flows toward a destination no TS flow serves take 4095.
USABLE_VIDS = 4094

HopPorts = Sequence[Tuple[str, int]]
Programs = Dict[str, "SwitchProgram"]


@dataclass
class SwitchProgram:
    """One switch's control-plane state: ``TsnSwitch.program_paths``'
    arguments in insertion order (a route key may repeat), the flow behind
    each classification entry and each route, the (CBS slot, queue,
    params) every port reserves and each gated port's (in-gate entries,
    out-gate entries, CQF groups)."""

    classes: Dict[ClassKey, Tuple[int, int]] = field(default_factory=dict)
    class_flows: List[int] = field(default_factory=list)
    routes: List[Tuple[RouteKey, int]] = field(default_factory=list)
    route_flows: List[int] = field(default_factory=list)
    meters: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    cbs: Tuple[Tuple[int, int, CbsParams], ...] = ()
    gates: Dict[int, tuple] = field(default_factory=dict)


def compile_programs(
    run_plan: "RunPlan",
) -> Tuple[Programs, Dict[int, Tuple[int, ...]]]:
    """A program per switch (in topology order) and each flow's VLAN ids.

    TS flows get per-flow classification entries and meters -- the table
    sizing the paper evaluates; RC and BE ride the 802.1Q PCP default and
    take only a shared route.  Flows a ``max_admission`` plan rejected get
    no state.
    """
    vids = _assign_vids(run_plan.flows, run_plan.frer_ts)
    programs = {name: SwitchProgram()
                for name in run_plan.topology.switch_ports}
    hop_ports = HopResolver(run_plan.topology)
    _compile_cbs(run_plan, programs)
    for name, gates in run_plan.discipline.port_gates(
        run_plan, hop_ports
    ).items():
        programs[name].gates = gates
    _compile_paths(run_plan, programs, vids, hop_ports)
    return programs, vids


def _assign_vids(flows: FlowSet, frer: bool) -> Dict[int, Tuple[int, ...]]:
    """A unique VID per TS flow (FRER replicas in a second band), so the
    (SMAC, DMAC, VID, PRI) key tells flows apart; background flows reuse a
    TS flow's VID to the same destination and share its route."""
    ts_flows = flows.ts_flows
    if len(ts_flows) * (2 if frer else 1) > USABLE_VIDS:
        raise ConfigurationError(
            f"{len(ts_flows)} TS flows{' x 2 FRER replicas' if frer else ''}"
            " exceed the 4094 usable VLAN ids"
        )
    vids: Dict[int, Tuple[int, ...]] = {}
    vid_for_dst: Dict[str, int] = {}
    for vid, flow in enumerate(ts_flows, 1):
        vids[flow.flow_id] = (vid, vid + len(ts_flows)) if frer else (vid,)
        vid_for_dst.setdefault(flow.dst, vid)
    for flow in flows:
        if flow.traffic_class is not TrafficClass.TS:
            vids[flow.flow_id] = (vid_for_dst.get(flow.dst, USABLE_VIDS + 1),)
    return vids


class HopResolver:
    """(switch, egress port) of every hop of a flow, listener delivery
    included, resolved once per distinct ``(src, dst)``."""

    def __init__(self, topology) -> None:
        self._topology = topology
        self._listener_ports = {
            (a.switch, a.host): a.port for a in topology.attachments
        }
        self._cache: Dict[Tuple[str, str], HopPorts] = {}

    def __call__(self, flow: FlowSpec) -> HopPorts:
        hop_ports = self._cache.get((flow.src, flow.dst))
        if hop_ports is None:
            topology = self._topology
            last_switch = topology.host_switch(flow.dst)
            _, egress = topology.route(
                topology.host_switch(flow.src), last_switch
            )
            local_port = self._listener_ports.get((last_switch, flow.dst))
            if local_port is None:
                raise TopologyError(
                    f"flow {flow.flow_id}: destination {flow.dst!r} is not "
                    f"attached to {last_switch!r}"
                )
            hop_ports = egress + ((last_switch, local_port),)
            self._cache[(flow.src, flow.dst)] = hop_ports
        return hop_ports

    def replicas(self, flow: FlowSpec) -> List[HopPorts]:
        """Two edge-disjoint hop-port lists, one per listener attachment,
        so a single trunk failure cannot take out both FRER replicas."""
        topology = self._topology
        attachments = [a for a in topology.attachments if a.host == flow.dst]
        if len(attachments) < 2:
            raise TopologyError(
                f"FRER flow {flow.flow_id}: destination {flow.dst!r} needs "
                f"two attachments, found {len(attachments)}"
            )
        first = topology.host_switch(flow.src)
        paths = [[*topology.route(first, a.switch)[1], (a.switch, a.port)]
                 for a in attachments[:2]]
        overlap = set(paths[0]) & set(paths[1])
        if overlap:
            raise TopologyError(
                f"FRER flow {flow.flow_id}: replica paths share trunk "
                f"ports {sorted(overlap)} -- not disjoint"
            )
        return paths


def _rc_rank(flow: FlowSpec) -> int:
    """An RC flow's place among the RC queues: its PCP's rank."""
    pcp = flow.effective_pcp
    if pcp not in RC_QUEUES:
        raise ConfigurationError(
            f"RC flow {flow.flow_id}: PCP {pcp} does not map onto an RC "
            f"queue {RC_QUEUES}"
        )
    return RC_QUEUES.index(pcp)


def _compile_cbs(run_plan: "RunPlan", programs: Programs) -> None:
    """CBS reservations of every port: an RC queue's idleSlope is twice
    its flows' rate, clamped into [1%, 75%] of the port rate; queues past
    the CBS map stay unshaped."""
    _, rc_queues = run_plan.discipline.queue_layout(run_plan.ts_queue_pair)
    per_queue_rate: Dict[int, int] = {q: 0 for q in rc_queues}
    for flow in run_plan.flows.rc_flows:
        per_queue_rate[rc_queues[_rc_rank(flow)]] += flow.effective_rate_bps
    rate_bps = run_plan.rate_bps
    cbs = tuple(
        (slot_index, queue_id, CbsParams.for_reservation(
            min(max(per_queue_rate[queue_id] * 2, rate_bps // 100),
                rate_bps * 3 // 4),
            rate_bps,
        ))
        for slot_index, queue_id in enumerate(
            rc_queues[:run_plan.config.cbs_map_size]
        )
    )
    for program in programs.values():
        program.cbs = cbs


def _compile_paths(
    run_plan: "RunPlan", programs: Programs, vids: Dict[int, Tuple[int, ...]],
    hop_ports: HopResolver,
) -> None:
    """Classification, forwarding and policing entries along every path;
    meters go first-come until the meter table fills."""
    plan = run_plan.sched_plan
    macs = {
        name: host_mac(index)
        for index, name in enumerate(dict.fromkeys(run_plan.topology.hosts))
    }
    discipline = run_plan.discipline
    ts_queue_groups, rc_queues = discipline.queue_layout(
        run_plan.ts_queue_pair
    )
    long_slot = discipline.long_slot and plan is not None
    meter_size = run_plan.config.meter_size
    wildcard = UnicastTable.WILDCARD_VID
    aggregate = run_plan.aggregate_routes
    frer = run_plan.frer_ts
    # RC gets explicit (unmetered) classification entries where the
    # layout moved the RC queues off their PCPs.
    classify_rc = rc_queues != RC_QUEUES
    tables = {
        name: (p.classes, p.class_flows, p.routes, p.route_flows, p.meters)
        for name, p in programs.items()
    }
    for flow in run_plan.flows:
        flow_id = flow.flow_id
        src_mac = macs[flow.src]
        dst_mac = macs[flow.dst]
        pcp = flow.effective_pcp
        if flow.traffic_class is not TrafficClass.TS:
            target = None
            if classify_rc and flow.traffic_class is TrafficClass.RC:
                target = (-1, rc_queues[_rc_rank(flow)])
            (vid,) = vids[flow_id]
            key = (src_mac, dst_mac, vid, pcp)
            route = (dst_mac, wildcard if aggregate else vid)
            for switch_name, outport in hop_ports(flow):
                classes, class_flows, routes, route_flows, _ = (
                    tables[switch_name]
                )
                if target is not None:
                    if key not in classes:  # shared by same-PCP RC flows
                        class_flows.append(flow_id)
                    classes[key] = target
                routes.append((route, outport))
                route_flows.append(flow_id)
            continue
        if plan is not None and flow_id not in plan.offsets:
            continue  # rejected by a max_admission plan: no state
        # Classification targets one member of the flow's CQF group (the
        # gate engine redirects to whichever member is gathering); with a
        # long-slot system the flow's planned system picks the group.
        system = plan.system_of(flow_id) if long_slot else 0
        queue_id = ts_queue_groups[system][-1]
        paths = hop_ports.replicas(flow) if frer else (hop_ports(flow),)
        meter = (max(64_000, flow.effective_rate_bps * 2),
                 4 * flow.size_bytes)
        for vid, hops in zip(vids[flow_id], paths):
            # A route is a simple path and a replica has its own VID, so
            # this key is new on every switch it reaches.
            key = (src_mac, dst_mac, vid, pcp)
            route = (dst_mac, wildcard if aggregate and not frer else vid)
            for switch_name, outport in hops:
                classes, class_flows, routes, route_flows, meters = (
                    tables[switch_name]
                )
                meter_id = len(meters)
                if meter_id < meter_size:
                    meters[meter_id] = meter
                else:
                    meter_id = -1
                classes[key] = (meter_id, queue_id)
                class_flows.append(flow_id)
                routes.append((route, outport))
                route_flows.append(flow_id)


def gate_overflow(
    run_plan: "RunPlan", switch: str, program: SwitchProgram, gate_size: int
) -> Optional[str]:
    """Why *program*'s first overflowing port does not fit a
    *gate_size*-entry gate table, else ``None``: the one comparison the
    pre-flight reports and the build raises."""
    discipline = run_plan.discipline
    for port_id, (in_entries, out_entries, _) in program.gates.items():
        needed = max(len(in_entries), len(out_entries))
        if needed > gate_size:
            return (f"{switch} port {port_id}: {discipline.gate_list} needs "
                    f"{needed} gate entries but gate_size is {gate_size}"
                    f"{discipline.gate_hint}")
    return None


def table_overflows(
    switch: str, program: SwitchProgram, config: SwitchConfig
) -> Iterator[Tuple[str, str]]:
    """``(table, why)`` per shared table *program* overflows, naming the
    first flow that does not fit: the text pre-flight and build report."""
    routes: Dict[RouteKey, int] = {}  # each route's first flow
    for (key, _), flow_id in zip(program.routes, program.route_flows):
        routes.setdefault(key, flow_id)
    for table, owners, size in (
        ("class_tbl", program.class_flows, config.class_size),
        ("unicast_tbl", list(routes.values()), config.unicast_size),
    ):
        if len(owners) > size:
            yield table, (f"{switch}: {len(owners)} entries but the table "
                          f"holds {size}; flow {owners[size]} is the first "
                          "that does not fit")


def latency_bound_ns(run_plan: "RunPlan") -> Optional[int]:
    """The discipline's upper latency bound, at its longest slot, on the
    longest path a TS frame (or FRER replica) takes; ``None`` without TS
    flows or a window."""
    hop_ports = HopResolver(run_plan.topology)
    one_per_pair = {(f.src, f.dst): f for f in run_plan.flows.ts_flows}
    hops = max((len(path) for flow in one_per_pair.values()
                for path in (hop_ports.replicas(flow) if run_plan.frer_ts
                             else (hop_ports(flow),))), default=0)
    if not hops:
        return None
    discipline = run_plan.discipline
    slot_ns = discipline.drain_slot_ns(run_plan.slot_ns)
    window = discipline.window(hops, slot_ns)
    return None if window is None else window.max_ns


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


def check_deployment(run_plan: "RunPlan") -> List[Violation]:
    """Every mismatch between *run_plan*'s config and the run it plans.

    Tables, gate lists and the CBS map are judged on the programs the
    build installs, each violation naming the switch and the first flow
    (or port) that does not fit; queue depth, buffers and deadlines (the
    discipline's latency window) read ``run_plan.sched_plan``.  Returns
    records rather than raising, for the CLI's ``simulate --check``.
    """
    violations: List[Violation] = []

    def error(subject: str, message: str) -> None:
        violations.append(Violation(Severity.ERROR, subject, message))

    def warn(subject: str, message: str) -> None:
        violations.append(Violation(Severity.WARNING, subject, message))

    config = run_plan.config
    topology = run_plan.topology
    flows = run_plan.flows
    plan = run_plan.sched_plan
    if plan is not None:
        try:  # the slot check catches a plan handed in for another slot
            CqfSchedule.for_flows(flows.ts_periods(), run_plan.slot_ns)
            plan.raise_if_infeasible()
        except (SlotError, InfeasiblePlanError) as exc:
            error("slotting" if isinstance(exc, SlotError) else "itp",
                  str(exc))
            return violations

    programs, _ = compile_programs(run_plan)
    ts_ids = {flow.flow_id for flow in flows.ts_flows}
    for name, program in programs.items():
        # --- shared tables (guideline 1) and gate lists (guideline 2)
        for table, message in table_overflows(name, program, config):
            error(table, message)
        unmetered = [
            flow_id for (meter_id, _), flow_id
            in zip(program.classes.values(), program.class_flows)
            if meter_id < 0 and flow_id in ts_ids
        ]
        if unmetered:
            warn("meter_tbl",
                 f"{name}: only {config.meter_size} meters for "
                 f"{len(program.meters) + len(unmetered)} TS entries; flow "
                 f"{unmetered[0]} and {len(unmetered) - 1} more run "
                 "unpoliced")
        overflow = gate_overflow(run_plan, name, program, config.gate_size)
        if overflow is not None:
            error("gate_tbl", overflow)

    # --- CBS (guideline 3): the first cbs_map_size RC queues are shaped
    shaped = len(next(iter(programs.values())).cbs)
    unshaped = [f for f in flows.rc_flows if _rc_rank(f) >= shaped]
    if unshaped:
        error("cbs", f"the CBS map holds {config.cbs_map_size} RC queues; "
                     f"RC flow {unshaped[0].flow_id} is the first unshaped")

    if plan is None:
        return violations

    # --- queues and buffers (guideline 4)
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

    # --- deadlines: the discipline's window (none under Qbv), each flow at
    # the slot of the CQF system the plan put it on
    discipline = run_plan.discipline
    for flow in flows.ts_flows:
        if flow.deadline_ns is None:
            continue
        hops = topology.hops(flow.src, flow.dst)
        window = discipline.window(hops, plan.slot_ns_of(flow.flow_id))
        if window is not None and window.max_ns > flow.deadline_ns:
            error("deadline",
                  f"flow {flow.flow_id}: {discipline.name} worst case "
                  f"{window.max_ns}ns over {hops} hops exceeds the "
                  f"{flow.deadline_ns}ns deadline")

    # --- RC bandwidth admission (802.1Qat-style, flow management)
    if flows.rc_flows:
        from .admission import admit_flows

        report = admit_flows(topology, flows, rate_bps=run_plan.rate_bps)
        for verdict in report.rejected:
            error("rc_admission",
                  f"RC flow {verdict.flow_id} oversubscribes hop "
                  f"{verdict.rejecting_hop} by {verdict.shortfall_bps} bps "
                  "-- CBS will shape it below its request")
    return violations
