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
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError, InfeasiblePlanError, \
    SlotError, TopologyError
from repro.cqf.bounds import cqf_bounds
from repro.cqf.gcl_gen import (
    cqf_port_program,
    csqf_port_program,
    multi_cqf_port_program,
)
from repro.cqf.schedule import CqfSchedule
from repro.switch.device import DEFAULT_PROCESSING_DELAY_NS
from repro.switch.tables import CbsParams, ClassKey, GateEntry, RouteKey, \
    UnicastTable
from repro.traffic.flows import FlowSet, FlowSpec, TrafficClass
from .host import host_mac

if TYPE_CHECKING:
    from .testbed import RunPlan

__all__ = ["Severity", "SwitchProgram", "Violation", "check_deployment",
           "compile_programs"]

#: RC traffic spreads over queues 5, 4, 3 (the paper's "three queues for RC
#: flows in each port").
RC_QUEUES: Tuple[int, ...] = (5, 4, 3)
BE_QUEUE = 0

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
    _compile_gates(run_plan, programs, hop_ports)
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
    _, rc_queues = run_plan.queue_layout
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


def _compile_gates(
    run_plan: "RunPlan", programs: Programs, hop_ports: HopResolver
) -> None:
    if run_plan.gate_mechanism != "cqf":
        _compile_gates_qbv(run_plan, programs, hop_ports)
        return
    slot_ns = run_plan.slot_ns
    queue_num = run_plan.config.queue_num
    shaper = run_plan.sched.shaper
    ts_queue_groups, _ = run_plan.queue_layout
    if shaper == "cqf":
        gates = cqf_port_program(slot_ns, run_plan.ts_queue_pair, queue_num)
    elif shaper == "csqf":
        gates = csqf_port_program(slot_ns, ts_queue_groups[0], queue_num)
    else:
        gates = multi_cqf_port_program(
            slot_ns, run_plan.sched.slot2_ns(slot_ns), ts_queue_groups,
            queue_num,
        )
    for name, ports in run_plan.topology.switch_ports.items():
        programs[name].gates = dict.fromkeys(range(ports), gates)


def _compile_gates_qbv(
    run_plan: "RunPlan", programs: Programs, hop_ports: HopResolver
) -> None:
    """Per-port Qbv windows synthesized from the plan: in-gates stay
    open and TS frames cross each hop inside its window; ports no TS flow
    crosses keep the model's default lists."""
    from repro.qbv.synthesis import PortTraffic, TasSynthesizer

    plan = run_plan.sched_plan
    if plan is None:
        raise ConfigurationError("gate_mechanism='qbv' needs TS flows to "
                                 "synthesize windows")
    # Qbv implies the classic 'cqf' shaper: one schedule, one plan.
    schedule = plan.problem.schedule
    synthesizer = TasSynthesizer(
        schedule,
        rate_bps=run_plan.rate_bps,
        processing_delay_ns=DEFAULT_PROCESSING_DELAY_NS,
        propagation_ns=run_plan.propagation_ns,
        queue_num=run_plan.config.queue_num,
        ts_queue=run_plan.ts_queue_pair[1],
    )
    slot_flows: Dict[Tuple[str, int], Dict[int, List[FlowSpec]]] = {}
    hop_depths: Dict[Tuple[str, int], set] = {}
    for flow in run_plan.flows.ts_flows:
        offset = plan.offsets.get(flow.flow_id)
        if offset is None:
            continue  # rejected by a max_admission plan
        slots = range(
            offset, schedule.slot_count, flow.period_ns // schedule.slot_ns
        )
        for hop, port_key in enumerate(hop_ports(flow)):
            hop_depths.setdefault(port_key, set()).add(hop)
            per_port = slot_flows.setdefault(port_key, {})
            for slot in slots:
                per_port.setdefault(slot, []).append(flow)
    always_open = (GateEntry(0xFF, 1_000_000),)
    for (switch_name, port_id), per_slot in slot_flows.items():
        traffic = PortTraffic(
            slot_flows=per_slot,
            hop_indices=tuple(sorted(hop_depths[(switch_name, port_id)])),
        )
        programs[switch_name].gates[port_id] = (
            always_open, synthesizer.synthesize_port(traffic).entries, (),
        )


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
    ts_queue_groups, rc_queues = run_plan.queue_layout
    multi_cqf = run_plan.sched.shaper == "multi_cqf" and plan is not None
    meter_size = run_plan.config.meter_size
    wildcard = UnicastTable.WILDCARD_VID
    aggregate = run_plan.aggregate_routes
    frer = run_plan.frer_ts
    # RC under a non-classic shaper gets explicit (unmetered)
    # classification entries: the PCP fallback would land those frames
    # on a queue the shaper claimed.
    classify_rc = run_plan.sched.shaper != "cqf"
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
        # gate engine redirects to whichever member is gathering); under
        # multi_cqf the flow's planned system picks the group.
        system = plan.system_of(flow_id) if multi_cqf else 0
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
    for port_id, (in_entries, out_entries, _) in program.gates.items():
        needed = max(len(in_entries), len(out_entries))
        if needed > gate_size:
            what, hint = f"{run_plan.sched.shaper} gate list", ""
            if run_plan.gate_mechanism == "qbv":
                what = "Qbv schedule"
                hint = ("; size the config with "
                        "repro.qbv.synthesis.estimate_gate_size")
            return (f"{switch} port {port_id}: {what} needs {needed} gate "
                    f"entries but gate_size is {gate_size}{hint}")
    return None


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
    (or port) that does not fit; queue depth, buffers and Eq. (1)
    deadlines read ``run_plan.sched_plan``.  Returns records rather than
    raising, for the CLI's ``simulate --check`` to render.
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
        routes: Dict[RouteKey, int] = {}  # each route's first flow
        for (key, _), flow_id in zip(program.routes, program.route_flows):
            routes.setdefault(key, flow_id)
        for table, owners, size in (
            ("class_tbl", program.class_flows, config.class_size),
            ("unicast_tbl", list(routes.values()), config.unicast_size),
        ):
            if len(owners) > size:
                error(table, f"{name}: {len(owners)} entries but the table "
                             f"holds {size}; flow {owners[size]} is the "
                             "first that does not fit")
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

    # --- ports (guideline 5)
    if config.port_num < topology.max_enabled_ports:
        error("ports",
              f"topology needs {topology.max_enabled_ports} enabled ports, "
              f"config has {config.port_num}")

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

    # --- deadlines (Eq. 1), each flow at the slot of the CQF system the
    # plan put it on (Multi-CQF runs a second system at a longer slot)
    for flow in flows.ts_flows:
        if flow.deadline_ns is None or run_plan.gate_mechanism != "cqf":
            continue
        hops = topology.hops(flow.src, flow.dst)
        worst = cqf_bounds(hops, plan.slot_ns_of(flow.flow_id)).max_ns
        if worst > flow.deadline_ns:
            error("deadline",
                  f"flow {flow.flow_id}: Eq.(1) worst case {worst}ns over "
                  f"{hops} hops exceeds the {flow.deadline_ns}ns deadline")

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
