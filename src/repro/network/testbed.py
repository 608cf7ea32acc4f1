"""Scenario orchestration: topology + switches + flows -> measurements.

:class:`Testbed` reproduces the paper's experiment workflow end to end:

1. instantiate one customized :class:`~repro.switch.device.TsnSwitch` per
   topology node (same :class:`~repro.core.config.SwitchConfig`, per-node
   port count);
2. wire trunk links, talker uplinks and the listener attachment;
3. program the control plane along every flow's path: per-flow VLAN ids,
   classification + unicast entries, token-bucket meters, CQF gate control
   lists, CBS reservations for the RC queues;
4. run ITP to plan TS injection offsets, then attach generators
   (the TSNNic role) and the analyzer (the TSN analyzer role);
5. ``run()`` the schedule and return a :class:`ScenarioResult` with
   latency/jitter/loss summaries, switch counters, and occupancy high-water
   marks (the inputs to resource-sizing validation).

Every stochastic choice derives from the scenario ``seed``; identical
seeds give bit-identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.config import SwitchConfig
from repro.core.errors import ConfigurationError, SchedulingError, TopologyError
from repro.core.units import GIGABIT, ms, serialization_ns, wire_bytes
from repro.cqf.gcl_gen import (
    DEFAULT_TS_QUEUE_PAIR,
    cqf_port_program,
    csqf_port_program,
    multi_cqf_port_program,
)
from repro.cqf.itp import ItpPlan
from repro.sched import SchedPolicy, plan_flows
from repro.sched.problem import MultiSchedulePlan, SchedulePlan
from repro.faults.injector import FaultInjector, FaultReport
from repro.faults.plan import FaultPlan
from repro.obs.flowspans import FlowSpanRecorder
from repro.obs.headroom import HeadroomRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import WallClockProfiler
from repro.obs.slo import SloMonitor, SloPolicy, SloReport
from repro.sim.clock import LocalClock
from repro.sim.kernel import Simulator
from repro.sim.rng import RngFactory
from repro.sim.trace import NULL_TRACER, Tracer
from repro.switch.device import DEFAULT_PROCESSING_DELAY_NS, TsnSwitch
from repro.timesync.gptp import GptpConfig, SyncDomain
from repro.switch.tables import CbsParams, GateEntry
from repro.traffic.flows import FlowSet, FlowSpec, TrafficClass
from repro.traffic.generator import PeriodicSource, RateSource
from .analyzer import LatencySummary, TsnAnalyzer
from .host import Host
from .link import DEFAULT_PROPAGATION_NS, Link
from .topology import TopologySpec

__all__ = ["Testbed", "ScenarioResult"]

#: RC traffic spreads over queues 5, 4, 3 (the paper's "three queues for RC
#: flows in each port").
RC_QUEUES: Tuple[int, ...] = (5, 4, 3)
BE_QUEUE = 0


@dataclass
class ScenarioResult:
    """Everything one testbed run measured."""

    duration_ns: int
    slot_ns: int
    expected_by_flow: Dict[int, int]
    analyzer: TsnAnalyzer
    flows: FlowSet
    switches: Dict[str, TsnSwitch]
    itp_plan: Optional[ItpPlan]
    sched_plan: Optional[Union[SchedulePlan, MultiSchedulePlan]] = None
    metrics: Optional[MetricsRegistry] = None
    tracer: Tracer = NULL_TRACER
    sim_stats: Dict[str, int] = field(default_factory=dict)
    spans: Optional[FlowSpanRecorder] = None
    slo: Optional[SloReport] = None
    links: List["Link"] = field(default_factory=list)
    frer_eliminators: Dict[str, "FrerEliminator"] = field(
        default_factory=dict
    )
    faults: Optional[FaultReport] = None
    headroom: Optional[HeadroomRecorder] = None

    # ------------------------------------------------------------ shortcuts

    def summary(self, traffic_class: TrafficClass) -> LatencySummary:
        return self.analyzer.class_summary(traffic_class)

    @property
    def ts_summary(self) -> LatencySummary:
        return self.summary(TrafficClass.TS)

    def loss_rate(self, traffic_class: TrafficClass) -> float:
        return self.analyzer.loss_rate(self.expected_by_flow, traffic_class)

    @property
    def ts_loss(self) -> float:
        return self.loss_rate(TrafficClass.TS)

    def counters(self) -> Dict[str, Dict[str, int]]:
        return {
            name: switch.counters.as_dict()
            for name, switch in self.switches.items()
        }

    def max_queue_high_water(self) -> int:
        """Worst queue occupancy across all switches (sizing check)."""
        return max(
            (
                high
                for switch in self.switches.values()
                for high in switch.queue_high_water().values()
            ),
            default=0,
        )

    def max_buffer_high_water(self) -> int:
        return max(
            (
                high
                for switch in self.switches.values()
                for high in switch.buffer_high_water().values()
            ),
            default=0,
        )

    def headroom_report(
        self,
        queue_depth_margin: float = 1.5,
        depth_round_to: int = 4,
    ) -> "HeadroomReport":
        """Observed-vs-provisioned accounting for this run.

        Always available: peaks and table fills come from run state.  When
        the run was built with a :class:`HeadroomRecorder`, the report
        additionally carries time-weighted means and occupancy bands.
        """
        from repro.obs.headroom import build_headroom_report

        return build_headroom_report(
            self,
            self.headroom,
            queue_depth_margin=queue_depth_margin,
            depth_round_to=depth_round_to,
        )

    def port_report(self) -> str:
        """Per-port occupancy/drop table -- the sizing-evidence view.

        One row per (switch, port): queue high-water vs configured depth,
        buffer high-water vs pool size, the drop counters that fire when
        either is undersized and -- when occupancy probes ran --
        time-weighted mean occupancies.  Rendered from the headroom
        report so ``simulate --drops`` and ``repro headroom`` share one
        occupancy view.
        """
        from repro.analysis.report import render_port_occupancy

        return render_port_occupancy(self.headroom_report())

    def drop_report(self) -> str:
        """Per-switch drop totals broken down by reason.

        One row per switch, one column per drop stage (lookup miss,
        policer, Qci gate filter, queue tail, buffer exhaustion, ingress
        FCS rejection) -- the where-did-loss-come-from view the
        undersizing ablations read.  Runs with link faults or FRER active
        append the link-level losses and the eliminations under their own
        distinct reasons instead of folding them into switch loss.
        """
        from repro.analysis.report import render_table

        reasons = (
            "unknown_dst", "policer", "gate", "tail", "no_buffer", "corrupt",
        )
        rows = []
        for name, switch in self.switches.items():
            counters = switch.counters
            rows.append(
                [name]
                + [str(getattr(counters, f"dropped_{r}")) for r in reasons]
                + [str(counters.dropped_total)]
            )
        sections = [
            render_table(
                ["switch"] + list(reasons) + ["total"],
                rows,
                title="Drops by reason",
            )
        ]
        link_rows = [
            [
                link.name,
                str(link.frames_blackholed),
                str(link.frames_fault_lost),
                str(link.frames_fault_corrupted),
            ]
            for link in self.links
            if link.frames_blackholed
            or link.frames_fault_lost
            or link.frames_fault_corrupted
        ]
        if link_rows:
            sections.append(
                render_table(
                    ["link", "blackholed", "fault lost", "fault corrupted"],
                    link_rows,
                    title="Link losses",
                )
            )
        frer_rows = [
            [
                listener,
                str(eliminator.duplicates_eliminated),
                str(eliminator.rogue_frames),
            ]
            for listener, eliminator in sorted(self.frer_eliminators.items())
        ]
        if frer_rows:
            sections.append(
                render_table(
                    ["listener", "duplicates eliminated", "rogue"],
                    frer_rows,
                    title="FRER elimination (not loss)",
                )
            )
        return "\n\n".join(sections)


class Testbed:
    """Builds and runs one scenario."""

    # Read by benchmarks/e2e only (its ``testbed.frame_path`` flag, always
    # 0 = frame objects); goes with that flag in ROADMAP item 1c.
    batch = None

    def __init__(
        self,
        topology: TopologySpec,
        config: SwitchConfig,
        flows: FlowSet,
        slot_ns: int = 62_500,
        rate_bps: int = GIGABIT,
        propagation_ns: int = DEFAULT_PROPAGATION_NS,
        trunk_error_rate: float = 0.0,
        seed: int = 0,
        use_itp: bool = True,
        gate_mechanism: str = "cqf",
        injection_phase: str = "planned",
        aggregate_routes: bool = False,
        frer_ts: bool = False,
        enable_metering: bool = True,
        poisson_be: bool = False,
        ts_queue_pair: Tuple[int, int] = DEFAULT_TS_QUEUE_PAIR,
        sched: Optional[SchedPolicy] = None,
        scheduler_factory: Optional[Callable] = None,
        shared_buffers: bool = False,
        preemption_enabled: bool = False,
        clock_drift_ppm: float = 0.0,
        clock_offset_spread_ns: int = 0,
        enable_gptp: bool = False,
        gptp_config: Optional[GptpConfig] = None,
        gptp_warmup_ns: int = 2_000_000_000,
        tracer: Tracer = NULL_TRACER,
        metrics: Optional[MetricsRegistry] = None,
        profiler: Optional[WallClockProfiler] = None,
        spans: Optional[FlowSpanRecorder] = None,
        slo_policy: Optional[SloPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        headroom: Optional[HeadroomRecorder] = None,
    ) -> None:
        topology.validate()
        config.validate()
        self.topology = topology
        self.base_config = config
        self.flows = flows
        self.slot_ns = slot_ns
        self.rate_bps = rate_bps
        self.propagation_ns = propagation_ns
        self.trunk_error_rate = trunk_error_rate
        self.use_itp = use_itp
        # The scheduling policy: backend + shaper + objective.  ``use_itp``
        # remains the legacy knob -- consulted only when no explicit policy
        # is given, so ``use_itp=False`` still means the unplanned ablation.
        if sched is None:
            sched = SchedPolicy(backend="greedy" if use_itp else "unplanned")
        self.sched = sched
        self.shaper = sched.shaper
        if gate_mechanism not in ("cqf", "qbv"):
            raise ConfigurationError(
                f"gate_mechanism must be 'cqf' or 'qbv', "
                f"got {gate_mechanism!r}"
            )
        if gate_mechanism != "cqf" and self.shaper != "cqf":
            raise ConfigurationError(
                f"shaper {self.shaper!r} requires gate_mechanism='cqf' "
                f"(Qbv window synthesis assumes classic CQF slotting)"
            )
        self.gate_mechanism = gate_mechanism
        if injection_phase not in ("planned", "uniform"):
            raise ConfigurationError(
                f"injection_phase must be 'planned' or 'uniform', "
                f"got {injection_phase!r}"
            )
        self.injection_phase = injection_phase
        self.aggregate_routes = aggregate_routes
        # 802.1CB seamless redundancy: replicate every TS flow over two
        # edge-disjoint paths (the destination needs two attachments, e.g.
        # dual_path_topology) and eliminate duplicates at the listener.
        self.frer_ts = frer_ts
        if frer_ts and gate_mechanism != "cqf":
            raise ConfigurationError("frer_ts currently requires CQF gating")
        if frer_ts and self.shaper != "cqf":
            raise ConfigurationError(
                "frer_ts currently requires the classic 'cqf' shaper"
            )
        self.frer_eliminators: Dict[str, "FrerEliminator"] = {}
        self._replica_vids: Dict[int, int] = {}
        self.enable_metering = enable_metering
        self.poisson_be = poisson_be
        self.ts_queue_pair = ts_queue_pair
        # Per-shaper queue layout.  Classic CQF keeps the historical map
        # (TS pair high, RC on 5/4/3 = their PCPs, BE on 0).  CSQF claims a
        # third TS queue and Multi-CQF a second queue group, pushing the RC
        # queues down; RC PCPs then no longer equal their queue ids, so RC
        # flows get explicit classification entries (rank-preserving map).
        if self.shaper == "cqf":
            self.ts_queue_groups: Tuple[Tuple[int, ...], ...] = (
                tuple(ts_queue_pair),
            )
            self.rc_queues: Tuple[int, ...] = RC_QUEUES
        elif self.shaper == "csqf":
            self.ts_queue_groups = (
                (ts_queue_pair[0] - 1, ts_queue_pair[0], ts_queue_pair[1]),
            )
            self.rc_queues = tuple(q - 1 for q in RC_QUEUES)
        else:  # multi_cqf: one queue group per CQF system
            self.ts_queue_groups = (
                tuple(ts_queue_pair),
                (ts_queue_pair[0] - 2, ts_queue_pair[1] - 2),
            )
            self.rc_queues = tuple(q - 2 for q in RC_QUEUES)
        if self.shaper != "cqf":
            used = [q for group in self.ts_queue_groups for q in group]
            used += [*self.rc_queues, BE_QUEUE]
            if (
                len(set(used)) != len(used)
                or min(used) < 0
                or max(used) >= config.queue_num
            ):
                raise ConfigurationError(
                    f"shaper {self.shaper!r} queue layout {sorted(used)} "
                    f"does not fit {config.queue_num} queues without overlap"
                )
        self.scheduler_factory = scheduler_factory
        self.shared_buffers = shared_buffers
        self.preemption_enabled = preemption_enabled
        self.clock_drift_ppm = clock_drift_ppm
        self.clock_offset_spread_ns = clock_offset_spread_ns
        self.enable_gptp = enable_gptp
        self.gptp_config = gptp_config or GptpConfig()
        self.gptp_warmup_ns = gptp_warmup_ns
        self.tracer = tracer
        self.metrics = metrics
        self.profiler = profiler
        self.spans = spans
        self.slo_policy = slo_policy
        self.slo_monitor = None
        self.headroom = headroom
        self.fault_plan = fault_plan
        self.fault_injector: Optional[FaultInjector] = None
        self.sim = Simulator(profiler=profiler)
        self.rng = RngFactory(seed)
        self.sync_domain: Optional[SyncDomain] = None

        self.switches: Dict[str, TsnSwitch] = {}
        self.hosts: Dict[str, Host] = {}
        self.links: List[Link] = []
        self._listener_ports: Dict[Tuple[str, str], int] = {}
        self._hop_ports: Dict[Tuple[str, str], Tuple[Tuple[str, int], ...]] = {}
        self._flow_vids: Dict[int, int] = {}
        self._rc_queue_of: Dict[int, int] = {}
        self.analyzer: Optional[TsnAnalyzer] = None
        self.itp_plan: Optional[ItpPlan] = None
        self.sched_plan: Optional[
            Union[SchedulePlan, MultiSchedulePlan]
        ] = None
        self._sources: List = []
        self._built = False

    # ------------------------------------------------------------- building

    def build(self) -> None:
        """Construct devices, wire links, program the control plane."""
        if self._built:
            raise ConfigurationError("testbed already built")
        self._built = True
        self._assign_vids()
        self._create_switches()
        self._create_hosts()
        self._wire_links()
        self._plan_injections()  # before gates: Qbv windows need the plan
        self._program_gates()
        self._program_cbs()
        self._program_paths()
        self._create_analyzer()
        self._create_sources()

    #: VLAN used by background flows toward a destination no TS flow serves.
    BACKGROUND_VID = 4095

    def _assign_vids(self) -> None:
        """Assign VLAN ids: per-flow for TS, shared for background.

        TS flows get unique VIDs -- the classification key (SMAC, DMAC,
        VID, PRI) distinguishes the 1024 flows by VID, which is exactly why
        the paper's classification *and* unicast tables are sized at the TS
        flow count (both are exactly full at the target workload).

        Background (RC/BE) aggregates ride the 802.1Q defaults instead:
        they reuse the VID of some TS flow to the same destination, so
        forwarding shares that flow's unicast entry (per-destination
        forwarding, as on real L2 silicon) while the PRI field keeps their
        classification on the PCP fallback -- zero extra table entries.
        """
        ts_flows = self.flows.ts_flows
        if len(ts_flows) > 4094:
            raise ConfigurationError(
                f"{len(ts_flows)} TS flows exceed the 4094 usable VLAN ids"
            )
        if self.frer_ts and 2 * len(ts_flows) > 4094:
            raise ConfigurationError(
                f"FRER doubles the VID demand: {2 * len(ts_flows)} > 4094"
            )
        vid_for_dst: Dict[str, int] = {}
        next_vid = 1
        for flow in self.flows:
            if flow.traffic_class is TrafficClass.TS:
                self._flow_vids[flow.flow_id] = next_vid
                vid_for_dst.setdefault(flow.dst, next_vid)
                next_vid += 1
        if self.frer_ts:
            # Replica VIDs sit in a second band so path-B routes and
            # classification entries stay distinct from path A's.
            for flow in self.flows.ts_flows:
                self._replica_vids[flow.flow_id] = (
                    self._flow_vids[flow.flow_id] + len(ts_flows)
                )
        for flow in self.flows:
            if flow.traffic_class is not TrafficClass.TS:
                self._flow_vids[flow.flow_id] = vid_for_dst.get(
                    flow.dst, self.BACKGROUND_VID
                )

    def _create_switches(self) -> None:
        """Instantiate one customized switch per topology node.

        With ``clock_drift_ppm`` set, every switch (except the first, which
        acts as gPTP grandmaster and time source) gets a drifting, offset
        local clock; gate schedules then only stay network-aligned if gPTP
        is enabled -- the time-sync ablation.
        """
        drift_rng = self.rng.stream("clock.drift")
        for index, (name, ports) in enumerate(
            self.topology.switch_ports.items()
        ):
            per_node = self.base_config.with_updates(name=name, port_num=ports)
            clock = None
            if self.clock_drift_ppm or self.clock_offset_spread_ns:
                is_grandmaster = index == 0
                clock = LocalClock(
                    self.sim,
                    drift_ppm=(
                        0.0
                        if is_grandmaster
                        else drift_rng.uniform(
                            -self.clock_drift_ppm, self.clock_drift_ppm
                        )
                    ),
                    offset_ns=(
                        0
                        if is_grandmaster
                        else drift_rng.randint(
                            -self.clock_offset_spread_ns,
                            self.clock_offset_spread_ns,
                        )
                    ),
                )
            self.switches[name] = TsnSwitch(
                self.sim,
                per_node,
                rate_bps=self.rate_bps,
                clock=clock,
                scheduler_factory=self.scheduler_factory,
                shared_buffers=self.shared_buffers,
                preemption_enabled=self.preemption_enabled,
                express_queues=tuple(
                    q for group in self.ts_queue_groups for q in group
                ),
                tracer=self.tracer,
                metrics=self.metrics,
                spans=self.spans,
                headroom=self.headroom,
                name=name,
            )
        if self.enable_gptp:
            self._build_sync_domain()

    def _build_sync_domain(self) -> None:
        """Sync tree over the trunk graph, rooted at the first switch."""
        domain = SyncDomain(self.sim, self.gptp_config)
        names = list(self.switches)
        root = names[0]
        domain.add_node(root, self.switches[root].clock)
        # BFS over trunks (either direction) to parent every switch.
        adjacency: Dict[str, List[str]] = {name: [] for name in names}
        for trunk in self.topology.trunks:
            adjacency[trunk.src].append(trunk.dst)
            adjacency[trunk.dst].append(trunk.src)
        frontier = [root]
        while frontier:
            current = frontier.pop(0)
            for neighbor in adjacency[current]:
                if neighbor in domain.nodes:
                    continue
                domain.add_node(
                    neighbor,
                    self.switches[neighbor].clock,
                    parent=current,
                    link_delay_ns=self.propagation_ns,
                )
                frontier.append(neighbor)
        missing = [n for n in names if n not in domain.nodes]
        if missing:
            raise TopologyError(
                f"gPTP tree cannot reach switches {missing} over trunks"
            )
        self.sync_domain = domain

    def _create_hosts(self) -> None:
        # dict.fromkeys: a host may appear twice (e.g. a FRER listener with
        # two attachments) but must be one device.  Hosts are numbered per
        # testbed, so the same scenario gets the same MACs on every build.
        for index, host_name in enumerate(dict.fromkeys(self.topology.hosts)):
            self.hosts[host_name] = Host(
                self.sim,
                host_name,
                rate_bps=self.rate_bps,
                tracer=self.tracer,
                spans=self.spans,
                index=index,
            )

    def _wire_links(self) -> None:
        for trunk in self.topology.trunks:
            src_switch = self.switches[trunk.src]
            dst_switch = self.switches[trunk.dst]
            name = f"{trunk.src}.p{trunk.src_port}->{trunk.dst}"
            self.links.append(
                Link(
                    self.sim,
                    src_switch.ports[trunk.src_port],
                    dst_switch.receive,
                    self.propagation_ns,
                    error_rate=self.trunk_error_rate,
                    rng=(
                        self.rng.stream(f"link.{name}.errors")
                        if self.trunk_error_rate
                        else None
                    ),
                    name=name,
                    spans=self.spans,
                )
            )
        for uplink in self.topology.uplinks:
            host = self.hosts[uplink.host]
            self.links.append(
                Link(
                    self.sim,
                    host.nic,
                    self.switches[uplink.dst].receive,
                    self.propagation_ns,
                    name=f"{uplink.host}->{uplink.dst}",
                    spans=self.spans,
                )
            )
        for attachment in self.topology.attachments:
            host = self.hosts[attachment.host]
            switch = self.switches[attachment.switch]
            self.links.append(
                Link(
                    self.sim,
                    switch.ports[attachment.port],
                    host.receive,
                    self.propagation_ns,
                    name=(
                        f"{attachment.switch}.p{attachment.port}"
                        f"->{attachment.host}"
                    ),
                    spans=self.spans,
                )
            )
            self._listener_ports[(attachment.switch, attachment.host)] = (
                attachment.port
            )
        # Unique positive arrival priority per link, in wiring order (a
        # pure function of the topology spec).  Same-instant arrivals are
        # then ordered by which link carried them, a property of the
        # topology, not by the order their events were posted.  Positive
        # keeps them after gate/fault events (negative priorities) and
        # ordinary zero-priority events at the same time.
        for index, link in enumerate(self.links):
            link.arrival_priority = index + 1

    def _program_gates(self) -> None:
        if self.gate_mechanism != "cqf":
            self._program_gates_qbv()
            return
        queue_num = self.base_config.queue_num
        if self.shaper == "cqf":
            in_entries, out_entries, groups = cqf_port_program(
                self.slot_ns, self.ts_queue_pair, queue_num
            )
        elif self.shaper == "csqf":
            in_entries, out_entries, groups = csqf_port_program(
                self.slot_ns, self.ts_queue_groups[0], queue_num
            )
        else:
            in_entries, out_entries, groups = multi_cqf_port_program(
                self.slot_ns,
                self.sched.slot2_ns(self.slot_ns),
                self.ts_queue_groups,
                queue_num,
            )
        for switch in self.switches.values():
            for port_id in range(len(switch.ports)):
                switch.program_gcls(
                    port_id, list(in_entries), list(out_entries), groups
                )

    def _program_gates_qbv(self) -> None:
        """Per-port Time-Aware Shaper windows synthesized from the ITP plan.

        Qbv gates the egress only; in-gates stay open (no CQF queue pair),
        and TS frames flow through each hop inside its transmission window
        rather than waiting out a slot.  ``gate_size`` must cover the
        compiled schedule -- size it with
        :func:`repro.qbv.synthesis.estimate_gate_size`.
        """
        from repro.qbv.synthesis import PortTraffic, TasSynthesizer

        if self.itp_plan is None:
            raise ConfigurationError(
                "gate_mechanism='qbv' needs TS flows to synthesize windows"
            )
        schedule = self.itp_plan.schedule
        synthesizer = TasSynthesizer(
            schedule,
            rate_bps=self.rate_bps,
            processing_delay_ns=DEFAULT_PROCESSING_DELAY_NS,
            propagation_ns=self.propagation_ns,
            queue_num=self.base_config.queue_num,
            ts_queue=self.ts_queue_pair[1],
        )
        slot_flows: Dict[Tuple[str, int], Dict[int, List[FlowSpec]]] = {}
        hop_depths: Dict[Tuple[str, int], set] = {}
        for flow in self.flows.ts_flows:
            if flow.flow_id not in self.itp_plan.assignments:
                continue  # rejected by a max_admission plan
            assignment = self.itp_plan.assignments[flow.flow_id]
            slots = range(
                assignment.offset_slot,
                schedule.slot_count,
                assignment.period_slots,
            )
            for hop, port_key in enumerate(self._flow_hop_ports(flow)):
                hop_depths.setdefault(port_key, set()).add(hop)
                per_port = slot_flows.setdefault(port_key, {})
                for slot in slots:
                    per_port.setdefault(slot, []).append(flow)
        always_open = [GateEntry(0xFF, 1_000_000)]
        for (switch_name, port_id), per_slot in slot_flows.items():
            traffic = PortTraffic(
                slot_flows=per_slot,
                hop_indices=tuple(sorted(hop_depths[(switch_name, port_id)])),
            )
            port_schedule = synthesizer.synthesize_port(traffic)
            switch = self.switches[switch_name]
            if port_schedule.gate_size > switch.config.gate_size:
                raise ConfigurationError(
                    f"{switch_name}: Qbv schedule needs "
                    f"{port_schedule.gate_size} gate entries but gate_size "
                    f"is {switch.config.gate_size}; size the config with "
                    "repro.qbv.synthesis.estimate_gate_size"
                )
            switch.program_gcls(
                port_id, list(always_open), port_schedule.entries, ()
            )

    def _program_cbs(self) -> None:
        """Reserve CBS bandwidth for the RC queues on every port.

        Each RC queue's idleSlope covers the aggregate rate of the flows
        assigned to it with 100% headroom, clamped into (0, 75%] of the port
        rate; queues with no RC flows get a token reservation so the CBS
        map/table sizing of the config is exercised either way.
        """
        rc_flows = self.flows.rc_flows
        per_queue_rate: Dict[int, int] = {q: 0 for q in self.rc_queues}
        for flow in rc_flows:
            pcp = flow.effective_pcp
            if pcp not in RC_QUEUES:
                raise ConfigurationError(
                    f"RC flow {flow.flow_id}: PCP {pcp} does not map onto "
                    f"an RC queue {RC_QUEUES}"
                )
            # Rank-preserving PCP -> queue map; the identity under 'cqf'.
            queue = self.rc_queues[RC_QUEUES.index(pcp)]
            self._rc_queue_of[flow.flow_id] = queue
            per_queue_rate[queue] += flow.effective_rate_bps
        usable = len(self.rc_queues)
        if self.base_config.cbs_map_size < usable:
            usable = self.base_config.cbs_map_size
        for switch in self.switches.values():
            for port_id in range(len(switch.ports)):
                for slot_index, queue_id in enumerate(
                    self.rc_queues[:usable]
                ):
                    reserved = per_queue_rate.get(queue_id, 0) * 2
                    reserved = max(reserved, self.rate_bps // 100)
                    reserved = min(reserved, self.rate_bps * 3 // 4)
                    switch.program_cbs(
                        port_id,
                        queue_id,
                        slot_index,
                        CbsParams.for_reservation(reserved, self.rate_bps),
                    )

    def _queue_for(self, flow: FlowSpec) -> int:
        if flow.traffic_class is TrafficClass.TS:
            # Classification targets one member of the flow's CQF group;
            # the gate engine redirects to whichever member is gathering.
            # Under multi_cqf the flow's planned system picks the group.
            if self.shaper == "multi_cqf" and self.sched_plan is not None:
                system = self.sched_plan.system_of(flow.flow_id)
                return self.ts_queue_groups[system][-1]
            return self.ts_queue_groups[0][-1]
        if flow.traffic_class is TrafficClass.RC:
            return self._rc_queue_of[flow.flow_id]
        return BE_QUEUE

    def _ts_admitted(self, flow: FlowSpec) -> bool:
        """False only for flows a ``max_admission`` plan rejected."""
        return self.sched_plan is None or flow.flow_id in self.sched_plan.offsets

    def _flow_hop_ports(self, flow: FlowSpec) -> Tuple[Tuple[str, int], ...]:
        """(switch, egress port) for every hop including listener delivery.

        Resolved once per distinct ``(src, dst)`` of this build.
        """
        key = (flow.src, flow.dst)
        hop_ports = self._hop_ports.get(key)
        if hop_ports is None:
            topology = self.topology
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
            self._hop_ports[key] = hop_ports
        return hop_ports

    def _frer_hop_port_sets(self, flow: FlowSpec) -> List[List[Tuple[str, int]]]:
        """Two edge-disjoint hop-port lists toward the flow's destination.

        One path per listener attachment (FRER needs the destination to be
        attached at least twice); edge-disjointness is verified so a single
        trunk failure cannot take out both replicas.
        """
        attachments = [
            a for a in self.topology.attachments if a.host == flow.dst
        ]
        if len(attachments) < 2:
            raise TopologyError(
                f"FRER flow {flow.flow_id}: destination {flow.dst!r} needs "
                f"two attachments, found {len(attachments)}"
            )
        paths: List[List[Tuple[str, int]]] = []
        used_edges: set = set()
        first = self.topology.host_switch(flow.src)
        for attachment in attachments[:2]:
            _, egress = self.topology.route(first, attachment.switch)
            hop_ports = [*egress, (attachment.switch, attachment.port)]
            edges = set(hop_ports)
            overlap = edges & used_edges
            if overlap:
                raise TopologyError(
                    f"FRER flow {flow.flow_id}: replica paths share trunk "
                    f"ports {sorted(overlap)} -- not disjoint"
                )
            used_edges |= edges
            paths.append(hop_ports)
        return paths

    def _program_paths(self) -> None:
        """Install forwarding/classification/policing along every path.

        TS flows get per-flow classification entries and meters -- the table
        sizing the paper evaluates (class/meter size == TS flow count, so
        the tables are exactly full at the target workload).  RC and BE
        background ride the 802.1Q PCP default instead: their PCP lands
        them directly on the CBS-shaped queues (5..3) or the best-effort
        queue (0), consuming only a shared forwarding route.
        """
        meter_ids: Dict[str, int] = {name: 0 for name in self.switches}

        def next_meter(switch_name: str, rate_bps: int, burst: int) -> int:
            # Meters are assigned first-come until the customized meter
            # table fills; overflow flows run unmetered (the sizing
            # guideline sets meter_size to the flow count, so overflow only
            # happens in deliberate undersizing runs).
            switch = self.switches[switch_name]
            if (
                not self.enable_metering
                or meter_ids[switch_name] >= switch.config.meter_size
            ):
                return -1
            meter_id = meter_ids[switch_name]
            meter_ids[switch_name] += 1
            switch.program_meter(meter_id, rate_bps=rate_bps,
                                 burst_bytes=burst)
            return meter_id

        for flow in self.flows:
            vid = self._flow_vids[flow.flow_id]
            pcp = flow.effective_pcp
            queue_id = self._queue_for(flow)
            src_mac = self.hosts[flow.src].mac
            dst_mac = self.hosts[flow.dst].mac
            if flow.traffic_class is TrafficClass.TS:
                if not self._ts_admitted(flow):
                    continue  # rejected by a max_admission plan: no state
                if self.frer_ts:
                    replicas = list(
                        zip(
                            (vid, self._replica_vids[flow.flow_id]),
                            self._frer_hop_port_sets(flow),
                        )
                    )
                else:
                    replicas = [(vid, self._flow_hop_ports(flow))]
                for replica_vid, hop_ports in replicas:
                    for switch_name, outport in hop_ports:
                        switch = self.switches[switch_name]
                        meter_id = next_meter(
                            switch_name,
                            max(64_000, flow.effective_rate_bps * 2),
                            4 * flow.size_bytes,
                        )
                        switch.program_flow(
                            src_mac, dst_mac, replica_vid, pcp, outport,
                            queue_id, meter_id,
                            aggregate_route=(
                                self.aggregate_routes and not self.frer_ts
                            ),
                        )
            elif (
                flow.traffic_class is TrafficClass.RC
                and self.shaper != "cqf"
            ):
                # The PCP fallback would land RC frames on a queue the
                # shaper claimed; install explicit (unmetered)
                # classification entries mapping them to the shifted RC
                # queues instead.
                for switch_name, outport in self._flow_hop_ports(flow):
                    self.switches[switch_name].program_flow(
                        src_mac, dst_mac, vid, pcp, outport, queue_id, -1,
                        aggregate_route=self.aggregate_routes,
                    )
            else:  # RC/BE: forwarding route only, PCP default classifies
                for switch_name, outport in self._flow_hop_ports(flow):
                    self.switches[switch_name].program_route(
                        dst_mac,
                        None if self.aggregate_routes else vid,
                        outport,
                    )

    def _plan_injections(self) -> None:
        if not self.flows.ts_flows:
            return
        plan = plan_flows(
            list(self.flows), self.slot_ns, self.rate_bps, policy=self.sched
        )
        plan.raise_if_infeasible()
        self.sched_plan = plan
        if isinstance(plan, SchedulePlan):
            # Single-system plans keep the legacy view alive (Qbv window
            # synthesis, sizing evidence, exports); Multi-CQF has no
            # faithful single-schedule projection.
            self.itp_plan = plan.to_itp_plan()

    def _create_analyzer(self) -> None:
        from repro.frer.elimination import FrerEliminator

        self.analyzer = TsnAnalyzer(self.sim, self.flows)
        if self.slo_policy is not None:
            self.slo_monitor = SloMonitor(
                self.slo_policy, self.flows, metrics=self.metrics
            )
            self.analyzer.slo = self.slo_monitor
        for attachment in self.topology.attachments:
            host = self.hosts[attachment.host]
            if self.frer_ts:
                if attachment.host not in self.frer_eliminators:
                    self.frer_eliminators[attachment.host] = FrerEliminator(
                        self.analyzer.record
                    )
                host.on_receive = self.frer_eliminators[attachment.host]
            else:
                host.on_receive = self.analyzer.record

    def _create_sources(self) -> None:
        for flow in self.flows:
            host = self.hosts[flow.src]
            dst = self.hosts[flow.dst]
            vid = self._flow_vids[flow.flow_id]
            if flow.traffic_class is TrafficClass.TS:
                assert self.sched_plan is not None
                if not self._ts_admitted(flow):
                    continue  # rejected flows inject nothing
                plan = self.sched_plan
                offset = (
                    plan.offsets[flow.flow_id]
                    * plan.slot_ns_of(flow.flow_id)
                    + self._injection_phase_ns(flow)
                )
                vids = [vid]
                if self.frer_ts:
                    # FRER replication: one source per member stream, same
                    # cadence, so replicas carry identical (flow, seq)
                    vids.append(self._replica_vids[flow.flow_id])
                for member_vid in vids:
                    self._sources.append(
                        PeriodicSource(
                            self.sim,
                            host.inject,
                            flow.flow_id,
                            host.mac,
                            dst.mac,
                            size_bytes=flow.size_bytes,
                            period_ns=flow.period_ns or ms(10),
                            offset_ns=offset,
                            vlan_id=member_vid,
                            pcp=flow.effective_pcp,
                            spans=self.spans,
                        )
                    )
            else:
                rng = self.rng.stream(f"flow{flow.flow_id}.phase")
                gap_hint = flow.inter_frame_ns
                self._sources.append(
                    RateSource(
                        self.sim,
                        host.inject,
                        flow.flow_id,
                        host.mac,
                        dst.mac,
                        size_bytes=flow.size_bytes,
                        rate_bps=flow.effective_rate_bps,
                        start_ns=rng.randrange(max(1, gap_hint)),
                        vlan_id=vid,
                        pcp=flow.effective_pcp,
                        poisson=(
                            self.poisson_be
                            and flow.traffic_class is TrafficClass.BE
                        ),
                        rng=self.rng.stream(f"flow{flow.flow_id}.gaps"),
                        spans=self.spans,
                    )
                )

    def _injection_phase_ns(self, flow: FlowSpec) -> int:
        """Where inside its planned slot a TS flow injects.

        ``"planned"`` uses the plan's compact stagger (frames back-to-back
        at the slot head -- maximal drain margin, near-zero cross-flow
        jitter).  ``"uniform"`` draws a seeded random phase across the slot,
        the way unconstrained TSNNic applications inject: latency then
        spreads across the Eq. (1) window and the measured jitter becomes
        proportional to the slot size -- the behaviour behind the paper's
        "the jitter is related to the slot size" (Fig. 7c).  A guard at the
        slot tail keeps the frame's arrival at the first switch inside the
        intended slot.  The slot size is the flow's own system's (they
        differ under Multi-CQF).
        """
        assert self.sched_plan is not None
        if self.injection_phase == "planned":
            return self.sched_plan.phase_ns(flow.flow_id)
        guard = (
            serialization_ns(wire_bytes(flow.size_bytes), self.rate_bps)
            + self.propagation_ns
            + DEFAULT_PROCESSING_DELAY_NS
            + 1_000
        )
        window = max(1, self.sched_plan.slot_ns_of(flow.flow_id) - guard)
        rng = self.rng.stream(f"flow{flow.flow_id}.inject")
        return rng.randrange(window)

    # -------------------------------------------------------------- running

    def run(self, duration_ns: int, drain_slots: int = 8) -> ScenarioResult:
        """Inject for *duration_ns*, drain, and collect results."""
        if not self._built:
            self.build()
        if duration_ns <= 0:
            raise ConfigurationError(
                f"duration must be positive, got {duration_ns}"
            )
        if self.sync_domain is not None:
            # Let the servos lock before gates and traffic start.
            self.sync_domain.start()
            self.sim.run(until=self.gptp_warmup_ns)
        start_ns = self.sim.now
        if self.fault_plan is not None:
            # Fault times are relative to traffic start so a plan means
            # the same thing regardless of gPTP warmup.
            self.fault_injector = FaultInjector(
                self.fault_plan,
                sim=self.sim,
                links=self.links,
                switches=self.switches,
                rng=self.rng,
                sync_domain=self.sync_domain,
                metrics=self.metrics,
            )
            self.fault_injector.arm(start_ns)
        for switch in self.switches.values():
            switch.start()
        for host in self.hosts.values():
            host.start()
        for source in self._sources:
            if isinstance(source, PeriodicSource):
                remaining = duration_ns - source.offset_ns
                source.limit = max(0, -(-remaining // source.period_ns))
            else:
                source.until_ns = start_ns + duration_ns
            source.start()
        drain_slot_ns = (
            self.sched.slot2_ns(self.slot_ns)
            if self.shaper == "multi_cqf"
            else self.slot_ns
        )
        self.sim.run(until=start_ns + duration_ns + drain_slots * drain_slot_ns)
        expected = {source.flow_id: source.emitted for source in self._sources}
        assert self.analyzer is not None
        slo_report = (
            self.slo_monitor.report(expected, end_ns=self.sim.now)
            if self.slo_monitor is not None
            else None
        )
        fault_report = (
            self.fault_injector.report(
                frer_eliminators=self.frer_eliminators
            )
            if self.fault_injector is not None
            else None
        )
        if self.headroom is not None:
            self.headroom.finalize(self.sim.now)
        if self.metrics is not None and self.frer_eliminators:
            gauge = self.metrics.gauge(
                "frer_duplicates_eliminated",
                help="FRER duplicates eliminated per listener",
            )
            for listener, eliminator in self.frer_eliminators.items():
                gauge.set(eliminator.duplicates_eliminated, listener=listener)
        return ScenarioResult(
            duration_ns=duration_ns,
            slot_ns=self.slot_ns,
            expected_by_flow=expected,
            analyzer=self.analyzer,
            flows=self.flows,
            switches=self.switches,
            itp_plan=self.itp_plan,
            sched_plan=self.sched_plan,
            metrics=self.metrics,
            tracer=self.tracer,
            sim_stats=self.sim.stats.as_dict(),
            spans=self.spans,
            slo=slo_report,
            links=self.links,
            frer_eliminators=self.frer_eliminators,
            faults=fault_report,
            headroom=self.headroom,
        )
