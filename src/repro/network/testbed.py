"""Scenario orchestration: topology + switches + flows -> measurements.

:class:`Testbed` reproduces the paper's experiment workflow end to end
for one :class:`RunPlan` (topology, config, flows, knobs, schedule plan):

1. synthesize one :class:`~repro.core.builder.SwitchModel` per distinct
   port count from the plan's templates and config, and instantiate one
   :class:`~repro.switch.device.TsnSwitch` per topology node from it;
2. wire trunk links, talker uplinks and the listener attachment;
3. program the control plane along every flow's path: per-flow VLAN ids,
   classification + unicast entries, token-bucket meters, CQF gate control
   lists, CBS reservations for the RC queues;
4. inject TS frames at the offsets of the :class:`RunPlan`'s schedule
   plan -- planned once, before any device exists -- through generators
   (the TSNNic role), and attach the analyzer (the TSN analyzer role);
5. ``run()`` the schedule and return a :class:`ScenarioResult` with
   latency/jitter/loss summaries, switch counters, and occupancy high-water
   marks (the inputs to resource-sizing validation).

Every stochastic choice derives from the scenario ``seed``; identical
seeds give bit-identical traces.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.core.builder import SwitchModel, TSNBuilder
from repro.core.config import SwitchConfig
from repro.core.errors import ConfigurationError, TopologyError
from repro.core.templates import FunctionTemplate, default_template_set
from repro.core.units import GIGABIT, ms, serialization_ns, wire_bytes
from repro.cqf.gcl_gen import (
    DEFAULT_TS_QUEUE_PAIR,
    cqf_port_program,
    csqf_port_program,
    multi_cqf_port_program,
)
from repro.sched import SchedPolicy, plan_flows
from repro.sched.problem import MultiSchedulePlan, SchedulePlan
from repro.faults.injector import FaultInjector, FaultReport
from repro.faults.plan import FaultPlan
from repro.obs.flowspans import FlowSpanRecorder
from repro.obs.headroom import HeadroomRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import WallClockProfiler
from repro.obs.slo import SloMonitor, SloPolicy, SloReport
from repro.schema import FRACTION, NON_NEGATIVE, POSITIVE, described, \
    range_problems
from repro.sim.clock import LocalClock
from repro.sim.kernel import Simulator
from repro.sim.rng import RngFactory
from repro.sim.trace import NULL_TRACER, Tracer
from repro.switch.device import DEFAULT_PROCESSING_DELAY_NS, TsnSwitch
from repro.timesync.gptp import GptpConfig, SyncDomain
from repro.switch.tables import CbsParams, GateEntry, UnicastTable
from repro.traffic.flows import FlowSet, FlowSpec, TrafficClass
from repro.traffic.generator import PeriodicSource, RateSource
from .analyzer import LatencySummary, TsnAnalyzer
from .host import Host
from .link import DEFAULT_PROPAGATION_NS, Link
from .topology import TopologySpec

__all__ = ["RunPlan", "Testbed", "ScenarioResult"]

#: RC traffic spreads over queues 5, 4, 3 (the paper's "three queues for RC
#: flows in each port").
RC_QUEUES: Tuple[int, ...] = (5, 4, 3)
BE_QUEUE = 0

#: VLAN ids a TS flow (or an FRER replica) can take: 1..4094, one each.
USABLE_VIDS = 4094


@dataclass
class ScenarioResult:
    """Everything one testbed run measured."""

    duration_ns: int
    slot_ns: int
    expected_by_flow: Dict[int, int]
    analyzer: TsnAnalyzer
    flows: FlowSet
    switches: Dict[str, TsnSwitch]
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


@dataclass(frozen=True)
class RunPlan:
    """One run resolved before any device exists: topology, resource spec,
    flows, every non-observer knob and *sched_plan*, the plan the run uses.

    Construction checks the knobs and plans with :func:`plan_flows` only
    when no plan was handed in; :meth:`Testbed.build` raises infeasibility.
    """

    topology: TopologySpec
    config: SwitchConfig
    flows: FlowSet
    slot_ns: int = described(62_500, POSITIVE)
    rate_bps: int = described(GIGABIT, POSITIVE, "link rate, bit/s")
    propagation_ns: int = described(DEFAULT_PROPAGATION_NS, NON_NEGATIVE,
                                    "link propagation delay")
    trunk_error_rate: float = described(0.0, FRACTION, "trunk frame loss")
    seed: int = 0
    gate_mechanism: str = described("cqf", doc="gate control",
                                    choices=("cqf", "qbv"))
    injection_phase: str = described(
        "planned", doc="TS frames at the planned offset or anywhere in its "
        "slot", choices=("planned", "uniform"))
    aggregate_routes: bool = described(False, doc="route per destination")
    # 802.1CB seamless redundancy: replicate every TS flow over two
    # edge-disjoint paths (the destination needs two attachments, e.g.
    # dual_path_topology) and eliminate duplicates at the listener.
    frer_ts: bool = described(False, doc="802.1CB replication of TS flows")
    ts_queue_pair: Tuple[int, int] = described(
        DEFAULT_TS_QUEUE_PAIR, doc="the CQF queues (high, low)")
    # The scheduling policy: backend + shaper + objective.  The
    # unplanned ablation is ``SchedPolicy(backend="unplanned")``.
    sched: SchedPolicy = field(default_factory=SchedPolicy)
    # The function templates every switch is synthesized from; replacing
    # the Egress Sched template swaps the arbitration logic.
    templates: Tuple[FunctionTemplate, ...] = field(
        default_factory=lambda: tuple(default_template_set())
    )
    shared_buffers: bool = described(False, doc="one buffer pool per switch")
    preemption_enabled: bool = described(False, doc="802.1Qbu preemption")
    clock_drift_ppm: float = described(0.0, doc="drift drawn in [-x, x]")
    clock_offset_spread_ns: int = described(0, NON_NEGATIVE,
                                            "offsets drawn in [-x, x]")
    enable_gptp: bool = described(False, doc="synchronize clocks by gPTP")
    gptp_config: Optional[GptpConfig] = None
    gptp_warmup_ns: int = described(2_000_000_000, NON_NEGATIVE,
                                    "gPTP settling before traffic")
    sched_plan: Optional[Union[SchedulePlan, MultiSchedulePlan]] = None

    def __post_init__(self) -> None:
        for problem in range_problems(self):
            raise ConfigurationError(problem)
        self.topology.validate()
        self.config.validate()
        shaper = self.sched.shaper
        if self.gate_mechanism != "cqf" and shaper != "cqf":
            raise ConfigurationError(
                f"shaper {shaper!r} requires gate_mechanism='cqf' "
                f"(Qbv window synthesis assumes classic CQF slotting)"
            )
        if self.frer_ts and self.gate_mechanism != "cqf":
            raise ConfigurationError("frer_ts currently requires CQF gating")
        if self.frer_ts and shaper != "cqf":
            raise ConfigurationError(
                "frer_ts currently requires the classic 'cqf' shaper"
            )
        if shaper != "cqf":
            ts_queue_groups, rc_queues = self.queue_layout
            used = [q for group in ts_queue_groups for q in group]
            used += [*rc_queues, BE_QUEUE]
            if (
                len(set(used)) != len(used)
                or min(used) < 0
                or max(used) >= self.config.queue_num
            ):
                raise ConfigurationError(
                    f"shaper {shaper!r} queue layout {sorted(used)} "
                    f"does not fit {self.config.queue_num} queues without "
                    f"overlap"
                )
        if self.sched_plan is None and self.flows.ts_flows:
            object.__setattr__(self, "sched_plan", plan_flows(
                list(self.flows), self.slot_ns, self.rate_bps, self.sched
            ))

    @property
    def queue_layout(self) -> Tuple[tuple, Tuple[int, ...]]:
        """``(ts_queue_groups, rc_queues)``.  Classic CQF keeps the
        historical map (TS pair high, RC on 5/4/3 = their PCPs, BE on 0);
        CSQF claims a third TS queue and Multi-CQF a second queue group,
        pushing the RC queues down, so RC flows get explicit
        classification entries (a rank-preserving map)."""
        high, low = self.ts_queue_pair
        if self.sched.shaper == "cqf":
            return ((high, low),), RC_QUEUES
        if self.sched.shaper == "csqf":
            return ((high - 1, high, low),), tuple(q - 1 for q in RC_QUEUES)
        # multi_cqf: one queue group per CQF system
        return (
            ((high, low), (high - 2, low - 2)),
            tuple(q - 2 for q in RC_QUEUES),
        )


def _teardown(
    sim: Simulator,
    switches: Dict[str, TsnSwitch],
    hosts: Dict[str, Host],
    sync_domain: Optional[SyncDomain],
) -> None:
    """Break every reference cycle a build or a run leaves among a
    testbed's devices.

    Module-level, and handed the devices rather than the testbed, so the
    finalizer that calls it never keeps the testbed alive.
    """
    sim.clear()
    for switch in switches.values():
        switch.clock.clear_rate_listeners()
        for port in switch.ports:
            port.detach()
    for host in hosts.values():
        host.clock.clear_rate_listeners()
        host.nic.detach()
    if sync_domain is not None:
        sync_domain.unlink()


class Testbed:
    """Builds and runs one :class:`RunPlan` (never plans) with observers
    and the fault actor attached by keyword.

    Reference counting frees a dropped testbed: a build leaves no
    reference cycle but the trunk links' (port -> link -> switch -> port),
    and a run adds the calendar, the clocks' rate listeners and the gPTP
    tree.  :meth:`close` breaks all of them, and runs by itself when an
    unclosed testbed is dropped.
    """

    # Read by benchmarks/e2e only (its ``testbed.frame_path`` flag, always
    # 0 = frame objects); goes with that flag in ROADMAP item 1c.
    batch = None

    def __init__(
        self,
        run_plan: RunPlan,
        *,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        profiler: Optional[WallClockProfiler] = None,
        spans: Optional[FlowSpanRecorder] = None,
        slo_policy: Optional[SloPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        headroom: Optional[HeadroomRecorder] = None,
    ) -> None:
        self.run_plan = run_plan
        self.topology = run_plan.topology
        self.base_config = run_plan.config
        self.flows = run_plan.flows
        self.sched = run_plan.sched
        self.shaper = self.sched.shaper
        self.sched_plan = run_plan.sched_plan
        self.ts_queue_pair = run_plan.ts_queue_pair
        self.ts_queue_groups, self.rc_queues = run_plan.queue_layout
        self.frer_eliminators: Dict[str, "FrerEliminator"] = {}
        self._replica_vids: Dict[int, int] = {}
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.spans = spans
        self.slo_policy = slo_policy
        self.slo_monitor = None
        self.headroom = headroom
        self.fault_plan = fault_plan
        self.fault_injector: Optional[FaultInjector] = None
        self.sim = Simulator(profiler=profiler)
        self.rng = RngFactory(run_plan.seed)
        self.sync_domain: Optional[SyncDomain] = (
            SyncDomain(self.sim, run_plan.gptp_config or GptpConfig())
            if run_plan.enable_gptp
            else None
        )

        self.switches: Dict[str, TsnSwitch] = {}
        self.models: Dict[int, SwitchModel] = {}
        self.hosts: Dict[str, Host] = {}
        self.links: List[Link] = []
        self._listener_ports: Dict[Tuple[str, str], int] = {}
        self._hop_ports: Dict[Tuple[str, str], Tuple[Tuple[str, int], ...]] = {}
        self._flow_vids: Dict[int, int] = {}
        self._rc_queue_of: Dict[int, int] = {}
        self.analyzer: Optional[TsnAnalyzer] = None
        self._sources: List = []
        self._built = False
        # Holds the parts, not the testbed: an explicit close() and a drop
        # run the same teardown, once.
        self._finalizer = weakref.finalize(
            self, _teardown, self.sim, self.switches, self.hosts,
            self.sync_domain,
        )
        self._finalizer.atexit = False

    def close(self) -> None:
        """Break the reference cycles among this testbed's devices.

        Idempotent, and run by itself when an unclosed testbed is dropped.
        A :class:`ScenarioResult` stays readable; :meth:`build` and
        :meth:`run` afterwards raise :class:`ConfigurationError`.
        """
        self._finalizer()

    def _check_open(self) -> None:
        if not self._finalizer.alive:
            raise ConfigurationError("testbed is closed")

    # ------------------------------------------------------------- building

    def build(self) -> None:
        """Construct devices, wire links, program the control plane."""
        self._check_open()
        if self._built:
            raise ConfigurationError("testbed already built")
        self._built = True
        self._assign_vids()
        self._create_switches()
        self._create_hosts()
        self._wire_links()
        if self.sched_plan is not None:
            self.sched_plan.raise_if_infeasible()
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
        if len(ts_flows) > USABLE_VIDS:
            raise ConfigurationError(
                f"{len(ts_flows)} TS flows exceed the 4094 usable VLAN ids"
            )
        if self.run_plan.frer_ts and 2 * len(ts_flows) > USABLE_VIDS:
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
        if self.run_plan.frer_ts:
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

        Every switch comes out of :meth:`SwitchModel.instantiate`; one
        model is synthesized per distinct enabled-port count (kept in
        :attr:`models`) and renamed per node.

        With ``clock_drift_ppm`` set, every switch (except the first, which
        acts as gPTP grandmaster and time source) gets a drifting, offset
        local clock; gate schedules then only stay network-aligned if gPTP
        is enabled -- the time-sync ablation.
        """
        plan = self.run_plan
        drift_rng = self.rng.stream("clock.drift")
        for index, (name, ports) in enumerate(
            self.topology.switch_ports.items()
        ):
            model = self.models.get(ports)
            if model is None:
                builder = TSNBuilder()
                builder.use_templates(plan.templates)
                builder.customize(self.base_config.with_updates(port_num=ports))
                model = self.models[ports] = builder.synthesize()
            clock = None
            if plan.clock_drift_ppm or plan.clock_offset_spread_ns:
                is_grandmaster = index == 0
                clock = LocalClock(
                    self.sim,
                    drift_ppm=(
                        0.0
                        if is_grandmaster
                        else drift_rng.uniform(
                            -plan.clock_drift_ppm,
                            plan.clock_drift_ppm,
                        )
                    ),
                    offset_ns=(
                        0
                        if is_grandmaster
                        else drift_rng.randint(
                            -plan.clock_offset_spread_ns,
                            plan.clock_offset_spread_ns,
                        )
                    ),
                )
            self.switches[name] = model.instantiate(
                self.sim,
                name,
                rate_bps=plan.rate_bps,
                clock=clock,
                shared_buffers=plan.shared_buffers,
                preemption_enabled=plan.preemption_enabled,
                express_queues=tuple(
                    q for group in self.ts_queue_groups for q in group
                ),
                tracer=self.tracer,
                metrics=self.metrics,
                spans=self.spans,
                headroom=self.headroom,
            )
        if plan.enable_gptp:
            self._build_sync_domain()

    def _build_sync_domain(self) -> None:
        """Sync tree over the trunk graph, rooted at the first switch."""
        domain = self.sync_domain
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
                    link_delay_ns=self.run_plan.propagation_ns,
                )
                frontier.append(neighbor)
        missing = [n for n in names if n not in domain.nodes]
        if missing:
            raise TopologyError(
                f"gPTP tree cannot reach switches {missing} over trunks"
            )

    def _create_hosts(self) -> None:
        # dict.fromkeys: a host may appear twice (e.g. a FRER listener with
        # two attachments) but must be one device.  Hosts are numbered per
        # testbed, so the same scenario gets the same MACs on every build.
        for index, host_name in enumerate(dict.fromkeys(self.topology.hosts)):
            self.hosts[host_name] = Host(
                self.sim,
                host_name,
                rate_bps=self.run_plan.rate_bps,
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
                    self.run_plan.propagation_ns,
                    error_rate=self.run_plan.trunk_error_rate,
                    rng=(
                        self.rng.stream(f"link.{name}.errors")
                        if self.run_plan.trunk_error_rate
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
                    self.run_plan.propagation_ns,
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
                    self.run_plan.propagation_ns,
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
        if self.run_plan.gate_mechanism != "cqf":
            self._program_gates_qbv()
            return
        queue_num = self.base_config.queue_num
        if self.shaper == "cqf":
            in_entries, out_entries, groups = cqf_port_program(
                self.run_plan.slot_ns, self.ts_queue_pair, queue_num
            )
        elif self.shaper == "csqf":
            in_entries, out_entries, groups = csqf_port_program(
                self.run_plan.slot_ns, self.ts_queue_groups[0], queue_num
            )
        else:
            in_entries, out_entries, groups = multi_cqf_port_program(
                self.run_plan.slot_ns,
                self.sched.slot2_ns(self.run_plan.slot_ns),
                self.ts_queue_groups,
                queue_num,
            )
        for switch in self.switches.values():
            for port_id in range(len(switch.ports)):
                switch.program_gcls(
                    port_id, list(in_entries), list(out_entries), groups
                )

    def _program_gates_qbv(self) -> None:
        """Per-port Time-Aware Shaper windows synthesized from the plan.

        Qbv gates the egress only; in-gates stay open (no CQF queue pair),
        and TS frames flow through each hop inside its transmission window
        rather than waiting out a slot.  ``gate_size`` must cover the
        compiled schedule -- size it with
        :func:`repro.qbv.synthesis.estimate_gate_size`.
        """
        from repro.qbv.synthesis import PortTraffic, TasSynthesizer

        plan = self.sched_plan
        if plan is None:
            raise ConfigurationError(
                "gate_mechanism='qbv' needs TS flows to synthesize windows"
            )
        # Qbv implies the classic 'cqf' shaper: one schedule, one plan.
        schedule = plan.problem.schedule
        synthesizer = TasSynthesizer(
            schedule,
            rate_bps=self.run_plan.rate_bps,
            processing_delay_ns=DEFAULT_PROCESSING_DELAY_NS,
            propagation_ns=self.run_plan.propagation_ns,
            queue_num=self.base_config.queue_num,
            ts_queue=self.ts_queue_pair[1],
        )
        slot_flows: Dict[Tuple[str, int], Dict[int, List[FlowSpec]]] = {}
        hop_depths: Dict[Tuple[str, int], set] = {}
        for flow in self.flows.ts_flows:
            offset = plan.offsets.get(flow.flow_id)
            if offset is None:
                continue  # rejected by a max_admission plan
            slots = range(
                offset,
                schedule.slot_count,
                flow.period_ns // schedule.slot_ns,
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
        rate_bps = self.run_plan.rate_bps
        reservations = []  # (cbs slot, queue, params): the same on every port
        for slot_index, queue_id in enumerate(self.rc_queues[:usable]):
            reserved = per_queue_rate.get(queue_id, 0) * 2
            reserved = max(reserved, rate_bps // 100)
            reserved = min(reserved, rate_bps * 3 // 4)
            reservations.append((
                slot_index, queue_id,
                CbsParams.for_reservation(reserved, rate_bps),
            ))
        for switch in self.switches.values():
            for port_id in range(len(switch.ports)):
                for slot_index, queue_id, params in reservations:
                    switch.program_cbs(port_id, queue_id, slot_index, params)

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
        # Per switch: classification key -> (meter, queue), route pairs,
        # meter id -> (rate, burst), and the meter table's size.  Meters
        # are assigned first-come until the customized meter table fills;
        # overflow flows run unmetered (the sizing guideline sets
        # meter_size to the flow count, so overflow only happens in
        # deliberate undersizing runs).
        batches = {
            name: ({}, [], {}, switch.config.meter_size)
            for name, switch in self.switches.items()
        }
        wildcard = UnicastTable.WILDCARD_VID
        aggregate = self.run_plan.aggregate_routes
        frer = self.run_plan.frer_ts
        for flow in self.flows:
            vid = self._flow_vids[flow.flow_id]
            pcp = flow.effective_pcp
            queue_id = self._queue_for(flow)
            src_mac = self.hosts[flow.src].mac
            dst_mac = self.hosts[flow.dst].mac
            if flow.traffic_class is TrafficClass.TS:
                if not self._ts_admitted(flow):
                    continue  # rejected by a max_admission plan: no state
                if frer:
                    replicas = list(
                        zip(
                            (vid, self._replica_vids[flow.flow_id]),
                            self._frer_hop_port_sets(flow),
                        )
                    )
                else:
                    replicas = [(vid, self._flow_hop_ports(flow))]
                meter = (
                    max(64_000, flow.effective_rate_bps * 2),
                    4 * flow.size_bytes,
                )
                for replica_vid, hop_ports in replicas:
                    key = (src_mac, dst_mac, replica_vid, pcp)
                    route = (
                        dst_mac,
                        wildcard if aggregate and not frer else replica_vid,
                    )
                    for switch_name, outport in hop_ports:
                        classes, routes, meters, meter_size = (
                            batches[switch_name]
                        )
                        meter_id = len(meters)
                        if meter_id < meter_size:
                            meters[meter_id] = meter
                        else:
                            meter_id = -1
                        classes[key] = (meter_id, queue_id)
                        routes.append((route, outport))
            else:
                # RC/BE ride the PCP default and need only a route -- except
                # RC under a non-classic shaper: the PCP fallback would land
                # those frames on a queue the shaper claimed, so they get
                # explicit (unmetered) classification entries mapping them
                # to the shifted RC queues.
                classified = (
                    flow.traffic_class is TrafficClass.RC
                    and self.shaper != "cqf"
                )
                key = (src_mac, dst_mac, vid, pcp)
                route = (dst_mac, wildcard if aggregate else vid)
                for switch_name, outport in self._flow_hop_ports(flow):
                    classes, routes, _meters, _size = batches[switch_name]
                    if classified:
                        classes[key] = (-1, queue_id)
                    routes.append((route, outport))
        for name, (classes, routes, meters, _size) in batches.items():
            self.switches[name].program_paths(
                classes.items(), routes, meters.items()
            )

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
            if self.run_plan.frer_ts:
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
                if self.run_plan.frer_ts:
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
        if self.run_plan.injection_phase == "planned":
            return self.sched_plan.phase_ns(flow.flow_id)
        guard = (
            serialization_ns(
                wire_bytes(flow.size_bytes), self.run_plan.rate_bps
            )
            + self.run_plan.propagation_ns
            + DEFAULT_PROCESSING_DELAY_NS
            + 1_000
        )
        window = max(1, self.sched_plan.slot_ns_of(flow.flow_id) - guard)
        rng = self.rng.stream(f"flow{flow.flow_id}.inject")
        return rng.randrange(window)

    # -------------------------------------------------------------- running

    def run(self, duration_ns: int, drain_slots: int = 8) -> ScenarioResult:
        """Inject for *duration_ns*, drain, and collect results."""
        self._check_open()
        if not self._built:
            self.build()
        if duration_ns <= 0:
            raise ConfigurationError(
                f"duration must be positive, got {duration_ns}"
            )
        if self.sync_domain is not None:
            # Let the servos lock before gates and traffic start.
            self.sync_domain.start()
            self.sim.run(until=self.run_plan.gptp_warmup_ns)
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
            self.sched.slot2_ns(self.run_plan.slot_ns)
            if self.shaper == "multi_cqf"
            else self.run_plan.slot_ns
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
            slot_ns=self.run_plan.slot_ns,
            expected_by_flow=expected,
            analyzer=self.analyzer,
            flows=self.flows,
            switches=self.switches,
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
