"""Scenario orchestration: topology + switches + flows -> measurements.

:class:`Testbed` reproduces the paper's experiment workflow end to end
for one :class:`RunPlan` (topology, config, flows, knobs, schedule plan):

1. synthesize one :class:`~repro.core.builder.SwitchModel` per distinct
   port count from the plan's templates and config, and instantiate one
   :class:`~repro.switch.device.TsnSwitch` per topology node from it;
2. wire trunk links, talker uplinks and the listener attachment;
3. install the plan's per-switch programs, compiled once by
   :func:`~repro.network.program.compile_programs` (per-flow VLAN ids,
   classification + unicast entries, token-bucket meters, CQF or Qbv gate
   lists, CBS reservations for the RC queues), with one loop over the
   switches;
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
from repro.core.errors import CapacityError, ConfigurationError, \
    TopologyError
from repro.core.templates import FunctionTemplate, default_template_set
from repro.core.units import GIGABIT, ms, serialization_ns, wire_bytes
from repro.cqf.gating import BE_QUEUE, CQF, DEFAULT_TS_QUEUE_PAIR, \
    RC_QUEUES, Discipline
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
from repro.traffic.flows import FlowSet, FlowSpec, TrafficClass
from repro.traffic.generator import PeriodicSource, RateSource
from .analyzer import LatencySummary, TsnAnalyzer
from .host import Host
from .link import DEFAULT_PROPAGATION_NS, Link
from .program import SwitchProgram, compile_programs, gate_overflow, \
    latency_bound_ns, table_overflows
from .topology import TopologySpec

__all__ = ["RunPlan", "Testbed", "ScenarioResult"]


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
    # The gating discipline: queue layout, gate lists, latency window.
    discipline: Discipline = CQF
    injection_phase: str = described(
        "planned", doc="TS frames at the planned offset or anywhere in its "
        "slot", choices=("planned", "uniform"))
    aggregate_routes: bool = described(False, doc="route per destination")
    # 802.1CB seamless redundancy: replicate every TS flow over two
    # edge-disjoint paths (the destination needs two attachments, e.g.
    # dual_path_topology) and eliminate duplicates at the listener.  The
    # scenario schema admits it over classic CQF only.
    frer_ts: bool = described(False, doc="802.1CB replication of TS flows")
    ts_queue_pair: Tuple[int, int] = described(
        DEFAULT_TS_QUEUE_PAIR, doc="the CQF queues (high, low)")
    # The scheduling policy: backend + objective.  The
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
        groups, rc_queues = self.discipline.queue_layout(self.ts_queue_pair)
        if rc_queues != RC_QUEUES:
            # A layout that moves RC off its PCP queues must fit.
            used = [*(q for group in groups for q in group), *rc_queues,
                    BE_QUEUE]
            if len(set(used)) != len(used) or not \
                    0 <= min(used) <= max(used) < self.config.queue_num:
                raise ConfigurationError(
                    f"shaper {self.discipline.shaper!r} queue layout "
                    f"{sorted(used)} does not fit {self.config.queue_num} "
                    f"queues without overlap"
                )
        if self.sched_plan is None and self.flows.ts_flows:
            object.__setattr__(self, "sched_plan", plan_flows(
                list(self.flows), self.slot_ns, self.rate_bps, self.sched,
                discipline=self.discipline,
            ))


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
        self.sched_plan = run_plan.sched_plan
        self.ts_queue_pair = run_plan.ts_queue_pair
        self.ts_queue_groups, _ = run_plan.discipline.queue_layout(
            run_plan.ts_queue_pair
        )
        self.frer_eliminators: Dict[str, "FrerEliminator"] = {}
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
        self.analyzer: Optional[TsnAnalyzer] = None
        self._sources: List = []
        self._latency_bound_ns: Optional[int] = None
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
        self._create_switches()
        self._create_hosts()
        self._wire_links()
        programs, vids = compile_programs(self.run_plan)
        if self.sched_plan is not None:
            self.sched_plan.raise_if_infeasible()
        self._install(programs)
        self._latency_bound_ns = latency_bound_ns(self.run_plan)
        del programs  # the sources need only the VIDs
        self._create_analyzer()
        self._create_sources(vids)

    def _install(self, programs: Dict[str, SwitchProgram]) -> None:
        """Load each switch's program; its tables in one call."""
        for name, program in programs.items():
            switch = self.switches[name]
            overflow = gate_overflow(
                self.run_plan, name, program, switch.config.gate_size
            )
            if overflow is not None:
                raise ConfigurationError(overflow)
            for port_id, gates in program.gates.items():
                switch.program_gcls(port_id, *gates)
            for port_id in range(len(switch.ports)):
                for slot_index, queue_id, params in program.cbs:
                    switch.program_cbs(port_id, queue_id, slot_index, params)
            try:
                switch.program_paths(
                    program.classes.items(), program.routes,
                    program.meters.items(),
                )
            except CapacityError:  # reworded to name the switch and flow
                for table, message in table_overflows(name, program,
                                                      switch.config):
                    raise CapacityError(f"{table}: {message}") from None
                raise

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
                    dst_switch.ingress,
                    self.run_plan.propagation_ns,
                    error_rate=self.run_plan.trunk_error_rate,
                    rng=(
                        self.rng.stream(f"link.{name}.errors")
                        if self.run_plan.trunk_error_rate
                        else None
                    ),
                    name=name,
                    spans=self.spans,
                    ingress_delay_ns=dst_switch.processing_delay_ns,
                )
            )
        for uplink in self.topology.uplinks:
            host = self.hosts[uplink.host]
            dst_switch = self.switches[uplink.dst]
            self.links.append(
                Link(
                    self.sim,
                    host.nic,
                    dst_switch.ingress,
                    self.run_plan.propagation_ns,
                    name=f"{uplink.host}->{uplink.dst}",
                    spans=self.spans,
                    ingress_delay_ns=dst_switch.processing_delay_ns,
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
        # Unique positive arrival priority per link, in wiring order (a
        # pure function of the topology spec).  Same-instant arrivals are
        # then ordered by which link carried them, a property of the
        # topology, not by the order their events were posted.  Positive
        # keeps them after gate/fault events (negative priorities) and
        # ordinary zero-priority events at the same time; a switch's
        # arrival-plus-pipeline event relies on that order
        # (docs/performance.md, the arrival-priority ordering contract).
        for index, link in enumerate(self.links):
            link.arrival_priority = index + 1

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

    def _create_sources(self, vids: Dict[int, Tuple[int, ...]]) -> None:
        plan = self.sched_plan
        for flow in self.flows:
            host = self.hosts[flow.src]
            dst = self.hosts[flow.dst]
            if flow.traffic_class is TrafficClass.TS:
                assert plan is not None
                if flow.flow_id not in plan.offsets:
                    continue  # rejected by a max_admission plan
                offset = (
                    plan.offsets[flow.flow_id]
                    * plan.slot_ns_of(flow.flow_id)
                    + self._injection_phase_ns(flow)
                )
                # FRER replication: one source per member stream, same
                # cadence, so replicas carry identical (flow, seq)
                for member_vid in vids[flow.flow_id]:
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
                        vlan_id=vids[flow.flow_id][0],
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

    def run(
        self, duration_ns: int, drain_slots: Optional[int] = None
    ) -> ScenarioResult:
        """Inject for *duration_ns*, drain, and collect results.  The
        drain lasts *drain_slots* (long) slots, by default 8 or the TS
        latency bound (:func:`latency_bound_ns`) if longer."""
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
        drain_slot_ns = self.run_plan.discipline.drain_slot_ns(
            self.run_plan.slot_ns
        )
        drain_ns = (
            max(8 * drain_slot_ns, self._latency_bound_ns or 0)
            if drain_slots is None else drain_slots * drain_slot_ns
        )
        self.sim.run(until=start_ns + duration_ns + drain_ns)
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
