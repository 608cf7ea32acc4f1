"""The complete TSN switch device.

:class:`TsnSwitch` assembles the five components around one
:class:`~repro.core.config.SwitchConfig`: the shared-table pipeline (Packet
Switch + Ingress Filter), one :class:`~repro.switch.port.EgressPort` per
enabled TSN port (Gate Ctrl + Egress Sched + queues/buffers), and a local
clock for Time Sync to discipline.

Control-plane programming happens through the ``program_*`` methods, which
are what the testbed (and a user's own orchestration) call after synthesis:

* ``program_paths`` -- classification, unicast and meter entries in bulk;
  ``program_flow`` / ``program_route`` / ``program_meter`` install one.
* ``program_gcls`` -- the per-port in/out Gate Control Lists and CQF pairs.
* ``program_cbs`` -- bind a queue to a credit-based shaper.

``start()`` launches the gate engines; frames then flow through
``receive()``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import SwitchConfig
from repro.core.errors import ConfigurationError, TopologyError
from repro.core.units import GIGABIT
from repro.obs.flowspans import FlowSpanRecorder
from repro.obs.headroom import HeadroomRecorder, PortHeadroomProbes
from repro.obs.instruments import PortInstruments, SwitchInstruments
from repro.obs.metrics import MetricsRegistry
from repro.sim.clock import LocalClock
from repro.sim.kernel import Simulator
from repro.sim.trace import NULL_TRACER, Tracer
from .counters import SwitchCounters
from .gates import CqfPair, GateEngine
from .meter import TokenBucketMeter
from .packet import EthernetFrame, MacAddress
from .port import DeliverFn
from .pipeline import SwitchPipeline
from .port import EgressPort
from .queueing import BufferPool, MetadataQueue
from .scheduler import StrictPriorityScheduler
from .shaper import CreditBasedShaper
from .tables import (
    CbsMapTable,
    CbsParams,
    CbsTable,
    ClassKey,
    ClassTarget,
    GateControlList,
    GateEntry,
    RouteKey,
)

__all__ = ["TsnSwitch"]

#: FPGA pipeline latency: parse + classify + lookup before enqueue.  The
#: prototype runs at 125 MHz; 60 cycles of header processing is 480 ns.
DEFAULT_PROCESSING_DELAY_NS = 480


class TsnSwitch:
    """One customized TSN switch instance."""

    def __init__(
        self,
        sim: Simulator,
        config: SwitchConfig,
        rate_bps: int = GIGABIT,
        clock: Optional[LocalClock] = None,
        processing_delay_ns: int = DEFAULT_PROCESSING_DELAY_NS,
        scheduler_factory: Optional[Callable[[], StrictPriorityScheduler]] = None,
        shared_buffers: bool = False,
        preemption_enabled: bool = False,
        express_queues: Tuple[int, ...] = (6, 7),
        tracer: Tracer = NULL_TRACER,
        metrics: Optional[MetricsRegistry] = None,
        spans: Optional[FlowSpanRecorder] = None,
        headroom: Optional[HeadroomRecorder] = None,
        name: Optional[str] = None,
    ) -> None:
        config.validate()
        self._sim = sim
        self.config = config
        self.name = name or config.name
        self.rate_bps = rate_bps
        self.clock = clock or LocalClock(sim)
        self.processing_delay_ns = processing_delay_ns
        # One fresh arbiter per port; default is the paper's strict
        # priority.  The Egress Sched template's factory lands here when
        # instantiating through SwitchModel.
        self._scheduler_factory = scheduler_factory or StrictPriorityScheduler
        # Buffer organization: the paper allocates an exclusive pool per
        # enabled port (Table III's buffer row scales with ports); the
        # switch-memory-switch alternative it cites ([16]) shares one pool
        # across all ports.  Same total BRAM, different burst absorption --
        # see the buffer-sharing ablation benchmark.
        self.shared_buffers = shared_buffers
        # Frame preemption (802.1Qbu): the express_queues form the express
        # MAC; other queues' frames can be cut at 64B fragment boundaries.
        self.preemption_enabled = preemption_enabled
        self.express_queues = tuple(express_queues)
        self._shared_pool: Optional[BufferPool] = (
            BufferPool(config.buffer_num * config.port_num)
            if shared_buffers
            else None
        )
        self._tracer = tracer
        self._spans = spans
        # Opt-in occupancy probes (repro.obs.headroom); None keeps the
        # uninstrumented fast path, same contract as metrics/spans.
        self._headroom = headroom
        # One SwitchInstruments per device binds this switch's label space
        # in the (shared) registry; None keeps the uninstrumented fast path.
        self.instruments: Optional[SwitchInstruments] = (
            SwitchInstruments(metrics, self.name)
            if metrics is not None
            else None
        )
        self.counters = SwitchCounters()
        self.pipeline = SwitchPipeline(
            config, self.counters, instruments=self.instruments
        )
        self.ports: List[EgressPort] = []
        self._local_hosts: Dict[int, "DeliverFn"] = {}
        self._gate_engines: List[GateEngine] = []
        self.cbs_map_tables: List[CbsMapTable] = []
        self.cbs_tables: List[CbsTable] = []
        self._started = False
        for port_id in range(config.port_num):
            self._build_port(port_id)

    def _build_port(self, port_id: int) -> None:
        config = self.config
        queues = [
            MetadataQueue(config.queue_depth, queue_id)
            for queue_id in range(config.queue_num)
        ]
        pool = self._shared_pool or BufferPool(config.buffer_num)
        in_gcl = GateControlList(config.gate_size, f"{self.name}.p{port_id}.in")
        out_gcl = GateControlList(config.gate_size, f"{self.name}.p{port_id}.out")
        # Default: everything open all the time (a plain 802.1Q switch) --
        # program_gcls replaces this with the synthesized schedule.
        always_open = [GateEntry(0xFF, 1_000_000)]
        in_gcl.program(list(always_open))
        out_gcl.program(list(always_open))
        scheduler = self._scheduler_factory()
        port_instruments: Optional[PortInstruments] = (
            self.instruments.for_port(port_id, range(config.queue_num))
            if self.instruments is not None
            else None
        )
        headroom_probes: Optional[PortHeadroomProbes] = (
            self._headroom.for_port(
                self.name, port_id, config.queue_num, config.queue_depth,
                pool, start_ns=self._sim.now,
            )
            if self._headroom is not None
            else None
        )
        engine = GateEngine(
            self._sim,
            in_gcl,
            out_gcl,
            clock=self.clock,
            tracer=self._tracer,
            instruments=port_instruments,
            name=f"{self.name}.p{port_id}",
        )
        port = EgressPort(
            sim=self._sim,
            port_id=port_id,
            rate_bps=self.rate_bps,
            queues=queues,
            buffer_pool=pool,
            gates=engine,
            scheduler=scheduler,
            counters=self.counters,
            preemption_enabled=self.preemption_enabled,
            express_queues=self.express_queues,
            tracer=self._tracer,
            instruments=port_instruments,
            spans=self._spans,
            headroom=headroom_probes,
            name=f"{self.name}.p{port_id}",
        )
        self.ports.append(port)
        self._gate_engines.append(engine)
        self.cbs_map_tables.append(CbsMapTable(config.cbs_map_size))
        self.cbs_tables.append(CbsTable(config.cbs_size))

    # --------------------------------------------------------- control plane

    def attach_host(self, deliver: "DeliverFn") -> int:
        """Register a locally attached host (listener / embedded CPU).

        Returns the *local port id* to use as ``outport`` when programming
        flows that terminate here.  Local delivery models the prototype's
        host/DMA path: dedicated, so it contends with no TSN port.
        """
        local_id = self.config.port_num + len(self._local_hosts)
        self._local_hosts[local_id] = deliver
        return local_id

    def program_paths(
        self,
        classes: Iterable[Tuple[ClassKey, Tuple[int, int]]] = (),
        routes: Iterable[Tuple[RouteKey, int]] = (),
        meters: Iterable[Tuple[int, Tuple[int, int]]] = (),
    ) -> None:
        """Install classification, forwarding and policing entries at once.

        Each argument is an iterable of ``(key, value)`` pairs (a dict's
        ``items()`` will do), installed in order:

        * *classes*: (SMAC, DMAC, VID, PRI) -> (meter id, queue id);
        * *routes*: (DMAC, VID) -> outport, with
          ``UnicastTable.WILDCARD_VID`` for a VLAN-wildcard (aggregated)
          entry.  An outport may be a TSN port (0..port_num-1) or a local
          port id returned by :meth:`attach_host`.  A key may repeat with
          the same outport;
        * *meters*: meter id -> (rate bit/s, burst bytes).

        Every check runs once per distinct value: port range per outport,
        queue range per queue, route conflicts within the batch and
        against installed entries (re-pointing a route another flow
        depends on would corrupt that flow's path), then each table's
        capacity.  Each table is written once.
        """
        fresh = self._fold_routes(routes)
        for outport in set(fresh.values()):
            if outport not in self._local_hosts:
                self._check_port(outport)
        targets = {
            key: ClassTarget(meter_id, queue_id)
            for key, (meter_id, queue_id) in classes
        }
        queue_num = self.config.queue_num
        for queue_id in {target.queue_id for target in targets.values()}:
            if not 0 <= queue_id < queue_num:
                raise ConfigurationError(
                    f"{self.name}: queue {queue_id} outside 0.."
                    f"{queue_num - 1}"
                )
        pipeline = self.pipeline
        pipeline.meters.insert_all({
            meter_id: TokenBucketMeter(rate_bps, burst_bytes)
            for meter_id, (rate_bps, burst_bytes) in meters
        })
        pipeline.classification.insert_all(targets)
        pipeline.unicast.insert_all(fresh)

    def _fold_routes(
        self, routes: Iterable[Tuple[RouteKey, int]]
    ) -> Dict[RouteKey, int]:
        """The distinct routes of a batch, refusing any that contradicts
        the batch so far or the installed table -- exactly what
        installing them one by one would have refused."""
        unicast = self.pipeline.unicast
        wildcard = unicast.WILDCARD_VID
        fresh: Dict[RouteKey, int] = {}
        aggregated = False  # does *fresh* hold a wildcard entry yet?
        for key, outport in routes:
            existing = fresh.get(key)
            if existing == outport:
                continue
            if existing is None:
                # What a one-by-one install probed: the installed exact
                # entry, else a wildcard, installed or earlier in the batch.
                if unicast:
                    existing = unicast.find_outport(*key)
                if existing is None and aggregated:
                    existing = fresh.get((key[0], wildcard))
            if existing is not None and existing != outport:
                vid = None if key[1] == wildcard else key[1]
                raise ConfigurationError(
                    f"{self.name}: route ({key[0]:#x}, vid {vid}) already "
                    f"points at port {existing}, refusing to repoint to "
                    f"{outport}"
                )
            fresh[key] = outport
            aggregated = aggregated or key[1] == wildcard
        return fresh

    def program_flow(
        self,
        src_mac: MacAddress,
        dst_mac: MacAddress,
        vlan_id: int,
        pcp: int,
        outport: int,
        queue_id: int,
        meter_id: int = -1,
        aggregate_route: bool = False,
    ) -> None:
        """Install classification + forwarding state for one flow.

        With *aggregate_route* the forwarding entry is VLAN-wildcarded so
        every flow to the same destination shares it (guideline 1's
        aggregation option); the classification entry stays per-flow
        either way.  One entry each of :meth:`program_paths`.
        """
        route_vid = (
            self.pipeline.unicast.WILDCARD_VID if aggregate_route else vlan_id
        )
        self.program_paths(
            classes=[((src_mac, dst_mac, vlan_id, pcp), (meter_id, queue_id))],
            routes=[((dst_mac, route_vid), outport)],
        )

    def program_route(
        self, dst_mac: MacAddress, vlan_id: Optional[int], outport: int
    ) -> None:
        """Install only a forwarding entry (no classification, no meter).

        ``vlan_id=None`` installs a VLAN-wildcard (aggregated) entry.  Used
        for traffic that rides the 802.1Q defaults -- e.g. background
        aggregates whose queue comes from the PCP fallback.  One entry of
        :meth:`program_paths`.
        """
        if vlan_id is None:
            vlan_id = self.pipeline.unicast.WILDCARD_VID
        self.program_paths(routes=[((dst_mac, vlan_id), outport)])

    def program_meter(self, meter_id: int, rate_bps: int, burst_bytes: int) -> None:
        """Install a token-bucket policer: one entry of
        :meth:`program_paths`."""
        self.program_paths(meters=[(meter_id, (rate_bps, burst_bytes))])

    def program_gcls(
        self,
        port_id: int,
        in_entries: Sequence[GateEntry],
        out_entries: Sequence[GateEntry],
        cqf_pairs: Sequence[CqfPair] = (),
    ) -> None:
        """Replace a port's gate schedules (before ``start``)."""
        if self._started:
            raise ConfigurationError(
                f"{self.name}: cannot reprogram GCLs after start"
            )
        self._check_port(port_id)
        self._gate_engines[port_id].program(in_entries, out_entries, cqf_pairs)

    def program_cbs(
        self, port_id: int, queue_id: int, cbs_id: int, params: CbsParams
    ) -> None:
        """Bind *queue_id* on *port_id* to a credit-based shaper."""
        self._check_port(port_id)
        self.cbs_map_tables[port_id].program(queue_id, cbs_id)
        self.cbs_tables[port_id].program(cbs_id, params)
        self.ports[port_id].scheduler.shapers[queue_id] = CreditBasedShaper(
            params, name=f"{self.name}.p{port_id}.q{queue_id}"
        )

    def start(self) -> None:
        """Launch the gate engines and arbitrate each port once; the switch
        begins honoring schedules."""
        if self._started:
            raise ConfigurationError(f"{self.name}: already started")
        self._started = True
        for engine, port in zip(self._gate_engines, self.ports):
            engine.start()
            port.kick()

    # ------------------------------------------------------------- dataplane

    def receive(
        self, frame: EthernetFrame, inport: Optional[int] = None
    ) -> None:
        """A frame arrived (fully, store-and-forward) from a link."""
        self.counters.received += 1
        if self.instruments is not None:
            self.instruments.on_received()
        if self._spans is not None:
            self._spans.record(self._sim.now, "ingress", self.name, frame)
        if not frame.fcs_ok:
            # The MAC's FCS check rejects bit-errored frames before the
            # pipeline ever sees them, exactly like real ingress silicon.
            self.counters.dropped_corrupt += 1
            if self._tracer.active:
                self._tracer.emit(
                    self._sim.now, "drop", f"{self.name} corrupt_fcs",
                    flow=frame.flow_id,
                )
            if self._spans is not None:
                self._spans.record(self._sim.now, "drop", self.name, frame)
            return
        self._sim.post(
            self.processing_delay_ns, lambda: self._process(frame)
        )

    def _process(self, frame: EthernetFrame) -> None:
        decision = self.pipeline.process(frame, self._sim._now)
        if decision.drop_reason is not None:
            if self._tracer.active:
                self._tracer.emit(
                    self._sim.now,
                    "drop",
                    f"{self.name} {decision.drop_reason}",
                    flow=frame.flow_id,
                )
            if self._spans is not None:
                self._spans.record(self._sim.now, "drop", self.name, frame)
            return
        for outport, queue_id in decision.targets:
            local = self._local_hosts.get(outport)
            if local is not None:
                self.counters.forwarded += 1
                local(frame)
            elif self.ports[outport].enqueue(frame, queue_id):
                self.counters.forwarded += 1
            else:
                continue
            if self.instruments is not None:
                self.instruments.on_forwarded()

    # --------------------------------------------------------------- helpers

    def _check_port(self, port_id: int) -> None:
        if not 0 <= port_id < len(self.ports):
            raise TopologyError(
                f"{self.name}: port {port_id} outside 0..{len(self.ports) - 1}"
            )

    def gate_engine(self, port_id: int) -> GateEngine:
        """The Gate Ctrl engine of one port (inspection/testing)."""
        self._check_port(port_id)
        return self._gate_engines[port_id]

    def queue_high_water(self) -> Dict[Tuple[int, int], int]:
        """(port, queue) -> observed maximum occupancy, for sizing studies."""
        return {
            (port.port_id, queue.queue_id): queue.stats.high_water
            for port in self.ports
            for queue in port.queues
        }

    def buffer_high_water(self) -> Dict[int, int]:
        """port -> observed maximum buffer-pool occupancy."""
        return {port.port_id: port.pool.stats.high_water for port in self.ports}

    def table_fill(self) -> Dict[str, int]:
        """Installed entries per sized table kind (headroom accounting).

        Per-port tables (gate, CBS) report the worst port's fill, matching
        how the configuration provisions one size for every port.  The
        ``multicast`` key is present only when the table exists.
        """
        fill = {
            "unicast": len(self.pipeline.unicast),
            "classification": len(self.pipeline.classification),
            "meter": len(self.pipeline.meters),
            "gate": max(
                (
                    max(len(engine.in_gcl), len(engine.out_gcl))
                    for engine in self._gate_engines
                ),
                default=0,
            ),
            "cbs_map": max(
                (len(table) for table in self.cbs_map_tables), default=0
            ),
            "cbs": max((len(table) for table in self.cbs_tables), default=0),
        }
        if self.pipeline.multicast is not None:
            fill["multicast"] = len(self.pipeline.multicast)
        return fill

    def meters_in_use(self) -> int:
        """Installed meters that actually policed at least one frame."""
        return sum(
            1 for _, meter in self.pipeline.meters if meter.exercised
        )
