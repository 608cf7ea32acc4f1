"""Resource-headroom observability: observed vs provisioned, down to BRAM.

The paper's provisioning model (Tables I/III) sizes every structure --
queues, buffer slots, the five table kinds -- and :mod:`repro.core.bram`
costs those sizes bit-exactly.  This module closes the loop from the other
side: it measures what a run *actually* demanded of each structure and
re-costs the switch at the observed sizes, so a report can say not just
"the TS queue peaked at 7 of 12 descriptors" but "this network carries
this workload in N fewer BRAM Kb under the same sizing policy".

Two layers:

* :class:`HeadroomRecorder` -- opt-in, cheap always-on occupancy probes.
  Each :class:`OccupancyProbe` keeps a time-weighted occupancy integral
  and a five-band time-in-occupancy histogram (empty, then quartiles of
  capacity), updated with a handful of integer ops per queue/pool
  transition.  Attached via ``Testbed(headroom=...)`` the same way as
  metrics/spans; when absent the dataplane pays nothing.

* :func:`build_headroom_report` -- joins peak demand (queue/pool
  high-water marks, table fills, exercised meters -- all available from
  plain run state, no recorder needed) with the recorder's time-weighted
  view when present, and re-costs each switch through
  :func:`repro.core.sizing.sufficient_config` /
  ``SwitchConfig.resource_report`` (i.e. ``core.bram.allocate``).  The
  resulting :class:`HeadroomReport` carries per-structure utilization,
  wasted Kb, and the cheapest sufficient configuration under the standard
  ``queue_depth_margin`` policy.

Campaign workers build the report *without* a recorder (peaks are exact
and deterministic; probes would only add overhead), which is how sweep
rows gain ``observed_bram_kb`` while staying byte-identical at any worker
count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import SwitchConfig
from repro.core.sizing import ObservedDemand, sufficient_config

__all__ = [
    "BAND_LABELS",
    "OccupancyProbe",
    "PortHeadroomProbes",
    "HeadroomRecorder",
    "StructureHeadroom",
    "PortOccupancy",
    "HeadroomReport",
    "build_headroom_report",
]

#: Occupancy bands of the time-in-band histogram: empty, then quartiles of
#: capacity ((0-25%], (25-50%], (50-75%], (75-100%]).
BAND_LABELS: Tuple[str, ...] = ("empty", "le25", "le50", "le75", "le100")

#: Structure display names (resource-report rows) -> digest/metric slugs.
STRUCTURE_SLUGS: Dict[str, str] = {
    "Switch Tbl": "switch_tbl",
    "Multicast Tbl": "multicast_tbl",
    "Class. Tbl": "class_tbl",
    "Meter Tbl": "meter_tbl",
    "Gate Tbl": "gate_tbl",
    "CBS Tbl": "cbs_tbl",
    "Queues": "queues",
    "Buffers": "buffers",
}


class OccupancyProbe:
    """Time-weighted occupancy accounting of one bounded resource.

    Each :meth:`update` charges the time since the previous transition to
    the occupancy (and band) that was in effect -- an exact integral, not a
    sampling approximation.  The band of every possible occupancy is
    precomputed so the per-event cost is a subtraction, two adds and a
    list index.
    """

    __slots__ = (
        "capacity",
        "occupancy",
        "peak",
        "weighted_ns",
        "band_ns",
        "_last_ns",
        "_band",
        "_band_of",
    )

    def __init__(self, capacity: int, start_ns: int = 0):
        self.capacity = capacity
        self.occupancy = 0
        self.peak = 0
        self.weighted_ns = 0            # integral of occupancy over time
        self.band_ns = [0] * len(BAND_LABELS)
        self._last_ns = start_ns
        self._band = 0
        self._band_of = tuple(
            0 if occ == 0 else min(4, -(-4 * occ // capacity))
            for occ in range(capacity + 1)
        )

    def update(self, now_ns: int, occupancy: int) -> None:
        dt = now_ns - self._last_ns
        if dt:
            self.weighted_ns += self.occupancy * dt
            self.band_ns[self._band] += dt
            self._last_ns = now_ns
        self.occupancy = occupancy
        self._band = self._band_of[occupancy]
        if occupancy > self.peak:
            self.peak = occupancy

    def finalize(self, end_ns: int) -> None:
        """Charge the tail interval up to *end_ns* (idempotent)."""
        self.update(end_ns, self.occupancy)

    @property
    def observed_ns(self) -> int:
        """Total time covered by the integral (0 before any update)."""
        return sum(self.band_ns)

    def mean(self) -> float:
        """Time-weighted mean occupancy over the observed span."""
        total = self.observed_ns
        return self.weighted_ns / total if total else 0.0

    def band_fractions(self) -> List[float]:
        """Fraction of observed time spent in each occupancy band."""
        total = self.observed_ns
        if not total:
            return [0.0] * len(BAND_LABELS)
        return [t / total for t in self.band_ns]


class PortHeadroomProbes:
    """The probe set of one egress port: one per queue, one for the pool.

    Ports sharing a buffer pool (``shared_buffers``) share the pool probe,
    so its integral sees every allocation regardless of which port made it.
    """

    __slots__ = ("queues", "pool")

    def __init__(self, queues: List[OccupancyProbe], pool: OccupancyProbe):
        self.queues = queues  # indexed by queue id
        self.pool = pool


class HeadroomRecorder:
    """Owns every probe of one scenario; hands each port its bound set."""

    def __init__(self) -> None:
        self.ports: Dict[Tuple[str, int], PortHeadroomProbes] = {}
        self._pool_probes: Dict[int, OccupancyProbe] = {}
        self._all: List[OccupancyProbe] = []
        self.end_ns: Optional[int] = None

    def for_port(
        self,
        switch: str,
        port_id: int,
        queue_num: int,
        queue_depth: int,
        pool: Any,
        start_ns: int = 0,
    ) -> PortHeadroomProbes:
        """Create (and register) the probe set for one egress port.

        *pool* is the port's :class:`~repro.switch.queueing.BufferPool`;
        identity-keyed so a shared pool gets exactly one probe.
        """
        queues = [
            OccupancyProbe(queue_depth, start_ns) for _ in range(queue_num)
        ]
        self._all.extend(queues)
        pool_probe = self._pool_probes.get(id(pool))
        if pool_probe is None:
            pool_probe = OccupancyProbe(pool.slots, start_ns)
            self._pool_probes[id(pool)] = pool_probe
            self._all.append(pool_probe)
        probes = PortHeadroomProbes(queues, pool_probe)
        self.ports[(switch, port_id)] = probes
        return probes

    def port_probes(
        self, switch: str, port_id: int
    ) -> Optional[PortHeadroomProbes]:
        return self.ports.get((switch, port_id))

    def finalize(self, end_ns: int) -> None:
        """Flush every probe's tail interval at scenario end."""
        self.end_ns = end_ns
        for probe in self._all:
            probe.finalize(end_ns)


# --------------------------------------------------------------- the report


@dataclass(frozen=True)
class StructureHeadroom:
    """Observed vs provisioned for one sized structure of one switch."""

    switch: str
    structure: str              # resource-report row name, e.g. "Queues"
    provisioned: int            # configured entries/slots/depth
    peak: int                   # worst observed demand
    provisioned_kb: float       # BRAM cost at the configured size
    sufficient_kb: float        # BRAM cost at the margined observed size
    mean: Optional[float] = None        # time-weighted mean (recorder only)
    bands: Optional[List[float]] = None  # time-in-band (recorder only)
    detail: Dict[str, int] = field(default_factory=dict)

    @property
    def utilization(self) -> float:
        return self.peak / self.provisioned if self.provisioned else 0.0

    @property
    def wasted_kb(self) -> float:
        """Provisioned minus sufficient cost; negative = under-provisioned
        relative to the sizing policy's margin."""
        return self.provisioned_kb - self.sufficient_kb


@dataclass(frozen=True)
class PortOccupancy:
    """One per-port occupancy/drop row (the ``--drops`` sizing view)."""

    switch: str
    port_id: int
    queue_peak: int
    queue_depth: int
    buffer_peak: int
    pool_slots: int
    tail_drops: int
    gate_drops: int
    pool_drops: int
    preemptions: int
    queue_mean: Optional[float] = None   # busiest queue, time-weighted
    buffer_mean: Optional[float] = None
    queue_bands: Optional[List[float]] = None

    @property
    def label(self) -> str:
        return f"{self.switch}.p{self.port_id}"


@dataclass
class HeadroomReport:
    """Observed-vs-provisioned accounting for one scenario run."""

    structures: List[StructureHeadroom]
    ports: List[PortOccupancy]
    observed: ObservedDemand             # network-wide peak demand
    cheapest_config: SwitchConfig        # sufficient config at max port count
    sufficient: Dict[str, SwitchConfig]  # per-switch sufficient configs
    provisioned_kb: float                # network total at configured sizes
    sufficient_kb: float                 # network total at sufficient sizes
    timeweighted: bool                   # recorder attached?
    duration_ns: Optional[int] = None    # probe-covered span (recorder only)

    @property
    def wasted_kb(self) -> float:
        return self.provisioned_kb - self.sufficient_kb

    @property
    def cheapest_kb(self) -> float:
        """BRAM cost of one switch at the cheapest sufficient config."""
        return self.cheapest_config.total_bram_kb

    def switch_structures(self, switch: str) -> List[StructureHeadroom]:
        return [s for s in self.structures if s.switch == switch]

    def utilization_digest(self) -> Dict[str, float]:
        """Worst per-structure utilization across switches (slug-keyed)."""
        digest: Dict[str, float] = {}
        for entry in self.structures:
            slug = STRUCTURE_SLUGS.get(entry.structure, entry.structure)
            current = digest.get(slug)
            if current is None or entry.utilization > current:
                digest[slug] = entry.utilization
        return {slug: round(value, 4) for slug, value in sorted(digest.items())}

    # --------------------------------------------------------------- export

    def as_dict(self) -> Dict[str, Any]:
        """JSON-compatible form (the ``result_summary`` section)."""
        data: Dict[str, Any] = {
            "provisioned_bram_kb": round(self.provisioned_kb, 3),
            "sufficient_bram_kb": round(self.sufficient_kb, 3),
            "wasted_bram_kb": round(self.wasted_kb, 3),
            "utilization": self.utilization_digest(),
            "timeweighted": self.timeweighted,
            "observed": {
                "queue_depth": self.observed.queue_depth,
                "buffer_slots": self.observed.buffer_slots,
                "unicast": self.observed.unicast,
                "multicast": self.observed.multicast,
                "classification": self.observed.classification,
                "meters": self.observed.meters,
                "gate_entries": self.observed.gate_entries,
                "cbs_map": self.observed.cbs_map,
                "cbs": self.observed.cbs,
            },
            "cheapest_config": self.cheapest_config.to_dict(),
            "cheapest_bram_kb": round(self.cheapest_kb, 3),
            "structures": [],
            "ports": [],
        }
        if self.duration_ns is not None:
            data["duration_ns"] = self.duration_ns
        for entry in self.structures:
            row: Dict[str, Any] = {
                "switch": entry.switch,
                "structure": entry.structure,
                "provisioned": entry.provisioned,
                "peak": entry.peak,
                "utilization": round(entry.utilization, 4),
                "provisioned_kb": round(entry.provisioned_kb, 3),
                "sufficient_kb": round(entry.sufficient_kb, 3),
                "wasted_kb": round(entry.wasted_kb, 3),
            }
            if entry.mean is not None:
                row["mean"] = round(entry.mean, 3)
            if entry.bands is not None:
                row["bands"] = {
                    label: round(fraction, 4)
                    for label, fraction in zip(BAND_LABELS, entry.bands)
                }
            if entry.detail:
                row["detail"] = dict(entry.detail)
            data["structures"].append(row)
        for port in self.ports:
            port_row: Dict[str, Any] = {
                "port": port.label,
                "queue_peak": port.queue_peak,
                "queue_depth": port.queue_depth,
                "buffer_peak": port.buffer_peak,
                "pool_slots": port.pool_slots,
                "tail_drops": port.tail_drops,
                "gate_drops": port.gate_drops,
                "pool_drops": port.pool_drops,
                "preemptions": port.preemptions,
            }
            if port.queue_mean is not None:
                port_row["queue_mean"] = round(port.queue_mean, 3)
            if port.buffer_mean is not None:
                port_row["buffer_mean"] = round(port.buffer_mean, 3)
            if port.queue_bands is not None:
                port_row["queue_bands"] = {
                    label: round(fraction, 4)
                    for label, fraction in zip(BAND_LABELS, port.queue_bands)
                }
            data["ports"].append(port_row)
        return data

    def to_csv(self) -> str:
        """Per-structure rows as CSV (``repro headroom --csv``)."""
        lines = [
            "switch,structure,provisioned,peak,utilization,mean,"
            "provisioned_kb,sufficient_kb,wasted_kb"
        ]
        for entry in self.structures:
            mean = "" if entry.mean is None else f"{entry.mean:.3f}"
            lines.append(
                f"{entry.switch},{entry.structure},{entry.provisioned},"
                f"{entry.peak},{entry.utilization:.4f},{mean},"
                f"{entry.provisioned_kb:.3f},{entry.sufficient_kb:.3f},"
                f"{entry.wasted_kb:.3f}"
            )
        return "\n".join(lines) + "\n"

    def publish(self, registry: Any) -> None:
        """Export the report as gauges into a ``MetricsRegistry``.

        Feeds the existing Prometheus/CSV timeseries layer: utilization and
        wasted Kb per (switch, structure), network BRAM totals, and -- when
        the recorder ran -- time-weighted per-port occupancy means.
        """
        utilization = registry.gauge(
            "headroom_utilization",
            help="Peak observed demand over provisioned size",
        )
        wasted = registry.gauge(
            "headroom_wasted_kb",
            help="Provisioned minus sufficient BRAM Kb",
        )
        for entry in self.structures:
            slug = STRUCTURE_SLUGS.get(entry.structure, entry.structure)
            labels = {"switch": entry.switch, "structure": slug}
            utilization.set(round(entry.utilization, 4), **labels)
            wasted.set(round(entry.wasted_kb, 3), **labels)
        registry.gauge(
            "headroom_provisioned_bram_kb",
            help="Network total BRAM Kb at configured sizes",
        ).set(round(self.provisioned_kb, 3))
        registry.gauge(
            "headroom_sufficient_bram_kb",
            help="Network total BRAM Kb at margined observed sizes",
        ).set(round(self.sufficient_kb, 3))
        if self.timeweighted:
            queue_mean = registry.gauge(
                "headroom_queue_occupancy_mean",
                help="Time-weighted mean occupancy of a port's busiest queue",
            )
            buffer_mean = registry.gauge(
                "headroom_buffer_occupancy_mean",
                help="Time-weighted mean buffer-pool occupancy",
            )
            for port in self.ports:
                labels = {"switch": port.switch, "port": port.port_id}
                if port.queue_mean is not None:
                    queue_mean.set(round(port.queue_mean, 3), **labels)
                if port.buffer_mean is not None:
                    buffer_mean.set(round(port.buffer_mean, 3), **labels)


# -------------------------------------------------------------- the builder


def _aggregate_bands(probes: List[OccupancyProbe]) -> Optional[List[float]]:
    totals = [0] * len(BAND_LABELS)
    for probe in probes:
        for index, value in enumerate(probe.band_ns):
            totals[index] += value
    grand = sum(totals)
    if not grand:
        return None
    return [t / grand for t in totals]


def _switch_demand(switch: Any) -> ObservedDemand:
    """Peak demand one switch saw, from plain (deterministic) run state."""
    config = switch.config
    fill = switch.table_fill()
    queue_peak = max(
        (q.stats.high_water for port in switch.ports for q in port.queues),
        default=0,
    )
    if getattr(switch, "shared_buffers", False) and switch.ports:
        # One pool backs all ports; a sufficient config deployed the same
        # way needs buffer_num >= ceil(peak / port_num) per port.
        shared_peak = switch.ports[0].pool.stats.high_water
        buffer_peak = -(-shared_peak // config.port_num)
    else:
        buffer_peak = max(
            (port.pool.stats.high_water for port in switch.ports), default=0
        )
    return ObservedDemand(
        queue_depth=queue_peak,
        buffer_slots=buffer_peak,
        unicast=fill["unicast"],
        multicast=fill.get("multicast", 0),
        classification=fill["classification"],
        meters=fill["meter"],
        gate_entries=fill["gate"],
        cbs_map=fill["cbs_map"],
        cbs=fill["cbs"],
    )


def _merge_demand(demands: List[ObservedDemand]) -> ObservedDemand:
    if not demands:
        return ObservedDemand()
    return ObservedDemand(
        queue_depth=max(d.queue_depth for d in demands),
        buffer_slots=max(d.buffer_slots for d in demands),
        unicast=max(d.unicast for d in demands),
        multicast=max(d.multicast for d in demands),
        classification=max(d.classification for d in demands),
        meters=max(d.meters for d in demands),
        gate_entries=max(d.gate_entries for d in demands),
        cbs_map=max(d.cbs_map for d in demands),
        cbs=max(d.cbs for d in demands),
    )


def _kb_by_row(
    config: SwitchConfig, costed: Dict[SwitchConfig, Dict[str, float]]
) -> Dict[str, float]:
    """Kb per resource row; each distinct sizing is costed once per report."""
    sizing = config.with_updates(name="")  # the name only titles the report
    rows = costed.get(sizing)
    if rows is None:
        rows = costed[sizing] = {
            row.resource: row.kb for row in config.resource_report().rows
        }
    return rows


def build_headroom_report(
    result: Any,
    recorder: Optional[HeadroomRecorder] = None,
    queue_depth_margin: float = 1.5,
    depth_round_to: int = 4,
) -> HeadroomReport:
    """Join a :class:`ScenarioResult`'s demand evidence into a report.

    Works without a recorder: peaks and fills come from queue/pool stats
    and table lengths, which are exact.  A recorder adds the time-weighted
    means and occupancy-band histograms.  *result* only needs a
    ``switches`` mapping of name -> :class:`~repro.switch.device.TsnSwitch`
    (duck-typed to keep this module import-light).
    """
    structures: List[StructureHeadroom] = []
    ports: List[PortOccupancy] = []
    sufficient: Dict[str, SwitchConfig] = {}
    demands: List[ObservedDemand] = []
    provisioned_total = 0.0
    sufficient_total = 0.0
    costed: Dict[SwitchConfig, Dict[str, float]] = {}

    for name, switch in result.switches.items():
        config = switch.config
        demand = _switch_demand(switch)
        demands.append(demand)
        suff = sufficient_config(
            config, demand,
            queue_depth_margin=queue_depth_margin,
            depth_round_to=depth_round_to,
        )
        sufficient[name] = suff
        prov_kb = _kb_by_row(config, costed)
        suff_kb = _kb_by_row(suff, costed)
        provisioned_total += sum(prov_kb.values())
        sufficient_total += sum(suff_kb.values())

        fill = switch.table_fill()
        shared = bool(getattr(switch, "shared_buffers", False))
        pool_slots = (
            switch.ports[0].pool.slots if shared and switch.ports
            else config.buffer_num
        )
        pool_peak = max(
            (port.pool.stats.high_water for port in switch.ports), default=0
        )
        queue_probes: List[OccupancyProbe] = []
        pool_probes: List[OccupancyProbe] = []
        if recorder is not None:
            seen_pools = set()
            for port in switch.ports:
                probes = recorder.port_probes(name, port.port_id)
                if probes is None:
                    continue
                queue_probes.extend(probes.queues)
                if id(probes.pool) not in seen_pools:
                    seen_pools.add(id(probes.pool))
                    pool_probes.append(probes.pool)

        rows: List[Tuple[str, int, int, Dict[str, int]]] = [
            ("Switch Tbl", config.unicast_size, fill["unicast"], {}),
        ]
        if config.multicast_size > 0:
            rows.append(
                ("Multicast Tbl", config.multicast_size,
                 fill.get("multicast", 0), {})
            )
        rows.extend(
            [
                ("Class. Tbl", config.class_size, fill["classification"], {}),
                ("Meter Tbl", config.meter_size, fill["meter"],
                 {"in_use": switch.meters_in_use()}),
                ("Gate Tbl", config.gate_size, fill["gate"], {}),
                ("CBS Tbl", max(config.cbs_map_size, config.cbs_size),
                 max(fill["cbs_map"], fill["cbs"]), {}),
                ("Queues", config.queue_depth, demand.queue_depth, {}),
                ("Buffers", pool_slots, pool_peak, {}),
            ]
        )
        for structure, provisioned, peak, detail in rows:
            mean: Optional[float] = None
            bands: Optional[List[float]] = None
            if structure == "Queues" and queue_probes:
                mean = max(p.mean() for p in queue_probes)
                bands = _aggregate_bands(queue_probes)
            elif structure == "Buffers" and pool_probes:
                mean = max(p.mean() for p in pool_probes)
                bands = _aggregate_bands(pool_probes)
            structures.append(
                StructureHeadroom(
                    switch=name,
                    structure=structure,
                    provisioned=provisioned,
                    peak=peak,
                    provisioned_kb=prov_kb.get(structure, 0.0),
                    sufficient_kb=suff_kb.get(structure, 0.0),
                    mean=mean,
                    bands=bands,
                    detail=detail,
                )
            )

        for port in switch.ports:
            probes = (
                recorder.port_probes(name, port.port_id)
                if recorder is not None
                else None
            )
            queue_mean = buffer_mean = None
            queue_bands = None
            if probes is not None:
                queue_mean = max(
                    (p.mean() for p in probes.queues), default=0.0
                )
                buffer_mean = probes.pool.mean()
                queue_bands = _aggregate_bands(list(probes.queues))
            ports.append(
                PortOccupancy(
                    switch=name,
                    port_id=port.port_id,
                    queue_peak=max(
                        (q.stats.high_water for q in port.queues), default=0
                    ),
                    queue_depth=config.queue_depth,
                    buffer_peak=port.pool.stats.high_water,
                    pool_slots=port.pool.slots,
                    tail_drops=sum(q.stats.tail_drops for q in port.queues),
                    gate_drops=sum(q.stats.gate_drops for q in port.queues),
                    pool_drops=port.pool.stats.exhaustion_drops,
                    preemptions=port.preemptions,
                    queue_mean=queue_mean,
                    buffer_mean=buffer_mean,
                    queue_bands=queue_bands,
                )
            )

    network_demand = _merge_demand(demands)
    switches = list(result.switches.values())
    if switches:
        base = max(switches, key=lambda s: s.config.port_num).config
        base = base.with_updates(name="network")
    else:
        base = SwitchConfig(name="network")
    cheapest = sufficient_config(
        base, network_demand,
        queue_depth_margin=queue_depth_margin,
        depth_round_to=depth_round_to,
    )
    return HeadroomReport(
        structures=structures,
        ports=ports,
        observed=network_demand,
        cheapest_config=cheapest,
        sufficient=sufficient,
        provisioned_kb=provisioned_total,
        sufficient_kb=sufficient_total,
        timeweighted=recorder is not None,
        duration_ns=recorder.end_ns if recorder is not None else None,
    )
