"""Resource-parameter optimization (paper Section V, "Selection of
resource parameters").

The paper frames parameter selection as "an optimization problem ...
influenced by many factors, including flow features, topologies, lookup
algorithms, flow scheduling algorithms" and leaves concrete algorithms to
future work; the Section III.C guidelines give one feasible point.  This
module implements that future work for the CQF + ITP stack:

* **Decision variables** -- the time-slot size (searched over divisors of
  the scheduling cycle), the queue depth / buffer count (driven by the ITP
  bound at each slot size), and optional switch-table aggregation (one
  forwarding entry per destination instead of per flow -- guideline 1's
  "entries could be aggregated according to the transmission path").

* **Constraints** -- deadline feasibility (Eq. 1: ``(hops+1) * slot`` must
  not exceed any flow's deadline), ITP slot-capacity feasibility, and a
  floor on the slot size (gate granularity).

* **Objective** -- total BRAM (the paper's resource currency).

:func:`optimize` returns the cheapest feasible configuration plus the full
Pareto frontier of (worst-case latency bound, BRAM) trade-offs, so a
deployer can also pick a point with latency headroom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.cqf.bounds import cqf_bounds
from repro.cqf.schedule import CqfSchedule, scheduling_cycle_ns
from repro.traffic.flows import FlowSet
from .config import SwitchConfig
from .errors import SchedulingError
from .sizing import SizingResult, derive_config

__all__ = ["CandidatePoint", "OptimizationResult", "optimize"]

#: Gate granularity floor: slots shorter than this leave no room for even
#: one MTU frame plus scheduling slack at 1 Gbps.
MIN_SLOT_NS = 20_000


@dataclass(frozen=True)
class CandidatePoint:
    """One feasible (slot size, configuration) point."""

    slot_ns: int
    config: SwitchConfig
    required_queue_depth: int
    worst_latency_ns: int       # Eq.(1) upper bound at max hops
    total_bram_kb: float

    def dominates(self, other: "CandidatePoint") -> bool:
        """Pareto dominance on (latency bound, BRAM), lower is better."""
        return (
            self.worst_latency_ns <= other.worst_latency_ns
            and self.total_bram_kb <= other.total_bram_kb
            and (
                self.worst_latency_ns < other.worst_latency_ns
                or self.total_bram_kb < other.total_bram_kb
            )
        )


@dataclass
class OptimizationResult:
    """Outcome of one search."""

    best: CandidatePoint
    pareto: List[CandidatePoint]
    rejected_slots: List[int]

    @property
    def best_config(self) -> SwitchConfig:
        return self.best.config


def _slot_candidates(cycle_ns: int, max_hops: int,
                     deadline_ns: Optional[int]) -> List[int]:
    """Divisors of the cycle that could satisfy the deadline."""
    candidates = []
    divisor = 1
    while divisor * divisor <= cycle_ns:
        if cycle_ns % divisor == 0:
            for slot in (divisor, cycle_ns // divisor):
                if slot < MIN_SLOT_NS:
                    continue
                if deadline_ns is not None:
                    if cqf_bounds(max_hops, slot).max_ns > deadline_ns:
                        continue
                candidates.append(slot)
        divisor += 1
    return sorted(set(candidates))


def optimize(
    topology,
    flows: FlowSet,
    max_hops: Optional[int] = None,
    aggregate_switch_entries: bool = False,
    queue_depth_margin: float = 1.5,
    rate_bps: int = 10**9,
    name: str = "optimized",
) -> OptimizationResult:
    """Search slot sizes for the cheapest deadline-feasible configuration.

    *topology* supplies ``max_enabled_ports`` and -- unless *max_hops* is
    given -- the longest talker-to-listener path (the hop count behind the
    Eq. 1 deadline check).  The tightest flow deadline constrains every
    candidate; flows without deadlines don't constrain.
    """
    ts_flows = flows.ts_flows
    if not ts_flows:
        raise SchedulingError("optimization needs at least one TS flow")
    if max_hops is None:
        # hops() builds and searches the graph afresh: once per distinct
        # pair (in flow order, so a bad pair fails the same way each run),
        # not once per flow.
        pairs = dict.fromkeys((flow.src, flow.dst) for flow in ts_flows)
        max_hops = max(topology.hops(src, dst) for src, dst in pairs)
    deadlines = [f.deadline_ns for f in ts_flows if f.deadline_ns]
    deadline = min(deadlines) if deadlines else None
    cycle_ns = scheduling_cycle_ns(flows.ts_periods())

    candidates: List[CandidatePoint] = []
    rejected: List[int] = []
    for slot_ns in _slot_candidates(cycle_ns, max_hops, deadline):
        try:
            sizing: SizingResult = derive_config(
                topology,
                flows,
                slot_ns,
                name=f"{name}@{slot_ns}ns",
                queue_depth_margin=queue_depth_margin,
                rate_bps=rate_bps,
            )
        except SchedulingError:
            rejected.append(slot_ns)  # ITP infeasible at this slot size
            continue
        config = sizing.config
        if aggregate_switch_entries:
            destinations = len({f.dst for f in flows})
            config = config.with_updates(
                unicast_size=max(1, destinations)
            )
        candidates.append(
            CandidatePoint(
                slot_ns=slot_ns,
                config=config,
                required_queue_depth=sizing.required_queue_depth,
                worst_latency_ns=cqf_bounds(max_hops, slot_ns).max_ns,
                total_bram_kb=config.total_bram_kb,
            )
        )
    if not candidates:
        raise SchedulingError(
            f"no slot size satisfies the {deadline}ns deadline over "
            f"{max_hops} hops with a feasible ITP plan"
        )
    best = min(
        candidates, key=lambda c: (c.total_bram_kb, c.worst_latency_ns)
    )
    pareto = [
        point
        for point in candidates
        if not any(other.dominates(point) for other in candidates)
    ]
    pareto.sort(key=lambda c: c.worst_latency_ns)
    return OptimizationResult(best=best, pareto=pareto,
                              rejected_slots=rejected)
