"""Resource-sizing guidelines (paper Section III.C, second stage).

``derive_config`` turns application features -- a topology and a flow set --
into the resource parameters the customization APIs inject, following the
paper's five guidelines:

1. **Switch/Classification/Meter tables** (shared): one entry per
   application flow in the worst case.
2. **In/Out gate tables** (per port): one entry per time slot in the
   scheduling cycle (LCM of flow periods); CQF's cyclic two-queue operation
   compresses this to exactly 2.
3. **CBS map/CBS tables** (per port): one entry per RC queue.
4. **Queues/buffers**: each queue must hold every packet arriving in one
   slot -- the worst per-slot load of the scheduler's plan
   (:class:`~repro.sched.SchedulePlan`, the injection-time plan) -- and the
   per-port buffer pool backs all queues at full depth
   (``buffer_num = queue_depth * queue_num``, which is exactly how the
   paper's 16x8 -> 128 and 12x8 -> 96 figures decompose).
5. **Enabled ports**: the topology's per-switch maximum.

The derived depth carries an engineering margin: the ITP bound is exact for
the planned TS traffic but leaves no room for phase error, so the guideline
scales it by ``queue_depth_margin`` (default 1.5x) and rounds up to a
multiple of 4 descriptors.  With the paper's workload (1024 flows of period
10 ms on 62.5 us slots -> 7 frames/slot worst case) this yields depth 12 and
96 buffers -- the paper's Table I Case 2 / Table III customized column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

from repro.cqf.schedule import CqfSchedule
from repro.traffic.flows import FlowSet
from .config import SwitchConfig
from .errors import SchedulingError

if TYPE_CHECKING:
    from repro.cqf.gating import Discipline
    from repro.sched import MultiSchedulePlan, SchedPolicy, SchedulePlan

__all__ = [
    "SizingResult",
    "ObservedDemand",
    "derive_config",
    "sufficient_config",
]


@dataclass(frozen=True)
class SizingResult:
    """A derived configuration plus the evidence behind it."""

    config: SwitchConfig
    schedule: CqfSchedule
    required_queue_depth: int
    #: The plan behind guideline 4, as the scheduler returned it (one
    #: plan per CQF system under the multi_cqf shaper).
    sched_plan: Union["SchedulePlan", "MultiSchedulePlan"]

    @property
    def depth_margin_frames(self) -> int:
        """Slack descriptors between requirement and configured depth."""
        return self.config.queue_depth - self.required_queue_depth


def _round_up(value: int, multiple: int) -> int:
    return -(-value // multiple) * multiple


@dataclass(frozen=True)
class ObservedDemand:
    """Peak demand a run actually placed on each sized structure.

    The inverse of :func:`derive_config`'s inputs: where sizing predicts
    demand from application features, this records what the dataplane
    measured -- queue/pool high-water marks and table fills -- so
    :func:`sufficient_config` can answer "what is the cheapest switch that
    would have sufficed for this run?".
    """

    queue_depth: int = 0       # worst per-queue occupancy (frames)
    buffer_slots: int = 0      # worst buffer-pool occupancy (slots)
    unicast: int = 0           # installed forwarding entries
    multicast: int = 0
    classification: int = 0
    meters: int = 0            # installed meter entries
    gate_entries: int = 0      # longest programmed GCL
    cbs_map: int = 0
    cbs: int = 0


def sufficient_config(
    base: SwitchConfig,
    observed: ObservedDemand,
    queue_depth_margin: float = 1.5,
    depth_round_to: int = 4,
) -> SwitchConfig:
    """The cheapest configuration that would have carried *observed* demand.

    Applies the same engineering-margin policy :func:`derive_config` uses
    for queue depth (scale the requirement by ``queue_depth_margin``, round
    up to a multiple of ``depth_round_to``) and the paper's buffer
    decomposition ``buffer_num = queue_depth * queue_num``, so a sufficient
    config for the Table I Case 2 workload (7 frames/slot observed)
    reproduces the published 12 x 8 -> 96 figures.  Tables are sized to
    their observed fill (minimum 1 entry -- a zero-entry BRAM does not
    exist); a multicast table the base config omitted stays omitted.
    """
    required_depth = max(1, observed.queue_depth)
    depth = _round_up(
        max(required_depth, math.ceil(required_depth * queue_depth_margin)),
        depth_round_to,
    )
    # The pool must back every queue at the margined depth *and* the worst
    # pool occupancy actually seen (which can momentarily exceed the sum of
    # queue peaks while a frame is on the wire).
    buffer_num = max(depth * base.queue_num, observed.buffer_slots)
    config = base.with_updates(
        name=f"{base.name}-sufficient",
        unicast_size=max(1, observed.unicast),
        multicast_size=(
            max(0, observed.multicast) if base.multicast_size > 0 else 0
        ),
        class_size=max(1, observed.classification),
        meter_size=max(1, observed.meters),
        gate_size=max(1, observed.gate_entries),
        cbs_map_size=min(base.queue_num, max(1, observed.cbs_map)),
        cbs_size=max(1, observed.cbs),
        queue_depth=depth,
        buffer_num=buffer_num,
    )
    config.validate()
    return config


def derive_config(
    topology,
    flows: FlowSet,
    slot_ns: int,
    name: str = "derived",
    discipline: Optional["Discipline"] = None,
    rc_queue_num: int = 3,
    queue_num: int = 8,
    queue_depth_margin: float = 1.5,
    depth_round_to: int = 4,
    rate_bps: int = 10**9,
    max_enabled_ports: Optional[int] = None,
    replication_factor: int = 1,
    sched: Optional["SchedPolicy"] = None,
    plan: Optional[Union["SchedulePlan", "MultiSchedulePlan"]] = None,
) -> SizingResult:
    """Apply the five guidelines to one scenario.

    *topology* is a :class:`~repro.network.topology.TopologySpec` (typed
    loosely to keep :mod:`repro.core` import-light); pass
    ``max_enabled_ports`` explicitly to size without a topology object.

    ``discipline`` (:mod:`repro.cqf.gating`, default classic CQF) sizes
    guideline 2: the entries its gate lists hold -- the two of the
    evaluation under CQF (:meth:`~repro.cqf.gating.Discipline.gate_size`).

    ``sched`` is the flow-scheduling policy (backend, objective) behind
    guideline 4 -- the default reproduces the historic greedy ITP figures
    byte for byte.

    ``plan``, when given, is the plan of *flows* under ``sched`` and
    ``discipline`` at ``rate_bps`` the caller already has (a scenario
    sizes from its run's).

    ``replication_factor`` scales the per-flow table entries for redundant
    transmission: FRER (802.1CB) sends each TS flow as two member streams,
    each needing its own classification/forwarding/meter entry, so pass 2.
    """
    from repro.cqf.gating import CQF
    from repro.sched import SchedPolicy, plan_flows

    sched = sched or SchedPolicy()
    discipline = discipline or CQF
    if max_enabled_ports is None:
        max_enabled_ports = topology.max_enabled_ports
    if replication_factor < 1:
        raise SchedulingError(
            f"replication factor must be >= 1, got {replication_factor}"
        )
    flow_count = len(flows) * replication_factor
    if flow_count == 0:
        raise SchedulingError("cannot size a switch for zero flows")

    # The scheduling cycle, slotted (guideline 2 counts its slots).
    periods = flows.ts_periods()
    if not periods:
        raise SchedulingError("sizing needs at least one TS flow")
    schedule = CqfSchedule.for_flows(periods, slot_ns)

    # Guideline 4: queue depth from the plan's worst per-slot load.
    if plan is None:
        plan = plan_flows(list(flows), slot_ns, rate_bps, policy=sched,
                          discipline=discipline)
    plan.raise_if_infeasible()
    # Guideline 2: the gate lists the discipline programs.
    gate_size = discipline.gate_size(schedule, plan, queue_num)
    required_depth = max(1, plan.required_queue_depth)
    depth = _round_up(
        max(required_depth, math.ceil(required_depth * queue_depth_margin)),
        depth_round_to,
    )
    buffer_num = depth * queue_num

    config = SwitchConfig(
        name=name,
        port_num=max_enabled_ports,
        # Guideline 1: shared tables sized to the flow count.
        unicast_size=flow_count,
        multicast_size=0,
        class_size=flow_count,
        meter_size=flow_count,
        gate_size=gate_size,
        queue_num=queue_num,
        # Guideline 3: one CBS map/table entry per RC queue.
        cbs_map_size=rc_queue_num,
        cbs_size=rc_queue_num,
        queue_depth=depth,
        buffer_num=buffer_num,
    )
    config.validate()
    return SizingResult(
        config=config,
        schedule=schedule,
        required_queue_depth=required_depth,
        sched_plan=plan,
    )
