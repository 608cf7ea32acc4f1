"""The scenario-facing scheduling policy: the ``"sched"`` stanza.

A scenario selects its scheduling behaviour declaratively::

    "sched": {
      "backend": "exact",            // greedy | exact | anneal | unplanned
      "shaper": "csqf",              // cqf | csqf | multi_cqf
      "objective": "min_peak",       // min_peak | max_admission
      "utilization_limit": 0.5,      // TS share of a slot's wire time
      "slot2_us": 125.0,             // multi_cqf: the long-slot system
      "options": {"node_limit": 100000}   // backend-specific
    }

:class:`SchedPolicy` is the parsed form; :func:`validate_sched_dict` is
the :mod:`repro.schema` walker over :data:`SCHED` (path-prefixed problems,
nearest-key suggestions; ``options`` are checked against the selected
backend's signature, :func:`~repro.sched.base.options_table`); and
:func:`plan_flows` is the one entry point that turns a flow set plus a
policy into a plan -- including the Multi-CQF case, where flows
partition onto per-system problems (a flow joins the long-slot system
when its period is a multiple of ``slot2``) and the per-system plans
aggregate into a :class:`~repro.sched.problem.MultiSchedulePlan`.

A scenario run plans once and hands that plan to both the sizing
guidelines and the testbed, so a scenario's simulated queues and its
derived BRAM figures always come from the same schedule (by design, the
``use_itp: false`` ablation alone sizes by greedy ITP and runs unplanned).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.errors import SchedulingError, SpecValidationError
from repro.core.units import GIGABIT, us
from repro.cqf.schedule import CqfSchedule
from repro.schema import ANY, NUMBER, STR, Field, Obj, Range, Table, Time, \
    check
from repro.traffic.flows import FlowSpec, TrafficClass

from .base import Scheduler, available_backends, make_scheduler, \
    options_table
from .problem import MultiSchedulePlan, OBJECTIVES, SchedulePlan, \
    SchedulingProblem

__all__ = [
    "SHAPERS",
    "SchedPolicy",
    "validate_sched_dict",
    "plan_flows",
    "partition_for_multi_cqf",
]

#: First-class shaper modes.  ``cqf`` is the paper's 2-queue cyclic
#: forwarding; ``csqf`` the cycle-tagged 3-queue variant (one extra slot
#: of tolerance per hop); ``multi_cqf`` runs two CQF systems per port
#: with distinct slot lengths.
SHAPERS: Tuple[str, ...] = ("cqf", "csqf", "multi_cqf")


def _slot2_needs_multi_cqf(data: Mapping[str, Any], path: str) -> List[str]:
    if "slot2_us" in data and data.get("shaper", "cqf") != "multi_cqf":
        return [f"{path}.slot2_us: only valid with shaper 'multi_cqf'"]
    return []


def _backend_options(data: Mapping[str, Any], path: str) -> List[str]:
    return check(options_table(data.get("backend", "greedy")),
                 data.get("options", {}), f"{path}.options")


#: The ``"sched"`` stanza.
SCHED = Table((
    Field("backend", STR, "the scheduling backend", "greedy",
          choices=available_backends,
          message="unknown backend {value!r}{hint}; available: {choices}"),
    Field("shaper", ANY, "the CQF variant", "cqf", choices=SHAPERS),
    Field("objective", ANY, "what to optimize", "min_peak",
          choices=OBJECTIVES),
    Field("utilization_limit", NUMBER, "TS share of a slot's wire time", 0.5,
          bounds=Range(0, 1, lo_open=True)),
    Field("slot2", Time(("us",), positive=True),
          "`multi_cqf`: the long slot (default: twice the slot)"),
    Field("options", Obj(), "the backend's keyword options, each of the "
          "kind of its default"),
), terse=True, rules=(_slot2_needs_multi_cqf, _backend_options))


@dataclass(frozen=True)
class SchedPolicy:
    """Parsed ``"sched"`` stanza with defaults matching historic behaviour."""

    backend: str = "greedy"
    shaper: str = "cqf"
    objective: str = "min_peak"
    utilization_limit: float = 0.5
    slot2_us: Optional[float] = None
    options: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        problems = check(SCHED, {
            "shaper": self.shaper, "objective": self.objective,
            "utilization_limit": self.utilization_limit,
        }, "sched")
        if problems:
            raise SchedulingError("; ".join(problems))

    @classmethod
    def from_dict(cls, data: Optional[Mapping[str, Any]]) -> "SchedPolicy":
        if data is None:
            return cls()
        problems = validate_sched_dict(data)
        if problems:
            raise SpecValidationError("sched stanza", problems)
        return cls(**{**data, "options": dict(data.get("options", {}))})

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "backend": self.backend,
            "shaper": self.shaper,
            "objective": self.objective,
            "utilization_limit": self.utilization_limit,
        }
        if self.slot2_us is not None:
            data["slot2_us"] = self.slot2_us
        if self.options:
            data["options"] = dict(self.options)
        return data

    def make_scheduler(self) -> Scheduler:
        return make_scheduler(self.backend, **self.options)

    def slot2_ns(self, slot_ns: int) -> int:
        """The long-slot system's slot size (default: twice the base slot)."""
        slot2 = us(self.slot2_us) if self.slot2_us is not None \
            else 2 * slot_ns
        if slot2 <= 0 or slot2 % slot_ns:
            raise SchedulingError(
                f"multi_cqf slot2 ({slot2}ns) must be a positive multiple "
                f"of the base slot ({slot_ns}ns)"
            )
        return slot2


def validate_sched_dict(data: Any) -> List[str]:
    """Every problem the stanza has, as ``"sched.path: message"`` strings."""
    return check(SCHED, data, "sched")


# --------------------------------------------------------------- planning


def partition_for_multi_cqf(
    ts_flows: Sequence[FlowSpec], slot_ns: int, slot2_ns: int
) -> Tuple[List[FlowSpec], List[FlowSpec]]:
    """Split TS flows onto the two CQF systems of a Multi-CQF port.

    A flow joins the long-slot system when its period is a multiple of
    ``slot2_ns`` -- slower flows tolerate the coarser slotting and buy the
    fast system headroom; everything else stays on the base slot.
    """
    base: List[FlowSpec] = []
    long_slot: List[FlowSpec] = []
    for flow in ts_flows:
        if flow.period_ns is not None and flow.period_ns % slot2_ns == 0:
            long_slot.append(flow)
        else:
            base.append(flow)
    return base, long_slot


def plan_flows(
    flows: Sequence[FlowSpec],
    slot_ns: int,
    rate_bps: int = GIGABIT,
    policy: Optional[SchedPolicy] = None,
) -> Union[SchedulePlan, MultiSchedulePlan]:
    """Plan the TS subset of *flows* under *policy* (never raises on
    infeasibility -- check/raise via the returned plan)."""
    policy = policy or SchedPolicy()
    scheduler = policy.make_scheduler()
    ts = [f for f in flows if f.traffic_class is TrafficClass.TS]
    if not ts:
        raise SchedulingError("cannot plan a flow set with no TS flows")
    if policy.shaper != "multi_cqf":
        schedule = CqfSchedule.for_flows(
            [f.period_ns for f in ts], slot_ns
        )
        problem = SchedulingProblem.from_flows(
            ts, schedule, rate_bps,
            slot_utilization_limit=policy.utilization_limit,
            objective=policy.objective,
        )
        return scheduler.solve(problem)
    slot2_ns = policy.slot2_ns(slot_ns)
    systems = []
    for system_slot, members in zip(
        (slot_ns, slot2_ns),
        partition_for_multi_cqf(ts, slot_ns, slot2_ns),
    ):
        if members:
            schedule = CqfSchedule.for_flows(
                [f.period_ns for f in members], system_slot
            )
        else:  # keep system indices aligned with the queue groups
            schedule = CqfSchedule(system_slot, system_slot)
        problem = SchedulingProblem.from_flows(
            members, schedule, rate_bps,
            slot_utilization_limit=policy.utilization_limit,
            objective=policy.objective,
        )
        systems.append(scheduler.solve(problem))
    return MultiSchedulePlan(tuple(systems))
