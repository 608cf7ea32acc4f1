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

:class:`SchedPolicy` is the planner's part of it (backend, objective,
utilization limit, options); ``shaper`` and ``slot2_us`` name the gating
discipline (:mod:`repro.cqf.gating`) together with the scenario's
``gate_mechanism``.  :func:`validate_sched_dict` is the
:mod:`repro.schema` walker over :data:`SCHED` (path-prefixed problems,
nearest-key suggestions; ``options`` are checked against the selected
backend's signature, :func:`~repro.sched.base.options_table`); and
:func:`plan_flows` is the one entry point that turns a flow set, a policy
and a discipline into a plan -- one problem per CQF system of the
discipline (:meth:`~repro.cqf.gating.Discipline.systems`); Multi-CQF's two
plans aggregate into a :class:`~repro.sched.problem.MultiSchedulePlan`.

A scenario run plans once and hands that plan to both the sizing
guidelines and the testbed, so a scenario's simulated queues and its
derived BRAM figures always come from the same schedule (by design, the
``use_itp: false`` ablation alone sizes by greedy ITP and runs unplanned).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.core.errors import SchedulingError, SpecValidationError
from repro.core.units import GIGABIT
from repro.cqf.gating import CQF, DISCIPLINES, SHAPERS, Discipline
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
]

def _slot2_needs_multi_cqf(data: Mapping[str, Any], path: str) -> List[str]:
    discipline = DISCIPLINES[data.get("shaper", "cqf")]
    if "slot2_us" in data and not discipline.long_slot:
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
    """The planner's part of a ``"sched"`` stanza, with defaults matching
    historic behaviour; the stanza's ``shaper`` and ``slot2_us`` belong to
    the gating discipline."""

    backend: str = "greedy"
    objective: str = "min_peak"
    utilization_limit: float = 0.5
    options: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        problems = check(SCHED, {
            "objective": self.objective,
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
        planner = ("backend", "objective", "utilization_limit")
        return cls(**{key: data[key] for key in planner if key in data},
                   options=dict(data.get("options", {})))

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "backend": self.backend,
            "objective": self.objective,
            "utilization_limit": self.utilization_limit,
        }
        if self.options:
            data["options"] = dict(self.options)
        return data

    def make_scheduler(self) -> Scheduler:
        return make_scheduler(self.backend, **self.options)


def validate_sched_dict(data: Any) -> List[str]:
    """Every problem the stanza has, as ``"sched.path: message"`` strings."""
    return check(SCHED, data, "sched")


# --------------------------------------------------------------- planning


def plan_flows(
    flows: Sequence[FlowSpec],
    slot_ns: int,
    rate_bps: int = GIGABIT,
    policy: Optional[SchedPolicy] = None,
    discipline: Discipline = CQF,
) -> Union[SchedulePlan, MultiSchedulePlan]:
    """Plan the TS subset of *flows* under *policy* for *discipline*
    (never raises on infeasibility -- check/raise via the returned plan)."""
    policy = policy or SchedPolicy()
    scheduler = policy.make_scheduler()
    ts = [f for f in flows if f.traffic_class is TrafficClass.TS]
    if not ts:
        raise SchedulingError("cannot plan a flow set with no TS flows")
    systems = []
    for system_slot, members in discipline.systems(ts, slot_ns):
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
    return MultiSchedulePlan(tuple(systems)) if discipline.long_slot \
        else systems[0]
