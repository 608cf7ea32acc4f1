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

:class:`SchedPolicy` is the parsed form, :func:`validate_sched_dict` the
strict validator behind :class:`~repro.core.errors.SpecValidationError`
(path-prefixed problems, nearest-key suggestions, per-backend option
checks), and :func:`plan_flows` the one entry point that turns a flow set
plus a policy into a plan -- including the Multi-CQF case, where flows
partition onto per-system problems (a flow joins the long-slot system
when its period is a multiple of ``slot2``) and the per-system plans
aggregate into a :class:`~repro.sched.problem.MultiSchedulePlan`.

A scenario run plans once and hands that plan to both the sizing
guidelines and the testbed, so a scenario's simulated queues and its
derived BRAM figures always come from the same schedule (by design, the
``use_itp: false`` ablation alone sizes by greedy ITP and runs unplanned).
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.errors import SchedulingError
from repro.core.units import GIGABIT, us
from repro.cqf.schedule import CqfSchedule
from repro.traffic.flows import FlowSpec, TrafficClass

from .base import Scheduler, available_backends, backend_options, \
    make_scheduler
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

_KNOWN_KEYS = (
    "backend", "shaper", "objective", "utilization_limit", "slot2_us",
    "options",
)

#: Expected types for the options of the built-in backends.
_OPTION_TYPES: Dict[str, Dict[str, tuple]] = {
    "exact": {"node_limit": (int,)},
    "anneal": {
        "seed": (int,),
        "iterations": (int,),
        "t0": (int, float),
        "t_min": (int, float),
    },
}


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
        if self.shaper not in SHAPERS:
            raise SchedulingError(
                f"unknown shaper {self.shaper!r}; expected one of {SHAPERS}"
            )
        if self.objective not in OBJECTIVES:
            raise SchedulingError(
                f"unknown objective {self.objective!r}; "
                f"expected one of {OBJECTIVES}"
            )
        if not 0 < self.utilization_limit <= 1:
            raise SchedulingError(
                f"utilization_limit must be in (0, 1], "
                f"got {self.utilization_limit}"
            )

    @classmethod
    def from_dict(cls, data: Optional[Mapping[str, Any]]) -> "SchedPolicy":
        if data is None:
            return cls()
        problems = validate_sched_dict(data)
        if problems:
            from repro.core.errors import SpecValidationError

            raise SpecValidationError("sched stanza", problems)
        return cls(
            backend=data.get("backend", "greedy"),
            shaper=data.get("shaper", "cqf"),
            objective=data.get("objective", "min_peak"),
            utilization_limit=data.get("utilization_limit", 0.5),
            slot2_us=data.get("slot2_us"),
            options=dict(data.get("options", {})),
        )

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


def _suggest(key: str, candidates) -> str:
    matches = difflib.get_close_matches(str(key), sorted(candidates), n=1)
    return f" (did you mean {matches[0]!r}?)" if matches else ""


def validate_sched_dict(data: Any) -> List[str]:
    """Every problem the stanza has, as ``"sched.path: message"`` strings."""
    if not isinstance(data, Mapping):
        return [f"sched: expected an object, got {type(data).__name__}"]
    problems: List[str] = []
    for key in sorted(set(data) - set(_KNOWN_KEYS)):
        problems.append(
            f"sched.{key}: unknown key{_suggest(key, _KNOWN_KEYS)}"
        )
    backend = data.get("backend", "greedy")
    if not isinstance(backend, str):
        problems.append(
            f"sched.backend: expected a string, got {backend!r}"
        )
    elif backend not in available_backends():
        problems.append(
            f"sched.backend: unknown backend {backend!r}"
            f"{_suggest(backend, available_backends())}; "
            f"available: {list(available_backends())}"
        )
    shaper = data.get("shaper", "cqf")
    if shaper not in SHAPERS:
        problems.append(
            f"sched.shaper: expected one of {list(SHAPERS)}, got {shaper!r}"
            f"{_suggest(str(shaper), SHAPERS)}"
        )
    objective = data.get("objective", "min_peak")
    if objective not in OBJECTIVES:
        problems.append(
            f"sched.objective: expected one of {list(OBJECTIVES)}, "
            f"got {objective!r}{_suggest(str(objective), OBJECTIVES)}"
        )
    limit = data.get("utilization_limit", 0.5)
    if isinstance(limit, bool) or not isinstance(limit, (int, float)):
        problems.append(
            f"sched.utilization_limit: expected a number, got {limit!r}"
        )
    elif not 0 < limit <= 1:
        problems.append(
            f"sched.utilization_limit: must be in (0, 1], got {limit!r}"
        )
    if "slot2_us" in data:
        slot2 = data["slot2_us"]
        if isinstance(slot2, bool) or not isinstance(slot2, (int, float)) \
                or slot2 <= 0:
            problems.append(
                f"sched.slot2_us: expected a positive number, got {slot2!r}"
            )
        if shaper != "multi_cqf":
            problems.append(
                "sched.slot2_us: only valid with shaper 'multi_cqf'"
            )
    options = data.get("options", {})
    if not isinstance(options, Mapping):
        problems.append(
            f"sched.options: expected an object, "
            f"got {type(options).__name__}"
        )
    elif isinstance(backend, str) and backend in available_backends():
        allowed = backend_options(backend)
        for key in sorted(set(options) - set(allowed)):
            accepted = (
                f"; {backend!r} accepts {sorted(allowed)}" if allowed
                else f"; {backend!r} takes no options"
            )
            problems.append(
                f"sched.options.{key}: unknown option for backend "
                f"{backend!r}{_suggest(key, allowed)}{accepted}"
            )
        for key, kinds in _OPTION_TYPES.get(backend, {}).items():
            if key in options:
                value = options[key]
                if isinstance(value, bool) or not isinstance(value, kinds):
                    label = "an integer" if kinds == (int,) else "a number"
                    problems.append(
                        f"sched.options.{key}: expected {label}, "
                        f"got {value!r}"
                    )
    return problems


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
