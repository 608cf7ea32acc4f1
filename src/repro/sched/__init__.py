"""Pluggable flow scheduling: one problem model, many backends.

The redesigned scheduling layer behind CQF/CSQF/Multi-CQF injection
planning.  Construct a :class:`SchedulingProblem` (or let
:func:`plan_flows` build it from a flow set and a :class:`SchedPolicy`),
pick a backend through :func:`make_scheduler`, and consume the returned
:class:`SchedulePlan`::

    from repro.sched import SchedulingProblem, make_scheduler

    problem = SchedulingProblem.from_flows(flows, schedule)
    plan = make_scheduler("exact").solve(problem)
    plan.required_queue_depth        # guideline-4 input
    plan.status                      # "optimal" is a proof here

See :mod:`repro.sched.base` for the backend matrix and
:mod:`repro.sched.policy` for the scenario ``"sched"`` stanza.
"""

from .base import (
    Scheduler,
    available_backends,
    backend_options,
    make_scheduler,
    register_backend,
)
from .policy import (
    SHAPERS,
    SchedPolicy,
    plan_flows,
    validate_sched_dict,
)
from .problem import (
    OBJECTIVES,
    FlowDemand,
    MultiSchedulePlan,
    SchedulePlan,
    SchedulingProblem,
)

__all__ = [
    "FlowDemand",
    "MultiSchedulePlan",
    "OBJECTIVES",
    "SHAPERS",
    "SchedPolicy",
    "SchedulePlan",
    "Scheduler",
    "SchedulingProblem",
    "available_backends",
    "backend_options",
    "make_scheduler",
    "plan_flows",
    "register_backend",
    "validate_sched_dict",
]
