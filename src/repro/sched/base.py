"""The pluggable-backend surface: protocol, registry, factory.

Every flow-scheduling backend is an object with a ``name`` and one method,
``solve(problem) -> SchedulePlan``.  Call sites never construct backends
directly; they go through :func:`make_scheduler`, which resolves a backend
*name* against the registry and validates backend-specific options against
the backend's constructor signature -- an unknown name or option fails
with a nearest-match suggestion instead of a bare ``TypeError``.

The registry ships with four backends:

=============  ========================================================
``greedy``     the paper's ITP planner (default; fast, unproven)
``exact``      branch-and-bound; ``optimal``/``infeasible`` are proofs
``anneal``     seeded simulated annealing for large instances
``unplanned``  period-start injection, the no-planning ablation baseline
=============  ========================================================

Third-party backends register with :func:`register_backend` and become
valid scenario ``"sched": {"backend": ...}`` values automatically.
"""

from __future__ import annotations

import difflib
import inspect
from typing import Callable, Dict, Tuple

try:  # Protocol is typing-only sugar; keep 3.7 compat cheap.
    from typing import Protocol
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

from repro.core.errors import SchedulingError

from .anneal import AnnealScheduler
from .exact import ExactScheduler
from .greedy import GreedyScheduler, UnplannedScheduler
from .problem import SchedulePlan, SchedulingProblem

__all__ = [
    "Scheduler",
    "available_backends",
    "backend_options",
    "make_scheduler",
    "register_backend",
]


class Scheduler(Protocol):
    """What every scheduling backend must provide."""

    name: str

    def solve(self, problem: SchedulingProblem) -> SchedulePlan:
        """Assign injection offsets; never raises on infeasibility --
        report it through the plan's ``status``/``rejected``/``reason``."""
        ...


#: name -> (factory, the option names its signature accepts).
_REGISTRY: Dict[str, Tuple[Callable[..., Scheduler], Tuple[str, ...]]] = {}


def register_backend(name: str, factory: Callable[..., Scheduler]) -> None:
    """Add (or replace) a backend under *name* in the factory registry."""
    if not name or not isinstance(name, str):
        raise SchedulingError(f"backend name must be a string, got {name!r}")
    # Resolved here, once: make_scheduler runs under every plan_flows.
    params = inspect.signature(factory).parameters
    _REGISTRY[name] = (factory, tuple(p for p in params if p != "self"))


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def backend_options(name: str) -> Tuple[str, ...]:
    """The option names *name*'s factory accepts (for validation/docs)."""
    entry = _REGISTRY.get(name)
    return entry[1] if entry is not None else ()


def make_scheduler(name: str, **options) -> Scheduler:
    """Resolve *name* to a backend instance, validating *options*.

    >>> make_scheduler("exact", node_limit=50_000)  # doctest: +ELLIPSIS
    <repro.sched.exact.ExactScheduler object at ...>
    """
    entry = _REGISTRY.get(name)
    if entry is None:
        matches = difflib.get_close_matches(
            str(name), available_backends(), n=1
        )
        hint = f" (did you mean {matches[0]!r}?)" if matches else ""
        raise SchedulingError(
            f"unknown scheduling backend {name!r}{hint}; "
            f"available: {list(available_backends())}"
        )
    factory, accepted = entry
    allowed = set(accepted)
    unknown = sorted(set(options) - allowed)
    if unknown:
        problems = []
        for key in unknown:
            matches = difflib.get_close_matches(key, sorted(allowed), n=1)
            hint = f" (did you mean {matches[0]!r}?)" if matches else ""
            problems.append(f"{key!r}{hint}")
        raise SchedulingError(
            f"backend {name!r} does not accept option(s) "
            f"{', '.join(problems)}; accepted: {sorted(allowed)}"
        )
    return factory(**options)


register_backend("greedy", GreedyScheduler)
register_backend("exact", ExactScheduler)
register_backend("anneal", AnnealScheduler)
register_backend("unplanned", UnplannedScheduler)
