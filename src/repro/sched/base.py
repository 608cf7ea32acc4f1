"""The pluggable-backend surface: protocol, registry, factory.

Every flow-scheduling backend is an object with a ``name`` and one method,
``solve(problem) -> SchedulePlan``.  Call sites never construct backends
directly; they go through :func:`make_scheduler`, which resolves a backend
*name* against the registry and validates backend-specific options against
the backend's constructor signature -- an unknown name or option fails
with a nearest-match suggestion instead of a bare ``TypeError`` (a
scenario's ``options`` are held to the kinds of the signature's defaults).

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

import inspect
from typing import Callable, Dict, Tuple

try:  # Protocol is typing-only sugar; keep 3.7 compat cheap.
    from typing import Protocol
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

from repro.core.errors import SchedulingError
from repro.schema import Field, Table, kind_of, suggest

from .anneal import AnnealScheduler
from .exact import ExactScheduler
from .greedy import GreedyScheduler, UnplannedScheduler
from .problem import SchedulePlan, SchedulingProblem

__all__ = [
    "Scheduler",
    "available_backends",
    "backend_options",
    "make_scheduler",
    "options_table",
    "register_backend",
]


class Scheduler(Protocol):
    """What every scheduling backend must provide."""

    name: str

    def solve(self, problem: SchedulingProblem) -> SchedulePlan:
        """Assign injection offsets; never raises on infeasibility --
        report it through the plan's ``status``/``rejected``/``reason``."""
        ...


#: name -> (factory, the table of options its signature accepts).
_REGISTRY: Dict[str, Tuple[Callable[..., Scheduler], Table]] = {}


def register_backend(name: str, factory: Callable[..., Scheduler]) -> None:
    """Add (or replace) a backend under *name* in the factory registry."""
    if not name or not isinstance(name, str):
        raise SchedulingError(f"backend name must be a string, got {name!r}")
    # Resolved here, once: make_scheduler runs under every plan_flows.
    params = [p for p in inspect.signature(factory).parameters.values()
              if p.name != "self"]
    accepts = f"accepts {sorted(p.name for p in params)}" if params \
        else "takes no options"
    _REGISTRY[name] = (factory, Table(
        tuple(Field(p.name, kind_of(p.default)) for p in params), terse=True,
        unknown=f"unknown option for backend {name!r}{{hint}}; {name!r} "
                f"{accepts}",
    ))


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def options_table(name: str) -> Table:
    """The table *name*'s options are checked against (a registered name)."""
    return _REGISTRY[name][1]


def backend_options(name: str) -> Tuple[str, ...]:
    """The option names *name*'s factory accepts (for validation/docs)."""
    entry = _REGISTRY.get(name)
    return tuple(f.name for f in entry[1].fields) if entry else ()


def make_scheduler(name: str, **options) -> Scheduler:
    """Resolve *name* to a backend instance, validating *options*.

    >>> make_scheduler("exact", node_limit=50_000)  # doctest: +ELLIPSIS
    <repro.sched.exact.ExactScheduler object at ...>
    """
    entry = _REGISTRY.get(name)
    if entry is None:
        raise SchedulingError(
            f"unknown scheduling backend {name!r}"
            f"{suggest(name, available_backends())}; "
            f"available: {list(available_backends())}"
        )
    allowed = backend_options(name)
    unknown = sorted(set(options) - set(allowed))
    if unknown:
        problems = ", ".join(f"{key!r}{suggest(key, allowed)}"
                             for key in unknown)
        raise SchedulingError(
            f"backend {name!r} does not accept option(s) "
            f"{problems}; accepted: {sorted(allowed)}"
        )
    return entry[0](**options)


register_backend("greedy", GreedyScheduler)
register_backend("exact", ExactScheduler)
register_backend("anneal", AnnealScheduler)
register_backend("unplanned", UnplannedScheduler)
