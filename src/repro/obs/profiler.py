"""Opt-in wall-clock profiling of simulation work.

The kernel attributes the host-CPU time each event action consumes to a
*category* derived from the action's qualified name (``EgressPort.kick``,
``GateEngine._narrate_in``, ...), so a benchmark PR can say "62% of sim time is
egress arbitration" instead of guessing.

Profiling must cost literally nothing when off: the default
:data:`NULL_PROFILER` is a distinct type the kernel checks with one ``is``
comparison, and **no** ``time.perf_counter_ns`` call happens anywhere on
that path (a unit test poisons the clock to prove it).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["WallClockProfiler", "NullProfiler", "NULL_PROFILER", "categorize"]

#: Nanosecond wall-clock source; injectable for tests.
ClockFn = Callable[[], int]


def categorize(action: Callable[..., Any]) -> str:
    """A stable category for an event action.

    Named functions/methods report their qualified name; closures and
    lambdas are attributed to the enclosing function (``Link._carry``
    rather than an anonymous ``<lambda>``), which is where the scheduling
    decision lives.
    """
    func = getattr(action, "__func__", action)  # unwrap bound methods
    qualname = getattr(func, "__qualname__", None)
    if qualname is None:
        return type(action).__name__
    head, sep, _tail = qualname.partition(".<locals>.")
    return head if sep else qualname


class _Span:
    """Context manager timing one block into a profiler category."""

    __slots__ = ("_profiler", "_category", "_start")

    def __init__(self, profiler: "WallClockProfiler", category: str) -> None:
        self._profiler = profiler
        self._category = category
        self._start = 0

    def __enter__(self) -> "_Span":
        self._start = self._profiler.clock()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._profiler.record(
            self._category, self._profiler.clock() - self._start
        )


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullProfiler:
    """The do-nothing default: no clock reads, no state."""

    enabled = False

    def span(self, category: str) -> _NullSpan:
        return _NULL_SPAN

    def record(self, category: str, elapsed_ns: int, count: int = 1) -> None:
        return None

    def record_action(self, action: Callable[..., Any], elapsed_ns: int) -> None:
        return None

    def report(self) -> Dict[str, Dict[str, int]]:
        return {}


#: Shared disabled profiler; the kernel compares against this with ``is``.
NULL_PROFILER = NullProfiler()


class WallClockProfiler:
    """Accumulates host wall-clock time per category.

    >>> ticks = iter(range(0, 1000, 100))
    >>> profiler = WallClockProfiler(clock=lambda: next(ticks))
    >>> with profiler.span("work"):
    ...     pass
    >>> profiler.report()["work"]["calls"]
    1
    """

    enabled = True

    def __init__(self, clock: Optional[ClockFn] = None) -> None:
        self.clock: ClockFn = clock or time.perf_counter_ns
        self._categories: Dict[str, List[int]] = {}  # [total_ns, calls, max]
        # categorize() per event action would dominate the profiled cost;
        # cache by code object (lambdas share one code object per site).
        self._action_categories: Dict[Any, str] = {}

    def span(self, category: str) -> _Span:
        return _Span(self, category)

    def record_action(self, action: Callable[..., Any], elapsed_ns: int) -> None:
        """Attribute one event action's wall time (kernel hook)."""
        func = getattr(action, "__func__", action)
        key = getattr(func, "__code__", None) or type(action)
        category = self._action_categories.get(key)
        if category is None:
            category = self._action_categories[key] = categorize(action)
        self.record(category, elapsed_ns)

    def record(self, category: str, elapsed_ns: int, count: int = 1) -> None:
        entry = self._categories.get(category)
        if entry is None:
            entry = self._categories[category] = [0, 0, 0]
        entry[0] += elapsed_ns
        entry[1] += count
        if elapsed_ns > entry[2]:
            entry[2] = elapsed_ns

    # -------------------------------------------------------------- queries

    @property
    def total_ns(self) -> int:
        return sum(entry[0] for entry in self._categories.values())

    def report(self) -> Dict[str, Dict[str, int]]:
        """Per-category totals, hottest first."""
        ordered = sorted(
            self._categories.items(), key=lambda item: -item[1][0]
        )
        return {
            category: {
                "total_ns": total,
                "calls": calls,
                "max_ns": worst,
                "mean_ns": total // calls if calls else 0,
            }
            for category, (total, calls, worst) in ordered
        }

    def render(self) -> str:
        """Human-readable profile table, hottest category first."""
        from repro.analysis.report import render_table

        total = self.total_ns or 1
        rows: List[List[str]] = []
        for category, entry in self.report().items():
            rows.append(
                [
                    category,
                    f"{entry['total_ns'] / 1e6:.2f}",
                    f"{100 * entry['total_ns'] / total:.1f}%",
                    str(entry["calls"]),
                    f"{entry['mean_ns']:d}",
                    f"{entry['max_ns']:d}",
                ]
            )
        return render_table(
            ["category", "total(ms)", "share", "calls", "mean(ns)",
             "max(ns)"],
            rows,
            title="Wall-clock profile",
        )
