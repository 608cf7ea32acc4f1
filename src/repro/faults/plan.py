"""Fault plans: the declarative ``"faults"`` scenario stanza.

A plan is a list of timed fault events, each applied relative to traffic
start (after any gPTP warmup), so the same plan means the same thing in
every scenario regardless of warmup settings::

    "faults": {
      "events": [
        {"kind": "link_down", "link": "sw0.p1", "at_us": 10000},
        {"kind": "loss_burst", "link": "sw0.p0", "at_us": 5000,
         "duration_us": 2000, "rate": 0.5},
        {"kind": "gm_down", "node": "sw0", "at_us": 20000},
        {"kind": "freq_step", "node": "sw2", "at_us": 1000,
         "drift_ppm": 40.0},
        {"kind": "buffer_shrink", "switch": "sw1", "at_us": 8000,
         "duration_us": 4000, "slots": 8}
      ]
    }

Validation is the :mod:`repro.schema` walker over one table per event
kind: :func:`validate_faults_dict` returns every problem as a
``"path: message"`` string (with nearest-key suggestions), and
:meth:`FaultPlan.from_dict` raises one
:class:`~repro.core.errors.SpecValidationError` listing all of them.

Times accept ``*_us`` or ``*_ns`` suffixes (exclusive, like the SLO
stanza) and must be whole nanoseconds.  Every event kind, its target field
and its parameters are listed in :data:`FAULT_KINDS`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.errors import SpecValidationError
from repro.schema import INT, NAME, NUMBER, Field, ListOf, Range, Table, \
    Tagged, Time, check

__all__ = ["FAULT_KINDS", "FaultEvent", "FaultPlan", "validate_faults_dict"]

#: kind -> (target field, required params, optional params).
FAULT_KINDS: Dict[str, Tuple[str, Tuple[str, ...], Tuple[str, ...]]] = {
    # link faults
    "link_down": ("link", (), ("duration",)),   # duration => auto-restore
    "link_up": ("link", (), ()),
    "loss_burst": ("link", ("duration",), ("rate",)),
    "corrupt_burst": ("link", ("duration",), ("rate",)),
    # clock faults
    "gm_down": ("node", (), ()),
    "gm_up": ("node", (), ()),
    "clock_step": ("node", ("offset_ns",), ()),
    "freq_step": ("node", ("drift_ppm",), ()),
    # buffer-pressure faults
    "buffer_shrink": ("switch", ("slots",), ("duration",)),
}

_TIME = Time(("us", "ns"))

#: Every event field but ``kind``, in checking order.
_FIELDS = {f.name: f for f in (
    Field("link", NAME, "the link, `<switch>.p<port>` or a unique prefix"),
    Field("node", NAME, "the clock node (a switch)"),
    Field("switch", NAME, "the switch whose buffer pools shrink"),
    Field("at", _TIME, "when, after traffic start"),
    Field("duration", Time(positive=True), "how long until it is undone"),
    Field("rate", NUMBER, "share of frames lost or corrupted", 1.0,
          bounds=Range(0, 1, lo_open=True),
          message="expected a rate in (0, 1], got {value!r}"),
    Field("offset_ns", INT, "phase jump of the node's clock"),
    Field("drift_ppm", NUMBER, "the node's new oscillator error"),
    Field("slots", INT, "buffer slots seized per pool", bounds=Range(1)),
)}


def _event_table(kind: str) -> Table:
    target, required, optional = FAULT_KINDS[kind]
    required += (target, "at")
    return Table(tuple(
        dataclasses.replace(f, required=name in required)
        for name, f in _FIELDS.items() if name in required + optional
    ), unknown=f"unknown parameter for {kind!r}{{hint}}", terse=True)


FAULTS = Table((Field("events", ListOf(Field("event", Tagged(
    "kind", {kind: _event_table(kind) for kind in FAULT_KINDS}
))), "the timed fault events", required=True, bounds=Range(1),
    message="declares no events; drop the stanza instead"),), terse=True)


def validate_faults_dict(
    data: Any, prefix: str = "faults"
) -> List[str]:
    """Every problem the ``"faults"`` stanza has, as path-prefixed strings."""
    return check(FAULTS, data, prefix)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault, times relative to traffic start (ns)."""

    kind: str
    target: str
    at_ns: int
    duration_ns: Optional[int] = None
    rate: float = 1.0             # loss_burst / corrupt_burst fraction
    offset_ns: int = 0            # clock_step phase jump
    drift_ppm: float = 0.0        # freq_step new oscillator error
    slots: int = 0                # buffer_shrink seized slots per pool

    @property
    def end_ns(self) -> Optional[int]:
        if self.duration_ns is None:
            return None
        return self.at_ns + self.duration_ns

    def describe(self) -> str:
        """Compact human-readable form for timelines."""
        parts = [f"{self.kind} {self.target}"]
        if self.duration_ns is not None:
            parts.append(f"for {self.duration_ns / 1000:g}us")
        if self.kind in ("loss_burst", "corrupt_burst") and self.rate < 1.0:
            parts.append(f"rate={self.rate:g}")
        if self.kind == "clock_step":
            parts.append(f"offset={self.offset_ns}ns")
        if self.kind == "freq_step":
            parts.append(f"drift={self.drift_ppm:g}ppm")
        if self.kind == "buffer_shrink":
            parts.append(f"slots={self.slots}")
        return " ".join(parts)


class FaultPlan:
    """A validated, ordered schedule of fault events."""

    def __init__(self, events: List[FaultEvent]):
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.at_ns, e.kind, e.target))
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def horizon_ns(self) -> int:
        """Latest instant any event is still acting (ns after start)."""
        horizon = 0
        for event in self.events:
            horizon = max(horizon, event.end_ns or event.at_ns)
        return horizon

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        problems = validate_faults_dict(data)
        if problems:
            raise SpecValidationError("fault plan", problems)
        return cls([
            FaultEvent(
                kind=event["kind"],
                target=event[FAULT_KINDS[event["kind"]][0]],
                at_ns=_TIME.ns("at", event),
                duration_ns=_TIME.ns("duration", event),
                rate=float(event.get("rate", 1.0)),
                offset_ns=event.get("offset_ns", 0),
                drift_ppm=float(event.get("drift_ppm", 0.0)),
                slots=event.get("slots", 0),
            )
            for event in data["events"]
        ])

    def to_dict(self) -> Dict[str, Any]:
        rows = []
        for event in self.events:
            target, required, optional = FAULT_KINDS[event.kind]
            row: Dict[str, Any] = {
                "kind": event.kind, target: event.target,
                "at_ns": event.at_ns,
            }
            if event.duration_ns is not None:
                row["duration_ns"] = event.duration_ns
            row.update((name, getattr(event, name)) for name in _FIELDS
                       if name in required + optional and name != "duration")
            rows.append(row)
        return {"events": rows}
