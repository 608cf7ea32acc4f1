"""Per-flow SLO monitors: latency, jitter, deadline, loss, duplicates.

The paper's resource-reduction claim holds only *at equal QoS*; this module
makes "equal QoS" a checkable contract.  An :class:`SloSpec` states one
flow's bounds (max latency, max jitter, deadline, loss budget, duplicate
tolerance); an :class:`SloPolicy` maps specs onto flows -- per flow, per
traffic class, or as a default -- and merges in the ``deadline_ns`` a
:class:`~repro.traffic.flows.FlowSpec` already carries.  During a run an
:class:`SloMonitor` streams per-frame checks off the analyzer's arrival
hook; at the end :meth:`SloMonitor.report` adds the population checks
(jitter as latency standard deviation -- the paper's jitter metric -- and
loss from sequence accounting) and returns an :class:`SloReport` of
per-flow pass/fail verdicts with worst-case watermarks.

Streaming checks keep O(1) state per flow (sum, sum of squares, seen-seq
set); violation listings are bounded so a wholly broken flow cannot grow
the report without bound -- overflow is counted, never dropped silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.core.errors import ConfigurationError, SpecValidationError
from repro.schema import BOOL, FRACTION, NUMBER, POSITIVE, Field, Kind, \
    Obj, Table, Time, check, described, range_problems
from repro.traffic.flows import FlowSet, FlowSpec, TrafficClass

__all__ = [
    "SloSpec",
    "SloPolicy",
    "SloMonitor",
    "SloViolation",
    "FlowVerdict",
    "SloReport",
]

#: Violation kinds, in the order verdict tables list them.
VIOLATION_KINDS = ("latency", "deadline", "jitter", "loss", "duplicate")

#: Per-flow cap on individually listed violations; the verdict's counters
#: keep the true totals.
_MAX_VIOLATIONS_LISTED = 64


_TIME = Time(("ns", "us"), positive=True)

#: One flow's bounds: ``slo.default``, ``slo.class.<class>``,
#: ``slo.flows.<id>``.
SLO_SPEC = Table((
    Field("latency", _TIME, "per-frame end-to-end latency bound"),
    Field("jitter", _TIME, "bound on the latency standard deviation"),
    Field("deadline", _TIME, "per-frame deadline; misses are counted"),
    Field("max_loss", NUMBER, "lost / expected frames", bounds=FRACTION),
    Field("allow_duplicates", BOOL, "`false`: a duplicate violates", True),
), unknown="unknown SLO key{hint}")
_SPEC = Field("spec", Obj(SLO_SPEC))

#: The ``"slo"`` stanza.
SLO = Table((
    Field("default", _SPEC.kind, "bounds for every flow"),
    Field("class", Obj(values=_SPEC, key=Kind(
        "a traffic class (TS, RC or BE)",
        lambda key: str(key).upper() in TrafficClass.__members__,
    )), "bounds per traffic class, over the default"),
    Field("flows", Obj(values=_SPEC, key=Kind(
        "a flow id", lambda key: str(key).lstrip("-").isdigit(),
    )), "bounds per flow id, over its class"),
), unknown="unknown SLO key{hint}")


@dataclass(frozen=True)
class SloSpec:
    """One flow's service-level bounds; ``None`` means unchecked."""

    latency_ns: Optional[int] = described(None, POSITIVE)  # per frame
    jitter_ns: Optional[int] = described(None, POSITIVE)   # latency stddev
    deadline_ns: Optional[int] = described(None, POSITIVE)  # counts misses
    max_loss: Optional[float] = described(None, FRACTION)  # 0.0 = lossless
    allow_duplicates: bool = True       # False: any duplicate seq violates

    _FIELDS = ("latency_ns", "jitter_ns", "deadline_ns", "max_loss")

    def __post_init__(self) -> None:
        for problem in range_problems(self):
            raise ConfigurationError(f"SLO {problem}")

    @property
    def is_empty(self) -> bool:
        return (
            all(getattr(self, name) is None for name in self._FIELDS)
            and self.allow_duplicates
        )

    def merged_over(self, base: "SloSpec") -> "SloSpec":
        """This spec's set fields layered over *base*'s."""
        changes = {
            name: getattr(base, name)
            for name in self._FIELDS
            if getattr(self, name) is None
        }
        if not changes and self.allow_duplicates == base.allow_duplicates:
            return self
        changes["allow_duplicates"] = (
            self.allow_duplicates and base.allow_duplicates
        )
        return replace(self, **changes)

    @classmethod
    def from_dict(cls, data: Dict[str, Any], path: str = "slo") -> "SloSpec":
        problems = check(SLO_SPEC, data, path)
        if problems:
            raise SpecValidationError("SLO spec", problems)
        return cls(
            latency_ns=_TIME.ns("latency", data),
            jitter_ns=_TIME.ns("jitter", data),
            deadline_ns=_TIME.ns("deadline", data),
            max_loss=float(data["max_loss"]) if "max_loss" in data else None,
            allow_duplicates=data.get("allow_duplicates", True),
        )

    def as_dict(self) -> Dict[str, Any]:
        result: Dict[str, Any] = {
            name: getattr(self, name)
            for name in self._FIELDS
            if getattr(self, name) is not None
        }
        if not self.allow_duplicates:
            result["allow_duplicates"] = False
        return result


class SloPolicy:
    """Maps :class:`SloSpec` bounds onto flows.

    Resolution layers, most specific wins field by field: per-flow spec,
    then per-traffic-class spec, then the policy default, then the
    ``deadline_ns`` the flow definition itself carries (so TS flows with
    deadlines are monitored even under an empty policy).
    """

    def __init__(
        self,
        default: Optional[SloSpec] = None,
        per_class: Optional[Dict[TrafficClass, SloSpec]] = None,
        per_flow: Optional[Dict[int, SloSpec]] = None,
    ) -> None:
        self.default = default or SloSpec()
        self.per_class = dict(per_class or {})
        self.per_flow = dict(per_flow or {})

    def resolve(self, flow: FlowSpec) -> SloSpec:
        spec = SloSpec(deadline_ns=flow.deadline_ns)
        spec = self.default.merged_over(spec)
        class_spec = self.per_class.get(flow.traffic_class)
        if class_spec is not None:
            spec = class_spec.merged_over(spec)
        flow_spec = self.per_flow.get(flow.flow_id)
        if flow_spec is not None:
            spec = flow_spec.merged_over(spec)
        return spec

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SloPolicy":
        """Parse the ``"slo"`` scenario-spec stanza.

        ::

            {"default": {"max_loss": 0.0},
             "class":   {"TS": {"latency_us": 500, "jitter_us": 100}},
             "flows":   {"0": {"latency_us": 50}}}
        """
        problems = check(SLO, data, "slo")
        if problems:
            raise SpecValidationError("slo stanza", problems)
        return cls(
            default=SloSpec.from_dict(data.get("default", {})),
            per_class={
                TrafficClass[str(name).upper()]: SloSpec.from_dict(spec)
                for name, spec in data.get("class", {}).items()
            },
            per_flow={
                int(flow_id): SloSpec.from_dict(spec)
                for flow_id, spec in data.get("flows", {}).items()
            },
        )


@dataclass(frozen=True)
class SloViolation:
    """One recorded breach of one flow's bounds."""

    flow_id: int
    kind: str          # one of VIOLATION_KINDS
    time_ns: int       # simulation time of detection (end of run for
                       # population checks)
    observed: float
    bound: float
    seq: int = -1      # offending sequence number, when per-frame

    def as_dict(self) -> Dict[str, Any]:
        return {
            "flow_id": self.flow_id,
            "kind": self.kind,
            "time_ns": self.time_ns,
            "observed": self.observed,
            "bound": self.bound,
            "seq": self.seq,
        }


class _FlowState:
    """Streaming per-flow accumulator (O(1) memory besides the seq set)."""

    __slots__ = (
        "spec", "received", "duplicates", "latency_sum", "latency_sumsq",
        "max_latency_ns", "max_latency_seq", "deadline_misses",
        "latency_violations", "seen_seqs", "violations", "suppressed",
    )

    def __init__(self, spec: SloSpec) -> None:
        self.spec = spec
        self.received = 0
        self.duplicates = 0
        self.latency_sum = 0
        self.latency_sumsq = 0
        self.max_latency_ns: Optional[int] = None
        self.max_latency_seq = -1
        self.deadline_misses = 0
        self.latency_violations = 0
        self.seen_seqs: set = set()
        self.violations: List[SloViolation] = []
        self.suppressed = 0

    def add_violation(self, violation: SloViolation) -> None:
        if len(self.violations) < _MAX_VIOLATIONS_LISTED:
            self.violations.append(violation)
        else:
            self.suppressed += 1

    @property
    def jitter_ns(self) -> Optional[float]:
        """Population standard deviation of latency (the paper's jitter)."""
        if self.received < 2:
            return None
        mean = self.latency_sum / self.received
        variance = self.latency_sumsq / self.received - mean * mean
        return math.sqrt(max(0.0, variance))

    @property
    def mean_latency_ns(self) -> Optional[float]:
        if not self.received:
            return None
        return self.latency_sum / self.received


@dataclass(frozen=True)
class FlowVerdict:
    """One flow's end-of-run SLO outcome."""

    flow_id: int
    traffic_class: str
    spec: SloSpec
    expected: int
    received: int                    # unique sequence numbers delivered
    duplicates: int
    lost: int
    loss_rate: float
    max_latency_ns: Optional[int]    # worst-case watermark
    mean_latency_ns: Optional[float]
    jitter_ns: Optional[float]
    deadline_misses: int
    latency_violations: int
    violations: Tuple[SloViolation, ...]
    suppressed_violations: int

    @property
    def failures(self) -> Tuple[str, ...]:
        """The violation kinds this flow breached (deduplicated, ordered)."""
        kinds = {v.kind for v in self.violations}
        return tuple(k for k in VIOLATION_KINDS if k in kinds)

    @property
    def passed(self) -> bool:
        return not self.violations and not self.suppressed_violations

    @property
    def monitored(self) -> bool:
        return not self.spec.is_empty

    def as_dict(self) -> Dict[str, Any]:
        return {
            "flow_id": self.flow_id,
            "class": self.traffic_class,
            "spec": self.spec.as_dict(),
            "passed": self.passed,
            "failures": list(self.failures),
            "expected": self.expected,
            "received": self.received,
            "duplicates": self.duplicates,
            "lost": self.lost,
            "loss_rate": self.loss_rate,
            "max_latency_ns": self.max_latency_ns,
            "mean_latency_ns": self.mean_latency_ns,
            "jitter_ns": self.jitter_ns,
            "deadline_misses": self.deadline_misses,
            "latency_violations": self.latency_violations,
            "violations": [v.as_dict() for v in self.violations],
            "suppressed_violations": self.suppressed_violations,
        }


@dataclass
class SloReport:
    """All flows' verdicts plus run-level rollups."""

    verdicts: Dict[int, FlowVerdict] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts.values())

    @property
    def monitored(self) -> int:
        return sum(1 for v in self.verdicts.values() if v.monitored)

    @property
    def failed_flows(self) -> Tuple[int, ...]:
        return tuple(
            flow_id
            for flow_id, verdict in sorted(self.verdicts.items())
            if not verdict.passed
        )

    @property
    def total_violations(self) -> int:
        return sum(
            len(v.violations) + v.suppressed_violations
            for v in self.verdicts.values()
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "passed": self.passed,
            "monitored_flows": self.monitored,
            "failed_flows": list(self.failed_flows),
            "total_violations": self.total_violations,
            "flows": {
                str(flow_id): verdict.as_dict()
                for flow_id, verdict in sorted(self.verdicts.items())
            },
        }


class SloMonitor:
    """Streams per-frame checks; finalizes population checks on report.

    Hooked into :class:`~repro.network.analyzer.TsnAnalyzer` (which already
    computes each arrival's end-to-end latency); optionally mirrors
    violation counts into a ``slo_violations_total`` registry counter so
    the time-series layer can plot violation rate over time.
    """

    def __init__(
        self,
        policy: SloPolicy,
        flows: FlowSet,
        metrics: Optional["Any"] = None,
    ) -> None:
        self.policy = policy
        self._states: Dict[int, _FlowState] = {}
        self._flows: Dict[int, FlowSpec] = {}
        self._violation_counter = (
            metrics.counter(
                "slo_violations_total", "SLO violations by flow and kind"
            )
            if metrics is not None
            else None
        )
        for flow in flows:
            self._flows[flow.flow_id] = flow
            self._states[flow.flow_id] = _FlowState(policy.resolve(flow))

    # ------------------------------------------------------------- streaming

    def observe(self, flow_id: int, seq: int, latency_ns: int,
                now_ns: int) -> None:
        """One arrival: latency/deadline/duplicate checks, watermarks."""
        state = self._states.get(flow_id)
        if state is None:
            return
        spec = state.spec
        if seq in state.seen_seqs:
            state.duplicates += 1
            if not spec.allow_duplicates:
                self._violate(
                    state,
                    SloViolation(flow_id, "duplicate", now_ns,
                                 observed=state.duplicates, bound=0, seq=seq),
                )
            return
        state.seen_seqs.add(seq)
        state.received += 1
        state.latency_sum += latency_ns
        state.latency_sumsq += latency_ns * latency_ns
        if state.max_latency_ns is None or latency_ns > state.max_latency_ns:
            state.max_latency_ns = latency_ns
            state.max_latency_seq = seq
        if spec.latency_ns is not None and latency_ns > spec.latency_ns:
            state.latency_violations += 1
            self._violate(
                state,
                SloViolation(flow_id, "latency", now_ns,
                             observed=latency_ns, bound=spec.latency_ns,
                             seq=seq),
            )
        if spec.deadline_ns is not None and latency_ns > spec.deadline_ns:
            state.deadline_misses += 1
            self._violate(
                state,
                SloViolation(flow_id, "deadline", now_ns,
                             observed=latency_ns, bound=spec.deadline_ns,
                             seq=seq),
            )

    def _violate(self, state: _FlowState, violation: SloViolation) -> None:
        state.add_violation(violation)
        if self._violation_counter is not None:
            self._violation_counter.inc(
                flow=violation.flow_id, kind=violation.kind
            )

    # ------------------------------------------------------------ finalizing

    def report(
        self,
        expected_by_flow: Dict[int, int],
        end_ns: int = 0,
    ) -> SloReport:
        """Run the end-of-run checks (jitter, loss) and build the report."""
        report = SloReport()
        for flow_id, state in sorted(self._states.items()):
            spec = state.spec
            expected = expected_by_flow.get(flow_id, 0)
            lost = max(0, expected - state.received)
            loss_rate = lost / expected if expected else 0.0
            jitter = state.jitter_ns
            if (
                spec.jitter_ns is not None
                and jitter is not None
                and jitter > spec.jitter_ns
            ):
                self._violate(
                    state,
                    SloViolation(flow_id, "jitter", end_ns,
                                 observed=jitter, bound=spec.jitter_ns),
                )
            if spec.max_loss is not None and loss_rate > spec.max_loss:
                self._violate(
                    state,
                    SloViolation(flow_id, "loss", end_ns,
                                 observed=loss_rate, bound=spec.max_loss),
                )
            flow = self._flows[flow_id]
            report.verdicts[flow_id] = FlowVerdict(
                flow_id=flow_id,
                traffic_class=flow.traffic_class.name,
                spec=spec,
                expected=expected,
                received=state.received,
                duplicates=state.duplicates,
                lost=lost,
                loss_rate=loss_rate,
                max_latency_ns=state.max_latency_ns,
                mean_latency_ns=state.mean_latency_ns,
                jitter_ns=jitter,
                deadline_misses=state.deadline_misses,
                latency_violations=state.latency_violations,
                violations=tuple(state.violations),
                suppressed_violations=state.suppressed,
            )
        return report
