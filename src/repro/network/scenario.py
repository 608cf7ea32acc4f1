"""Declarative scenario specifications.

A :class:`ScenarioSpec` captures one complete experiment -- topology, flow
set, switch configuration (explicit or guideline-derived), CQF slotting and
run window -- as a plain JSON-compatible dictionary.  This is the file
format behind ``python -m repro simulate`` and a convenient way to archive
the exact conditions of a measurement next to its results.

Example document::

    {
      "name": "ring-demo",
      "topology": {"kind": "ring", "switch_count": 3,
                    "talkers": ["talker0"], "listener": "listener"},
      "flows": {"ts_count": 64, "period_us": 10000, "size_bytes": 64,
                 "rc_mbps": 100, "be_mbps": 100},
      "config": "derive",
      "slot_us": 62.5,
      "duration_ms": 40,
      "seed": 0,
      "gate_mechanism": "cqf"
    }

``"config": "derive"`` applies the Section III.C sizing guidelines to the
declared flows; an object instead is interpreted as explicit
:class:`~repro.core.config.SwitchConfig` fields.
"""

from __future__ import annotations

import difflib
import inspect
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.core.config import SwitchConfig
from repro.core.errors import ConfigurationError, SpecValidationError
from repro.core.sizing import derive_config
from repro.core.units import mbps, us
from repro.faults.plan import FaultPlan, validate_faults_dict
from repro.obs.flowspans import FlowSpanRecorder
from repro.obs.headroom import HeadroomRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import WallClockProfiler
from repro.obs.slo import SloPolicy
from repro.sim.trace import NULL_TRACER, Tracer
from repro.traffic.flows import FlowSet
from repro.traffic.iec60802 import background_flows, production_cell_flows
from .testbed import ScenarioResult, Testbed
from .topology import (
    TopologySpec,
    dual_path_topology,
    frer_ring_topology,
    linear_topology,
    ring_topology,
    star_topology,
)

__all__ = ["ScenarioSpec", "validate_scenario_dict", "known_extra_keys"]

_TOPOLOGY_BUILDERS = {
    "ring": ring_topology,
    "linear": linear_topology,
    "star": star_topology,
    "dual_path": dual_path_topology,
    "frer_ring": frer_ring_topology,
}

#: Top-level scenario keys mapped onto ScenarioSpec fields directly.
_KNOWN_TOP_KEYS = frozenset({
    "name", "topology", "flows", "config", "slot_us", "duration_ms",
    "seed", "gate_mechanism", "use_itp", "injection_phase", "slo",
    "faults", "sched",
})

#: The problem reported for a top-level key that is no longer accepted, in
#: place of a nearest-key hint that would point at an unrelated stanza.
_REMOVED_TOP_KEYS = {
    "shard": 'sharded runs were removed; see docs/performance.md '
             '"Why there is no sharded run"',
}

#: Flow-stanza keys consumed by :meth:`ScenarioSpec.build_flows`.
_KNOWN_FLOW_KEYS = frozenset(
    {"ts_count", "period_us", "size_bytes", "rc_mbps", "be_mbps", "groups"}
)

#: Keys a ``flows.groups[i]`` entry may carry.
_KNOWN_GROUP_KEYS = frozenset({"ts_count", "period_us", "size_bytes"})

#: Testbed kwargs the spec explicitly threads; everything else in the
#: Testbed signature is a legal pass-through "extra".
_EXPLICIT_TESTBED_KWARGS = frozenset({
    "self", "topology", "config", "flows", "slot_ns", "seed", "use_itp",
    "gate_mechanism", "injection_phase", "tracer", "metrics", "profiler",
    "spans", "slo_policy", "fault_plan", "headroom", "sched",
})


def _extra_defaults() -> Dict[str, Any]:
    """Pass-through ``Testbed.__init__`` parameters and their defaults.

    Derived from the live signature so a new Testbed knob is automatically
    a legal scenario extra, held to the JSON kind of its default, without
    touching the validator.  Parameters defaulting to ``None`` take objects
    (a scheduler factory, a ``GptpConfig``) no document can spell.
    """
    params = inspect.signature(Testbed.__init__).parameters
    return {
        name: param.default for name, param in params.items()
        if name not in _EXPLICIT_TESTBED_KWARGS and param.default is not None
    }


def known_extra_keys() -> frozenset:
    """Extra scenario keys accepted because ``Testbed.__init__`` takes them."""
    return frozenset(_extra_defaults())


def _suggest(key: str, candidates) -> str:
    matches = difflib.get_close_matches(key, sorted(candidates), n=1)
    return f" (did you mean {matches[0]!r}?)" if matches else ""


def _check_type(problems: List[str], path: str, value: Any, kinds,
                label: str) -> None:
    # bool is an int subclass; reject it wherever a number is expected.
    if isinstance(value, bool) and bool not in (
        kinds if isinstance(kinds, tuple) else (kinds,)
    ):
        problems.append(f"{path}: expected {label}, got bool {value!r}")
    elif not isinstance(value, kinds):
        problems.append(
            f"{path}: expected {label}, got {type(value).__name__} {value!r}"
        )


def _check_extra(problems: List[str], key: str, value: Any,
                 default: Any) -> None:
    """Hold an extra to the kind of the Testbed default it overrides."""
    if isinstance(default, bool):
        _check_type(problems, key, value, bool, "a boolean")
    elif isinstance(default, int):
        _check_type(problems, key, value, int, "an integer")
    elif isinstance(default, float):
        _check_type(problems, key, value, (int, float), "a number")
    elif isinstance(default, str):
        _check_type(problems, key, value, str, "a string")
    elif isinstance(default, tuple) and not (
        isinstance(value, (list, tuple))
        and len(value) == len(default)
        and all(type(item) is int for item in value)
    ):
        problems.append(
            f"{key}: expected a list of {len(default)} integers, "
            f"got {value!r}"
        )


def validate_scenario_dict(data: Mapping[str, Any]) -> List[str]:
    """Every problem a scenario document has, as ``"path: message"`` strings.

    Checks unknown keys (with nearest-key suggestions) and value types at
    the top level, inside ``topology`` (against the selected builder's
    signature), inside ``flows``, and inside an explicit ``config`` object.
    Returns an empty list for a valid document; never raises.
    """
    problems: List[str] = []
    if not isinstance(data, Mapping):
        return [f"$: expected an object, got {type(data).__name__}"]
    extras = _extra_defaults()
    known_top = _KNOWN_TOP_KEYS | set(extras)
    for key in sorted(set(data) - known_top):
        if key in _REMOVED_TOP_KEYS:
            problems.append(f"{key}: {_REMOVED_TOP_KEYS[key]}")
        else:
            problems.append(
                f"{key}: unknown scenario key{_suggest(key, known_top)}"
            )
    for key in sorted(set(data) & set(extras)):
        _check_extra(problems, key, data[key], extras[key])
    for key in ("name", "topology", "flows"):
        if key not in data:
            problems.append(f"{key}: required key is missing")

    if "name" in data:
        _check_type(problems, "name", data["name"], str, "a string")
    for key in ("slot_us", "duration_ms"):
        if key in data:
            _check_type(problems, key, data[key], (int, float), "a number")
    if "seed" in data:
        _check_type(problems, "seed", data["seed"], int, "an integer")
    if "use_itp" in data:
        _check_type(problems, "use_itp", data["use_itp"], bool, "a boolean")
    if "gate_mechanism" in data and data["gate_mechanism"] not in ("cqf", "qbv"):
        problems.append(
            f"gate_mechanism: expected 'cqf' or 'qbv', "
            f"got {data['gate_mechanism']!r}"
        )
    if "injection_phase" in data and data["injection_phase"] not in (
        "planned", "uniform"
    ):
        problems.append(
            f"injection_phase: expected 'planned' or 'uniform', "
            f"got {data['injection_phase']!r}"
        )
    if "slo" in data and data["slo"] is not None:
        _check_type(problems, "slo", data["slo"], Mapping, "an object")
    if "faults" in data and data["faults"] is not None:
        problems.extend(validate_faults_dict(data["faults"]))
    if "sched" in data and data["sched"] is not None:
        from repro.sched import validate_sched_dict

        problems.extend(validate_sched_dict(data["sched"]))

    topology = data.get("topology")
    if topology is not None:
        if not isinstance(topology, Mapping):
            _check_type(problems, "topology", topology, Mapping, "an object")
        else:
            kind = topology.get("kind")
            if kind not in _TOPOLOGY_BUILDERS:
                problems.append(
                    f"topology.kind: expected one of "
                    f"{sorted(_TOPOLOGY_BUILDERS)}, got {kind!r}"
                )
            else:
                builder_params = set(
                    inspect.signature(_TOPOLOGY_BUILDERS[kind]).parameters
                )
                for key in sorted(set(topology) - builder_params - {"kind"}):
                    problems.append(
                        f"topology.{key}: unknown parameter for "
                        f"{kind!r} topology{_suggest(key, builder_params)}"
                    )

    flows = data.get("flows")
    if flows is not None:
        if not isinstance(flows, Mapping):
            _check_type(problems, "flows", flows, Mapping, "an object")
        else:
            for key in sorted(set(flows) - _KNOWN_FLOW_KEYS):
                problems.append(
                    f"flows.{key}: unknown flow parameter"
                    f"{_suggest(key, _KNOWN_FLOW_KEYS)}"
                )
            for key in ("ts_count", "size_bytes"):
                if key in flows:
                    _check_type(problems, f"flows.{key}", flows[key], int,
                                "an integer")
            for key in ("period_us", "rc_mbps", "be_mbps"):
                if key in flows:
                    _check_type(problems, f"flows.{key}", flows[key],
                                (int, float), "a number")
            if "groups" in flows:
                groups = flows["groups"]
                overlap = sorted(set(flows) & _KNOWN_GROUP_KEYS)
                if overlap:
                    problems.append(
                        f"flows.groups: cannot combine with "
                        f"{overlap} -- groups replace the uniform TS set"
                    )
                if not isinstance(groups, list):
                    _check_type(problems, "flows.groups", groups, list,
                                "a list")
                elif not groups:
                    problems.append("flows.groups: needs at least one group")
                else:
                    for i, group in enumerate(groups):
                        if not isinstance(group, Mapping):
                            _check_type(problems, f"flows.groups[{i}]",
                                        group, Mapping, "an object")
                            continue
                        for key in sorted(set(group) - _KNOWN_GROUP_KEYS):
                            problems.append(
                                f"flows.groups[{i}].{key}: unknown group "
                                f"parameter{_suggest(key, _KNOWN_GROUP_KEYS)}"
                            )
                        for key in ("ts_count", "size_bytes"):
                            if key in group:
                                _check_type(
                                    problems, f"flows.groups[{i}].{key}",
                                    group[key], int, "an integer")
                        if "period_us" in group:
                            _check_type(
                                problems, f"flows.groups[{i}].period_us",
                                group["period_us"], (int, float), "a number")

    config = data.get("config", "derive")
    if isinstance(config, Mapping):
        known_config = set(SwitchConfig.__dataclass_fields__)
        for key in sorted(set(config) - known_config):
            problems.append(
                f"config.{key}: unknown SwitchConfig field"
                f"{_suggest(key, known_config)}"
            )
    elif config != "derive":
        problems.append(
            f"config: expected 'derive' or an object, got {config!r}"
        )
    return problems


@dataclass
class ScenarioSpec:
    """One experiment, fully described."""

    name: str
    topology: Dict[str, Any]
    flows: Dict[str, Any]
    config: Union[str, Dict[str, Any]] = "derive"
    slot_us: float = 62.5
    duration_ms: float = 40.0
    seed: int = 0
    gate_mechanism: str = "cqf"
    use_itp: bool = True
    injection_phase: str = "planned"
    slo: Optional[Dict[str, Any]] = None  # SLO policy stanza (see obs.slo)
    faults: Optional[Dict[str, Any]] = None  # fault plan (see repro.faults)
    sched: Optional[Dict[str, Any]] = None  # scheduling policy (repro.sched)
    rc_mbps: Optional[int] = None  # legacy alias; prefer flows.rc_mbps
    extras: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------- parsing

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], strict: bool = True
    ) -> "ScenarioSpec":
        """Parse a scenario document.

        With ``strict`` (the default) the document is validated first:
        unknown keys and wrong-typed values raise one
        :class:`~repro.core.errors.SpecValidationError` listing every
        offending path (with a nearest-key suggestion where one exists).
        ``strict=False`` restores the historical permissive behaviour --
        unknown keys land in :attr:`extras` and fail only if the Testbed
        rejects them at build time.
        """
        if strict:
            problems = validate_scenario_dict(data)
            if problems:
                raise SpecValidationError(
                    f"scenario {data.get('name', '?')!r}"
                    if isinstance(data, Mapping) else "scenario",
                    problems,
                )
        payload = dict(data)
        extras = {
            k: payload.pop(k) for k in list(payload) if k not in _KNOWN_TOP_KEYS
        }
        missing = {"name", "topology", "flows"} - set(payload)
        if missing:
            raise ConfigurationError(
                f"scenario is missing required keys: {sorted(missing)}"
            )
        return cls(extras=extras, **payload)

    @classmethod
    def from_json(cls, text: str, strict: bool = True) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text), strict=strict)

    @classmethod
    def from_file(
        cls, path: Union[str, Path], strict: bool = True
    ) -> "ScenarioSpec":
        return cls.from_json(Path(path).read_text(), strict=strict)

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "name": self.name,
            "topology": self.topology,
            "flows": self.flows,
            "config": self.config,
            "slot_us": self.slot_us,
            "duration_ms": self.duration_ms,
            "seed": self.seed,
            "gate_mechanism": self.gate_mechanism,
            "use_itp": self.use_itp,
            "injection_phase": self.injection_phase,
        }
        if self.slo is not None:
            data["slo"] = self.slo
        if self.faults is not None:
            data["faults"] = self.faults
        if self.sched is not None:
            data["sched"] = self.sched
        data.update(self.extras)
        return data

    # ------------------------------------------------------------ building

    @property
    def slot_ns(self) -> int:
        return us(self.slot_us)

    @property
    def duration_ns(self) -> int:
        return us(self.duration_ms * 1000)

    def build_topology(self) -> TopologySpec:
        params = dict(self.topology)
        kind = params.pop("kind", None)
        builder = _TOPOLOGY_BUILDERS.get(kind)
        if builder is None:
            raise ConfigurationError(
                f"unknown topology kind {kind!r}; expected one of "
                f"{sorted(_TOPOLOGY_BUILDERS)}"
            )
        return builder(**params)

    def build_flows(self) -> FlowSet:
        params = dict(self.flows)
        talkers = self.topology.get("talkers", ["talker0"])
        listener = self.topology.get("listener", "listener")
        groups = params.pop("groups", None)
        if groups is not None:
            # Heterogeneous TS set: one production-cell batch per group,
            # flow ids partitioned in blocks of 1000 per group.
            flow_set = None
            for i, group in enumerate(groups):
                batch = production_cell_flows(
                    talkers,
                    listener,
                    flow_count=group.get("ts_count", 1),
                    period_ns=us(group.get("period_us", 10_000)),
                    size_bytes=group.get("size_bytes", 64),
                    first_flow_id=i * 1000,
                )
                if flow_set is None:
                    flow_set = batch
                else:
                    for flow in batch:
                        flow_set.add(flow)
        else:
            flow_set = production_cell_flows(
                talkers,
                listener,
                flow_count=params.pop("ts_count", 64),
                period_ns=us(params.pop("period_us", 10_000)),
                size_bytes=params.pop("size_bytes", 64),
            )
        rc = params.pop("rc_mbps", 0)
        be = params.pop("be_mbps", 0)
        if rc or be:
            for flow in background_flows(
                talkers, listener, mbps(rc), mbps(be)
            ):
                flow_set.add(flow)
        if params:
            raise ConfigurationError(
                f"unknown flow parameters: {sorted(params)}"
            )
        return flow_set

    def build_config(
        self, topology: TopologySpec, flows: FlowSet
    ) -> SwitchConfig:
        if self.config == "derive":
            return derive_config(
                topology, flows, self.slot_ns, name=self.name,
                gate_mechanism=self.gate_mechanism,
                # FRER member streams double the per-flow table demand
                replication_factor=2 if self.extras.get("frer_ts") else 1,
                sched=self.build_sched_policy(),
            ).config
        if isinstance(self.config, Mapping):
            return SwitchConfig.from_dict(
                {"name": self.name, **self.config}
            )
        raise ConfigurationError(
            f"config must be 'derive' or an object, got {self.config!r}"
        )

    def build_slo_policy(self) -> Optional[SloPolicy]:
        """The parsed ``"slo"`` stanza, or ``None`` when absent."""
        if self.slo is None:
            return None
        return SloPolicy.from_dict(self.slo)

    def build_fault_plan(self) -> Optional[FaultPlan]:
        """The parsed ``"faults"`` stanza, or ``None`` when absent."""
        if self.faults is None:
            return None
        return FaultPlan.from_dict(self.faults)

    def build_sched_policy(self):
        """The parsed ``"sched"`` stanza, or ``None`` when absent.

        ``None`` lets downstream consumers apply their historic defaults
        (greedy ITP when ``use_itp`` is set, unplanned otherwise).
        """
        if self.sched is None:
            return None
        from repro.sched import SchedPolicy

        return SchedPolicy.from_dict(self.sched)

    def build_testbed(
        self,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        profiler: Optional[WallClockProfiler] = None,
        spans: Optional[FlowSpanRecorder] = None,
        slo_policy: Optional[SloPolicy] = None,
        headroom: Optional[HeadroomRecorder] = None,
    ) -> Testbed:
        """Instantiate the testbed, optionally with observability attached.

        *metrics*, *tracer*, *profiler*, *spans* and *headroom* thread a
        :class:`~repro.obs.metrics.MetricsRegistry`, an enabled
        :class:`~repro.sim.trace.Tracer`, a wall-clock profiler, a
        :class:`~repro.obs.flowspans.FlowSpanRecorder` and a
        :class:`~repro.obs.headroom.HeadroomRecorder` through every device
        -- the hooks behind ``repro simulate --metrics`` /
        ``--chrome-trace`` / ``--flow-spans`` / ``--headroom``.
        *slo_policy* overrides the spec's own ``"slo"`` stanza (used by
        ``repro slo``); by default the stanza, if present, is parsed and
        monitored.
        """
        topology = self.build_topology()
        flows = self.build_flows()
        config = self.build_config(topology, flows)
        return Testbed(
            topology,
            config,
            flows,
            slot_ns=self.slot_ns,
            seed=self.seed,
            gate_mechanism=self.gate_mechanism,
            use_itp=self.use_itp,
            sched=self.build_sched_policy(),
            injection_phase=self.injection_phase,
            tracer=tracer if tracer is not None else NULL_TRACER,
            metrics=metrics,
            profiler=profiler,
            spans=spans,
            slo_policy=(
                slo_policy if slo_policy is not None
                else self.build_slo_policy()
            ),
            fault_plan=self.build_fault_plan(),
            headroom=headroom,
            **self.extras,
        )

    def run(
        self,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        profiler: Optional[WallClockProfiler] = None,
        spans: Optional[FlowSpanRecorder] = None,
        slo_policy: Optional[SloPolicy] = None,
        headroom: Optional[HeadroomRecorder] = None,
    ) -> ScenarioResult:
        return self.build_testbed(
            metrics=metrics, tracer=tracer, profiler=profiler,
            spans=spans, slo_policy=slo_policy, headroom=headroom,
        ).run(duration_ns=self.duration_ns)
