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

import dataclasses
import inspect
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.core.config import CONFIG, SwitchConfig
from repro.core.errors import SpecValidationError
from repro.core.sizing import derive_config
from repro.core.units import GIGABIT, mbps, ms, us
from repro.cqf import gating
from repro.faults.plan import FAULTS, FaultPlan
from repro.obs.slo import SLO, SloPolicy
from repro.schema import ANY, BOOL, INT, NAME, NON_NEGATIVE, NUMBER, STR, \
    Field, ListOf, Obj, Range, Table, Tagged, Time, check, fields_table, \
    load_json
from repro.sched.policy import SCHED, SchedPolicy
from repro.traffic.flows import FlowSet
from repro.traffic.iec60802 import TS_SIZE_CHOICES, background_flows, \
    production_cell_flows
from .program import USABLE_VIDS
from .testbed import RunPlan, ScenarioResult, Testbed
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

#: Most switches a topology may ask for: every switch is a simulated
#: device, so a typo (``10**9``) must not reach a builder.
MAX_SWITCHES = 1024

#: Every builder parameter; a count's lower bound is its builder's minimum.
_TOPOLOGY_PARAMS = {f.name: f for f in (
    Field("switch_count", INT, f"switches, at most {MAX_SWITCHES}"),
    Field("chain_len", INT, "switches per path, the shared head included"),
    Field("child_count", INT, "leaf switches around the core"),
    Field("talkers", ListOf(Field("talker", NAME)), "talker host names",
          bounds=Range(1), message="needs at least one talker"),
    Field("listener", NAME, "the listener (analyzer) host name"),
    Field("talker_switch_index", INT, "the talkers' switch",
          bounds=NON_NEGATIVE),
    Field("listener_child_index", INT, "the listener's leaf",
          bounds=NON_NEGATIVE),
)}


def _topology_table(kind: str, fewest: int) -> Table:
    """*kind*'s builder parameters and defaults, >= *fewest* switches; an
    attachment index must name one of them."""
    table_fields = []
    builder = _TOPOLOGY_BUILDERS[kind]
    for param in inspect.signature(builder).parameters.values():
        f = dataclasses.replace(_TOPOLOGY_PARAMS[param.name],
                                default=param.default)
        if f.kind is INT and f.bounds is None:
            count = f
            f = dataclasses.replace(f, bounds=Range(fewest, MAX_SWITCHES))
        table_fields.append(f)

    indexes = [f.name for f in table_fields if f.name.endswith("_index")]

    def index_in_range(data: Mapping[str, Any], path: str) -> List[str]:
        switches = data.get(count.name, count.default)
        return [f"{path}.{name}: must be < {count.name} ({switches}), got "
                f"{data[name]}" for name in indexes
                if data.get(name, 0) >= switches]

    return Table(tuple(table_fields),
                 rules=(index_in_range,) if indexes else (),
                 unknown=f"unknown parameter for {kind!r} topology{{hint}}")


_TS_COUNT = Field("ts_count", INT, "TS flows, one VLAN id each", 64,
                  bounds=Range(0, USABLE_VIDS))
_SIZE = Field("size_bytes", INT, "TS frame size (the IEC 60802 profiles)",
              64, choices=TS_SIZE_CHOICES)
_PERIOD = Field("period", Time(("us",), positive=True), "TS period", 10_000)

#: One ``flows.groups[i]`` entry: a production-cell batch of TS flows.
_GROUP = Table((dataclasses.replace(_TS_COUNT, default=1), _SIZE, _PERIOD),
               unknown="unknown group parameter{hint}")


def _groups_replace_uniform(data: Mapping[str, Any], path: str) -> List[str]:
    overlap = sorted(set(data) & {"ts_count", "size_bytes", "period_us"})
    if "groups" in data and overlap:
        return [f"{path}.groups: cannot combine with {overlap} -- groups "
                f"replace the uniform TS set"]
    return []


_FLOWS = Table((
    _TS_COUNT, _SIZE, _PERIOD,
    Field("rc_mbps", NUMBER, "total RC load, Mb/s", 0, bounds=NON_NEGATIVE),
    Field("be_mbps", NUMBER, "total BE load, Mb/s", 0, bounds=NON_NEGATIVE),
    Field("groups", ListOf(Field("group", Obj(_GROUP))),
          "TS batches instead of the uniform TS set", bounds=Range(1),
          message="needs at least one group"),
), unknown="unknown flow parameter{hint}", rules=(_groups_replace_uniform,))


#: RunPlan fields the spec threads itself, or that take objects no
#: document can spell (``templates``, and those defaulting to ``None``);
#: every other field is a legal pass-through "extra" held to the kind of
#: its default.
_NOT_EXTRA = frozenset({
    "topology", "config", "flows", "slot_ns", "seed", "discipline",
    "injection_phase", "sched", "templates",
}) | {f.name for f in fields(RunPlan) if f.default is None}
_EXTRAS = fields_table(RunPlan, exclude=_NOT_EXTRA)
_RUN = {f.name: f for f in fields_table(RunPlan).fields}


def _vid_budget(data: Mapping[str, Any], path: str) -> List[str]:
    """TS flows (doubled by FRER replicas) each take one VLAN id."""
    groups = data["flows"].get("groups")
    ts_count = sum(group.get("ts_count", 1) for group in groups) if groups \
        else data["flows"].get("ts_count", 64)
    vids = ts_count * (2 if data.get("frer_ts") else 1)
    return [f"flows.{'groups' if groups else 'ts_count'}: {ts_count} TS "
            f"flows need {vids} VLAN ids, more than the {USABLE_VIDS} "
            f"usable"] if vids > USABLE_VIDS else []


def _one_discipline(data: Mapping[str, Any], path: str) -> List[str]:
    """``gate_mechanism`` and ``sched.shaper`` name one gating discipline
    (:data:`repro.cqf.gating.BY_DOCUMENT`), one that carries ``frer_ts``."""
    mechanism = data.get("gate_mechanism", "cqf")
    shaper = (data.get("sched") or {}).get("shaper", "cqf")
    discipline = gating.BY_DOCUMENT.get((mechanism, shaper))
    if discipline is None:
        return [f"gate_mechanism: {mechanism!r} does not run with "
                f"sched.shaper {shaper!r}"]
    if data.get("frer_ts") and not discipline.frer:
        return [f"frer_ts: FRER replicas run over 'cqf' gating only, not "
                f"{discipline.name!r}"]
    return []


#: Topology kinds that attach the listener twice, once per FRER replica.
_FRER_KINDS = ("dual_path", "frer_ring")


def _frer_two_paths(data: Mapping[str, Any], path: str) -> List[str]:
    """FRER replicas take two disjoint paths, so the listener must be
    attached twice; on any other layout the build would refuse the run."""
    kind = data["topology"]["kind"]
    if data.get("frer_ts") and kind not in _FRER_KINDS:
        return [f"frer_ts: FRER replicas need two paths to the listener; "
                f"topology {kind!r} has one (use "
                f"{' or '.join(map(repr, _FRER_KINDS))})"]
    return []


#: The scenario document.
SCENARIO = Table(
    (
        Field("name", STR, "the run's name", required=True),
        Field("slot", Time(("us",), positive=True), "CQF slot length", 62.5),
        Field("duration", Time(("ms",), positive=True), "traffic time", 40),
        Field("seed", INT, "seeds every stochastic choice", 0),
        Field("use_itp", BOOL, "`false`: run the unplanned ablation", True),
        Field("gate_mechanism", ANY, "gate control", "cqf",
              choices=gating.GATE_MECHANISMS,
              message="expected 'cqf' or 'qbv', got {value!r}"),
        dataclasses.replace(_RUN["injection_phase"], kind=ANY, message=(
            "expected 'planned' or 'uniform', got {value!r}")),
        Field("slo", Obj(SLO, also=(None,)), "SLO bounds checked per flow"),
        Field("faults", Obj(FAULTS, also=(None,)), "timed fault events"),
        Field("sched", Obj(SCHED, also=(None,)), "the scheduling policy"),
        Field("topology", Tagged("kind", {
            kind: _topology_table(kind, fewest) for kind, fewest in (
                ("dual_path", 2), ("frer_ring", 3), ("linear", 2),
                ("ring", 1), ("star", 2),
            )
        }), "the network layout", required=True),
        Field("flows", Obj(_FLOWS), "the flow set", required=True),
        Field("config", Obj(CONFIG, also=("derive",)),
              '`"derive"` applies the sizing guidelines; an object gives '
              "SwitchConfig fields", "derive",
              mismatch="expected 'derive' or an object, got {value!r}"),
        *_EXTRAS.fields,
    ),
    unknown="unknown scenario key{hint}",
    # A key that is no longer accepted, reported in place of a
    # nearest-key hint that would point at an unrelated stanza.
    retired={"shard": 'sharded runs were removed; see docs/performance.md '
                      '"Why there is no sharded run"'},
    rules=(_vid_budget, _one_discipline, _frer_two_paths),
)

#: The keys that are ScenarioSpec fields; the rest are RunPlan extras.
_KNOWN_TOP_KEYS = frozenset(SCENARIO.index).difference(_EXTRAS.index)


def known_extra_keys() -> frozenset:
    """Extra scenario keys accepted because :class:`RunPlan` has them."""
    return frozenset(_EXTRAS.index)


def validate_scenario_dict(data: Mapping[str, Any]) -> List[str]:
    """Every problem a scenario document has, as ``"path: message"`` strings
    (see :data:`SCENARIO`); an empty list for a valid document."""
    return check(SCENARIO, data)


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
    extras: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------- parsing

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Parse a scenario document, validated against :data:`SCENARIO`.

        Unknown keys and wrong-typed values raise one
        :class:`~repro.core.errors.SpecValidationError` listing every
        offending path (with a nearest-key suggestion where one exists);
        the keys that are not spec fields become :attr:`extras`.
        """
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
        return cls(extras=extras, **payload)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(load_json(text, "scenario"))

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "ScenarioSpec":
        return cls.from_json(Path(path).read_text())

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
        return ms(self.duration_ms)

    @property
    def rate_bps(self) -> int:
        """The run's line rate: the ``rate_bps`` extra, else 1 Gb/s."""
        return self.extras.get("rate_bps", GIGABIT)

    def build_topology(self) -> TopologySpec:
        params = dict(self.topology)
        return _TOPOLOGY_BUILDERS[params.pop("kind")](**params)

    def build_flows(self) -> FlowSet:
        params = self.flows
        talkers = self.topology.get("talkers", ["talker0"])
        listener = self.topology.get("listener", "listener")
        groups = params.get("groups")
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
                flow_count=params.get("ts_count", 64),
                period_ns=us(params.get("period_us", 10_000)),
                size_bytes=params.get("size_bytes", 64),
            )
        rc, be = params.get("rc_mbps", 0), params.get("be_mbps", 0)
        if rc or be:
            for flow in background_flows(
                talkers, listener, mbps(rc), mbps(be)
            ):
                flow_set.add(flow)
        return flow_set

    def build_discipline(self) -> gating.Discipline:
        """The gating discipline ``gate_mechanism``, ``sched.shaper`` and
        ``sched.slot2_us`` name: the one place the keys map to it."""
        sched = self.sched or {}
        return gating.from_document(self.gate_mechanism,
                                    sched.get("shaper", "cqf"),
                                    sched.get("slot2_us"))

    def build_config(self, topology: TopologySpec, flows: FlowSet,
                     plan=None) -> SwitchConfig:
        """The explicit config, or one derived from *plan* (else planned
        under the sizing policy at the run's line rate)."""
        if self.config == "derive":
            return derive_config(
                topology, flows, self.slot_ns, name=self.name,
                discipline=self.build_discipline(),
                rate_bps=self.rate_bps,
                # FRER member streams double the per-flow table demand
                replication_factor=2 if self.extras.get("frer_ts") else 1,
                sched=self.build_sched_policy(),
                plan=plan,
            ).config
        return SwitchConfig.from_dict({"name": self.name, **self.config})

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

        ``None`` lets sizing apply its default, greedy ITP -- even for a
        ``use_itp: false`` document, whose run alone goes unplanned (see
        :meth:`build_run_policy`).
        """
        if self.sched is None:
            return None
        return SchedPolicy.from_dict(self.sched)

    def build_run_policy(self):
        """The policy the run plans with: the ``"sched"`` stanza, else
        greedy ITP, or the unplanned ablation when ``use_itp`` is off."""
        return self.build_sched_policy() or SchedPolicy(
            backend="greedy" if self.use_itp else "unplanned"
        )

    def build_run_plan(self) -> RunPlan:
        """The :class:`RunPlan` ``repro simulate`` and its ``--check`` use.

        The run policy plans once, at the run's line rate, and a derived config
        is sized from that same plan -- unless a ``use_itp: false``
        document without a ``"sched"`` stanza sizes by greedy ITP but runs
        unplanned (the DESIGN.md ablation).
        """
        from repro.sched import plan_flows

        topology = self.build_topology()
        flows = self.build_flows()
        policy = self.build_run_policy()
        discipline = self.build_discipline()
        plan = None
        if flows.ts_flows:
            plan = plan_flows(
                list(flows), self.slot_ns, self.rate_bps, policy=policy,
                discipline=discipline,
            )
        config = self.build_config(
            topology, flows,
            plan=plan if self.sched is not None or self.use_itp else None,
        )
        return RunPlan(
            topology, config, flows, slot_ns=self.slot_ns, seed=self.seed,
            discipline=discipline, sched=policy,
            injection_phase=self.injection_phase, sched_plan=plan,
            **self.extras,
        )

    def build_testbed(
        self, slo_policy: Optional[SloPolicy] = None, **observers
    ) -> Testbed:
        """The testbed of :meth:`build_run_plan` with *observers*, the
        :class:`Testbed` keywords behind ``repro simulate --metrics`` etc.;
        *slo_policy* overrides the ``"slo"`` stanza."""
        return Testbed(
            self.build_run_plan(),
            slo_policy=slo_policy or self.build_slo_policy(),
            fault_plan=self.build_fault_plan(),
            **observers,
        )

    def run(self, **observers) -> ScenarioResult:
        """Build with *observers* (see :meth:`build_testbed`) and run."""
        return self.build_testbed(**observers).run(
            duration_ns=self.duration_ns
        )
