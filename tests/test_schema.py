"""The document schema: one time kind, declared bounds, one rule per range.

``repro.schema`` checks every document through field tables; these tests
hold the rules that used to escape as raw exceptions or reach the builders
(sub-nanosecond times, unbounded counts), the constructors that read the
same range metadata, and every shipped example against strict validation.
"""

import json
from pathlib import Path

import pytest

from repro.campaign import SweepSpec
from repro.core.config import SwitchConfig
from repro.core.errors import ConfigurationError, SpecValidationError
from repro.faults.plan import validate_faults_dict
from repro.network import scenario as scenario_module
from repro.network.scenario import ScenarioSpec
from repro.network.testbed import RunPlan
from repro.network.topology import ring_topology
from repro.obs.slo import SloPolicy
from repro.traffic.flows import FlowSet

EXAMPLES = Path(__file__).parents[1] / "examples"


def _doc(**overrides):
    data = {
        "name": "schema",
        "topology": {"kind": "ring", "switch_count": 2,
                     "talkers": ["talker0"], "listener": "listener"},
        "flows": {"ts_count": 8},
    }
    data.update(overrides)
    return data


def _problems(data):
    with pytest.raises(SpecValidationError) as info:
        ScenarioSpec.from_dict(data)
    return info.value.problems


class TestSubNanosecondTimes:
    def test_fault_time_is_a_problem_not_a_value_error(self):
        assert validate_faults_dict({"events": [
            {"kind": "link_down", "link": "sw0.p0", "at_us": 0.0005},
        ]}) == [
            "faults.events[0].at_us: 0.0005 is not a whole number of "
            "nanoseconds"
        ]

    @pytest.mark.parametrize("latency_us", [1.0004, 0.0005])
    def test_slo_time_is_not_rounded(self, latency_us):
        with pytest.raises(SpecValidationError) as info:
            SloPolicy.from_dict({"class": {"TS": {"latency_us": latency_us}}})
        assert info.value.problems == [
            f"slo.class.TS.latency_us: {latency_us!r} is not a whole number "
            f"of nanoseconds"
        ]

    def test_slot_and_period(self):
        assert _problems(_doc(slot_us=62.5004)) == [
            "slot_us: 62.5004 is not a whole number of nanoseconds"
        ]
        assert _problems(_doc(flows={"period_us": 10000.0004})) == [
            "flows.period_us: 10000.0004 is not a whole number of "
            "nanoseconds"
        ]

    def test_whole_nanoseconds_in_either_unit_are_read_exactly(self):
        policy = SloPolicy.from_dict({"default": {"latency_us": 1.5},
                                      "class": {"TS": {"jitter_ns": 7}}})
        assert policy.default.latency_ns == 1500
        assert next(iter(policy.per_class.values())).jitter_ns == 7


class TestBoundedParameters:
    def test_huge_switch_count_is_refused_before_any_builder_runs(
        self, monkeypatch
    ):
        calls = []
        monkeypatch.setitem(scenario_module._TOPOLOGY_BUILDERS, "ring",
                            lambda **params: calls.append(params))
        topology = {"kind": "ring", "switch_count": 10**9,
                    "talkers": ["talker0"], "listener": "listener"}
        assert _problems(_doc(topology=topology)) == [
            "topology.switch_count: must be in [1, 1024], got 1000000000"
        ]
        assert calls == []

    def test_attachment_index_names_one_of_the_switches(self):
        topology = {"kind": "ring", "switch_count": 2,
                    "talker_switch_index": 2}
        assert _problems(_doc(topology=topology)) == [
            "topology.talker_switch_index: must be < switch_count (2), got 2"
        ]

    def test_ts_count_takes_its_maximum_from_the_vlan_ids(self):
        assert _problems(_doc(flows={"ts_count": 5000})) == [
            "flows.ts_count: must be in [0, 4094], got 5000"
        ]
        groups = [{"ts_count": 2500}, {"ts_count": 2500}]
        assert _problems(_doc(flows={"groups": groups})) == [
            "flows.groups: 5000 TS flows need 5000 VLAN ids, more than the "
            "4094 usable"
        ]

    def test_frer_replicas_double_the_vlan_demand(self):
        assert _problems(_doc(
            topology={"kind": "dual_path"}, flows={"ts_count": 3000},
            frer_ts=True,
        )) == [
            "flows.ts_count: 3000 TS flows need 6000 VLAN ids, more than "
            "the 4094 usable"
        ]

    @pytest.mark.parametrize("kind", ["linear", "ring", "star"])
    def test_frer_needs_a_listener_attached_twice(self, kind):
        assert _problems(_doc(topology={"kind": kind}, frer_ts=True)) == [
            f"frer_ts: FRER replicas need two paths to the listener; "
            f"topology {kind!r} has one (use 'dual_path' or 'frer_ring')"
        ]

    @pytest.mark.parametrize("kind", ["dual_path", "frer_ring"])
    def test_frer_topologies_pass(self, kind):
        ScenarioSpec.from_dict(_doc(topology={"kind": kind}, frer_ts=True))

    def test_frer_rule_is_silent_on_an_unknown_topology_kind(self):
        problems = _problems(_doc(topology={"kind": "mesh"}, frer_ts=True))
        assert problems and not any(
            p.startswith("frer_ts:") for p in problems
        )


class TestOneRulePerRange:
    def test_config_ranges_are_the_constructors(self):
        with pytest.raises(ConfigurationError,
                           match="queue_num must be positive, got 0"):
            SwitchConfig(queue_num=0).validate()
        assert _problems(_doc(config={"queue_num": 0})) == [
            "config.queue_num: must be positive, got 0"
        ]

    def test_config_cross_field_rule_is_reported_under_config(self):
        assert _problems(_doc(config={"queue_num": 2})) == [
            "config: cbs_map_size (3) cannot exceed queue_num (2) -- each "
            "CBS map entry binds one queue to a shaper"
        ]

    def test_run_plan_ranges_are_the_extras(self):
        with pytest.raises(ConfigurationError,
                           match="gptp_warmup_ns must be >= 0, got -1"):
            RunPlan(ring_topology(2), SwitchConfig(), FlowSet(),
                    gptp_warmup_ns=-1)
        assert _problems(_doc(gptp_warmup_ns=-1)) == [
            "gptp_warmup_ns: must be >= 0, got -1"
        ]


def test_unknown_sweep_key_gets_the_nearest_key_hint():
    with pytest.raises(SpecValidationError) as info:
        SweepSpec.from_dict({"name": "s", "base": _doc(), "gird": {}})
    assert info.value.problems == [
        "gird: unknown sweep key (did you mean 'grid'?)"
    ]


def _example_documents():
    for path in sorted(EXAMPLES.glob("*.json")):
        data = json.loads(path.read_text())
        if isinstance(data, dict) and ("base" in data or "topology" in data):
            yield path.name


@pytest.mark.parametrize("name", list(_example_documents()))
def test_shipped_example_validates_strictly(name):
    data = json.loads((EXAMPLES / name).read_text())
    if "base" in data:
        assert SweepSpec.from_dict(data).expand()
    else:
        ScenarioSpec.from_dict(data)
