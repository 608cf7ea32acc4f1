"""Declarative scenario specifications."""

import json

import pytest

from repro.core.errors import ConfigurationError, SpecValidationError
from repro.network.scenario import ScenarioSpec


def _spec_dict(**overrides):
    data = {
        "name": "unit",
        "topology": {"kind": "ring", "switch_count": 2,
                     "talkers": ["talker0"], "listener": "listener"},
        "flows": {"ts_count": 8, "rc_mbps": 10, "be_mbps": 10},
        "config": "derive",
        "slot_us": 62.5,
        "duration_ms": 15,
    }
    data.update(overrides)
    return data


class TestParsing:
    def test_from_dict_roundtrip(self):
        spec = ScenarioSpec.from_dict(_spec_dict())
        restored = ScenarioSpec.from_dict(spec.to_dict())
        assert restored.name == "unit"
        assert restored.slot_us == 62.5

    def test_from_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(_spec_dict()))
        spec = ScenarioSpec.from_file(path)
        assert spec.topology["kind"] == "ring"

    def test_missing_required_keys(self):
        with pytest.raises(SpecValidationError,
                           match="- topology: required key is missing"):
            ScenarioSpec.from_dict({"name": "x"})

    def test_extras_forwarded(self):
        spec = ScenarioSpec.from_dict(
            _spec_dict(clock_drift_ppm=20, enable_gptp=True)
        )
        assert spec.extras == {"clock_drift_ppm": 20, "enable_gptp": True}


class TestBuilding:
    # The builders trust a validated document: each refusal below is the
    # schema's, at the offending path, before any builder runs.
    def test_unknown_topology_kind(self):
        with pytest.raises(SpecValidationError,
                           match=r"- topology\.kind: expected one of .*"
                                 r"got 'mesh'"):
            ScenarioSpec.from_dict(_spec_dict(topology={"kind": "mesh"}))

    def test_unknown_flow_parameter(self):
        with pytest.raises(SpecValidationError,
                           match=r"- flows\.bogus: unknown flow parameter"):
            ScenarioSpec.from_dict(_spec_dict(flows={"ts_count": 4,
                                                     "bogus": 1}))

    def test_derived_config(self):
        spec = ScenarioSpec.from_dict(_spec_dict())
        topology = spec.build_topology()
        flows = spec.build_flows()
        config = spec.build_config(topology, flows)
        assert config.port_num == 1
        assert config.unicast_size == len(flows)

    def test_explicit_config(self):
        explicit = {
            "port_num": 1, "unicast_size": 64, "multicast_size": 0,
            "class_size": 64, "meter_size": 64, "gate_size": 2,
            "queue_num": 8, "cbs_map_size": 3, "cbs_size": 3,
            "queue_depth": 8, "buffer_num": 64,
        }
        spec = ScenarioSpec.from_dict(_spec_dict(config=explicit))
        config = spec.build_config(spec.build_topology(), spec.build_flows())
        assert config.unicast_size == 64

    def test_invalid_config_value(self):
        with pytest.raises(SpecValidationError,
                           match="- config: expected 'derive' or an object, "
                                 "got 42"):
            ScenarioSpec.from_dict(_spec_dict(config=42))

    @pytest.mark.parametrize("overrides,backend", [
        ({}, "greedy"),
        ({"use_itp": False}, "unplanned"),
        ({"use_itp": False, "sched": {"backend": "exact"}}, "exact"),
    ])
    def test_use_itp_sizes_by_itp_and_runs_the_run_policy(
        self, overrides, backend
    ):
        # The DESIGN.md ablation: use_itp off still sizes by greedy ITP,
        # only the run goes unplanned; a sched stanza wins over the key.
        spec = ScenarioSpec.from_dict(_spec_dict(**overrides))
        planned = ScenarioSpec.from_dict(_spec_dict())
        testbed = spec.build_testbed()
        assert spec.build_run_policy().backend == backend
        assert testbed.sched.backend == backend
        assert testbed.base_config == planned.build_config(
            planned.build_topology(), planned.build_flows()
        )


class TestRunning:
    def test_run_end_to_end(self):
        result = ScenarioSpec.from_dict(_spec_dict()).run()
        assert result.ts_loss == 0.0
        assert result.analyzer.received() > 0

    def test_extras_reach_testbed(self):
        spec = ScenarioSpec.from_dict(_spec_dict(trunk_error_rate=0.2))
        result = spec.run()
        assert result.ts_loss > 0.0


class TestSloStanza:
    def test_slo_key_parses_and_round_trips(self):
        slo = {"class": {"TS": {"latency_us": 500}},
               "flows": {"0": {"latency_us": 50}}}
        spec = ScenarioSpec.from_dict(_spec_dict(slo=slo))
        assert spec.slo == slo
        assert "slo" not in spec.extras  # not splatted into Testbed
        assert ScenarioSpec.from_dict(spec.to_dict()).slo == slo

    def test_build_slo_policy(self):
        spec = ScenarioSpec.from_dict(
            _spec_dict(slo={"default": {"max_loss": 0.0}})
        )
        policy = spec.build_slo_policy()
        assert policy is not None
        assert policy.default.max_loss == 0.0
        assert ScenarioSpec.from_dict(_spec_dict()).build_slo_policy() is None

    def test_run_attaches_slo_report(self):
        spec = ScenarioSpec.from_dict(
            _spec_dict(slo={"class": {"TS": {"latency_us": 10000,
                                             "max_loss": 0.0}}})
        )
        result = spec.run()
        assert result.slo is not None
        assert result.slo.passed
        assert result.slo.monitored == 8

    def test_run_without_stanza_has_no_report(self):
        result = ScenarioSpec.from_dict(_spec_dict()).run()
        assert result.slo is None


class TestFrerScenario:
    def test_dual_path_frer_via_scenario_file(self):
        """FRER is reachable purely declaratively (topology kind +
        frer_ts extra)."""
        spec = ScenarioSpec.from_dict(
            {
                "name": "frer",
                "topology": {"kind": "dual_path", "chain_len": 3,
                             "talkers": ["talker0"],
                             "listener": "listener"},
                "flows": {"ts_count": 8},
                "config": "derive",
                "slot_us": 62.5,
                "duration_ms": 15,
                "frer_ts": True,
            }
        )
        testbed = spec.build_testbed()
        result = testbed.run(duration_ns=spec.duration_ns)
        assert result.ts_loss == 0.0
        eliminated = sum(
            e.duplicates_eliminated
            for e in testbed.frer_eliminators.values()
        )
        assert eliminated > 0


class TestStrictValidation:
    def test_unknown_top_key_suggests_nearest(self):
        with pytest.raises(SpecValidationError, match="duration_ms"):
            ScenarioSpec.from_dict(_spec_dict(duration_mss=5))

    def test_all_problems_reported_at_once(self):
        with pytest.raises(SpecValidationError) as excinfo:
            ScenarioSpec.from_dict(_spec_dict(
                slot_us="fast",
                seed=1.5,
                flows={"ts_cout": 4},
                topology={"kind": "mesh"},
            ))
        problems = excinfo.value.problems
        paths = {p.split(":")[0] for p in problems}
        assert {"slot_us", "seed", "flows.ts_cout", "topology.kind"} <= paths

    def test_flow_typo_suggestion(self):
        with pytest.raises(SpecValidationError, match="ts_count"):
            ScenarioSpec.from_dict(_spec_dict(flows={"ts_cout": 4}))

    def test_topology_params_checked_against_builder(self):
        with pytest.raises(SpecValidationError, match="switch_count"):
            ScenarioSpec.from_dict(_spec_dict(
                topology={"kind": "ring", "switch_cout": 2}
            ))

    def test_config_object_fields_checked(self):
        with pytest.raises(SpecValidationError, match="queue_depth"):
            ScenarioSpec.from_dict(_spec_dict(
                config={"queue_dept": 12}
            ))

    def test_bool_rejected_where_number_expected(self):
        with pytest.raises(SpecValidationError, match="slot_us"):
            ScenarioSpec.from_dict(_spec_dict(slot_us=True))

    def test_testbed_extras_remain_legal(self):
        spec = ScenarioSpec.from_dict(
            _spec_dict(clock_drift_ppm=20, trunk_error_rate=0.1)
        )
        assert spec.extras["clock_drift_ppm"] == 20

    @pytest.mark.parametrize("key,value", [
        ("clock_drift_ppm", "fast"),
        ("propagation_ns", "50"),
        ("propagation_ns", 50.5),
        ("enable_gptp", 1),
        ("gptp_warmup_ns", True),
        ("fastpath", "on"),  # a knob that no longer exists (as gate_events)
        ("ts_queue_pair", "7,6"),
        ("ts_queue_pair", [6, 7, 5]),
        ("ts_queue_pair", [6, True]),
        # objects no document can spell, and the knobs that no longer exist
        ("templates", "drr"),
        ("scheduler_factory", "drr"),
        ("gptp_config", {"sync_interval_ns": 1000}),
        ("gate_events", "flip"),
    ])
    def test_extras_are_held_to_the_testbed_defaults_kind(self, key, value):
        with pytest.raises(SpecValidationError, match=rf"- {key}: "):
            ScenarioSpec.from_dict(_spec_dict(**{key: value}))

    def test_well_typed_extras_build(self):
        spec = ScenarioSpec.from_dict(_spec_dict(
            clock_drift_ppm=20, ts_queue_pair=[6, 7], enable_gptp=False,
        ))
        assert spec.build_testbed().ts_queue_pair == [6, 7]

    def test_validate_scenario_dict_returns_paths(self):
        from repro.network.scenario import validate_scenario_dict

        problems = validate_scenario_dict(
            {"name": 7, "topology": {"kind": "ring"}, "flows": {}}
        )
        assert any(p.startswith("name:") for p in problems)

    def test_known_extra_keys_track_testbed_signature(self):
        from tests.schema_cases import known_extra_keys

        keys = known_extra_keys()
        assert "frer_ts" in keys and "trunk_error_rate" in keys
        assert "topology" not in keys and "metrics" not in keys

    def test_spec_validation_error_is_configuration_error(self):
        assert issubclass(SpecValidationError, ConfigurationError)


class TestFaultsStanza:
    def _faults(self):
        return {"events": [
            {"kind": "link_down", "link": "sw0.p0", "at_us": 5_000,
             "duration_us": 2_000},
        ]}

    def test_faults_key_parses_and_round_trips(self):
        spec = ScenarioSpec.from_dict(_spec_dict(faults=self._faults()))
        assert spec.faults == self._faults()
        assert "faults" not in spec.extras  # not splatted into Testbed
        assert ScenarioSpec.from_dict(spec.to_dict()).faults == self._faults()

    def test_build_fault_plan(self):
        spec = ScenarioSpec.from_dict(_spec_dict(faults=self._faults()))
        plan = spec.build_fault_plan()
        assert plan is not None and len(plan) == 1
        assert plan.events[0].kind == "link_down"
        assert ScenarioSpec.from_dict(_spec_dict()).build_fault_plan() is None

    def test_invalid_faults_rejected_strictly(self):
        bad = {"events": [{"kind": "link_dwn", "link": "x", "at_us": 1}]}
        with pytest.raises(SpecValidationError,
                           match="did you mean 'link_down'"):
            ScenarioSpec.from_dict(_spec_dict(faults=bad))

    def test_run_attaches_fault_report(self):
        spec = ScenarioSpec.from_dict(_spec_dict(faults=self._faults()))
        result = spec.run()
        assert result.faults is not None
        assert [e["kind"] for e in result.faults.timeline] == [
            "link_down", "link_down",   # applied, then auto-restored
        ]

    def test_run_without_stanza_has_no_report(self):
        result = ScenarioSpec.from_dict(_spec_dict()).run()
        assert result.faults is None

    def test_frer_ring_kind_available(self):
        spec = ScenarioSpec.from_dict(_spec_dict(
            topology={"kind": "frer_ring", "switch_count": 4,
                      "talkers": ["talker0"], "listener": "listener"},
        ))
        topo = spec.build_topology()
        assert len(topo.attachments) == 2
