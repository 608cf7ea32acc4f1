"""The ``"sched"`` stanza: parsing, strict validation, scenario wiring."""

import pytest

from repro.core.errors import SpecValidationError
from repro.cqf.gating import MULTI_CQF, from_document
from repro.network.scenario import ScenarioSpec, validate_scenario_dict
from repro.sched import SchedPolicy, validate_sched_dict


def _scenario_doc(**sched):
    return {
        "name": "stanza",
        "topology": {"kind": "star", "talkers": ["talker0"],
                     "listener": "listener"},
        "flows": {"ts_count": 4, "period_us": 100, "size_bytes": 64},
        "config": "derive",
        "slot_us": 50,
        "duration_ms": 1,
        "sched": sched,
    }


class TestValidateSchedDict:
    def test_empty_stanza_valid(self):
        assert validate_sched_dict({}) == []

    def test_full_stanza_valid(self):
        assert validate_sched_dict({
            "backend": "anneal",
            "shaper": "multi_cqf",
            "objective": "max_admission",
            "utilization_limit": 0.4,
            "slot2_us": 100.0,
            "options": {"seed": 3, "iterations": 500},
        }) == []

    def test_problems_are_sched_prefixed(self):
        problems = validate_sched_dict({"backend": "cplex"})
        assert problems and all(p.startswith("sched.") for p in problems)

    def test_unknown_backend_suggests(self):
        (problem,) = validate_sched_dict({"backend": "exacty"})
        assert "exact" in problem

    def test_unknown_key_suggests(self):
        (problem,) = validate_sched_dict({"shapers": "cqf"})
        assert "shaper" in problem

    def test_option_types_checked(self):
        problems = validate_sched_dict(
            {"backend": "exact", "options": {"node_limit": "many"}}
        )
        assert any("node_limit" in p for p in problems)

    def test_utilization_limit_bounds(self):
        assert validate_sched_dict({"utilization_limit": 0.0})
        assert validate_sched_dict({"utilization_limit": 1.5})


class TestSchedPolicy:
    def test_defaults_match_historic_greedy(self):
        policy = SchedPolicy()
        assert policy.backend == "greedy"
        assert policy.utilization_limit == 0.5
        # the shaper belongs to the gating discipline, classic CQF by default
        assert not hasattr(policy, "shaper")

    def test_roundtrip(self):
        policy = SchedPolicy.from_dict({
            "backend": "exact", "shaper": "csqf",
            "options": {"node_limit": 1000},
        })
        assert SchedPolicy.from_dict(policy.to_dict()) == policy

    def test_bad_shaper_raises(self):
        with pytest.raises(SpecValidationError, match="sched.shaper"):
            SchedPolicy.from_dict({"shaper": "qbv"})

    def test_from_dict_raises_spec_validation_error(self):
        with pytest.raises(SpecValidationError, match="sched.backend"):
            SchedPolicy.from_dict({"backend": "cplex"})

    def test_slot2_defaults_to_double_slot(self):
        assert MULTI_CQF.slot2_ns(50_000) == 100_000
        assert from_document(
            shaper="multi_cqf", slot2_us=200.0
        ).slot2_ns(50_000) == 200_000


class TestScenarioStanza:
    def test_valid_stanza_accepted(self):
        doc = _scenario_doc(backend="exact")
        assert validate_scenario_dict(doc) == []
        spec = ScenarioSpec.from_dict(doc)
        assert spec.build_sched_policy().backend == "exact"

    def test_bad_stanza_rejected_strictly(self):
        doc = _scenario_doc(backend="cplex")
        problems = validate_scenario_dict(doc)
        assert any(p.startswith("sched.backend") for p in problems)
        with pytest.raises(SpecValidationError, match="sched.backend"):
            ScenarioSpec.from_dict(doc)

    def test_absent_stanza_keeps_historic_default(self):
        doc = _scenario_doc()
        del doc["sched"]
        spec = ScenarioSpec.from_dict(doc)
        assert spec.build_sched_policy() is None

    def test_stanza_survives_to_dict(self):
        doc = _scenario_doc(backend="anneal")
        assert ScenarioSpec.from_dict(doc).to_dict()["sched"] == {
            "backend": "anneal"
        }

    def test_groups_conflict_with_uniform_keys(self):
        doc = _scenario_doc()
        del doc["sched"]
        doc["flows"] = {
            "ts_count": 4,
            "groups": [{"ts_count": 2, "period_us": 100}],
        }
        problems = validate_scenario_dict(doc)
        assert any("flows.groups" in p for p in problems)

    def test_group_keys_validated(self):
        doc = _scenario_doc()
        del doc["sched"]
        doc["flows"] = {"groups": [{"ts_countt": 2}]}
        (problem,) = validate_scenario_dict(doc)
        assert "flows.groups[0].ts_countt" in problem

    def test_groups_build_heterogeneous_flow_set(self):
        doc = _scenario_doc()
        del doc["sched"]
        doc["flows"] = {"groups": [
            {"ts_count": 3, "period_us": 100, "size_bytes": 64},
            {"ts_count": 2, "period_us": 200, "size_bytes": 512},
        ]}
        flows = ScenarioSpec.from_dict(doc).build_flows()
        periods = sorted(f.period_ns for f in flows)
        assert periods == [100_000] * 3 + [200_000] * 2
        assert len({f.flow_id for f in flows}) == 5
