"""Sweep specification expansion."""

import pytest

from repro.campaign.spec import PlannedRun, SweepSpec, derive_seed, set_path
from repro.core.errors import ConfigurationError, SpecValidationError


def _base(**overrides):
    data = {
        "name": "point",
        "topology": {"kind": "ring", "switch_count": 2,
                     "talkers": ["talker0"], "listener": "listener"},
        "flows": {"ts_count": 8},
        "config": "derive",
        "slot_us": 62.5,
        "duration_ms": 10,
        "seed": 0,
    }
    data.update(overrides)
    return data


def _sweep(**overrides):
    data = {"name": "unit-sweep", "base": _base()}
    data.update(overrides)
    return data


class TestParsing:
    def test_minimal_document(self):
        spec = SweepSpec.from_dict(_sweep())
        assert spec.name == "unit-sweep"
        assert spec.grid == {} and spec.points == [] and spec.seeds == 1

    def test_unknown_sweep_key_rejected(self):
        with pytest.raises(SpecValidationError, match="gird"):
            SweepSpec.from_dict(_sweep(gird={"slot_us": [1]}))

    def test_empty_grid_axis_rejected(self):
        with pytest.raises(SpecValidationError, match="grid.slot_us"):
            SweepSpec.from_dict(_sweep(grid={"slot_us": []}))

    def test_bad_seeds_rejected(self):
        with pytest.raises(SpecValidationError, match="seeds"):
            SweepSpec.from_dict(_sweep(seeds=0))

    def test_roundtrip(self):
        spec = SweepSpec.from_dict(
            _sweep(grid={"slot_us": [62.5, 125.0]}, seeds=2)
        )
        assert SweepSpec.from_dict(spec.to_dict()).grid == spec.grid


class TestExpansion:
    def test_grid_cross_product(self):
        spec = SweepSpec.from_dict(_sweep(grid={
            "flows.ts_count": [4, 8, 16],
            "slot_us": [62.5, 125.0],
        }))
        runs = spec.expand()
        assert len(runs) == 6
        assert [r.run_id for r in runs] == [
            f"unit-sweep:{i:04d}" for i in range(6)
        ]
        assert runs[0].scenario["flows"]["ts_count"] == 4
        assert runs[1].scenario["slot_us"] == 125.0

    def test_bare_base_is_one_run(self):
        assert len(SweepSpec.from_dict(_sweep()).expand()) == 1

    def test_list_points_appended(self):
        spec = SweepSpec.from_dict(_sweep(
            grid={"slot_us": [62.5]},
            list=[{"topology.switch_count": 3}],
        ))
        runs = spec.expand()
        assert len(runs) == 2
        assert runs[1].scenario["topology"]["switch_count"] == 3

    def test_seeds_replicate_with_distinct_derived_seeds(self):
        spec = SweepSpec.from_dict(_sweep(seeds=3))
        runs = spec.expand()
        seeds = [r.seed for r in runs]
        assert len(set(seeds)) == 3
        assert [r.replicate for r in runs] == [0, 1, 2]

    def test_expansion_is_deterministic(self):
        doc = _sweep(grid={"flows.ts_count": [4, 8]}, seeds=2)
        first = SweepSpec.from_dict(doc).expand()
        second = SweepSpec.from_dict(doc).expand()
        assert [r.seed for r in first] == [r.seed for r in second]
        assert [r.scenario for r in first] == [r.scenario for r in second]

    def test_explicit_seed_in_grid_wins_over_derivation(self):
        spec = SweepSpec.from_dict(_sweep(grid={"seed": [7, 8]}))
        assert [r.seed for r in spec.expand()] == [7, 8]
        assert [r.scenario["seed"] for r in spec.expand()] == [7, 8]

    def test_run_names_are_unique(self):
        spec = SweepSpec.from_dict(_sweep(grid={"flows.ts_count": [4, 8]}))
        names = [r.scenario["name"] for r in spec.expand()]
        assert len(set(names)) == len(names)

    def test_invalid_expanded_scenario_lists_run_and_path(self):
        spec = SweepSpec.from_dict(_sweep(grid={"flows.ts_cout": [4, 8]}))
        with pytest.raises(SpecValidationError) as excinfo:
            spec.expand()
        message = str(excinfo.value)
        assert "unit-sweep:0000" in message
        assert "ts_cout" in message and "ts_count" in message  # suggestion


class TestSetPath:
    def test_nested_create(self):
        tree = {}
        set_path(tree, "a.b.c", 1)
        assert tree == {"a": {"b": {"c": 1}}}

    def test_derived_config_hint(self):
        with pytest.raises(ConfigurationError, match="explicit object"):
            set_path({"config": "derive"}, "config.queue_depth", 12)


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed("c", 0, "sig") == derive_seed("c", 0, "sig")

    def test_sensitive_to_every_input(self):
        reference = derive_seed("c", 0, "sig")
        assert derive_seed("d", 0, "sig") != reference
        assert derive_seed("c", 1, "sig") != reference
        assert derive_seed("c", 0, "gis") != reference

    def test_payload_roundtrip(self):
        run = PlannedRun(index=0, run_id="x:0000", overrides={"slot_us": 1.0},
                        replicate=0, seed=3, scenario=_base())
        payload = run.as_payload()
        assert payload["run_id"] == "x:0000" and payload["seed"] == 3
