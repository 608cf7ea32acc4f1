"""Fault-plan schema validation and normalization."""

import pytest

from repro.core.errors import ConfigurationError, SpecValidationError
from repro.faults.plan import FaultPlan, validate_faults_dict


def _plan(*events):
    return FaultPlan.from_dict({"events": list(events)})


class TestValidation:
    def test_non_mapping_stanza(self):
        assert validate_faults_dict([1, 2]) == [
            "faults: expected an object, got list"
        ]

    def test_unknown_stanza_key_suggested(self):
        problems = validate_faults_dict({"event": []})
        assert any("faults.event: unknown key" in p for p in problems)
        assert any("did you mean 'events'" in p for p in problems)

    def test_events_required(self):
        assert validate_faults_dict({}) == [
            "faults.events: required key is missing"
        ]

    def test_events_must_be_list(self):
        problems = validate_faults_dict({"events": {}})
        assert problems == ["faults.events: expected a list, got dict"]

    def test_unknown_kind_suggested(self):
        problems = validate_faults_dict(
            {"events": [{"kind": "link_dwn", "link": "x", "at_us": 1}]}
        )
        assert len(problems) == 1
        assert "did you mean 'link_down'" in problems[0]

    def test_unknown_parameter_for_kind(self):
        problems = validate_faults_dict(
            {"events": [{"kind": "link_down", "link": "x", "at_us": 1,
                         "rate": 0.5}]}
        )
        assert any("events[0].rate: unknown parameter" in p
                   for p in problems)

    def test_at_is_required(self):
        problems = validate_faults_dict(
            {"events": [{"kind": "link_up", "link": "x"}]}
        )
        assert any("at: required" in p for p in problems)

    def test_at_us_and_at_ns_exclusive(self):
        problems = validate_faults_dict(
            {"events": [{"kind": "link_up", "link": "x",
                         "at_us": 1, "at_ns": 1000}]}
        )
        assert any("either 'at_us' or 'at_ns', not both" in p
                   for p in problems)

    def test_negative_time_rejected(self):
        problems = validate_faults_dict(
            {"events": [{"kind": "link_up", "link": "x", "at_us": -1}]}
        )
        assert any("must be >= 0" in p for p in problems)

    def test_boolean_time_rejected(self):
        problems = validate_faults_dict(
            {"events": [{"kind": "link_up", "link": "x", "at_us": True}]}
        )
        assert any("expected a number" in p for p in problems)

    def test_duration_required_for_bursts(self):
        problems = validate_faults_dict(
            {"events": [{"kind": "loss_burst", "link": "x", "at_us": 1}]}
        )
        assert any("duration: required" in p for p in problems)

    def test_zero_duration_rejected(self):
        problems = validate_faults_dict(
            {"events": [{"kind": "loss_burst", "link": "x", "at_us": 1,
                         "duration_us": 0}]}
        )
        assert any("duration must be positive" in p for p in problems)

    @pytest.mark.parametrize("rate", [0, 0.0, 1.5, -0.1, True, "half"])
    def test_bad_rates_rejected(self, rate):
        problems = validate_faults_dict(
            {"events": [{"kind": "loss_burst", "link": "x", "at_us": 1,
                         "duration_us": 5, "rate": rate}]}
        )
        assert any(".rate:" in p for p in problems)

    def test_target_required(self):
        problems = validate_faults_dict(
            {"events": [{"kind": "gm_down", "at_us": 1}]}
        )
        assert any("events[0].node: required" in p for p in problems)

    def test_clock_step_needs_integer_offset(self):
        problems = validate_faults_dict(
            {"events": [{"kind": "clock_step", "node": "sw0", "at_us": 1,
                         "offset_ns": 1.5}]}
        )
        assert any("offset_ns: required, expected an integer" in p
                   for p in problems)

    def test_buffer_shrink_needs_positive_slots(self):
        problems = validate_faults_dict(
            {"events": [{"kind": "buffer_shrink", "switch": "sw0",
                         "at_us": 1, "slots": 0}]}
        )
        assert any("slots: must be >= 1" in p for p in problems)

    def test_all_problems_reported_at_once(self):
        with pytest.raises(SpecValidationError) as err:
            _plan(
                {"kind": "loss_burst", "link": "a", "at_us": 1},
                {"kind": "nope", "at_us": 1},
            )
        message = str(err.value)
        assert "events[0]" in message and "events[1]" in message


class TestFaultPlan:
    def test_empty_events_rejected(self):
        with pytest.raises(ConfigurationError, match="no events"):
            FaultPlan.from_dict({"events": []})

    def test_events_sorted_by_time(self):
        plan = _plan(
            {"kind": "link_up", "link": "b", "at_us": 20},
            {"kind": "link_down", "link": "a", "at_us": 10},
        )
        assert [e.kind for e in plan] == ["link_down", "link_up"]

    def test_us_and_ns_forms_equivalent(self):
        a = _plan({"kind": "link_down", "link": "x", "at_us": 5,
                   "duration_us": 2})
        b = _plan({"kind": "link_down", "link": "x", "at_ns": 5000,
                   "duration_ns": 2000})
        assert a.events == b.events

    def test_end_ns_only_with_duration(self):
        plan = _plan(
            {"kind": "link_down", "link": "a", "at_us": 1},
            {"kind": "buffer_shrink", "switch": "s", "at_us": 2,
             "duration_us": 3, "slots": 4},
        )
        persistent, windowed = plan.events
        assert persistent.end_ns is None
        assert windowed.end_ns == 5_000

    def test_to_dict_roundtrip(self):
        plan = _plan(
            {"kind": "corrupt_burst", "link": "a", "at_us": 3,
             "duration_us": 2, "rate": 0.25},
            {"kind": "freq_step", "node": "sw1", "at_us": 1,
             "drift_ppm": 40},
            {"kind": "clock_step", "node": "sw2", "at_us": 2,
             "offset_ns": -500},
        )
        assert FaultPlan.from_dict(plan.to_dict()).events == plan.events

    def test_describe_mentions_parameters(self):
        plan = _plan(
            {"kind": "loss_burst", "link": "a", "at_us": 1,
             "duration_us": 2, "rate": 0.5},
            {"kind": "buffer_shrink", "switch": "s", "at_us": 3,
             "slots": 8},
        )
        described = " | ".join(e.describe() for e in plan)
        assert "rate=0.5" in described and "slots=8" in described
