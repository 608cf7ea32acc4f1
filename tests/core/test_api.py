"""The seven customization APIs of paper Table II."""

import pytest

from repro.core.api import CustomizationAPI
from repro.core.config import EntryWidths
from repro.core.errors import ConfigurationError
from repro.core.presets import ring_config


def _complete_api(name="switch"):
    api = CustomizationAPI(name)
    api.set_switch_tbl(unicast_size=1024, multicast_size=0)
    api.set_class_tbl(class_size=1024)
    api.set_meter_tbl(meter_size=1024)
    api.set_gate_tbl(gate_size=2, queue_num=8, port_num=1)
    api.set_cbs_tbl(cbs_map_size=3, cbs_size=3, port_num=1)
    api.set_queues(queue_depth=12, queue_num=8, port_num=1)
    api.set_buffers(buffer_num=96, port_num=1)
    return api


class TestBuild:
    def test_complete_build_matches_ring_preset(self):
        config = _complete_api().build()
        ring = ring_config()
        assert config.total_bram_kb == ring.total_bram_kb == 2106

    def test_missing_calls_reported(self):
        api = CustomizationAPI()
        api.set_class_tbl(1024)
        assert "set_buffers" in api.missing_calls
        assert "set_class_tbl" not in api.missing_calls

    def test_incomplete_build_rejected(self):
        api = CustomizationAPI()
        api.set_switch_tbl(1024, 0)
        with pytest.raises(ConfigurationError, match="missing"):
            api.build()

    def test_invalid_parameters_surface_at_build(self):
        api = _complete_api()
        # re-inject a conflicting value for an unshared key is fine; a bad
        # value must be caught by config validation at build time
        api2 = CustomizationAPI("bad")
        api2.set_switch_tbl(-5, 0)
        api2.set_class_tbl(1024)
        api2.set_meter_tbl(1024)
        api2.set_gate_tbl(2, 8, 1)
        api2.set_cbs_tbl(3, 3, 1)
        api2.set_queues(12, 8, 1)
        api2.set_buffers(96, 1)
        with pytest.raises(ConfigurationError):
            api2.build()

    def test_custom_widths_flow_through(self):
        api = CustomizationAPI("w", widths=EntryWidths(meter_tbl=80))
        api.set_switch_tbl(64, 0)
        api.set_class_tbl(64)
        api.set_meter_tbl(64)
        api.set_gate_tbl(2, 8, 1)
        api.set_cbs_tbl(3, 3, 1)
        api.set_queues(8, 8, 1)
        api.set_buffers(64, 1)
        assert api.build().widths.meter_tbl == 80


class TestCrossCallConsistency:
    def test_conflicting_port_num_rejected_eagerly(self):
        api = CustomizationAPI()
        api.set_gate_tbl(gate_size=2, queue_num=8, port_num=2)
        with pytest.raises(ConfigurationError, match="port_num"):
            api.set_buffers(buffer_num=96, port_num=3)

    def test_conflicting_queue_num_rejected(self):
        api = CustomizationAPI()
        api.set_gate_tbl(gate_size=2, queue_num=8, port_num=1)
        with pytest.raises(ConfigurationError, match="queue_num"):
            api.set_queues(queue_depth=12, queue_num=4, port_num=1)

    def test_repeating_same_value_allowed(self):
        api = CustomizationAPI()
        api.set_gate_tbl(2, 8, 1)
        api.set_queues(12, 8, 1)  # same queue_num/port_num: fine
        api.set_cbs_tbl(3, 3, 1)


class TestFromConfig:
    def test_roundtrip(self):
        api = CustomizationAPI.from_config(ring_config())
        assert api.build().total_bram_kb == 2106

    def test_tweak_after_replay(self):
        api = CustomizationAPI.from_config(ring_config())
        with pytest.raises(ConfigurationError):
            api.set_queues(queue_depth=16, queue_num=8, port_num=2)


class TestChainedCustomization:
    def test_chained_build_matches_imperative(self):
        config = (
            CustomizationAPI("ring-node")
            .set_switch_tbl(unicast_size=1024, multicast_size=0)
            .set_class_tbl(class_size=1024)
            .set_meter_tbl(meter_size=1024)
            .set_gate_tbl(gate_size=2, queue_num=8, port_num=1)
            .set_cbs_tbl(cbs_map_size=3, cbs_size=3, port_num=1)
            .set_queues(queue_depth=12, queue_num=8, port_num=1)
            .set_buffers(buffer_num=96, port_num=1)
            .build()
        )
        assert config == _complete_api("ring-node").build()

    def test_every_setter_returns_self(self):
        api = CustomizationAPI()
        assert api.set_switch_tbl(16, 0) is api
        assert api.set_class_tbl(16) is api
        assert api.set_meter_tbl(16) is api
        assert api.set_gate_tbl(2, 8, 1) is api
        assert api.set_cbs_tbl(3, 3, 1) is api
        assert api.set_queues(12, 8, 1) is api
        assert api.set_buffers(96, 1) is api

    def test_incomplete_build_names_all_missing_calls(self):
        from repro.core.errors import IncompleteCustomizationError

        api = CustomizationAPI("partial").set_class_tbl(16)
        with pytest.raises(IncompleteCustomizationError) as excinfo:
            api.build()
        missing = excinfo.value.missing_calls
        assert missing == {
            "set_switch_tbl", "set_meter_tbl", "set_gate_tbl",
            "set_cbs_tbl", "set_queues", "set_buffers",
        }
        # every omission appears in the one message
        for call in missing:
            assert call in str(excinfo.value)
        assert excinfo.value.switch_name == "partial"

    def test_structured_error_is_a_configuration_error(self):
        from repro.core.errors import IncompleteCustomizationError

        assert issubclass(IncompleteCustomizationError, ConfigurationError)

    def test_consistency_enforced_through_chain(self):
        api = CustomizationAPI().set_gate_tbl(2, 8, 1)
        with pytest.raises(ConfigurationError, match="port_num"):
            api.set_queues(12, 8, 1).set_buffers(96, 2)


class TestApplyProfile:
    def test_bcm53154_profile_matches_published_baseline(self):
        from repro.core.presets import bcm53154_config

        api = CustomizationAPI("ref").apply_profile("bcm53154")
        config = api.build()
        assert config.total_bram_kb == bcm53154_config().total_bram_kb

    def test_profile_returns_self_for_chaining(self):
        api = CustomizationAPI("ref")
        assert api.apply_profile("ring") is api

    def test_every_published_profile_builds(self):
        from repro.core.api import PROFILES

        for name in PROFILES:
            assert CustomizationAPI(name).apply_profile(name).build()

    def test_unknown_profile_lists_choices(self):
        with pytest.raises(ConfigurationError, match="bcm53154"):
            CustomizationAPI().apply_profile("bcm99999")

    def test_profile_conflicts_with_prior_calls_surface(self):
        api = CustomizationAPI()
        api.set_queues(queue_depth=99, queue_num=8, port_num=1)
        with pytest.raises(ConfigurationError, match="queue_depth"):
            api.apply_profile("ring")

    def test_builder_profile_shortcut(self):
        config = CustomizationAPI("x").apply_profile("ring").build()
        assert config.total_bram_kb == ring_config().total_bram_kb
