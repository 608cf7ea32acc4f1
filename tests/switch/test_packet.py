"""Frames, MAC helpers, descriptors."""

import pytest

from repro.network.scenario import ScenarioSpec
from repro.obs.flowspans import FlowSpanRecorder
from repro.switch.packet import (
    BROADCAST_MAC,
    Descriptor,
    EthernetFrame,
    is_multicast,
    make_mac,
)


def _frame(**kwargs):
    defaults = dict(src_mac=make_mac(1), dst_mac=make_mac(2), vlan_id=1,
                    pcp=7, size_bytes=64)
    defaults.update(kwargs)
    return EthernetFrame(**defaults)


class TestMacs:
    def test_make_mac_unicast(self):
        assert not is_multicast(make_mac(3, 1))

    def test_make_mac_distinct(self):
        assert make_mac(1) != make_mac(2)
        assert make_mac(1, 0) != make_mac(1, 1)

    def test_broadcast_is_multicast(self):
        assert is_multicast(BROADCAST_MAC)


class TestFrameValidation:
    def test_valid(self):
        frame = _frame()
        assert frame.size_bytes == 64 and not frame.is_multicast

    @pytest.mark.parametrize("pcp", [-1, 8])
    def test_bad_pcp(self, pcp):
        with pytest.raises(ValueError):
            _frame(pcp=pcp)

    @pytest.mark.parametrize("vid", [-1, 4096])
    def test_bad_vid(self, vid):
        with pytest.raises(ValueError):
            _frame(vlan_id=vid)

    def test_undersized_frame_rejected(self):
        with pytest.raises(ValueError):
            _frame(size_bytes=63)

    def test_frame_ids_unique(self):
        """A frame built by hand is unnumbered; a testbed numbers the frames
        its sources emit 0..n-1 in emission order."""
        assert _frame().frame_id == -1
        spec = ScenarioSpec.from_dict({
            "name": "frame-ids",
            "topology": {"kind": "ring", "switch_count": 2,
                         "talkers": ["talker0"], "listener": "listener"},
            "flows": {"ts_count": 4, "period_us": 500, "size_bytes": 64,
                      "rc_mbps": 50, "be_mbps": 50},
            "duration_ms": 2,
        })
        spans = FlowSpanRecorder()
        testbed = spec.build_testbed(spans=spans)
        testbed.build()
        testbed.run(spec.duration_ns)
        emitted = [row[3] for row in spans.events if row[1] == "gen"]
        # Background flows as well as TS flows emitted.
        assert len({row[4] for row in spans.events}) > 4
        assert emitted == list(range(len(emitted)))

    def test_multicast_dst(self):
        assert _frame(dst_mac=BROADCAST_MAC).is_multicast


class TestDescriptor:
    def test_size_passthrough(self):
        frame = _frame(size_bytes=256)
        desc = Descriptor(frame=frame, buffer_slot=3, enqueued_ns=10, queue_id=7)
        assert desc.size_bytes == 256
        assert desc.buffer_slot == 3
