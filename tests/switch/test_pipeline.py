"""Ingress pipeline: classify, police, lookup."""

import pytest

from repro.core.config import SwitchConfig
from repro.sim.kernel import Simulator
from repro.switch.counters import SwitchCounters
from repro.switch.device import TsnSwitch
from repro.switch.packet import EthernetFrame, make_mac
from repro.switch.pipeline import SwitchPipeline
from repro.switch.tables import ClassTarget
from repro.switch.meter import TokenBucketMeter


def _pipeline(**config_kwargs):
    defaults = dict(unicast_size=16, class_size=16, meter_size=16)
    defaults.update(config_kwargs)
    config = SwitchConfig(**defaults)
    return SwitchPipeline(config, SwitchCounters())


def _frame(src=1, dst=2, vid=1, pcp=7, size=64):
    return EthernetFrame(make_mac(src), make_mac(dst), vid, pcp, size)


class TestClassify:
    def test_hit_returns_programmed_target(self):
        pipe = _pipeline()
        target = ClassTarget(meter_id=3, queue_id=7)
        pipe.classification.program(make_mac(1), make_mac(2), 1, 7, target)
        assert pipe.classify(_frame()) == target

    def test_miss_falls_back_to_pcp(self):
        pipe = _pipeline()
        target = pipe.classify(_frame(pcp=5))
        assert target.queue_id == 5 and target.meter_id == -1


class TestPolice:
    def test_unmetered_passes(self):
        pipe = _pipeline()
        assert pipe.police(_frame(), ClassTarget(-1, 7), now_ns=0)

    def test_unprogrammed_meter_passes(self):
        pipe = _pipeline()
        assert pipe.police(_frame(), ClassTarget(5, 7), now_ns=0)

    def test_violating_flow_dropped_and_counted(self):
        pipe = _pipeline()
        pipe.meters.program(0, TokenBucketMeter(8_000, 64))  # tiny
        target = ClassTarget(0, 7)
        assert pipe.police(_frame(), target, 0)
        assert not pipe.police(_frame(), target, 0)  # bucket empty


class TestLookup:
    def test_unicast_hit(self):
        pipe = _pipeline()
        pipe.unicast.program(make_mac(2), 1, outport=0)
        assert pipe.lookup(_frame()) == (0,)

    def test_unicast_miss_empty(self):
        assert _pipeline().lookup(_frame()) == ()

    def test_multicast_via_mc_table(self):
        pipe = _pipeline(multicast_size=8, port_num=3)
        mc_mac = (1 << 40) | 0x0005  # group bit + MC ID 5
        pipe.multicast.program(5, (0, 2))
        frame = EthernetFrame(make_mac(1), mc_mac, 1, 7, 64)
        assert pipe.lookup(frame) == (0, 2)

    def test_multicast_without_table_drops(self):
        pipe = _pipeline(multicast_size=0)
        mc_mac = (1 << 40) | 0x0005
        frame = EthernetFrame(make_mac(1), mc_mac, 1, 7, 64)
        assert pipe.lookup(frame) == ()


class TestProcess:
    def test_full_path(self):
        pipe = _pipeline()
        pipe.classification.program(
            make_mac(1), make_mac(2), 1, 7, ClassTarget(-1, 6)
        )
        pipe.unicast.program(make_mac(2), 1, outport=0)
        decision = pipe.process(_frame(), 0)
        assert decision.targets == ((0, 6),)
        assert not decision.dropped

    def test_policer_drop_counted(self):
        pipe = _pipeline()
        pipe.classification.program(
            make_mac(1), make_mac(2), 1, 7, ClassTarget(0, 6)
        )
        pipe.meters.program(0, TokenBucketMeter(8_000, 64))
        pipe.unicast.program(make_mac(2), 1, outport=0)
        pipe.process(_frame(), 0)
        decision = pipe.process(_frame(), 0)
        assert decision.drop_reason == "policer"
        assert pipe.counters.dropped_policer == 1

    def test_unknown_dst_counted(self):
        pipe = _pipeline()
        decision = pipe.process(_frame(), 0)
        assert decision.drop_reason == "unknown_dst"
        assert pipe.counters.dropped_unknown_dst == 1


class _MeterLog:
    """Stands in for SwitchInstruments: records what the pipeline reports."""

    def __init__(self):
        self.meter = []
        self.drops = []

    def on_meter(self, conformed):
        self.meter.append(conformed)

    def on_drop(self, reason):
        self.drops.append(reason)


# One param: its id is part of every TestResolvedEntries test id.
@pytest.fixture(params=["object"])
def send():
    """``send(pipe, now_ns=0, **fields)``: one frame through ``process``."""

    def _send(pipe, now_ns=0, src=1, dst=2, vid=1, pcp=7, size=64):
        fields = (
            make_mac(src), dst if dst >> 40 else make_mac(dst), vid, pcp, size
        )
        return pipe.process(EthernetFrame(*fields), now_ns)

    return _send


class TestResolvedEntries:
    """A flow key is resolved once; every table write starts over."""

    def test_second_frame_is_answered_from_the_resolution(self, send):
        pipe = _pipeline()
        pipe.unicast.program(make_mac(2), 1, outport=0)
        first = send(pipe)
        assert first.targets == ((0, 7),)
        assert send(pipe) is first
        assert list(pipe._resolved) == [(make_mac(1), make_mac(2), 1, 7)]

    def test_exact_route_installed_after_wildcard_wins_next_frame(self, send):
        switch = TsnSwitch(Simulator(), SwitchConfig(
            port_num=2, unicast_size=16, class_size=16, meter_size=16,
        ))
        pipe = switch.pipeline
        switch.program_route(make_mac(2), None, outport=0)
        assert send(pipe, vid=5).targets == ((0, 7),)
        assert send(pipe, vid=6).targets == ((0, 7),)
        switch.program_route(make_mac(2), None, outport=0)  # agreeing rewrite
        assert send(pipe, vid=5).targets == ((0, 7),)
        # program_route refuses to contradict the wildcard; the table's own
        # door does not, and an exact entry beats the wildcard.
        pipe.unicast.program(make_mac(2), 5, outport=1)
        assert send(pipe, vid=5).targets == ((1, 7),)
        assert send(pipe, vid=6).targets == ((0, 7),)  # still the wildcard

    def test_classification_installed_after_pcp_fallback_frames(self, send):
        switch = TsnSwitch(Simulator(), SwitchConfig(
            port_num=2, unicast_size=16, class_size=16, meter_size=16,
        ))
        pipe = switch.pipeline
        switch.program_route(make_mac(2), 1, outport=0)
        assert send(pipe, pcp=3).targets == ((0, 3),)
        assert send(pipe, pcp=3).targets == ((0, 3),)
        switch.program_flow(
            make_mac(1), make_mac(2), 1, 3, outport=0, queue_id=6
        )
        assert send(pipe, pcp=3).targets == ((0, 6),)

    def test_program_meter_replaces_the_meter(self, send):
        switch = TsnSwitch(Simulator(), SwitchConfig(
            port_num=2, unicast_size=16, class_size=16, meter_size=16,
        ))
        pipe = switch.pipeline
        switch.program_flow(
            make_mac(1), make_mac(2), 1, 7, outport=0, queue_id=7, meter_id=0
        )
        switch.program_meter(0, 8_000, 64)  # one 64 B frame, then empty
        assert not send(pipe).dropped
        assert send(pipe).drop_reason == "policer"
        switch.program_meter(0, 10**9, 10_000)
        assert not send(pipe).dropped
        assert not send(pipe).dropped
        assert pipe.counters.dropped_policer == 1

    def test_meter_programmed_after_unmetered_frames(self, send):
        pipe = _pipeline()
        pipe.classification.program(
            make_mac(1), make_mac(2), 1, 7, ClassTarget(0, 6)
        )
        pipe.unicast.program(make_mac(2), 1, outport=0)
        assert not send(pipe).dropped  # meter 0 not programmed: passes
        assert not send(pipe).dropped
        pipe.meters.program(0, TokenBucketMeter(8_000, 64))
        assert not send(pipe).dropped
        assert send(pipe).drop_reason == "policer"

    def test_remove_and_clear_are_seen_by_the_next_frame(self, send):
        pipe = _pipeline()
        pipe.classification.program(
            make_mac(1), make_mac(2), 1, 7, ClassTarget(-1, 6)
        )
        pipe.unicast.program(make_mac(2), 1, outport=0)
        assert send(pipe).targets == ((0, 6),)
        pipe.classification.remove((make_mac(1), make_mac(2), 1, 7))
        assert send(pipe).targets == ((0, 7),)  # back to the PCP default
        pipe.unicast.clear()
        assert send(pipe).drop_reason == "unknown_dst"
        pipe.unicast.program(make_mac(2), 1, outport=1)
        assert send(pipe).targets == ((1, 7),)

    def test_policer_state_and_callbacks_through_a_resolved_entry(self, send):
        pipe = _pipeline()
        log = pipe._obs = _MeterLog()
        pipe.classification.program(
            make_mac(1), make_mac(2), 1, 7, ClassTarget(0, 6)
        )
        pipe.meters.program(0, TokenBucketMeter(8_000_000, 128))  # 1 B/us
        pipe.unicast.program(make_mac(2), 1, outport=0)
        verdicts = [
            send(pipe, now_ns=now).drop_reason for now in (0, 0, 0, 64_000)
        ]
        assert verdicts == [None, None, "policer", None]
        assert log.meter == [True, True, False, True]
        assert log.drops == ["policer"]
        assert pipe.counters.dropped_policer == 1

    def test_first_frame_policed_away_leaves_nothing_resolved(self, send):
        pipe = _pipeline()
        pipe.classification.program(
            make_mac(1), make_mac(2), 1, 7, ClassTarget(0, 6)
        )
        pipe.meters.program(0, TokenBucketMeter(8_000, 64))
        assert send(pipe, size=128).drop_reason == "policer"
        # policed before lookup: the missing route is not this frame's drop
        assert pipe.counters.dropped_unknown_dst == 0
        assert not pipe._resolved

    def test_unknown_destination_is_never_resolved(self, send):
        pipe = _pipeline()
        log = pipe._obs = _MeterLog()
        for _ in range(3):
            assert send(pipe).drop_reason == "unknown_dst"
        assert pipe.counters.dropped_unknown_dst == 3
        assert log.drops == ["unknown_dst"] * 3
        assert not pipe._resolved
        pipe.unicast.program(make_mac(2), 1, outport=0)
        assert send(pipe).targets == ((0, 7),)

    def test_multicast(self, send):
        pipe = _pipeline(multicast_size=8, port_num=3)
        group = (1 << 40) | 0x0005
        assert send(pipe, dst=group).drop_reason == "unknown_dst"
        pipe.multicast.program(5, (0, 2))
        assert send(pipe, dst=group).targets == ((0, 7), (2, 7))
        assert send(pipe, dst=group).targets == ((0, 7), (2, 7))
        pipe.multicast.program(5, (1,))
        assert send(pipe, dst=group).targets == ((1, 7),)
        pipe.multicast.remove(5)
        assert send(pipe, dst=group).drop_reason == "unknown_dst"
