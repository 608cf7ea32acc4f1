"""FaultInjector: scheduling, application windows, and reporting."""

import pytest

from repro.core.errors import ConfigurationError
from repro.faults.injector import FAULT_EVENT_PRIORITY, FaultInjector
from repro.faults.plan import FaultPlan
from repro.network.link import Link
from repro.sim.clock import LocalClock
from repro.sim.kernel import Simulator
from repro.switch.gates import GATE_EVENT_PRIORITY
from repro.sim.rng import RngFactory
from repro.switch.packet import EthernetFrame, make_mac
from repro.switch.queueing import BufferPool


class _Port:
    """Stand-in egress port: hands frames straight to the link."""

    def attach(self, carry):
        self.send = carry


class _Switch:
    """Stand-in switch: just the attributes the injector touches."""

    def __init__(self, sim, pools):
        self.clock = LocalClock(sim)
        self.ports = [
            type("P", (), {"pool": pool})() for pool in pools
        ]


def _frame(seq=0):
    return EthernetFrame(make_mac(1), make_mac(2), 1, 7, 64,
                         flow_id=1, seq=seq)


def _link(sim, name="sw0.p0->sw1", sink=None):
    port = _Port()
    receive = sink.append if isinstance(sink, list) else (lambda f: None)
    link = Link(sim, port, receive, name=name)
    return link, port


def _injector(sim, plan_events, links=(), switches=None, sync_domain=None,
              seed=0):
    plan = FaultPlan.from_dict({"events": list(plan_events)})
    return FaultInjector(
        plan, sim, links=links, switches=switches or {},
        rng=RngFactory(seed), sync_domain=sync_domain,
    )


class TestResolution:
    def test_unknown_link_lists_names(self):
        sim = Simulator()
        link, _ = _link(sim)
        with pytest.raises(ConfigurationError,
                           match=r"no link matches 'ghost'.*sw0\.p0->sw1"):
            _injector(sim, [{"kind": "link_down", "link": "ghost",
                             "at_us": 1}], links=[link])

    def test_unique_prefix_resolves(self):
        sim = Simulator()
        link, _ = _link(sim)
        injector = _injector(sim, [{"kind": "link_down", "link": "sw0.p0",
                                    "at_us": 1}], links=[link])
        assert injector._resolved[0] is link

    def test_ambiguous_prefix_rejected(self):
        sim = Simulator()
        a, _ = _link(sim, "sw0.p0->sw1")
        b, _ = _link(sim, "sw0.p1->sw2")
        with pytest.raises(ConfigurationError, match="ambiguous"):
            _injector(sim, [{"kind": "link_down", "link": "sw0",
                             "at_us": 1}], links=[a, b])

    def test_unknown_switch_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError, match="unknown switch"):
            _injector(sim, [{"kind": "buffer_shrink", "switch": "sw9",
                             "at_us": 1, "slots": 2}],
                      switches={"sw0": _Switch(sim, [BufferPool(4)])})

    def test_gm_fault_without_gptp_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError, match="needs gPTP"):
            _injector(sim, [{"kind": "gm_down", "node": "sw0",
                             "at_us": 1}])

    def test_arming_twice_rejected(self):
        sim = Simulator()
        link, _ = _link(sim)
        injector = _injector(sim, [{"kind": "link_down", "link": "sw0",
                                    "at_us": 1}], links=[link])
        injector.arm(0)
        with pytest.raises(ConfigurationError, match="already armed"):
            injector.arm(0)


class TestLinkWindows:
    def test_down_window_blackholes_then_restores(self):
        sim = Simulator()
        delivered = []
        link, port = _link(sim, sink=delivered)
        injector = _injector(
            sim,
            [{"kind": "link_down", "link": "sw0", "at_us": 10,
              "duration_us": 10}],
            links=[link],
        )
        injector.arm(0)
        for at_us in (5, 15, 25):
            sim.schedule(at_us * 1000, lambda: port.send(_frame()))
        sim.run()
        assert len(delivered) == 2
        assert link.fault_counters()["blackholed"] == 1
        assert link.fault_counters()["down_count"] == 1
        assert link.up

    def test_fault_start_is_relative_to_arm_time(self):
        sim = Simulator()
        link, port = _link(sim)
        injector = _injector(
            sim, [{"kind": "link_down", "link": "sw0", "at_us": 10}],
            links=[link],
        )
        injector.arm(1_000_000)  # traffic starts at t=1ms
        sim.schedule(1_005_000, lambda: port.send(_frame()))  # at+5us: up
        sim.run()
        assert link.frames_blackholed == 0
        assert not link.up

    def test_full_loss_burst_consumes_no_rng(self):
        sim = Simulator()
        link, port = _link(sim)
        injector = _injector(
            sim,
            [{"kind": "loss_burst", "link": "sw0", "at_us": 0,
              "duration_us": 10}],  # defaults to rate 1.0
            links=[link],
        )
        injector.arm(0)
        sim.schedule(5_000, lambda: port.send(_frame()))
        sim.run()
        assert link.frames_fault_lost == 1
        assert link._fault_loss_rate == 0.0  # window closed

    def test_partial_loss_burst_is_seeded_and_deterministic(self):
        def run(seed):
            sim = Simulator()
            link, port = _link(sim)
            injector = _injector(
                sim,
                [{"kind": "loss_burst", "link": "sw0", "at_us": 0,
                  "duration_us": 1000, "rate": 0.5}],
                links=[link], seed=seed,
            )
            injector.arm(0)
            for i in range(100):
                sim.schedule(1 + i, lambda: port.send(_frame()))
            sim.run()
            return link.frames_fault_lost

        first, second = run(7), run(7)
        assert first == second
        assert 0 < first < 100

    def test_corrupt_burst_delivers_bad_fcs(self):
        sim = Simulator()
        delivered = []
        link, port = _link(sim, sink=delivered)
        injector = _injector(
            sim,
            [{"kind": "corrupt_burst", "link": "sw0", "at_us": 0,
              "duration_us": 10}],
            links=[link],
        )
        injector.arm(0)
        sim.schedule(5_000, lambda: port.send(_frame()))
        sim.schedule(20_000, lambda: port.send(_frame()))
        sim.run()
        assert [f.fcs_ok for f in delivered] == [False, True]
        assert link.frames_fault_corrupted == 1


class TestClockAndBufferFaults:
    def test_clock_step_moves_phase(self):
        sim = Simulator()
        switch = _Switch(sim, [BufferPool(4)])
        injector = _injector(
            sim,
            [{"kind": "clock_step", "node": "sw0", "at_us": 1,
              "offset_ns": 750}],
            switches={"sw0": switch},
        )
        injector.arm(0)
        sim.run()
        assert switch.clock.offset_from_perfect() == 750

    def test_freq_step_changes_drift(self):
        sim = Simulator()
        switch = _Switch(sim, [BufferPool(4)])
        injector = _injector(
            sim,
            [{"kind": "freq_step", "node": "sw0", "at_us": 1,
              "drift_ppm": 40.0}],
            switches={"sw0": switch},
        )
        injector.arm(0)
        sim.run()
        assert switch.clock.drift_ppm == 40.0

    def test_buffer_shrink_window(self):
        sim = Simulator()
        pool = BufferPool(8)
        switch = _Switch(sim, [pool, pool])  # shared pool listed twice
        injector = _injector(
            sim,
            [{"kind": "buffer_shrink", "switch": "sw0", "at_us": 10,
              "duration_us": 10, "slots": 5}],
            switches={"sw0": switch},
        )
        injector.arm(0)
        observed = {}

        def free():
            return pool.slots - pool.in_use

        sim.schedule(15_000, lambda: observed.update(mid=free()))
        sim.schedule(25_000, lambda: observed.update(after=free()))
        sim.run()
        # the shared pool is deduplicated: 5 seized, not 10
        assert observed == {"mid": 3, "after": 8}

    def test_persistent_shrink_never_restores(self):
        sim = Simulator()
        pool = BufferPool(4)
        switch = _Switch(sim, [pool])
        injector = _injector(
            sim,
            [{"kind": "buffer_shrink", "switch": "sw0", "at_us": 1,
              "slots": 3}],
            switches={"sw0": switch},
        )
        injector.arm(0)
        sim.run()
        assert pool.slots - pool.in_use == 1


class TestReporting:
    def test_timeline_and_counters(self):
        sim = Simulator()
        link, port = _link(sim)
        injector = _injector(
            sim,
            [{"kind": "link_down", "link": "sw0", "at_us": 10,
              "duration_us": 5}],
            links=[link],
        )
        injector.arm(0)
        sim.schedule(12_000, lambda: port.send(_frame()))
        sim.run()
        report = injector.report()
        kinds = [(e["kind"], e["detail"]) for e in report.timeline]
        assert kinds == [
            ("link_down", "sw0.p0->sw1 down"),
            ("link_down", "sw0.p0->sw1 up (auto)"),
        ]
        assert report.links["sw0.p0->sw1"]["blackholed"] == 1
        assert report.frames_lost_in_failover == 1
        assert report.as_dict()["frames_lost_in_failover"] == 1

    def test_priority_beats_gate_events(self):
        assert FAULT_EVENT_PRIORITY < GATE_EVENT_PRIORITY
