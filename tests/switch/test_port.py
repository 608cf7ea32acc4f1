"""Egress port: admission, transmission timing, drop accounting."""

import pytest

from repro.core.errors import ConfigurationError, SimulationError
from repro.sim.clock import LocalClock
from repro.sim.kernel import Simulator
from repro.sim.trace import NULL_TRACER, Tracer
from repro.switch.counters import SwitchCounters
from repro.switch.gates import GATE_EVENT_PRIORITY, CqfPair, GateEngine
from repro.switch.packet import EthernetFrame, make_mac
from repro.switch.port import EgressPort
from repro.switch.queueing import BufferPool, MetadataQueue
from repro.switch.scheduler import (
    DeficitRoundRobinScheduler,
    StrictPriorityScheduler,
)
from repro.switch.shaper import CreditBasedShaper
from repro.switch.tables import CbsParams, GateControlList, GateEntry

GBPS = 10**9


def _frame(size=64, pcp=7):
    return EthernetFrame(make_mac(1), make_mac(2), 1, pcp, size, flow_id=1)


def _port(sim, depth=4, buffers=8, out_entries=None, in_entries=None,
          pairs=(), tracer=NULL_TRACER, scheduler=None, clock=None,
          **options):
    queues = [MetadataQueue(depth, q) for q in range(8)]
    in_gcl, out_gcl = GateControlList(2), GateControlList(3)
    in_gcl.program(in_entries or [GateEntry(0xFF, 1_000_000)])
    out_gcl.program(out_entries or [GateEntry(0xFF, 1_000_000)])
    gates = GateEngine(
        sim, in_gcl, out_gcl, clock=clock, cqf_pairs=list(pairs),
        tracer=tracer,
    )
    port = EgressPort(
        sim=sim,
        port_id=0,
        rate_bps=GBPS,
        queues=queues,
        buffer_pool=BufferPool(buffers),
        gates=gates,
        scheduler=scheduler or StrictPriorityScheduler(),
        counters=SwitchCounters(),
        tracer=tracer,
        **options,
    )
    gates.start()
    port.kick()
    return port


class TestTransmissionTiming:
    def test_last_bit_at_serialization_time(self):
        sim = Simulator()
        port = _port(sim)
        delivered = []
        port.attach(lambda f: delivered.append(sim.now))
        port.enqueue(_frame(size=64), 7)
        sim.run(until=100_000)
        assert delivered == [512]  # 64 B at 1 Gbps

    def test_back_to_back_frames_separated_by_ifg(self):
        sim = Simulator()
        port = _port(sim)
        delivered = []
        port.attach(lambda f: delivered.append(sim.now))
        port.enqueue(_frame(), 7)
        port.enqueue(_frame(), 7)
        sim.run(until=100_000)
        # second starts after wire time (84B = 672ns), lands at 672+512
        assert delivered == [512, 672 + 512]

    def test_priority_order_between_queues(self):
        sim = Simulator()
        port = _port(sim)
        seen = []
        port.attach(lambda f: seen.append(f.pcp))
        port.enqueue(_frame(pcp=0), 0)
        port.enqueue(_frame(pcp=7), 7)  # arrives while 0 is in flight
        sim.run(until=100_000)
        assert seen == [0, 7]  # no preemption, but 7 would beat later 0s

    def test_busy_flag(self):
        sim = Simulator()
        port = _port(sim)
        port.attach(lambda f: None)
        port.enqueue(_frame(size=1500), 7)
        assert port.busy
        sim.run(until=100_000)
        assert not port.busy


class TestAdmission:
    def test_tail_drop_counted_and_buffer_released(self):
        sim = Simulator()
        port = _port(sim, depth=1, buffers=8)
        port.attach(lambda f: None)
        # Hold the port busy so the queue cannot drain: gate all closed.
        port2 = _port(sim, depth=1, buffers=8,
                      out_entries=[GateEntry(0x00, 1_000_000)])
        port2.attach(lambda f: None)
        assert port2.enqueue(_frame(), 7)
        assert not port2.enqueue(_frame(), 7)
        assert port2.counters.dropped_tail == 1
        assert port2.pool.in_use == 1  # dropped frame's slot returned

    def test_buffer_exhaustion_counted(self):
        sim = Simulator()
        port = _port(sim, depth=8, buffers=1,
                     out_entries=[GateEntry(0x00, 1_000_000)])
        port.attach(lambda f: None)
        assert port.enqueue(_frame(), 7)
        assert not port.enqueue(_frame(), 7)
        assert port.counters.dropped_no_buffer == 1

    def test_gate_drop_when_in_gate_closed(self):
        sim = Simulator()
        port = _port(sim, in_entries=[GateEntry(0x7F, 1_000_000)])
        port.attach(lambda f: None)
        assert not port.enqueue(_frame(), 7)
        assert port.counters.dropped_gate == 1

    def test_cqf_redirect_on_enqueue(self):
        sim = Simulator()
        base = 0b0011_1111
        port = _port(
            sim,
            in_entries=[GateEntry(base | 0x40, 1000),
                        GateEntry(base | 0x80, 1000)],
            out_entries=[GateEntry(base | 0x80, 1000),
                         GateEntry(base | 0x40, 1000)],
            pairs=[CqfPair(6, 7)],
        )
        port.attach(lambda f: None)
        port.enqueue(_frame(), 7)
        # landed in queue 6 (the gathering queue of slot 0)
        assert len(port.queues[6]) + port.counters.transmitted >= 1
        assert port.counters.per_queue_enqueued.get(6) == 1


class TestWiring:
    def test_transmit_without_link_rejected(self):
        sim = Simulator()
        port = _port(sim)
        # kick fires synchronously from enqueue and must refuse to transmit
        with pytest.raises(SimulationError):
            port.enqueue(_frame(), 7)

    def test_double_attach_rejected(self):
        sim = Simulator()
        port = _port(sim)
        port.attach(lambda f: None)
        with pytest.raises(ConfigurationError):
            port.attach(lambda f: None)

    @pytest.mark.parametrize("rate_bps", [0, 160 * GBPS + 1])
    def test_rate_the_ns_clock_cannot_carry_rejected(self, rate_bps):
        # Above 160 Gb/s the 20 B preamble/IFG can round to 0 ns: the next
        # frame could start before the last one's data-done event fired.
        with pytest.raises(ConfigurationError, match="port rate"):
            EgressPort(Simulator(), 0, rate_bps, [MetadataQueue(4, 7)],
                       BufferPool(1), None, StrictPriorityScheduler())

    def test_backlog_accounting(self):
        sim = Simulator()
        port = _port(sim, out_entries=[GateEntry(0x00, 1_000_000)])
        port.attach(lambda f: None)
        port.enqueue(_frame(size=100), 7)
        port.enqueue(_frame(size=200), 3)
        assert sum(map(len, port.queues)) == 2
        assert sum(d.size_bytes for q in port.queues for d in q) == 300


class TestDemandDrivenEgress:
    """The elided ``_tx_idle``: armed on demand, at its reserved place."""

    WIRE_NS = 672  # 64 B + 20 B preamble/IFG at 1 Gbps

    def test_lone_frame_posts_no_idle_event(self):
        sim = Simulator()
        port = _port(sim)
        port.attach(lambda f: None)
        port.enqueue(_frame(), 7)
        assert sim.pending == 1  # data-done only
        assert sim.stats.elided == 1
        sim.run(until=100_000)
        assert port.counters.transmitted == 1
        assert not any(port.queues)

    def test_enqueue_during_ifg_arms_exactly_one_idle(self):
        sim = Simulator()
        port = _port(sim)
        delivered = []
        port.attach(lambda f: delivered.append(sim.now))
        port.enqueue(_frame(), 7)
        sim.run(until=600)  # data left at 512, wire busy until 672
        assert sim.pending == 0 and port.busy
        port.enqueue(_frame(), 7)
        port.enqueue(_frame(), 7)
        assert sim.pending == 1
        assert sim.stats.elided == 0  # the reservation was redeemed
        assert sim.step() and sim.now == self.WIRE_NS  # the idle event
        sim.run(until=100_000)
        assert delivered == [512, 672 + 512, 2 * 672 + 512]
        assert not any(port.queues)

    def test_backlog_at_start_posts_idle_eagerly(self):
        sim = Simulator()
        port = _port(sim, out_entries=[GateEntry(0x00, 1000),
                                       GateEntry(0xFF, 1_000_000)])
        port.attach(lambda f: None)
        port.enqueue(_frame(), 7)
        port.enqueue(_frame(), 7)
        sim.run(until=1000)  # gate opens: first starts, second is backlog
        assert sum(map(len, port.queues)) == 1
        assert sim.stats.elided == 0
        sim.run(until=100_000)
        # Only the last transmission left the port empty.
        assert port.counters.transmitted == 2 and sim.stats.elided == 1

    def test_boundary_is_narrated_before_the_wakeup_it_releases(self):
        # The blocked port arms its wakeup for 1000 at time 0; the
        # narration of that boundary is posted later, at the 500 boundary.
        # Priority, not posting order, puts the gate record first.
        sim = Simulator()
        stream = []
        port = _port(
            sim,
            out_entries=[GateEntry(0x00, 500), GateEntry(0x00, 500),
                         GateEntry(0xFF, 1_000_000)],
            tracer=Tracer(sink=stream.append),
        )
        port.attach(lambda f: None)
        port.enqueue(_frame(), 7)
        sim.run(until=1000)
        assert [
            (r.category, r.message) for r in stream if r.time == 1000
        ] == [("gate", "gate out-gates"), ("tx", "port start")]

    def test_reserved_idle_fires_before_later_same_instant_enqueue(self):
        # The idle's seq is reserved when the transmission starts, so an
        # enqueue event posted afterwards for the very instant the wire
        # frees must run second, as it did when the idle was posted
        # eagerly: the queue-0 frame goes out before queue 7 can bid.
        sim = Simulator()
        port = _port(sim)
        seen = []
        port.attach(lambda f: seen.append(f.pcp))
        port.enqueue(_frame(pcp=3), 3)
        sim.post_at(self.WIRE_NS, lambda: port.enqueue(_frame(pcp=7), 7))
        sim.post_at(100, lambda: port.enqueue(_frame(pcp=0), 0))
        sim.run(until=100_000)
        assert seen == [3, 0, 7]

    def test_kick_on_empty_port_skips_the_scheduler(self):
        class Exploding(StrictPriorityScheduler):
            def select(self, *args):
                raise AssertionError("arbitrated an empty port")

        port = _port(Simulator(), scheduler=Exploding())
        port.kick()

    def test_scheduler_is_read_only(self):
        # The port derives its shaper map and strict-priority shortcut
        # from the arbiter it was built with; a swapped one would leave
        # both stale.
        port = _port(Simulator())
        built_with = port.scheduler
        with pytest.raises(AttributeError):
            port.scheduler = DeficitRoundRobinScheduler()
        assert port.scheduler is built_with


class TestSoleBacklog:
    """An enqueue that leaves one frame on an idle port asks that frame's
    gate, and arbitrates only when the arbiter could differ."""

    # Slot 0: queue 7 drains, queue 6 gathers; they swap every 1 000 ns.
    BASE = 0b0011_1111
    CQF = dict(
        in_entries=[GateEntry(BASE | 0x40, 1000),
                    GateEntry(BASE | 0x80, 1000)],
        out_entries=[GateEntry(BASE | 0x80, 1000),
                     GateEntry(BASE | 0x40, 1000)],
        pairs=[CqfPair(6, 7)],
    )

    def test_frame_into_closed_gathering_queue_arms_one_wake(
        self, monkeypatch
    ):
        sim = Simulator()
        port = _port(sim, **self.CQF)
        delivered = []
        port.attach(lambda f: delivered.append(sim.now))

        def no_arbitration(self):
            raise AssertionError("a lone frame ran the arbiter")

        with monkeypatch.context() as patched:
            patched.setattr(EgressPort, "kick", no_arbitration)
            port.enqueue(_frame(), 7)
        assert len(port.queues[6]) == 1
        assert sim.pending == 1
        assert sim.step() and sim.now == 1000  # the slot boundary
        sim.run(until=100_000)
        assert delivered == [1000 + 512]

    def test_drr_winner_is_arbitrated(self):
        # The DRR stage books a winner's deficit and moves its rotation; a
        # port whose every enqueue arbitrates (preemption without express
        # queues) shows what that bookkeeping must read afterwards.
        def drr_port(**options):
            sim = Simulator()
            port = _port(
                sim, scheduler=DeficitRoundRobinScheduler(), **options
            )
            port.attach(lambda f: None)
            port.enqueue(_frame(pcp=2), 2)
            assert port.counters.transmitted == 0 and port.busy
            return port.scheduler

        kicked = drr_port(preemption_enabled=True, express_queues=())
        assert kicked._rotation != 0 and kicked._deficits
        sole = drr_port()
        assert (sole._deficits, sole._rotation) == (
            kicked._deficits, kicked._rotation
        )

    # Queues 5 and 3 are closed for the first 1 000 ns; queue 3 also for
    # the next 1 000 when three segments are programmed.
    CLOSED_5_3 = 0xFF & ~0x28
    CLOSED_3 = 0xFF & ~0x08

    @staticmethod
    def _kicks(monkeypatch):
        """The instants at which any port re-arbitrates from here on."""
        kicks = []
        original = EgressPort.kick

        def kick(self):
            kicks.append(self._sim.now)
            original(self)

        monkeypatch.setattr(EgressPort, "kick", kick)
        return kicks

    @staticmethod
    def _gate_wakeups(monkeypatch):
        """Every action posted at the gate wakeups' priority from here on."""
        actions = []
        original = Simulator.post_at

        def post_at(self, time, action, priority=0):
            if priority == GATE_EVENT_PRIORITY:
                actions.append(action)
            original(self, time, action, priority)

        monkeypatch.setattr(Simulator, "post_at", post_at)
        return actions

    def test_lone_wakeup_starts_its_frame_without_arbitrating(
        self, monkeypatch
    ):
        sim = Simulator()
        port = _port(sim, **self.CQF)
        delivered = []
        port.attach(lambda f: delivered.append(sim.now))
        wakeups = self._gate_wakeups(monkeypatch)
        kicks = self._kicks(monkeypatch)
        port.enqueue(_frame(), 7)
        sim.run(until=100_000)
        assert delivered == [1000 + 512]
        assert kicks == []
        # A closure of the port module, as the benchmark's trace names it.
        (wake,) = wakeups
        assert wake.__module__ == "repro.switch.port"
        assert wake != port._gate_wake_fire

    def test_higher_priority_arrival_is_arbitrated_first(self, monkeypatch):
        sim = Simulator()
        port = _port(sim, out_entries=[GateEntry(self.CLOSED_5_3, 1000),
                                       GateEntry(0xFF, 1_000_000)])
        sent = []
        port.attach(lambda f: sent.append((sim.now, f.pcp)))
        kicks = self._kicks(monkeypatch)
        port.enqueue(_frame(pcp=3), 3)  # lone: wakes at 1000
        sim.post_at(100, lambda: port.enqueue(_frame(pcp=5), 5))
        sim.run(until=100_000)
        assert sent == [(1000 + 512, 5), (1000 + 672 + 512, 3)]
        assert 1000 in kicks  # the wakeup re-arbitrated

    def test_busy_wire_at_the_boundary_defers_the_start(self, monkeypatch):
        sim = Simulator()
        port = _port(sim, out_entries=[GateEntry(self.CLOSED_3, 1000),
                                       GateEntry(0xFF, 1_000_000)])
        sent = []
        port.attach(lambda f: sent.append((sim.now, f.pcp)))
        kicks = self._kicks(monkeypatch)
        port.enqueue(_frame(pcp=3), 3)  # lone: wakes at 1000
        # Queue 5 is open: this frame holds the wire from 700 to 1372.
        sim.post_at(700, lambda: port.enqueue(_frame(pcp=5), 5))
        sim.run(until=100_000)
        assert sent == [(700 + 512, 5), (700 + 672 + 512, 3)]
        assert 1000 in kicks

    def test_rate_change_before_the_boundary_falls_back(self, monkeypatch):
        # The lone frame's window opens at 2000; a clock slowed by 2 % at
        # 500 keeps the committed boundary at 1000 and moves the next one
        # to 1000 + 1020, so the frame may start only at 2020.
        sim = Simulator()
        clock = LocalClock(sim)
        port = _port(sim, clock=clock, out_entries=[
            GateEntry(self.CLOSED_3, 1000), GateEntry(self.CLOSED_3, 1000),
            GateEntry(0xFF, 1000),
        ])
        delivered = []
        port.attach(lambda f: delivered.append(sim.now))
        kicks = self._kicks(monkeypatch)
        port.enqueue(_frame(pcp=3), 3)
        sim.post_at(500, lambda: clock.set_drift_ppm(-20_000))
        sim.run(until=2999)
        assert kicks == [2000, 2020]
        assert delivered == [2020 + 512]

    @pytest.mark.parametrize("options", [
        dict(scheduler=DeficitRoundRobinScheduler()),
        dict(scheduler=StrictPriorityScheduler(shapers={
            3: CreditBasedShaper(CbsParams.for_reservation(10**8, GBPS)),
        })),
        dict(preemption_enabled=True),
    ], ids=["drr", "shaped-queue", "preempting"])
    def test_other_ports_keep_the_arbitrating_wakeup(
        self, monkeypatch, options
    ):
        sim = Simulator()
        port = _port(sim, out_entries=[GateEntry(self.CLOSED_3, 1000),
                                       GateEntry(0xFF, 1_000_000)],
                     **options)
        delivered = []
        port.attach(lambda f: delivered.append(sim.now))
        wakeups = self._gate_wakeups(monkeypatch)
        port.enqueue(_frame(pcp=3), 3)
        sim.run(until=100_000)
        assert wakeups == [port._gate_wake_fire]
        assert delivered == [1000 + 512]
