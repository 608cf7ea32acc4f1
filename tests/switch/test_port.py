"""Egress port: admission, transmission timing, drop accounting."""

import pytest

from repro.core.errors import ConfigurationError, SimulationError
from repro.sim.kernel import Simulator
from repro.sim.trace import NULL_TRACER, Tracer
from repro.switch.counters import SwitchCounters
from repro.switch.gates import CqfPair, GateEngine
from repro.switch.packet import EthernetFrame, make_mac
from repro.switch.port import EgressPort
from repro.switch.queueing import BufferPool, MetadataQueue
from repro.switch.scheduler import StrictPriorityScheduler
from repro.switch.tables import GateControlList, GateEntry

GBPS = 10**9


def _frame(size=64, pcp=7):
    return EthernetFrame(make_mac(1), make_mac(2), 1, pcp, size, flow_id=1)


def _port(sim, depth=4, buffers=8, out_entries=None, in_entries=None,
          pairs=(), tracer=NULL_TRACER):
    queues = [MetadataQueue(depth, q) for q in range(8)]
    in_gcl, out_gcl = GateControlList(2), GateControlList(3)
    in_gcl.program(in_entries or [GateEntry(0xFF, 1_000_000)])
    out_gcl.program(out_entries or [GateEntry(0xFF, 1_000_000)])
    gates = GateEngine(
        sim, in_gcl, out_gcl, cqf_pairs=list(pairs), tracer=tracer
    )
    port = EgressPort(
        sim=sim,
        port_id=0,
        rate_bps=GBPS,
        queues=queues,
        buffer_pool=BufferPool(buffers),
        gates=gates,
        scheduler=StrictPriorityScheduler(),
        counters=SwitchCounters(),
        tracer=tracer,
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
        assert port2.pool.free_count == 7  # dropped frame's slot returned

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

    def test_backlog_accounting(self):
        sim = Simulator()
        port = _port(sim, out_entries=[GateEntry(0x00, 1_000_000)])
        port.attach(lambda f: None)
        port.enqueue(_frame(size=100), 7)
        port.enqueue(_frame(size=200), 3)
        assert port.backlog_frames() == 2
        assert port.backlog_bytes() == 300


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
        assert port.backlog_frames() == 0

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
        assert sim.pending == 1 and sim.peek() == self.WIRE_NS
        assert sim.stats.elided == 0  # the reservation was redeemed
        sim.run(until=100_000)
        assert delivered == [512, 672 + 512, 2 * 672 + 512]
        assert port.backlog_frames() == 0

    def test_backlog_at_start_posts_idle_eagerly(self):
        sim = Simulator()
        port = _port(sim, out_entries=[GateEntry(0x00, 1000),
                                       GateEntry(0xFF, 1_000_000)])
        port.attach(lambda f: None)
        port.enqueue(_frame(), 7)
        port.enqueue(_frame(), 7)
        sim.run(until=1000)  # gate opens: first starts, second is backlog
        assert port.backlog_frames() == 1
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
        sim = Simulator()
        port = _port(sim)

        class Exploding(StrictPriorityScheduler):
            def select(self, *args):
                raise AssertionError("arbitrated an empty port")

        port.scheduler = Exploding()
        port.kick()
