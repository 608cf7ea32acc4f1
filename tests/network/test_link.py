"""Links: delay lines between ports and receivers."""

import pytest

from repro.core.errors import ConfigurationError
from repro.network.link import Link
from repro.sim.kernel import Simulator
from repro.switch.counters import SwitchCounters
from repro.switch.gates import GateEngine
from repro.switch.packet import EthernetFrame, make_mac
from repro.switch.port import EgressPort
from repro.switch.queueing import BufferPool, MetadataQueue
from repro.switch.scheduler import StrictPriorityScheduler
from repro.switch.tables import GateControlList, GateEntry


def _port(sim):
    in_gcl, out_gcl = GateControlList(1), GateControlList(1)
    in_gcl.program([GateEntry(0xFF, 10**6)])
    out_gcl.program([GateEntry(0xFF, 10**6)])
    gates = GateEngine(sim, in_gcl, out_gcl)
    port = EgressPort(
        sim, 0, 10**9,
        [MetadataQueue(8, q) for q in range(8)],
        BufferPool(8), gates, StrictPriorityScheduler(), SwitchCounters(),
    )
    gates.start()
    port.kick()
    return port


def _frame():
    return EthernetFrame(make_mac(1), make_mac(2), 1, 7, 64)


class TestLink:
    def test_adds_propagation_delay(self):
        sim = Simulator()
        port = _port(sim)
        arrivals = []
        Link(sim, port, lambda f: arrivals.append(sim.now), propagation_ns=500)
        port.enqueue(_frame(), 7)
        sim.run(until=10_000)
        assert arrivals == [512 + 500]

    def test_counts_frames(self):
        sim = Simulator()
        port = _port(sim)
        link = Link(sim, port, lambda f: None, propagation_ns=0)
        port.enqueue(_frame(), 7)
        port.enqueue(_frame(), 7)
        sim.run(until=10_000)
        assert link.frames_carried == 2

    def test_preserves_order(self):
        sim = Simulator()
        port = _port(sim)
        seqs = []
        Link(sim, port, lambda f: seqs.append(f.frame_id))
        first, second = _frame(), _frame()
        port.enqueue(first, 7)
        port.enqueue(second, 7)
        sim.run(until=10_000)
        assert seqs == [first.frame_id, second.frame_id]

    def test_negative_propagation_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            Link(sim, _port(sim), lambda f: None, propagation_ns=-1)


class TestFailureInjection:
    def test_error_rate_drops_reproducibly(self):
        import random as _random

        def run(seed):
            sim = Simulator()
            port = _port(sim)
            arrivals = []
            Link(sim, port, lambda f: arrivals.append(sim.now),
                 error_rate=0.5, rng=_random.Random(seed))
            for _ in range(20):
                port.enqueue(_frame(), 7)
            sim.run(until=10**6)
            return arrivals

        first = run(7)
        assert first == run(7)
        assert 0 < len(first) < 20

    def test_corruption_counted(self):
        import random as _random
        sim = Simulator()
        port = _port(sim)
        link = Link(sim, port, lambda f: None, error_rate=1.0,
                    rng=_random.Random(1))
        port.enqueue(_frame(), 7)
        sim.run(until=10**6)
        assert link.frames_corrupted == 1 and link.frames_carried == 0

    def test_lossy_link_requires_rng(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            Link(sim, _port(sim), lambda f: None, error_rate=0.1)

    def test_invalid_error_rate(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            Link(sim, _port(sim), lambda f: None, error_rate=1.5)

    def test_fail_and_restore(self):
        sim = Simulator()
        port = _port(sim)
        arrivals = []
        link = Link(sim, port, lambda f: arrivals.append(sim.now))
        link.fail()
        port.enqueue(_frame(), 7)
        sim.run(until=10_000)
        assert arrivals == [] and link.frames_blackholed == 1
        link.restore()
        port.enqueue(_frame(), 7)
        sim.run(until=20_000)
        assert len(arrivals) == 1
