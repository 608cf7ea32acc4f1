"""End devices."""

from repro.network.host import Host
from repro.network.link import Link
from repro.sim.kernel import Simulator
from repro.switch.packet import EthernetFrame, make_mac


def _frame(host, pcp, size=64):
    return EthernetFrame(host.mac, host.mac + 1, 1, pcp, size, flow_id=pcp)


class TestHost:
    def test_unique_macs(self):
        sim = Simulator()
        a, b = Host(sim, "a"), Host(sim, "b")
        assert a.mac != b.mac

    def test_explicit_index_fixes_the_mac_and_skips_the_counter(self):
        sim = Simulator()
        before = Host._next_index
        a, b = Host(sim, "a", index=3), Host(sim, "b", index=3)
        assert a.mac == b.mac == make_mac(0x8000 + 3)
        assert Host._next_index == before

    def test_nic_pool_is_not_enumerated_up_front(self):
        """32k DRAM slots per host: building the pool must not cost a
        per-slot container (it did: a 32 768-element free list)."""
        import sys
        from collections import deque

        pool = Host(Simulator(), "talker").nic.pool
        assert pool.slots == 32768 and pool.free_count == 32768
        containers = [
            value for value in vars(pool).values()
            if isinstance(value, (list, tuple, dict, set, deque))
        ]
        assert containers                      # the recycle stack, at least
        assert all(sys.getsizeof(c) <= 512 for c in containers)
        assert [pool.allocate(64) for _ in range(3)] == [0, 1, 2]

    def test_inject_serializes_through_nic(self):
        sim = Simulator()
        host = Host(sim, "talker")
        host.start()
        arrivals = []
        Link(sim, host.nic, lambda f: arrivals.append(sim.now),
             propagation_ns=0)
        host.inject(_frame(host, pcp=7))
        sim.run(until=10_000)
        assert arrivals == [512]

    def test_nic_prioritizes_ts_over_be_backlog(self):
        sim = Simulator()
        host = Host(sim, "talker")
        host.start()
        order = []
        Link(sim, host.nic, lambda f: order.append(f.pcp), propagation_ns=0)
        # Three BE frames queue up; a TS frame injected later must pass
        # everything that has not started serializing yet.
        for _ in range(3):
            host.inject(_frame(host, pcp=0, size=1500))
        host.inject(_frame(host, pcp=7))
        sim.run(until=10**6)
        assert order[0] == 0        # in flight, cannot preempt
        assert order[1] == 7        # TS overtakes the rest
        assert order[2:] == [0, 0]

    def test_receive_hook(self):
        sim = Simulator()
        host = Host(sim, "listener")
        seen = []
        host.on_receive = seen.append
        frame = _frame(host, 7)
        host.receive(frame)
        assert seen == [frame] and host.received == 1

    def test_receive_without_hook_counts(self):
        sim = Simulator()
        host = Host(sim, "listener")
        host.receive(_frame(host, 7))
        assert host.received == 1

    def test_start_idempotent(self):
        sim = Simulator()
        host = Host(sim, "h")
        host.start()
        host.start()  # must not raise
