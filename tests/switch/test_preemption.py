"""Frame preemption (802.1Qbu / 802.3br)."""

import pytest

from repro.core.units import mbps, ms
from repro.sim.kernel import Simulator
from repro.switch.counters import SwitchCounters
from repro.switch.gates import GateEngine
from repro.switch.packet import EthernetFrame, make_mac
from repro.switch.port import (
    EgressPort,
    MIN_FRAGMENT_BYTES,
    RESUME_OVERHEAD_BYTES,
)
from repro.switch.queueing import BufferPool, MetadataQueue
from repro.switch.scheduler import StrictPriorityScheduler
from repro.switch.tables import GateControlList, GateEntry

GBPS = 10**9


def _frame(pcp, size=64, flow=None):
    return EthernetFrame(make_mac(1), make_mac(2), 1, pcp, size,
                         flow_id=flow if flow is not None else pcp)


def _port(sim, preemption=True):
    queues = [MetadataQueue(64, q) for q in range(8)]
    in_gcl, out_gcl = GateControlList(1), GateControlList(1)
    in_gcl.program([GateEntry(0xFF, 10_000_000)])
    out_gcl.program([GateEntry(0xFF, 10_000_000)])
    gates = GateEngine(sim, in_gcl, out_gcl)
    port = EgressPort(
        sim, 0, GBPS, queues, BufferPool(64), gates,
        StrictPriorityScheduler(), SwitchCounters(),
        preemption_enabled=preemption, express_queues=(6, 7),
    )
    gates.set_on_change(port.kick)
    gates.start()
    return port


class TestPreemptionMechanics:
    def test_express_cuts_through_preemptable_frame(self):
        sim = Simulator()
        port = _port(sim)
        deliveries = []
        port.attach(lambda f: deliveries.append((f.flow_id, sim.now)))
        port.enqueue(_frame(0, size=1500, flow=100), 0)   # 12 us on the wire
        sim.run(until=2_000)                              # 250 B sent
        port.enqueue(_frame(7, size=64, flow=200), 7)     # express arrives
        sim.run(until=50_000)
        order = [flow for flow, _ in deliveries]
        assert order == [200, 100]
        assert port.preemptions == 1
        # express waited only for the 64B-boundary cut, not the full MTU:
        express_time = deliveries[0][1]
        assert express_time < 4_000  # vs ~12.5us without preemption

    def test_without_preemption_express_waits_full_frame(self):
        sim = Simulator()
        port = _port(sim, preemption=False)
        deliveries = []
        port.attach(lambda f: deliveries.append((f.flow_id, sim.now)))
        port.enqueue(_frame(0, size=1500, flow=100), 0)
        sim.run(until=2_000)
        port.enqueue(_frame(7, size=64, flow=200), 7)
        sim.run(until=50_000)
        order = [flow for flow, _ in deliveries]
        assert order == [100, 200]
        assert port.preemptions == 0

    def test_preempted_frame_resumes_with_overhead(self):
        sim = Simulator()
        port = _port(sim)
        deliveries = []
        port.attach(lambda f: deliveries.append((f.flow_id, sim.now)))
        port.enqueue(_frame(0, size=1500, flow=100), 0)
        sim.run(until=2_000)
        port.enqueue(_frame(7, size=64, flow=200), 7)
        sim.run(until=50_000)
        be_time = dict(deliveries)[100]
        # lower bound: 1500B data + express frame + cut tail + resume
        # overhead, all at 8 ns/B
        floor = (1500 + 64 + RESUME_OVERHEAD_BYTES) * 8
        assert be_time > floor

    def test_no_cut_near_frame_end(self):
        """The final fragment must keep >= 64B; a late express frame waits."""
        sim = Simulator()
        port = _port(sim)
        deliveries = []
        port.attach(lambda f: deliveries.append(f.flow_id))
        port.enqueue(_frame(0, size=128, flow=100), 0)
        sim.run(until=600)   # ~75 B sent; cut would leave < 64B remainder
        port.enqueue(_frame(7, size=64, flow=200), 7)
        sim.run(until=50_000)
        assert port.preemptions == 0
        assert deliveries == [100, 200]

    def test_small_preemptable_frame_never_cut(self):
        """64B frames cannot be fragmented at all."""
        sim = Simulator()
        port = _port(sim)
        port.attach(lambda f: None)
        port.enqueue(_frame(0, size=64, flow=100), 0)
        port.enqueue(_frame(7, size=64, flow=200), 7)
        sim.run(until=50_000)
        assert port.preemptions == 0

    def test_express_never_preempts_express(self):
        sim = Simulator()
        port = _port(sim)
        deliveries = []
        port.attach(lambda f: deliveries.append(f.flow_id))
        port.enqueue(_frame(6, size=1500, flow=100), 6)  # express too
        sim.run(until=2_000)
        port.enqueue(_frame(7, size=64, flow=200), 7)
        sim.run(until=50_000)
        assert port.preemptions == 0
        assert deliveries == [100, 200]

    def test_multiple_preemptions_of_one_frame(self):
        sim = Simulator()
        port = _port(sim)
        deliveries = []
        port.attach(lambda f: deliveries.append(f.flow_id))
        port.enqueue(_frame(0, size=1500, flow=100), 0)
        # two express arrivals far enough apart for two separate cuts
        sim.schedule(1_000, lambda: port.enqueue(_frame(7, flow=200), 7))
        sim.schedule(5_000, lambda: port.enqueue(_frame(7, flow=201), 7))
        sim.run(until=100_000)
        assert port.preemptions == 2
        assert deliveries[-1] == 100
        assert set(deliveries) == {100, 200, 201}

    def test_suspended_frame_resumes_before_new_preemptable(self):
        sim = Simulator()
        port = _port(sim)
        deliveries = []
        port.attach(lambda f: deliveries.append(f.flow_id))
        port.enqueue(_frame(0, size=1500, flow=100), 0)
        sim.run(until=2_000)
        port.enqueue(_frame(7, size=64, flow=200), 7)   # forces the cut
        port.enqueue(_frame(5, size=64, flow=300), 5)   # new preemptable
        sim.run(until=100_000)
        # 802.3br: the mPacket in progress completes before queue 5's frame
        assert deliveries == [200, 100, 300]

    def test_buffer_released_exactly_once(self):
        sim = Simulator()
        port = _port(sim)
        port.attach(lambda f: None)
        port.enqueue(_frame(0, size=1500, flow=100), 0)
        sim.run(until=2_000)
        port.enqueue(_frame(7, size=64, flow=200), 7)
        sim.run(until=100_000)
        assert port.pool.in_use == 0
        assert port.pool.stats.releases == port.pool.stats.allocations == 2


class TestPreemptionEndToEnd:
    def test_jitter_collapse_under_background(self):
        from repro.core.presets import customized_config
        from repro.network.testbed import RunPlan, Testbed
        from repro.network.topology import ring_topology
        from repro.traffic.iec60802 import (
            background_flows,
            production_cell_flows,
        )

        def run(preempt):
            topology = ring_topology(switch_count=3, talkers=["talker0"])
            flows = production_cell_flows(["talker0"], "listener",
                                          flow_count=48)
            for flow in background_flows(["talker0"], "listener",
                                         mbps(200), mbps(200)):
                flows.add(flow)
            testbed = Testbed(RunPlan(
                topology, customized_config(1), flows,
                slot_ns=62_500, preemption_enabled=preempt,
            ))
            return testbed.run(duration_ns=ms(30))

        plain = run(False)
        preempted = run(True)
        assert plain.ts_loss == preempted.ts_loss == 0.0
        assert preempted.ts_summary.jitter_ns < plain.ts_summary.jitter_ns / 4
        # BE throughput is preserved (fragments all arrive)
        assert preempted.analyzer.received() == plain.analyzer.received()


class TestPreemptionProperties:
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=25, deadline=None)
    @given(
        be_size=st.integers(min_value=200, max_value=1500),
        express_times=st.lists(
            st.integers(min_value=0, max_value=15_000),
            min_size=0, max_size=4, unique=True,
        ),
    )
    def test_every_frame_delivered_exactly_once(self, be_size,
                                                express_times):
        """Whatever the express arrival pattern, each frame is delivered
        once, buffers balance, and the preemptable frame always finishes."""
        sim = Simulator()
        port = _port(sim)
        delivered = []
        port.attach(lambda f: delivered.append(f.flow_id))
        port.enqueue(_frame(0, size=be_size, flow=100), 0)
        for index, t in enumerate(sorted(express_times)):
            sim.schedule(
                t, lambda i=index: port.enqueue(_frame(7, flow=200 + i), 7)
            )
        sim.run(until=500_000)
        assert delivered.count(100) == 1
        for index in range(len(express_times)):
            assert delivered.count(200 + index) == 1
        assert port.pool.in_use == 0
        assert port.pool.stats.releases == port.pool.stats.allocations
