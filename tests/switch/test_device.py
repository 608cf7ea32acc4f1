"""The integrated TsnSwitch device."""

import pytest

from repro.core.config import SwitchConfig
from repro.core.errors import ConfigurationError, TopologyError
from repro.obs.flowspans import FlowSpanRecorder
from repro.cqf.gating import cqf_port_program
from repro.sim.kernel import Simulator
from repro.switch.device import TsnSwitch
from repro.switch.packet import EthernetFrame, make_mac
from repro.switch.port import EgressPort
from repro.switch.tables import CbsParams, GateEntry, UnicastTable


def _config(**kwargs):
    defaults = dict(
        name="dut", port_num=2, unicast_size=64, class_size=64,
        meter_size=64, gate_size=2, queue_num=8, cbs_map_size=3,
        cbs_size=3, queue_depth=8, buffer_num=32,
    )
    defaults.update(kwargs)
    return SwitchConfig(**defaults)


def _frame(src=1, dst=2, vid=5, pcp=7, size=64):
    return EthernetFrame(make_mac(src), make_mac(dst), vid, pcp, size)


class TestConstruction:
    def test_ports_match_config(self):
        switch = TsnSwitch(Simulator(), _config(port_num=3))
        assert len(switch.ports) == 3
        assert len(switch.cbs_tables) == 3

    def test_queue_shapes_match_config(self):
        switch = TsnSwitch(Simulator(), _config(queue_depth=5, queue_num=4))
        port = switch.ports[0]
        assert len(port.queues) == 4
        assert all(q.depth == 5 for q in port.queues)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            TsnSwitch(Simulator(), _config(queue_depth=0))


class TestControlPlane:
    def test_program_flow_validates_port_and_queue(self):
        switch = TsnSwitch(Simulator(), _config())
        with pytest.raises(TopologyError):
            switch.program_flow(make_mac(1), make_mac(2), 1, 7,
                                outport=9, queue_id=7)
        with pytest.raises(ConfigurationError):
            switch.program_flow(make_mac(1), make_mac(2), 1, 7,
                                outport=0, queue_id=8)

    def test_program_paths_matches_one_entry_calls(self):
        one_by_one = TsnSwitch(Simulator(), _config())
        bulk = TsnSwitch(Simulator(), _config())
        flows = [(1, 2, 5, 7, 0, 7, 0), (1, 3, 6, 7, 1, 6, 1),
                 (4, 2, 5, 5, 0, 5, -1)]
        for src, dst, vid, pcp, outport, queue_id, meter_id in flows:
            one_by_one.program_meter(len(one_by_one.pipeline.meters),
                                     8_000 * (vid + 1), 64 * pcp)
            one_by_one.program_flow(make_mac(src), make_mac(dst), vid, pcp,
                                    outport, queue_id, meter_id)
        bulk.program_paths(
            classes=[((make_mac(s), make_mac(d), v, p), (m, q))
                     for s, d, v, p, _o, q, m in flows],
            routes=[((make_mac(d), v), o) for _s, d, v, _p, o, _q, _m in flows],
            meters=[(i, (8_000 * (v + 1), 64 * p))
                    for i, (_s, _d, v, p, *_rest) in enumerate(flows)],
        )
        for table in ("classification", "unicast"):
            assert list(getattr(bulk.pipeline, table)) == list(
                getattr(one_by_one.pipeline, table)
            )
        assert [
            (i, m.rate_bps, m.burst_bytes) for i, m in bulk.pipeline.meters
        ] == [
            (i, m.rate_bps, m.burst_bytes)
            for i, m in one_by_one.pipeline.meters
        ]

    def test_program_paths_writes_each_table_once(self):
        switch = TsnSwitch(Simulator(), _config())
        writes = []
        for name in ("classification", "unicast", "meters"):
            table = getattr(switch.pipeline, name)
            table.on_write = lambda name=name: writes.append(name)
        switch.program_paths(
            classes=[((make_mac(1), make_mac(2), v, 7), (v, 7))
                     for v in range(8)],
            routes=[((make_mac(2), v), 0) for v in range(8)] * 2,
            meters=[(v, (64_000, 256)) for v in range(8)],
        )
        assert sorted(writes) == ["classification", "meters", "unicast"]
        assert len(switch.pipeline.unicast) == 8

    def test_program_paths_refuses_conflicting_routes(self):
        wildcard = UnicastTable.WILDCARD_VID
        switch = TsnSwitch(Simulator(), _config())
        # Within one batch: the same key to two ports...
        with pytest.raises(ConfigurationError, match="vid 5.*repoint to 1"):
            switch.program_paths(routes=[((make_mac(2), 5), 0),
                                         ((make_mac(2), 5), 1)])
        # ...and an exact route after a wildcard pointing elsewhere, as
        # one-by-one installs would refuse; the other order is allowed.
        with pytest.raises(ConfigurationError, match="vid 5.*repoint to 1"):
            switch.program_paths(routes=[((make_mac(2), wildcard), 0),
                                         ((make_mac(2), 5), 1)])
        switch.program_paths(routes=[((make_mac(2), 5), 1),
                                     ((make_mac(2), wildcard), 0)])
        # Against installed entries, exact or wildcard.
        with pytest.raises(ConfigurationError, match="vid 5"):
            switch.program_paths(routes=[((make_mac(2), 5), 0)])
        with pytest.raises(ConfigurationError, match="vid 6.*repoint to 1"):
            switch.program_route(make_mac(2), 6, outport=1)
        assert len(switch.pipeline.unicast) == 2

    def test_program_cbs_installs_shaper(self):
        switch = TsnSwitch(Simulator(), _config())
        params = CbsParams.for_reservation(10**8, 10**9)
        switch.program_cbs(0, queue_id=5, cbs_id=0, params=params)
        assert 5 in switch.ports[0].scheduler.shapers
        assert switch.cbs_tables[0].params(0) == params

    def test_program_gcls_after_start_rejected(self):
        switch = TsnSwitch(Simulator(), _config())
        switch.start()
        in_e, out_e, pairs = cqf_port_program(1000)
        with pytest.raises(ConfigurationError):
            switch.program_gcls(0, in_e, out_e, pairs)

    def test_double_start_rejected(self):
        switch = TsnSwitch(Simulator(), _config())
        switch.start()
        with pytest.raises(ConfigurationError):
            switch.start()

    def test_start_arbitrates_each_port_once(self, monkeypatch):
        # Each port right after its own engine started, in port order.
        kicks = []
        original = EgressPort.kick

        def kick(port):
            kicks.append((port.port_id, port.gates.started))
            original(port)

        monkeypatch.setattr(EgressPort, "kick", kick)
        sim = Simulator()
        switch = TsnSwitch(sim, _config(port_num=3))
        switch.start()
        assert kicks == [(0, True), (1, True), (2, True)]
        sim.run(until=10_000)
        assert len(kicks) == 3


class TestDataplane:
    def _wire(self, switch, port_id=0):
        delivered = []
        switch.ports[port_id].attach(
            lambda frame: delivered.append((frame.flow_id, frame.size_bytes))
        )
        return delivered

    def test_receive_forward_transmit(self):
        sim = Simulator()
        switch = TsnSwitch(sim, _config())
        delivered = self._wire(switch)
        switch.program_flow(make_mac(1), make_mac(2), 5, 7,
                            outport=0, queue_id=7)
        switch.start()
        switch.receive(_frame())
        sim.run(until=1_000_000)
        assert len(delivered) == 1
        assert switch.counters.received == 1
        assert switch.counters.forwarded == 1
        assert switch.counters.transmitted == 1

    def test_processing_delay_applied(self):
        sim = Simulator()
        switch = TsnSwitch(sim, _config(), processing_delay_ns=480)
        arrivals = []
        switch.ports[0].attach(lambda f: arrivals.append(sim.now))
        switch.program_flow(make_mac(1), make_mac(2), 5, 7, 0, 7)
        switch.start()
        switch.receive(_frame(size=64))
        sim.run(until=1_000_000)
        # 480 ns processing + 512 ns serialization
        assert arrivals == [480 + 512]

    def test_ingress_counts_at_pipeline_end_and_stamps_arrival(self):
        sim = Simulator()
        spans = FlowSpanRecorder()
        switch = TsnSwitch(sim, _config(), processing_delay_ns=480,
                           spans=spans, name="sw")
        self._wire(switch)
        switch.program_flow(make_mac(1), make_mac(2), 5, 7, 0, 7)
        switch.start()
        sim.run(until=100)
        switch.receive(_frame())
        switch.receive(_frame().corrupted())
        sim.run(until=579)
        assert switch.counters.received == 0
        sim.run(until=580)
        assert switch.counters.received == 2
        assert switch.counters.dropped_corrupt == 1
        # The good frame is on the wire: its ingress folds into the hop
        # record its port writes for it at run end.
        for port in switch.ports:
            port.record_held_spans()
        assert [(t, kind) for t, kind, *_ in spans.events
                if kind in ("ingress", "drop")] == [
            (100, "ingress"), (100, "ingress"), (100, "drop"),
        ]

    def test_unknown_dst_dropped(self):
        sim = Simulator()
        switch = TsnSwitch(sim, _config())
        self._wire(switch)
        switch.start()
        switch.receive(_frame())
        sim.run(until=1_000_000)
        assert switch.counters.dropped_unknown_dst == 1
        assert switch.counters.forwarded == 0

    def test_attach_host_local_delivery(self):
        sim = Simulator()
        switch = TsnSwitch(sim, _config())
        local = []
        local_port = switch.attach_host(lambda f: local.append(f.flow_id))
        assert local_port == 2  # after the two TSN ports
        switch.program_flow(make_mac(1), make_mac(2), 5, 7,
                            outport=local_port, queue_id=7)
        switch.start()
        switch.receive(_frame())
        sim.run(until=1_000_000)
        assert len(local) == 1

    def test_high_water_reporting(self):
        sim = Simulator()
        switch = TsnSwitch(sim, _config())
        self._wire(switch)
        switch.program_flow(make_mac(1), make_mac(2), 5, 7, 0, 7)
        switch.start()
        for _ in range(3):
            switch.receive(_frame())
        sim.run(until=1_000_000)
        assert max(switch.queue_high_water().values()) >= 1
        assert max(switch.buffer_high_water().values()) >= 1

    def test_cqf_gcls_shape_latency(self):
        """A frame arriving in slot k leaves during slot k+1."""
        sim = Simulator()
        slot = 10_000
        switch = TsnSwitch(sim, _config(), processing_delay_ns=0)
        departures = []
        switch.ports[0].attach(lambda f: departures.append(sim.now))
        in_e, out_e, pairs = cqf_port_program(slot)
        switch.program_gcls(0, in_e, out_e, pairs)
        switch.program_flow(make_mac(1), make_mac(2), 5, 7, 0, 7)
        switch.start()
        switch.receive(_frame())  # arrives in slot 0
        sim.run(until=100_000)
        assert len(departures) == 1
        # departure falls inside slot 1: [slot, 2*slot)
        assert slot <= departures[0] < 2 * slot


class TestBufferSharing:
    """Per-port pools (the paper) vs one shared pool (SMS, related work)."""

    def _burst_port0(self, shared):
        """Burst more frames at port 0 than one per-port pool holds.

        Frames spread over two queues (12 total, 6 each, queue depth 8) so
        the only bound in play is the 8-slot per-port buffer pool; the
        out-gates stay shut to keep buffers allocated.
        """
        sim = Simulator()
        config = _config(port_num=2, buffer_num=8, queue_depth=8,
                         unicast_size=64)
        switch = TsnSwitch(sim, config, shared_buffers=shared)
        closed = [GateEntry(0x00, 10_000_000)]
        opened = [GateEntry(0xFF, 10_000_000)]
        switch.program_gcls(0, opened, closed)
        switch.ports[0].attach(lambda f: None)
        switch.ports[1].attach(lambda f: None)
        switch.program_flow(make_mac(1), make_mac(2), 5, 7, 0, 7)
        switch.program_flow(make_mac(1), make_mac(2), 6, 5, 0, 5)
        switch.start()
        for _ in range(6):
            switch.receive(_frame(vid=5, pcp=7))
            switch.receive(_frame(vid=6, pcp=5))
        sim.run(until=1_000_000)
        return switch

    def test_per_port_pool_overflows(self):
        switch = self._burst_port0(shared=False)
        assert switch.counters.dropped_no_buffer == 4  # 12 - 8

    def test_shared_pool_absorbs_same_burst(self):
        """Same total buffer BRAM (8 x 2 ports), zero drops when shared."""
        switch = self._burst_port0(shared=True)
        assert switch.counters.dropped_no_buffer == 0
        assert switch.ports[0].pool is switch.ports[1].pool

    def test_shared_pool_capacity_is_total(self):
        sim = Simulator()
        config = _config(port_num=3, buffer_num=8)
        switch = TsnSwitch(sim, config, shared_buffers=True)
        assert switch.ports[0].pool.slots == 24


class TestFlowSpans:
    """Every switch receive yields exactly one ingress event, whether a
    hop record folds it or the switch records it."""

    def test_one_ingress_event_per_receive(self):
        sim = Simulator()
        spans = FlowSpanRecorder()
        switch = TsnSwitch(sim, _config(multicast_size=8, queue_depth=1),
                           spans=spans, name="sw")
        for port in switch.ports:
            port.attach(lambda f: None)
        local = switch.attach_host(lambda f: None)
        switch.program_flow(make_mac(1), make_mac(2), 5, 7, 0, 7)
        switch.program_flow(make_mac(1), make_mac(3), 5, 7, local, 7)
        switch.pipeline.multicast.program(7, (0, 1))
        switch.pipeline.multicast.program(8, (local, 1))
        switch.start()
        sim.run(until=100)
        frames = [
            _frame(),             # forwarded: its hop record folds ingress
            _frame(),             # queued behind it
            _frame(),             # refused at admission (depth 1)
            _frame().corrupted(),  # FCS drop
            _frame(dst=9),         # lookup miss
            _frame(dst=3),         # local host
            EthernetFrame(make_mac(1), (1 << 40) | 8, 5, 5, 64),  # local + 1
            EthernetFrame(make_mac(1), (1 << 40) | 7, 5, 6, 64),  # 2 ports
        ]
        for frame in frames:
            switch.receive(frame)
        sim.run(until=1_000_000)
        assert switch.counters.received == len(frames)
        assert switch.counters.dropped_tail == 1
        journeys = {j.frame_id: j for j in spans.journeys()}
        for frame in frames:
            ingress = [(e.time_ns, e.node) for e in
                       journeys[frame.frame_id].events
                       if e.kind == "ingress"]
            assert ingress == [(100, "sw")]
        assert len(spans) == len(spans.events)
        multicast = journeys[frames[-1].frame_id]
        assert [(e.kind, e.node) for e in multicast.events
                if e.kind == "tx"] == [("tx", "sw.p1"), ("tx", "sw.p0")]
        # Each copy's span is whole and carries the one recorded ingress.
        hops = {span.node: span for span in multicast.hop_spans()}
        assert sorted(hops) == ["sw.p0", "sw.p1"]
        for span in hops.values():
            assert span.arrived_ns == 100
            assert span.dequeued_ns is not None and span.tx_ns is not None


class TestMulticast:
    def test_multicast_replicates_to_outport_set(self):
        sim = Simulator()
        config = _config(port_num=2, multicast_size=8)
        switch = TsnSwitch(sim, config)
        deliveries = {0: [], 1: []}
        switch.ports[0].attach(lambda f: deliveries[0].append(f.frame_id))
        switch.ports[1].attach(lambda f: deliveries[1].append(f.frame_id))
        mc_mac = (1 << 40) | 0x0007  # group bit, MC ID 7
        switch.pipeline.multicast.program(7, (0, 1))
        switch.start()
        frame = EthernetFrame(make_mac(1), mc_mac, 5, 7, 64)
        switch.receive(frame)
        sim.run(until=1_000_000)
        assert deliveries[0] == [frame.frame_id]
        assert deliveries[1] == [frame.frame_id]
        # each replica claims its own egress buffer, both released
        assert switch.counters.forwarded == 2
        for port in switch.ports:
            assert port.pool.in_use == 0

    def test_unknown_multicast_group_dropped(self):
        sim = Simulator()
        switch = TsnSwitch(sim, _config(multicast_size=8))
        switch.ports[0].attach(lambda f: None)
        switch.ports[1].attach(lambda f: None)
        switch.start()
        mc_mac = (1 << 40) | 0x0042
        switch.receive(EthernetFrame(make_mac(1), mc_mac, 5, 7, 64))
        sim.run(until=1_000_000)
        assert switch.counters.dropped_unknown_dst == 1
