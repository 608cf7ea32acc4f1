"""Topology builders and path resolution."""

import pytest

from repro.core.errors import TopologyError
from repro.network.topology import (
    HostAttachment,
    HostUplink,
    TopologySpec,
    TrunkLink,
    linear_topology,
    ring_topology,
    star_topology,
)


class TestRing:
    def test_default_shape(self):
        topo = ring_topology()
        assert len(topo.switches) == 6
        assert topo.max_enabled_ports == 1
        assert topo.hops("talker0", "listener") == 6

    def test_hop_count_tracks_switch_count(self):
        for k in (1, 2, 3, 4):
            topo = ring_topology(switch_count=k, talkers=["t"])
            assert topo.hops("t", "listener") == k

    def test_every_switch_port_consumed(self):
        topo = ring_topology(switch_count=3, talkers=["t"])
        wired = {(t.src, t.src_port) for t in topo.trunks}
        wired |= {(a.switch, a.port) for a in topo.attachments}
        assert wired == {("sw0", 0), ("sw1", 0), ("sw2", 0)}


class TestLinear:
    def test_default_shape(self):
        topo = linear_topology()
        assert topo.max_enabled_ports == 2
        assert topo.hops("talker0", "listener") == 6

    def test_bidirectional_trunks(self):
        topo = linear_topology(switch_count=3, talkers=["t"])
        directed = {(t.src, t.dst) for t in topo.trunks}
        assert ("sw0", "sw1") in directed and ("sw1", "sw0") in directed

    def test_minimum_size(self):
        with pytest.raises(TopologyError):
            linear_topology(switch_count=1)


class TestStar:
    def test_default_shape(self):
        topo = star_topology()
        assert topo.switch_ports["core"] == 3
        assert topo.switch_ports["leaf0"] == 1
        # talker leaf -> core -> listener leaf
        assert topo.hops("talker0", "listener") == 3

    def test_talkers_avoid_listener_leaf(self):
        topo = star_topology()
        listener_leaf = topo.attachments[0].switch
        assert all(u.dst != listener_leaf for u in topo.uplinks)


class TestValidation:
    def test_unknown_switch_in_trunk(self):
        spec = TopologySpec(
            "bad", {"sw0": 1}, trunks=[TrunkLink("sw0", 0, "ghost")]
        )
        with pytest.raises(TopologyError):
            spec.validate()

    def test_port_out_of_range(self):
        spec = TopologySpec(
            "bad", {"sw0": 1, "sw1": 1}, trunks=[TrunkLink("sw0", 5, "sw1")]
        )
        with pytest.raises(TopologyError):
            spec.validate()

    def test_double_wired_port(self):
        spec = TopologySpec(
            "bad",
            {"sw0": 1, "sw1": 1, "sw2": 1},
            trunks=[TrunkLink("sw0", 0, "sw1"), TrunkLink("sw0", 0, "sw2")],
        )
        with pytest.raises(TopologyError, match="wired to both"):
            spec.validate()

    def test_attachment_conflicts_with_trunk(self):
        spec = TopologySpec(
            "bad",
            {"sw0": 1, "sw1": 1},
            trunks=[TrunkLink("sw0", 0, "sw1")],
            attachments=[HostAttachment("sw0", 0, "listener")],
        )
        with pytest.raises(TopologyError, match="wired to both"):
            spec.validate()

    def test_uplink_to_unknown_switch(self):
        spec = TopologySpec(
            "bad", {"sw0": 1}, uplinks=[HostUplink("t", "ghost")]
        )
        with pytest.raises(TopologyError):
            spec.validate()


class TestPaths:
    def test_switch_path_includes_endpoints(self):
        topo = ring_topology(switch_count=4, talkers=["t"])
        assert topo.switch_path("t", "listener") == ["sw0", "sw1", "sw2", "sw3"]

    def test_egress_ports_on_path(self):
        topo = ring_topology(switch_count=3, talkers=["t"])
        assert topo.route("sw0", "sw2") == (
            ("sw0", "sw1", "sw2"), (("sw0", 0), ("sw1", 0))
        )

    def test_no_path_raises(self):
        spec = TopologySpec(
            "split",
            {"sw0": 1, "sw1": 1},
            uplinks=[HostUplink("t", "sw0")],
            attachments=[HostAttachment("sw1", 0, "l")],
        )
        spec.validate()
        with pytest.raises(TopologyError, match="no trunk path"):
            spec.switch_path("t", "l")

    def test_unknown_host(self):
        with pytest.raises(TopologyError):
            ring_topology().host_switch("nobody")

    def test_edited_layout_never_serves_a_stale_route(self):
        """Routes are derived once per layout; replacing a link sequence
        (the only way to edit one -- they are tuples) re-derives them."""
        spec = TopologySpec(
            "edit",
            {"a": 2, "b": 1, "c": 1},
            trunks=[TrunkLink("a", 0, "b"), TrunkLink("b", 0, "c")],
            uplinks=[HostUplink("t", "a")],
            attachments=[HostAttachment("c", 0, "l")],
        )
        assert spec.switch_path("t", "l") == ["a", "b", "c"]
        with pytest.raises(AttributeError):
            spec.trunks.append(TrunkLink("a", 1, "c"))
        spec.trunks += (TrunkLink("a", 1, "c"),)        # a shortcut appears
        spec.validate()
        assert spec.switch_path("t", "l") == ["a", "c"]
        assert spec.route("a", "c") == (("a", "c"), (("a", 1),))
        assert spec.hops("t", "l") == 2
        spec.uplinks = [HostUplink("t", "b")]           # the talker moves
        assert spec.switch_path("t", "l") == ["b", "c"]
        spec.attachments = [HostAttachment("b", 0, "l")]
        assert spec.switch_path("t", "l") == ["b"]
        spec.trunks = spec.trunks[:1]                   # a -> b only
        spec.uplinks = [HostUplink("t", "c")]
        with pytest.raises(TopologyError, match="no trunk path 'c' -> 'b'"):
            spec.switch_path("t", "l")

    def test_route_is_resolved_once_per_switch_pair(self):
        topo = ring_topology(switch_count=5, talkers=["t0", "t1"])
        first = topo.route("sw0", "sw4")
        assert first == (
            ("sw0", "sw1", "sw2", "sw3", "sw4"),
            (("sw0", 0), ("sw1", 0), ("sw2", 0), ("sw3", 0)),
        )
        assert topo.route("sw0", "sw4") is first
        # two talkers on one switch share the chain
        assert topo.switch_path("t0", "listener") == list(first[0])
        assert topo.switch_path("t1", "listener") == list(first[0])
        assert topo.route("sw2", "sw2") == (("sw2",), ())
        with pytest.raises(TopologyError, match="no trunk path 'sw4' -> 'sw0'"):
            topo.route("sw4", "sw0")

    def test_hosts_listing(self):
        topo = ring_topology(talkers=["a", "b"])
        assert set(topo.hosts) == {"a", "b", "listener"}


class TestFrerRing:
    def _topo(self, k=6):
        from repro.network.topology import frer_ring_topology

        return frer_ring_topology(switch_count=k)

    def test_default_shape(self):
        topo = self._topo()
        assert len(topo.switches) == 6
        # sw0 feeds both arcs; everyone else forwards on one port
        assert topo.switch_ports["sw0"] == 2
        assert all(topo.switch_ports[s] == 1 for s in topo.switches
                   if s != "sw0")
        # the listener hangs off both end-of-arc switches
        assert len(topo.attachments) == 2
        assert {a.host for a in topo.attachments} == {"listener"}
        assert len({a.switch for a in topo.attachments}) == 2

    def test_arcs_are_node_disjoint_after_sw0(self):
        topo = self._topo()
        onward = {t.src: t.dst for t in topo.trunks if t.src != "sw0"}
        starts = {t.src_port: t.dst for t in topo.trunks
                  if t.src == "sw0"}

        def arc(first):
            nodes, current = [first], first
            while current in onward:
                current = onward[current]
                nodes.append(current)
            return nodes

        arc_a, arc_b = arc(starts[0]), arc(starts[1])
        assert not set(arc_a) & set(arc_b)
        # each arc terminates at one of the listener's switches
        assert {arc_a[-1], arc_b[-1]} == {a.switch
                                          for a in topo.attachments}

    def test_odd_switch_count(self):
        topo = self._topo(5)
        assert len(topo.switches) == 5
        assert len(topo.attachments) == 2

    def test_minimum_size(self):
        import pytest as _pytest

        from repro.core.errors import TopologyError as _TopologyError
        from repro.network.topology import frer_ring_topology

        with _pytest.raises(_TopologyError):
            frer_ring_topology(switch_count=2)

    def test_validates(self):
        self._topo().validate()
