"""Route oracle: TopologySpec's path queries against the networkx routine.

The reference below builds the ``nx.DiGraph`` exactly as the topology layer
historically did (nodes from ``switch_ports``, one ``add_edge(src, dst,
port=...)`` per trunk in list order) and resolves with ``nx.shortest_path``,
so every equal-length tie, every parallel-trunk port and every error
message is pinned -- whatever the product resolves routes with.
"""

import pytest
from hypothesis import given, settings, strategies as st

nx = pytest.importorskip("networkx")

from repro.core.errors import TopologyError
from repro.network.topology import (
    HostAttachment,
    HostUplink,
    TopologySpec,
    TrunkLink,
    dual_path_topology,
    frer_ring_topology,
    linear_topology,
    ring_topology,
    star_topology,
)


# ---------------------------------------------------------------- reference


def _ref_graph(spec):
    graph = nx.DiGraph()
    graph.add_nodes_from(spec.switch_ports)
    for trunk in spec.trunks:
        graph.add_edge(trunk.src, trunk.dst, port=trunk.src_port)
    return graph


def _ref_hosts(spec):
    return [u.host for u in spec.uplinks] + [a.host for a in spec.attachments]


def _ref_host_switch(spec, host):
    # first match wins: uplinks before attachments, list order within each
    for uplink in spec.uplinks:
        if uplink.host == host:
            return uplink.dst
    for attachment in spec.attachments:
        if attachment.host == host:
            return attachment.switch
    raise TopologyError(f"{spec.name}: unknown host {host!r}")


def _ref_switch_path(spec, src_host, dst_host):
    first = _ref_host_switch(spec, src_host)
    last = _ref_host_switch(spec, dst_host)
    if first == last:
        return [first]
    try:
        return nx.shortest_path(_ref_graph(spec), first, last)
    except nx.NetworkXNoPath:
        raise TopologyError(
            f"{spec.name}: no trunk path {first!r} -> {last!r}"
        ) from None


def _ref_egress_ports_on_path(spec, path):
    graph = _ref_graph(spec)
    pairs = []
    for src, dst in zip(path, path[1:]):
        if not graph.has_edge(src, dst):
            raise TopologyError(f"{spec.name}: no trunk {src!r} -> {dst!r}")
        pairs.append((src, graph.edges[src, dst]["port"]))
    return pairs


def _egress_ports_on_path(spec, path):
    """(switch, egress port) per hop of any switch path, read from the
    product's lowered trunk map (the edge of parallel trunks included)."""
    ports = spec._routes.ports
    pairs = []
    for src, dst in zip(path, path[1:]):
        try:
            pairs.append((src, ports[src][dst]))
        except KeyError:
            raise TopologyError(
                f"{spec.name}: no trunk {src!r} -> {dst!r}"
            ) from None
    return pairs


def _outcome(call, *args):
    """The value, or the TopologyError text -- both must match."""
    try:
        return ("ok", call(*args))
    except TopologyError as exc:
        return ("TopologyError", str(exc))


def _assert_matches_reference(spec, extra_paths=()):
    assert spec.hosts == _ref_hosts(spec)
    names = list(dict.fromkeys(_ref_hosts(spec))) + ["nobody"]
    for host in names:
        assert _outcome(spec.host_switch, host) == _outcome(
            _ref_host_switch, spec, host
        )
    for src in names:
        for dst in names:
            got = _outcome(spec.switch_path, src, dst)
            want = _outcome(_ref_switch_path, spec, src, dst)
            assert got == want, (src, dst)
            hops = _outcome(spec.hops, src, dst)
            if want[0] == "ok":
                assert type(got[1]) is list
                assert hops == ("ok", len(want[1]))
                chain, ports = spec.route(got[1][0], got[1][-1])
                assert list(chain) == want[1]
                assert list(ports) == _ref_egress_ports_on_path(spec, want[1])
            else:
                assert hops == want
    for path in extra_paths:
        assert _outcome(_egress_ports_on_path, spec, path) == _outcome(
            _ref_egress_ports_on_path, spec, path
        ), path


# ------------------------------------------------------------ random specs


@st.composite
def _specs(draw):
    """A valid spec over 2-10 switches and 0-20 trunks.

    Trunk endpoints are drawn with repetition from a small switch set, so
    equal-length alternatives (ties), parallel trunks between one switch
    pair (the last one's port is the edge's port), self-loops and
    unreachable pairs all occur.  Host names come from a pool of four, so
    a host can have two attachments (a FRER listener) or both an uplink and
    an attachment -- ``host_switch`` must keep first-match semantics.
    """
    count = draw(st.integers(2, 10))
    switches = [f"s{i}" for i in range(count)]
    pick = st.sampled_from(switches)
    pairs = draw(st.lists(st.tuples(pick, pick), max_size=20))
    host = st.sampled_from(["h0", "h1", "h2", "h3"])
    uplinks = draw(st.lists(st.tuples(host, pick), min_size=1, max_size=3))
    attached = draw(st.lists(st.tuples(pick, host), min_size=1, max_size=3))
    # every (switch, port) is wired once: number them per switch, in either
    # direction so a route's port is not simply the trunk's rank
    wired = {name: 0 for name in switches}
    for name in [src for src, _ in pairs] + [sw for sw, _ in attached]:
        wired[name] += 1
    descending = draw(st.booleans())
    taken = {name: 0 for name in switches}

    def next_port(name):
        index = taken[name]
        taken[name] += 1
        return wired[name] - 1 - index if descending else index

    trunks = [TrunkLink(src, next_port(src), dst) for src, dst in pairs]
    attachments = [HostAttachment(sw, next_port(sw), h) for sw, h in attached]
    spec = TopologySpec(
        name="random",
        switch_ports={name: max(1, wired[name]) for name in switches},
        trunks=trunks,
        uplinks=[HostUplink(h, sw) for h, sw in uplinks],
        attachments=attachments,
    )
    spec.validate()
    extra_paths = draw(
        st.lists(st.lists(pick, max_size=4), max_size=4)
    )
    return spec, extra_paths


@settings(max_examples=300, deadline=None)
@given(_specs())
def test_random_digraphs_resolve_like_networkx(case):
    spec, extra_paths = case
    _assert_matches_reference(spec, extra_paths)


@settings(max_examples=100, deadline=None)
@given(_specs())
def test_repeated_queries_give_equal_fresh_lists(case):
    """A caller may edit the list it was handed; the next caller must not
    see the edit."""
    spec, _ = case
    src = spec.uplinks[0].host
    dst = spec.attachments[0].host
    first = _outcome(spec.switch_path, src, dst)
    if first[0] != "ok":
        return
    first[1].append("edited")
    again = spec.switch_path(src, dst)
    assert again == _ref_switch_path(spec, src, dst)
    assert list(spec.route(again[0], again[-1])[1]) == \
        _ref_egress_ports_on_path(spec, again)


# ------------------------------------------------------- shipped builders


@pytest.mark.parametrize("count", range(1, 9))
def test_ring_routes(count):
    spec = ring_topology(count, talkers=["t0", "t1"])
    _assert_matches_reference(spec, [spec.switches, spec.switches[::-1]])


@pytest.mark.parametrize("count", range(1, 9))
@pytest.mark.parametrize("talker_index", [0, -1])
def test_ring_routes_from_any_talker_switch(count, talker_index):
    # a talker on the last switch reaches the listener in one hop
    spec = ring_topology(
        count, talkers=["t0"], talker_switch_index=talker_index
    )
    _assert_matches_reference(spec)


@pytest.mark.parametrize("count", range(3, 10))
def test_frer_ring_routes(count):
    spec = frer_ring_topology(count, talkers=["t0", "t1"])
    _assert_matches_reference(spec, [spec.switches])
    # the listener has two attachments and "lives on" the first
    assert spec.host_switch("listener") == spec.attachments[0].switch


@pytest.mark.parametrize("chain_len", range(2, 6))
def test_dual_path_routes(chain_len):
    spec = dual_path_topology(chain_len, talkers=["t0"])
    _assert_matches_reference(spec, [spec.switches])
    assert spec.host_switch("listener") == spec.attachments[0].switch


@pytest.mark.parametrize("count", range(2, 9))
@pytest.mark.parametrize("talker_index", [0, 1, -1])
def test_linear_routes(count, talker_index):
    spec = linear_topology(
        count, talkers=["t0", "t1"], talker_switch_index=talker_index
    )
    _assert_matches_reference(spec, [spec.switches, spec.switches[::-1]])


@pytest.mark.parametrize("children", range(2, 6))
@pytest.mark.parametrize("listener_child", [0, 1])
def test_star_routes(children, listener_child):
    spec = star_topology(
        children,
        talkers=[f"t{i}" for i in range(children + 1)],
        listener_child_index=listener_child,
    )
    _assert_matches_reference(
        spec, [spec.switches, ["leaf0", "core", "leaf1"], ["leaf1", "leaf0"]]
    )


def test_duplicate_host_resolves_to_its_first_entry():
    """``hosts`` lists a twice-attached host twice; ``host_switch`` names
    the first attachment, and an uplink outranks any attachment."""
    spec = TopologySpec(
        name="dup",
        switch_ports={"a": 2, "b": 1, "c": 2},
        trunks=[TrunkLink("a", 0, "b"), TrunkLink("a", 1, "c")],
        uplinks=[HostUplink("t", "a"), HostUplink("t", "b")],
        attachments=[
            HostAttachment("c", 0, "l"),
            HostAttachment("b", 0, "l"),
            HostAttachment("c", 1, "t"),
        ],
    )
    spec.validate()
    assert spec.hosts == ["t", "t", "l", "l", "t"]
    assert spec.host_switch("t") == "a"
    assert spec.host_switch("l") == "c"
    assert spec.switch_path("t", "l") == ["a", "c"]
    _assert_matches_reference(spec)


def test_parallel_trunks_route_over_the_last_one():
    spec = TopologySpec(
        name="parallel",
        switch_ports={"a": 3, "b": 1},
        trunks=[
            TrunkLink("a", 2, "b"),
            TrunkLink("a", 0, "b"),
            TrunkLink("a", 1, "b"),
        ],
        uplinks=[HostUplink("t", "a")],
        attachments=[HostAttachment("b", 0, "l")],
    )
    spec.validate()
    assert spec.route("a", "b") == (("a", "b"), (("a", 1),))
    _assert_matches_reference(spec)


def test_equal_length_tie_follows_the_bidirectional_search():
    """Two 3-switch routes a->d; a forward BFS and networkx's search pick
    differently once the reverse fringe is the smaller one."""
    spec = TopologySpec(
        name="tie",
        switch_ports={"a": 3, "b": 1, "c": 1, "d": 1, "e": 1},
        trunks=[
            TrunkLink("a", 0, "b"),
            TrunkLink("a", 1, "c"),
            TrunkLink("a", 2, "e"),
            TrunkLink("c", 0, "d"),
            TrunkLink("b", 0, "d"),
        ],
        uplinks=[HostUplink("t", "a")],
        attachments=[HostAttachment("d", 0, "l")],
    )
    _assert_matches_reference(spec)
