"""Network topologies: star, ring, linear (paper Section IV.A).

A :class:`TopologySpec` is a directed description of the evaluated network:

* **switches** with a number of enabled TSN ports each;
* **trunk links** -- (switch, egress port) -> switch, the deterministic
  TSN segments;
* **host uplinks** -- talker NIC -> switch ingress;
* **host attachments** -- switch -> locally attached listener (delivered via
  the switch's host/DMA path, not a TSN port -- see
  :meth:`repro.switch.device.TsnSwitch.attach_host`).

The three builders reproduce the paper's setups:

* :func:`ring_topology` -- 6 switches, each with **1** enabled port,
  unidirectional forwarding around the ring (Fig. 6a).
* :func:`linear_topology` -- 6 switches in a chain, each with **2** enabled
  ports (bidirectional forwarding).
* :func:`star_topology` -- a core with 3 child switches (4 total); the core
  has **3** enabled ports, one toward each child.

Path resolution is lowered once per spec into lookup state -- an adjacency
dict ``src -> {dst: port}``, a ``host -> switch`` dict and one memoised
chain (with its egress ports) per distinct ``(first switch, last switch)``
pair -- and every query after that is a dictionary lookup.  The search
behind a chain is a bidirectional BFS whose expansion order decides
equal-length ties; ``tests/network/test_topology_routes.py`` pins it
against the graph-library routine this layer used to call.
``hops(src_host, dst_host)`` counts traversed switches -- the x-axis of
Fig. 7(a).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.errors import TopologyError

__all__ = [
    "TrunkLink",
    "HostUplink",
    "HostAttachment",
    "TopologySpec",
    "ring_topology",
    "frer_ring_topology",
    "dual_path_topology",
    "linear_topology",
    "star_topology",
]


@dataclass(frozen=True)
class TrunkLink:
    """A TSN segment: *src* switch transmits on *src_port* toward *dst*."""

    src: str
    src_port: int
    dst: str


@dataclass(frozen=True)
class HostUplink:
    """A talker's NIC feeding *dst* switch."""

    host: str
    dst: str


@dataclass(frozen=True)
class HostAttachment:
    """A listener wired as the peer of *switch*'s TSN egress *port*.

    In the paper's demo (Fig. 6b) the TSN analyzer is a network member fed
    by a switch's deterministic port, so delivery to the listener passes the
    full Gate Ctrl / Egress Sched machinery of that last hop -- the final
    switch contributes its one-slot CQF delay exactly like every other hop
    in Eq. (1).
    """

    switch: str
    port: int
    host: str


#: A switch chain and the (switch, egress port) of every trunk along it.
Route = Tuple[Tuple[str, ...], Tuple[Tuple[str, int], ...]]


class _Routes:
    """One layout lowered into lookup state (built once per spec)."""

    __slots__ = ("ports", "feeders", "switch_of", "_chains")

    def __init__(
        self,
        trunks: Sequence[TrunkLink],
        uplinks: Sequence[HostUplink],
        attachments: Sequence[HostAttachment],
    ):
        #: src -> {dst: egress port}; of parallel trunks the last one's
        #: port is the edge's, the first one's position its rank.
        self.ports: Dict[str, Dict[str, int]] = {}
        #: dst -> [src, ...] in trunk order (the reverse search's view).
        self.feeders: Dict[str, List[str]] = {}
        for trunk in trunks:
            onward = self.ports.setdefault(trunk.src, {})
            if trunk.dst not in onward:
                self.feeders.setdefault(trunk.dst, []).append(trunk.src)
            onward[trunk.dst] = trunk.src_port
        #: host -> switch, first entry wins: uplinks before attachments,
        #: so a FRER listener lives on its *first* attachment.
        self.switch_of: Dict[str, str] = {}
        for uplink in uplinks:
            self.switch_of.setdefault(uplink.host, uplink.dst)
        for attachment in attachments:
            self.switch_of.setdefault(attachment.host, attachment.switch)
        self._chains: Dict[Tuple[str, str], Optional[Route]] = {}

    def chain(self, first: str, last: str) -> Optional[Route]:
        """Shortest route *first* -> *last*; None when there is none."""
        key = (first, last)
        if key not in self._chains:
            path = self._search(first, last)
            ports = self.ports
            self._chains[key] = None if path is None else (
                tuple(path),
                tuple((s, ports[s][d]) for s, d in zip(path, path[1:])),
            )
        return self._chains[key]

    def _search(self, source: str, target: str) -> Optional[List[str]]:
        """Bidirectional BFS; the order below is the route contract.

        The smaller fringe expands first (forward on a draw), neighbours
        are visited in trunk order and the search stops at the first node
        both sides know -- which is what decides equal-length ties, and
        what the route oracle in the tests holds still.
        """
        if source == target:
            return [source]
        ports, feeders = self.ports, self.feeders
        back: Dict[str, Optional[str]] = {source: None}     # toward source
        onward: Dict[str, Optional[str]] = {target: None}   # toward target
        forward_fringe, reverse_fringe = [source], [target]
        while forward_fringe and reverse_fringe:
            if len(forward_fringe) <= len(reverse_fringe):
                level, forward_fringe = forward_fringe, []
                for v in level:
                    for w in ports.get(v, ()):
                        if w not in back:
                            forward_fringe.append(w)
                            back[w] = v
                        if w in onward:
                            return _join(back, onward, w)
            else:
                level, reverse_fringe = reverse_fringe, []
                for v in level:
                    for w in feeders.get(v, ()):
                        if w not in onward:
                            onward[w] = v
                            reverse_fringe.append(w)
                        if w in back:
                            return _join(back, onward, w)
        return None


def _join(
    back: Dict[str, Optional[str]],
    onward: Dict[str, Optional[str]],
    meet: str,
) -> List[str]:
    """source ... *meet* ... target from the two searches' parent links."""
    path: List[str] = []
    node: Optional[str] = meet
    while node is not None:
        path.append(node)
        node = back[node]
    path.reverse()
    node = onward[meet]
    while node is not None:
        path.append(node)
        node = onward[node]
    return path


@dataclass
class TopologySpec:
    """One complete network layout.

    The link sequences are stored as tuples, and assigning one drops the
    routes derived from the old value (``_routes``): a layout can be edited
    only by replacing a sequence, and an edited layout never serves a
    stale route.
    """

    name: str
    switch_ports: Dict[str, int]
    trunks: Tuple[TrunkLink, ...] = ()
    uplinks: Tuple[HostUplink, ...] = ()
    attachments: Tuple[HostAttachment, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        if name in ("trunks", "uplinks", "attachments"):
            value = tuple(value)
            self.__dict__.pop("_routes", None)
        super().__setattr__(name, value)

    @cached_property
    def _routes(self) -> _Routes:
        return _Routes(self.trunks, self.uplinks, self.attachments)

    # ------------------------------------------------------------ validation

    def validate(self) -> None:
        used_ports: Dict[Tuple[str, int], str] = {}
        for trunk in self.trunks:
            for switch in (trunk.src, trunk.dst):
                if switch not in self.switch_ports:
                    raise TopologyError(f"{self.name}: unknown switch {switch!r}")
            if not 0 <= trunk.src_port < self.switch_ports[trunk.src]:
                raise TopologyError(
                    f"{self.name}: {trunk.src} has no port {trunk.src_port}"
                )
            key = (trunk.src, trunk.src_port)
            if key in used_ports:
                raise TopologyError(
                    f"{self.name}: port {key} wired to both "
                    f"{used_ports[key]!r} and {trunk.dst!r}"
                )
            used_ports[key] = trunk.dst
        for uplink in self.uplinks:
            if uplink.dst not in self.switch_ports:
                raise TopologyError(
                    f"{self.name}: uplink of {uplink.host!r} targets unknown "
                    f"switch {uplink.dst!r}"
                )
        for attachment in self.attachments:
            if attachment.switch not in self.switch_ports:
                raise TopologyError(
                    f"{self.name}: attachment of {attachment.host!r} on "
                    f"unknown switch {attachment.switch!r}"
                )
            if not 0 <= attachment.port < self.switch_ports[attachment.switch]:
                raise TopologyError(
                    f"{self.name}: {attachment.switch} has no port "
                    f"{attachment.port}"
                )
            key = (attachment.switch, attachment.port)
            if key in used_ports:
                raise TopologyError(
                    f"{self.name}: port {key} wired to both "
                    f"{used_ports[key]!r} and {attachment.host!r}"
                )
            used_ports[key] = attachment.host

    # -------------------------------------------------------------- queries

    @property
    def switches(self) -> List[str]:
        return list(self.switch_ports)

    @property
    def hosts(self) -> List[str]:
        return [u.host for u in self.uplinks] + [a.host for a in self.attachments]

    @property
    def max_enabled_ports(self) -> int:
        """The per-switch port requirement (Table III's port_num column)."""
        return max(self.switch_ports.values())

    def host_switch(self, host: str) -> str:
        """The switch a host hangs off (its first uplink or attachment)."""
        try:
            return self._routes.switch_of[host]
        except KeyError:
            raise TopologyError(f"{self.name}: unknown host {host!r}") from None

    def route(self, first: str, last: str) -> Route:
        """Shortest switch chain *first* -> *last* with its egress ports.

        Resolved once per distinct switch pair; both tuples are shared
        between callers.
        """
        route = self._routes.chain(first, last)
        if route is None:
            raise TopologyError(
                f"{self.name}: no trunk path {first!r} -> {last!r}"
            )
        return route

    def switch_path(self, src_host: str, dst_host: str) -> List[str]:
        """Switches traversed from *src_host*'s switch to *dst_host*'s.

        Both endpoints' switches are included; a host attached to its
        talker's own switch yields a single-switch path (1 hop).
        """
        chain, _ = self.route(
            self.host_switch(src_host), self.host_switch(dst_host)
        )
        return list(chain)

    def hops(self, src_host: str, dst_host: str) -> int:
        """Number of TSN switches a flow traverses (Fig. 7a's x-axis)."""
        return len(self.switch_path(src_host, dst_host))


# ------------------------------------------------------------------ builders


def _switch_names(count: int) -> List[str]:
    return [f"sw{i}" for i in range(count)]


def ring_topology(
    switch_count: int = 6,
    talkers: Sequence[str] = ("talker0", "talker1", "talker2"),
    listener: str = "listener",
    talker_switch_index: int = 0,
) -> TopologySpec:
    """The paper's ring: unidirectional, one enabled TSN port per switch.

    In the demo (Fig. 6b) switches and end devices form one loop; measured
    flows enter at a TSNNic, traverse the ring switches, and terminate at
    the analyzer, which is itself a ring member.  We model exactly that
    measured segment: ``sw0 -> sw1 -> ... -> sw{n-1} -> listener``, each
    switch using its single enabled port -- so a flow from a talker on
    ``sw0`` traverses ``switch_count`` switches (the Fig. 7a hop count).
    The return arc of the loop carries no measured traffic and is elided.
    """
    if switch_count < 1:
        raise TopologyError("ring needs at least 1 switch")
    names = _switch_names(switch_count)
    trunks = [
        TrunkLink(names[i], 0, names[i + 1]) for i in range(switch_count - 1)
    ]
    spec = TopologySpec(
        name="ring",
        switch_ports={name: 1 for name in names},
        trunks=trunks,
        uplinks=[HostUplink(t, names[talker_switch_index]) for t in talkers],
        attachments=[HostAttachment(names[-1], 0, listener)],
    )
    spec.validate()
    return spec


def frer_ring_topology(
    switch_count: int = 6,
    talkers: Sequence[str] = ("talker0",),
    listener: str = "listener",
) -> TopologySpec:
    """A ring carrying FRER member streams both ways round.

    The 802.1CB variant of the paper's ring: the talker switch ``sw0``
    enables two ports and feeds each replica around the loop in opposite
    directions -- clockwise over ``sw1..sw{a}`` and counter-clockwise over
    ``sw{n-1}..sw{a+1}`` -- and the listener attaches at the far end of
    *both* arcs.  As in :func:`ring_topology`, the arc segment that carries
    no measured traffic (here the one between the two listener switches) is
    elided, which also makes each replica's shortest path unique and the
    two paths edge-disjoint: any single trunk cut leaves one arc intact.
    """
    if switch_count < 3:
        raise TopologyError("FRER ring needs at least 3 switches")
    names = _switch_names(switch_count)
    split = switch_count // 2
    clockwise = names[1:split + 1]
    counter = names[:split:-1]  # sw{n-1}, ..., sw{split+1}
    trunks = [TrunkLink(names[0], 0, clockwise[0])]
    for src, dst in zip(clockwise, clockwise[1:]):
        trunks.append(TrunkLink(src, 0, dst))
    trunks.append(TrunkLink(names[0], 1, counter[0]))
    for src, dst in zip(counter, counter[1:]):
        trunks.append(TrunkLink(src, 0, dst))
    spec = TopologySpec(
        name="frer-ring",
        switch_ports={names[0]: 2, **{name: 1 for name in names[1:]}},
        trunks=trunks,
        uplinks=[HostUplink(t, names[0]) for t in talkers],
        attachments=[
            HostAttachment(clockwise[-1], 0, listener),
            HostAttachment(counter[-1], 0, listener),
        ],
    )
    spec.validate()
    return spec


def linear_topology(
    switch_count: int = 6,
    talkers: Sequence[str] = ("talker0", "talker1", "talker2"),
    listener: str = "listener",
    talker_switch_index: int = 0,
) -> TopologySpec:
    """The paper's linear chain: two enabled ports, bidirectional forwarding.

    Port 0 faces "east" (toward higher indices), port 1 "west"; the
    listener terminates the east end off ``sw{n-1}``'s port 0.  Measured
    flows run eastward; the westward ports exist (and are counted in the
    2-port resource budget) for the reverse direction.
    """
    if switch_count < 2:
        raise TopologyError("linear needs at least 2 switches")
    names = _switch_names(switch_count)
    trunks = []
    for i in range(switch_count - 1):
        trunks.append(TrunkLink(names[i], 0, names[i + 1]))      # east
        trunks.append(TrunkLink(names[i + 1], 1, names[i]))      # west
    spec = TopologySpec(
        name="linear",
        switch_ports={name: 2 for name in names},
        trunks=trunks,
        uplinks=[HostUplink(t, names[talker_switch_index]) for t in talkers],
        attachments=[HostAttachment(names[-1], 0, listener)],
    )
    spec.validate()
    return spec


def dual_path_topology(
    chain_len: int = 3,
    talkers: Sequence[str] = ("talker0",),
    listener: str = "listener",
) -> TopologySpec:
    """Two edge-disjoint paths from one head switch to one listener.

    The FRER (802.1CB) topology: talkers feed ``head``, which forwards each
    replica down its own chain (``a1..a{n-1}`` on port 0, ``b1..b{n-1}`` on
    port 1); both chains terminate at the *same* listener via separate
    attachments.  Any single trunk failure leaves one path intact.
    ``chain_len`` counts the switches on each path including the shared
    head, so a replica traverses ``chain_len`` switches.
    """
    if chain_len < 2:
        raise TopologyError("dual-path needs at least 2 switches per path")
    head = "head"
    chain_a = [f"a{i}" for i in range(1, chain_len)]
    chain_b = [f"b{i}" for i in range(1, chain_len)]
    switch_ports = {head: 2}
    switch_ports.update({name: 1 for name in chain_a + chain_b})
    trunks = [TrunkLink(head, 0, chain_a[0]), TrunkLink(head, 1, chain_b[0])]
    for chain in (chain_a, chain_b):
        for src, dst in zip(chain, chain[1:]):
            trunks.append(TrunkLink(src, 0, dst))
    spec = TopologySpec(
        name="dual-path",
        switch_ports=switch_ports,
        trunks=trunks,
        uplinks=[HostUplink(t, head) for t in talkers],
        attachments=[
            HostAttachment(chain_a[-1], 0, listener),
            HostAttachment(chain_b[-1], 0, listener),
        ],
    )
    spec.validate()
    return spec


def star_topology(
    child_count: int = 3,
    talkers: Sequence[str] = ("talker0", "talker1", "talker2"),
    listener: str = "listener",
    listener_child_index: int = 0,
) -> TopologySpec:
    """The paper's star: a core with *child_count* children (4 switches).

    The core enables one port per child (3 for the default, Table III's
    star column); each child enables one port.  Talker children point that
    port at the core; the listener child points it at the listener, so a
    measured flow traverses talker-leaf -> core -> listener-leaf = 3
    switches.
    """
    if child_count < 2:
        raise TopologyError("star needs at least 2 children")
    core = "core"
    children = [f"leaf{i}" for i in range(child_count)]
    trunks = []
    for i, child in enumerate(children):
        trunks.append(TrunkLink(core, i, child))       # core port i -> child i
        if i != listener_child_index:
            trunks.append(TrunkLink(child, 0, core))   # child port 0 -> core
    talker_children = [
        children[i]
        for i in range(child_count)
        if i != listener_child_index
    ]
    uplinks = [
        HostUplink(talker, talker_children[i % len(talker_children)])
        for i, talker in enumerate(talkers)
    ]
    spec = TopologySpec(
        name="star",
        switch_ports={core: child_count, **{c: 1 for c in children}},
        trunks=trunks,
        uplinks=uplinks,
        attachments=[
            HostAttachment(children[listener_child_index], 0, listener)
        ],
    )
    spec.validate()
    return spec
