"""gPTP (IEEE 802.1AS) time synchronization.

Implements the Time Sync template's three submodules (paper Fig. 5) as a
simulation process:

* **clock collection** -- two-step Sync/Follow_Up exchanges timestamp the
  master's transmit (t1) and the slave's receive (t2), plus periodic
  peer-delay measurement (Pdelay_Req t3/t4, Pdelay_Resp t5/t6);
* **correction calculation** -- mean path delay
  ``((t6 - t3) - (t5 - t4)) / 2``, offset ``t2 - t1 - path_delay``, and the
  neighbor rate ratio from successive Sync pairs;
* **clock correction** -- a :class:`~repro.timesync.servo.PiServo`
  step/slew discipline on the slave's :class:`~repro.sim.clock.LocalClock`.

Every timestamp is quantized to the PHY timestamping granularity (8 ns for
the prototype's 125 MHz FPGA clock), which is what bounds the achievable
precision; the reproduction's acceptance test mirrors the paper's
"synchronization precision on FPGA is less than 50 ns".

Multi-hop domains use the boundary-clock formulation: each node syncs to
its tree parent and serves its own children.  802.1AS proper forwards
corrected Sync with accumulated rate ratios; for the offset budget at the
paper's 3-6 hop scale the boundary model is equivalent and much clearer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.sim.clock import LocalClock
from repro.sim.kernel import Simulator
from .servo import PiServo

__all__ = ["GptpConfig", "GptpNode", "SyncDomain"]


@dataclass(frozen=True)
class GptpConfig:
    """Protocol timing knobs."""

    sync_interval_ns: int = 31_250_000       # 2^-5 s, gPTP's default rate
    pdelay_interval_ns: int = 125_000_000
    timestamp_granularity_ns: int = 8        # 125 MHz PHY timestamping
    turnaround_ns: int = 1_000               # Pdelay responder latency


class GptpNode:
    """One clock in the sync tree."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        clock: LocalClock,
        config: GptpConfig = GptpConfig(),
    ) -> None:
        self._sim = sim
        self.name = name
        self.clock = clock
        self.config = config
        self.parent: Optional["GptpNode"] = None
        self.link_delay_ns = 0          # true one-way delay to parent
        self.children: List["GptpNode"] = []
        self.servo = PiServo(clock)
        self.path_delay_est_ns: Optional[int] = None
        self._last_sync: Optional[Tuple[int, int]] = None  # (t1, t2)
        self.sync_count = 0

    # -------------------------------------------------------------- helpers

    def _stamp(self, clock: LocalClock) -> int:
        gran = self.config.timestamp_granularity_ns
        return clock.now() // gran * gran

    @property
    def is_grandmaster(self) -> bool:
        return self.parent is None

    def offset_from(self, reference: "GptpNode") -> int:
        """Current true offset vs *reference* (ns, observable in sim only)."""
        return self.clock.now() - reference.clock.now()

    # --------------------------------------------------------- peer delay

    def measure_path_delay(self) -> None:
        """One Pdelay_Req/Resp exchange with the parent."""
        if self.parent is None:
            return
        t3 = self._stamp(self.clock)
        # Request propagates to the parent...
        def at_parent() -> None:
            t4 = self._stamp(self.parent.clock)
            def respond() -> None:
                t5 = self._stamp(self.parent.clock)
                def back_at_child() -> None:
                    t6 = self._stamp(self.clock)
                    turn = t5 - t4
                    self.path_delay_est_ns = max(0, ((t6 - t3) - turn) // 2)
                self._sim.post(self.link_delay_ns, back_at_child)
            self._sim.post(self.config.turnaround_ns, respond)
        self._sim.post(self.link_delay_ns, at_parent)

    def _pdelay_tick(self) -> None:
        """The periodic pdelay process: one exchange, then the next tick."""
        self.measure_path_delay()
        self._sim.post(self.config.pdelay_interval_ns, self._pdelay_tick)

    # -------------------------------------------------------------- syncing

    def send_sync_to_children(self) -> None:
        """Master role: one Sync/Follow_Up toward every child."""
        for child in self.children:
            t1 = self._stamp(self.clock)
            self._sim.post(
                child.link_delay_ns, lambda c=child, t=t1: c._on_sync(t)
            )

    def _on_sync(self, t1: int) -> None:
        t2 = self._stamp(self.clock)
        self.sync_count += 1
        if self.path_delay_est_ns is None:
            # Cannot correct yet; the first pdelay exchange is in flight.
            self._last_sync = (t1, t2)
            return
        offset = t2 - t1 - self.path_delay_est_ns
        rate_ratio: Optional[float] = None
        if self._last_sync is not None:
            dt1 = t1 - self._last_sync[0]
            dt2 = t2 - self._last_sync[1]
            if dt2 > 0 and dt1 > 0:
                rate_ratio = dt1 / dt2
        self.servo.observe(offset, rate_ratio)
        self._last_sync = (t1, self._stamp(self.clock))


class SyncDomain:
    """A gPTP tree over a set of named clocks.

    >>> domain = SyncDomain(sim, config=GptpConfig())      # doctest: +SKIP
    >>> gm = domain.add_node("sw0", clock0)
    >>> domain.add_node("sw1", clock1, parent="sw0", link_delay_ns=500)
    >>> domain.start()
    >>> sim.run(until=2_000_000_000)
    >>> domain.max_abs_offset_ns() < 50

    **Grandmaster failover (BMCA).** 802.1AS elects the grandmaster with
    the Best Master Clock Algorithm and re-elects on announce timeout.
    The domain implements the election outcome: give nodes priorities
    (lower wins, like BMCA's priority1), call :meth:`fail_node` on the
    acting grandmaster, and after ``announce timeout`` the best surviving
    node takes over, the sync tree re-roots along the recorded physical
    adjacency, and the slaves' servos re-lock to the new master.
    """

    def __init__(self, sim: Simulator, config: GptpConfig = GptpConfig()):
        self._sim = sim
        self.config = config
        self.nodes: Dict[str, GptpNode] = {}
        self._grandmaster: Optional[GptpNode] = None
        self._started = False
        self.priorities: Dict[str, int] = {}
        self._adjacency: Dict[str, Dict[str, int]] = {}
        self._failed: set = set()
        #: Announce timeout: a dead grandmaster is detected after this many
        #: sync intervals without announces (802.1AS default is 3).
        self.announce_timeout_intervals = 3
        self._missed_announces = 0
        self.elections = 0
        #: Recovery observability (read by the fault-injection report):
        #: sim timestamps of grandmaster failures and of the elections that
        #: healed them.
        self.gm_failure_times_ns: List[int] = []
        self.election_times_ns: List[int] = []

    def add_node(
        self,
        name: str,
        clock: LocalClock,
        parent: Optional[str] = None,
        link_delay_ns: int = 500,
        priority: Optional[int] = None,
    ) -> GptpNode:
        """Add a clock; the first parent-less node is the acting grandmaster.

        *priority* is the BMCA rank for failover elections (lower wins;
        defaults to the insertion order, so the initial grandmaster is also
        the best-ranked node).
        """
        if name in self.nodes:
            raise ConfigurationError(f"duplicate gPTP node {name!r}")
        node = GptpNode(self._sim, name, clock, self.config)
        if parent is None:
            if self._grandmaster is not None:
                raise ConfigurationError(
                    f"{name!r}: grandmaster already is "
                    f"{self._grandmaster.name!r}"
                )
            self._grandmaster = node
        else:
            if parent not in self.nodes:
                raise ConfigurationError(f"unknown parent {parent!r}")
            node.parent = self.nodes[parent]
            node.link_delay_ns = link_delay_ns
            self.nodes[parent].children.append(node)
            self._adjacency.setdefault(parent, {})[name] = link_delay_ns
            self._adjacency.setdefault(name, {})[parent] = link_delay_ns
        self.priorities[name] = (
            priority if priority is not None else len(self.nodes)
        )
        self.nodes[name] = node
        return node

    def add_link(self, a: str, b: str, link_delay_ns: int = 500) -> None:
        """Record extra physical adjacency (a re-rooting path for BMCA)."""
        for name in (a, b):
            if name not in self.nodes:
                raise ConfigurationError(f"unknown gPTP node {name!r}")
        self._adjacency.setdefault(a, {})[b] = link_delay_ns
        self._adjacency.setdefault(b, {})[a] = link_delay_ns

    @property
    def grandmaster(self) -> GptpNode:
        if self._grandmaster is None:
            raise ConfigurationError("sync domain has no grandmaster")
        return self._grandmaster

    # -------------------------------------------------------------- running

    def start(self) -> None:
        """Arm the periodic pdelay and sync processes."""
        if self._started:
            raise ConfigurationError("sync domain already started")
        if self._grandmaster is None:
            raise ConfigurationError("sync domain has no grandmaster")
        self._started = True
        # Every node runs the pdelay process (a no-op while it has no
        # parent) so re-rooted slaves keep measuring after a failover.
        for node in self.nodes.values():
            if node.parent is not None:
                node.measure_path_delay()
            self._sim.post(self.config.pdelay_interval_ns, node._pdelay_tick)
        self._sim.post(self.config.sync_interval_ns, self._sync_tick)

    def _sync_tick(self) -> None:
        """The periodic sync process, one sync interval per tick."""
        # Announce supervision: a dead grandmaster stops announcing;
        # after the timeout the survivors elect a new one.
        assert self._grandmaster is not None
        if self._grandmaster.name in self._failed:
            self._missed_announces += 1
            if self._missed_announces >= self.announce_timeout_intervals:
                self._elect_new_grandmaster()
        else:
            self._missed_announces = 0
        # Boundary-clock cascade: every non-leaf node masters its
        # children off its own (already disciplined) clock.
        for node in self.nodes.values():
            if node.name in self._failed:
                continue
            node.send_sync_to_children()
        self._sim.post(self.config.sync_interval_ns, self._sync_tick)

    def unlink(self) -> None:
        """Dissolve the parent/child tree (teardown).

        Nodes then reference no other node; clocks, offsets and the
        failover record stay readable.  A domain cannot sync afterwards.
        """
        for node in self.nodes.values():
            node.parent = None
            node.children = []

    # ------------------------------------------------------------- failover

    def fail_node(self, name: str) -> None:
        """Kill a node's protocol engine (its clock keeps free-running)."""
        if name not in self.nodes:
            raise ConfigurationError(f"unknown gPTP node {name!r}")
        if name in self._failed:
            return
        self._failed.add(name)
        if self._grandmaster is not None and self._grandmaster.name == name:
            self.gm_failure_times_ns.append(self._sim.now)

    def restore_node(self, name: str) -> None:
        """Bring a failed node's protocol engine back (as a slave).

        The node rejoins the running tree under its best live neighbor --
        a local graft, not a full re-root, so every *other* node keeps its
        parent, path-delay estimate and servo state undisturbed.  A node
        restored while still wired as grandmaster (it failed but the
        announce timeout has not elapsed yet) simply resumes announcing.
        """
        if name not in self.nodes:
            raise ConfigurationError(f"unknown gPTP node {name!r}")
        if name not in self._failed:
            return
        self._failed.discard(name)
        node = self.nodes[name]
        if self._grandmaster is not None and self._grandmaster.name == name:
            return  # never deposed: it just resumes its grandmaster role
        if node.parent is not None and node.parent.name not in self._failed:
            return  # old attachment is still live
        # Graft under the best (BMCA-ranked) live, tree-connected neighbor.
        candidates = [
            neighbor
            for neighbor in self._adjacency.get(name, {})
            if neighbor not in self._failed
            and self._in_tree(self.nodes[neighbor])
        ]
        if not candidates:
            return  # isolated: keeps free-running until topology heals
        parent_name = min(candidates, key=lambda n: (self.priorities[n], n))
        if node.parent is not None and node in node.parent.children:
            node.parent.children.remove(node)
        parent = self.nodes[parent_name]
        node.parent = parent
        node.link_delay_ns = self._adjacency[name][parent_name]
        node.path_delay_est_ns = None
        node._last_sync = None
        if node not in parent.children:
            parent.children.append(node)
        node.measure_path_delay()

    def _in_tree(self, node: GptpNode) -> bool:
        """True when *node* has a live path up to the acting grandmaster."""
        seen = set()
        while node is not None:
            if node.name in seen or node.name in self._failed:
                return False
            seen.add(node.name)
            if node is self._grandmaster:
                return True
            node = node.parent
        return False

    def _elect_new_grandmaster(self) -> None:
        """BMCA outcome: best surviving priority wins; tree re-roots."""
        survivors = [n for n in self.nodes if n not in self._failed]
        if not survivors:
            raise ConfigurationError("every gPTP node has failed")
        winner = min(survivors, key=lambda n: (self.priorities[n], n))
        self._reroot(winner)
        self.elections += 1
        self.election_times_ns.append(self._sim.now)
        self._missed_announces = 0

    def _reroot(self, new_root: str) -> None:
        """Rebuild the parent/child tree by BFS from *new_root* over the
        recorded adjacency, skipping failed nodes."""
        for node in self.nodes.values():
            node.parent = None
            node.children = []
        root = self.nodes[new_root]
        self._grandmaster = root
        visited = {new_root}
        frontier = [new_root]
        while frontier:
            current = frontier.pop(0)
            for neighbor, delay in self._adjacency.get(current, {}).items():
                if neighbor in visited or neighbor in self._failed:
                    continue
                visited.add(neighbor)
                child = self.nodes[neighbor]
                child.parent = self.nodes[current]
                child.link_delay_ns = delay
                # the path delay to the new parent must be re-measured; the
                # periodic pdelay process keeps running, but seed it now so
                # the next sync can correct immediately
                child.path_delay_est_ns = None
                child._last_sync = None
                self.nodes[current].children.append(child)
                child.measure_path_delay()
                frontier.append(neighbor)

    # ------------------------------------------------------------- queries

    def offsets_ns(self) -> Dict[str, int]:
        """True offset of every node vs the grandmaster, right now."""
        gm = self.grandmaster
        return {
            name: node.offset_from(gm) for name, node in self.nodes.items()
        }

    def max_abs_offset_ns(self) -> int:
        return max(abs(v) for v in self.offsets_ns().values())

    def failover_latencies_ns(self) -> List[int]:
        """Detection+election latency of each healed grandmaster failure.

        Pairs every recorded GM failure with the first election at or after
        it; failures not yet healed contribute nothing.  The announce
        timeout dominates: with gPTP defaults this is ~3 sync intervals.
        """
        latencies: List[int] = []
        elections = list(self.election_times_ns)
        for failed_at in self.gm_failure_times_ns:
            healed = [t for t in elections if t >= failed_at]
            if healed:
                latencies.append(healed[0] - failed_at)
                elections.remove(healed[0])
        return latencies
