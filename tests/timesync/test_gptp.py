"""gPTP synchronization domains."""

import random

import pytest

from repro.core.errors import ConfigurationError
from repro.sim.clock import LocalClock
from repro.sim.kernel import Simulator
from repro.timesync.gptp import GptpConfig, SyncDomain


def _chain(sim, hops, drift_range=20.0, offset_range=1_000_000, seed=0,
           config=None):
    rng = random.Random(seed)
    domain = SyncDomain(sim, config or GptpConfig())
    domain.add_node("gm", LocalClock(sim))
    prev = "gm"
    for i in range(hops):
        clock = LocalClock(
            sim,
            drift_ppm=rng.uniform(-drift_range, drift_range),
            offset_ns=rng.randrange(-offset_range, offset_range),
        )
        name = f"sw{i}"
        domain.add_node(name, clock, parent=prev, link_delay_ns=500)
        prev = name
    return domain


class TestConvergence:
    def test_paper_precision_budget(self):
        """The paper's prototype: 'synchronization precision ... less than
        50ns'.  A 5-hop chain with +-20ppm drift must land under that."""
        sim = Simulator()
        domain = _chain(sim, hops=5)
        domain.start()
        sim.run(until=3_000_000_000)
        assert domain.max_abs_offset_ns() < 50
        assert all(node.servo.locked for node in domain.nodes.values()
                   if node.parent is not None)

    def test_initial_offsets_stepped_out_quickly(self):
        sim = Simulator()
        domain = _chain(sim, hops=2, offset_range=10_000_000)
        domain.start()
        sim.run(until=500_000_000)
        assert domain.max_abs_offset_ns() < 1_000

    def test_path_delay_measured(self):
        sim = Simulator()
        domain = _chain(sim, hops=1, drift_range=0, offset_range=1)
        domain.start()
        sim.run(until=300_000_000)
        node = domain.nodes["sw0"]
        # true one-way delay is 500 ns; estimate within timestamp granularity
        assert node.path_delay_est_ns == pytest.approx(500, abs=16)

    def test_sync_counts_accumulate(self):
        sim = Simulator()
        config = GptpConfig(sync_interval_ns=10_000_000)
        domain = _chain(sim, hops=1, config=config)
        domain.start()
        sim.run(until=100_000_000)
        assert domain.nodes["sw0"].sync_count >= 9


class TestDomainConstruction:
    def test_duplicate_node_rejected(self):
        sim = Simulator()
        domain = SyncDomain(sim)
        domain.add_node("a", LocalClock(sim))
        with pytest.raises(ConfigurationError):
            domain.add_node("a", LocalClock(sim), parent="a")

    def test_two_grandmasters_rejected(self):
        sim = Simulator()
        domain = SyncDomain(sim)
        domain.add_node("a", LocalClock(sim))
        with pytest.raises(ConfigurationError):
            domain.add_node("b", LocalClock(sim))

    def test_unknown_parent_rejected(self):
        sim = Simulator()
        domain = SyncDomain(sim)
        domain.add_node("a", LocalClock(sim))
        with pytest.raises(ConfigurationError):
            domain.add_node("b", LocalClock(sim), parent="ghost")

    def test_start_without_grandmaster_rejected(self):
        with pytest.raises(ConfigurationError):
            SyncDomain(Simulator()).start()

    def test_double_start_rejected(self):
        sim = Simulator()
        domain = _chain(sim, hops=1)
        domain.start()
        with pytest.raises(ConfigurationError):
            domain.start()

    def test_offsets_relative_to_grandmaster(self):
        sim = Simulator()
        domain = _chain(sim, hops=2)
        offsets = domain.offsets_ns()
        assert offsets["gm"] == 0
        assert set(offsets) == {"gm", "sw0", "sw1"}


class TestBmcaFailover:
    def _ring_domain(self, sim):
        """A 4-node chain with extra adjacency so re-rooting has paths."""
        rng = random.Random(3)
        domain = SyncDomain(sim, GptpConfig(sync_interval_ns=10_000_000))
        domain.add_node("gm", LocalClock(sim), priority=0)
        prev = "gm"
        for i in range(3):
            clock = LocalClock(sim, drift_ppm=rng.uniform(-20, 20),
                               offset_ns=rng.randrange(-100_000, 100_000))
            domain.add_node(f"sw{i}", clock, parent=prev,
                            link_delay_ns=500, priority=i + 1)
            prev = f"sw{i}"
        return domain

    def test_failover_elects_best_priority(self):
        sim = Simulator()
        domain = self._ring_domain(sim)
        domain.start()
        sim.run(until=1_500_000_000)
        assert domain.grandmaster.name == "gm"
        domain.fail_node("gm")
        sim.run(until=2_000_000_000)
        assert domain.elections == 1
        assert domain.grandmaster.name == "sw0"  # next-best priority

    def test_survivors_relock_to_new_master(self):
        sim = Simulator()
        domain = self._ring_domain(sim)
        domain.start()
        sim.run(until=2_000_000_000)
        domain.fail_node("gm")
        sim.run(until=6_000_000_000)
        # offsets are now measured against the new grandmaster
        offsets = domain.offsets_ns()
        survivors = [n for n in offsets if n not in ("gm",)]
        assert all(abs(offsets[n]) < 100 for n in survivors)

    def test_failed_node_excluded_from_tree(self):
        sim = Simulator()
        domain = self._ring_domain(sim)
        domain.start()
        sim.run(until=1_000_000_000)
        domain.fail_node("gm")
        sim.run(until=2_000_000_000)
        new_gm = domain.grandmaster
        assert domain.nodes["gm"] not in new_gm.children
        assert new_gm.parent is None

    def test_no_election_while_master_alive(self):
        sim = Simulator()
        domain = self._ring_domain(sim)
        domain.start()
        sim.run(until=2_000_000_000)
        assert domain.elections == 0

    def test_all_failed_rejected(self):
        sim = Simulator()
        domain = self._ring_domain(sim)
        domain.start()
        for name in list(domain.nodes):
            domain.fail_node(name)
        with pytest.raises(ConfigurationError):
            sim.run(until=1_000_000_000)

    def test_fail_unknown_node_rejected(self):
        sim = Simulator()
        domain = self._ring_domain(sim)
        with pytest.raises(ConfigurationError):
            domain.fail_node("ghost")

    def test_restored_best_clock_retakes_mastership(self):
        """BMCA is preemptive: when the best-ranked clock returns, the next
        election hands the domain back to it."""
        sim = Simulator()
        domain = self._ring_domain(sim)
        domain.start()
        sim.run(until=1_500_000_000)
        domain.fail_node("gm")
        sim.run(until=2_500_000_000)
        assert domain.grandmaster.name == "sw0"
        domain.restore_node("gm")
        domain.fail_node("sw0")  # triggers another election
        sim.run(until=4_000_000_000)
        assert domain.grandmaster.name == "gm"
        # the survivors hang off gm again, skipping the failed sw0 only if
        # an alternate path exists -- here the chain breaks at sw0, so only
        # gm itself is reachable
        assert domain.nodes["gm"].parent is None

    def test_restored_node_rejoins_via_alternate_link(self):
        """With ring adjacency, re-rooting routes around the failed node."""
        sim = Simulator()
        domain = self._ring_domain(sim)
        domain.add_link("gm", "sw2", link_delay_ns=500)  # close the ring
        domain.start()
        sim.run(until=1_500_000_000)
        domain.fail_node("sw0")  # mid-chain failure, gm still master
        # force a re-root through an election: fail + restore gm quickly is
        # not needed -- the tree only re-roots on GM loss, so fail gm too
        domain.fail_node("gm")
        sim.run(until=2_500_000_000)
        assert domain.grandmaster.name == "sw1"
        # sw2 reaches sw1 directly; the ring link is available if needed
        assert domain.nodes["sw2"].parent is domain.nodes["sw1"]


class TestFailoverObservability:
    def _domain(self, sim):
        rng = random.Random(3)
        domain = SyncDomain(sim, GptpConfig(sync_interval_ns=10_000_000))
        domain.add_node("gm", LocalClock(sim), priority=0)
        prev = "gm"
        for i in range(3):
            clock = LocalClock(sim, drift_ppm=rng.uniform(-20, 20),
                               offset_ns=rng.randrange(-100_000, 100_000))
            domain.add_node(f"sw{i}", clock, parent=prev,
                            link_delay_ns=500, priority=i + 1)
            prev = f"sw{i}"
        return domain

    def test_failure_and_election_timestamps_recorded(self):
        sim = Simulator()
        domain = self._domain(sim)
        domain.start()
        sim.run(until=1_000_000_000)
        domain.fail_node("gm")
        failed_at = sim.now
        sim.run(until=2_000_000_000)
        assert domain.gm_failure_times_ns == [failed_at]
        assert len(domain.election_times_ns) == 1
        assert domain.election_times_ns[0] >= failed_at

    def test_failover_latency_pairs_failure_with_election(self):
        sim = Simulator()
        domain = self._domain(sim)
        domain.start()
        sim.run(until=1_000_000_000)
        domain.fail_node("gm")
        sim.run(until=2_000_000_000)
        latencies = domain.failover_latencies_ns()
        assert len(latencies) == 1
        # detection takes announce_timeout_intervals sync intervals
        assert latencies[0] >= 3 * 10_000_000

    def test_non_gm_failure_records_nothing(self):
        sim = Simulator()
        domain = self._domain(sim)
        domain.start()
        sim.run(until=1_000_000_000)
        domain.fail_node("sw2")  # a leaf, not the acting grandmaster
        sim.run(until=2_000_000_000)
        assert domain.gm_failure_times_ns == []
        assert domain.failover_latencies_ns() == []

    def test_restored_node_grafts_as_slave(self):
        """A restored non-best node must rejoin under a live alternate
        neighbor and re-discipline, not stay wired to its dead parent."""
        sim = Simulator()
        domain = self._domain(sim)
        domain.add_link("gm", "sw2", link_delay_ns=500)  # close the ring
        domain.start()
        sim.run(until=1_000_000_000)
        domain.fail_node("sw1")   # mid-chain: sw2's parent dies with it
        domain.fail_node("sw2")
        sim.run(until=1_500_000_000)
        domain.restore_node("sw2")
        node = domain.nodes["sw2"]
        assert node.parent is domain.nodes["gm"]  # the live ring neighbor
        assert node in node.parent.children
        assert node not in domain.nodes["sw1"].children
        sim.run(until=4_000_000_000)
        offsets = domain.offsets_ns()
        assert abs(offsets["sw2"]) < 100  # re-locked to the domain

    def test_restore_with_no_live_neighbor_keeps_free_running(self):
        sim = Simulator()
        domain = self._domain(sim)
        domain.start()
        sim.run(until=1_000_000_000)
        domain.fail_node("sw1")
        domain.fail_node("sw2")
        sim.run(until=1_500_000_000)
        domain.restore_node("sw2")  # only neighbor (sw1) is still dead
        # no live adjacency: the node waits for the topology to heal, and
        # the sync cascade must not resurrect it through its dead parent
        sync_count = domain.nodes["sw2"].sync_count
        sim.run(until=2_500_000_000)
        assert domain.nodes["sw2"].sync_count == sync_count

    def test_restore_is_idempotent_for_live_node(self):
        sim = Simulator()
        domain = self._domain(sim)
        domain.start()
        sim.run(until=500_000_000)
        parent_before = domain.nodes["sw1"].parent
        domain.restore_node("sw1")  # never failed: must be a no-op
        assert domain.nodes["sw1"].parent is parent_before
