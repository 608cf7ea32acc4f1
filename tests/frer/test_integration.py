"""FRER end-to-end: replication, elimination, seamless failover."""

import pytest

from repro.core.errors import SpecValidationError, TopologyError
from repro.core.presets import customized_config
from repro.core.units import ms
from repro.cqf.bounds import cqf_bounds
from repro.network.program import compile_programs
from repro.network.scenario import ScenarioSpec
from repro.network.testbed import RunPlan, Testbed
from repro.network.topology import dual_path_topology, ring_topology
from repro.traffic.flows import TrafficClass
from repro.traffic.iec60802 import production_cell_flows

SLOT = 62_500
CHAIN = 3  # switches per path


def _testbed(frer=True, flow_count=24, topo=None):
    topology = topo or dual_path_topology(chain_len=CHAIN)
    flows = production_cell_flows(["talker0"], "listener",
                                  flow_count=flow_count)
    config = customized_config(2, flow_count=4 * flow_count)
    return Testbed(
        RunPlan(topology, config, flows, slot_ns=SLOT, frer_ts=frer)
    )


class TestTopology:
    def test_dual_path_shape(self):
        topo = dual_path_topology(chain_len=3)
        assert topo.switch_ports["head"] == 2
        assert len(topo.attachments) == 2
        assert topo.hops("talker0", "listener") == 3

    def test_minimum_size(self):
        with pytest.raises(TopologyError):
            dual_path_topology(chain_len=1)


class TestReplication:
    def test_duplicates_eliminated_not_delivered(self):
        testbed = _testbed()
        result = testbed.run(duration_ns=ms(30))
        assert result.ts_loss == 0.0
        eliminated = sum(
            e.duplicates_eliminated
            for e in testbed.frer_eliminators.values()
        )
        # every packet arrived twice; the analyzer saw each exactly once
        assert eliminated == result.analyzer.received(TrafficClass.TS)
        for flow in result.flows.ts_flows:
            record = result.analyzer.records[flow.flow_id]
            assert record.duplicates == 0

    def test_latency_within_bounds(self):
        result = _testbed().run(duration_ns=ms(30))
        bounds = cqf_bounds(CHAIN, SLOT)
        latencies = result.analyzer.class_latencies(TrafficClass.TS)
        assert latencies and all(bounds.contains(x) for x in latencies)

    def test_replica_paths_disjoint_by_construction(self):
        testbed = _testbed()
        programs, vids = compile_programs(testbed.run_plan)
        flow = testbed.flows.ts_flows[0]
        path_a, path_b = (
            [(name, outport)
             for name, program in programs.items()
             for (_, route_vid), outport in program.routes
             if route_vid == vid]
            for vid in vids[flow.flow_id]
        )
        assert path_a and path_b
        assert not (set(path_a) & set(path_b))

    def test_single_attachment_destination_rejected(self):
        testbed = _testbed(topo=ring_topology(3, talkers=["talker0"]))
        with pytest.raises(TopologyError, match="two attachments"):
            testbed.build()

    def test_frer_requires_cqf(self):
        # The schema refuses it, with the path of the rule.
        for keys, name in (({"gate_mechanism": "qbv"}, "qbv"),
                           ({"sched": {"shaper": "csqf"}}, "csqf"),
                           ({"sched": {"shaper": "multi_cqf"}}, "multi_cqf")):
            with pytest.raises(SpecValidationError) as caught:
                ScenarioSpec.from_dict({
                    "name": "frer-gating",
                    "topology": {"kind": "dual_path", "chain_len": CHAIN},
                    "flows": {"ts_count": 4},
                    "frer_ts": True,
                    **keys,
                })
            assert caught.value.problems == [
                f"frer_ts: FRER replicas run over 'cqf' gating only, not "
                f"{name!r}"
            ]


class TestSeamlessFailover:
    def _run_with_cut(self, cut_prefix, cut_at=ms(10)):
        testbed = _testbed()
        testbed.build()
        trunk = next(
            link for link in testbed.links
            if link.name.startswith(cut_prefix)
        )
        testbed.sim.schedule(cut_at, trunk.fail)
        return testbed, testbed.run(duration_ns=ms(30))

    def test_zero_loss_through_path_a_failure(self):
        testbed, result = self._run_with_cut("head.p0")
        assert result.ts_loss == 0.0
        assert result.analyzer.deadline_misses(TrafficClass.TS) == 0
        # after the cut only one copy arrives: fewer eliminations
        eliminated = sum(
            e.duplicates_eliminated
            for e in testbed.frer_eliminators.values()
        )
        assert 0 < eliminated < result.analyzer.received(TrafficClass.TS)

    def test_zero_loss_through_path_b_failure(self):
        _, result = self._run_with_cut("head.p1")
        assert result.ts_loss == 0.0

    def test_without_frer_the_same_cut_loses_packets(self):
        testbed = _testbed(frer=False)
        testbed.build()
        # find the trunk the single (path-A) route uses
        trunk = next(
            link for link in testbed.links
            if link.name.startswith("head.p0")
        )
        testbed.sim.schedule(ms(10), trunk.fail)
        result = testbed.run(duration_ns=ms(30))
        assert result.ts_loss > 0.3

    def test_latency_unchanged_across_failover(self):
        """Seamless means no recovery transient: the surviving copies keep
        the same CQF timing."""
        _, result = self._run_with_cut("head.p0")
        assert result.ts_summary.jitter_ns < 1_000
