"""End-to-end acceptance tests: the paper's headline claims.

These are reduced-scale versions of the benchmark harnesses -- small enough
for the unit-test budget, but each one asserts the *shape* of a published
result: exact BRAM arithmetic for the tables, Eq. (1) containment and
background-immunity for the figures.
"""

import pytest

from repro.core.presets import bcm53154_config, customized_config
from repro.core.sizing import derive_config
from repro.core.units import mbps, ms
from repro.cqf.bounds import cqf_bounds
from repro.network.testbed import RunPlan, Testbed
from repro.network.topology import linear_topology, ring_topology, star_topology
from repro.traffic.flows import TrafficClass
from repro.traffic.iec60802 import background_flows, production_cell_flows

SLOT = 62_500
FLOWS = 48
DURATION = ms(30)


def _run(topo, rc=0, be=0, size=64, flow_count=FLOWS, slot=SLOT, **kwargs):
    talkers = [u.host for u in topo.uplinks]
    flows = production_cell_flows(talkers, "listener", flow_count=flow_count,
                                  size_bytes=size)
    if rc or be:
        for f in background_flows(talkers, "listener", rc, be):
            flows.add(f)
    config = customized_config(topo.max_enabled_ports)
    testbed = Testbed(RunPlan(topo, config, flows, slot_ns=slot, **kwargs))
    return testbed.run(duration_ns=DURATION)


class TestTable3Claim:
    """Customization saves 46.59/63.56/80.53% of BRAM at equal parameters."""

    def test_reductions(self):
        base = bcm53154_config().resource_report()
        for factory_ports, expected in ((3, 0.4659), (2, 0.6356), (1, 0.8053)):
            report = customized_config(factory_ports).resource_report()
            assert report.reduction_vs(base) == pytest.approx(
                expected, abs=5e-5
            )

    def test_sizing_pipeline_reaches_same_configs(self):
        flows = production_cell_flows(["t0", "t1", "t2"], "l",
                                      flow_count=1024)
        for topo, total in (
            (star_topology(), 5778),
            (linear_topology(6), 3942),
            (ring_topology(6), 2106),
        ):
            assert derive_config(topo, flows, SLOT).config.total_bram_kb == total


class TestFig7aClaim:
    """Latency grows one slot per hop; jitter stays put (Fig. 7a)."""

    def test_latency_tracks_hops(self):
        means, jitters = [], []
        for hops in (1, 2, 3, 4):
            topo = ring_topology(switch_count=hops, talkers=["talker0"])
            result = _run(topo)
            bounds = cqf_bounds(hops, SLOT)
            latencies = result.analyzer.class_latencies(TrafficClass.TS)
            assert latencies and all(bounds.contains(x) for x in latencies)
            assert result.ts_loss == 0.0
            means.append(result.ts_summary.mean_ns)
            jitters.append(result.ts_summary.jitter_ns)
        # one extra slot per hop
        deltas = [b - a for a, b in zip(means, means[1:])]
        assert all(d == pytest.approx(SLOT, rel=0.05) for d in deltas)
        # jitter unrelated to hops: stays well under a slot
        assert all(j < SLOT / 10 for j in jitters)


class TestFig7bClaim:
    """Latency rises only slightly with packet size (Fig. 7b)."""

    def test_small_monotone_rise(self):
        means = []
        for size in (64, 512, 1500):
            topo = ring_topology(switch_count=2, talkers=["talker0"])
            result = _run(topo, size=size, flow_count=32)
            assert result.ts_loss == 0.0
            means.append(result.ts_summary.mean_ns)
        assert means[0] < means[-1]
        # the whole effect is serialization: well under one slot
        assert means[-1] - means[0] < SLOT


class TestFig7cClaim:
    """Latency and jitter scale with slot size (Fig. 7c)."""

    def test_scaling(self):
        means = []
        for slot in (31_250, 62_500, 125_000):
            topo = ring_topology(switch_count=2, talkers=["talker0"])
            result = _run(topo, slot=slot, flow_count=32)
            assert result.ts_loss == 0.0
            means.append(result.ts_summary.mean_ns)
        assert means[1] / means[0] == pytest.approx(2.0, rel=0.1)
        assert means[2] / means[1] == pytest.approx(2.0, rel=0.1)


class TestFig2AndFig7dClaim:
    """TS latency and jitter are immune to RC/BE background load."""

    def test_background_sweep_flat(self):
        means, jitters = [], []
        for load in (0, mbps(200), mbps(400)):
            topo = ring_topology(switch_count=3, talkers=["talker0"])
            result = _run(topo, rc=load // 2, be=load // 2)
            assert result.ts_loss == 0.0
            means.append(result.ts_summary.mean_ns)
            jitters.append(result.ts_summary.jitter_ns)
        spread = (max(means) - min(means)) / (sum(means) / len(means))
        assert spread < 0.02
        assert all(j < SLOT / 10 for j in jitters)

    def test_zero_packet_loss_under_load(self):
        """'The packet loss in all the experiments is 0.'"""
        topo = ring_topology(switch_count=3, talkers=["talker0"])
        result = _run(topo, rc=mbps(300), be=mbps(300))
        assert result.ts_loss == 0.0
        for counters in result.counters().values():
            assert counters["dropped_tail"] == 0
            assert counters["dropped_no_buffer"] == 0


class TestTable1Claim:
    """Case 2 (smaller queues/buffers) matches Case 1's QoS (Table I+Fig 2)."""

    def test_equal_qos_across_cases(self):
        results = {}
        for label, depth, buffers in (("case1", 16, 128), ("case2", 12, 96)):
            topo = linear_topology(switch_count=3, talkers=["talker0"])
            talkers = ["talker0"]
            flows = production_cell_flows(talkers, "listener",
                                          flow_count=FLOWS)
            for f in background_flows(talkers, "listener",
                                      mbps(100), mbps(100)):
                flows.add(f)
            config = customized_config(2, queue_depth=depth,
                                       buffer_num=buffers)
            run_plan = RunPlan(topo, config, flows, slot_ns=SLOT)
            result = Testbed(run_plan).run(DURATION)
            assert result.ts_loss == 0.0
            results[label] = result.ts_summary
        assert results["case1"].mean_ns == pytest.approx(
            results["case2"].mean_ns, rel=0.01
        )
        assert abs(results["case1"].jitter_ns - results["case2"].jitter_ns) \
            < 2_000


class TestTopologyEquivalenceClaim:
    """'The transmission performance of different topologies is the same.'"""

    def test_ring_equals_linear_at_equal_hops(self):
        ring_result = _run(ring_topology(switch_count=3, talkers=["talker0"]))
        linear_result = _run(
            linear_topology(switch_count=3, talkers=["talker0"])
        )
        assert ring_result.ts_summary.mean_ns == pytest.approx(
            linear_result.ts_summary.mean_ns, rel=0.01
        )
