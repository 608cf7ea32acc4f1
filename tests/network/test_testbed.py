"""End-to-end scenario runs."""

import pytest

from repro.core.errors import ConfigurationError
from repro.core.presets import customized_config
from repro.core.units import mbps, ms
from repro.cqf.bounds import cqf_bounds
from repro.network.testbed import Testbed
from repro.network.topology import ring_topology, star_topology
from repro.traffic.flows import TrafficClass
from repro.traffic.iec60802 import background_flows, production_cell_flows

SLOT = 62_500


def _flows(count=32, talkers=("talker0",), rc=0, be=0, size=64):
    flows = production_cell_flows(list(talkers), "listener",
                                  flow_count=count, size_bytes=size)
    if rc or be:
        for f in background_flows(list(talkers), "listener", rc, be):
            flows.add(f)
    return flows


def _run(topo=None, flows=None, config=None, duration=ms(30), **kwargs):
    topo = topo or ring_topology(switch_count=3, talkers=["talker0"])
    flows = flows if flows is not None else _flows()
    config = config or customized_config(topo.max_enabled_ports)
    testbed = Testbed(topo, config, flows, slot_ns=SLOT, **kwargs)
    return testbed, testbed.run(duration_ns=duration)


class TestBasicRun:
    def test_all_ts_packets_delivered_in_bounds(self):
        topo = ring_topology(switch_count=3, talkers=["talker0"])
        _, result = _run(topo)
        assert result.ts_loss == 0.0
        bounds = cqf_bounds(3, SLOT)
        latencies = result.analyzer.class_latencies(TrafficClass.TS)
        assert latencies and all(bounds.contains(x) for x in latencies)

    def test_expected_counts_match_duration(self):
        _, result = _run(duration=ms(30))
        # 32 flows x 3 periods of 10 ms
        assert sum(
            result.expected_by_flow[f.flow_id] for f in result.flows.ts_flows
        ) == 96

    def test_background_flows_also_delivered(self):
        _, result = _run(flows=_flows(rc=mbps(50), be=mbps(50)))
        assert result.analyzer.received(TrafficClass.RC) > 0
        assert result.analyzer.received(TrafficClass.BE) > 0

    def test_no_switch_drops_in_nominal_run(self):
        _, result = _run(flows=_flows(rc=mbps(50), be=mbps(50)))
        for counters in result.counters().values():
            assert counters["dropped_total"] == 0

    def test_multi_talker_star(self):
        topo = star_topology(talkers=("talker0", "talker1"))
        flows = _flows(count=32, talkers=("talker0", "talker1"))
        _, result = _run(topo, flows, customized_config(3))
        assert result.ts_loss == 0.0
        bounds = cqf_bounds(3, SLOT)
        assert all(
            bounds.contains(x)
            for x in result.analyzer.class_latencies(TrafficClass.TS)
        )

    def test_high_water_within_customized_depth(self):
        _, result = _run(flows=_flows(count=64))
        config = customized_config(1)
        assert result.max_queue_high_water() <= config.queue_depth
        assert result.max_buffer_high_water() <= config.buffer_num


class TestDeterminism:
    def test_same_seed_identical_latencies(self):
        def latencies(seed):
            _, result = _run(
                flows=_flows(rc=mbps(30), be=mbps(30)), seed=seed,
                duration=ms(20),
            )
            return result.analyzer.class_latencies(TrafficClass.TS)

        assert latencies(1) == latencies(1)

    def test_host_macs_belong_to_the_testbed_not_the_process(self):
        """Two builds of one spec in one process number their hosts alike,
        whatever was built in between."""
        from repro.network.host import Host
        from repro.sim.kernel import Simulator
        from repro.switch.packet import make_mac

        def macs():
            topo = star_topology(talkers=["talker0", "talker1", "talker2"])
            testbed = Testbed(
                topo, customized_config(topo.max_enabled_ports),
                _flows(talkers=("talker0", "talker1", "talker2")),
                slot_ns=SLOT,
            )
            testbed.build()
            return {name: host.mac for name, host in testbed.hosts.items()}

        first = macs()
        before = Host._next_index
        Host(Simulator(), "bystander")      # a standalone host in between
        assert Host._next_index == before + 1
        assert macs() == first
        assert Host._next_index == before + 1   # builds leave it alone
        assert list(first.values()) == [
            make_mac(0x8000 + index) for index in range(len(first))
        ]

    def test_links_get_unique_positive_arrival_priority_in_wiring_order(self):
        """Same-instant arrivals at one hub are ordered by the link that
        carried them, so the tie-break must be a function of the topology:
        trunks, then uplinks, then attachments, numbered from 1."""
        topo = star_topology(talkers=["talker0", "talker1"])
        testbed = Testbed(
            topo, customized_config(topo.max_enabled_ports),
            _flows(talkers=("talker0", "talker1")), slot_ns=SLOT,
        )
        testbed.build()
        wiring = (
            [f"{t.src}.p{t.src_port}->{t.dst}" for t in topo.trunks]
            + [f"{u.host}->{u.dst}" for u in topo.uplinks]
            + [f"{a.switch}.p{a.port}->{a.host}" for a in topo.attachments]
        )
        assert [link.name for link in testbed.links] == wiring
        assert [link.arrival_priority for link in testbed.links] == list(
            range(1, len(wiring) + 1)
        )

    def test_different_seed_changes_background_phases(self):
        def be_latencies(seed):
            _, result = _run(
                flows=_flows(rc=0, be=mbps(30)), seed=seed, duration=ms(20)
            )
            return result.analyzer.class_latencies(TrafficClass.BE)

        assert be_latencies(1) != be_latencies(2)


class TestItpToggle:
    def test_unplanned_injections_overflow_small_queues(self):
        """Without ITP, same-period flows collide in slot 0 and overrun the
        customized queue depth -- the motivation for [24]."""
        flows = _flows(count=64)
        config = customized_config(1, queue_depth=12, buffer_num=96)
        testbed = Testbed(
            ring_topology(switch_count=3, talkers=["talker0"]),
            config, flows, slot_ns=SLOT, use_itp=False,
        )
        result = testbed.run(duration_ns=ms(30))
        assert result.ts_loss > 0.0
        drops = sum(
            c["dropped_tail"] + c["dropped_no_buffer"]
            for c in result.counters().values()
        )
        assert drops > 0

    def test_itp_keeps_same_workload_lossless(self):
        _, result = _run(flows=_flows(count=64))
        assert result.ts_loss == 0.0


class TestValidationErrors:
    def test_duration_positive(self):
        testbed, _ = _run()
        with pytest.raises(ConfigurationError):
            Testbed(
                ring_topology(switch_count=2, talkers=["talker0"]),
                customized_config(1),
                _flows(count=4),
                slot_ns=SLOT,
            ).run(duration_ns=0)

    def test_double_build_rejected(self):
        testbed = Testbed(
            ring_topology(switch_count=2, talkers=["talker0"]),
            customized_config(1),
            _flows(count=4),
            slot_ns=SLOT,
        )
        testbed.build()
        with pytest.raises(ConfigurationError):
            testbed.build()

    def test_too_many_flows_for_vids(self):
        flows = _flows(count=8)
        testbed = Testbed(
            ring_topology(switch_count=2, talkers=["talker0"]),
            customized_config(1),
            flows,
            slot_ns=SLOT,
        )
        testbed._flow_vids = {}
        # simulate the overflow check directly
        big = production_cell_flows(["talker0"], "listener", flow_count=1024)
        for i in range(4):
            for f in production_cell_flows(
                ["talker0"], "listener", flow_count=1024,
                first_flow_id=(i + 1) * 10_000,
            ):
                big.add(f)
        bad = Testbed(
            ring_topology(switch_count=2, talkers=["talker0"]),
            customized_config(1, flow_count=8192),
            big,
            slot_ns=SLOT,
        )
        with pytest.raises(ConfigurationError, match="VLAN"):
            bad.build()


class TestTimeSync:
    def test_drift_without_sync_destroys_determinism(self):
        """Misaligned gates smear the constant CQF latency: per-class jitter
        jumps from ~0 to tens of microseconds."""
        _, synced = _run(flows=_flows(count=16), duration=ms(30))
        _, unsynced = _run(
            flows=_flows(count=16),
            clock_drift_ppm=200,
            clock_offset_spread_ns=40_000,
            duration=ms(30),
        )
        assert unsynced.ts_summary.jitter_ns > 10_000
        assert unsynced.ts_summary.jitter_ns > 10 * max(
            synced.ts_summary.jitter_ns, 1.0
        )

    def test_gptp_restores_bounds(self):
        testbed, result = _run(
            flows=_flows(count=16),
            clock_drift_ppm=20,
            clock_offset_spread_ns=100_000,
            enable_gptp=True,
            duration=ms(30),
        )
        assert testbed.sync_domain.max_abs_offset_ns() < 50
        bounds = cqf_bounds(3, SLOT)
        latencies = result.analyzer.class_latencies(TrafficClass.TS)
        assert latencies and all(bounds.contains(x) for x in latencies)


class TestFailureInjection:
    def test_trunk_errors_surface_as_ts_loss(self):
        """A lossy trunk breaks the zero-loss guarantee and the analyzer
        sees it -- the instrumentation the QoS claims rest on."""
        _, clean = _run(duration=ms(20))
        testbed = Testbed(
            ring_topology(switch_count=3, talkers=["talker0"]),
            customized_config(1),
            _flows(),
            slot_ns=SLOT,
            trunk_error_rate=0.05,
        )
        lossy = testbed.run(duration_ns=ms(20))
        assert clean.ts_loss == 0.0
        assert lossy.ts_loss > 0.01
        corrupted = sum(l.frames_corrupted for l in testbed.links)
        assert corrupted > 0

    def test_link_failure_blackholes_downstream(self):
        testbed = Testbed(
            ring_topology(switch_count=3, talkers=["talker0"]),
            customized_config(1),
            _flows(),
            slot_ns=SLOT,
        )
        testbed.build()
        # cut the first trunk after half the window
        trunk = testbed.links[0]
        testbed.sim.schedule(ms(10), trunk.fail)
        result = testbed.run(duration_ns=ms(20))
        assert result.ts_loss > 0.3
        assert trunk.frames_blackholed > 0


class TestRouteAggregation:
    def test_aggregated_routes_shrink_unicast_usage(self):
        """guideline 1's aggregation: one forwarding entry per destination
        instead of per flow, with identical QoS."""
        flows = _flows(count=32)
        per_flow_tb = Testbed(
            ring_topology(switch_count=2, talkers=["talker0"]),
            customized_config(1), flows, slot_ns=SLOT,
        )
        per_flow = per_flow_tb.run(duration_ns=ms(20))
        flows2 = _flows(count=32)
        aggregated_tb = Testbed(
            ring_topology(switch_count=2, talkers=["talker0"]),
            customized_config(1), flows2, slot_ns=SLOT,
            aggregate_routes=True,
        )
        aggregated = aggregated_tb.run(duration_ns=ms(20))
        assert per_flow.ts_loss == aggregated.ts_loss == 0.0
        assert per_flow.ts_summary.mean_ns == pytest.approx(
            aggregated.ts_summary.mean_ns, rel=0.001
        )
        per_flow_entries = len(per_flow_tb.switches["sw0"].pipeline.unicast)
        aggregated_entries = len(
            aggregated_tb.switches["sw0"].pipeline.unicast
        )
        assert per_flow_entries == 32
        assert aggregated_entries == 1

    def test_aggregated_config_can_shrink_table(self):
        """With aggregation the unicast table can be sized to the
        destination count."""
        flows = _flows(count=32)
        config = customized_config(1).with_updates(unicast_size=1)
        testbed = Testbed(
            ring_topology(switch_count=2, talkers=["talker0"]),
            config, flows, slot_ns=SLOT, aggregate_routes=True,
        )
        result = testbed.run(duration_ns=ms(20))
        assert result.ts_loss == 0.0


class TestPortReport:
    def test_rows_per_port_with_occupancy(self):
        testbed, result = _run(flows=_flows(count=32))
        report = result.port_report()
        lines = report.splitlines()
        port_count = sum(
            len(sw.ports) for sw in result.switches.values()
        )
        # title + header + rule + one row per port
        assert len(lines) == 3 + port_count
        assert "sw0.p0" in report
        assert "queue hw" in lines[1]

    def test_shared_pool_reported_consistently(self):
        testbed = Testbed(
            ring_topology(switch_count=2, talkers=["talker0"]),
            customized_config(1),
            _flows(count=8),
            slot_ns=SLOT,
            shared_buffers=True,
        )
        result = testbed.run(duration_ns=ms(15))
        assert "/96" in result.port_report()  # pool slots shown per row
