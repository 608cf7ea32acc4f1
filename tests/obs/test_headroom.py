"""Resource-headroom observability: probes, recorder, report, exports."""

import json

import pytest

from repro.core.presets import table1_case2
from repro.core.sizing import ObservedDemand, sufficient_config
from repro.network.scenario import ScenarioSpec
from repro.obs.headroom import (
    BAND_LABELS,
    HeadroomRecorder,
    OccupancyProbe,
    build_headroom_report,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import prometheus_exposition

SCENARIO = {
    "name": "headroom-test",
    "topology": {"kind": "star", "talkers": ["talker0", "talker1"],
                 "listener": "listener"},
    "flows": {"ts_count": 8, "period_us": 10_000, "size_bytes": 64,
              "rc_mbps": 50, "be_mbps": 50},
    "config": "derive",
    "slot_us": 62.5,
    "duration_ms": 5,
    "seed": 0,
}


@pytest.fixture(scope="module")
def plain_result():
    return ScenarioSpec.from_dict(SCENARIO).run()


@pytest.fixture(scope="module")
def recorded():
    recorder = HeadroomRecorder()
    result = ScenarioSpec.from_dict(SCENARIO).run(headroom=recorder)
    return result, recorder


class TestOccupancyProbe:
    def test_time_weighted_mean_is_exact_integral(self):
        probe = OccupancyProbe(12)
        probe.update(0, 0)
        probe.update(100, 3)    # occupancy 0 held for [0, 100)
        probe.update(200, 7)    # occupancy 3 held for [100, 200)
        probe.finalize(400)     # occupancy 7 held for [200, 400)
        assert probe.observed_ns == 400
        assert probe.mean() == pytest.approx((0 * 100 + 3 * 100 + 7 * 200) / 400)
        assert probe.peak == 7

    def test_band_fractions(self):
        probe = OccupancyProbe(12)
        probe.update(0, 0)
        probe.update(100, 3)    # 3/12 -> le25
        probe.update(200, 7)    # 7/12 -> le75
        probe.finalize(400)
        assert probe.band_fractions() == pytest.approx(
            [0.25, 0.25, 0.0, 0.5, 0.0]
        )

    def test_band_boundaries(self):
        probe = OccupancyProbe(8)
        # occ=2 is exactly 25% -> le25 band; occ=3 crosses into le50.
        bands = probe._band_of
        assert bands[0] == 0
        assert bands[1] == 1
        assert bands[2] == 1
        assert bands[3] == 2
        assert bands[8] == 4

    def test_untouched_probe_reads_zero(self):
        probe = OccupancyProbe(4)
        assert probe.mean() == 0.0
        assert probe.band_fractions() == [0.0] * len(BAND_LABELS)
        assert probe.observed_ns == 0

    def test_finalize_is_idempotent(self):
        probe = OccupancyProbe(4)
        probe.update(0, 2)
        probe.finalize(100)
        probe.finalize(100)
        assert probe.observed_ns == 100
        assert probe.mean() == pytest.approx(2.0)


class TestHeadroomRecorder:
    def test_shared_pool_gets_one_probe(self):
        from repro.switch.queueing import BufferPool

        recorder = HeadroomRecorder()
        pool = BufferPool(16)
        first = recorder.for_port("sw0", 0, 2, 4, pool)
        second = recorder.for_port("sw0", 1, 2, 4, pool)
        assert first.pool is second.pool
        other = recorder.for_port("sw0", 2, 2, 4, BufferPool(16))
        assert other.pool is not first.pool

    def test_finalize_flushes_tails(self):
        from repro.switch.queueing import BufferPool

        recorder = HeadroomRecorder()
        probes = recorder.for_port("sw0", 0, 1, 4, BufferPool(8))
        probes.queues[0].update(100, 2)
        recorder.finalize(300)
        assert recorder.end_ns == 300
        assert probes.queues[0].observed_ns == 300
        # occupancy 0 in [0,100), then 2 in [100,300)
        assert probes.queues[0].mean() == pytest.approx(400 / 300)


class TestReportWithoutRecorder:
    def test_structures_cover_every_switch(self, plain_result):
        report = plain_result.headroom_report()
        assert not report.timeweighted
        switches = {s.switch for s in report.structures}
        assert switches == set(plain_result.switches)
        for name in switches:
            rows = {s.structure for s in report.switch_structures(name)}
            assert {"Switch Tbl", "Class. Tbl", "Meter Tbl", "Gate Tbl",
                    "CBS Tbl", "Queues", "Buffers"} <= rows

    def test_totals_are_row_sums(self, plain_result):
        report = plain_result.headroom_report()
        assert report.provisioned_kb == pytest.approx(
            sum(s.provisioned_kb for s in report.structures)
        )
        assert report.sufficient_kb == pytest.approx(
            sum(s.sufficient_kb for s in report.structures)
        )
        assert report.wasted_kb == pytest.approx(
            report.provisioned_kb - report.sufficient_kb
        )

    def test_cheapest_config_costed_through_bram(self, plain_result):
        report = plain_result.headroom_report()
        cheapest = report.cheapest_config
        cheapest.validate()
        # The Kb figure must be the BRAM allocator's own answer for that
        # config, not an independent estimate.
        assert report.cheapest_kb == pytest.approx(
            cheapest.resource_report().total_kb
        )

    def test_each_distinct_sizing_is_costed_once(
        self, plain_result, monkeypatch
    ):
        """Switches that differ only in name share one BRAM report, and a
        sweep row adds exactly two (its config's total, the cheapest's)."""
        from repro.campaign.worker import _measurements
        from repro.core.config import SwitchConfig

        costed = []
        real = SwitchConfig.resource_report

        def counting(self, title=None):
            costed.append(self.with_updates(name=""))
            return real(self, title)

        monkeypatch.setattr(SwitchConfig, "resource_report", counting)
        report = plain_result.headroom_report()
        sizings = {
            config.with_updates(name="")
            for switch in plain_result.switches.values()
            for config in (switch.config, report.sufficient[switch.name])
        }
        # the three leaves are provisioned alike: fewer sizings than configs
        assert len(sizings) < 2 * len(plain_result.switches)
        assert sorted(costed, key=repr) == sorted(sizings, key=repr)

        del costed[:]
        config = plain_result.switches["core"].config
        row = _measurements(plain_result, config)
        assert len(costed) == len(sizings) + 2
        assert row["bram_kb"] == real(config).total_kb
        assert row["wasted_bram_kb"] == round(
            row["bram_kb"] - report.cheapest_kb, 3
        )

    def test_observed_demand_matches_high_waters(self, plain_result):
        report = plain_result.headroom_report()
        assert report.observed.queue_depth == \
            plain_result.max_queue_high_water()
        queues = [s for s in report.structures if s.structure == "Queues"]
        assert max(q.peak for q in queues) == \
            plain_result.max_queue_high_water()

    def test_sufficient_configs_validate(self, plain_result):
        report = plain_result.headroom_report()
        assert set(report.sufficient) == set(plain_result.switches)
        for config in report.sufficient.values():
            config.validate()

    def test_report_is_deterministic(self, plain_result):
        again = ScenarioSpec.from_dict(SCENARIO).run()
        first = json.dumps(plain_result.headroom_report().as_dict(),
                           sort_keys=True)
        second = json.dumps(again.headroom_report().as_dict(),
                            sort_keys=True)
        assert first == second

    def test_utilization_digest_is_slugged_and_bounded(self, plain_result):
        digest = plain_result.headroom_report().utilization_digest()
        assert "queues" in digest and "buffers" in digest
        for value in digest.values():
            assert 0.0 <= value


class TestReportWithRecorder:
    def test_timeweighted_rows_carry_means_and_bands(self, recorded):
        result, recorder = recorded
        report = build_headroom_report(result, recorder)
        assert report.timeweighted
        assert report.duration_ns == recorder.end_ns
        queues = [s for s in report.structures if s.structure == "Queues"]
        busy = [s for s in queues if s.peak > 0]
        assert busy, "scenario must exercise at least one queue"
        for row in busy:
            assert row.mean is not None and row.mean > 0.0
            assert row.bands is not None
            assert sum(row.bands) == pytest.approx(1.0)

    def test_probe_peak_agrees_with_stats_high_water(self, recorded):
        result, recorder = recorded
        for (switch, port_id), probes in recorder.ports.items():
            port = next(
                p for p in result.switches[switch].ports
                if p.port_id == port_id
            )
            for queue, probe in zip(port.queues, probes.queues):
                assert probe.peak == queue.stats.high_water

    def test_ports_carry_timeweighted_means(self, recorded):
        result, recorder = recorded
        report = build_headroom_report(result, recorder)
        active = [p for p in report.ports if p.queue_peak > 0]
        assert active
        for port in active:
            assert port.queue_mean is not None
            assert port.buffer_mean is not None

    def test_peaks_identical_with_and_without_recorder(
        self, plain_result, recorded
    ):
        result, recorder = recorded
        with_rec = build_headroom_report(result, recorder)
        without = plain_result.headroom_report()
        peaks = lambda rep: sorted(  # noqa: E731
            (s.switch, s.structure, s.peak, s.provisioned)
            for s in rep.structures
        )
        assert peaks(with_rec) == peaks(without)


class TestExports:
    def test_as_dict_schema(self, recorded):
        result, recorder = recorded
        data = build_headroom_report(result, recorder).as_dict()
        for key in ("provisioned_bram_kb", "sufficient_bram_kb",
                    "wasted_bram_kb", "utilization", "observed",
                    "cheapest_config", "cheapest_bram_kb", "structures",
                    "ports", "timeweighted", "duration_ns"):
            assert key in data, key
        json.dumps(data)  # JSON-compatible
        assert data["timeweighted"] is True
        assert data["structures"], "no structure rows"
        row = data["structures"][0]
        assert {"switch", "structure", "provisioned", "peak", "utilization",
                "provisioned_kb", "sufficient_kb", "wasted_kb"} <= set(row)

    def test_csv_header_and_rows(self, plain_result):
        report = plain_result.headroom_report()
        lines = report.to_csv().splitlines()
        assert lines[0] == ("switch,structure,provisioned,peak,utilization,"
                            "mean,provisioned_kb,sufficient_kb,wasted_kb")
        assert len(lines) == len(report.structures) + 1

    def test_publish_feeds_prometheus(self, recorded):
        result, recorder = recorded
        report = build_headroom_report(result, recorder)
        registry = MetricsRegistry()
        report.publish(registry)
        text = prometheus_exposition(registry)
        assert "# TYPE headroom_utilization gauge" in text
        assert 'headroom_utilization{' in text
        assert "headroom_provisioned_bram_kb" in text
        assert "headroom_queue_occupancy_mean" in text

    def test_renderers(self, recorded):
        from repro.analysis.report import (
            render_headroom,
            render_port_occupancy,
        )

        result, recorder = recorded
        report = build_headroom_report(result, recorder)
        headroom_text = render_headroom(report)
        assert "Resource headroom" in headroom_text
        assert "Queues" in headroom_text
        port_text = render_port_occupancy(report)
        assert "Per-port occupancy and drops" in port_text
        assert "queue twa" in port_text
        # Without a recorder the historical column set is preserved.
        bare = render_port_occupancy(plain := result.headroom_report())
        assert plain.timeweighted  # result retains its recorder
        assert "queue hw" in bare


class TestSufficientConfig:
    def test_table1_case2_from_observed_demand(self):
        """The paper's Case 2: 7 frames/slot observed, 1.5x margin rounded
        up to a multiple of 4 -> depth 12, buffers 96 (12 x 8 queues)."""
        base = table1_case2()
        observed = ObservedDemand(
            queue_depth=7, buffer_slots=56, unicast=1024,
            classification=1024, meters=1024, gate_entries=2,
            cbs_map=3, cbs=3,
        )
        config = sufficient_config(base, observed)
        assert config.queue_depth == 12
        assert config.buffer_num == 96
        assert config.total_bram_kb == base.total_bram_kb

    def test_multicast_stays_absent(self):
        base = table1_case2()  # multicast_size == 0
        config = sufficient_config(base, ObservedDemand(queue_depth=1))
        assert config.multicast_size == 0

    def test_under_provisioned_costs_more(self):
        base = table1_case2().with_updates(queue_depth=8, buffer_num=64)
        config = sufficient_config(base, ObservedDemand(queue_depth=7))
        # Observed 7 with 1.5x margin needs depth 12 > provisioned 8.
        assert config.queue_depth == 12
        assert config.total_bram_kb > base.total_bram_kb
