"""CSV/JSON exporters."""

import csv
import json

from repro.analysis.export import (
    latency_cdf,
    result_summary,
    series_to_csv,
)
from repro.analysis.stats import SweepPoint, SweepSeries
from repro.core.presets import customized_config
from repro.core.units import ms
from repro.network.analyzer import LatencySummary
from repro.network.testbed import RunPlan, Testbed
from repro.network.topology import ring_topology
from repro.traffic.iec60802 import production_cell_flows


def _result():
    topology = ring_topology(switch_count=2, talkers=["talker0"])
    flows = production_cell_flows(["talker0"], "listener", flow_count=8)
    testbed = Testbed(
        RunPlan(topology, customized_config(1), flows, slot_ns=62_500)
    )
    return testbed.run(duration_ns=ms(15))


class TestSeriesCsv:
    def test_rows_match_points(self, tmp_path):
        series = SweepSeries("s", "hops")
        summary = LatencySummary(5, 10, 30, 20.0, 2.0, 30)
        series.add(SweepPoint(1, "1", summary))
        series.add(SweepPoint(2, "2", summary))
        path = series_to_csv(series, tmp_path / "series.csv")
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "hops"
        assert len(rows) == 3
        assert rows[1][1] == "20.0"


class TestLatencyExports:
    def test_cdf_monotone(self):
        cdf = latency_cdf([5, 1, 3, 2, 4], points=10)
        values = [p["latency_ns"] for p in cdf]
        assert values == sorted(values)
        assert cdf[0]["latency_ns"] == 1 and cdf[-1]["latency_ns"] == 5

    def test_cdf_empty(self):
        assert latency_cdf([]) == []


class TestSummary:
    def test_summary_structure(self):
        summary = result_summary(_result())
        assert summary["classes"]["TS"]["loss"] == 0.0
        assert summary["classes"]["TS"]["received"] > 0
        assert "mean_ns" in summary["classes"]["TS"]
        assert summary["classes"]["RC"] == {"received": 0, "loss": 0.0}
        assert summary["itp"]["max_frames_per_slot"] >= 1
        assert "sw0" in summary["switch_counters"]

    def test_summary_json_roundtrip(self, tmp_path):
        path = tmp_path / "summary.json"
        path.write_text(json.dumps(result_summary(_result())))
        data = json.loads(path.read_text())
        assert data["classes"]["TS"]["loss"] == 0.0
