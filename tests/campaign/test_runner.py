"""Campaign execution: determinism, timeouts, retries, streaming."""

import io
import json

import pytest

from repro.campaign import Campaign, SweepSpec


def _sweep_doc(**overrides):
    data = {
        "name": "runner-sweep",
        "base": {
            "name": "point",
            "topology": {"kind": "ring", "switch_count": 2,
                         "talkers": ["talker0"], "listener": "listener"},
            "flows": {"ts_count": 4},
            "config": "derive",
            "slot_us": 62.5,
            "duration_ms": 5,
            "seed": 0,
        },
        "grid": {"flows.ts_count": [4, 8], "slot_us": [62.5, 125.0]},
    }
    data.update(overrides)
    return data


def _run(workers, **campaign_kwargs):
    spec = SweepSpec.from_dict(_sweep_doc())
    sink = io.StringIO()
    campaign = Campaign(spec, workers=workers, **campaign_kwargs)
    summary = campaign.run(jsonl=sink)
    return summary, sorted(sink.getvalue().splitlines()), campaign


class TestDeterminism:
    def test_rows_and_aggregate_identical_across_worker_counts(self):
        serial_summary, serial_rows, _ = _run(workers=1)
        pooled_summary, pooled_rows, _ = _run(workers=2)
        assert serial_rows == pooled_rows
        assert (
            json.dumps(serial_summary, sort_keys=True)
            == json.dumps(pooled_summary, sort_keys=True)
        )

    def test_rows_are_seed_stable_across_invocations(self):
        _, first, _ = _run(workers=1)
        _, second, _ = _run(workers=1)
        assert first == second

    def test_ok_rows_have_single_attempt_and_measurements(self):
        summary, rows, campaign = _run(workers=1)
        assert summary["status"] == {"ok": 4}
        for line in rows:
            row = json.loads(line)
            assert row["status"] == "ok"
            assert row["attempts"] == 1
            assert row["bram_kb"] > 0
            assert "TS" in row["classes"]

    def test_ok_rows_carry_headroom_accounting(self):
        summary, rows, _ = _run(workers=1)
        for line in rows:
            row = json.loads(line)
            assert row["observed_bram_kb"] > 0
            # Wasted = provisioned single config minus cheapest sufficient.
            assert row["wasted_bram_kb"] == pytest.approx(
                round(row["bram_kb"] - row["observed_bram_kb"], 3)
            )
            digest = row["utilization"]
            assert "queues" in digest and "buffers" in digest
            assert all(v >= 0 for v in digest.values())
            assert row["depth_margin_frames"] >= 0
        # The aggregate grows an observed frontier alongside the
        # provisioned one.
        assert summary["observed_pareto"]
        assert summary["observed_bram_kb"]["min"] > 0

    def test_rows_contain_no_wall_clock(self):
        _, rows, _ = _run(workers=1)
        for line in rows:
            assert "elapsed" not in line and "time" not in json.loads(line)


class TestStreaming:
    def test_jsonl_written_to_path(self, tmp_path):
        spec = SweepSpec.from_dict(_sweep_doc())
        target = tmp_path / "deep" / "runs.jsonl"
        summary = Campaign(spec, workers=1).run(jsonl=target)
        lines = target.read_text().splitlines()
        assert len(lines) == summary["runs"] == 4

    def test_progress_called_per_run(self):
        spec = SweepSpec.from_dict(_sweep_doc())
        seen = []
        Campaign(spec, workers=1).run(
            progress=lambda row, done, total: seen.append((done, total))
        )
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]


#: Simulated window of the wall-clock timeout tests: about 1.5 s of host
#: time if it ran to completion, 30x the 0.05 s budget -- 2 s of simulated
#: time had come to finish in ~0.05 s, making the timeout a coin toss.
_OUTLASTS_TIMEOUT_MS = 60_000


class TestFailurePaths:
    def test_timeout_row(self):
        spec = SweepSpec.from_dict(_sweep_doc(
            grid={},
            base={**_sweep_doc()["base"],
                  "duration_ms": _OUTLASTS_TIMEOUT_MS},
        ))
        campaign = Campaign(spec, workers=1, timeout_s=0.05)
        summary = campaign.run()
        assert summary["status"] == {"timeout": 1}
        row = campaign.rows[0]
        assert row["status"] == "timeout"
        assert row["attempts"] == 1
        assert summary["failures"][0]["run_id"] == row["run_id"]

    def test_timeout_retries_are_bounded(self):
        spec = SweepSpec.from_dict(_sweep_doc(
            grid={},
            base={**_sweep_doc()["base"],
                  "duration_ms": _OUTLASTS_TIMEOUT_MS},
        ))
        campaign = Campaign(spec, workers=1, timeout_s=0.05, retries=2)
        summary = campaign.run()
        assert campaign.rows[0]["attempts"] == 3
        assert summary["status"] == {"timeout": 1}

    # A 1 us slot validates but leaves no injection slot for the TS load,
    # so the point fails at build time, inside its worker.
    def test_error_row_from_bad_scenario(self):
        doc = _sweep_doc(grid={"slot_us": [1.0]})
        spec = SweepSpec.from_dict(doc)
        campaign = Campaign(spec, workers=1)
        summary = campaign.run()
        row = campaign.rows[0]
        assert row["status"] == "error"
        assert row["error_type"] == "InfeasiblePlanError"
        assert "no injection slot" in row["error"]
        assert summary["status"] == {"error": 1}
        assert summary["pareto"] == []

    def test_pool_mode_survives_failures(self):
        doc = _sweep_doc(grid={"slot_us": [1.0, 62.5]})
        spec = SweepSpec.from_dict(doc)
        campaign = Campaign(spec, workers=2)
        summary = campaign.run()
        assert summary["status"] == {"error": 1, "ok": 1}

    def test_invalid_worker_and_retry_counts(self):
        spec = SweepSpec.from_dict(_sweep_doc())
        with pytest.raises(ValueError):
            Campaign(spec, workers=0)
        with pytest.raises(ValueError):
            Campaign(spec, retries=-1)
