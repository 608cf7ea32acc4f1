"""Sweep-level observability end to end: the ISSUE 6 acceptance scenario.

A 2-worker sweep with an injected per-run timeout (the deterministic event
budget) must produce: a complete run ledger with retry lineage, a
flight-recorder dump for the timed-out run holding its last kernel events,
live status-file heartbeats, and at least one straggler flag -- with
ledger and flight content byte-identical across worker counts.
"""

import functools
import json

import pytest

from repro.campaign import Campaign, SweepSpec
from repro.network.scenario import ScenarioSpec
from repro.obs.campaign import (
    ledger_run_records,
    read_ledger,
    read_status,
    render_status,
)


def _sweep_doc():
    return {
        "name": "obs-sweep",
        "base": {
            "name": "point",
            "topology": {"kind": "ring", "switch_count": 2,
                         "talkers": ["talker0"], "listener": "listener"},
            "flows": {"ts_count": 4},
            "config": "derive",
            "slot_us": 62.5,
            "duration_ms": 2,
            "seed": 0,
        },
        "grid": {"flows.ts_count": [4, 8]},
    }


@functools.lru_cache(maxsize=None)
def _timeout_budget() -> int:
    """An event budget every sweep point overruns: half of what the
    smallest point (the base, ``ts_count=4``) fires in a bare run.
    Measured, not a literal, so a kernel change that moves the events
    fired per frame cannot let a point slip under it."""
    bare = ScenarioSpec.from_dict(_sweep_doc()["base"]).run()
    return bare.sim_stats["fired"] // 2


def _run_observed(tmp_path, workers, retries=1):
    out = tmp_path / f"w{workers}"
    spec = SweepSpec.from_dict(_sweep_doc())
    campaign = Campaign(
        spec,
        workers=workers,
        retries=retries,
        event_budget=_timeout_budget(),
        status_file=out / "status.jsonl",
        ledger=out / "ledger.jsonl",
        flight_dir=out / "flight",
    )
    summary = campaign.run(jsonl=out / "runs.jsonl")
    return campaign, summary, out


class TestAcceptanceScenario:
    def test_budget_timeout_produces_all_artifacts(self, tmp_path):
        campaign, summary, out = _run_observed(tmp_path, workers=2)
        assert summary["status"] == {"timeout": 2}

        # Complete ledger: head + one record per run + end, with lineage.
        records = read_ledger(out / "ledger.jsonl")
        runs = ledger_run_records(records)
        assert records[0]["record"] == "sweep"
        assert records[0]["runs"] == 2
        assert len(runs) == 2
        for run in runs:
            assert run["status"] == "timeout"
            assert run["attempts"] == 2
            lineage = run["attempt_history"]
            assert [a["attempt"] for a in lineage] == [1]
            assert lineage[0]["status"] == "timeout"
            assert "flight_dump" in lineage[0]
        assert records[-1]["record"] == "sweep_end"
        assert records[-1]["runs_recorded"] == 2

        # Flight dump holds the timed-out run's last kernel events.
        dump_name = runs[0]["flight_dump"]
        dump = json.loads((out / "flight" / dump_name).read_text())
        assert dump["status"] == "timeout"
        assert len(dump["events"]) > 0
        assert dump["sim_stats"]["fired"] > 0

        # Heartbeats parseable and renderable.
        status_records = read_status(out / "status.jsonl")
        kinds = {r["hb"] for r in status_records}
        assert {"sweep", "run_start", "run_end", "sweep_end"} <= kinds
        text = render_status(status_records)
        assert "obs-sweep" in text and "[complete]" in text

        # At least one straggler flag (timeouts are definitional).
        assert campaign.stragglers
        assert any("timeout" in f["reasons"] for f in campaign.stragglers)

    def test_ledger_and_flight_byte_identical_across_workers(self, tmp_path):
        _run_observed(tmp_path, workers=1)
        _run_observed(tmp_path, workers=2)
        w1, w2 = tmp_path / "w1", tmp_path / "w2"
        assert sorted((w1 / "ledger.jsonl").read_text().splitlines()) == \
            sorted((w2 / "ledger.jsonl").read_text().splitlines())
        assert sorted((w1 / "runs.jsonl").read_text().splitlines()) == \
            sorted((w2 / "runs.jsonl").read_text().splitlines())
        dumps1 = {p.name: p.read_text()
                  for p in (w1 / "flight").glob("*.json")}
        dumps2 = {p.name: p.read_text()
                  for p in (w2 / "flight").glob("*.json")}
        assert dumps1 and dumps1 == dumps2

    def test_observability_leaves_rows_unchanged(self, tmp_path):
        spec = SweepSpec.from_dict(_sweep_doc())
        bare = tmp_path / "bare_runs.jsonl"
        Campaign(spec, workers=1).run(jsonl=bare)
        observed = tmp_path / "obs"
        campaign = Campaign(
            spec,
            workers=1,
            status_file=observed / "status.jsonl",
            ledger=observed / "ledger.jsonl",
            flight_dir=observed / "flight",
        )
        campaign.run(jsonl=observed / "runs.jsonl")
        assert bare.read_text() == (observed / "runs.jsonl").read_text()

    def test_rows_never_leak_telemetry(self, tmp_path):
        campaign, _, out = _run_observed(tmp_path, workers=1)
        for line in (out / "runs.jsonl").read_text().splitlines():
            row = json.loads(line)
            assert "_telemetry" not in row
            assert "wall_s" not in row
        assert len(campaign.telemetry) == 4  # 2 runs x 2 attempts


class TestRetryLineage:
    def test_retried_timeout_keeps_first_attempt_record(
        self, tmp_path, monkeypatch
    ):
        """Satellite fix: a retry must not silently overwrite attempt 1."""
        calls = {}

        def fake_execute(payload):
            run_id = payload["run_id"]
            attempt = payload.get("attempt", 1)
            calls[run_id] = attempt
            row = {
                "run_id": run_id,
                "index": payload["index"],
                "replicate": payload["replicate"],
                "seed": payload["seed"],
                "params": payload["overrides"],
            }
            if attempt == 1:
                row["status"] = "timeout"
                row["error"] = "run exceeded 0.01s"
            else:
                row["status"] = "ok"
                row["bram_kb"] = 123.0
            row["_telemetry"] = {
                "run_id": run_id, "index": payload["index"],
                "attempt": attempt, "status": row["status"],
                "wall_s": 0.5 if attempt == 1 else 0.1,
            }
            return row

        monkeypatch.setattr(
            "repro.campaign.runner.execute_run", fake_execute
        )
        spec = SweepSpec.from_dict(_sweep_doc())
        campaign = Campaign(spec, workers=1, retries=2,
                            ledger=tmp_path / "ledger.jsonl")
        summary = campaign.run(jsonl=tmp_path / "runs.jsonl")
        assert summary["status"] == {"ok": 2}

        rows = [json.loads(line) for line in
                (tmp_path / "runs.jsonl").read_text().splitlines()]
        for row in rows:
            assert row["attempts"] == 2
            assert row["status"] == "ok"
            assert row["bram_kb"] == 123.0  # attempt 2's measurements
            lineage = row["attempt_history"]
            assert lineage == [{"attempt": 1, "status": "timeout",
                                "error": "run exceeded 0.01s"}]

        ledger_runs = ledger_run_records(
            read_ledger(tmp_path / "ledger.jsonl")
        )
        for run in ledger_runs:
            assert run["attempts"] == 2
            assert run["attempt_history"][0]["status"] == "timeout"

        # Both attempts' telemetry retained for straggler analysis.
        assert len(campaign.telemetry) == 4

    def test_exhausted_retries_keep_full_lineage(self, tmp_path, monkeypatch):
        def always_timeout(payload):
            return {
                "run_id": payload["run_id"],
                "index": payload["index"],
                "replicate": payload["replicate"],
                "seed": payload["seed"],
                "params": payload["overrides"],
                "status": "timeout",
                "error": "budget",
            }

        monkeypatch.setattr(
            "repro.campaign.runner.execute_run", always_timeout
        )
        spec = SweepSpec.from_dict(_sweep_doc())
        campaign = Campaign(spec, workers=1, retries=2)
        campaign.run()
        for row in campaign.rows:
            assert row["attempts"] == 3
            assert [a["attempt"] for a in row["attempt_history"]] == [1, 2]


class TestValidation:
    def test_event_budget_validated(self):
        spec = SweepSpec.from_dict(_sweep_doc())
        with pytest.raises(ValueError, match="event_budget"):
            Campaign(spec, event_budget=0)
