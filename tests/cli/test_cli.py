"""Command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.network.scenario import ScenarioSpec

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

REMOVED_SHARD = (
    'shard: sharded runs were removed; see docs/performance.md '
    '"Why there is no sharded run"'
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


class TestReport:
    def test_prints_table3(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "10818Kb" in out and "-80.53%" in out

    def test_table1_flag(self, capsys):
        assert main(["report", "--table1"]) == 0
        out = capsys.readouterr().out
        assert "2304Kb" in out and "1764Kb" in out


class TestSize:
    def test_stdout_json(self, capsys):
        assert main(["size", "--topology", "ring", "--flows", "128"]) == 0
        out = capsys.readouterr().out
        config = json.loads(out)
        assert config["unicast_size"] == 128
        assert config["port_num"] == 1

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "config.json"
        assert main(["size", "--flows", "64", "--output", str(target)]) == 0
        assert json.loads(target.read_text())["unicast_size"] == 64

    def test_qbv_mechanism(self, capsys):
        assert main(["size", "--flows", "32",
                     "--gate-mechanism", "qbv"]) == 0
        config = json.loads(capsys.readouterr().out)
        assert config["gate_size"] == 160  # slots per 10ms cycle

    def test_star_ignores_switch_count(self, capsys):
        assert main(["size", "--topology", "star", "--flows", "16"]) == 0
        assert json.loads(capsys.readouterr().out)["port_num"] == 3

    def test_note_reports_depth_margin(self, capsys):
        assert main(["size", "--topology", "ring", "--flows", "128"]) == 0
        captured = capsys.readouterr()
        config = json.loads(captured.out)
        import re

        match = re.search(r"ITP needs queue depth (\d+), configured "
                          r"(\d+) \(\+(\d+) frames margin\)", captured.err)
        assert match, captured.err
        required, configured, margin = map(int, match.groups())
        assert configured == config["queue_depth"]
        assert margin == configured - required


class TestEmitRtl:
    def test_preset(self, tmp_path, capsys):
        assert main(["emit-rtl", "--preset", "ring",
                     "--outdir", str(tmp_path)]) == 0
        assert (tmp_path / "tsn_switch_top.v").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["predicted_bram_kb"] == 2106

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        assert main(["size", "--flows", "32", "--output", str(cfg)]) == 0
        outdir = tmp_path / "rtl"
        assert main(["emit-rtl", "--config", str(cfg),
                     "--outdir", str(outdir)]) == 0
        assert (outdir / "gate_ctrl.v").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["emit-rtl", "--config", str(tmp_path / "nope.json"),
                     "--outdir", str(tmp_path)]) == 2


class TestSimulate:
    def _scenario(self, tmp_path, **overrides):
        data = {
            "name": "cli-test",
            "topology": {"kind": "ring", "switch_count": 2,
                         "talkers": ["talker0"], "listener": "listener"},
            "flows": {"ts_count": 8},
            "config": "derive",
            "slot_us": 62.5,
            "duration_ms": 15,
        }
        data.update(overrides)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        return path

    def test_runs_and_prints_summary(self, tmp_path, capsys):
        path = self._scenario(tmp_path)
        assert main(["simulate", str(path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["classes"]["TS"]["loss"] == 0.0

    def test_summary_json_file(self, tmp_path, capsys):
        path = self._scenario(tmp_path)
        out = tmp_path / "summary.json"
        assert main(["simulate", str(path), "--summary-json", str(out)]) == 0
        assert json.loads(out.read_text())["classes"]["TS"]["received"] > 0

    def test_bad_scenario_reports_error(self, tmp_path, capsys):
        path = self._scenario(tmp_path, topology={"kind": "mesh"})
        assert main(["simulate", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_metrics_flag_writes_snapshot(self, tmp_path, capsys):
        path = self._scenario(tmp_path)
        out = tmp_path / "metrics.json"
        assert main(["simulate", str(path), "--metrics", str(out)]) == 0
        snapshot = json.loads(out.read_text())
        assert snapshot["frames_total"]["kind"] == "counter"
        assert any(
            series["value"] > 0
            for series in snapshot["frames_total"]["series"]
        )
        # The printed summary embeds the same snapshot and the sim stats.
        summary = json.loads(capsys.readouterr().out)
        assert summary["metrics"]["queue_depth"]["kind"] == "gauge"
        assert summary["sim"]["fired"] > 0

    def test_chrome_trace_flag_writes_events(self, tmp_path, capsys):
        path = self._scenario(tmp_path)
        out = tmp_path / "trace.json"
        assert main(["simulate", str(path), "--chrome-trace", str(out)]) == 0
        events = json.loads(out.read_text())
        assert isinstance(events, list) and events
        for event in events:
            for key in ("name", "ph", "ts", "pid", "tid"):
                assert key in event
        assert any(e["ph"] == "X" for e in events)

    def test_jsonl_trace_flag(self, tmp_path, capsys):
        path = self._scenario(tmp_path)
        out = tmp_path / "trace.jsonl"
        assert main(["simulate", str(path), "--jsonl-trace", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines and all("time_ns" in json.loads(l) for l in lines)

    def test_profile_flag_prints_table(self, tmp_path, capsys):
        path = self._scenario(tmp_path)
        assert main(["simulate", str(path), "--profile"]) == 0
        assert "Wall-clock profile" in capsys.readouterr().err

    def test_flow_spans_add_async_trace_events(self, tmp_path, capsys):
        path = self._scenario(tmp_path)
        out = tmp_path / "trace.json"
        assert main(["simulate", str(path), "--flow-spans",
                     "--chrome-trace", str(out)]) == 0
        events = json.loads(out.read_text())
        phases = {e["ph"] for e in events}
        assert {"b", "n", "e"} <= phases
        begins = [e for e in events if e["ph"] == "b"]
        assert all(e["cat"] == "flow" for e in begins)
        assert "flow" in capsys.readouterr().err  # stderr flow summary

    def test_timeseries_flag_writes_csv(self, tmp_path, capsys):
        path = self._scenario(tmp_path)
        out = tmp_path / "series.csv"
        assert main(["simulate", str(path), "--timeseries", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "time_ns,metric,labels,value"
        assert len(lines) > 1

    def test_prom_flag_writes_exposition(self, tmp_path, capsys):
        path = self._scenario(tmp_path)
        out = tmp_path / "metrics.prom"
        assert main(["simulate", str(path), "--prom", str(out)]) == 0
        text = out.read_text()
        assert "# TYPE frames_total counter" in text
        assert 'le="+Inf"' in text

    def test_drops_flag_prints_report(self, tmp_path, capsys):
        path = self._scenario(tmp_path)
        assert main(["simulate", str(path), "--drops"]) == 0
        err = capsys.readouterr().err
        assert "Drops by reason" in err
        assert "Per-port occupancy and drops" in err

    def test_headroom_flag_prints_report_and_embeds_summary(
        self, tmp_path, capsys
    ):
        path = self._scenario(tmp_path)
        assert main(["simulate", str(path), "--headroom"]) == 0
        captured = capsys.readouterr()
        assert "Resource headroom" in captured.err
        summary = json.loads(captured.out)
        headroom = summary["headroom"]
        assert headroom["timeweighted"] is True
        assert headroom["provisioned_bram_kb"] > 0
        assert headroom["structures"]

    def test_headroom_flag_publishes_prom_gauges(self, tmp_path, capsys):
        path = self._scenario(tmp_path)
        out = tmp_path / "metrics.prom"
        assert main(["simulate", str(path), "--headroom",
                     "--prom", str(out)]) == 0
        text = out.read_text()
        assert "# TYPE headroom_utilization gauge" in text
        assert "headroom_queue_occupancy_mean" in text


class TestHeadroomCommand:
    def _scenario(self, tmp_path, **overrides):
        return TestSimulate()._scenario(tmp_path, **overrides)

    def test_renders_tables_and_exits_zero(self, tmp_path, capsys):
        path = self._scenario(tmp_path)
        assert main(["headroom", str(path)]) == 0
        captured = capsys.readouterr()
        assert "Resource headroom (observed vs provisioned)" in captured.out
        assert "Per-port occupancy and drops" in captured.out
        assert "Cheapest sufficient config" in captured.out
        assert "provisioned" in captured.err

    def test_json_mode_emits_report_schema(self, tmp_path, capsys):
        path = self._scenario(tmp_path)
        assert main(["headroom", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        for key in ("provisioned_bram_kb", "sufficient_bram_kb",
                    "wasted_bram_kb", "utilization", "cheapest_config",
                    "structures", "ports"):
            assert key in report, key
        assert report["timeweighted"] is True
        assert report["cheapest_bram_kb"] > 0

    def test_csv_and_prom_exports(self, tmp_path, capsys):
        path = self._scenario(tmp_path)
        csv_out = tmp_path / "headroom.csv"
        prom_out = tmp_path / "headroom.prom"
        assert main(["headroom", str(path), "--csv", str(csv_out),
                     "--prom", str(prom_out)]) == 0
        header = csv_out.read_text().splitlines()[0]
        assert header.startswith("switch,structure,provisioned,peak")
        assert "# TYPE headroom_utilization gauge" in prom_out.read_text()

    def test_margin_changes_sufficient_sizing(self, tmp_path, capsys):
        path = self._scenario(tmp_path)
        assert main(["headroom", str(path), "--json", "--margin", "8"]) == 0
        inflated = json.loads(capsys.readouterr().out)
        assert main(["headroom", str(path), "--json"]) == 0
        standard = json.loads(capsys.readouterr().out)
        assert inflated["cheapest_config"]["queue_depth"] >= \
            standard["cheapest_config"]["queue_depth"]

    def test_bad_scenario_reports_error(self, tmp_path, capsys):
        path = self._scenario(tmp_path, topology={"kind": "mesh"})
        assert main(["headroom", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestMetricsCommand:
    def _snapshot(self, tmp_path, capsys):
        scenario = TestSimulate()._scenario(tmp_path)
        out = tmp_path / "metrics.json"
        assert main(["simulate", str(scenario), "--metrics", str(out)]) == 0
        capsys.readouterr()  # swallow the simulate summary
        return out

    def test_renders_tables(self, tmp_path, capsys):
        out = self._snapshot(tmp_path, capsys)
        assert main(["metrics", str(out)]) == 0
        text = capsys.readouterr().out
        assert "Counters" in text
        assert "frames_total" in text
        assert "Histograms" in text

    def test_accepts_embedded_summary(self, tmp_path, capsys):
        scenario = TestSimulate()._scenario(tmp_path)
        summary = tmp_path / "summary.json"
        metrics = tmp_path / "metrics.json"
        assert main(["simulate", str(scenario), "--metrics", str(metrics),
                     "--summary-json", str(summary)]) == 0
        capsys.readouterr()
        assert main(["metrics", str(summary)]) == 0
        assert "frames_total" in capsys.readouterr().out

    def test_json_flag_reemits_snapshot(self, tmp_path, capsys):
        out = self._snapshot(tmp_path, capsys)
        assert main(["metrics", str(out), "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["frames_total"]["kind"] == "counter"

    def test_rejects_non_snapshot(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"hello": "world"}))
        assert main(["metrics", str(bogus)]) == 2
        assert "does not contain" in capsys.readouterr().err


class TestSloCommand:
    def _scenario(self, tmp_path, slo=None):
        data = {
            "name": "slo-test",
            "topology": {"kind": "ring", "switch_count": 2,
                         "talkers": ["talker0"], "listener": "listener"},
            "flows": {"ts_count": 8},
            "config": "derive",
            "slot_us": 62.5,
            "duration_ms": 15,
        }
        if slo is not None:
            data["slo"] = slo
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        return path

    def test_generous_budget_passes(self, tmp_path, capsys):
        path = self._scenario(
            tmp_path, slo={"class": {"TS": {"latency_us": 10000}}}
        )
        assert main(["slo", str(path)]) == 0
        out = capsys.readouterr().out
        assert "SLO: PASS" in out

    def test_impossible_budget_fails_with_exit_1(self, tmp_path, capsys):
        path = self._scenario(
            tmp_path, slo={"class": {"TS": {"latency_ns": 1}}}
        )
        assert main(["slo", str(path)]) == 1
        out = capsys.readouterr().out
        assert "SLO: FAIL" in out and "latency" in out

    def test_json_output(self, tmp_path, capsys):
        path = self._scenario(
            tmp_path, slo={"default": {"max_loss": 0.0}}
        )
        assert main(["slo", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["monitored_flows"] == 8

    def test_bad_slo_stanza_is_a_usage_error(self, tmp_path, capsys):
        path = self._scenario(tmp_path, slo={"default": {"bogus": 1}})
        assert main(["slo", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestSizeOptimize:
    def test_optimize_flag(self, capsys):
        assert main(["size", "--flows", "128", "--optimize",
                     "--deadline-us", "1000"]) == 0
        captured = capsys.readouterr()
        config = json.loads(captured.out)
        assert config["queue_depth"] <= 12
        assert "optimized" in captured.err

    def test_optimize_with_aggregation(self, capsys):
        assert main(["size", "--flows", "128", "--optimize",
                     "--aggregate"]) == 0
        config = json.loads(capsys.readouterr().out)
        assert config["unicast_size"] == 1

    def test_impossible_deadline_errors(self, capsys):
        assert main(["size", "--flows", "128", "--optimize",
                     "--deadline-us", "10"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["--deadline-us", "1"], "--deadline-us"),
        (["--aggregate"], "--aggregate"),
        (["--optimize", "--gate-mechanism", "qbv"], "--gate-mechanism"),
        (["--optimize", "--slot-us", "50"], "--slot-us"),
        (["--topology", "star", "--switches", "3"], "--switches"),
        (["--slot-us", "0.0001"], "--slot-us"),
    ], ids=["deadline-without-optimize", "aggregate-without-optimize",
            "optimize-with-qbv", "slot-with-optimize", "switches-on-star",
            "slot-finer-than-a-nanosecond"])
    def test_flag_without_effect_is_refused(self, capsys, argv, flag):
        assert main(["size", "--flows", "16", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error:") and flag in line


class TestSubNanosecondFlags:
    """A microsecond flag finer than one nanosecond is a usage error that
    names the flag, never a traceback."""

    @pytest.mark.parametrize("argv, flag", [
        (["size", "--period-us", "0.0001"], "--period-us"),
        (["size", "--optimize", "--deadline-us", "0.0001"], "--deadline-us"),
        (["simulate", "{scenario}", "--timeseries", "{series}",
          "--timeseries-interval-us", "0.0001"], "--timeseries-interval-us"),
    ], ids=["size-period", "size-optimize-deadline",
            "simulate-timeseries-interval"])
    def test_exits_2_naming_the_flag(self, tmp_path, capsys, argv, flag):
        scenario = TestSimulate()._scenario(tmp_path)
        series = tmp_path / "series.csv"
        argv = [arg.format(scenario=scenario, series=series) for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error:") and flag in line
        assert not series.exists()


class TestSimulateCheck:
    def _scenario(self, tmp_path, **overrides):
        data = {
            "name": "check-test",
            "topology": {"kind": "ring", "switch_count": 2,
                         "talkers": ["talker0"], "listener": "listener"},
            "flows": {"ts_count": 8},
            "config": "derive",
            "slot_us": 62.5,
            "duration_ms": 15,
        }
        data.update(overrides)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        return path

    def test_clean_deployment_passes(self, tmp_path, capsys):
        path = self._scenario(tmp_path)
        assert main(["simulate", str(path), "--check"]) == 0
        assert "0 error(s)" in capsys.readouterr().err

    def test_undersized_config_fails_check(self, tmp_path, capsys):
        explicit = {
            "port_num": 1, "unicast_size": 2, "multicast_size": 0,
            "class_size": 2, "meter_size": 2, "gate_size": 2,
            "queue_num": 8, "cbs_map_size": 3, "cbs_size": 3,
            "queue_depth": 8, "buffer_num": 64,
        }
        path = self._scenario(tmp_path, config=explicit)
        assert main(["simulate", str(path), "--check"]) == 1
        out = capsys.readouterr().out
        assert "class_tbl" in out

    def test_check_judges_the_plan_the_run_uses(self, tmp_path, capsys):
        # The mixed cell plans with the exact backend: 9 frames per slot,
        # where greedy needs 10.  Depth 9 runs drop-free, so the check
        # must not flag it against the greedy plan.
        doc = json.loads((EXAMPLES / "sched_mixed_cell.json").read_text())
        spec = ScenarioSpec.from_dict(doc)
        config = spec.build_config(spec.build_topology(), spec.build_flows())
        explicit = config.with_updates(
            queue_depth=9, buffer_num=9 * config.queue_num
        ).to_dict()
        del explicit["name"]
        path = tmp_path / "mixed9.json"
        path.write_text(json.dumps({**doc, "config": explicit}))
        assert main(["simulate", str(path), "--check"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "[warning] queue_depth: configured depth equals the ITP bound "
            "(9); any phase error drops packets",
        ]

    @staticmethod
    def _sized(doc, **sizes):
        """*doc* with its derived config made explicit, *sizes* applied."""
        spec = ScenarioSpec.from_dict(doc)
        config = spec.build_config(spec.build_topology(), spec.build_flows())
        explicit = config.with_updates(**sizes).to_dict()
        del explicit["name"]
        return {**doc, "config": explicit}

    def _check_and_run(self, tmp_path, capsys, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        checked = main(["simulate", str(path), "--check"])
        check_out = capsys.readouterr()
        ran = main(["simulate", str(path)])
        return checked, check_out, ran, capsys.readouterr().err

    def test_frer_replicas_count_against_the_tables(self, tmp_path, capsys):
        # The talker's switch carries both replicas of all 8 flows: 16
        # classification and 16 unicast entries where 8 fit.
        doc = json.loads((EXAMPLES / "faults_ring.json").read_text())
        del doc["faults"], doc["slo"]
        doc = self._sized(doc, class_size=8, unicast_size=8, meter_size=8)
        checked, out, ran, err = self._check_and_run(tmp_path, capsys, doc)
        assert checked == 1 and ran == 2
        for table in ("class_tbl", "unicast_tbl"):
            assert f"[error] {table}: sw0: 16 entries but the table holds " \
                "8; flow 4 is the first that does not fit" in \
                out.out.splitlines()
        # the run refuses with the same text
        assert err == "error: class_tbl: sw0: 16 entries but the table " \
            "holds 8; flow 4 is the first that does not fit\n"

    def test_qbv_gate_lists_count_against_the_gate_table(
        self, tmp_path, capsys
    ):
        doc = self._sized({
            "name": "qbv-gates",
            "topology": {"kind": "linear", "switch_count": 3,
                         "talkers": ["talker0"], "listener": "listener"},
            "flows": {"ts_count": 32, "size_bytes": 128},
            "config": "derive",
            "slot_us": 62.5,
            "duration_ms": 5,
            "gate_mechanism": "qbv",
        }, gate_size=4)
        checked, out, ran, err = self._check_and_run(tmp_path, capsys, doc)
        assert checked == 1 and ran == 2
        message = (
            "sw0 port 0: Qbv schedule needs 96 gate entries but gate_size "
            "is 4; size the config with "
            "repro.qbv.synthesis.estimate_gate_size"
        )
        assert f"[error] gate_tbl: {message}" in out.out.splitlines()
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("doc,refusal", [
        ({**json.loads((EXAMPLES / "faults_ring.json").read_text()),
          "gate_mechanism": "qbv"},
         "scenario 'faults-frer-ring' failed validation with 1 problem(s):"
         "\n  - frer_ts: FRER replicas run over 'cqf' gating only, not "
         "'qbv'"),
        ({"name": "qbv-csqf",
          "topology": {"kind": "ring", "switch_count": 2,
                       "talkers": ["talker0"], "listener": "listener"},
          "flows": {"ts_count": 8}, "config": "derive", "slot_us": 62.5,
          "duration_ms": 5, "gate_mechanism": "qbv",
          "sched": {"shaper": "csqf"}},
         "scenario 'qbv-csqf' failed validation with 1 problem(s):\n  - "
         "gate_mechanism: 'qbv' does not run with sched.shaper 'csqf'"),
    ], ids=["frer_qbv", "csqf_qbv_derived"])
    def test_check_refuses_what_the_run_refuses(
        self, tmp_path, capsys, doc, refusal
    ):
        checked, out, ran, err = self._check_and_run(tmp_path, capsys, doc)
        assert checked == ran == 2
        assert out.out == ""
        assert out.err == err == f"error: {refusal}\n"

    def test_csqf_deadlines_are_judged_with_two_slots_per_hop(
        self, tmp_path, capsys
    ):
        # 12 hops: (12 + 1) x 62.5us fits the 1 ms deadline, but CSQF's
        # (2 x 12 + 1) x 62.5us does not -- and the run misses it.
        doc = {"name": "csqf-line",
               "topology": {"kind": "linear", "switch_count": 12},
               "flows": {"ts_count": 16, "period_us": 10000,
                         "size_bytes": 64},
               "config": "derive", "slot_us": 62.5,
               "sched": {"shaper": "csqf"}}
        path = tmp_path / "csqf.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--check"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"[error] deadline: flow {flow}: csqf worst case 1562500ns over "
            "12 hops exceeds the 1000000ns deadline" for flow in (2, 13)
        ]
        result = ScenarioSpec.from_dict(doc).run()
        late = [latency for flow in result.flows.ts_flows
                if flow.deadline_ns is not None
                for latency in result.analyzer.records[
                    flow.flow_id].latencies_ns
                if latency > flow.deadline_ns]
        assert len(late) == 8

    def test_config_port_num_does_not_bound_the_topology(
        self, tmp_path, capsys
    ):
        # Each switch model is synthesized with its own port count, so an
        # explicit port_num below the star's 3 ports builds and runs.
        doc = self._sized({
            "name": "star-one-port",
            "topology": {"kind": "star", "talkers": ["talker0", "talker1"],
                         "listener": "listener"},
            "flows": {"ts_count": 8}, "config": "derive",
            "slot_us": 62.5, "duration_ms": 5,
        }, port_num=1)
        path = tmp_path / "star.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--check"]) == 0
        assert "0 error(s)" in capsys.readouterr().err
        assert main(["simulate", str(path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["classes"]["TS"]["loss"] == 0.0

    @pytest.mark.parametrize("config", ["derive", "explicit"])
    def test_unplannable_slot_and_infeasible_plan_are_violations(
        self, tmp_path, capsys, config
    ):
        explicit = {
            "port_num": 1, "unicast_size": 4096, "multicast_size": 0,
            "class_size": 4096, "meter_size": 4096, "gate_size": 2,
            "queue_num": 8, "cbs_map_size": 3, "cbs_size": 3,
            "queue_depth": 8, "buffer_num": 64,
        }
        extra = {} if config == "derive" else {"config": explicit}
        slot = self._scenario(tmp_path, slot_us=65, **extra)
        assert main(["simulate", str(slot), "--check"]) == 1
        assert capsys.readouterr().out.startswith(
            "[error] slotting: slot 65000ns does not divide"
        )
        overloaded = self._scenario(
            tmp_path, flows={"ts_count": 4000, "size_bytes": 1500}, **extra
        )
        assert main(["simulate", str(overloaded), "--check"]) == 1
        assert capsys.readouterr().out.startswith(
            "[error] itp: flow 320: no injection slot"
        )


class TestSweep:
    def _sweep(self, tmp_path, **overrides):
        data = {
            "name": "cli-sweep",
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
            "grid": {"flows.ts_count": [4, 8]},
        }
        data.update(overrides)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(data))
        return path

    def test_list_prints_expanded_runs(self, tmp_path, capsys):
        path = self._sweep(tmp_path)
        assert main(["sweep", str(path), "--list"]) == 0
        out = capsys.readouterr().out
        assert "cli-sweep:0000" in out and "cli-sweep:0001" in out

    def test_end_to_end_writes_rows_and_summary(self, tmp_path, capsys):
        path = self._sweep(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["sweep", str(path), "--workers", "1",
                     "--out", str(out_dir)]) == 0
        rows = (out_dir / "runs.jsonl").read_text().splitlines()
        assert len(rows) == 2
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["runs"] == 2
        assert summary["status"] == {"ok": 2}
        assert json.loads(capsys.readouterr().out) == summary

    def test_invalid_sweep_document_exits_2(self, tmp_path, capsys):
        path = self._sweep(tmp_path, grid={"flows.ts_cout": [4]})
        assert main(["sweep", str(path)]) == 2
        assert "ts_count" in capsys.readouterr().err

    def test_removed_shard_stanza_fails_at_expansion(self, tmp_path, capsys):
        path = self._sweep(tmp_path)
        doc = json.loads(path.read_text())
        doc["base"]["shard"] = {"count": 2}
        path.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        assert main(["sweep", str(path), "--out", str(out_dir)]) == 2
        assert REMOVED_SHARD in capsys.readouterr().err
        assert not out_dir.exists()     # no run (and no worker) started

    def test_failed_runs_exit_1(self, tmp_path, capsys):
        # Validates, then fails at build: a 1 us slot fits no TS frame.
        path = self._sweep(tmp_path, grid={"slot_us": [1.0]})
        out_dir = tmp_path / "out"
        assert main(["sweep", str(path), "--out", str(out_dir)]) == 1
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["status"] == {"error": 1}


class TestSimulateStrict:
    @pytest.mark.parametrize("command", (
        "simulate", "headroom", "faults", "sched", "sweep",
    ))
    def test_typo_in_scenario_exits_2_with_paths(self, tmp_path, capsys,
                                                 command):
        data = {
            "name": "typo",
            "topology": {"kind": "ring", "switch_count": 2,
                         "talkers": ["talker0"], "listener": "listener"},
            "flows": {"ts_cout": 8},
            "duration_ms": 5,
            "rate_bsp": 1,
        }
        if command == "sweep":
            data = {"name": "typo-sweep", "base": data}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(data))
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert "flows.ts_cout" in err and "ts_count" in err
        assert ("rate_bsp: unknown scenario key (did you mean 'rate_bps'?)"
                in err)

    @pytest.mark.parametrize("command,document", (
        ("simulate", "scenario"), ("sweep", "sweep"),
    ))
    def test_malformed_json_exits_2_with_its_position(self, tmp_path, capsys,
                                                      command, document):
        path = tmp_path / "doc.json"
        path.write_text('{"name": "x",,}')
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {document} failed validation with 1 problem(s):\n"
            "  - $: invalid JSON: Expecting property name enclosed in "
            "double quotes (line 1, column 14)\n")

    @pytest.mark.parametrize("overrides,path", [
        ({"slot_us": 0}, "slot_us"),
        ({"slo": {"class": {"TS": {"latency_us": None}}}},
         "slo.class.TS.latency_us"),
    ])
    def test_malformed_value_exits_2_with_its_path(self, tmp_path, capsys,
                                                   overrides, path):
        scenario = TestSimulate()._scenario(tmp_path, **overrides)
        assert main(["simulate", str(scenario)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and f"  - {path}: " in err

    def test_removed_shard_stanza_is_named_not_misspelt(self, tmp_path,
                                                        capsys):
        path = TestSimulate()._scenario(tmp_path, shard={"count": 2})
        assert main(["simulate", str(path)]) == 2
        err = capsys.readouterr().err
        assert REMOVED_SHARD in err and "did you mean" not in err

    @pytest.mark.parametrize("argv", (
        ["simulate", "scenario.json", "--shards", "2"],
        ["bench", "check", "--suite", "shard"],
        # No bench command either: the work budgets in
        # tests/test_hop_budget.py replaced its timing gates.
        ["bench"],
    ))
    def test_removed_shard_flags_are_argparse_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestSweepObservability:
    def _sweep(self, tmp_path):
        data = {
            "name": "obs-cli",
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
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(data))
        return path

    def test_artifacts_written_by_default_and_flags(self, tmp_path, capsys):
        path = self._sweep(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["sweep", str(path), "--workers", "1",
                     "--out", str(out_dir),
                     "--status-file", str(out_dir / "status.jsonl"),
                     "--flight-dir", str(out_dir / "flight")]) == 0
        captured = capsys.readouterr()
        # Ledger on by default: head + 2 runs + end.
        ledger = [json.loads(l) for l in
                  (out_dir / "ledger.jsonl").read_text().splitlines()]
        assert [r["record"] for r in ledger] == ["sweep", "run", "run",
                                                 "sweep_end"]
        assert ledger[0]["sweep"] == "obs-cli"
        telemetry = json.loads((out_dir / "telemetry.json").read_text())
        assert telemetry["runs"] == 2
        assert telemetry["stragglers"] == []
        status = [json.loads(l) for l in
                  (out_dir / "status.jsonl").read_text().splitlines()]
        assert status[0]["hb"] == "sweep"
        assert status[-1]["hb"] == "sweep_end"
        assert "# ledger:" in captured.err
        assert "# telemetry:" in captured.err

    def test_no_ledger_flag_suppresses_ledger(self, tmp_path, capsys):
        path = self._sweep(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["sweep", str(path), "--out", str(out_dir),
                     "--no-ledger"]) == 0
        capsys.readouterr()
        assert not (out_dir / "ledger.jsonl").exists()

    def test_event_budget_timeouts_report_stragglers(self, tmp_path, capsys):
        path = self._sweep(tmp_path)
        out_dir = tmp_path / "out"
        # Below both points: they fire 36 and 72 events.
        assert main(["sweep", str(path), "--out", str(out_dir),
                     "--event-budget", "20",
                     "--flight-dir", str(out_dir / "flight")]) == 1
        captured = capsys.readouterr()
        assert "# straggler:" in captured.err
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["status"] == {"timeout": 2}
        assert list((out_dir / "flight").glob("*.json"))


class TestTailCommand:
    def test_renders_status_dir(self, tmp_path, capsys):
        sweep = TestSweepObservability()._sweep(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["sweep", str(sweep), "--out", str(out_dir),
                     "--status-file", str(out_dir / "status.jsonl")]) == 0
        capsys.readouterr()
        # Accepts the --out directory and finds status.jsonl inside it.
        assert main(["tail", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "obs-cli" in out and "[complete]" in out

    def test_renders_status_file(self, tmp_path, capsys):
        sweep = TestSweepObservability()._sweep(tmp_path)
        status = tmp_path / "out" / "status.jsonl"
        assert main(["sweep", str(sweep), "--out", str(tmp_path / "out"),
                     "--status-file", str(status)]) == 0
        capsys.readouterr()
        assert main(["tail", str(status)]) == 0
        out = capsys.readouterr().out
        assert "obs-cli" in out and "[complete]" in out

    def test_missing_status_file_exits_2(self, tmp_path, capsys):
        assert main(["tail", str(tmp_path / "nope.jsonl")]) == 2
        assert "no status file" in capsys.readouterr().err

    def test_out_dir_without_status_file_exits_2(self, tmp_path, capsys):
        assert main(["tail", str(tmp_path)]) == 2
        assert "no status file" in capsys.readouterr().err


class TestSimulateFlight:
    def test_flight_flag_writes_dump(self, tmp_path, capsys):
        path = TestSimulate()._scenario(tmp_path, duration_ms=2)
        dump = tmp_path / "flight.json"
        assert main(["simulate", str(path), "--flight", str(dump)]) == 0
        captured = capsys.readouterr()
        assert "# flight recorder" in captured.err
        doc = json.loads(dump.read_text())
        assert doc["scenario"] == "cli-test"
        assert doc["status"] == "ok"
        assert len(doc["events"]) > 0
        assert doc["sim_stats"]["fired"] > 0
