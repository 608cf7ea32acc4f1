"""The ``repro sched`` subcommand."""

import json

import pytest

from repro.cli import main

GAP_SCENARIO = {
    "name": "gap-point",
    "topology": {"kind": "star",
                 "talkers": ["talker0", "talker1", "talker2"],
                 "listener": "listener"},
    "flows": {"groups": [
        {"ts_count": 3, "period_us": 100, "size_bytes": 64},
        {"ts_count": 2, "period_us": 200, "size_bytes": 512},
    ]},
    "config": "derive",
    "slot_us": 50,
    "duration_ms": 2,
    "seed": 0,
}


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(GAP_SCENARIO))
    return path


class TestSchedCommand:
    def test_exact_reports_optimality_proof(self, scenario_file, capsys):
        assert main(["sched", str(scenario_file),
                     "--backend", "exact", "--json"]) == 0
        out, err = capsys.readouterr()
        payload = json.loads(out)
        (plan,) = payload["plans"]
        assert plan["backend"] == "exact"
        assert plan["status"] == "optimal"
        assert plan["required_queue_depth"] == 2
        assert "proved peak 2" in err

    def test_compare_shows_greedy_gap(self, scenario_file, capsys):
        assert main(["sched", str(scenario_file),
                     "--compare", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_backend = {p["backend"]: p for p in payload["plans"]}
        greedy, exact = by_backend["greedy"], by_backend["exact"]
        # The shipped gap instance: greedy needs a strictly deeper queue
        # and therefore strictly more BRAM than the proven optimum.
        assert greedy["required_queue_depth"] > exact["required_queue_depth"]
        assert greedy["configured_queue_depth"] > (
            exact["configured_queue_depth"]
        )
        assert greedy["bram_kb"] > exact["bram_kb"]

    def test_table_output(self, scenario_file, capsys):
        assert main(["sched", str(scenario_file), "--compare"]) == 0
        out = capsys.readouterr().out
        assert "backend" in out and "BRAM Kb" in out
        assert "greedy" in out and "exact" in out

    def test_unknown_backend_exits_2(self, scenario_file, capsys):
        assert main(["sched", str(scenario_file),
                     "--backend", "cplex"]) == 2
        assert "cplex" in capsys.readouterr().err

    def test_backend_stanza_in_scenario_is_default(self, tmp_path, capsys):
        doc = dict(GAP_SCENARIO)
        doc["sched"] = {"backend": "exact"}
        path = tmp_path / "stanza.json"
        path.write_text(json.dumps(doc))
        assert main(["sched", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plans"][0]["backend"] == "exact"


class TestBackendOptions:
    """Stanza options belong to the backend they were declared for."""

    @pytest.fixture
    def exact_options_file(self, tmp_path):
        doc = dict(GAP_SCENARIO)
        # Five nodes cut the 13-node proof short: the cap shows up as an
        # unproven exact plan, so the test sees where the options went.
        doc["sched"] = {"backend": "exact", "options": {"node_limit": 5}}
        path = tmp_path / "exact-options.json"
        path.write_text(json.dumps(doc))
        return path

    def test_compare_runs_other_backends_with_defaults(
        self, exact_options_file, capsys
    ):
        assert main(["sched", str(exact_options_file),
                     "--compare", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_backend = {p["backend"]: p for p in payload["plans"]}
        assert set(by_backend) == {"anneal", "exact", "greedy", "unplanned"}
        assert by_backend["exact"]["status"] == "feasible"
        assert by_backend["exact"]["nodes_explored"] == 5
        assert by_backend["anneal"]["iterations"] > 0

    def test_backend_override_runs_with_defaults(
        self, exact_options_file, capsys
    ):
        assert main(["sched", str(exact_options_file),
                     "--backend", "anneal", "--json"]) == 0
        (plan,) = json.loads(capsys.readouterr().out)["plans"]
        assert plan["backend"] == "anneal"
        assert plan["status"] == "optimal"
