"""``BENCHMARK.json`` and what ``run.py`` prints agree, name for name."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parents[1]
ROOT = HARNESS.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_harness(*args):
    done = subprocess.run(
        [sys.executable, str(HARNESS / "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT,
    )
    return done, done.stdout.strip().splitlines()


def test_spec_keys_names_units_and_bounds():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    names = [w["name"] for w in SPEC["workloads"]]
    for section in ("end_to_end", "per_layer"):
        for metric in SPEC[section]:
            names.append(metric["name"])
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower")
            assert ("bound" in metric) == (section == "end_to_end")
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= SPEC["run_seconds"] <= 60


def test_spec_workloads_are_the_registered_ones():
    import e2e_workloads

    assert [w["name"] for w in SPEC["workloads"]] == list(
        e2e_workloads.WORKLOADS
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted_and_no_other(workload, trace):
    done, lines = run_harness(
        "--workload", workload, "--seed", "2", "--smoke", "--trace",
        str(trace),
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        assert not isinstance(emitted["value"], bool)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
        assert result["metrics"]["trace.spans"]["value"] > 0


def test_traced_run_computes_nothing_the_spec_does_not_list(tmp_path):
    detail = tmp_path / "detail.json"
    done, _ = run_harness(
        "--workload", "linear_qbv_observed", "--seed", "2", "--smoke",
        "--trace", "1", "--detail", str(detail),
    )
    assert done.returncode == 0, done.stdout + done.stderr
    computed = set(json.loads(detail.read_text())["layers"])
    listed = {m["name"] for m in SPEC["per_layer"]}
    # exact counts that identify a run but belong to no layer
    assert computed - listed <= {"hops", "frames_in_flight", "points", "plans"}


def test_unknown_workload_prints_no_result():
    done, lines = run_harness("--workload", "nope", "--trace", "0")
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def test_full_smoke_run_writes_a_comparable_result_file(tmp_path):
    out = tmp_path / "smoke.json"
    done, _ = run_harness("--seed", "2", "--smoke", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(out.read_text())
    for key in ("nproc", "python", "commit", "seed", "backend", "load_1min",
                "noisy"):
        assert key in result
    assert set(result["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    star = result["workloads"]["star_dense"]["untraced"]
    assert star["info"]["frame_path"] == "batch"
    assert star["info"]["gate_mode"] == "table"
    assert len(star["samples"]["wall_s"]) >= 2
    done, lines = run_harness("compare", str(out), str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    assert not any("worse" in line for line in lines)
