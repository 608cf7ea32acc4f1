"""The package is what ``pyproject.toml`` says it is: ``dependencies = []``.

Runs the CLI in a child interpreter in which ``import networkx`` fails (the
routing layer used to need it without declaring it), through parse,
validate, build, simulate and summarise on two shipped scenarios, plus one
FRER compile so the replica-path resolver is covered too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_CHILD = """
import contextlib, io, json, sys
sys.modules["networkx"] = None          # any import of it raises
import repro.cli
from repro.network.program import compile_programs
from repro.network.scenario import ScenarioSpec

summaries = {}
for path in sys.argv[1:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = repro.cli.main(["simulate", path])
    assert status == 0, (path, status)
    summaries[path] = json.loads(out.getvalue())

run_plan = ScenarioSpec.from_dict({
    "name": "frer", "frer_ts": True,
    "topology": {"kind": "frer_ring", "switch_count": 4,
                 "talkers": ["talker0"], "listener": "listener"},
    "flows": {"ts_count": 4, "period_us": 2000, "size_bytes": 64},
    "config": "derive", "slot_us": 62.5, "duration_ms": 4, "seed": 7,
}).build_run_plan()
programs, vids = compile_programs(run_plan)
arcs = [
    [(name, outport) for name, program in programs.items()
     for (_, route_vid), outport in program.routes if route_vid == vid]
    for vid in vids[run_plan.flows.ts_flows[0].flow_id]
]
assert "networkx" not in {name.partition(".")[0] for name, module
                          in sys.modules.items() if module is not None}
print(json.dumps({"summaries": summaries, "frer_arcs": arcs}))
"""


def test_cli_simulates_shipped_scenarios_without_networkx():
    scenarios = [
        str(REPO / "examples" / "slo_star.json"),
        str(REPO / "examples" / "faults_ring.json"),
    ]
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, *scenarios],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout.splitlines()[-1])
    for path in scenarios:
        ts = report["summaries"][path]["classes"]["TS"]
        assert ts["received"] > 0
    first, second = report["frer_arcs"]
    assert first[0][0] == second[0][0] == "sw0"     # both leave the talker switch
    assert first[0][1] != second[0][1]              # ... by different ports
    assert not {tuple(hop) for hop in first} & {tuple(hop) for hop in second}
