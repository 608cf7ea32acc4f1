"""What the scheduler's plan turns into downstream, pinned.

Every reader of the injection plan -- Qbv window synthesis, the run
summary's ``"itp"`` section, the sweep rows' ``depth_margin_frames`` --
is held to literals captured while those readers still went through a
second, projected copy of the plan.  Reading the scheduler's own plan
must reproduce them exactly, including their absence under
``multi_cqf``, which has no single-schedule plan.
"""

import hashlib
import io
import json

import pytest

from repro.analysis.export import result_summary
from repro.campaign import Campaign, SweepSpec
from repro.network.scenario import ScenarioSpec
from tests.test_golden_outputs import SCENARIOS

#: A Qbv line whose ``max_admission`` plan rejects a fifth of the flows:
#: the window synthesis must skip them.
QBV_ADMISSION = {
    "name": "qbv-admission",
    "topology": {"kind": "linear", "switch_count": 3,
                 "talkers": ["talker0"], "listener": "listener"},
    "flows": {"ts_count": 400, "size_bytes": 256},
    "config": "derive",
    "slot_us": 62.5,
    "duration_ms": 10,
    "gate_mechanism": "qbv",
    "sched": {"objective": "max_admission", "utilization_limit": 0.1},
}

#: One small CQF ring, run under each shaper.
SHAPED = {
    "name": "shaped",
    "topology": {"kind": "ring", "switch_count": 2,
                 "talkers": ["talker0"], "listener": "listener"},
    "flows": {"ts_count": 24, "size_bytes": 128,
              "rc_mbps": 50, "be_mbps": 50},
    "config": "derive",
    "slot_us": 62.5,
    "duration_ms": 12,
}

SHAPERS = ("cqf", "csqf", "multi_cqf")


def _out_gcl_digest(testbed) -> str:
    gcls = {
        f"{name}.p{port_id}": [
            [entry.gate_states, entry.interval_ns]
            for entry in port.gates.out_gcl.entries
        ]
        for name, switch in testbed.switches.items()
        for port_id, port in enumerate(switch.ports)
    }
    return hashlib.sha256(
        json.dumps(gcls, sort_keys=True).encode()
    ).hexdigest()


class TestQbvGateLists:
    @pytest.mark.parametrize("doc,digest", [
        (SCENARIOS["linear_qbv_cbs"],
         "c44cddbd39308ea6dffc42d6c51004dfcbd0114ba5c041fd611cfccbedf44a42"),
        (QBV_ADMISSION,
         "57ab99b6e279c7773781ec5fbdd85fceb327193a2caa6b702b3d184c6f78dc30"),
    ], ids=["golden_linear", "max_admission"])
    def test_out_gcls_of_every_port(self, doc, digest):
        testbed = ScenarioSpec.from_dict(doc).build_testbed()
        testbed.build()
        assert _out_gcl_digest(testbed) == digest

    def test_admission_cell_rejects_and_stays_lossless(self):
        spec = ScenarioSpec.from_dict(QBV_ADMISSION)
        result = spec.run()
        assert result.sched_plan.admitted_count == 320
        assert len(result.sched_plan.rejected) == 80
        assert result.ts_loss == 0.0


class TestRunSummary:
    @pytest.mark.parametrize("shaper,itp,digest", [
        ("cqf",
         {"max_frames_per_slot": 1, "load_balance_ratio": 6.666666666666667},
         "5e117d099a43fe940bf8e6e93c4c2dee0420c2eac77a6a7e81bf39389bce89bb"),
        ("csqf",
         {"max_frames_per_slot": 1, "load_balance_ratio": 6.666666666666667},
         "21107702e5f5a6c87bb2b9d0334c5cd24057178d51d8cbb2c19082981301f41c"),
        ("multi_cqf", None,
         "751fffee48353298fddc18795ac650e0d2029ed47fd5347cd3caa18b5a25bcb8"),
    ], ids=SHAPERS)  # a re-captured digest keeps the test's id
    def test_itp_section(self, shaper, itp, digest):
        result = ScenarioSpec.from_dict(
            {**SHAPED, "sched": {"shaper": shaper}}
        ).run()
        summary = result_summary(result)
        assert summary.get("itp") == itp
        # Hashed unsorted, so the key order is pinned too.
        assert hashlib.sha256(
            json.dumps(summary).encode()
        ).hexdigest() == digest


def test_sweep_rows_depth_margin():
    spec = SweepSpec.from_dict({
        "name": "shapers", "base": SHAPED,
        "grid": {"sched.shaper": list(SHAPERS)},
    })
    sink = io.StringIO()
    Campaign(spec, workers=1).run(jsonl=sink)
    rows = [json.loads(line) for line in sink.getvalue().splitlines()]
    margins = {
        row["params"]["sched.shaper"]: row.get("depth_margin_frames", "absent")
        for row in rows
    }
    assert margins == {"cqf": 3, "csqf": 3, "multi_cqf": "absent"}
