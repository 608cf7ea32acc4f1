"""Golden outputs: every simulated observable, pinned by hash.

``tests/data/golden_outputs.json`` was captured on the commit *before* the
egress port became demand-driven (no-op ``_tx_idle`` events elided, empty
ports skipping arbitration).  That change may only remove events that did
nothing, so every scenario here must still reproduce the captured sha256
of its canonical trace, class digest, switch counters, drop report, port
report and headroom report -- in both gate modes and at 1 vs 2 shards --
and ``scheduled + elided`` must equal the captured ``scheduled`` exactly.

Regenerate (only when an output change is intended) with
``PYTHONPATH=src python -m tests.test_golden_outputs``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.network.host import Host
from repro.network.scenario import ScenarioSpec
from repro.sim.shard import _trace_sort_key, run_sharded
from repro.sim.trace import Tracer
from repro.switch.packet import reset_frame_ids
from repro.switch.scheduler import DeficitRoundRobinScheduler
from tests.sim.test_shard import RING as SHARD_RING, STAR as SHARD_STAR

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_outputs.json"

_TALKERS = {"talkers": ["talker0", "talker1"], "listener": "listener"}

SCENARIOS = {
    "star_cqf": {
        "name": "golden-star",
        "topology": {"kind": "star", **_TALKERS},
        "flows": {"ts_count": 16, "period_us": 1000, "size_bytes": 64,
                  "rc_mbps": 100, "be_mbps": 100},
        "duration_ms": 6,
    },
    "ring16_cqf": {
        "name": "golden-ring16",
        "topology": {"kind": "ring", "switch_count": 16,
                     "talkers": ["talker0"], "listener": "listener"},
        "flows": {"ts_count": 16, "period_us": 1000, "size_bytes": 64},
        "duration_ms": 5,
    },
    "linear_qbv_cbs": {
        "name": "golden-linear-qbv",
        "topology": {"kind": "linear", "switch_count": 3,
                     "talkers": ["talker0"], "listener": "listener"},
        "flows": {"ts_count": 8, "period_us": 2000, "size_bytes": 128,
                  "rc_mbps": 200, "be_mbps": 300},
        "duration_ms": 8,
        "gate_mechanism": "qbv",
    },
    "star_preemption": {
        "name": "golden-preempt",
        "topology": {"kind": "star", **_TALKERS},
        "flows": {"ts_count": 8, "period_us": 2000, "size_bytes": 64,
                  "rc_mbps": 200, "be_mbps": 300},
        "duration_ms": 8,
        "preemption_enabled": True,
    },
    # RC and BE together oversubscribe the trunk, so the DRR stage really
    # arbitrates (see examples/custom_template.py).
    "ring_drr": {
        "name": "golden-drr",
        "topology": {"kind": "ring", "switch_count": 3, **_TALKERS},
        "flows": {"ts_count": 8, "period_us": 1000, "size_bytes": 64,
                  "rc_mbps": 700, "be_mbps": 700},
        "duration_ms": 6,
    },
    # Drifting clocks under a gPTP servo that has not locked yet: every
    # sync slews a clock (>= 10 ``adjust_rate`` calls after gate start),
    # so window tables are rebuilt with port wakeups in flight.
    "linear_qbv_gptp": {
        "name": "golden-linear-qbv-gptp",
        "topology": {"kind": "linear", "switch_count": 3,
                     "talkers": ["talker0"], "listener": "listener"},
        "flows": {"ts_count": 8, "period_us": 2000, "size_bytes": 128,
                  "rc_mbps": 50, "be_mbps": 50},
        "duration_ms": 170,
        "gate_mechanism": "qbv",
        "clock_drift_ppm": 100,
        "clock_offset_spread_ns": 2000,
        "enable_gptp": True,
        "gptp_warmup_ns": 40_000_000,
    },
    "ring_cqf_gptp_preempt": {
        "name": "golden-ring-cqf-gptp",
        "topology": {"kind": "ring", "switch_count": 4,
                     "talkers": ["talker0"], "listener": "listener"},
        "flows": {"ts_count": 8, "period_us": 2000, "size_bytes": 64,
                  "rc_mbps": 100, "be_mbps": 100},
        "duration_ms": 120,
        "preemption_enabled": True,
        "clock_drift_ppm": 200,
        "clock_offset_spread_ns": 1000,
        "enable_gptp": True,
        "gptp_warmup_ns": 40_000_000,
    },
}

GATE_MODES = ("flip", "table")


def _drr_factory():
    return DeficitRoundRobinScheduler(weights={5: 2, 4: 2, 3: 2, 0: 1})


def _sha(value) -> str:
    text = value if isinstance(value, str) else json.dumps(
        value, sort_keys=True, default=repr
    )
    return hashlib.sha256(text.encode()).hexdigest()


def _hashes(result) -> dict:
    trace = sorted(result.tracer.records, key=_trace_sort_key)
    return {
        "trace": _sha([
            [r.time, r.category, r.message, repr(r.fields)] for r in trace
        ]),
        "classes": _sha(
            result.analyzer.class_digest(result.expected_by_flow)
        ),
        "counters": _sha(result.counters()),
        "drops": _sha(result.drop_report()),
        "ports": _sha(result.port_report()),
        "headroom": _sha(result.headroom_report().as_dict()),
    }


def _run(label: str, gate_events: str):
    # Process-global MAC / frame-id counters feed the trace; start every
    # run from the same point (as repro.sim.shard does per replica).
    Host._next_index = 0
    reset_frame_ids()
    spec = ScenarioSpec.from_dict(
        {**SCENARIOS[label], "gate_events": gate_events}
    )
    if label == "ring_drr":
        spec.extras["scheduler_factory"] = _drr_factory
    return spec.run(tracer=Tracer())


def _capture() -> dict:
    golden: dict = {"scenarios": {}, "sharded": {}}
    for label in SCENARIOS:
        for mode in GATE_MODES:
            result = _run(label, mode)
            stats = result.sim_stats
            golden["scenarios"][f"{label}/{mode}"] = {
                **_hashes(result),
                "scheduled": stats["scheduled"] + stats.get("elided", 0),
            }
    for label, doc in (("ring", SHARD_RING), ("star", SHARD_STAR)):
        golden["sharded"][label] = _hashes(
            run_sharded(doc, shards=1, trace=True)
        )
    return golden


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("mode", GATE_MODES)
@pytest.mark.parametrize("label", sorted(SCENARIOS))
def test_outputs_match_parent_capture(golden, label, mode):
    expected = dict(golden["scenarios"][f"{label}/{mode}"])
    # The servo scenarios' flip rows were captured without a count.
    parent_scheduled = expected.pop("scheduled", None)
    result = _run(label, mode)
    assert _hashes(result) == expected
    # Traffic flowed, so the hashes are not hashes of nothing.
    assert result.analyzer.received() > 0
    stats = result.sim_stats
    # Exact-count proof that only never-posted idle events disappeared.
    if parent_scheduled is not None:
        assert stats["scheduled"] + stats["elided"] == parent_scheduled
    assert stats["elided"] > 0


@pytest.mark.parametrize("shards", (1, 2))
@pytest.mark.parametrize(
    "label,doc", (("ring", SHARD_RING), ("star", SHARD_STAR))
)
def test_sharded_outputs_match_parent_capture(golden, label, doc, shards):
    result = run_sharded(doc, shards=shards, trace=True)
    assert _hashes(result) == golden["sharded"][label]


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(_capture(), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
