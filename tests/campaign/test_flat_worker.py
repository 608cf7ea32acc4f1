"""A sweep worker frees each point's devices before the next point.

``execute_run`` closes its testbed on every path -- ok, error, wall-clock
timeout and event budget -- so with the cyclic collector disabled no
switch outlives its point, and a worker's memory stays flat across a
campaign.  The rows of the benchmark's 48-point ring sweep are pinned to
the digest they had before the testbed could close.
"""

import gc
import hashlib
import json
import weakref

import pytest

from repro.campaign.spec import SweepSpec
from repro.campaign.worker import execute_run
from repro.network.testbed import Testbed
from repro.switch.device import TsnSwitch

#: The ``sweep_short`` document of the repo benchmark, seed 1.
SWEEP = {
    "name": "sweep-short-1",
    "base": {
        "name": "ring-point",
        "topology": {"kind": "ring", "switch_count": 3,
                     "talkers": ["talker0"], "listener": "listener"},
        "flows": {"ts_count": 16, "period_us": 10_000,
                  "size_bytes": 64, "rc_mbps": 50, "be_mbps": 50},
        "config": "derive",
        "slot_us": 62.5,
        "duration_ms": 10,
        "seed": 1,
    },
    "grid": {
        "flows.ts_count": [8, 16, 32, 64],
        "slot_us": [62.5, 125.0],
    },
    "seeds": 6,
}

ROWS_DIGEST = (
    "7222d9ab0b5057115b116234a6b0c3b55df146ae1036359eb399aae93283368f"
)


@pytest.fixture
def closes(monkeypatch):
    """How many times ``Testbed.close`` was called from here on."""
    calls = []
    original = Testbed.close

    def close(self):
        calls.append(None)
        original(self)

    monkeypatch.setattr(Testbed, "close", close)
    return calls


@pytest.fixture
def live_switches(monkeypatch):
    """Every TsnSwitch constructed from here on, held weakly."""
    alive = weakref.WeakSet()
    original = TsnSwitch.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        alive.add(self)

    monkeypatch.setattr(TsnSwitch, "__init__", init)
    gc.collect()
    gc.freeze()  # only what this test allocates is looked at
    gc.disable()
    try:
        yield alive
    finally:
        gc.enable()
        gc.unfreeze()


def _run(payload):
    row = execute_run(payload)
    row.pop("_telemetry")
    return row


def test_no_switch_outlives_its_point(live_switches, closes):
    rows = []
    for run in SweepSpec.from_dict(SWEEP).expand():
        row = _run(run.as_payload())
        assert row["status"] == "ok"
        assert len(live_switches) == 0, run.run_id
        rows.append(json.dumps(row, sort_keys=True))
    assert len(rows) == len(closes) == 48
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == ROWS_DIGEST


def _payload(**changes):
    run = SweepSpec.from_dict(SWEEP).expand()[0]
    return {**run.as_payload(), **changes}


def test_error_point_frees_its_switches(live_switches, closes):
    payload = _payload()
    scenario = payload["scenario"]
    payload["scenario"] = {
        **scenario,
        # Sized for one flow: the build fails programming the second.
        "config": {
            "port_num": 2, "unicast_size": 1, "multicast_size": 0,
            "class_size": 1, "meter_size": 1, "gate_size": 2,
            "queue_num": 8, "cbs_map_size": 3, "cbs_size": 3,
            "queue_depth": 8, "buffer_num": 64,
        },
    }
    row = _run(payload)
    assert row["status"] == "error"
    assert row["error_type"] == "CapacityError"
    assert len(live_switches) == 0 and len(closes) == 1


def test_event_budget_point_frees_its_switches(live_switches, closes):
    row = _run(_payload(event_budget=500))
    assert row["status"] == "timeout"
    assert "event budget" in row["error"]
    assert len(live_switches) == 0 and len(closes) == 1


def test_wall_clock_timeout_point_frees_its_switches(live_switches, closes):
    payload = _payload(timeout_s=0.05)
    payload["scenario"] = {**payload["scenario"], "duration_ms": 10_000}
    row = _run(payload)
    assert row["status"] == "timeout"
    assert len(live_switches) == 0 and len(closes) == 1
