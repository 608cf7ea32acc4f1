"""Golden outputs: every simulated observable, pinned by hash.

``tests/data/golden_outputs.json`` was captured while the gate engine had
two event disciplines -- ``flip`` (one event per GCL boundary, each kicking
the port) and ``table`` (no gate events; blocked ports wake themselves) --
and, for the first five scenarios, before the egress port became
demand-driven.  Only the table discipline is left, with boundaries
*narrated* to a subscribed gate tracer, so the two rows of a scenario are
two views of one run and no hash may differ from the capture:

``<label>/flip``
    a run under a full tracer reproduces every hash; its event count is
    the ``table`` row's plus one narration event per ``gate`` record.
``<label>/table``
    the same run's trace without the narrated (post-start) ``gate``
    records; a run whose tracer leaves ``gate`` off emits exactly the
    remaining records and equal reports, and its ``scheduled + elided``
    events plus one per frame a switch passed to its pipeline (arrival and
    processing were two events at capture time, one now) equal the pin.

``faulted_star`` and ``frer_ring`` (and every row's ``latencies`` hash) were
captured while frames also travelled as integer handles into a column
store, once per representation; the two captures were equal, and these rows
now stand where the handle-vs-object equivalence suite stood.

Regenerate (only when an output change is intended) with
``PYTHONPATH=src python -m tests.test_golden_outputs``.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.core.templates import EgressSchedTemplate, default_template_set
from repro.network.scenario import ScenarioSpec
from repro.sim.trace import Tracer
from repro.switch.scheduler import DeficitRoundRobinScheduler

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
        "clock_drift_ppm": 100, "clock_offset_spread_ns": 2000,
        "enable_gptp": True, "gptp_warmup_ns": 40_000_000,
    },
    "ring_cqf_gptp_preempt": {
        "name": "golden-ring-cqf-gptp",
        "topology": {"kind": "ring", "switch_count": 4,
                     "talkers": ["talker0"], "listener": "listener"},
        "flows": {"ts_count": 8, "period_us": 2000, "size_bytes": 64,
                  "rc_mbps": 100, "be_mbps": 100},
        "duration_ms": 120,
        "preemption_enabled": True,
        "clock_drift_ppm": 200, "clock_offset_spread_ns": 1000,
        "enable_gptp": True, "gptp_warmup_ns": 40_000_000,
    },
    # A fault plan (per-link corruption, then a cut) and FRER replication +
    # elimination: the two places a frame is copied or dropped per link.
    "faulted_star": {
        "name": "faulted-fp",
        "topology": {"kind": "star", "talkers": ["talker0"],
                     "listener": "listener"},
        "flows": {"ts_count": 8, "period_us": 1000, "size_bytes": 64},
        "config": "derive", "slot_us": 62.5,
        "duration_ms": 12,
        "seed": 7,
        "faults": {"events": [
            {"kind": "corrupt_burst", "link": "leaf0.p0", "at_us": 2_000,
             "duration_us": 2_000, "rate": 0.5},
            {"kind": "link_down", "link": "leaf0.p0", "at_us": 8_000},
        ]},
    },
    "frer_ring": {
        "name": "frer-fp",
        "topology": {"kind": "frer_ring", "switch_count": 4,
                     "talkers": ["talker0"], "listener": "listener"},
        "flows": {"ts_count": 8, "period_us": 2000, "size_bytes": 64},
        "config": "derive", "slot_us": 62.5,
        "duration_ms": 12,
        "seed": 7,
        "frer_ts": True,
    },
}

ROWS = ("flip", "table")

# The golden file's "sharded" section is named after where these two rows
# were first captured: a partitioned run, which plain runs reproduce hash
# for hash.
PLAIN = {
    "ring": {
        "name": "golden-plain-ring",
        "topology": {"kind": "ring", "switch_count": 4, **_TALKERS},
        "flows": {"ts_count": 4, "period_us": 1_000, "size_bytes": 64,
                  "rc_mbps": 50, "be_mbps": 50},
        "duration_ms": 4,
        "propagation_ns": 50_000,
        "seed": 3,
    },
    "star": {
        "name": "golden-plain-star",
        "topology": {"kind": "star", "child_count": 3, **_TALKERS},
        "flows": {"ts_count": 4, "period_us": 1_000, "size_bytes": 64},
        "duration_ms": 4,
        "propagation_ns": 50_000,
        "seed": 5,
    },
}


class _DrrEgressSched(EgressSchedTemplate):
    """Deficit round robin below the TS queues (the ``ring_drr`` row)."""

    def scheduler_factory(self):
        return DeficitRoundRobinScheduler(weights={5: 2, 4: 2, 3: 2, 0: 1})


_DRR_TEMPLATES = tuple(
    t for t in default_template_set()
    if not isinstance(t, EgressSchedTemplate)
) + (_DrrEgressSched(),)


def _sha(value) -> str:
    text = value if isinstance(value, str) else json.dumps(
        value, sort_keys=True, default=repr
    )
    return hashlib.sha256(text.encode()).hexdigest()


def _trace_sort_key(record) -> tuple:
    return (record.time, record.category, record.message, repr(record.fields))


def _sorted_trace(result) -> list:
    return sorted(result.tracer.records, key=_trace_sort_key)


def _without_narration(trace: list) -> list:
    """*trace* less the ``gate`` records after the engines' common start."""
    start = min(r.time for r in trace if r.category == "gate")
    return [r for r in trace if r.category != "gate" or r.time == start]


def latency_tuples(result) -> dict:
    """Every latency sample and anomaly count of every flow."""
    return {
        flow_id: (
            tuple(rec.latencies_ns),
            rec.deadline_misses,
            rec.duplicates,
            rec.reorders,
        )
        for flow_id, rec in sorted(result.analyzer.records.items())
    }


def _hashes(result, trace=None) -> dict:
    if trace is None:
        trace = _sorted_trace(result)
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


def _run(label: str, gate_traced: bool):
    # Each testbed numbers its frames from 0, so a run's trace does not
    # depend on the runs before it in the process.
    spec = ScenarioSpec.from_dict(SCENARIOS[label])
    if label == "ring_drr":
        spec.extras["templates"] = _DRR_TEMPLATES
    tracer = Tracer()
    if not gate_traced:
        tracer.disable("gate")
    return spec.run(tracer=tracer)


@functools.lru_cache(maxsize=None)
def _plain(label: str) -> dict:
    result = ScenarioSpec.from_dict(PLAIN[label]).run(tracer=Tracer())
    assert result.analyzer.received() > 0
    return _hashes(result)


def _posted(result) -> int:
    stats = result.sim_stats
    return stats["scheduled"] + stats["elided"]


def _fused(result) -> int:
    """Switch arrivals that were an event of their own at capture time.

    A link now posts a frame's arrival and the switch's 480 ns pipeline as
    one event; every frame a switch checked and passed to the pipeline used
    to cost one more.
    """
    return sum(
        switch.counters.received - switch.counters.dropped_corrupt
        for switch in result.switches.values()
    )


@functools.lru_cache(maxsize=1)
def _rows(label: str) -> dict:
    """Both rows of *label*, from one gate-traced and one unwatched run."""
    narrated = _run(label, gate_traced=True)
    unwatched = _run(label, gate_traced=False)
    # Traffic flowed, so the hashes are not hashes of nothing.
    assert narrated.analyzer.received() > 0
    trace = _sorted_trace(narrated)
    quiet = _without_narration(trace)
    flip, table = _hashes(narrated, trace), _hashes(narrated, quiet)
    # Watching adds the gate records and changes nothing else ...
    assert _sorted_trace(unwatched) == [
        r for r in quiet if r.category != "gate"
    ]
    assert {**_hashes(unwatched), "trace": table["trace"]} == table
    latencies = latency_tuples(narrated)
    assert latency_tuples(unwatched) == latencies
    flip["latencies"] = table["latencies"] = _sha(latencies)
    # ... but the events narrating them: each gate record -- an engine's two
    # start records, every narrated boundary -- posted the next narration.
    gate_records = sum(r.category == "gate" for r in trace)
    assert _posted(narrated) == _posted(unwatched) + gate_records
    # ``scheduled`` predates the demand-driven port and the one-event hop:
    # exact-count proof that only never-posted idle events and the separate
    # processing events disappeared since.
    assert unwatched.sim_stats["elided"] > 0
    return {
        "flip": flip,
        "table": {
            **table, "scheduled": _posted(unwatched) + _fused(unwatched),
        },
    }


def _capture() -> dict:
    return {
        "scenarios": {
            f"{label}/{row}": hashes
            for label in SCENARIOS for row, hashes in _rows(label).items()
        },
        "sharded": {label: _plain(label) for label in PLAIN},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize(
    "label,row", [(label, row) for label in sorted(SCENARIOS) for row in ROWS]
)
def test_outputs_match_parent_capture(golden, label, row):
    assert _rows(label)[row] == golden["scenarios"][f"{label}/{row}"]


def test_faulted_scenario_actually_drops():
    # The corruption/cut rows above must pin real drops.
    report = _run("faulted_star", gate_traced=False).drop_report()
    assert "0 dropped" not in report.splitlines()[0]


def test_frer_scenario_actually_replicates():
    result = _run("frer_ring", gate_traced=False)
    assert result.analyzer.received() > 0
    assert any(
        eliminator.duplicates_eliminated
        for eliminator in result.frer_eliminators.values()
    )


@pytest.mark.parametrize("label", sorted(PLAIN))
def test_plain_outputs_match_first_capture(golden, label):
    assert _plain(label) == golden["sharded"][label]


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(_capture(), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
