"""What a scenario run produces from its document, pinned.

The scenario schema (extra keys, their kind checks, the validation text)
and the run summaries of four cells are held to values captured while
the testbed still took every knob as a constructor argument and planned
inside its own build.  The cells cover an exact-planned and an
anneal-planned mixed-period line, a ``use_itp: false`` derived ring (sized
by greedy ITP, run unplanned) and an explicit-config line injecting
uniformly inside each slot.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.export import result_summary
from repro.core.errors import SpecValidationError
from repro.network.scenario import ScenarioSpec, known_extra_keys

MIXED = json.loads(
    (Path(__file__).parents[2] / "examples" / "sched_mixed_cell.json")
    .read_text()
)

CELLS = {
    "mixed_exact": {**MIXED, "duration_ms": 4},
    "mixed_anneal": {**MIXED, "duration_ms": 4,
                     "sched": {"backend": "anneal"}},
    "ring_unplanned": {
        "name": "ring-unplanned",
        "topology": {"kind": "ring", "switch_count": 3,
                     "talkers": ["talker0"], "listener": "listener"},
        "flows": {"ts_count": 48, "size_bytes": 256,
                  "rc_mbps": 100, "be_mbps": 100},
        "config": "derive",
        "slot_us": 62.5,
        "duration_ms": 12,
        "use_itp": False,
    },
    "explicit_uniform": {
        "name": "explicit-uniform",
        "topology": {"kind": "linear", "switch_count": 3,
                     "talkers": ["talker0"], "listener": "listener"},
        "flows": {"ts_count": 64, "size_bytes": 128, "rc_mbps": 50},
        "config": {
            "port_num": 3, "unicast_size": 128, "multicast_size": 0,
            "class_size": 128, "meter_size": 128, "gate_size": 2,
            "queue_num": 8, "cbs_map_size": 3, "cbs_size": 3,
            "queue_depth": 8, "buffer_num": 64,
        },
        "slot_us": 62.5,
        "duration_ms": 12,
        "seed": 3,
        "injection_phase": "uniform",
    },
}

SUMMARY_DIGESTS = {
    "mixed_exact":
        "96926c6354aaa8ab63a0fb1a3f1e89352cc6c138a8a0b0c9c2b5ee0bfececa84",
    "mixed_anneal":
        "f32e81bc9e9b56f6f2171120f6ed48e9c79a3bd98ea62d3abfee391b282c8319",
    "ring_unplanned":
        "d8c4036215b325bef4bd532e3f10ce703b6e367e6e452abee196aa1def0e9577",
    "explicit_uniform":
        "e41d8a9972f8642f736d7740825a35babadd48b92a6681e1128abe512bfd468f",
}


def test_known_extra_keys():
    assert known_extra_keys() == frozenset({
        "aggregate_routes", "clock_drift_ppm", "clock_offset_spread_ns",
        "enable_gptp", "frer_ts", "gptp_warmup_ns", "preemption_enabled",
        "propagation_ns", "rate_bps", "shared_buffers", "trunk_error_rate",
        "ts_queue_pair",
    })


def test_validation_text_for_an_unknown_key_and_a_wrong_kind_extra():
    doc = {
        "name": "pin",
        "topology": {"kind": "ring", "switch_count": 2,
                     "talkers": ["talker0"], "listener": "listener"},
        "flows": {"ts_count": 8},
        "rate_bsp": 1,
        "rate_bps": "fast",
    }
    with pytest.raises(SpecValidationError) as info:
        ScenarioSpec.from_dict(doc)
    assert str(info.value) == (
        "scenario 'pin' failed validation with 2 problem(s):\n"
        "  - rate_bsp: unknown scenario key (did you mean 'rate_bps'?)\n"
        "  - rate_bps: expected an integer, got str 'fast'"
    )


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_run_summary(cell):
    result = ScenarioSpec.from_dict(CELLS[cell]).run()
    text = json.dumps(result_summary(result), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SUMMARY_DIGESTS[cell]
