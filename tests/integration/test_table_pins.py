"""Every switch's installed tables after ``Testbed.build``, pinned.

One sha256 per scenario over each switch's classification, unicast and
meter entries in insertion order: classification key -> (meter, queue),
unicast key -> outport, meter id -> (rate, burst).  The digests were
captured while the testbed still programmed one entry per flow per hop;
however the entries get installed, the tables a build leaves behind --
and the order they were filled in -- must not move.

The cells cover a star with RC/BE background, a line with aggregated
routes, an FRER ring (two replica VLANs per flow), RC flows on a CSQF
shaper, whose shifted RC queues need explicit classification entries,
and a meter table too small for the flows (the overflow runs unmetered).
A table too small to build at all fails with the pre-flight's text, naming
the first flow that does not fit, pinned verbatim.  The same digests are
recomputed from ``compile_programs``' output: the programs are the tables
a build installs.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.errors import CapacityError
from repro.network.program import compile_programs
from repro.network.scenario import ScenarioSpec

EXAMPLES = Path(__file__).parents[2] / "examples"


def _example(name: str) -> dict:
    return json.loads((EXAMPLES / f"{name}.json").read_text())


#: An explicit 3-port config for a 3-switch line of 64 TS flows.
SHORT_CONFIG = {
    "port_num": 3, "unicast_size": 128, "multicast_size": 0,
    "class_size": 128, "meter_size": 40, "gate_size": 2,
    "queue_num": 8, "cbs_map_size": 3, "cbs_size": 3,
    "queue_depth": 8, "buffer_num": 64,
}

SHORT_LINE = {
    "name": "meters-short",
    "topology": {"kind": "linear", "switch_count": 3,
                 "talkers": ["talker0"], "listener": "listener"},
    "flows": {"ts_count": 64, "size_bytes": 128, "rc_mbps": 50},
    "config": SHORT_CONFIG,
    "slot_us": 62.5,
    "duration_ms": 5,
}

CELLS = {
    "star": _example("headroom_star"),
    "linear_aggregated": {
        "name": "linear-aggregated",
        "topology": {"kind": "linear", "switch_count": 4,
                     "talkers": ["talker0", "talker1"],
                     "listener": "listener"},
        "flows": {"ts_count": 48, "size_bytes": 128,
                  "rc_mbps": 100, "be_mbps": 100},
        "config": "derive",
        "slot_us": 62.5,
        "duration_ms": 5,
        "aggregate_routes": True,
    },
    "frer_ring": _example("faults_ring"),
    "csqf_rc": {
        "name": "csqf-rc",
        "topology": {"kind": "linear", "switch_count": 3,
                     "talkers": ["talker0"], "listener": "listener"},
        "flows": {"ts_count": 24, "size_bytes": 256,
                  "rc_mbps": 150, "be_mbps": 50},
        "config": "derive",
        "slot_us": 62.5,
        "duration_ms": 5,
        "sched": {"shaper": "csqf"},
    },
    "meters_short": SHORT_LINE,
}

TABLE_DIGESTS = {
    "star":
        "73a3720b471a33f0abc2240e3a13ba4422f573414eb9ee7523341a0c2e240d3c",
    "linear_aggregated":
        "f02398562da14bdd6fd29fb67e823e384d2781c57b04d49493ac07d0bf7293c4",
    "frer_ring":
        "969db94ef63a46533da6e5d5daf4a93af8683f164c0727ec602c8a192b34d661",
    "csqf_rc":
        "69c064e8f6ed7f23ee714de2e5ce645e9626b01982cff70dc9100fbaf8c81a6b",
    "meters_short":
        "e5b2926547ad0806a0a5cd138d523124e8cca906935896dd39eb76e5451665e9",
}

#: Undersized tables: the build fails on sw0 with the pre-flight's text,
#: naming the first flow past capacity.
OVERFLOWS = {
    "class_size": "class_tbl: sw0: 64 entries but the table holds 32; "
                  "flow 32 is the first that does not fit",
    "unicast_size": "unicast_tbl: sw0: 64 entries but the table holds 50; "
                    "flow 50 is the first that does not fit",
}


def _digest(tables) -> str:
    text = json.dumps(tables, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def table_digest(testbed) -> str:
    """sha256 over every switch's entries, in insertion order."""
    tables = {}
    for name, switch in testbed.switches.items():
        pipeline = switch.pipeline
        tables[name] = {
            "classification": [
                [list(key), [target.meter_id, target.queue_id]]
                for key, target in pipeline.classification
            ],
            "unicast": [
                [list(key), outport] for key, outport in pipeline.unicast
            ],
            "meter": [
                [meter_id, [meter.rate_bps, meter.burst_bytes]]
                for meter_id, meter in pipeline.meters
            ],
        }
    return _digest(tables)


def program_digest(programs) -> str:
    """:func:`table_digest` of the tables *programs* fill: a route key
    that repeats is one unicast entry, at its first position."""
    return _digest({
        name: {
            "classification": [
                [list(key), list(target)]
                for key, target in program.classes.items()
            ],
            "unicast": [
                [list(key), outport]
                for key, outport in dict(program.routes).items()
            ],
            "meter": [
                [meter_id, list(meter)]
                for meter_id, meter in program.meters.items()
            ],
        }
        for name, program in programs.items()
    })


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_installed_tables_match_the_per_flow_installer(cell):
    testbed = ScenarioSpec.from_dict(CELLS[cell]).build_testbed()
    testbed.build()
    assert table_digest(testbed) == TABLE_DIGESTS[cell]


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_compiled_programs_are_the_installed_tables(cell):
    run_plan = ScenarioSpec.from_dict(CELLS[cell]).build_run_plan()
    programs, _ = compile_programs(run_plan)
    assert program_digest(programs) == TABLE_DIGESTS[cell]


@pytest.mark.parametrize("size_key", sorted(OVERFLOWS))
def test_overflow_names_the_first_key_that_does_not_fit(size_key):
    document = {
        **SHORT_LINE,
        "config": {**SHORT_CONFIG, size_key: int(
            OVERFLOWS[size_key].split("holds ")[1].split(";")[0]
        )},
    }
    testbed = ScenarioSpec.from_dict(document).build_testbed()
    with pytest.raises(CapacityError) as caught:
        testbed.build()
    assert str(caught.value) == OVERFLOWS[size_key]


def test_cells_fill_every_table_kind():
    """Each cell installs entries of the kinds it exists to cover."""
    fills = {}
    for cell, document in CELLS.items():
        testbed = ScenarioSpec.from_dict(document).build_testbed()
        testbed.build()
        fills[cell] = {
            kind: sum(
                len(getattr(switch.pipeline, kind))
                for switch in testbed.switches.values()
            )
            for kind in ("classification", "unicast", "meters")
        }
    assert all(fill["meters"] > 0 for fill in fills.values())
    # Aggregated routes: one unicast entry per destination per switch.
    assert fills["linear_aggregated"]["unicast"] == 4
    # FRER: both replicas are classified along their own path.
    assert fills["frer_ring"]["classification"] > 2 * 8
    # CSQF: RC flows get explicit (unmetered) classification entries.
    assert (
        fills["csqf_rc"]["classification"] > fills["csqf_rc"]["meters"]
    )
    # 40 meters per switch; the other 24 flows run unmetered.
    assert fills["meters_short"] == {
        "classification": 192, "unicast": 192, "meters": 120,
    }
