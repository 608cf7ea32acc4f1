"""A seeded random sample of short runs, every observable pinned by hash.

The golden and metrics pins hold hand-picked scenarios.  This sample draws
``SAMPLE_SIZE`` documents of 3 ms each from one seed, over the axes a
switch hop depends on: topology kind, gating discipline (CQF, CSQF,
Multi-CQF, Qbv), CBS-shaped RC load, BE load, shared buffers, uniform or
planned injection, FRER (on the two layouts that carry it), propagation
delay 0-5 000 ns and frame preemption on or off.  Per document,
``tests/data/hop_sample_pins.json`` holds the document itself and the
sha256 of:

``summary``
    :func:`repro.analysis.export.result_summary` without its ``"sim"``
    section (how many events a run takes is free to change);
``latencies``
    every flow's latency samples and anomaly counts;
``counters``, ``drops``, ``ports``
    the switch counters, the drop report and the port report.

Regenerate (only when an output change is intended) with
``PYTHONPATH=src python -m tests.test_hop_sample_pins``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.analysis.export import result_summary
from repro.network.scenario import ScenarioSpec
from tests.test_golden_outputs import _sha, latency_tuples

PINS_PATH = Path(__file__).parent / "data" / "hop_sample_pins.json"

SEED = 4402
SAMPLE_SIZE = 24

#: kind -> (topology parameters, fewest and most switches drawn).
_KINDS = {
    "ring": ("switch_count", 2, 5),
    "linear": ("switch_count", 2, 5),
    "star": ("child_count", 2, 4),
    "dual_path": ("chain_len", 2, 4),
    "frer_ring": ("switch_count", 3, 5),
}

#: (gate_mechanism, sched.shaper) of the four disciplines.
_DISCIPLINES = (("cqf", "cqf"), ("cqf", "csqf"), ("cqf", "multi_cqf"),
                ("qbv", "cqf"))


def _document(rng: random.Random, index: int) -> dict:
    kind = rng.choice(sorted(_KINDS))
    param, fewest, most = _KINDS[kind]
    topology = {"kind": kind, param: rng.randint(fewest, most),
                "talkers": ["talker0"], "listener": "listener"}
    if kind in ("ring", "linear", "star") and rng.random() < 0.5:
        topology["talkers"] = ["talker0", "talker1"]
    mechanism, shaper = rng.choice(_DISCIPLINES)
    document = {
        "name": f"hop-sample-{index}",
        "topology": topology,
        "flows": {
            "ts_count": rng.choice((4, 8, 16)),
            "period_us": rng.choice((500, 1000, 2000)),
            # A Qbv schedule of 1500 B frames outgrows a 62.5 us slot.
            "size_bytes": rng.choice(
                (64, 256) if mechanism == "qbv" else (64, 256, 1500)
            ),
            "rc_mbps": rng.choice((0, 0, 100, 300)),
            "be_mbps": rng.choice((0, 100, 300, 600)),
        },
        "duration_ms": 3,
        "seed": rng.randrange(1000),
        "gate_mechanism": mechanism,
        "injection_phase": rng.choice(("planned", "uniform")),
        "propagation_ns": rng.choice((0, 50, 1000, 5000)),
        "shared_buffers": rng.random() < 0.3,
        "preemption_enabled": rng.random() < 0.5,
    }
    if shaper != "cqf":
        document["sched"] = {"shaper": shaper}
    if kind in ("dual_path", "frer_ring") and (mechanism, shaper) == (
        "cqf", "cqf"
    ):
        document["frer_ts"] = rng.random() < 0.7
    return document


def sample() -> dict:
    """label -> document, the same on every call."""
    rng = random.Random(SEED)
    return {f"doc{i:02d}": _document(rng, i) for i in range(SAMPLE_SIZE)}


def pins(document: dict) -> dict:
    result = ScenarioSpec.from_dict(document).run()
    summary = result_summary(result)
    summary.pop("sim", None)
    return {
        "summary": _sha(summary),
        "latencies": _sha(latency_tuples(result)),
        "counters": _sha(result.counters()),
        "drops": _sha(result.drop_report()),
        "ports": _sha(result.port_report()),
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINS_PATH.read_text())


def test_the_sample_is_the_pinned_one(pinned):
    assert {label: entry["document"] for label, entry in pinned.items()} \
        == sample()


@pytest.mark.parametrize("label", sorted(sample()))
def test_sample_matches_pins(pinned, label):
    assert pins(pinned[label]["document"]) == pinned[label]["hashes"]


if __name__ == "__main__":
    PINS_PATH.write_text(
        json.dumps(
            {label: {"document": document, "hashes": pins(document)}
             for label, document in sample().items()},
            indent=1, sort_keys=True,
        ) + "\n"
    )
    print(f"wrote {PINS_PATH}")
