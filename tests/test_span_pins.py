"""Flow-span reads, pinned by hash over every pinned scenario document.

The golden and hop-sample pins hold what a run measures; these hold what a
:class:`~repro.obs.flowspans.FlowSpanRecorder` attached to the same run
reads back.  The documents are the golden scenarios
(``tests/test_golden_outputs.py``), the scenario documents under
``examples/`` and the seeded hop sample (``tests/test_hop_sample_pins.py``),
the sample once more cut short with no drain (``hop_sample_cut/``) so that
frames still queued, on the wire or preempted at the end are read too.
Per document, ``tests/data/span_pins.json`` holds the event count
(``len(recorder)``) and the sha256 of:

``journeys``
    every journey's identity and events, in ``journeys()`` order;
``hop_spans``
    every journey's ``hop_spans()``;
``flow_stats``
    :func:`~repro.obs.flowspans.flow_stats` over the journeys and the
    generators' emitted counts;
``chrome_trace``
    the bytes :func:`~repro.obs.chrome_trace.write_chrome_trace` writes
    for the recorder alone.

Regenerate (only when an output change is intended) with
``PYTHONPATH=src python -m tests.test_span_pins``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import tempfile
from collections import Counter
from pathlib import Path

import pytest

from repro.network.scenario import ScenarioSpec
from repro.obs.chrome_trace import write_chrome_trace
from repro.obs.flowspans import FlowSpanRecorder, flow_stats
from tests.test_golden_outputs import (
    _DRR_TEMPLATES,
    SCENARIOS,
    _hashes,
    _run,
    _sha,
)
from tests.test_hop_sample_pins import sample

PINS_PATH = Path(__file__).parent / "data" / "span_pins.json"

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def documents() -> dict:
    """label -> scenario document, the same on every call."""
    docs = {f"golden/{label}": doc for label, doc in SCENARIOS.items()}
    for path in sorted(EXAMPLES.glob("*.json")):
        doc = json.loads(path.read_text())
        if "base" not in doc:  # a sweep, not a scenario
            docs[f"examples/{path.stem}"] = doc
    for prefix in ("hop_sample", "hop_sample_cut"):
        docs.update(
            (f"{prefix}/{label}", doc) for label, doc in sample().items()
        )
    return docs


def pins(label: str, document: dict) -> dict:
    return _read(label, *_built(label, document))


def _built(label: str, document: dict) -> tuple:
    """(spec, span recorder, built testbed) of one pinned document."""
    spec = ScenarioSpec.from_dict(document)
    if label == "golden/ring_drr":
        spec.extras["templates"] = _DRR_TEMPLATES
    spans = FlowSpanRecorder()
    testbed = spec.build_testbed(spans=spans)
    testbed.build()
    return spec, spans, testbed


def _ran(label: str, spec, testbed):
    """Run a :func:`_built` testbed; the ``hop_sample_cut/`` documents
    stop with no drain."""
    return testbed.run(
        spec.duration_ns,
        drain_slots=0 if label.startswith("hop_sample_cut/") else None,
    )


def _read(label: str, spec, spans: FlowSpanRecorder, testbed) -> dict:
    """Run a :func:`_built` testbed and hash what its recorder reads."""
    result = _ran(label, spec, testbed)
    journeys = spans.journeys()
    with tempfile.TemporaryDirectory() as scratch:
        trace = write_chrome_trace(
            [], Path(scratch) / "trace.json", span_recorder=spans
        ).read_bytes()
    return {
        "events": len(spans),
        "journeys": _sha([
            [j.frame_id, j.flow_id, j.seq,
             [dataclasses.astuple(e) for e in j.events]]
            for j in journeys
        ]),
        "hop_spans": _sha([
            [j.frame_id, [dataclasses.astuple(h) for h in j.hop_spans()]]
            for j in journeys
        ]),
        "flow_stats": _sha({
            flow_id: dataclasses.asdict(stats)
            for flow_id, stats in flow_stats(
                journeys, result.expected_by_flow
            ).items()
        }),
        "chrome_trace": hashlib.sha256(trace).hexdigest(),
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINS_PATH.read_text())


def test_the_documents_are_the_pinned_ones(pinned):
    assert {label: entry["document"] for label, entry in pinned.items()} \
        == json.loads(json.dumps(documents()))


@pytest.mark.parametrize("label", sorted(documents()))
def test_span_reads_match_pins(pinned, label):
    entry = pinned[label]
    assert pins(label, entry["document"]) == entry["hashes"]


@pytest.mark.parametrize("label", sorted(documents()))
def test_one_hop_span_per_hop_record(label):
    """A journey's hop spans are its frame's hop records, one span each,
    and a switch port's arrival is its enqueue instant less the switch's
    processing delay (a host NIC's is ``None``)."""
    spec, spans, testbed = _built(label, documents()[label])
    _ran(label, spec, testbed)
    records = Counter(record[2] for record in spans._hops)
    for journey in spans.journeys():
        hop_spans = journey.hop_spans()
        assert len(hop_spans) == records[journey.frame_id]
        for span in hop_spans:
            origin = spans._switch_of.get(span.node)
            if origin is None:
                assert span.arrived_ns is None
            else:
                assert span.arrived_ns == span.enqueued_ns - origin[1]


def test_a_document_reads_the_same_on_a_second_run():
    """A testbed numbers its own frames, so what a run reads depends on
    its document alone: not on the runs before it in the process, nor on
    a testbed built beside it.  The golden trace records carry no frame
    id, so the last assertion holds at a process-global counter too: it
    guards only against the gate trace gaining frame ids."""
    star = SCENARIOS["star_cqf"]
    first = pins("golden/star_cqf", star)
    assert pins("golden/star_cqf", star) == first
    ring = SCENARIOS["ring_drr"]
    solo_ring = pins("golden/ring_drr", ring)
    built_star = _built("golden/star_cqf", star)
    built_ring = _built("golden/ring_drr", ring)
    assert _read("golden/ring_drr", *built_ring) == solo_ring
    assert _read("golden/star_cqf", *built_star) == first
    assert len({
        _hashes(_run("star_cqf", gate_traced=True))["trace"]
        for _ in range(2)
    }) == 1


if __name__ == "__main__":
    PINS_PATH.write_text(
        json.dumps(
            {label: {"document": document, "hashes": pins(label, document)}
             for label, document in documents().items()},
            indent=1, sort_keys=True,
        ) + "\n"
    )
    print(f"wrote {PINS_PATH}")
