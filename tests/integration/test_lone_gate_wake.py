"""A lone frame's gate wakeup starts exactly the frames the arbiter would.

When the one frame of an idle strict-priority port waits for its gate, the
wakeup at its window's opening starts that frame without re-arbitrating
the port (``EgressPort._arm_gate_wake``).  The oracle is the re-arbitrating
wakeup itself: every golden, hop-sample and ``examples/*.json`` scenario
document runs twice, once as shipped and once with every wakeup calling
``kick()``, and the two runs must report the same: the trace in emission
order, the counters, the drop, port and headroom reports, every latency
sample, the summary and the kernel's statistics.
"""

from __future__ import annotations

import functools

import pytest

from repro.analysis.export import result_summary
from repro.network.scenario import ScenarioSpec
from repro.sim.trace import Tracer
from repro.switch.port import EgressPort
from tests.test_golden_outputs import _DRR_TEMPLATES, _hashes, latency_tuples
from tests.test_span_pins import documents

#: label -> document: the pinned documents that run to their drain.
DOCUMENTS = {
    label: document for label, document in documents().items()
    if not label.startswith("hop_sample_cut/")
}


def _run(label: str, rearbitrate: bool) -> tuple:
    """(what a run of *label* reports, how often its ports arbitrated)."""
    spec = ScenarioSpec.from_dict(DOCUMENTS[label])
    if label == "golden/ring_drr":
        spec.extras["templates"] = _DRR_TEMPLATES
    kicks = 0
    kick, arm = EgressPort.kick, EgressPort._arm_gate_wake

    def counted_kick(self):
        nonlocal kicks
        kicks += 1
        kick(self)

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(EgressPort, "kick", counted_kick)
        if rearbitrate:
            patched.setattr(
                EgressPort, "_arm_gate_wake",
                lambda self, delay_ns, lone=None: arm(self, delay_ns),
            )
        result = spec.run(tracer=Tracer())
    reported = {
        **_hashes(result),
        "records": [
            (r.time, r.category, r.message, repr(r.fields))
            for r in result.tracer.records
        ],
        "latencies": latency_tuples(result),
        "summary": result_summary(result),
        "sim_stats": result.sim_stats,
    }
    return reported, kicks


@functools.lru_cache(maxsize=None)
def _kicks_saved(label: str) -> int:
    """Arbitrations the direct starts saved on *label*; its two runs must
    report the same."""
    shipped, kicks = _run(label, rearbitrate=False)
    oracle, oracle_kicks = _run(label, rearbitrate=True)
    assert shipped == oracle
    return oracle_kicks - kicks


@pytest.mark.parametrize("label", sorted(DOCUMENTS))
def test_direct_start_reports_what_rearbitrating_reports(label):
    # Every lone wakeup the oracle arbitrated either started its frame
    # directly or fell back to the same arbitration.
    assert _kicks_saved(label) >= 0


def test_only_strict_ports_without_preemption_start_directly():
    saved = {label: _kicks_saved(label) for label in DOCUMENTS}
    # A CQF ring port holds one frame per slot: its hops wake lone frames.
    assert saved["golden/ring16_cqf"] > 0
    # DRR and preempting ports keep the re-arbitrating wakeup.
    assert saved["golden/ring_drr"] == 0
    preempting = [label for label, document in DOCUMENTS.items()
                  if document.get("preemption_enabled")]
    assert len(preempting) > 2
    assert not any(saved[label] for label in preempting)
