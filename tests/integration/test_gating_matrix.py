"""Every gating cell a document can name runs inside its window or is
refused by the schema.

``gate_mechanism`` x ``sched.shaper`` x ``frer_ts``: twelve documents, each
on the smallest topology it accepts (a 2-switch line, or a 2-switch dual
path for FRER's two listener attachments).  A cell that names a gating
discipline (:data:`repro.cqf.gating.BY_DOCUMENT`) runs with zero TS loss
and every TS latency inside the discipline's window (Qbv, which has no
slot window: lossless only); every other cell fails
``ScenarioSpec.from_dict`` with the path of the rule it breaks.
"""

import itertools

import pytest

from repro.core.errors import SpecValidationError
from repro.cqf.gating import BY_DOCUMENT
from repro.network.scenario import ScenarioSpec

CELLS = list(itertools.product(("cqf", "qbv"), ("cqf", "csqf", "multi_cqf"),
                               (False, True)))


def _document(mechanism, shaper, frer):
    return {
        "name": f"gating-{mechanism}-{shaper}-{frer}",
        "topology": {"kind": "dual_path", "chain_len": 2} if frer else
        {"kind": "linear", "switch_count": 2},
        # 187.5 us rides Multi-CQF's base slot, 1 ms its 125 us long slot
        "flows": {"groups": [
            {"ts_count": 4, "period_us": 187.5, "size_bytes": 64},
            {"ts_count": 4, "period_us": 1000, "size_bytes": 128},
        ]},
        "config": "derive",
        "slot_us": 62.5,
        "duration_ms": 6,
        "gate_mechanism": mechanism,
        "sched": {"shaper": shaper},
        "frer_ts": frer,
        "injection_phase": "uniform",
    }


def _refusal(mechanism, shaper, frer):
    """The one problem the schema reports, or ``None`` for a runnable
    cell."""
    discipline = BY_DOCUMENT.get((mechanism, shaper))
    if discipline is None:
        return (f"gate_mechanism: {mechanism!r} does not run with "
                f"sched.shaper {shaper!r}")
    if frer and not discipline.frer:
        return (f"frer_ts: FRER replicas run over 'cqf' gating only, not "
                f"{discipline.name!r}")
    return None


def test_five_cells_run_and_seven_are_refused():
    outcomes = [_refusal(*cell) is None for cell in CELLS]
    assert (outcomes.count(True), outcomes.count(False)) == (5, 7)


@pytest.mark.parametrize(
    "mechanism,shaper,frer", CELLS,
    ids=[f"{m}-{s}-{'frer' if f else 'plain'}" for m, s, f in CELLS],
)
def test_cell_runs_inside_its_window_or_is_refused(mechanism, shaper, frer):
    document = _document(mechanism, shaper, frer)
    refusal = _refusal(mechanism, shaper, frer)
    if refusal is not None:
        with pytest.raises(SpecValidationError) as caught:
            ScenarioSpec.from_dict(document)
        assert caught.value.problems == [refusal]
        return
    spec = ScenarioSpec.from_dict(document)
    testbed = spec.build_testbed()
    result = testbed.run(duration_ns=spec.duration_ns)
    assert result.analyzer.received() > 0
    assert result.ts_loss == 0.0
    discipline = testbed.run_plan.discipline
    plan = result.sched_plan
    topology = testbed.topology
    for flow in result.flows.ts_flows:
        window = discipline.window(topology.hops(flow.src, flow.dst),
                                   plan.slot_ns_of(flow.flow_id))
        if window is None:
            continue  # Qbv: no slot window
        latencies = result.analyzer.records[flow.flow_id].latencies_ns
        assert latencies
        assert all(window.contains(latency) for latency in latencies), (
            flow.flow_id, window, min(latencies), max(latencies))
