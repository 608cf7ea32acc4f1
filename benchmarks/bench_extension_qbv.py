"""Extension: CQF vs synthesized 802.1Qbv TAS schedules.

Not a paper figure -- it makes guideline 2's trade-off concrete.  The paper
configures CQF because it needs only *two* gate-table entries; the general
alternative is a synthesized Qbv schedule whose gate tables grow with the
scheduling cycle (one window per active slot) but whose frames flow through
each hop inside a dedicated transmission window instead of waiting out a
slot.  Expected shape: Qbv latency is per-hop pipeline time (tens of us
lower than CQF's hop x slot) with near-zero jitter, at 100-200x the gate
entries.
"""

import pytest

from repro.analysis.report import render_table
from repro.core.presets import customized_config
from repro.core.units import mbps
from repro.cqf.bounds import cqf_bounds
from repro.network.topology import ring_topology
from repro.cqf.gating import DISCIPLINES
from repro.qbv.synthesis import estimate_gate_size

from conftest import SLOT_NS, run_scenario

HOPS = 3


def _run(scale, mechanism, gate_size):
    topology = ring_topology(switch_count=HOPS, talkers=["talker0"])
    config = customized_config(1).with_updates(gate_size=gate_size)
    return run_scenario(
        topology,
        scale,
        config=config,
        rc_bps=mbps(50),
        be_bps=mbps(50),
        discipline=DISCIPLINES[mechanism],
    )


def test_extension_cqf_vs_qbv(benchmark, scale):
    def run_both():
        cqf = _run(scale, "cqf", gate_size=2)
        # pre-size the Qbv gate tables from the plan the CQF run produced
        qbv_gate_size = estimate_gate_size(cqf.sched_plan)
        qbv = _run(scale, "qbv", gate_size=qbv_gate_size)
        return cqf, qbv, qbv_gate_size

    cqf, qbv, qbv_gate_size = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    rows = []
    for label, result, gates in (("CQF", cqf, 2), ("Qbv TAS", qbv,
                                                   qbv_gate_size)):
        summary = result.ts_summary
        rows.append(
            [
                label,
                str(gates),
                f"{summary.mean_ns / 1000:.2f}",
                f"{summary.jitter_ns / 1000:.2f}",
                f"{result.ts_loss:.4f}",
            ]
        )
    print("\n" + render_table(
        ["mechanism", "gate entries/port", "mean(us)", "jitter(us)", "loss"],
        rows,
        title=f"CQF vs Qbv, {HOPS} hops, slot {SLOT_NS / 1000:g}us",
    ))

    assert cqf.ts_loss == qbv.ts_loss == 0.0
    # CQF follows Eq.(1); Qbv undercuts even its lower bound
    bounds = cqf_bounds(HOPS, SLOT_NS)
    assert bounds.contains(int(cqf.ts_summary.mean_ns))
    assert qbv.ts_summary.max_ns < bounds.min_ns
    assert qbv.ts_summary.mean_ns < cqf.ts_summary.mean_ns / 5
    # ... paid for in gate-table entries
    assert qbv_gate_size > 50 * 2
    benchmark.extra_info["cqf_mean_us"] = cqf.ts_summary.mean_ns / 1000
    benchmark.extra_info["qbv_mean_us"] = qbv.ts_summary.mean_ns / 1000
    benchmark.extra_info["qbv_gate_size"] = qbv_gate_size
