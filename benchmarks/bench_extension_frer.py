"""Extension: 802.1CB seamless redundancy under link failure.

The paper's intro lists *flow integrity* among the TSN standard families;
802.1CB (FRER) is its core mechanism.  This bench replays the evaluation's
zero-loss claim through an actual trunk failure: TS flows replicated over
two edge-disjoint paths keep zero loss and unchanged CQF latency when one
path's first trunk is cut mid-run, while the unprotected configuration
loses the remainder of the window.
"""

import pytest

from repro.analysis.report import render_table
from repro.core.presets import customized_config
from repro.core.units import ms
from repro.network.testbed import RunPlan, Testbed
from repro.network.topology import dual_path_topology
from repro.traffic.flows import TrafficClass
from repro.traffic.iec60802 import production_cell_flows

from conftest import SLOT_NS

CHAIN = 3


def _run(scale, frer, cut):
    topology = dual_path_topology(chain_len=CHAIN)
    flows = production_cell_flows(
        ["talker0"], "listener", flow_count=min(scale.ts_flows, 128)
    )
    config = customized_config(2, flow_count=4 * len(flows))
    testbed = Testbed(RunPlan(topology, config, flows, slot_ns=SLOT_NS,
                              frer_ts=frer))
    testbed.build()
    if cut:
        trunk = next(
            link for link in testbed.links
            if link.name.startswith("head.p0")
        )
        testbed.sim.schedule(scale.duration_ns // 3, trunk.fail)
    result = testbed.run(duration_ns=scale.duration_ns)
    eliminated = sum(
        e.duplicates_eliminated for e in testbed.frer_eliminators.values()
    )
    return result, eliminated


def test_extension_frer_failover(benchmark, scale):
    def run_all():
        return {
            "single path, healthy": _run(scale, frer=False, cut=False),
            "single path, trunk cut": _run(scale, frer=False, cut=True),
            "FRER, trunk cut": _run(scale, frer=True, cut=True),
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = []
    for label, (result, eliminated) in results.items():
        summary = result.ts_summary
        rows.append(
            [
                label,
                f"{result.ts_loss:.4f}",
                f"{summary.mean_ns / 1000:.2f}",
                f"{summary.jitter_ns / 1000:.2f}",
                str(eliminated),
            ]
        )
    print("\n" + render_table(
        ["configuration", "TS loss", "mean(us)", "jitter(us)",
         "duplicates eliminated"],
        rows,
        title=f"802.1CB over dual {CHAIN}-hop paths, trunk cut at T/3",
    ))
    healthy = results["single path, healthy"][0]
    unprotected = results["single path, trunk cut"][0]
    protected = results["FRER, trunk cut"][0]
    assert healthy.ts_loss == 0.0
    assert unprotected.ts_loss > 0.3            # the cut kills the rest
    assert protected.ts_loss == 0.0             # seamless
    assert protected.analyzer.deadline_misses(TrafficClass.TS) == 0
    assert protected.ts_summary.mean_ns == pytest.approx(
        healthy.ts_summary.mean_ns, rel=0.01
    )
    benchmark.extra_info["unprotected_loss"] = round(unprotected.ts_loss, 4)
    benchmark.extra_info["frer_loss"] = protected.ts_loss
