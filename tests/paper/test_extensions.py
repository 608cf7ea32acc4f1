"""Extensions beyond the paper's figures: other TSN standard families on
the same customized switches.

* **802.1CB seamless redundancy** -- the evaluation's zero-loss claim
  replayed through a trunk failure: TS flows replicated over two
  edge-disjoint paths keep zero loss and unchanged CQF latency when one
  path's first trunk is cut mid-run; unprotected flows lose the rest.
* **802.1Qbu frame preemption** -- the only interference a top-priority TS
  frame sees is one in-flight background MTU (~12 us at 1 Gbps) per hop;
  with preemption the TS jitter under heavy background collapses towards
  the 64 B fragment-boundary bound, background throughput untouched.
* **CQF vs synthesized 802.1Qbv** -- guideline 2's trade-off: CQF needs
  *two* gate-table entries; a synthesized Qbv schedule forwards each frame
  inside a dedicated window (per-hop pipeline time, near-zero jitter) at
  100-200x the gate entries.
"""

import pytest

from repro.analysis.report import render_table
from repro.core.presets import customized_config
from repro.core.units import mbps
from repro.cqf.bounds import cqf_bounds
from repro.cqf.gating import DISCIPLINES
from repro.network.testbed import RunPlan, Testbed
from repro.network.topology import dual_path_topology, ring_topology
from repro.qbv.synthesis import estimate_gate_size
from repro.traffic.flows import TrafficClass
from repro.traffic.iec60802 import production_cell_flows

from .harness import DURATION_NS, SLOT_NS, TS_FLOWS, run

HOPS = 3


def _ring():
    return ring_topology(switch_count=HOPS, talkers=["talker0"])


def _us(ns):
    return f"{ns / 1000:.2f}"


def test_frer_failover():
    def failover(frer, cut):
        flows = production_cell_flows(["talker0"], "listener",
                                      flow_count=min(TS_FLOWS, 128))
        config = customized_config(2, flow_count=4 * len(flows))
        testbed = Testbed(RunPlan(dual_path_topology(chain_len=HOPS), config,
                                  flows, slot_ns=SLOT_NS, frer_ts=frer))
        testbed.build()
        if cut:
            trunk = next(link for link in testbed.links
                         if link.name.startswith("head.p0"))
            testbed.sim.schedule(DURATION_NS // 3, trunk.fail)
        result = testbed.run(duration_ns=DURATION_NS)
        eliminated = sum(e.duplicates_eliminated
                         for e in testbed.frer_eliminators.values())
        return result, eliminated

    results = {
        "single path, healthy": failover(frer=False, cut=False),
        "single path, trunk cut": failover(frer=False, cut=True),
        "FRER, trunk cut": failover(frer=True, cut=True),
    }
    print("\n" + render_table(
        ["configuration", "TS loss", "mean(us)", "jitter(us)",
         "duplicates eliminated"],
        [[label, f"{result.ts_loss:.4f}", _us(result.ts_summary.mean_ns),
          _us(result.ts_summary.jitter_ns), str(eliminated)]
         for label, (result, eliminated) in results.items()],
        title=f"802.1CB over dual {HOPS}-hop paths, trunk cut at T/3",
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


def test_preemption():
    load = mbps(400)
    results = {
        label: run(_ring(), rc_bps=load // 2, be_bps=load // 2,
                   preemption_enabled=preempt)
        for label, preempt in (("store-and-forward", False),
                               ("802.1Qbu preemption", True))
    }
    rows = []
    for label, result in results.items():
        summary = result.ts_summary
        cuts = sum(port.preemptions for switch in result.switches.values()
                   for port in switch.ports)
        rows.append([label, _us(summary.mean_ns),
                     f"{summary.jitter_ns / 1000:.3f}", _us(summary.max_ns),
                     f"{result.ts_loss:.4f}", str(cuts)])
    print("\n" + render_table(
        ["mode", "mean(us)", "jitter(us)", "max(us)", "loss", "cuts"], rows,
        title=f"TS under {load // 10**6} Mbps background, {HOPS} hops",
    ))
    plain = results["store-and-forward"]
    preempted = results["802.1Qbu preemption"]
    assert plain.ts_loss == preempted.ts_loss == 0.0
    assert preempted.ts_summary.jitter_ns < plain.ts_summary.jitter_ns / 4
    # per-hop HOL term gone: worst case tightens by several microseconds
    assert preempted.ts_summary.max_ns < plain.ts_summary.max_ns
    # background keeps flowing (all fragments reassembled and delivered)
    assert preempted.analyzer.received() == plain.analyzer.received()


def test_cqf_vs_qbv():
    def gated(mechanism, gate_size):
        config = customized_config(1).with_updates(gate_size=gate_size)
        return run(_ring(), config=config, rc_bps=mbps(50), be_bps=mbps(50),
                   discipline=DISCIPLINES[mechanism])

    cqf = gated("cqf", gate_size=2)
    # pre-size the Qbv gate tables from the plan the CQF run produced
    qbv_gate_size = estimate_gate_size(cqf.sched_plan)
    qbv = gated("qbv", gate_size=qbv_gate_size)
    print("\n" + render_table(
        ["mechanism", "gate entries/port", "mean(us)", "jitter(us)", "loss"],
        [[label, str(gates), _us(result.ts_summary.mean_ns),
          _us(result.ts_summary.jitter_ns), f"{result.ts_loss:.4f}"]
         for label, result, gates in (("CQF", cqf, 2),
                                      ("Qbv TAS", qbv, qbv_gate_size))],
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
