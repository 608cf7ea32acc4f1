#!/usr/bin/env python3
"""Seamless redundancy: 802.1CB FRER surviving a cable pull.

The paper's intro counts *flow integrity* among the TSN standard families.
This example replicates each TS flow over two edge-disjoint 3-switch paths
(``dual_path_topology``), eliminates duplicates at the listener with the
802.1CB vector recovery algorithm, and pulls one path's first trunk cable
a third of the way into the run:

* without FRER, every packet after the cut is lost;
* with FRER, loss stays zero and the latency distribution does not move --
  there is no failover transient, because the second copy was always
  already in flight.

Run:  python examples/frer_failover.py
"""

from repro import RunPlan, Testbed, cqf_bounds
from repro.core.presets import customized_config
from repro.core.units import ms, us
from repro.network.topology import dual_path_topology
from repro.traffic.flows import TrafficClass
from repro.traffic.iec60802 import production_cell_flows

SLOT_NS = us(62.5)
CHAIN = 3
WINDOW_MS = 30


def run(frer: bool, cut: bool):
    topology = dual_path_topology(chain_len=CHAIN)
    flows = production_cell_flows(["talker0"], "listener", flow_count=64)
    config = customized_config(2, flow_count=4 * len(flows))
    testbed = Testbed(
        RunPlan(topology, config, flows, slot_ns=SLOT_NS, frer_ts=frer)
    )
    testbed.build()
    if cut:
        trunk = next(l for l in testbed.links if l.name.startswith("head.p0"))
        testbed.sim.schedule(ms(WINDOW_MS // 3), trunk.fail)
    result = testbed.run(duration_ns=ms(WINDOW_MS))
    eliminated = sum(
        e.duplicates_eliminated for e in testbed.frer_eliminators.values()
    )
    return result, eliminated


def main() -> None:
    print(f"Dual {CHAIN}-hop paths, trunk head.p0 cut at "
          f"{WINDOW_MS // 3} ms of {WINDOW_MS} ms:\n")
    for label, frer, cut in (
        ("single path, healthy ", False, False),
        ("single path, cable cut", False, True),
        ("FRER,        cable cut", True, True),
    ):
        result, eliminated = run(frer, cut)
        summary = result.ts_summary
        print(f"  {label}: loss {result.ts_loss:6.2%}  "
              f"mean {summary.mean_ns / 1000:7.2f} us  "
              f"jitter {summary.jitter_ns / 1000:5.2f} us  "
              f"duplicates eliminated {eliminated}")
    protected, _ = run(True, True)
    bounds = cqf_bounds(CHAIN, SLOT_NS)
    latencies = protected.analyzer.class_latencies(TrafficClass.TS)
    assert protected.ts_loss == 0.0
    assert all(bounds.contains(x) for x in latencies)
    print("\nFRER run: zero loss, every packet still inside Eq.(1) — "
          "failover is seamless.")
    print("frer_failover OK")


if __name__ == "__main__":
    main()
