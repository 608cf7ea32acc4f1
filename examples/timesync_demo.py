#!/usr/bin/env python3
"""Time synchronization: why CQF needs gPTP, and how tight it gets.

Two experiments on the same drifting-clock ring:

1. **Convergence** -- a 6-node gPTP chain with +-20 ppm oscillators and
   millisecond-scale initial offsets converges below the paper's 50 ns
   precision budget.
2. **Ablation** -- the same CQF scenario run (a) with perfect clocks,
   (b) with drifting clocks disciplined by gPTP, and (c) with drifting
   clocks and *no* sync.  (a) and (b) are indistinguishable; (c) smears
   the deterministic latency by tens of microseconds.

Run:  python examples/timesync_demo.py
"""

import random

from repro import RunPlan, Testbed, ring_topology
from repro.core.presets import customized_config
from repro.core.units import ms, us
from repro.sim.clock import LocalClock
from repro.sim.kernel import Simulator
from repro.timesync.gptp import SyncDomain
from repro.traffic.iec60802 import production_cell_flows

SLOT_NS = us(62.5)


def convergence_demo() -> None:
    print("=== gPTP convergence over a 6-node chain ===")
    sim = Simulator()
    domain = SyncDomain(sim)
    domain.add_node("gm", LocalClock(sim))
    rng = random.Random(1)
    prev = "gm"
    for i in range(5):
        clock = LocalClock(
            sim,
            drift_ppm=rng.uniform(-20, 20),
            offset_ns=rng.randrange(-1_000_000, 1_000_000),
        )
        domain.add_node(f"sw{i}", clock, parent=prev, link_delay_ns=500)
        prev = f"sw{i}"
    domain.start()
    for second in (0.25, 0.5, 1.0, 2.0, 3.0):
        sim.run(until=int(second * 1e9))
        print(f"  t={second:4.2f}s  max |offset| = "
              f"{domain.max_abs_offset_ns():>8d} ns")
    final = domain.max_abs_offset_ns()
    print(f"  steady state: {final} ns "
          f"({'<' if final < 50 else '>='} the paper's 50 ns budget)")
    assert final < 50


def ablation_demo() -> None:
    print("\n=== CQF with and without synchronization ===")
    cases = {
        "perfect clocks": dict(),
        "drift + gPTP": dict(clock_drift_ppm=20,
                             clock_offset_spread_ns=100_000,
                             enable_gptp=True),
        "drift, no sync": dict(clock_drift_ppm=200,
                               clock_offset_spread_ns=40_000),
    }
    for label, kwargs in cases.items():
        topology = ring_topology(switch_count=3, talkers=["talker0"])
        flows = production_cell_flows(["talker0"], "listener", flow_count=64)
        testbed = Testbed(RunPlan(topology, customized_config(1), flows,
                                  slot_ns=SLOT_NS, **kwargs))
        result = testbed.run(duration_ns=ms(40))
        summary = result.ts_summary
        sync_note = ""
        if testbed.sync_domain is not None:
            sync_note = (f"  (gPTP residual "
                         f"{testbed.sync_domain.max_abs_offset_ns()} ns)")
        print(f"  {label:16s} mean {summary.mean_ns / 1000:8.2f} us  "
              f"jitter {summary.jitter_ns / 1000:7.2f} us  "
              f"loss {result.ts_loss:.4f}{sync_note}")


if __name__ == "__main__":
    convergence_demo()
    ablation_demo()
    print("\ntimesync_demo OK")
