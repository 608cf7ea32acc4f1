#!/usr/bin/env python3
"""The paper's evaluation demo: an industrial-control ring at full scale.

Reproduces the Section IV setup: ring of TSN switches (one enabled port
each), three TSNNic talkers injecting IEC 60802 production-cell traffic --
1024 periodic TS flows (10 ms period, deadlines from {1,2,4,8} ms) plus
RC/BE background -- a TSN analyzer at the far end, CQF gate control, and
ITP-planned injection.

Prints a Fig. 7-style report: latency/jitter/loss for each class, Eq. (1)
containment, per-switch counters, and the occupancy high-water marks that
justify the customized queue/buffer sizing.

Run:  python examples/industrial_ring.py [--flows N] [--ms WINDOW]
      (defaults: 1024 flows, 100 ms -- about a minute of simulation)
"""

import argparse

from repro import RunPlan, Testbed, cqf_bounds, ring_topology
from repro.core.presets import customized_config
from repro.core.units import mbps, ms, us
from repro.traffic.flows import TrafficClass
from repro.traffic.iec60802 import background_flows, production_cell_flows

SLOT_NS = us(62.5)
TALKERS = ["talker0", "talker1", "talker2"]


def main(flow_count: int, window_ms: int) -> None:
    hops = 6
    topology = ring_topology(switch_count=hops, talkers=TALKERS)
    flows = production_cell_flows(TALKERS, "listener", flow_count=flow_count)
    for flow in background_flows(
        TALKERS, "listener", rc_rate_bps=mbps(120), be_rate_bps=mbps(120)
    ):
        flows.add(flow)

    config = customized_config(1, name="ring-node", flow_count=flow_count)
    print(f"Per-node configuration: {config.total_bram_kb:g}Kb BRAM "
          f"(vs 10818Kb for the COTS baseline)")

    testbed = Testbed(RunPlan(topology, config, flows, slot_ns=SLOT_NS))
    result = testbed.run(duration_ns=ms(window_ms))

    plan = result.sched_plan
    print(f"\nITP: worst slot carries {plan.max_frames_per_slot} frames "
          f"(queue depth {config.queue_depth} configured), "
          f"balance ratio {plan.load_balance_ratio():.2f}")

    bounds = cqf_bounds(hops, SLOT_NS)
    print(f"\nTraffic over {hops} hops, slot {SLOT_NS / 1000:g} us "
          f"(Eq.1 window [{bounds.min_ns / 1000:g}, "
          f"{bounds.max_ns / 1000:g}] us):")
    for cls in (TrafficClass.TS, TrafficClass.RC, TrafficClass.BE):
        received = result.analyzer.received(cls)
        if not received:
            continue
        summary = result.summary(cls)
        print(f"  {cls.name}: {received:6d} pkts  "
              f"mean {summary.mean_ns / 1000:8.2f} us  "
              f"jitter {summary.jitter_ns / 1000:7.2f} us  "
              f"loss {result.loss_rate(cls):.4f}")

    ts_latencies = result.analyzer.class_latencies(TrafficClass.TS)
    in_bounds = all(bounds.contains(x) for x in ts_latencies)
    misses = result.analyzer.deadline_misses(TrafficClass.TS)
    print(f"\nTS packets within Eq.(1): {in_bounds}; "
          f"deadline misses: {misses}")

    print("\nPer-switch counters:")
    for name, counters in result.counters().items():
        print(f"  {name}: fwd={counters['forwarded']} "
              f"drops={counters['dropped_total']}")
    print("\n" + result.port_report())
    print(f"\nOccupancy high water: queue "
          f"{result.max_queue_high_water()}/{config.queue_depth}, "
          f"buffers {result.max_buffer_high_water()}/{config.buffer_num}")

    assert result.ts_loss == 0.0 and in_bounds and misses == 0
    print("\nindustrial_ring OK")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--flows", type=int, default=1024)
    parser.add_argument("--ms", type=int, default=100)
    args = parser.parse_args()
    main(args.flows, args.ms)
