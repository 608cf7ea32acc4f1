#!/usr/bin/env python3
"""Beyond the guidelines: optimizing the resource parameters.

The paper's Section V frames parameter selection as an optimization problem
and leaves the algorithms to future work.  This example runs the
implemented optimizer on the evaluation workload and shows the three levers
it exploits:

1. **Slot size** -- the guidelines fix 62.5 us; any divisor of the 10 ms
   cycle that meets the deadline (Eq. 1) and keeps ITP feasible is fair
   game, and smaller slots need shallower queues and fewer buffers.
2. **Table aggregation** -- forwarding entries shared per destination
   (guideline 1's aggregation remark) shrink the switch table.
3. **The Pareto frontier** -- when large frames make small slots
   infeasible, latency bound and BRAM genuinely trade off; the frontier is
   printed so a deployer can pick.

The optimized configuration is then *validated in simulation*: same zero
loss, every packet inside Eq. (1) at the smaller slot.

Run:  python examples/optimize_resources.py
"""

from repro import RunPlan, Testbed, cqf_bounds, ring_topology
from repro.core.optimizer import optimize
from repro.core.presets import ring_config
from repro.core.units import ms
from repro.traffic.flows import FlowSet, FlowSpec, TrafficClass
from repro.traffic.iec60802 import production_cell_flows

TALKERS = ["talker0", "talker1", "talker2"]


def paper_workload():
    return production_cell_flows(TALKERS, "listener", flow_count=1024)


def heavy_workload():
    """256 x 1500 B flows: small slots become ITP-infeasible."""
    flows = FlowSet()
    for i in range(256):
        flows.add(FlowSpec(i, TrafficClass.TS, TALKERS[i % 3], "listener",
                           1500, period_ns=ms(10), deadline_ns=ms(4)))
    return flows


def main() -> None:
    topology = ring_topology(6, talkers=TALKERS)

    print("=== Paper workload (1024 x 64 B, deadlines from IEC 60802) ===")
    result = optimize(topology, paper_workload())
    guideline_kb = ring_config().total_bram_kb
    best = result.best
    print(f"guideline (slot 62.5us): {guideline_kb:g}Kb")
    print(f"optimized (slot {best.slot_ns / 1000:g}us): "
          f"{best.total_bram_kb:g}Kb "
          f"({100 * (guideline_kb - best.total_bram_kb) / guideline_kb:.1f}% "
          f"further saving), queue depth {best.config.queue_depth}, "
          f"L_max {best.worst_latency_ns / 1000:g}us")
    aggregated = optimize(topology, paper_workload(),
                          aggregate_switch_entries=True)
    print(f"+ table aggregation: {aggregated.best.total_bram_kb:g}Kb "
          f"(switch table {aggregated.best.config.unicast_size} entries)")

    print("\n=== Heavy workload (256 x 1500 B): the Pareto frontier ===")
    heavy = optimize(topology, heavy_workload())
    print(f"ITP-infeasible slots: "
          f"{[s // 1000 for s in heavy.rejected_slots]} (us)")
    print(f"{'slot(us)':>9} {'depth':>6} {'BRAM(Kb)':>9} {'Lmax(us)':>9}")
    for point in heavy.pareto:
        print(f"{point.slot_ns / 1000:9g} {point.config.queue_depth:6d} "
              f"{point.total_bram_kb:9g} {point.worst_latency_ns / 1000:9g}")

    print("\n=== Validate the optimized paper-workload config on the wire ===")
    slot = best.slot_ns
    hops = 3
    topo = ring_topology(hops, talkers=["talker0"])
    flows = production_cell_flows(["talker0"], "listener", flow_count=256)
    testbed = Testbed(RunPlan(topo, best.config, flows, slot_ns=slot))
    run = testbed.run(duration_ns=ms(40))
    bounds = cqf_bounds(hops, slot)
    latencies = run.analyzer.class_latencies(TrafficClass.TS)
    in_bounds = all(bounds.contains(x) for x in latencies)
    print(f"slot {slot / 1000:g}us: mean "
          f"{run.ts_summary.mean_ns / 1000:.2f}us, loss {run.ts_loss}, "
          f"Eq.(1) holds: {in_bounds}, queue high water "
          f"{run.max_queue_high_water()}/{best.config.queue_depth}")
    assert run.ts_loss == 0.0 and in_bounds
    assert run.max_queue_high_water() <= best.config.queue_depth

    print("\noptimize_resources OK")


if __name__ == "__main__":
    main()
