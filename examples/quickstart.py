#!/usr/bin/env python3
"""Quickstart: customize a TSN switch, check its BRAM cost, watch it forward.

The TSN-Builder workflow in ~40 lines:

1. inject resource parameters through the seven customization APIs
   (paper Table II);
2. synthesize a switch model from the five function templates and read its
   predicted on-chip memory;
3. drop the same model into a simulated 3-switch ring carrying periodic
   Time-Sensitive flows and verify CQF's deterministic latency (Eq. 1).

Run:  python examples/quickstart.py
"""

from repro import CustomizationAPI, RunPlan, Testbed, cqf_bounds, ring_topology
from repro.core.builder import TSNBuilder
from repro.core.units import ms, us
from repro.traffic.flows import TrafficClass
from repro.traffic.iec60802 import production_cell_flows

SLOT_NS = us(62.5)


def customize_switch():
    """Step 1+2: parameters in, resource report out."""
    api = CustomizationAPI("quickstart-node")
    api.set_switch_tbl(unicast_size=1024, multicast_size=0)
    api.set_class_tbl(class_size=1024)
    api.set_meter_tbl(meter_size=1024)
    api.set_gate_tbl(gate_size=2, queue_num=8, port_num=1)   # CQF: 2 entries
    api.set_cbs_tbl(cbs_map_size=3, cbs_size=3, port_num=1)  # 3 RC queues
    api.set_queues(queue_depth=12, queue_num=8, port_num=1)
    api.set_buffers(buffer_num=96, port_num=1)

    builder = TSNBuilder(platform="sim")
    builder.customize(api)
    model = builder.synthesize()

    print("Synthesized templates and their injected parameters:")
    for name, params in model.template_parameters().items():
        print(f"  {name:15s} {params or '(no memory parameters)'}")
    report = model.resource_report("quickstart-node")
    print("\nPredicted on-chip memory:")
    for row in report.rows:
        print(f"  {row.resource:12s} {row.kb_label:>8s}  (params {row.parameters})")
    print(f"  {'Total':12s} {report.total_kb:7g}Kb")
    return model


def run_ring(model):
    """Step 3: the same configuration forwarding real (simulated) traffic."""
    hops = 3
    topology = ring_topology(switch_count=hops, talkers=["talker0"])
    flows = production_cell_flows(["talker0"], "listener", flow_count=64)
    testbed = Testbed(RunPlan(topology, model.config, flows, slot_ns=SLOT_NS))
    result = testbed.run(duration_ns=ms(50))

    summary = result.ts_summary
    bounds = cqf_bounds(hops, SLOT_NS)
    latencies = result.analyzer.class_latencies(TrafficClass.TS)
    print(f"\nRan {len(latencies)} TS packets over {hops} switches:")
    print(f"  mean latency {summary.mean_ns / 1000:8.2f} us "
          f"(Eq.1 centre: {bounds.mean_ns / 1000:.2f} us)")
    print(f"  jitter       {summary.jitter_ns / 1000:8.2f} us")
    print(f"  packet loss  {result.ts_loss:8.4f}")
    in_bounds = all(bounds.contains(x) for x in latencies)
    print(f"  all packets within Eq.(1) window "
          f"[{bounds.min_ns / 1000:g}, {bounds.max_ns / 1000:g}] us: "
          f"{in_bounds}")
    assert in_bounds and result.ts_loss == 0.0


if __name__ == "__main__":
    run_ring(customize_switch())
    print("\nquickstart OK")
