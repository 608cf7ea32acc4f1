#!/usr/bin/env python3
"""Swapping a template's fixed logic: a fair-queuing Egress Sched.

TSN-Builder's templates encapsulate *fixed processing logic* behind the
resource-parameter interface, so a developer who needs different logic
replaces one template and reuses everything else.  This example builds a
custom Egress Sched whose arbitration is deficit round robin below the TS
queues (no best-effort starvation) instead of plain strict priority, then
shows:

1. the resource model is untouched -- the custom switch costs exactly the
   same 2106 Kb of BRAM;
2. TS determinism is untouched -- CQF latency/loss identical;
3. the behaviour difference is real -- under saturating RC load, BE traffic
   starves with strict priority but keeps its fair share under DRR.

Run:  python examples/custom_template.py
"""

from repro import RunPlan, Testbed, ring_topology
from repro.core.builder import TSNBuilder
from repro.core.presets import customized_config
from repro.core.templates import EgressSchedTemplate
from repro.core.units import mbps, ms, us
from repro.switch.scheduler import DeficitRoundRobinScheduler
from repro.traffic.flows import FlowSet, FlowSpec, TrafficClass
from repro.traffic.iec60802 import production_cell_flows

SLOT_NS = us(62.5)


class FairEgressSchedTemplate(EgressSchedTemplate):
    """Egress Sched with DRR below the TS queues, weights favouring RC."""

    def scheduler_factory(self):
        return DeficitRoundRobinScheduler(
            weights={5: 2, 4: 2, 3: 2, 0: 1}, priority_floor=6
        )


def build_model(template):
    builder = TSNBuilder(platform="sim")
    builder.replace_template(template)
    builder.customize(customized_config(1))
    return builder.synthesize()


def scenario_flows():
    """TS plus RC/BE aggregates that collide on the first trunk.

    RC and BE come from *different* talkers (so neither is throttled at its
    own NIC) and together oversubscribe the 1 Gbps trunk -- the switch's
    egress arbitration decides who wins.
    """
    flows = production_cell_flows(["talker0"], "listener", flow_count=64)
    flows.add(FlowSpec(90_000, TrafficClass.RC, "talker0", "listener",
                       1024, rate_bps=mbps(800)))
    flows.add(FlowSpec(90_001, TrafficClass.BE, "talker1", "listener",
                       1024, rate_bps=mbps(800)))
    return flows


def run(model):
    """Run the scenario with the model's templates in charge."""
    topology = ring_topology(
        switch_count=3, talkers=["talker0", "talker1"]
    )
    testbed = Testbed(RunPlan(
        topology,
        model.config,
        flows=scenario_flows(),
        slot_ns=SLOT_NS,
        templates=tuple(model.templates),
    ))
    return testbed.run(duration_ns=ms(40))


def main() -> None:
    standard = build_model(EgressSchedTemplate())
    fair = build_model(FairEgressSchedTemplate())

    print("Resource model is template-logic independent:")
    print(f"  strict priority: {standard.total_bram_kb:g}Kb")
    print(f"  DRR variant:     {fair.total_bram_kb:g}Kb\n")
    assert standard.total_bram_kb == fair.total_bram_kb == 2106

    results = {}
    for label, model in (("strict", standard), ("fair-DRR", fair)):
        result = run(model)
        ts = result.ts_summary
        rc = result.analyzer.received(TrafficClass.RC)
        be = result.analyzer.received(TrafficClass.BE)
        results[label] = (ts, rc, be, result.ts_loss)
        print(f"{label:10s} TS mean {ts.mean_ns / 1000:7.2f}us "
              f"loss {result.ts_loss:.4f} | RC {rc} pkts | BE {be} pkts")

    strict_ts, strict_rc, strict_be, strict_loss = results["strict"]
    fair_ts, fair_rc, fair_be, fair_loss = results["fair-DRR"]
    assert strict_loss == fair_loss == 0.0
    assert abs(strict_ts.mean_ns - fair_ts.mean_ns) < 2_000
    # strict priority lets RC crowd BE out; DRR enforces the 2:1 weights
    assert fair_be > strict_be * 1.3
    assert abs(fair_rc / fair_be - 2.0) < 0.3
    print("\nTS determinism preserved; BE gets its weighted share under DRR.")
    print("custom_template OK")


if __name__ == "__main__":
    main()
