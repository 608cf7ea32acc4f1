#!/usr/bin/env python3
"""Top-down customization: from application features to Table III.

The paper's central workflow -- start from what the *application* needs
(topology, flow features) and derive every resource parameter through the
Section III.C guidelines, instead of buying a COTS switch sized for the
worst case.  This script:

1. describes the three evaluated industrial topologies (star/linear/ring)
   and the IEC 60802 production-cell flow set;
2. derives each customized configuration with ``repro.core.sizing``;
3. renders the full Table III against the Broadcom BCM53154 baseline and
   checks the published totals (-46.59% / -63.56% / -80.53%);
4. shows what changes when the application changes (half the flows, a
   general 802.1Qbv schedule instead of CQF).

Run:  python examples/topdown_sizing.py
"""

from repro.analysis.report import render_table3
from repro.core.presets import bcm53154_config
from repro.core.sizing import derive_config
from repro.core.units import us
from repro.cqf.gating import QBV
from repro.network.topology import linear_topology, ring_topology, star_topology
from repro.traffic.iec60802 import production_cell_flows

SLOT_NS = us(62.5)
TALKERS = ["talker0", "talker1", "talker2"]


def main() -> None:
    flows = production_cell_flows(TALKERS, "listener", flow_count=1024)
    print(f"Application features: {len(flows)} TS flows, period 10ms, "
          f"slot {SLOT_NS / 1000:g}us\n")

    scenarios = [
        ("Customized (Star, 3 ports)", star_topology(talkers=TALKERS)),
        ("Customized (Linear, 2 ports)", linear_topology(6, talkers=TALKERS)),
        ("Customized (Ring, 1 port)", ring_topology(6, talkers=TALKERS)),
    ]
    baseline = bcm53154_config().resource_report("Commercial (4 ports)")
    reports = []
    for title, topology in scenarios:
        result = derive_config(topology, flows, SLOT_NS, name=title)
        print(f"{title}:")
        print(f"  guideline 1: tables sized to {len(flows)} flows")
        print(f"  guideline 2: CQF -> gate_size = "
              f"{result.config.gate_size} "
              f"(vs {result.schedule.slot_count} for plain 802.1Qbv)")
        print(f"  guideline 4: ITP worst slot = "
              f"{result.required_queue_depth} frames -> depth "
              f"{result.config.queue_depth}, "
              f"{result.config.buffer_num} buffers/port")
        print(f"  guideline 5: {result.config.port_num} enabled port(s)\n")
        reports.append(result.config.resource_report(title))

    print(render_table3(baseline, reports))

    expected = {0: 0.4659, 1: 0.6356, 2: 0.8053}
    for index, report in enumerate(reports):
        reduction = report.reduction_vs(baseline)
        assert abs(reduction - expected[index]) < 5e-4, report.title

    print("\nWhat if the application changes?")
    smaller = production_cell_flows(TALKERS, "listener", flow_count=512)
    result = derive_config(ring_topology(6, talkers=TALKERS), smaller,
                           SLOT_NS, name="ring, 512 flows")
    print(f"  512 flows  -> {result.config.total_bram_kb:g}Kb "
          f"(tables shrink with the flow count)")
    qbv = derive_config(ring_topology(6, talkers=TALKERS), flows, SLOT_NS,
                        name="ring, plain Qbv", discipline=QBV)
    print(f"  plain Qbv  -> {qbv.config.total_bram_kb:g}Kb "
          f"(gate tables need {qbv.config.gate_size} entries/port)")

    print("\ntopdown_sizing OK")


if __name__ == "__main__":
    main()
