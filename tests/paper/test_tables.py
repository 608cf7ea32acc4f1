"""Paper Tables I and III: what the customized resources cost, and that
the cheaper configurations deliver the same service.

The exact BRAM figures themselves -- Table I's 2 304 / 1 764 Kb split and
Table III's rows, totals and -46.59 / -63.56 / -80.53 % reductions -- are
pinned once, in ``tests/core/test_presets.py``.  Here the tables are
regenerated, Table I's two cases run on the 3-switch network, and Table
III's customized columns are derived Top-down from the workload.
"""

import pytest

from repro.analysis.report import render_table1, render_table3
from repro.core.presets import (
    bcm53154_config,
    customized_config,
    linear_config,
    ring_config,
    star_config,
    table1_case1,
    table1_case2,
)
from repro.core.sizing import derive_config
from repro.core.units import mbps
from repro.network.topology import linear_topology, ring_topology, star_topology
from repro.traffic.flows import TrafficClass
from repro.traffic.iec60802 import production_cell_flows

from .harness import SLOT_NS, run


def test_table1_cases_deliver_equal_qos():
    """Case 1's extra 540 Kb sit above the traffic-dependent threshold:
    both cases keep TS latency stable and lossless under background load."""
    print("\n" + render_table1(table1_case1().resource_report("Case 1"),
                               table1_case2().resource_report("Case 2")))
    summaries = {}
    for label, depth, buffers in (("case1", 16, 128), ("case2", 12, 96)):
        config = customized_config(2, name=label, queue_depth=depth,
                                   buffer_num=buffers)
        result = run(linear_topology(switch_count=3, talkers=["talker0"]),
                     config=config, rc_bps=mbps(100), be_bps=mbps(100))
        summary = summaries[label] = result.ts_summary
        print(f"{label}: mean={summary.mean_ns / 1000:.2f}us "
              f"jitter={summary.jitter_ns / 1000:.2f}us "
              f"loss={result.ts_loss}")
        assert result.ts_loss == 0.0
        assert result.analyzer.deadline_misses(TrafficClass.TS) == 0
        # occupancy stays under even the smaller Case 2 sizing
        assert result.max_queue_high_water() <= 12
        assert result.max_buffer_high_water() <= 96
    case1, case2 = summaries["case1"], summaries["case2"]
    assert case1.mean_ns == pytest.approx(case2.mean_ns, rel=0.01)
    assert abs(case1.jitter_ns - case2.jitter_ns) < 2_000


def test_table3_columns_derive_from_the_guidelines():
    """The sizing guidelines, fed the paper's 1 024-flow cell, land on the
    very customized configurations Table III reports."""
    columns = {
        "star": (star_topology(), star_config()),
        "linear": (linear_topology(6), linear_config()),
        "ring": (ring_topology(6), ring_config()),
    }
    print("\n" + render_table3(
        bcm53154_config().resource_report("Commercial (4 ports)"),
        [preset.resource_report(preset.name) for _, preset in
         columns.values()],
    ))
    flows = production_cell_flows(["t0", "t1", "t2"], "l", flow_count=1024)
    for name, (topology, preset) in columns.items():
        result = derive_config(topology, flows, SLOT_NS, name=preset.name)
        print(f"{name}: ITP requires depth {result.required_queue_depth}, "
              f"sized to {result.config.queue_depth} "
              f"({result.config.buffer_num} buffers/port) -> "
              f"{result.config.total_bram_kb:g}Kb")
        assert result.config == preset
