"""Section III.C's reusability and Section V's parameter selection.

* **Template reuse** -- "when the application scenario changes, users only
  need to regulate the related parameters and reuse these templates
  without reprogramming": for every pair of evaluated scenarios, which
  parameters moved, how much generated RTL survived verbatim, and whether
  any template *body* needed edits (it never does).
* **Optimizer vs guidelines** -- the guidelines give one feasible
  configuration; Section V calls choosing it an optimization problem.  The
  optimizer recovers BRAM on top of the guideline configuration, the
  cheaper point holds on the wire (zero loss, Eq. 1 at the smaller slot),
  and for heavy frames slot size and BRAM trade off along a frontier.
"""

from repro.analysis.report import render_table
from repro.core.builder import TSNBuilder
from repro.core.optimizer import optimize
from repro.core.presets import (
    bcm53154_config,
    linear_config,
    ring_config,
    star_config,
)
from repro.core.reuse import reuse_report
from repro.core.units import ms
from repro.cqf.bounds import cqf_bounds
from repro.network.topology import ring_topology
from repro.traffic.flows import FlowSet, FlowSpec, TrafficClass
from repro.traffic.iec60802 import production_cell_flows

from .harness import run

TALKERS = ["t0", "t1", "t2"]


def test_reuse_across_scenarios():
    models = {}
    for name, factory in (("commercial", bcm53154_config),
                          ("star", star_config), ("linear", linear_config),
                          ("ring", ring_config)):
        builder = TSNBuilder()
        builder.customize(factory())
        models[name] = builder.synthesize()
    pairs = [("star", "linear"), ("star", "ring"), ("linear", "ring"),
             ("commercial", "ring")]
    reports = {(a, b): reuse_report(models[a], models[b]) for a, b in pairs}
    print("\n" + render_table(
        ["scenario change", "params moved", "all-RTL reuse",
         "template reuse", "zero reprogramming"],
        [[f"{a} -> {b}", str(len(report.changed_parameters)),
          f"{report.reuse_ratio:.1%}", f"{report.template_reuse_ratio:.1%}",
          "yes" if report.reprogrammed_nothing else "NO"]
         for (a, b), report in reports.items()],
        title="Customization effort across the paper's scenarios",
    ))
    for (a, b), report in reports.items():
        # topology-only changes move exactly one parameter (port_num)
        if {a, b} <= {"star", "linear", "ring"}:
            assert set(report.changed_parameters) == {"port_num"}, (a, b)
            assert report.template_reuse_ratio > 0.99
        assert report.reprogrammed_nothing, (a, b)
        assert report.reuse_ratio > 0.80


def test_optimizer_beats_the_guidelines_on_the_wire():
    flows = production_cell_flows(TALKERS, "listener", flow_count=1024)
    topology = ring_topology(6, talkers=TALKERS)
    plain = optimize(topology, flows).best
    aggregated = optimize(topology, flows,
                          aggregate_switch_entries=True).best
    guideline_kb = ring_config().total_bram_kb
    print("\n" + render_table(
        ["configuration", "depth", "BRAM(Kb)", "Lmax(us)"],
        [["guideline (62.5us)", "12", f"{guideline_kb:g}", "437.5"]] + [
            [label, str(best.config.queue_depth), f"{best.total_bram_kb:g}",
             f"{best.worst_latency_ns / 1000:g}"]
            for label, best in (
                (f"optimized ({plain.slot_ns / 1000:g}us)", plain),
                ("+ table aggregation", aggregated),
            )
        ],
        title="Guideline vs optimized (ring, 1024 flows)",
    ))
    assert plain.total_bram_kb < guideline_kb
    assert aggregated.total_bram_kb < plain.total_bram_kb
    # everything still deadline-feasible (tightest IEC deadline is 1 ms)
    assert plain.worst_latency_ns <= ms(1)

    # The cheaper configuration must deliver the same QoS.
    hops = 3
    result = run(ring_topology(hops, talkers=["talker0"]),
                 config=plain.config, slot_ns=plain.slot_ns)
    latencies = result.analyzer.class_latencies(TrafficClass.TS)
    print(f"optimized slot {plain.slot_ns / 1000:g}us: mean "
          f"{result.ts_summary.mean_ns / 1000:.2f}us loss {result.ts_loss} "
          f"queue hw {result.max_queue_high_water()}/"
          f"{plain.config.queue_depth}")
    assert result.ts_loss == 0.0
    bounds = cqf_bounds(hops, plain.slot_ns)
    assert latencies and all(bounds.contains(x) for x in latencies)
    assert result.max_queue_high_water() <= plain.config.queue_depth


def test_optimizer_pareto_heavy_frames():
    flows = FlowSet()
    for i in range(256):
        flows.add(FlowSpec(i, TrafficClass.TS, TALKERS[i % 3], "listener",
                           1500, period_ns=ms(10), deadline_ns=ms(4)))
    result = optimize(ring_topology(6, talkers=TALKERS), flows)
    rejected = [s // 1000 for s in result.rejected_slots]
    print("\n" + render_table(
        ["slot(us)", "depth", "BRAM(Kb)", "Lmax(us)"],
        [[f"{p.slot_ns / 1000:g}", str(p.config.queue_depth),
          f"{p.total_bram_kb:g}", f"{p.worst_latency_ns / 1000:g}"]
         for p in result.pareto],
        title=f"Pareto frontier, 256 x 1500B (rejected slots: {rejected} us)",
    ))
    assert result.rejected_slots  # small slots are ITP-infeasible here
    assert all(7 * p.slot_ns <= ms(4) for p in result.pareto)
