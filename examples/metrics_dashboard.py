#!/usr/bin/env python3
"""A full observability pass over one scenario: metrics -> tables -> traces.

Runs an instrumented ring scenario with every telemetry hook attached --
metrics registry, tracer, wall-clock profiler -- then shows what each
surface collected:

* the per-switch frame/drop/meter counters and the queue-depth /
  buffer-occupancy high-water marks (the numbers the sizing guidelines
  care about),
* the per-queue residence-time histograms with bucketed p50/p99,
* the kernel's calendar accounting and hottest wall-clock categories,
* a Chrome trace-event file (open metrics_dashboard_trace.json in
  https://ui.perfetto.dev or chrome://tracing to see the gates breathe).

Run:  python examples/metrics_dashboard.py
"""

from pathlib import Path

from repro import (
    MetricsRegistry,
    RunPlan,
    Testbed,
    WallClockProfiler,
    ring_topology,
    write_chrome_trace,
)
from repro.analysis.report import render_metrics
from repro.core.presets import customized_config
from repro.core.units import ms, us
from repro.sim.trace import Tracer
from repro.traffic.iec60802 import production_cell_flows

SLOT_NS = us(62.5)
TRACE_PATH = Path(__file__).with_name("metrics_dashboard_trace.json")


def main() -> None:
    registry = MetricsRegistry()
    tracer = Tracer(enabled={"gate", "queue", "tx", "drop"})
    profiler = WallClockProfiler()

    topology = ring_topology(switch_count=3, talkers=["talker0"])
    flows = production_cell_flows(["talker0"], "listener", flow_count=64)
    run_plan = RunPlan(
        topology,
        customized_config(topology.max_enabled_ports),
        flows,
        slot_ns=SLOT_NS,
    )
    testbed = Testbed(
        run_plan,
        metrics=registry,
        tracer=tracer,
        profiler=profiler,
    )
    result = testbed.run(duration_ns=ms(30))

    # ---- 1. the metric tables ---------------------------------------------
    print(render_metrics(registry.snapshot()))

    # ---- 2. headline numbers the sizing studies read ----------------------
    frames = registry.counter("frames_total")
    depth = registry.gauge("queue_depth")
    buffers = registry.gauge("buffer_in_use")
    print(f"\nframes transmitted: "
          f"{sum(s.value for key, s in frames.series() if ('event', 'transmitted') in key)}")
    print(f"queue-depth high water: {depth.max_high_water():g} descriptors")
    print(f"buffer high water:      {buffers.max_high_water():g} slots")
    print(f"drops:                  {registry.counter('drops_total').total()}")

    residence = registry.histogram("queue_residence_ns")
    worst_p99 = max(
        (series.quantile(0.99) or 0 for _, series in residence.series()),
        default=0,
    )
    print(f"worst per-queue residence p99: {worst_p99 / 1000:.1f} us "
          f"(slot is {SLOT_NS / 1000:g} us)")

    # ---- 3. kernel + wall-clock accounting --------------------------------
    stats = testbed.sim.stats
    print(f"\nkernel: {stats.fired} events fired of {stats.scheduled} "
          f"scheduled, calendar peak {stats.calendar_high_water}")
    print()
    print(profiler.render())

    # ---- 4. the zoomable timeline -----------------------------------------
    write_chrome_trace(tracer.records, TRACE_PATH,
                       end_ns=result.duration_ns)
    print(f"\nwrote {TRACE_PATH.name} ({len(tracer.records)} trace records)"
          " -- load it in https://ui.perfetto.dev")

    assert result.ts_loss == 0.0
    assert depth.max_high_water() > 0
    print("\nmetrics_dashboard OK")


if __name__ == "__main__":
    main()
