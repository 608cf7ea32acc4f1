"""Observability-overhead measurement (the ``BENCH_obs.json`` core).

Moved here from ``benchmarks/bench_obs_overhead.py`` so ``repro bench
check`` can re-measure the instrumented-vs-bare ratio without shelling
out; the script remains the measurement CLI and delegates here.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict

__all__ = ["MODES", "run_once", "measure"]

MODES = ("off", "metrics", "headroom", "full")


def _build_flows(ts_count: int):
    from repro.core.units import mbps
    from repro.traffic.iec60802 import (
        background_flows,
        production_cell_flows,
    )

    flows = production_cell_flows(["talker0"], "listener",
                                  flow_count=ts_count)
    for flow in background_flows(["talker0"], "listener",
                                 mbps(100), mbps(100)):
        flows.add(flow)
    return flows


def run_once(mode: str, ts_count: int, duration_ns: int) -> float:
    """One timed ring-scenario run in the given instrumentation mode."""
    from repro.core.presets import customized_config
    from repro.core.units import us
    from repro.network.testbed import RunPlan, Testbed
    from repro.network.topology import ring_topology
    from repro.obs.flowspans import FlowSpanRecorder
    from repro.obs.headroom import HeadroomRecorder
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.timeseries import TimeSeriesSampler

    topology = ring_topology(switch_count=3, talkers=["talker0"])
    flows = _build_flows(ts_count)
    config = customized_config(topology.max_enabled_ports)
    registry = MetricsRegistry() if mode in ("metrics", "headroom", "full") \
        else None
    spans = FlowSpanRecorder() if mode == "full" else None
    headroom = (
        HeadroomRecorder() if mode in ("headroom", "full") else None
    )
    testbed = Testbed(RunPlan(topology, config, flows, slot_ns=62_500),
                      metrics=registry, spans=spans, headroom=headroom)
    if mode == "full":
        sampler = TimeSeriesSampler(registry, testbed.sim,
                                    interval_ns=us(1000))
        sampler.start()
    testbed.build()  # outside the timer: measure the event loop, not setup
    start = time.perf_counter()
    testbed.run(duration_ns=duration_ns)
    return time.perf_counter() - start


def measure(ts_count: int, duration_ns: int, repeats: int) -> Dict[str, dict]:
    """Per-mode timings plus each mode's ratio against ``off``.

    The ``headroom`` mode additionally records ``vs_metrics`` -- the
    occupancy probes' marginal cost over an identical metrics-only run,
    the ratio gated by ``repro bench check --suite obs``.
    """
    results: Dict[str, dict] = {}
    for mode in MODES:
        run_once(mode, ts_count, duration_ns)  # warm-up (imports, caches)
        times = [
            run_once(mode, ts_count, duration_ns) for _ in range(repeats)
        ]
        results[mode] = {
            "best_s": min(times),
            "mean_s": statistics.mean(times),
            "runs": times,
        }
    baseline = results["off"]["best_s"]
    for mode in MODES:
        results[mode]["vs_off"] = results[mode]["best_s"] / baseline
    results["headroom"]["vs_metrics"] = (
        results["headroom"]["best_s"] / results["metrics"]["best_s"]
    )
    return results
