"""Shared machinery for the experiment benchmarks.

Each ``bench_*`` module regenerates one table or figure of the paper.  The
pytest-benchmark fixture wraps the simulation run (one round -- these are
experiments, not microbenchmarks), the regenerated rows/series are printed
(run with ``-s`` to see them) and attached to ``benchmark.extra_info`` so
``--benchmark-json`` output carries the scientific payload too.

Scale: by default the workloads are scaled down (``quick``) so the whole
harness finishes in about a minute.  Set ``REPRO_BENCH_SCALE=full`` to run
the paper's full 1024-flow, 100 ms-window experiments (roughly 15-30x
slower); EXPERIMENTS.md records a full-scale run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import pytest

from repro.core.presets import customized_config
from repro.core.units import ms
from repro.network.testbed import RunPlan, Testbed
from repro.traffic.iec60802 import background_flows, production_cell_flows

SLOT_NS = 62_500  # paper: 65 us; snapped to divide the 10 ms period exactly


@dataclass(frozen=True)
class BenchScale:
    """Workload knobs for one harness run."""

    name: str
    ts_flows: int
    duration_ns: int

    @property
    def label(self) -> str:
        return (
            f"{self.name}: {self.ts_flows} TS flows, "
            f"{self.duration_ns // ms(1)} ms window"
        )


QUICK = BenchScale("quick", ts_flows=128, duration_ns=ms(40))
FULL = BenchScale("full", ts_flows=1024, duration_ns=ms(100))


@pytest.fixture(scope="session")
def scale() -> BenchScale:
    return FULL if os.environ.get("REPRO_BENCH_SCALE") == "full" else QUICK


def run_scenario(
    topology,
    scale: BenchScale,
    config=None,
    rc_bps: int = 0,
    be_bps: int = 0,
    size_bytes: int = 64,
    slot_ns: int = SLOT_NS,
    ts_flows: int | None = None,
    seed: int = 0,
    **testbed_kwargs,
):
    """Build and run one paper-style scenario; returns the ScenarioResult."""
    talkers = [u.host for u in topology.uplinks]
    flow_count = ts_flows if ts_flows is not None else scale.ts_flows
    flows = production_cell_flows(
        talkers, "listener", flow_count=flow_count, size_bytes=size_bytes
    )
    if rc_bps or be_bps:
        for flow in background_flows(talkers, "listener", rc_bps, be_bps):
            flows.add(flow)
    config = config or customized_config(topology.max_enabled_ports)
    testbed = Testbed(RunPlan(
        topology, config, flows, slot_ns=slot_ns, seed=seed, **testbed_kwargs
    ))
    return testbed.run(duration_ns=scale.duration_ns)
