"""Scale, runner and exact pins shared by the paper's tables and figures.

Each ``test_*`` module of this package regenerates one table or figure of
the paper (or one group of ablations and extensions), prints its rows
(run with ``-s`` to see them) and asserts the published shape.

Scale: tier-1 runs every experiment over a 30 ms window, on 48 TS flows
unless a shape needs more to show (``scaled``).  ``REPRO_BENCH_SCALE=full``
runs the paper's 1 024 flows over 100 ms (roughly 20x slower);
EXPERIMENTS.md records a full-scale run.

At the tier-1 scale every Fig 2 and Fig 7 point is pinned exactly in
``tests/data/paper_outputs.json``: received and lost TS frames, the
smallest and largest latency, and the latency sum and sum of squares.
Regenerate it only on an intended output change::

    PYTHONPATH=src python -m tests.paper.harness
"""

from __future__ import annotations

import functools
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.report import render_series
from repro.analysis.stats import SweepPoint, SweepSeries
from repro.core.errors import SimulationError
from repro.core.presets import customized_config
from repro.core.units import ms
from repro.network.testbed import RunPlan, Testbed
from repro.traffic.flows import TrafficClass
from repro.traffic.iec60802 import background_flows, production_cell_flows

FULL = os.environ.get("REPRO_BENCH_SCALE") == "full"


def scaled(tier1_flows: int) -> int:
    """A TS flow count: *tier1_flows* in tier-1, the paper's 1 024 at full
    scale."""
    return 1024 if FULL else tier1_flows


TS_FLOWS = scaled(48)
DURATION_NS = ms(100 if FULL else 30)
SLOT_NS = 62_500  # paper: 65 us; snapped to divide the 10 ms period exactly

PINS_PATH = Path(__file__).parents[1] / "data" / "paper_outputs.json"

#: Set by a capture run: shown points are collected here, not compared.
captured = None


def run(topology, config=None, rc_bps=0, be_bps=0, size_bytes=64,
        ts_flows=TS_FLOWS, slot_ns=SLOT_NS, **knobs):
    """Run one paper-style scenario: the production cell from every
    talker to the listener, plus optional RC/BE background load."""
    talkers = [uplink.host for uplink in topology.uplinks]
    flows = production_cell_flows(talkers, "listener", flow_count=ts_flows,
                                  size_bytes=size_bytes)
    if rc_bps or be_bps:
        for flow in background_flows(talkers, "listener", rc_bps, be_bps):
            flows.add(flow)
    config = config or customized_config(topology.max_enabled_ports)
    run_plan = RunPlan(topology, config, flows, slot_ns=slot_ns, **knobs)
    return Testbed(run_plan).run(duration_ns=DURATION_NS)


@functools.lru_cache(maxsize=None)
def _pins() -> dict:
    return json.loads(PINS_PATH.read_text())


@dataclass
class Panel(SweepSeries):
    """One figure panel whose points also keep their exact TS integers."""

    exact: dict = field(default_factory=dict)

    def record(self, x, result, label=None) -> None:
        """Append *result* as the point at *x*."""
        label = str(x) if label is None else label
        self.add(SweepPoint(x, label, result.ts_summary, result.ts_loss))
        latencies = result.analyzer.class_latencies(TrafficClass.TS)
        expected = sum(
            result.expected_by_flow.get(flow.flow_id, 0)
            for flow in result.flows.by_class(TrafficClass.TS)
        )
        self.exact[f"{self.name} @ {label}"] = {
            "received": len(latencies),
            "lost": expected - len(latencies),
            "min_ns": min(latencies, default=0),
            "max_ns": max(latencies, default=0),
            "sum_ns": sum(latencies),
            "sum_sq_ns2": sum(ns * ns for ns in latencies),
        }

    def show(self) -> None:
        """Print the panel; at the tier-1 scale its points must equal the
        pins."""
        print("\n" + render_series(self))
        if FULL:
            return
        if captured is not None:
            captured.update(self.exact)
            return
        # Raised, not asserted: ``python -O`` strips asserts outside test
        # modules.
        moved = {key: (value, _pins().get(key))
                 for key, value in self.exact.items()
                 if value != _pins().get(key)}
        if moved:
            raise AssertionError(
                f"measured vs pinned in {PINS_PATH.name}: {moved}"
            )

    # The shape checks the figures assert: "who wins, by roughly what
    # factor, where crossovers fall".

    @property
    def means_ns(self):
        return [p.summary.mean_ns for p in self.points]

    @property
    def jitters_ns(self):
        return [p.summary.jitter_ns for p in self.points]

    def is_monotonic_increasing(self, key: str = "mean") -> bool:
        """Means (or jitters) never decrease along the sweep."""
        values = self.means_ns if key == "mean" else self.jitters_ns
        return all(b >= a for a, b in zip(values, values[1:]))

    def is_flat(self, key: str = "mean", tolerance: float = 0.05) -> bool:
        """Max relative deviation from the series mean stays in tolerance:
        Fig 2 / Fig 7(d)'s "background load does not move TS latency"."""
        values = self.means_ns if key == "mean" else self.jitters_ns
        return relative_spread(values) <= tolerance

    def scaling_factor(self) -> float:
        """last mean / first mean -- the "increased manyfold" observation."""
        if len(self.points) < 2:
            raise SimulationError("need at least two points for a scaling "
                                  "factor")
        first = self.points[0].summary.mean_ns
        if first == 0:
            raise SimulationError("first point has zero mean latency")
        return self.points[-1].summary.mean_ns / first


def relative_spread(values) -> float:
    """(max - min) / mean of *values*; 0.0 for constant series."""
    if not values:
        raise SimulationError("no values")
    mean = sum(values) / len(values)
    if mean == 0:
        return 0.0
    return (max(values) - min(values)) / mean


if __name__ == "__main__":
    import pytest

    from tests.paper import harness

    if FULL:
        sys.exit("pins are captured at the tier-1 scale; unset "
                 "REPRO_BENCH_SCALE")
    harness.captured = {}
    here = Path(__file__).parent
    code = pytest.main(["-q", "-p", "no:cacheprovider",
                        str(here / "test_fig2.py"), str(here / "test_fig7.py")])
    if code != 0:
        sys.exit(f"not written: the figures fail their shape checks ({code})")
    PINS_PATH.write_text(
        json.dumps(harness.captured, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {PINS_PATH} ({len(harness.captured)} points)")
