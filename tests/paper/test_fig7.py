"""Paper Fig. 7: end-to-end latency of TS flows in the ring.

Four panels:

(a) latency vs hop count {1,2,3,4} -- grows one slot per hop, jitter flat;
(b) latency vs packet size {64...1500 B} -- slight serialization rise;
(c) latency & jitter vs slot size -- both scale proportionally (Eq. 1);
(d) latency vs combined RC+BE background load -- flat, zero loss.

Panels (a), (c) and (d) inject with ``injection_phase="uniform"`` -- flows
spread across their planned slot the way unconstrained TSNNic applications
do -- so the measured jitter reflects the paper's observation that "the
jitter is related to the slot_size" (roughly 0.29 x slot for a uniform
spread) while staying flat across hops and background load.  Panel (a)
also runs with the compact ITP stagger, where jitter stays far below a
slot; panel (b) keeps the stagger to isolate the serialization effect.

Every panel also asserts Eq. (1) containment packet-by-packet.
"""

import pytest

from repro.core.sizing import derive_config
from repro.core.units import mbps
from repro.cqf.bounds import cqf_bounds
from repro.network.topology import linear_topology, ring_topology
from repro.traffic.flows import TrafficClass
from repro.traffic.iec60802 import production_cell_flows

from .harness import SLOT_NS, TS_FLOWS, Panel, run, scaled

HOPS = 3  # panels (b)-(d) fix the path length


def _ring(hops=HOPS):
    return ring_topology(switch_count=hops, talkers=["talker0"])


def _contained(result, hops, slot_ns=SLOT_NS):
    """Every TS packet inside Eq. (1)'s window, none lost."""
    bounds = cqf_bounds(hops, slot_ns)
    latencies = result.analyzer.class_latencies(TrafficClass.TS)
    assert latencies, "no TS packets delivered"
    assert all(bounds.contains(x) for x in latencies)
    assert result.ts_loss == 0.0


@pytest.mark.parametrize("phase,jitter_cap", [
    ("uniform", SLOT_NS / 2), ("planned", SLOT_NS / 10),
], ids=["uniform", "planned"])
def test_fig7a_hops(phase, jitter_cap):
    series = Panel(f"Fig 7(a): latency vs hops, {phase} injection", "hops")
    for hops in (1, 2, 3, 4):
        result = run(_ring(hops), injection_phase=phase)
        _contained(result, hops)
        series.record(hops, result)
    series.show()
    assert series.is_monotonic_increasing()
    # mean grows ~ one slot per hop (Eq. 1 centre = hop * slot)
    deltas = [b - a for a, b in zip(series.means_ns, series.means_ns[1:])]
    assert all(d == pytest.approx(SLOT_NS, rel=0.05) for d in deltas)
    # "the jitter is nearly unchanged in different hops": same slot -> same
    # spread, whatever the path length
    assert max(series.jitters_ns) - min(series.jitters_ns) < SLOT_NS / 20
    assert all(j < jitter_cap for j in series.jitters_ns)


def test_fig7b_packet_size():
    series = Panel("Fig 7(b): latency vs packet size", "bytes")
    for size in (64, 128, 256, 512, 1024, 1500):
        # the paper's 1024-flow set exceeds 1 Gbps at 1500 B (see
        # EXPERIMENTS.md): at most 128 flows here
        result = run(_ring(), size_bytes=size, ts_flows=min(TS_FLOWS, 128))
        _contained(result, HOPS)
        series.record(size, result)
    series.show()
    assert series.is_monotonic_increasing()
    # "increases slightly": the full sweep moves less than one slot
    assert series.means_ns[-1] - series.means_ns[0] < SLOT_NS


def test_fig7c_slot_size():
    series = Panel("Fig 7(c): latency vs slot size", "slot(us)")
    cell = production_cell_flows(["talker0"], "listener", flow_count=TS_FLOWS)
    for slot in (31_250, 62_500, 125_000, 250_000):
        # guideline 4: bigger slots gather more frames per slot, so the
        # queue depth must be re-derived per slot size (at full scale,
        # 1024 flows on 250us slots need 26-deep queues, not 12)
        config = derive_config(_ring(), cell, slot).config
        result = run(_ring(), config=config, slot_ns=slot,
                     injection_phase="uniform")
        _contained(result, HOPS, slot)
        series.record(slot / 1000, result, f"{slot / 1000:g}")
    series.show()
    # "average latency and jitter are increased manyfold": the mean doubles
    # with each doubling of the slot (ratio ~8 across the 8x sweep) and
    # jitter grows with it (uniform in-slot injection spread).
    means = series.means_ns
    assert all(b / a == pytest.approx(2.0, rel=0.1)
               for a, b in zip(means, means[1:]))
    assert series.scaling_factor() == pytest.approx(8.0, rel=0.15)
    assert series.is_monotonic_increasing()
    assert series.is_monotonic_increasing(key="jitter")
    assert series.jitters_ns[-1] > 4 * series.jitters_ns[0]


def test_fig7d_background():
    series = Panel("Fig 7(d): latency vs background load", "load(Mbps)")
    for load in (0, 100, 200, 400, 800):
        # equal RC and BE shares, as in the paper; on fewer than 96 flows
        # the HOL term moves the mean by more than 5 %
        result = run(_ring(), rc_bps=mbps(load) // 2, be_bps=mbps(load) // 2,
                     injection_phase="uniform", ts_flows=scaled(96))
        _contained(result, HOPS)
        series.record(load, result)
    series.show()
    # "there is no affection on the latency and jitter of critical TS flows"
    # (residual head-of-line blocking behind one in-flight background MTU
    # moves the mean by <5% of itself -- well inside the Eq.1 window)
    assert series.is_flat(key="mean", tolerance=0.05)
    assert series.is_flat(key="jitter", tolerance=0.10)


def test_ring_equals_linear_at_equal_hops():
    """'The transmission performance of different topologies is the same.'"""
    ring = run(_ring())
    linear = run(linear_topology(switch_count=HOPS, talkers=["talker0"]))
    assert ring.ts_summary.mean_ns == pytest.approx(
        linear.ts_summary.mean_ns, rel=0.01
    )
