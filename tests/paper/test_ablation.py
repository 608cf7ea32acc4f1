"""Ablations of the design choices DESIGN.md calls out.

1. **ITP on/off** -- Section V says queue/buffer sizing hinges on the flow
   scheduling algorithm; unplanned injection collapses every same-period
   flow into slot 0 and overruns the customized queues.
2. **BRAM aspect-ratio search vs naive packing** -- the cost-model choice
   that makes the 117 b classification table cost 126 Kb instead of 144 Kb.
3. **Queue-depth undersizing** -- depth below the ITP per-slot bound drops
   TS packets (the "traffic-dependent threshold" of Section II.A).
4. **Time sync on/off** -- CQF without gPTP: gates drift apart and the
   deterministic latency smears.
5. **Per-port vs shared buffer pools** -- same total buffer BRAM, different
   burst absorption.
"""

import pytest

from repro.core import bram
from repro.core.presets import customized_config
from repro.cqf.schedule import CqfSchedule
from repro.network.topology import ring_topology
from repro.sched import SchedPolicy, SchedulingProblem, make_scheduler
from repro.traffic.iec60802 import production_cell_flows

from .harness import SLOT_NS, TS_FLOWS, run


def _ring():
    return ring_topology(switch_count=3, talkers=["talker0"])


def test_itp_queue_requirement():
    """ITP vs unplanned: required queue depth collapses by >10x."""
    flows = production_cell_flows(["t0", "t1", "t2"], "l",
                                  flow_count=TS_FLOWS)
    schedule = CqfSchedule.for_flows(flows.ts_periods(), SLOT_NS)
    problem = SchedulingProblem.from_flows(list(flows), schedule, 10**9)
    planned = make_scheduler("greedy").solve(problem)
    naive = make_scheduler("unplanned").solve(problem)
    print(f"\nITP: depth {planned.required_queue_depth} "
          f"(balance {planned.load_balance_ratio():.2f}) vs unplanned: "
          f"depth {naive.required_queue_depth}")
    assert naive.required_queue_depth == TS_FLOWS
    assert planned.required_queue_depth <= -(-TS_FLOWS // 160)
    assert naive.required_queue_depth >= 10 * planned.required_queue_depth


def test_itp_loss():
    """On the wire: unplanned injection drops TS packets, ITP does not."""
    with_itp = run(_ring())
    without = run(_ring(), sched=SchedPolicy(backend="unplanned"))
    print(f"\nITP loss={with_itp.ts_loss:.4f} vs "
          f"unplanned loss={without.ts_loss:.4f}")
    assert with_itp.ts_loss == 0.0
    assert without.ts_loss > 0.05


def test_bram_packing():
    """Optimal aspect-ratio search vs widest-primitive packing."""
    shapes = {
        "Switch Tbl 72x16K": (72, 16 * 1024),
        "Class. Tbl 117x1K": (117, 1024),
        "Meter Tbl 68x512": (68, 512),
        "Queue 32x12": (32, 12),
    }
    costs = {
        name: (bram.allocate(w, d).kb, bram.naive_allocate(w, d).kb)
        for name, (w, d) in shapes.items()
    }
    print()
    for name, (optimal, naive) in costs.items():
        print(f"{name}: optimal {optimal:g}Kb vs naive {naive:g}Kb")
    assert costs["Class. Tbl 117x1K"] == (126, 144)
    assert sum(c[0] for c in costs.values()) < sum(
        c[1] for c in costs.values())


@pytest.mark.parametrize("depth,expect_loss", [(1, True), (12, False)])
def test_queue_depth_threshold(depth, expect_loss):
    """Depth below the per-slot arrival bound drops TS frames."""
    config = customized_config(1, name=f"depth{depth}", queue_depth=depth,
                               buffer_num=max(96, depth * 8))
    # at least 2 frames/slot after ITP so a depth-1 queue must overflow
    result = run(_ring(), config=config, ts_flows=max(320, TS_FLOWS))
    print(f"\ndepth={depth}: loss={result.ts_loss:.4f}")
    if expect_loss:
        assert result.ts_loss > 0.0
        assert sum(c["dropped_tail"] for c in result.counters().values()) > 0
    else:
        assert result.ts_loss == 0.0


def test_time_sync():
    """Unsynchronized drifting clocks smear CQF's deterministic latency."""
    synced = run(_ring(), clock_drift_ppm=20, clock_offset_spread_ns=100_000,
                 enable_gptp=True)
    unsynced = run(_ring(), clock_drift_ppm=200,
                   clock_offset_spread_ns=40_000, enable_gptp=False)
    print(f"\ngPTP jitter={synced.ts_summary.jitter_ns / 1000:.2f}us vs "
          f"unsynced jitter={unsynced.ts_summary.jitter_ns / 1000:.2f}us")
    assert synced.ts_loss == 0.0
    assert synced.ts_summary.jitter_ns < 5_000
    assert unsynced.ts_summary.jitter_ns > 10_000


def test_buffer_sharing():
    """Per-port pools (the paper) vs one shared pool (SMS, [16] in the
    paper's related work): same total buffer BRAM, different burst
    absorption when traffic is asymmetric across ports."""
    from repro.sim.kernel import Simulator
    from repro.switch.device import TsnSwitch
    from repro.switch.packet import EthernetFrame, make_mac
    from repro.switch.tables import GateEntry

    def burst(shared):
        sim = Simulator()
        config = customized_config(3, queue_depth=8, buffer_num=8)
        switch = TsnSwitch(sim, config, shared_buffers=shared)
        closed = [GateEntry(0x00, 10_000_000)]
        opened = [GateEntry(0xFF, 10_000_000)]
        switch.program_gcls(0, opened, closed)  # hold buffers on port 0
        for port in switch.ports:
            port.attach(lambda f: None)
        # two queues on port 0 absorb a 16-frame burst
        switch.program_flow(make_mac(1), make_mac(2), 5, 7, 0, 7)
        switch.program_flow(make_mac(1), make_mac(2), 6, 5, 0, 5)
        switch.start()
        for _ in range(8):
            switch.receive(EthernetFrame(make_mac(1), make_mac(2), 5, 7, 64))
            switch.receive(EthernetFrame(make_mac(1), make_mac(2), 6, 5, 64))
        sim.run(until=1_000_000)
        return switch.counters.dropped_no_buffer

    per_port_drops, shared_drops = burst(shared=False), burst(shared=True)
    print(f"\nper-port pools: {per_port_drops} buffer drops; "
          f"shared pool: {shared_drops} (same 24-slot total)")
    assert per_port_drops > 0
    assert shared_drops == 0
