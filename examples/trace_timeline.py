#!/usr/bin/env python3
"""Watching CQF breathe: gate timelines from a traced run.

Runs a small traced scenario and renders the first switch's gate schedule
as an ASCII timeline: the two TS queues (6 and 7) swapping roles every
62.5 us slot, with each TS transmission landing inside the open window of
the draining queue.  The quickest sanity check that the Gate Ctrl template
does what the paper's Fig. 3/5 describe.

Run:  python examples/trace_timeline.py
"""

from repro import RunPlan, Testbed, ring_topology
from repro.analysis.timeline import gate_timeline, render_timeline
from repro.core.presets import customized_config
from repro.core.units import ms, us
from repro.sim.trace import Tracer
from repro.traffic.iec60802 import production_cell_flows

SLOT_NS = us(62.5)
WINDOW_NS = ms(1)  # render the first millisecond (16 slots)


def main() -> None:
    tracer = Tracer(enabled={"gate", "tx"})
    topology = ring_topology(switch_count=2, talkers=["talker0"])
    flows = production_cell_flows(["talker0"], "listener", flow_count=48)
    testbed = Testbed(
        RunPlan(topology, customized_config(1), flows, slot_ns=SLOT_NS),
        tracer=tracer,
    )
    result = testbed.run(duration_ns=ms(10))

    q6 = gate_timeline(tracer.records, "sw0.p0", 6, WINDOW_NS)
    q7 = gate_timeline(tracer.records, "sw0.p0", 7, WINDOW_NS)
    tx_times = [
        record.time
        for record in tracer.by_category("tx")
        if record.message == "sw0.p0 start" and record.time < WINDOW_NS
    ]
    print("sw0 port 0, first millisecond "
          f"({SLOT_NS / 1000:g} us slots; '#' = out-gate open):\n")
    print(render_timeline([q6, q7], until_ns=WINDOW_NS, columns=64,
                          tx_times={"sw0.p0 tx": tx_times}))

    # Every TS transmission must fall inside exactly one open TS window.
    ts_tx_in_windows = sum(
        1 for t in tx_times if q6.open_at(t) or q7.open_at(t)
    )
    print(f"\n{len(tx_times)} transmissions in the window, "
          f"{ts_tx_in_windows} inside an open TS gate")
    print(f"q6 open {q6.total_open_ns() / WINDOW_NS:.0%} of the time, "
          f"q7 open {q7.total_open_ns() / WINDOW_NS:.0%} "
          "(complementary halves of the CQF cycle)")
    assert result.ts_loss == 0.0
    assert abs(q6.total_open_ns() + q7.total_open_ns() - WINDOW_NS) <= SLOT_NS
    print("\ntrace_timeline OK")


if __name__ == "__main__":
    main()
