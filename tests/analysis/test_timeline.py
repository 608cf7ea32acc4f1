"""ASCII gate timelines."""

import pytest

from repro.analysis.timeline import GateTimeline, gate_timeline, render_timeline
from repro.core.errors import SimulationError
from repro.core.presets import customized_config
from repro.core.units import ms
from repro.network.testbed import RunPlan, Testbed
from repro.network.topology import ring_topology
from repro.sim.trace import TraceRecord, Tracer
from repro.traffic.iec60802 import production_cell_flows


def _gate_record(time, name, direction, mask):
    return TraceRecord(
        time, "gate", f"{name} {direction}-gates", (("mask", f"{mask:08b}"),)
    )


class TestGateTimeline:
    def test_reconstructs_intervals(self):
        records = [
            _gate_record(0, "sw0.p0", "out", 0b1000_0000),
            _gate_record(100, "sw0.p0", "out", 0b0100_0000),
            _gate_record(200, "sw0.p0", "out", 0b1000_0000),
            _gate_record(300, "sw0.p0", "out", 0b0100_0000),
        ]
        timeline = gate_timeline(records, "sw0.p0", queue_id=7, until_ns=400)
        assert timeline.intervals == ((0, 100), (200, 300))
        assert timeline.open_at(50) and not timeline.open_at(150)
        assert timeline.total_open_ns() == 200

    def test_still_open_at_end(self):
        records = [_gate_record(0, "p", "out", 0x80)]
        timeline = gate_timeline(records, "p", 7, until_ns=500)
        assert timeline.intervals == ((0, 500),)

    def test_direction_filter(self):
        records = [
            _gate_record(0, "p", "in", 0x80),
            _gate_record(0, "p", "out", 0x00),
            _gate_record(100, "p", "in", 0x00),
        ]
        timeline = gate_timeline(records, "p", 7, until_ns=200, direction="in")
        assert timeline.intervals == ((0, 100),)

    def test_no_records_rejected(self):
        with pytest.raises(SimulationError, match="gate records"):
            gate_timeline([], "p", 7, until_ns=100)

    def test_bad_direction_rejected(self):
        with pytest.raises(SimulationError):
            gate_timeline([], "p", 7, 100, direction="sideways")


class TestRender:
    def test_cells_reflect_state(self):
        timeline = GateTimeline("p", 7, ((0, 500),))
        text = render_timeline([timeline], until_ns=1000, columns=10)
        row = text.splitlines()[1]
        cells = row.split()[-1]
        assert cells == "#####-----"

    def test_tx_marks(self):
        timeline = GateTimeline("p", 7, ((0, 1000),))
        text = render_timeline(
            [timeline], until_ns=1000, columns=10,
            tx_times={"tx": [50, 950]},
        )
        tx_row = text.splitlines()[-1]
        cells = tx_row.split()[-1]
        assert cells[0] == "T" and cells[-1] == "T" and cells[4] == "."

    def test_invalid_args(self):
        with pytest.raises(SimulationError):
            render_timeline([], until_ns=0)


class TestEndToEnd:
    def test_cqf_alternation_visible(self):
        """The traced testbed shows queues 6/7 alternating each slot."""
        tracer = Tracer(enabled={"gate"})
        topology = ring_topology(switch_count=2, talkers=["talker0"])
        flows = production_cell_flows(["talker0"], "listener", flow_count=8)
        testbed = Testbed(
            RunPlan(topology, customized_config(1), flows, slot_ns=62_500),
            tracer=tracer,
        )
        testbed.run(duration_ns=ms(2))
        q7 = gate_timeline(tracer.records, "sw0.p0", 7, ms(2))
        q6 = gate_timeline(tracer.records, "sw0.p0", 6, ms(2))
        # complementary halves of the cycle
        for time in range(0, ms(2) - 62_500, 10_000):
            assert q7.open_at(time) != q6.open_at(time)
        # each queue is open half the time
        assert q7.total_open_ns() == pytest.approx(ms(2) / 2, rel=0.1)
        text = render_timeline([q6, q7], until_ns=ms(2), columns=32)
        assert "#" in text and "-" in text
