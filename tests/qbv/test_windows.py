"""Gate windows and GCL compilation."""

import pytest

from repro.core.errors import SchedulingError
from repro.qbv.windows import GateWindow, WindowSet, compile_gcl, guard_band_ns


def state_at(gcl, time_in_cycle_ns):
    """The entry of *gcl* active at an offset into its cycle, found by
    walking the rows: the reference the compiled lists are checked with."""
    offset = time_in_cycle_ns % sum(entry.interval_ns for entry in gcl)
    for entry in gcl:
        if offset < entry.interval_ns:
            return entry
        offset -= entry.interval_ns


class TestGateWindow:
    def test_duration(self):
        assert GateWindow(7, 100, 300).duration_ns == 200

    def test_invalid_interval(self):
        with pytest.raises(SchedulingError):
            GateWindow(7, 300, 100)
        with pytest.raises(SchedulingError):
            GateWindow(7, -1, 100)

    def test_invalid_queue(self):
        with pytest.raises(SchedulingError):
            GateWindow(8, 0, 100)

    def test_overlap(self):
        a = GateWindow(7, 100, 300)
        assert a.overlaps(GateWindow(6, 200, 400))
        assert not a.overlaps(GateWindow(6, 300, 400))  # half-open


class TestWindowSet:
    def test_sorted_iteration(self):
        ws = WindowSet(1000, [GateWindow(7, 500, 600), GateWindow(6, 100, 200)])
        assert [w.start_ns for w in ws] == [100, 500]

    def test_rejects_cycle_overrun(self):
        ws = WindowSet(1000)
        with pytest.raises(SchedulingError):
            ws.add(GateWindow(7, 900, 1100))

    def test_rejects_overlap(self):
        ws = WindowSet(1000, [GateWindow(7, 100, 300)])
        with pytest.raises(SchedulingError, match="overlaps"):
            ws.add(GateWindow(6, 200, 400))

    def test_utilization(self):
        ws = WindowSet(1000, [GateWindow(7, 0, 250), GateWindow(6, 500, 600)])
        assert sum(w.duration_ns for w in ws) / ws.cycle_ns == 0.35

    def test_scheduled_queues(self):
        ws = WindowSet(1000, [GateWindow(7, 100, 200), GateWindow(5, 400, 500)])
        assert ws.scheduled_queues == (5, 7)


class TestGuardBand:
    def test_mtu_at_gigabit(self):
        # 1518 B + 20 B framing = 1538 B -> 12304 ns
        assert guard_band_ns() == 12_304


class TestCompileGcl:
    def _entries(self, windows, cycle=100_000, guard=1_000, queue_num=8):
        ws = WindowSet(cycle, windows)
        return compile_gcl(ws, queue_num=queue_num, guard_ns=guard)

    def test_covers_cycle_exactly(self):
        entries = self._entries([GateWindow(7, 10_000, 20_000)])
        assert sum(e.interval_ns for e in entries) == 100_000

    def test_window_exclusive(self):
        entries = self._entries([GateWindow(7, 10_000, 20_000)])
        # segments: background / guard / window / background
        masks = [e.gate_states for e in entries]
        assert masks == [0x7F, 0x00, 0x80, 0x7F]

    def test_guard_band_closes_everything(self):
        entries = self._entries([GateWindow(7, 10_000, 20_000)], guard=1_000)
        guard_entry = entries[1]
        assert guard_entry.gate_states == 0 and guard_entry.interval_ns == 1_000

    def test_background_mask_excludes_all_scheduled_queues(self):
        entries = self._entries(
            [GateWindow(7, 10_000, 20_000), GateWindow(6, 50_000, 60_000)]
        )
        assert entries[0].gate_states == 0x3F  # neither 6 nor 7

    def test_window_needs_guard_headroom(self):
        with pytest.raises(SchedulingError, match="guard"):
            self._entries([GateWindow(7, 500, 2_000)], guard=1_000)

    def test_windows_too_close_rejected(self):
        with pytest.raises(SchedulingError, match="guard band"):
            self._entries(
                [GateWindow(7, 10_000, 20_000), GateWindow(6, 20_500, 25_000)],
                guard=1_000,
            )

    def test_back_to_back_windows_with_zero_guard(self):
        ws = WindowSet(100_000, [GateWindow(7, 10_000, 20_000),
                                 GateWindow(6, 20_000, 30_000)])
        entries = compile_gcl(ws, guard_ns=0)
        assert sum(e.interval_ns for e in entries) == 100_000

    def test_scheduled_queue_outside_queue_num_rejected(self):
        with pytest.raises(SchedulingError):
            self._entries([GateWindow(7, 10_000, 20_000)], queue_num=4)

    def test_entry_count_guideline(self):
        """3 entries per isolated window + 1 trailing background segment."""
        windows = [
            GateWindow(7, base + 10_000, base + 15_000)
            for base in range(0, 100_000, 25_000)
        ]
        entries = self._entries(windows)
        assert len(entries) == 3 * len(windows) + 1


class TestCompileProperties:
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=40, deadline=None)
    @given(
        starts=st.lists(
            st.integers(min_value=0, max_value=18), min_size=1, max_size=5,
            unique=True,
        ),
        queue=st.integers(min_value=0, max_value=7),
        guard=st.sampled_from([0, 500, 1000]),
    )
    def test_compiled_gcl_matches_window_semantics(self, starts, queue,
                                                   guard):
        """For random non-overlapping windows the compiled GCL opens the
        scheduled queue exactly inside its windows and closes everything
        during guards."""
        from repro.switch.tables import GateControlList

        cycle = 100_000
        # windows on a 5us grid, 2us long: never overlap, guards fit
        windows = [
            GateWindow(queue, s * 5_000 + 2_000, s * 5_000 + 4_000)
            for s in sorted(starts)
        ]
        ws = WindowSet(cycle, windows)
        entries = compile_gcl(ws, guard_ns=guard)
        assert sum(e.interval_ns for e in entries) == cycle
        gcl = GateControlList(len(entries))
        gcl.program(entries)
        for window in windows:
            mid = (window.start_ns + window.end_ns) // 2
            state = state_at(gcl, mid)
            assert state.is_open(queue)
            assert state.gate_states == 1 << queue  # exclusive
            if guard:
                guard_state = state_at(gcl, window.start_ns - guard // 2)
                assert guard_state.gate_states == 0
        # far from any window, the background mask applies
        probe = windows[0].start_ns - guard - 1_000
        if probe >= 0:
            assert not state_at(gcl, probe).is_open(queue)
