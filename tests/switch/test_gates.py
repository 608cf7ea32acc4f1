"""Gate engine: GCL walking, CQF queue selection, guard-band queries."""

import pytest

from repro.core.errors import ConfigurationError
from repro.sim.clock import LocalClock
from repro.sim.kernel import Simulator
from repro.switch.gates import CqfPair, GateEngine
from repro.switch.tables import GateControlList, GateEntry


def _engine(sim, in_entries, out_entries, pairs=(), clock=None, mode="auto"):
    in_gcl = GateControlList(max(1, len(in_entries)))
    out_gcl = GateControlList(max(1, len(out_entries)))
    in_gcl.program(list(in_entries))
    out_gcl.program(list(out_entries))
    return GateEngine(
        sim, in_gcl, out_gcl, clock=clock, cqf_pairs=list(pairs), mode=mode
    )


def _cqf_engine(sim, slot=100, mode="auto"):
    # queues 6/7 alternate; all others always open
    base = 0b0011_1111
    in_entries = [GateEntry(base | 0x40, slot), GateEntry(base | 0x80, slot)]
    out_entries = [GateEntry(base | 0x80, slot), GateEntry(base | 0x40, slot)]
    return _engine(
        sim, in_entries, out_entries, pairs=[CqfPair(6, 7)], mode=mode
    )


class TestCqfPair:
    def test_membership(self):
        pair = CqfPair(6, 7)
        assert 6 in pair and 7 in pair and 5 not in pair

    def test_distinct_queues_required(self):
        with pytest.raises(ConfigurationError):
            CqfPair(3, 3)


class TestLifecycle:
    def test_start_applies_first_entry(self):
        sim = Simulator()
        engine = _cqf_engine(sim)
        engine.start()
        assert engine.in_open(6) and not engine.in_open(7)
        assert engine.out_open(7) and not engine.out_open(6)

    def test_double_start_rejected(self):
        sim = Simulator()
        engine = _cqf_engine(sim)
        engine.start()
        with pytest.raises(ConfigurationError):
            engine.start()

    @pytest.mark.parametrize("mode", ["flip", "table"])
    def test_flips_at_entry_boundaries(self, mode):
        sim = Simulator()
        engine = _cqf_engine(sim, slot=100, mode=mode)
        engine.start()
        sim.run(until=99)
        assert engine.in_open(6)
        sim.run(until=100)
        assert engine.in_open(7) and not engine.in_open(6)
        sim.run(until=200)
        assert engine.in_open(6)

    def test_on_change_notified(self):
        # Flip mode: every transition notifies the scheduler.
        sim = Simulator()
        engine = _cqf_engine(sim, slot=50, mode="flip")
        kicks = []
        engine.set_on_change(lambda: kicks.append(sim.now))
        engine.start()
        sim.run(until=120)
        assert kicks[0] == 0            # at start
        assert 50 in kicks and 100 in kicks

    def test_table_mode_notifies_only_at_start(self):
        # Table mode produces no transitions; re-arbitration is pulled
        # through next_out_open_window wake hints instead.
        sim = Simulator()
        engine = _cqf_engine(sim, slot=50, mode="table")
        kicks = []
        engine.set_on_change(lambda: kicks.append(sim.now))
        engine.start()
        sim.run(until=120)
        assert kicks == [0]

    def test_auto_resolves_to_table_without_observers(self):
        sim = Simulator()
        engine = _cqf_engine(sim, slot=50)
        assert engine.event_mode == "auto"
        engine.start()
        assert engine.event_mode == "table"
        # No periodic gate events on the calendar at all.
        assert sim.pending == 0

    def test_invalid_mode_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            _cqf_engine(sim, mode="sometimes")

    def test_program_after_start_rejected(self):
        sim = Simulator()
        engine = _cqf_engine(sim)
        engine.start()
        with pytest.raises(ConfigurationError):
            engine.program([GateEntry(0xFF, 10)], [GateEntry(0xFF, 10)])

    def test_drifting_clock_skews_boundaries(self):
        sim = Simulator()
        fast = LocalClock(sim, drift_ppm=100_000)  # 10% fast, exaggerated
        engine = _cqf_engine(sim, slot=1000)
        engine2 = GateEngine(
            sim,
            engine.in_gcl,
            engine.out_gcl,
            clock=fast,
        )
        # A 1000ns local interval on a 10%-fast clock elapses in ~909 sim ns.
        assert fast.sim_delay_for_local(1000) == 909


class TestQueueSelection:
    @pytest.mark.parametrize("mode", ["flip", "table"])
    def test_cqf_redirect_to_open_member(self, mode):
        sim = Simulator()
        engine = _cqf_engine(sim, slot=100, mode=mode)
        engine.start()
        assert engine.select_enqueue_queue(7) == 6  # slot 0 gathers on 6
        sim.run(until=100)
        assert engine.select_enqueue_queue(7) == 7

    def test_non_cqf_queue_follows_own_gate(self):
        sim = Simulator()
        engine = _cqf_engine(sim)
        engine.start()
        assert engine.select_enqueue_queue(0) == 0  # BE: always open

    def test_closed_non_cqf_gate_drops(self):
        sim = Simulator()
        # queue 0 closed in every entry
        engine = _engine(
            sim, [GateEntry(0xFE, 100)], [GateEntry(0xFF, 100)]
        )
        engine.start()
        assert engine.select_enqueue_queue(0) is None


class TestGuardBandQuery:
    @pytest.mark.parametrize("mode", ["flip", "table"])
    def test_closed_gate_reports_zero(self, mode):
        sim = Simulator()
        engine = _cqf_engine(sim, mode=mode)
        engine.start()
        assert engine.time_until_out_close(6) == 0  # out-gate of 6 is closed

    @pytest.mark.parametrize("mode", ["flip", "table"])
    def test_open_gate_reports_remaining_window(self, mode):
        sim = Simulator()
        engine = _cqf_engine(sim, slot=100, mode=mode)
        engine.start()
        assert engine.time_until_out_close(7) == 100
        sim.run(until=30)
        assert engine.time_until_out_close(7) == 70

    @pytest.mark.parametrize("mode", ["flip", "table"])
    def test_always_open_queue_reports_none(self, mode):
        sim = Simulator()
        engine = _cqf_engine(sim, mode=mode)
        engine.start()
        assert engine.time_until_out_close(0) is None  # open in both entries

    @pytest.mark.parametrize("mode", ["flip", "table"])
    def test_single_entry_gcl_reports_none(self, mode):
        sim = Simulator()
        engine = _engine(
            sim, [GateEntry(0xFF, 50)], [GateEntry(0xFF, 50)], mode=mode
        )
        engine.start()
        assert engine.time_until_out_close(3) is None


class TestWakeHints:
    def test_next_window_for_closed_gate(self):
        sim = Simulator()
        engine = _cqf_engine(sim, slot=100, mode="table")
        engine.start()
        # Queue 6's out-gate opens at the next slot boundary.
        assert engine.next_out_open_window(6) == 100
        sim.run(until=30)
        assert engine.next_out_open_window(6) == 70

    def test_window_must_fit_frame(self):
        sim = Simulator()
        engine = _cqf_engine(sim, slot=100, mode="table")
        engine.start()
        # A frame needing more than one slot never fits: no wake hint.
        assert engine.next_out_open_window(6, needed_ns=101) is None
        assert engine.next_out_open_window(6, needed_ns=100) == 100

    def test_open_gate_hints_next_cycle(self):
        sim = Simulator()
        engine = _cqf_engine(sim, slot=100, mode="table")
        engine.start()
        # Queue 7 is open now; the *next* window starts a full cycle later.
        assert engine.next_out_open_window(7) == 200

    def test_flip_mode_returns_none(self):
        sim = Simulator()
        engine = _cqf_engine(sim, slot=100, mode="flip")
        engine.start()
        assert not engine.needs_wake_hints
        assert engine.next_out_open_window(6) is None

    def test_rate_change_rebuilds_boundaries(self):
        # Slew the clock mid-entry: the committed end of the in-flight
        # entry must hold, later boundaries follow the new rate -- exactly
        # what the flip engine does by computing each delay at entry start.
        sim_flip, sim_table = Simulator(), Simulator()
        engines = {}
        clocks = {}
        for label, sim, mode in (
            ("flip", sim_flip, "flip"), ("table", sim_table, "table")
        ):
            clock = LocalClock(sim)
            in_gcl = GateControlList(2)
            out_gcl = GateControlList(2)
            base = 0b0011_1111
            in_gcl.program(
                [GateEntry(base | 0x40, 1000), GateEntry(base | 0x80, 1000)]
            )
            out_gcl.program(
                [GateEntry(base | 0x80, 1000), GateEntry(base | 0x40, 1000)]
            )
            engine = GateEngine(
                sim, in_gcl, out_gcl, clock=clock, mode=mode
            )
            engine.start()
            engines[label] = engine
            clocks[label] = clock
            sim.post(500, lambda c=clock: c.adjust_rate(100_000))  # +10%
        for probe in (999, 1000, 1400, 1900, 2000, 2800, 2900, 5000):
            for label, sim in (("flip", sim_flip), ("table", sim_table)):
                sim.run(until=probe)
            seen = {
                label: (
                    engine.in_mask,
                    engine.out_mask,
                    [engine.time_until_out_close(q) for q in range(8)],
                )
                for label, engine in engines.items()
            }
            assert seen["flip"] == seen["table"], f"diverged at {probe}"

    @pytest.mark.parametrize("mode", ["flip", "table"])
    def test_guard_band_keeps_committed_boundary_after_slew(self, mode):
        # Two 100 us out-entries, the clock slewed +200 ppm half-way into
        # the first: that entry's boundary was committed at the old rate
        # (the flip event is already on the calendar at 100 000), so 10 us
        # later the gate closes in 40 000 ns -- not in the 39 980 ns the
        # entry would last had it *started* at the new rate.
        sim = Simulator()
        clock = LocalClock(sim)
        entries = [GateEntry(0x01, 100_000), GateEntry(0x02, 100_000)]
        engine = _engine(sim, entries, entries, clock=clock, mode=mode)
        closes = []
        engine.set_on_change(
            lambda: engine.out_open(0) or closes.append(sim.now)
        )
        engine.start()
        sim.post(50_000, lambda: clock.adjust_rate(200.0))
        sim.run(until=60_000)
        assert engine.time_until_out_close(0) == 40_000
        sim.run(until=150_000)
        if mode == "flip":
            assert closes[0] == 100_000
        assert not engine.out_open(0)
        # the next entry runs at the new rate: 100 000 / 1.0002 -> 99 980
        assert engine.time_until_out_close(1) == 100_000 + 99_980 - 150_000
