"""Gate engine: window-table lookups, CQF queue selection, narration."""

import pytest

from repro.core.errors import ConfigurationError
from repro.sim.clock import LocalClock
from repro.sim.kernel import Simulator
from repro.sim.trace import NULL_TRACER, Tracer
from repro.switch.gates import CqfPair, GateEngine
from repro.switch.tables import GateControlList, GateEntry


#: No answer may depend on whether boundaries are narrated to a gate
#: tracer.  (The ids are what the two cases were called while narration was
#: an event discipline of its own beside the bare table.)
narrated_or_not = pytest.mark.parametrize(
    "narrated", [True, False], ids=["flip", "table"]
)


def _engine(sim, in_entries, out_entries, pairs=(), clock=None,
            narrated=False):
    in_gcl = GateControlList(max(1, len(in_entries)))
    out_gcl = GateControlList(max(1, len(out_entries)))
    in_gcl.program(list(in_entries))
    out_gcl.program(list(out_entries))
    return GateEngine(
        sim, in_gcl, out_gcl, clock=clock, cqf_pairs=list(pairs),
        tracer=Tracer(enabled={"gate"}) if narrated else NULL_TRACER,
    )


def _cqf_engine(sim, slot=100, clock=None, narrated=False):
    # queues 6/7 alternate; all others always open
    base = 0b0011_1111
    in_entries = [GateEntry(base | 0x40, slot), GateEntry(base | 0x80, slot)]
    out_entries = [GateEntry(base | 0x80, slot), GateEntry(base | 0x40, slot)]
    return _engine(
        sim, in_entries, out_entries, pairs=[CqfPair(6, 7)], clock=clock,
        narrated=narrated,
    )


def _narrated_at(engine, kind):
    """Times of the ``<kind>-gates`` records after the start record."""
    return [
        r.time for r in engine._tracer.records
        if r.message.endswith(f"{kind}-gates")
    ][1:]


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

    def test_queries_before_start_see_every_gate_open(self):
        engine = _cqf_engine(Simulator())
        assert not engine.started
        assert engine.in_mask == engine.out_mask == 0xFF
        for queue_id in range(8):
            assert engine.in_open(queue_id) and engine.out_open(queue_id)
            assert engine.time_until_out_close(queue_id) is None
            assert engine.next_out_open_window(queue_id) is None
        assert engine.select_enqueue_queue(7) == 6  # first open CQF member

    @narrated_or_not
    def test_flips_at_entry_boundaries(self, narrated):
        sim = Simulator()
        engine = _cqf_engine(sim, slot=100, narrated=narrated)
        engine.start()
        sim.run(until=99)
        assert engine.in_open(6)
        sim.run(until=100)
        assert engine.in_open(7) and not engine.in_open(6)
        sim.run(until=200)
        assert engine.in_open(6)

    def test_on_change_notified(self):
        # Narration wakes nobody: the owner arbitrates once after start and
        # re-arbitration is pulled through next_out_open_window.
        sim = Simulator()
        engine = _cqf_engine(sim, slot=50, narrated=True)
        engine.start()
        sim.run(until=120)
        assert _narrated_at(engine, "in") == [50, 100]
        assert _narrated_at(engine, "out") == [50, 100]

    def test_table_mode_notifies_only_at_start(self):
        # Unwatched, the engine never touches the calendar at all.
        sim = Simulator()
        engine = _cqf_engine(sim, slot=50)
        engine.start()
        assert sim.pending == 0
        sim.run(until=120)
        assert sim.stats.fired == 0

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
    @narrated_or_not
    def test_cqf_redirect_to_open_member(self, narrated):
        sim = Simulator()
        engine = _cqf_engine(sim, slot=100, narrated=narrated)
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
    @narrated_or_not
    def test_closed_gate_reports_zero(self, narrated):
        sim = Simulator()
        engine = _cqf_engine(sim, narrated=narrated)
        engine.start()
        assert engine.time_until_out_close(6) == 0  # out-gate of 6 is closed

    @narrated_or_not
    def test_open_gate_reports_remaining_window(self, narrated):
        sim = Simulator()
        engine = _cqf_engine(sim, slot=100, narrated=narrated)
        engine.start()
        assert engine.time_until_out_close(7) == 100
        sim.run(until=30)
        assert engine.time_until_out_close(7) == 70

    @narrated_or_not
    def test_always_open_queue_reports_none(self, narrated):
        sim = Simulator()
        engine = _cqf_engine(sim, narrated=narrated)
        engine.start()
        assert engine.time_until_out_close(0) is None  # open in both entries

    @narrated_or_not
    def test_single_entry_gcl_reports_none(self, narrated):
        sim = Simulator()
        engine = _engine(
            sim, [GateEntry(0xFF, 50)], [GateEntry(0xFF, 50)],
            narrated=narrated,
        )
        engine.start()
        assert engine.time_until_out_close(3) is None


class TestWakeHints:
    def test_next_window_for_closed_gate(self):
        sim = Simulator()
        engine = _cqf_engine(sim, slot=100)
        engine.start()
        # Queue 6's out-gate opens at the next slot boundary.
        assert engine.next_out_open_window(6) == 100
        sim.run(until=30)
        assert engine.next_out_open_window(6) == 70

    def test_window_must_fit_frame(self):
        sim = Simulator()
        engine = _cqf_engine(sim, slot=100)
        engine.start()
        # A frame needing more than one slot never fits: no wake hint.
        assert engine.next_out_open_window(6, needed_ns=101) is None
        assert engine.next_out_open_window(6, needed_ns=100) == 100

    def test_open_gate_hints_next_cycle(self):
        sim = Simulator()
        engine = _cqf_engine(sim, slot=100)
        engine.start()
        # Queue 7 is open now; the *next* window starts a full cycle later.
        assert engine.next_out_open_window(7) == 200

    def test_rate_change_rebuilds_boundaries(self):
        # Slew the clock mid-entry: the committed end of the in-flight
        # entry must hold (a wakeup may be armed on it), later entries run
        # at the new rate -- 1000 local ns at +10% is 909 sim ns.
        sim = Simulator()
        clock = LocalClock(sim)
        engine = _cqf_engine(sim, slot=1000, clock=clock, narrated=True)
        engine.start()
        sim.post(500, lambda: clock.adjust_rate(100_000))
        boundaries = [1000, 1909, 2818, 3727, 4636]
        for index, boundary in enumerate(boundaries):
            open_before, open_after = (6, 7) if index % 2 == 0 else (7, 6)
            sim.run(until=boundary - 1)
            assert engine.in_open(open_before) and engine.out_open(open_after)
            assert engine.time_until_out_close(open_after) == 1
            assert engine.next_out_open_window(open_before) == 1
            sim.run(until=boundary)
            assert engine.in_open(open_after) and engine.out_open(open_before)
        assert _narrated_at(engine, "in") == boundaries
        assert _narrated_at(engine, "out") == boundaries

    def test_flips_count_the_narrated_boundaries(self):
        # ``gate_flips_total`` reads the window tables: the boundaries
        # crossed through now, carried over every rebuild -- one mid-entry,
        # one inside the pre-anchor stretch it leaves, one on a boundary.
        sim = Simulator()
        clocks = [LocalClock(sim), LocalClock(sim)]
        narrated, quiet = (
            _cqf_engine(sim, slot=1000, clock=clock, narrated=flag)
            for clock, flag in zip(clocks, (True, False))
        )
        assert quiet.flips("in") == quiet.flips("out") == 0
        narrated.start()
        quiet.start()
        for at, ppm in ((500, 100_000), (800, -50_000), (1000, 20_000)):
            for clock in clocks:
                sim.post(at, lambda clock=clock, ppm=ppm: clock.adjust_rate(ppm))
        for until in range(0, 6_000, 7):
            sim.run(until=until)
            for direction in ("in", "out"):
                expected = len(_narrated_at(narrated, direction))
                assert narrated.flips(direction) == expected
                assert quiet.flips(direction) == expected
        assert quiet.flips("in") >= 5

    @narrated_or_not
    def test_guard_band_keeps_committed_boundary_after_slew(self, narrated):
        # Two 100 us out-entries, the clock slewed +200 ppm half-way into
        # the first: that entry's boundary was committed at the old rate
        # (a wakeup may already be on the calendar at 100 000), so 10 us
        # later the gate closes in 40 000 ns -- not in the 39 980 ns the
        # entry would last had it *started* at the new rate.
        sim = Simulator()
        clock = LocalClock(sim)
        entries = [GateEntry(0x01, 100_000), GateEntry(0x02, 100_000)]
        engine = _engine(sim, entries, entries, clock=clock, narrated=narrated)
        engine.start()
        sim.post(50_000, lambda: clock.adjust_rate(200.0))
        sim.run(until=60_000)
        assert engine.time_until_out_close(0) == 40_000
        sim.run(until=150_000)
        if narrated:
            assert _narrated_at(engine, "out") == [100_000]
        assert not engine.out_open(0)
        # the next entry runs at the new rate: 100 000 / 1.0002 -> 99 980
        assert engine.time_until_out_close(1) == 100_000 + 99_980 - 150_000
