"""Event kernel ordering, cancellation, and error behaviour."""

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import SimulationError
from repro.sim.kernel import _COMPACT_MIN_DEAD, EventBudgetExceeded, Simulator


class TestScheduling:
    def test_fires_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(30, lambda: order.append("c"))
        sim.schedule(10, lambda: order.append("a"))
        sim.schedule(20, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo(self):
        sim = Simulator()
        order = []
        for tag in "abc":
            sim.schedule(5, lambda t=tag: order.append(t))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_priority_breaks_ties(self):
        sim = Simulator()
        order = []
        sim.schedule(5, lambda: order.append("late"), priority=0)
        sim.schedule(5, lambda: order.append("early"), priority=-10)
        sim.run()
        assert order == ["early", "late"]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(42, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42] and sim.now == 42

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []
        def outer():
            sim.schedule(5, lambda: seen.append(sim.now))
        sim.schedule(10, outer)
        sim.run()
        assert seen == [15]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5, lambda: None)


class TestRun:
    def test_until_stops_and_pins_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, lambda: fired.append(10))
        sim.schedule(100, lambda: fired.append(100))
        sim.run(until=50)
        assert fired == [10] and sim.now == 50
        sim.run()
        assert fired == [10, 100]

    def test_until_inclusive(self):
        sim = Simulator()
        fired = []
        sim.schedule(50, lambda: fired.append(50))
        sim.run(until=50)
        assert fired == [50]

    def test_until_in_past_rejected(self):
        sim = Simulator()
        sim.run(until=100)
        with pytest.raises(SimulationError):
            sim.run(until=50)

    def test_reentrant_run_rejected(self):
        sim = Simulator()
        def evil():
            sim.run()
        sim.schedule(1, evil)
        with pytest.raises(SimulationError):
            sim.run()

    def test_events_executed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1, lambda: None)
        sim.run()
        assert sim.events_executed == 5


class TestCancel:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(10, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == [] and not handle.active

    def test_double_cancel_safe(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_pending_skips_cancelled(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None).cancel()
        assert sim.pending == 1


class TestStepPeek:
    def test_step_executes_one(self):
        sim = Simulator()
        fired = []
        sim.schedule(1, lambda: fired.append(1))
        sim.schedule(2, lambda: fired.append(2))
        assert sim.step() is True
        assert fired == [1]

    def test_step_empty_returns_false(self):
        assert Simulator().step() is False

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        sim.schedule(5, lambda: None).cancel()
        sim.schedule(9, lambda: None)
        assert sim.peek() == 9

    def test_peek_empty(self):
        assert Simulator().peek() is None


class TestDeterminism:
    @given(st.lists(st.integers(min_value=0, max_value=1000), max_size=50))
    def test_trace_is_sorted_and_stable(self, delays):
        sim = Simulator()
        trace = []
        for i, delay in enumerate(delays):
            sim.schedule(delay, lambda d=delay, i=i: trace.append((d, i)))
        sim.run()
        # time-sorted, and insertion order preserved within equal times
        assert trace == sorted(trace, key=lambda pair: (pair[0], pair[1]))


class TestSimStats:
    def test_scheduled_and_fired(self):
        sim = Simulator()
        for delay in (1, 2, 3):
            sim.schedule(delay, lambda: None)
        sim.run()
        assert sim.stats.scheduled == 3
        assert sim.stats.fired == 3
        assert sim.stats.cancelled == 0

    def test_cancelled_counted_once(self):
        sim = Simulator()
        handle = sim.schedule(5, lambda: None)
        handle.cancel()
        handle.cancel()  # second cancel is a no-op
        sim.schedule(6, lambda: None)
        sim.run()
        assert sim.stats.cancelled == 1
        assert sim.stats.fired == 1

    def test_calendar_high_water(self):
        sim = Simulator()
        for delay in (1, 2, 3, 4):
            sim.schedule(delay, lambda: None)
        sim.run()
        assert sim.stats.calendar_high_water == 4

    def test_high_water_tracks_nested_scheduling(self):
        sim = Simulator()

        def fan_out():
            for delay in (1, 2, 3):
                sim.schedule(delay, lambda: None)

        sim.schedule(1, fan_out)
        sim.run()
        # One drained before three were added: peak is 3, total 4 scheduled.
        assert sim.stats.scheduled == 4
        assert sim.stats.calendar_high_water == 3

    def test_as_dict(self):
        sim = Simulator()
        sim.schedule(1, lambda: None)
        sim.run()
        assert sim.stats.as_dict() == {
            "scheduled": 1, "fired": 1, "cancelled": 0, "compacted": 0,
            "calendar_high_water": 1, "elided": 0,
        }

    def test_cancel_after_fire_not_counted(self):
        # The fire path marks the slot differently from cancellation, so a
        # late cancel() must not inflate the cancelled counter.
        sim = Simulator()
        handle = sim.schedule(5, lambda: None)
        sim.run()
        handle.cancel()
        assert sim.stats.fired == 1
        assert sim.stats.cancelled == 0
        assert not handle.active


class TestPost:
    def test_post_fires_like_schedule(self):
        sim = Simulator()
        order = []
        sim.post(20, lambda: order.append("b"))
        sim.post(10, lambda: order.append("a"))
        sim.post_at(30, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.stats.scheduled == 3 and sim.stats.fired == 3

    def test_post_and_schedule_share_seq_order(self):
        # Same-time events fire in submission order regardless of which
        # primitive scheduled them.
        sim = Simulator()
        order = []
        sim.post(5, lambda: order.append("p1"))
        sim.schedule(5, lambda: order.append("s1"))
        sim.post(5, lambda: order.append("p2"))
        sim.run()
        assert order == ["p1", "s1", "p2"]

    def test_post_priority_breaks_ties(self):
        sim = Simulator()
        order = []
        sim.post(5, lambda: order.append("late"))
        sim.post(5, lambda: order.append("early"), priority=-10)
        sim.run()
        assert order == ["early", "late"]

    def test_post_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.post(-1, lambda: None)

    def test_post_at_past_rejected(self):
        sim = Simulator()
        sim.post(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.post_at(5, lambda: None)

    def test_pending_counts_posts(self):
        sim = Simulator()
        sim.post(1, lambda: None)
        sim.schedule(2, lambda: None)
        assert sim.pending == 2
        sim.run()
        assert sim.pending == 0


class TestReservedSeq:
    def test_reserved_post_keeps_its_place_among_same_time_events(self):
        sim = Simulator()
        order = []
        sim.post(10, lambda: order.append("before"))
        seq = sim.reserve_seq()
        sim.post(10, lambda: order.append("after"))
        # Redeemed last, fires where an eager post would have.
        sim.post_reserved(10, seq, lambda: order.append("reserved"))
        sim.run()
        assert order == ["before", "reserved", "after"]

    def test_elided_counts_unredeemed_reservations(self):
        sim = Simulator()
        kept, dropped = sim.reserve_seq(), sim.reserve_seq()
        assert kept != dropped
        assert sim.stats.elided == 2 and sim.stats.scheduled == 0
        sim.post_reserved(5, kept, lambda: None)
        assert sim.stats.elided == 1 and sim.stats.scheduled == 1
        assert sim.pending == 1
        sim.run()
        assert sim.stats.fired == 1
        assert sim.stats.as_dict()["elided"] == 1

    def test_past_time_rejected(self):
        sim = Simulator()
        sim.post(100, lambda: None)
        sim.run()
        seq = sim.reserve_seq()
        with pytest.raises(SimulationError, match="now is 100ns"):
            sim.post_reserved(99, seq, lambda: None)

    def test_never_reserved_seq_rejected(self):
        sim = Simulator()
        sim.post(1, lambda: None)  # takes seq 0, but nothing is reserved
        with pytest.raises(SimulationError, match="never reserved"):
            sim.post_reserved(5, 0, lambda: None)
        sim.reserve_seq()
        with pytest.raises(SimulationError, match="never reserved"):
            sim.post_reserved(5, 7, lambda: None)  # not handed out yet
        assert sim.stats.scheduled == 1 and sim.stats.elided == 1


class TestDerivedAccounting:
    """``scheduled``, ``fired``, ``pending`` and the high-water mark are
    derived from the calendar when read; they must read exactly what
    counting every post, fire and cancel used to give."""

    _OPS = st.lists(
        st.one_of(
            st.tuples(st.just("post"), st.integers(0, 50)),
            st.tuples(st.just("schedule"), st.integers(0, 50)),
            st.tuples(st.just("cancel"), st.integers(0, 200)),
            st.tuples(st.just("reserve"), st.just(0)),
            st.tuples(st.just("redeem"), st.integers(0, 50)),
            st.tuples(st.just("step"), st.just(0)),
            st.tuples(st.just("run"), st.integers(0, 30)),
            st.tuples(st.just("peek"), st.just(0)),
            st.tuples(st.just("storm"), st.integers(60, 140)),
        ),
        max_size=60,
    )

    @given(_OPS, st.booleans())
    def test_counts_match_a_model_of_every_operation(self, ops, clear):
        sim = Simulator()
        fired = []
        handles, reserved = [], []
        posts = redeemed = reservations = 0
        live = set()  # ids of scheduled, uncancelled, unfired entries
        lengths = [0]  # heap length after every push
        high_waters = []

        def action(tag):
            def fire():
                fired.append(tag)
                live.discard(tag)
                assert sim.stats.fired == len(fired)  # current mid-event
            return fire

        for op, arg in ops:
            tag = len(handles) + posts + redeemed
            if op == "post":
                sim.post(arg, action(tag))
                posts += 1
                live.add(tag)
            elif op == "schedule":
                handles.append((sim.schedule(arg, action(tag)), tag))
                posts += 1
                live.add(tag)
            elif op == "storm":
                for i in range(arg):
                    handle = sim.schedule(1000 + i, action((tag, i)))
                    lengths.append(len(sim._heap))
                    live.add((tag, i))
                    handle.cancel()
                    live.discard((tag, i))
                    posts += 1
            elif op == "cancel" and handles:
                handle, which = handles[arg % len(handles)]
                handle.cancel()
                live.discard(which)
            elif op == "reserve":
                reserved.append(sim.reserve_seq())
                reservations += 1
            elif op == "redeem" and reserved:
                sim.post_reserved(sim.now + arg, reserved.pop(), action(tag))
                redeemed += 1
                live.add(tag)
            elif op == "step":
                sim.step()
            elif op == "run":
                sim.run(until=sim.now + arg)
            elif op == "peek":
                sim.peek()
            lengths.append(len(sim._heap))
            stats = sim.stats
            assert stats.scheduled == posts + redeemed
            assert stats.scheduled + stats.elided == posts + reservations
            assert stats.fired == len(fired)
            assert sim.events_executed == len(fired)
            assert sim.pending == len(live)
            high_waters.append(stats.calendar_high_water)
        if clear:
            sim.clear()
            live.clear()
            assert sim.pending == 0
        sim.run()
        assert sim.stats.fired == len(fired) and sim.pending == 0
        # The mark only rises, and is exactly the longest the heap got.
        assert high_waters == sorted(high_waters)
        assert sim.stats.calendar_high_water == max(lengths)

    def test_pending_after_cancel_compaction_and_clear(self):
        sim = Simulator()
        handles = [sim.schedule(10 + i, lambda: None) for i in range(100)]
        sim.post(5, lambda: None)
        handles[0].cancel()
        assert sim.pending == 100
        for handle in handles[1:70]:
            handle.cancel()
        # The 64th cancel found the dead outnumbering the live (37) and
        # compacted; the six cancelled after it are still in the heap.
        assert sim.stats.compacted == 64
        assert sim.pending == 31 and len(sim._heap) == 37
        assert sim.stats.calendar_high_water == 101
        sim.clear()
        assert sim.pending == 0
        assert sim.stats.calendar_high_water == 101
        assert sim.stats.scheduled == 101 and sim.stats.fired == 0

    def test_fired_read_from_inside_an_event_is_current(self):
        sim = Simulator()
        seen = []
        for delay in (1, 2, 2, 3):
            sim.post(delay, lambda: seen.append(sim.stats.fired))
        cancelled = sim.schedule(2, lambda: None)
        cancelled.cancel()
        sim.run()
        assert seen == [1, 2, 3, 4]

    def test_event_budget_counts_fired_events_only(self):
        sim = Simulator()
        sim.event_budget = 3
        for delay in range(1, 6):
            if delay == 2:
                sim.schedule(delay, lambda: None).cancel()
            else:
                sim.post(delay, lambda: None)
        with pytest.raises(EventBudgetExceeded, match="at 5ns"):
            sim.run()
        assert sim.stats.fired == 4 and sim.stats.cancelled == 1


class TestCompaction:
    def test_cancellation_storm_compacts(self):
        sim = Simulator()
        keep = 4
        storm = _COMPACT_MIN_DEAD * 3
        for _ in range(keep):
            sim.schedule(10**6, lambda: None)
        handles = [sim.schedule(100, lambda: None) for _ in range(storm)]
        for handle in handles:
            handle.cancel()
        assert sim.stats.cancelled == storm
        assert sim.stats.compacted >= _COMPACT_MIN_DEAD
        assert sim.pending == keep
        # The heap itself must have shed the dead entries.
        assert len(sim._heap) < storm

    def test_compaction_mid_run_preserves_order(self):
        # Force a compaction from inside an event action: the run loop's
        # heap binding must stay valid and ordering intact.
        sim = Simulator()
        order = []
        handles = []

        def storm_and_cancel():
            for _ in range(_COMPACT_MIN_DEAD * 3):
                handles.append(sim.schedule(500, lambda: order.append("x")))
            for handle in handles:
                handle.cancel()

        sim.schedule(1, storm_and_cancel)
        sim.schedule(2, lambda: order.append("a"))
        sim.schedule(3, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b"]
        assert sim.stats.compacted > 0

    def test_peek_does_not_skew_high_water(self):
        sim = Simulator()
        for _ in range(3):
            sim.schedule(5, lambda: None).cancel()
        sim.schedule(9, lambda: None)
        high_water = sim.stats.calendar_high_water
        assert sim.peek() == 9
        assert sim.stats.calendar_high_water == high_water
        assert sim.pending == 1


class TestSingleLoop:
    """There is one dispatch loop; ``backend`` only names it."""

    def test_backend_is_py(self):
        assert Simulator().backend == "py"

    def test_backend_argument_is_a_type_error(self):
        with pytest.raises(TypeError):
            Simulator(backend="c")

    def test_backend_environment_variable_changes_nothing(self, monkeypatch):
        def drive():
            sim = Simulator()
            order = []
            sim.post(20, lambda: order.append("late"))
            sim.post(10, lambda: order.append("early"))
            handle = sim.schedule(15, lambda: order.append("cancelled"))
            sim.schedule(15, lambda: order.append("kept"))
            handle.cancel()
            sim.run()
            return sim.backend, order, sim.stats.as_dict()

        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        reference = drive()
        monkeypatch.setenv("REPRO_BACKEND", "c")
        assert drive() == reference
        assert reference[:2] == ("py", ["early", "kept", "late"])
