"""The window-table queries against a per-entry walk of the GCL.

Every gate query is a lookup in the table built at ``start()``; narrating
the boundaries to a gate tracer adds events and changes no answer.  Random
GCL pairs, drifting clocks and mid-run rate changes must therefore read the
same from a narrated and a bare engine -- and, wherever the rate never
changed, the same as the entry walk the per-flip engine used to do on its
own, which is kept here as the oracle.

The arbiter's fused query ``out_wait(q, n)`` must answer what the two
queries it replaced did: start now if the frame fits the remaining window
(``time_until_out_close``), else wait for ``next_out_open_window``.
"""

from hypothesis import given, settings, strategies as st

from repro.network.scenario import ScenarioSpec
from repro.sim.clock import LocalClock
from repro.sim.kernel import Simulator
from repro.sim.trace import NULL_TRACER, Tracer
from repro.switch.gates import CqfPair, GateEngine
from repro.switch.tables import GateControlList, GateEntry
from tests.test_golden_outputs import SCENARIOS

QUEUES = range(8)


# ------------------------------------------------------------- the oracle

def _walk(entries, clock, now):
    """``(mask, [time_until_close(q) for q in QUEUES])`` by walking entries.

    The arithmetic ``GateEngine.time_until_out_close`` performed per call
    under flip events before it read the window table: find the active
    entry, take what is left of it, add the following entries while the
    gate stays open.  Exact for a GCL started at 0 on a clock whose rate
    never changed; at a boundary instant the new entry is the active one
    (gate events fire before a same-time probe).
    """
    lengths = [clock.sim_delay_for_local(e.interval_ns) for e in entries]
    n = len(entries)
    index, entry_start = 0, now - now % sum(lengths)
    while now - entry_start >= lengths[index]:
        entry_start += lengths[index]
        index += 1
    mask = entries[index].gate_states

    def until_close(queue_id):
        if not mask >> queue_id & 1:
            return 0
        if n == 1:
            return None
        total = max(0, lengths[index] - (now - entry_start))
        i = index
        for _ in range(n - 1):
            i = (i + 1) % n
            if not entries[i].is_open(queue_id):
                return total
            total += lengths[i]
        return None

    return mask, [until_close(q) for q in QUEUES]


# ------------------------------------------------------------- strategies

_interval = st.one_of(
    st.integers(1, 20),  # down at the 1 ns floor, where rounding shows
    st.integers(100, 50_000),
)
_mask = st.integers(0, 255)


@st.composite
def _free_gcls(draw):
    """Two unrelated lists, 1-40 entries each."""
    entry = st.builds(GateEntry, _mask, _interval)
    return (
        draw(st.lists(entry, min_size=1, max_size=40)),
        draw(st.lists(entry, min_size=1, max_size=40)),
        (),
    )


@st.composite
def _cqf_gcls(draw):
    """The two-entry alternating pair ``repro.cqf.gating`` emits."""
    slot = draw(_interval)
    base = draw(st.integers(0, 0x3F))
    return (
        [GateEntry(base | 0x40, slot), GateEntry(base | 0x80, slot)],
        [GateEntry(base | 0x80, slot), GateEntry(base | 0x40, slot)],
        (CqfPair(6, 7),),
    )


@st.composite
def _qbv_gcls(draw):
    """Per-slot protected windows: one TS queue open alone, or the rest."""
    slots = draw(st.integers(2, 40))
    slot = draw(_interval)
    out = [
        GateEntry(draw(st.sampled_from([0x80, 0x40, 0x3F, 0x7F])), slot)
        for _ in range(slots)
    ]
    return [GateEntry(0xFF, slot * slots)], out, ()


@st.composite
def _cases(draw):
    in_entries, out_entries, pairs = draw(
        st.one_of(_free_gcls(), _cqf_gcls(), _qbv_gcls())
    )
    cycle = max(
        sum(e.interval_ns for e in in_entries),
        sum(e.interval_ns for e in out_entries),
    )
    horizon = 3 * cycle + 10
    drift = draw(st.floats(-500, 500))
    rate_changes = draw(st.lists(
        st.tuples(
            st.integers(0, horizon),
            st.sampled_from(["adjust_rate", "set_drift_ppm"]),
            st.floats(-50_000, 50_000),
        ),
        max_size=3,
    ))
    # A probe is a free instant, or the k-th gate boundary nudged by -1/0/+1.
    probes = draw(st.lists(
        st.one_of(
            st.tuples(st.just("at"), st.integers(0, horizon), st.just(0)),
            st.tuples(
                st.just("boundary"), st.integers(0, 10_000),
                st.sampled_from([-1, 0, 0, 1]),
            ),
        ),
        min_size=1, max_size=12,
    ))
    # Frame lengths to put to the fused query, besides 1 ns, the open
    # window itself, one more, and one no window ever fits.
    sizes = draw(st.lists(st.integers(1, 200_000), min_size=1, max_size=4))
    return (
        in_entries, out_entries, pairs, drift, rate_changes, probes,
        horizon, sizes,
    )


def _started(narrated, in_entries, out_entries, pairs, drift, rate_changes):
    sim = Simulator()
    clock = LocalClock(sim, drift_ppm=drift)
    in_gcl = GateControlList(len(in_entries))
    out_gcl = GateControlList(len(out_entries))
    in_gcl.program(in_entries)
    out_gcl.program(out_entries)
    tracer = Tracer(enabled={"gate"}) if narrated else NULL_TRACER
    engine = GateEngine(
        sim, in_gcl, out_gcl, clock=clock, cqf_pairs=pairs, tracer=tracer
    )
    engine.start()
    for when, method, ppm in rate_changes:
        sim.post_at(when, lambda m=method, p=ppm: getattr(clock, m)(p))
    return sim, clock, engine


def _fused(until_close, engine, queue_id, needed):
    """``out_wait``'s answer from the two separate queries, with the
    remaining window *until_close* read elsewhere (the walk, or the
    engine)."""
    if until_close is None or needed <= until_close:
        return 0
    return engine.next_out_open_window(queue_id, needed)


def _readings(engine):
    return {
        "in_open": [engine.in_open(q) for q in QUEUES],
        "out_open": [engine.out_open(q) for q in QUEUES],
        "until_close": [engine.time_until_out_close(q) for q in QUEUES],
        "enqueue": [engine.select_enqueue_queue(q) for q in QUEUES],
    }


# ------------------------------------------------------------------ tests

#: No window of any drawn GCL is this long: the frame never fits.
_NEVER_FITS = 10**12


@settings(max_examples=120, deadline=None)
@given(_cases())
def test_disciplines_agree_and_match_the_entry_walk(case):
    (in_entries, out_entries, pairs, drift, rate_changes, probes, horizon,
     sizes) = case
    setup = (in_entries, out_entries, pairs, drift, rate_changes)

    # Where the boundaries fall: let an engine narrate them.
    scout_sim, _clock, scout = _started(True, *setup)
    scout_sim.run(until=horizon)
    boundaries = [record.time for record in scout._tracer.records]

    times = sorted({
        t if kind == "at"
        else min(horizon, max(0, boundaries[t % len(boundaries)] + nudge))
        if boundaries else 0
        for kind, t, nudge in probes
    } | {
        # the pre-anchor stretch a rate change leaves behind starts here
        min(horizon, when + nudge) for when, _m, _p in rate_changes
        for nudge in (0, 1)
    })
    narrated_sim, _clock, narrated = _started(True, *setup)
    bare_sim, clock, bare = _started(False, *setup)
    first_change = min((when for when, _m, _p in rate_changes), default=None)
    for now in times:
        narrated_sim.run(until=now)
        bare_sim.run(until=now)
        seen = _readings(bare)
        assert seen == _readings(narrated), f"narration shows at {now}"
        until_close = seen["until_close"]
        if first_change is None or now < first_change:
            in_mask, _ = _walk(in_entries, clock, now)
            out_mask, until_close = _walk(out_entries, clock, now)
            assert seen["in_open"] == [bool(in_mask >> q & 1) for q in QUEUES]
            assert seen["out_open"] == [
                bool(out_mask >> q & 1) for q in QUEUES
            ]
            assert seen["until_close"] == until_close, f"walk differs at {now}"
        for q in QUEUES:
            window = until_close[q]
            for n in sizes + [1, _NEVER_FITS] + (
                [window, window + 1] if window else []
            ):
                expected = _fused(window, bare, q, n)
                assert bare.out_wait(q, n) == expected, (q, n, now)
                assert narrated.out_wait(q, n) == expected, (q, n, now)


def test_constant_rate_run_converts_no_interval_after_start(monkeypatch):
    """Window tables are built in ``start()``; after that a run on clocks
    nobody adjusts reads them and never goes back to the clock."""
    calls = {"in_start": 0, "after_start": 0}
    starting = []
    convert, start = LocalClock.sim_delay_for_local, GateEngine.start

    def counted_convert(self, local_delta_ns):
        calls["in_start" if starting else "after_start"] += 1
        return convert(self, local_delta_ns)

    def counted_start(self):
        starting.append(self)
        try:
            start(self)
        finally:
            starting.pop()

    monkeypatch.setattr(LocalClock, "sim_delay_for_local", counted_convert)
    monkeypatch.setattr(GateEngine, "start", counted_start)
    result = ScenarioSpec.from_dict(SCENARIOS["linear_qbv_cbs"]).run(
        tracer=Tracer(enabled={"gate"})
    )
    assert result.tracer.records, "no boundary was narrated"
    assert calls["in_start"] > 0, "the wrapper is not in the path"
    assert calls["after_start"] == 0



def test_fused_query_in_the_pre_anchor_stretch():
    """Slewed mid-entry, the table is re-anchored at the in-flight entry's
    committed end; until then the fused query walks the entries."""
    sim = Simulator()
    clock = LocalClock(sim)
    entries = [GateEntry(0x01, 100_000), GateEntry(0x02, 100_000)]
    gcl = GateControlList(2)
    gcl.program(entries)
    other = GateControlList(2)
    other.program(entries)
    engine = GateEngine(sim, gcl, other, clock=clock)
    engine.start()
    sim.post(50_000, lambda: clock.adjust_rate(200.0))
    sim.run(until=60_000)
    assert sim.now < engine._out_table.anchor_ns == 100_000
    # 40 000 ns of queue 0's window are left: 40 000 fit, 40 001 wait for
    # the next window (one new-rate entry after the anchor), a frame
    # longer than any window never goes.
    assert engine.out_wait(0, 40_000) == 0
    assert engine.out_wait(0, 40_001) == 40_000 + 99_980
    assert engine.out_wait(0, 100_000) is None
    assert engine.out_wait(0, _NEVER_FITS) is None
    # Queue 1 is closed until the anchor.
    assert engine.out_wait(1, 1) == 40_000
    for q, n in ((0, 40_000), (0, 40_001), (0, _NEVER_FITS), (1, 1)):
        assert engine.out_wait(q, n) == _fused(
            engine.time_until_out_close(q), engine, q, n
        )


def test_fused_query_before_start_and_for_an_always_open_gate():
    sim = Simulator()
    gcl = GateControlList(1)
    gcl.program([GateEntry(0x0F, 1000)])
    other = GateControlList(1)
    other.program([GateEntry(0x0F, 1000)])
    engine = GateEngine(sim, gcl, other)
    # Not started: every gate is open and none closes.
    assert engine.out_wait(7, _NEVER_FITS) == 0
    engine.start()
    assert engine.out_wait(0, _NEVER_FITS) == 0  # open in every entry
    assert engine.out_wait(7, 1) is None         # closed in every entry
