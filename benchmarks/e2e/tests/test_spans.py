"""Span bookkeeping: self-time arithmetic, causes, and clean removal."""

import e2e_spans as spans


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_direct_children():
    clock = FakeClock()
    log = spans.SpanLog(clock=clock)

    def advance(ns):
        clock.now += ns

    # root(100) = 10 + child_a(50 = 5 + grandchild(40) + 5) + 10 + child_b(20) + 10
    with log.span("root"):
        advance(10)
        with log.span("child_a"):
            advance(5)
            with log.span("grandchild"):
                advance(40)
            advance(5)
        advance(10)
        with log.span("child_b"):
            advance(20)
        advance(10)

    table = log.by_name()
    assert table["root"] == {"count": 1, "total_ns": 100, "self_ns": 30}
    assert table["child_a"] == {"count": 1, "total_ns": 50, "self_ns": 10}
    assert table["grandchild"] == {"count": 1, "total_ns": 40, "self_ns": 40}
    assert table["child_b"] == {"count": 1, "total_ns": 20, "self_ns": 20}
    # Self times partition the root: nothing is counted twice or lost.
    assert sum(row["self_ns"] for row in table.values()) == 100
    assert list(log.parent) == [-1, 0, 1, 0]


def test_span_cost_is_taken_out_of_the_span_and_its_parent():
    clock = FakeClock()
    log = spans.SpanLog(clock=clock)
    with log.span("root"):
        for _ in range(2):
            with log.span("child"):
                clock.now += 20
        clock.now += 60
    # root: 100 - inside 1 - 2 x (child 20 + outside 2); child: 20 - 1
    table = log.by_name(cost=(1, 2))
    assert table["root"]["self_ns"] == 55
    assert table["child"]["self_ns"] == 2 * 19
    assert table["root"]["total_ns"] == 100  # durations stay as measured
    # never below zero, however large the estimate
    assert log.by_name(cost=(500, 500))["child"]["self_ns"] == 0
    inside, outside = spans.span_cost(samples=2000)
    assert inside > 0 and outside > 0


def test_posted_action_keeps_its_cause_apart_from_its_parent():
    clock = FakeClock()
    log = spans.SpanLog(clock=clock)
    fired = []
    with log.span("poster"):
        action = log.action("generator.tick", lambda: fired.append(1), 0)
    with log.span("kernel.run"):
        action()
    names = [log.names[i] for i in log.name]
    tick = names.index("generator.tick")
    assert fired == [1]
    assert log.parent[tick] == names.index("kernel.run")
    assert log.cause[tick] == names.index("poster")


def test_wrap_closes_the_span_when_the_call_raises():
    log = spans.SpanLog(clock=FakeClock())

    def boom():
        raise ValueError("x")

    traced = log.wrap("layer.call", boom)
    try:
        traced()
    except ValueError:
        pass
    assert log.stack == [-1]
    assert traced.__name__ == "boom"  # actions are named by their module


def test_install_wraps_before_construction_and_undo_restores():
    from repro.network.host import Host
    from repro.sim.kernel import Simulator
    from repro.switch.port import EgressPort

    originals = (Simulator.post, Host.inject, EgressPort.kick)
    log = spans.SpanLog()
    patches = spans.install(log)
    try:
        assert Simulator.post is not originals[0]
        sim = Simulator()
        sim.post(5, lambda: None)
        with log.span("op"):
            sim.run()
    finally:
        patches.undo()
    assert (Simulator.post, Host.inject, EgressPort.kick) == originals
    names = {log.names[i] for i in log.name}
    # the lambda above is defined in this module: no known layer
    assert {"kernel.post", "kernel.run", "other.event"} <= names
