"""Kernel-bound benchmark workloads (the ``BENCH_kernel.json`` trio).

Moved here from ``benchmarks/bench_kernel.py`` so ``repro bench check``
can re-measure and gate them without shelling out; the script remains the
measurement CLI and delegates to these functions.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Tuple

from repro.sim.kernel import Simulator

__all__ = [
    "BEFORE",
    "GATED",
    "bench_chained",
    "bench_cancel_heavy",
    "bench_star_scenario",
    "samplers",
    "measure",
    "measure_gated",
]

#: Pre-overhaul numbers (dataclass-event kernel, per-flip gate engine,
#: per-frame ``EthernetFrame`` objects on the dataplane), captured at the
#: seed commit on the same machine that produced the committed
#: BENCH_kernel.json -- the "before" half of the before/after comparison.
#: ``frames_per_s`` is derived: the star workload is deterministic, so the
#: delivered-frame count is the same before and after and the pre-overhaul
#: rate is that count over the recorded wall clock.
#: Refresh together with the baseline (see docs/performance.md).
BEFORE = {
    "chained": {"events_per_s": 676_385.3},
    "cancel_heavy": {"scheduled_per_s": 552_809.9},
    "star_scenario": {"wall_s": 1.1771, "frames_per_s": 1_264.1},
}

#: Workloads whose throughput the regression gate watches.  The star row
#: gates end-to-end frames/sec -- the fast-path acceptance metric -- not
#: events/sec, so a change that fires fewer events per frame cannot game it.
GATED: Tuple[Tuple[str, str], ...] = (
    ("chained", "events_per_s"),
    ("chained_post", "events_per_s"),
    ("cancel_heavy", "scheduled_per_s"),
    ("star_scenario", "frames_per_s"),
)


def bench_chained(n: int, use_post: bool) -> Dict[str, Any]:
    """Self-rescheduling event chain: pure calendar push/pop throughput."""
    sim = Simulator()
    remaining = [n]
    if use_post:
        def tick():
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.post(10, tick)
        sim.post(10, tick)
    else:
        def tick():
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule(10, tick)
        sim.schedule(10, tick)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return {
        "events": sim.events_executed,
        "events_per_s": sim.events_executed / elapsed,
    }


def bench_cancel_heavy(n: int) -> Dict[str, Any]:
    """Schedule 4, cancel 3 per event: the cancellation-storm profile."""
    sim = Simulator()
    remaining = [n]

    def tick():
        remaining[0] -= 1
        handles = [sim.schedule(10 + i, lambda: None) for i in range(3)]
        for handle in handles:
            handle.cancel()
        if remaining[0] > 0:
            sim.schedule(10, tick)

    sim.schedule(10, tick)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return {
        "scheduled": sim.stats.scheduled,
        "scheduled_per_s": sim.stats.scheduled / elapsed,
        "compacted": sim.stats.compacted,
    }


def bench_star_scenario(ts_count: int, duration_ms: float) -> Dict[str, Any]:
    """End-to-end ScenarioSpec.run() on a star network."""
    from repro.network.scenario import ScenarioSpec

    spec = ScenarioSpec.from_dict({
        "name": "star-bench",
        "topology": {
            "kind": "star",
            "talkers": ["talker0", "talker1"],
            "listener": "listener",
        },
        "flows": {
            "ts_count": ts_count,
            "period_us": 10_000,
            "size_bytes": 64,
            "rc_mbps": 100,
            "be_mbps": 100,
        },
        "duration_ms": duration_ms,
    })
    start = time.perf_counter()
    result = spec.run()
    elapsed = time.perf_counter() - start
    frames = result.analyzer.received()
    return {
        "wall_s": elapsed,
        "events_per_s": result.sim_stats["fired"] / elapsed,
        "frames": frames,
        "frames_per_s": frames / elapsed,
        "sim_stats": result.sim_stats,
    }


def samplers(smoke: bool) -> Dict[str, Tuple[Callable[[], dict], str]]:
    """name -> (callable, throughput key) at the given scale."""
    chained_n = 30_000 if smoke else 200_000
    cancel_n = 8_000 if smoke else 50_000
    star_flows = 32 if smoke else 128
    star_ms = 5 if smoke else 40
    return {
        "chained": (
            lambda: bench_chained(chained_n, use_post=False), "events_per_s"
        ),
        "chained_post": (
            lambda: bench_chained(chained_n, use_post=True), "events_per_s"
        ),
        "cancel_heavy": (
            lambda: bench_cancel_heavy(cancel_n), "scheduled_per_s"
        ),
        "star_scenario": (
            lambda: bench_star_scenario(star_flows, star_ms), "frames_per_s"
        ),
    }


def _best(fns: Dict[str, Tuple[Callable[[], dict], str]],
          name: str, repeats: int) -> dict:
    fn, key = fns[name]
    fn()  # warm-up: first run pays allocator/cache/branch warmup
    samples = [fn() for _ in range(repeats)]
    return max(samples, key=lambda s: s[key])


def measure_gated(smoke: bool, repeats: int = 3) -> Dict[str, dict]:
    """Measure only the gated workloads (the regression-check set)."""
    fns = samplers(smoke)
    return {name: _best(fns, name, repeats) for name, _ in GATED}


def measure(smoke: bool, repeats: int = 3) -> Dict[str, dict]:
    """Measure the full workload set.

    Since the star scenario joined the gated set (its ``frames_per_s``
    is the fast-path acceptance metric) this is the gated set.
    """
    return measure_gated(smoke, repeats)
