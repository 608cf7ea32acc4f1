#!/usr/bin/env python3
"""Microbenchmarks of the simulation substrate itself.

Not a paper artifact -- these keep the event kernel, BRAM allocator and ITP
planner honest performance-wise, since every experiment above is built on
them.

The measurement core lives in :mod:`repro.bench.kernel` (so ``repro bench
check`` can gate it without shelling out); this script is the human-facing
CLI plus the pytest-benchmark tests.

Two harnesses share this file:

* pytest-benchmark tests (``make bench``) -- multi-round statistical timing
  of the kernel/BRAM/ITP micro-workloads.
* a standalone CLI (``make bench-kernel``) that measures the kernel-bound
  workload trio the hot-path overhaul targets and writes
  ``BENCH_kernel.json``:

  - ``chained``       -- 200k self-rescheduling events via ``schedule()``
    (the legacy handle-allocating path, directly comparable with the
    pre-overhaul kernel).
  - ``chained_post``  -- the same chain via ``post()``, the fire-and-forget
    fast path hot dataplane code uses.
  - ``cancel_heavy``  -- a cancellation storm (schedule 4, cancel 3 per
    event): lazy deletion + threshold compaction under stress.
  - ``star_scenario`` -- a full ``ScenarioSpec.run()`` on a 128-flow star
    network: end-to-end wall clock, gates elided in table mode.

Usage::

    python benchmarks/bench_kernel.py                      # full measurement
    python benchmarks/bench_kernel.py --smoke              # CI: small + fast
    python benchmarks/bench_kernel.py --output BENCH_kernel.json
    python benchmarks/bench_kernel.py --smoke --check BENCH_kernel.json

``--check`` compares the measured throughputs against the committed
baseline and exits 1 on a >25% regression (tunable with ``--tolerance``);
CI runs the same gate as ``repro bench check --suite kernel --smoke``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.kernel import (                           # noqa: E402
    BEFORE,
    bench_cancel_heavy,
    bench_chained,
    measure,
)
from repro.core import bram                                # noqa: E402
from repro.core.units import ms                            # noqa: E402
from repro.cqf.schedule import CqfSchedule                 # noqa: E402
from repro.sched import SchedulingProblem, make_scheduler  # noqa: E402
from repro.traffic.iec60802 import production_cell_flows   # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small parameters for CI (seconds, not minutes)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="samples per workload (default: 3)")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the before/after JSON here")
    parser.add_argument("--check", type=Path, default=None, metavar="BASELINE",
                        help="compare against a committed BENCH_kernel.json "
                             "and fail on throughput regression")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional regression for --check "
                             "(default 0.25)")
    args = parser.parse_args(argv)

    repeats = args.repeats if args.repeats is not None else 3
    print(f"# kernel benchmarks ({'smoke' if args.smoke else 'full'}, "
          f"{repeats} repeat(s))", file=sys.stderr)
    workloads = measure(args.smoke, repeats)

    print(f" chained (schedule): {workloads['chained']['events_per_s']:>12,.0f} events/s")
    print(f" chained (post):     {workloads['chained_post']['events_per_s']:>12,.0f} events/s")
    print(f" cancel-heavy:       {workloads['cancel_heavy']['scheduled_per_s']:>12,.0f} scheduled/s")
    star = workloads["star_scenario"]
    print(f" star scenario:      {star['wall_s'] * 1000:>12,.1f} ms wall "
          f"({star['frames_per_s']:,.0f} frames/s, "
          f"{star['events_per_s']:,.0f} events/s)")

    payload = {
        "benchmark": "bench_kernel",
        "params": {"smoke": args.smoke, "repeats": repeats},
        "before": BEFORE,
        "after": workloads,
    }
    if not args.smoke:
        # Smoke-scale reference numbers for the CI regression gate: the
        # same sizes `--smoke --check` measures, captured on this machine.
        payload["smoke_reference"] = measure(smoke=True, repeats=repeats)
        payload["speedup"] = {
            "chained_events_per_s":
                workloads["chained"]["events_per_s"]
                / BEFORE["chained"]["events_per_s"],
            "chained_post_events_per_s":
                workloads["chained_post"]["events_per_s"]
                / BEFORE["chained"]["events_per_s"],
            "cancel_heavy_scheduled_per_s":
                workloads["cancel_heavy"]["scheduled_per_s"]
                / BEFORE["cancel_heavy"]["scheduled_per_s"],
            "star_wall_clock":
                BEFORE["star_scenario"]["wall_s"]
                / workloads["star_scenario"]["wall_s"],
            "star_frames_per_s":
                workloads["star_scenario"]["frames_per_s"]
                / BEFORE["star_scenario"]["frames_per_s"],
        }
        for name, ratio in payload["speedup"].items():
            print(f" speedup {name}: {ratio:.2f}x")
    if args.output:
        args.output.write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"# wrote {args.output}", file=sys.stderr)
    if args.check:
        from repro.bench.check import check_kernel

        return check_kernel(args.check, smoke=args.smoke,
                            tolerance=args.tolerance, repeats=repeats)
    return 0


# ------------------------------------------------------ pytest-benchmark


def test_kernel_event_throughput(benchmark):
    """Schedule-and-run 10k chained events."""

    def run():
        return bench_chained(10_000, use_post=False)["events"]

    assert benchmark(run) == 10_000


def test_kernel_post_throughput(benchmark):
    """Post-and-run 10k chained events (the no-handle fast path)."""

    def run():
        return bench_chained(10_000, use_post=True)["events"]

    assert benchmark(run) == 10_000


def test_kernel_cancellation_storm(benchmark):
    """Lazy deletion + compaction under a 3:4 cancel ratio."""

    def run():
        return bench_cancel_heavy(5_000)["scheduled"]

    assert benchmark(run) == 20_000


def test_bram_allocation_throughput(benchmark):
    """Full aspect-ratio search across a realistic shape population."""
    shapes = [(w, d) for w in (17, 32, 68, 72, 117) for d in
              (2, 12, 16, 512, 1024, 16384)]

    def run():
        return sum(bram.allocate(w, d).bits for w, d in shapes)

    assert benchmark(run) > 0


def test_itp_planner_throughput(benchmark):
    """Planning the paper's full 1024-flow set."""
    flows = list(
        production_cell_flows(["t0", "t1", "t2"], "l", flow_count=1024)
    )
    schedule = CqfSchedule(62_500, ms(10))
    scheduler = make_scheduler("greedy")

    def run():
        problem = SchedulingProblem.from_flows(flows, schedule, 10**9)
        return scheduler.solve(problem).max_frames_per_slot

    assert benchmark(run) == 7


if __name__ == "__main__":
    sys.exit(main())
