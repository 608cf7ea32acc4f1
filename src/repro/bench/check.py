"""The bench trajectory checker behind ``repro bench check``.

Loads the committed baselines (``BENCH_kernel.json`` / ``BENCH_obs.json``
/ ``BENCH_sched.json``), re-measures the corresponding workloads fresh,
and compares with noise-aware thresholds:

* **kernel** -- each gated workload's throughput must stay within
  ``tolerance`` (default 25%) of the baseline.  Smoke runs compare
  against the baseline's ``smoke_reference`` section (same workload
  sizes); per-event cost is scale-dependent, so comparing a smoke run
  against full-scale numbers would always "regress".
* **obs** -- the metrics-mode overhead ratio must not grow more than
  ``tolerance`` (default 5 points) beyond the recorded
  ``metrics_overhead``; the occupancy-probe (headroom) overhead relative
  to metrics mode is gated separately at the recorded
  ``headroom_overhead`` plus ``HEADROOM_TOLERANCE`` (2 points) -- the
  probes are meant to be cheap enough to leave always-on.
* **sched** -- each gated scheduling-backend workload's throughput must
  stay within ``tolerance`` (default 25%) of the baseline, and the
  deterministic greedy-vs-exact ``gap`` section must match the baseline
  exactly (the backends are seeded and wall-clock-free, so any drift
  there is a behaviour change, not noise).
* **shard** -- the 1-shard and 4-shard critical-path throughputs of the
  partitioned-ring workload must stay within ``tolerance`` (default 25%)
  of the baseline (smoke compares against ``smoke_reference``, the same
  sizes), and full-scale checks additionally require the re-measured
  4-shard critical-path speedup to clear ``SHARD_SPEEDUP_FLOOR`` (2x) --
  the acceptance claim of the sharded-simulation work.  Critical-path
  rates, not wall-clock: on a box with fewer cores than shards the wall
  clock serializes shard compute and would gate the machine, not the
  partition (see :mod:`repro.bench.shard`).

Shared-runner noise protection in both suites: a measurement that looks
regressed is re-taken a few more times and judged on the best sample seen
-- a real regression cannot luck its way back above the bar, a descheduled
burst usually can.

Exit codes: 0 = within thresholds, 1 = regression, 2 = baseline missing or
unreadable.  This replaces the ad-hoc inline gate CI used to duplicate.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Optional, Union

from . import kernel as bench_kernel
from . import obs as bench_obs
from . import sched as bench_sched
from . import shard as bench_shard

__all__ = [
    "KERNEL_TOLERANCE",
    "OBS_TOLERANCE",
    "HEADROOM_TOLERANCE",
    "SCHED_TOLERANCE",
    "SHARD_TOLERANCE",
    "SHARD_SPEEDUP_FLOOR",
    "check_kernel",
    "check_obs",
    "check_sched",
    "check_shard",
    "run_check",
]

#: Allowed fractional throughput regression for the kernel workloads.
KERNEL_TOLERANCE = 0.25

#: Allowed growth (absolute, in overhead fraction) of the metrics-mode
#: observability overhead, e.g. 0.05 = five percentage points.
OBS_TOLERANCE = 0.05

#: Allowed growth of the occupancy-probe (headroom-vs-metrics) overhead.
#: Tighter than OBS_TOLERANCE: the probes' acceptance bar is "cheap
#: enough to leave on", so drift is capped at two points.
HEADROOM_TOLERANCE = 0.02

#: Allowed fractional throughput regression for the scheduling backends.
SCHED_TOLERANCE = 0.25

#: Allowed fractional critical-path throughput regression for the
#: sharded-simulation curve points.
SHARD_TOLERANCE = 0.25

#: Minimum re-measured 4-shard critical-path speedup at full scale --
#: the sharded-simulation acceptance bar.  Not applied to smoke runs:
#: the smoke fabric is deliberately small enough that coordination
#: overhead can eat the parallelism.
SHARD_SPEEDUP_FLOOR = 2.0

#: Remeasure attempts before a regressed-looking sample is believed.
NOISE_RETRIES = 4


def _load_baseline(path: Union[str, Path], suite: str) -> Optional[dict]:
    path = Path(path)
    if not path.exists():
        print(f"# bench check [{suite}]: no baseline at {path}",
              file=sys.stderr)
        return None
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"# bench check [{suite}]: unreadable baseline {path}: {exc}",
              file=sys.stderr)
        return None


def check_kernel(
    baseline_path: Union[str, Path],
    smoke: bool = False,
    tolerance: Optional[float] = None,
    repeats: int = 3,
) -> int:
    """Gate the kernel workload trio against ``BENCH_kernel.json``."""
    tolerance = KERNEL_TOLERANCE if tolerance is None else tolerance
    baseline = _load_baseline(baseline_path, "kernel")
    if baseline is None:
        return 2
    section = "smoke_reference" if smoke else "after"
    reference = baseline.get(section, {})
    if not reference:
        print(f"# bench check [kernel]: baseline has no {section!r} "
              f"section", file=sys.stderr)
        return 2
    fns = bench_kernel.samplers(smoke)
    workloads = bench_kernel.measure_gated(smoke, repeats)
    failures = []
    for name, key in bench_kernel.GATED:
        ref = reference.get(name, {}).get(key)
        if ref is None:
            continue
        got = workloads[name][key]
        retries = 0
        while got / ref < 1.0 - tolerance and retries < NOISE_RETRIES:
            got = max(got, fns[name][0]()[key])
            retries += 1
        ratio = got / ref
        status = "ok" if ratio >= 1.0 - tolerance else "REGRESSED"
        print(f"# check {name}.{key}: {got:,.0f} vs baseline {ref:,.0f} "
              f"({(ratio - 1) * 100:+.1f}%, {retries} remeasure(s)) {status}",
              file=sys.stderr)
        if ratio < 1.0 - tolerance:
            failures.append(name)
    if failures:
        print(f"# throughput regression >{tolerance:.0%} in: "
              f"{', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


def check_obs(
    baseline_path: Union[str, Path],
    smoke: bool = False,
    tolerance: Optional[float] = None,
) -> int:
    """Gate the metrics-mode overhead against ``BENCH_obs.json``."""
    # An explicit --tolerance override applies to both gates; the defaults
    # differ (the probe gate is tighter).
    headroom_tolerance = (
        HEADROOM_TOLERANCE if tolerance is None else tolerance
    )
    tolerance = OBS_TOLERANCE if tolerance is None else tolerance
    baseline = _load_baseline(baseline_path, "obs")
    if baseline is None:
        return 2
    # Overhead is scale-dependent (fixed per-run costs dominate a tiny
    # smoke run), so smoke checks compare against the baseline's
    # smoke-scale section -- same convention as the kernel gate.
    section = baseline.get("smoke_reference", {}) if smoke else baseline
    recorded = section.get("metrics_overhead")
    if recorded is None:
        where = "'smoke_reference.metrics_overhead'" if smoke \
            else "'metrics_overhead'"
        print(f"# bench check [obs]: baseline has no {where}",
              file=sys.stderr)
        return 2
    recorded_headroom = section.get("headroom_overhead")
    if recorded_headroom is None:
        print("# bench check [obs]: baseline has no 'headroom_overhead'; "
              "probe gate skipped (regenerate with "
              "benchmarks/bench_obs_overhead.py)", file=sys.stderr)
    ts_count = 8 if smoke else 128
    duration_ns = 5_000_000 if smoke else 40_000_000
    repeats = 1 if smoke else 3

    def sample() -> dict:
        """Both gated overheads from one measurement pass."""
        modes = bench_obs.measure(ts_count, duration_ns, repeats)
        return {
            "metrics": modes["metrics"]["vs_off"] - 1.0,
            "headroom": modes["headroom"]["vs_metrics"] - 1.0,
        }

    gates = [("metrics_overhead", "metrics", recorded, tolerance)]
    if recorded_headroom is not None:
        gates.append(
            ("headroom_overhead", "headroom", recorded_headroom,
             headroom_tolerance)
        )
    # Overhead can only look *worse* through noise (a descheduled
    # instrumented run), so judge each gate on the best (lowest) overhead
    # seen; a retry re-samples both gates from one measurement pass.
    best = sample()
    retries = 0
    while retries < NOISE_RETRIES and any(
        best[key] > ref + tol for _, key, ref, tol in gates
    ):
        fresh = sample()
        best = {key: min(best[key], fresh[key]) for key in best}
        retries += 1
    failed = []
    for name, key, ref, tol in gates:
        bar = ref + tol
        overhead = best[key]
        status = "ok" if overhead <= bar else "REGRESSED"
        print(f"# check {name}: {overhead * 100:+.2f}% vs recorded "
              f"{ref * 100:+.2f}% (bar {bar * 100:+.2f}%, "
              f"{retries} remeasure(s)) {status}", file=sys.stderr)
        if overhead > bar:
            failed.append((name, tol))
    if failed:
        for name, tol in failed:
            print(f"# {name} grew more than {tol * 100:.0f} points past "
                  f"the baseline", file=sys.stderr)
        return 1
    return 0


def check_sched(
    baseline_path: Union[str, Path],
    smoke: bool = False,
    tolerance: Optional[float] = None,
    repeats: int = 3,
) -> int:
    """Gate the scheduling backends against ``BENCH_sched.json``.

    Two kinds of gate: the throughput trio is noise-tolerant (same
    remeasure-on-regression protocol as the kernel suite), while the
    ``gap`` section is compared for exact equality -- the backends are
    deterministic, so any drift there is a behaviour change, not noise.
    """
    tolerance = SCHED_TOLERANCE if tolerance is None else tolerance
    baseline = _load_baseline(baseline_path, "sched")
    if baseline is None:
        return 2
    section = "smoke_reference" if smoke else "workloads"
    reference = baseline.get(section, {})
    if not reference:
        print(f"# bench check [sched]: baseline has no {section!r} "
              f"section", file=sys.stderr)
        return 2
    fns = bench_sched.samplers(smoke)
    workloads = bench_sched.measure_gated(smoke, repeats)
    failures = []
    for name, key in bench_sched.GATED:
        ref = reference.get(name, {}).get(key)
        if ref is None:
            continue
        got = workloads[name][key]
        retries = 0
        while got / ref < 1.0 - tolerance and retries < NOISE_RETRIES:
            got = max(got, fns[name][0]()[key])
            retries += 1
        ratio = got / ref
        status = "ok" if ratio >= 1.0 - tolerance else "REGRESSED"
        print(f"# check {name}.{key}: {got:,.0f} vs baseline {ref:,.0f} "
              f"({(ratio - 1) * 100:+.1f}%, {retries} remeasure(s)) {status}",
              file=sys.stderr)
        if ratio < 1.0 - tolerance:
            failures.append(name)
    recorded_gap = baseline.get("gap")
    if recorded_gap is None:
        print("# bench check [sched]: baseline has no 'gap' section; "
              "equality gate skipped (regenerate with "
              "benchmarks/bench_sched.py)", file=sys.stderr)
    else:
        measured_gap = bench_sched.gap()
        status = "ok" if measured_gap == recorded_gap else "CHANGED"
        print(f"# check gap: greedy depth {measured_gap['greedy_depth']} / "
              f"exact depth {measured_gap['exact_depth']} "
              f"({measured_gap['exact_status']}, "
              f"{measured_gap['exact_nodes']} nodes) {status}",
              file=sys.stderr)
        if measured_gap != recorded_gap:
            print(f"# gap section drifted from baseline {recorded_gap}; "
                  f"a scheduling backend changed behaviour",
                  file=sys.stderr)
            failures.append("gap")
    if failures:
        print(f"# sched regression in: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    return 0


def check_shard(
    baseline_path: Union[str, Path],
    smoke: bool = False,
    tolerance: Optional[float] = None,
    repeats: int = 3,
) -> int:
    """Gate the sharded-simulation curve against ``BENCH_shard.json``.

    Two gates: the 1- and 4-shard critical-path throughputs must stay
    within ``tolerance`` of the baseline (noise-tolerant, same
    remeasure-on-regression protocol as the kernel suite), and at full
    scale the re-measured 4-shard critical-path speedup must clear
    :data:`SHARD_SPEEDUP_FLOOR`.
    """
    tolerance = SHARD_TOLERANCE if tolerance is None else tolerance
    baseline = _load_baseline(baseline_path, "shard")
    if baseline is None:
        return 2
    section = "smoke_reference" if smoke else "after"
    reference = baseline.get(section, {})
    if not reference:
        print(f"# bench check [shard]: baseline has no {section!r} "
              f"section", file=sys.stderr)
        return 2
    fns = bench_shard.samplers(smoke)
    best = bench_shard.measure_gated(smoke, repeats)
    failures = []
    for name, key in bench_shard.GATED:
        ref = reference.get(name, {}).get(key)
        if ref is None:
            continue
        retries = 0
        while best[name][key] / ref < 1.0 - tolerance \
                and retries < NOISE_RETRIES:
            fresh = fns[name][0]()
            if fresh[key] > best[name][key]:
                best[name] = fresh
            retries += 1
        ratio = best[name][key] / ref
        status = "ok" if ratio >= 1.0 - tolerance else "REGRESSED"
        print(f"# check {name}.{key}: {best[name][key]:,.0f} vs baseline "
              f"{ref:,.0f} ({(ratio - 1) * 100:+.1f}%, "
              f"{retries} remeasure(s)) {status}", file=sys.stderr)
        if ratio < 1.0 - tolerance:
            failures.append(name)
    if not smoke and "shards_1" in best and "shards_4" in best:
        # The acceptance claim, recomputed from the best samples above
        # (the throughput retries already absorbed scheduler noise).
        speedup = (best["shards_1"]["critical_path_s"]
                   / best["shards_4"]["critical_path_s"])
        status = "ok" if speedup >= SHARD_SPEEDUP_FLOOR else "REGRESSED"
        print(f"# check shard speedup: {speedup:.2f}x critical-path at "
              f"4 shards (floor {SHARD_SPEEDUP_FLOOR:.1f}x) {status}",
              file=sys.stderr)
        if speedup < SHARD_SPEEDUP_FLOOR:
            failures.append("speedup")
    if failures:
        print(f"# shard regression in: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    return 0


def run_check(
    suite: str = "all",
    smoke: bool = False,
    kernel_baseline: Union[str, Path] = "BENCH_kernel.json",
    obs_baseline: Union[str, Path] = "BENCH_obs.json",
    sched_baseline: Union[str, Path] = "BENCH_sched.json",
    shard_baseline: Union[str, Path] = "BENCH_shard.json",
    tolerance: Optional[float] = None,
) -> int:
    """Run the selected suite(s); worst exit status wins."""
    statuses = []
    if suite in ("kernel", "all"):
        statuses.append(
            check_kernel(kernel_baseline, smoke=smoke, tolerance=tolerance)
        )
    if suite in ("obs", "all"):
        statuses.append(
            check_obs(obs_baseline, smoke=smoke, tolerance=tolerance)
        )
    if suite in ("sched", "all"):
        statuses.append(
            check_sched(sched_baseline, smoke=smoke, tolerance=tolerance)
        )
    if suite in ("shard", "all"):
        statuses.append(
            check_shard(shard_baseline, smoke=smoke, tolerance=tolerance)
        )
    return max(statuses) if statuses else 2
