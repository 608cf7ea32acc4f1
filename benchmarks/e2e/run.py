#!/usr/bin/env python3
"""End-to-end benchmark of the repo: scenario/sweep documents in, reports out.

Three ways to call it (see README.md beside this file)::

    # one workload in this process -- the form the benchmark driver uses;
    # the last line of stdout is the result object
    python3 benchmarks/e2e/run.py --workload ring_deep --seed 1 \\
        --seconds 10 --trace 0

    # every workload, each in its own fresh child process, one at a time
    python3 benchmarks/e2e/run.py --seed 1 --out result.json [--traced]
    python3 benchmarks/e2e/run.py --seed 1 --smoke --traced   # <20 s

    # two result files of the form above
    python3 benchmarks/e2e/run.py compare baseline.json candidate.json

``--trace 0`` measures: one warm-up operation, then a set-up sample and
an operation in turn until ``--seconds`` have passed (at least five of
each), and reports medians.  ``--trace 1`` runs the operation once more with
spans recorded around every layer's public entry points and reports the
per-layer numbers; end-to-end numbers never come from a traced run.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import e2e_spans as spans
from e2e_compare import compare_main, quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".bench_e2e_work"

MIN_REPEATS = 5
SMOKE_REPEATS = 2


def load_spec() -> Dict[str, Any]:
    return json.loads(SPEC_PATH.read_text())


def peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children, MiB."""
    kib = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kib / 1024.0


# -------------------------------------------------------------- host speed

#: What :class:`HostProbe` reads on this runner when nothing slows it down.  Part
#: of the benchmark's definition: times are reported for a host on which
#: the probe takes exactly this long, so it must not change between commits.
REFERENCE_PROBE_S = 0.024


class HostProbe:
    """Times a fixed piece of Python work: how fast is this host right now?

    Half arithmetic in a tight loop, half heap and dictionary traffic over
    a few MB of objects: the simulator's slowdowns track the mix better
    than either half (a neighbour can take cycles, cache, or both).  Uses
    nothing of the program under test, so optimising the program cannot
    move it.
    """

    def __init__(self) -> None:
        self._table = {key: (key, key + 1) for key in range(0, 400_000, 7)}

    def __call__(self) -> float:
        started = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        heap: List[Any] = []
        push, pop, table = heapq.heappush, heapq.heappop, self._table
        for i in range(10_000):
            key = (i * 7919) % 400_000
            entry = table[key - key % 7]
            push(heap, (entry[1] ^ i, i, entry))
            if i & 3 == 3:
                total += pop(heap)[1]
                pop(heap)
                pop(heap)
        return time.perf_counter() - started


# ------------------------------------------------------------ one workload

def measure(workload, docs, work_dir: Path, seconds: float,
            smoke: bool) -> Dict[str, Any]:
    """The untraced run: every end-to-end sample of one workload.

    A set-up sample sits between every two operations, so both series
    cover the whole window.  Every timed region is flanked by two probes
    of the host's speed, and its time is scaled to the reference speed:
    this runner slows down by up to 2x for seconds to minutes at a time,
    invisibly to the guest, and unscaled medians of identical runs differ
    by up to 30 % (README, "Noise").  ``raw`` keeps the unscaled samples.
    """
    min_repeats = SMOKE_REPEATS if smoke else MIN_REPEATS

    reference = workload.run(docs, work_dir)  # warm-up; fills caches
    problems = list(reference.problems)

    samples: Dict[str, List[float]] = {
        "work_per_s": [], "wall_s": [], "setup_s": [],
    }
    raw: Dict[str, List[float]] = {name: [] for name in samples}
    host_speed = []
    repeats = 0
    attempted = failed = 0
    probe = HostProbe()
    deadline = time.perf_counter() + seconds
    before = probe()
    while repeats < min_repeats or time.perf_counter() < deadline:
        gc.collect()
        started = time.perf_counter()
        for _ in range(workload.setup_batch):
            workload.setup(docs, work_dir)
        setup_s = (time.perf_counter() - started) / workload.setup_batch
        middle = probe()
        gc.collect()
        outcome = workload.run(docs, work_dir)
        after = probe()
        repeats += 1
        slow_setup = (before + middle) / 2 / REFERENCE_PROBE_S
        slow_run = (middle + after) / 2 / REFERENCE_PROBE_S
        before = after
        host_speed.append(slow_run)
        for name, value, slowdown in (
            ("setup_s", setup_s, slow_setup),
            ("wall_s", outcome.wall_s, slow_run),
            ("work_per_s", outcome.work / outcome.run_s, 1.0 / slow_run),
        ):
            raw[name].append(value)
            samples[name].append(value / slowdown)
        attempted += outcome.attempted
        failed += outcome.failed
        problems.extend(outcome.problems)
        if (outcome.digest, outcome.counts) != (
            reference.digest, reference.counts
        ):
            problems.append(
                f"repeat {repeats} differs from the warm-up: digest "
                f"{outcome.digest} vs {reference.digest}"
            )
    samples["peak_rss_mb"] = [peak_rss_mb()]
    if problems and not failed:
        failed = attempted  # a digest mismatch spoils every repeat
    return {
        "samples": samples,
        "raw": raw,
        "host_slowdown": host_speed,
        "attempted": attempted,
        "failed": failed,
        "problems": sorted(set(problems)),
        "digest": reference.digest,
        "counts": reference.counts,
        "info": reference.info,
        "work_unit": workload.work_unit,
    }


def trace(workload, docs, work_dir: Path,
          spans_path: Optional[Path]) -> Dict[str, Any]:
    """The traced run: per-layer self time, counts, tracing overhead."""
    workload.run(docs, work_dir)  # warm-up
    gc.collect()
    plain = workload.run(docs, work_dir)
    log = spans.SpanLog()
    gc.collect()
    traced, extra = workload.traced_run(docs, work_dir, log)
    if spans_path is not None:
        log.dump(spans_path)

    problems = list(plain.problems) + list(traced.problems)
    if (traced.digest, traced.counts) != (plain.digest, plain.counts):
        problems.append(
            f"tracing changed the outputs: digest {traced.digest} vs "
            f"{plain.digest}"
        )
    cost = spans.span_cost()
    by_name = log.by_name(cost)
    layers: Dict[str, float] = dict(plain.counts)
    layers.update(traced.timings)
    layers.update(extra)
    for metric, prefixes in spans.SELF_TIME_METRICS.items():
        layers[metric] = sum(
            row["self_ns"] for name, row in by_name.items()
            if name.startswith(prefixes)
        ) / 1e9
    for metric, name in spans.STAGE_TIME_METRICS.items():
        layers[metric] = by_name.get(name, {"total_ns": 0})["total_ns"] / 1e9
    for metric, prefix in spans.SPAN_COUNT_METRICS.items():
        layers[metric] = sum(
            row["count"] for name, row in by_name.items()
            if name.startswith(prefix)
        )
    kicks = layers["port.kicks"]
    layers["port.kicks_idle_share"] = (
        1.0 - log.counters.get("port.kicks_transmitting", 0) / kicks
        if kicks else 0.0
    )
    layers["trace.unattributed_share"] = sum(
        row["self_ns"] for name, row in by_name.items()
        if name in spans.UNATTRIBUTED
    ) / sum(row["self_ns"] for row in by_name.values())
    layers["trace.spans"] = len(log)
    layers["trace.overhead_ratio"] = traced.wall_s / plain.wall_s
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    if problems and not failed:
        failed = attempted
    layers["check.fail_share"] = failed / attempted
    return {
        "layers": layers,
        "span_table": {
            name: by_name[name] for name in sorted(by_name)
        },
        "span_cost_ns": {"inside": cost[0], "outside": cost[1]},
        "hops": plain.counts.get("hops", 0),
        "attempted": attempted,
        "failed": failed,
        "problems": sorted(set(problems)),
        "digest": plain.digest,
        "info": plain.info,
    }


def format_value(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.6g}"


def run_workload(args: argparse.Namespace) -> int:
    """``--workload``: measure or trace in this process, print, exit."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to benchmark under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from e2e_workloads import WORKLOADS

    spec = load_spec()
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    docs = workload.documents(args.seed, args.smoke)
    load_start = os.getloadavg()[0]
    try:
        if args.trace:
            detail = trace(workload, docs, work_dir, args.spans)
            declared = spec["per_layer"]
            values = detail["layers"]
        else:
            detail = measure(workload, docs, work_dir, args.seconds,
                             args.smoke)
            declared = spec["end_to_end"]
            values = {
                name: statistics.median(samples)
                for name, samples in detail["samples"].items()
            }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    detail["load_1min"] = [load_start, os.getloadavg()[0]]

    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
        for m in declared
    }
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"backend={detail['info'].get('backend')} "
          f"digest={detail['digest']}")
    if "host_slowdown" in detail:
        low, _, high = quartiles(detail["host_slowdown"])
        print(f"# host ran at {low:.2f}-{high:.2f}x the reference probe time "
              f"(quartiles); times below are scaled to 1.00x")
    for name, metric in metrics.items():
        note = ""
        samples = detail.get("samples", {}).get(name)
        if samples and len(samples) > 1:
            q1, _, q3 = quartiles(samples)
            note = f"  (n={len(samples)}, q1={q1:.6g}, q3={q3:.6g})"
        if name == "work_per_s":
            note += f"  [{detail['work_unit']}]"
        if name in detail.get("raw", {}):
            note += f"  raw {statistics.median(detail['raw'][name]):.6g}"
        print(f"{name:32s} {format_value(metric['value']):>14s} "
              f"{metric['unit']}{note}")
    if args.trace and detail["hops"]:
        print("# self time per switch-hop")
        for name in sorted(values):
            if name.endswith("self_s") and values[name]:
                print(f"{name[:-2] + '_ns_per_hop':32s} "
                      f"{values[name] * 1e9 / detail['hops']:14.1f} ns")
    for problem in detail["problems"]:
        print(f"# FAILED CHECK: {problem}")
    if args.detail is not None:
        args.detail.parent.mkdir(parents=True, exist_ok=True)
        args.detail.write_text(json.dumps(detail, indent=1, sort_keys=True))
    correct = not detail["problems"] and detail["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


# ----------------------------------------------------------- every workload

def _git_commit() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own fresh child process, one at a time."""
    spec = load_spec()
    nproc = os.cpu_count() or 1
    load_start = os.getloadavg()[0]
    seconds = args.seconds
    WORK_ROOT.mkdir(exist_ok=True)
    result: Dict[str, Any] = {
        "seed": args.seed,
        "smoke": args.smoke,
        "seconds": seconds,
        "nproc": nproc,
        "python": platform.python_version(),
        "commit": _git_commit(),
        "workloads": {},
    }
    failed = False
    try:
        for entry in spec["workloads"]:
            name = entry["name"]
            record: Dict[str, Any] = {}
            for traced in ([0, 1] if args.traced else [0]):
                detail_path = WORK_ROOT / f"{name}-detail-{traced}.json"
                command = [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(seconds), "--trace", str(traced),
                    "--detail", str(detail_path),
                ]
                if args.smoke:
                    command.append("--smoke")
                done = subprocess.run(command)
                if not detail_path.exists():
                    print(f"error: {name} (trace={traced}) died with code "
                          f"{done.returncode}", file=sys.stderr)
                    failed = True
                    continue
                detail = json.loads(detail_path.read_text())
                detail_path.unlink()
                failed = failed or done.returncode != 0
                record["traced" if traced else "untraced"] = detail
            result["workloads"][name] = record
    finally:
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    load_end = os.getloadavg()[0]
    result["load_1min"] = [load_start, load_end]
    # Above nproc the numbers measured the scheduler, not the program.
    result["noisy"] = max(load_start, load_end) > nproc
    untraced = [
        r["untraced"] for r in result["workloads"].values() if "untraced" in r
    ]
    result["backend"] = next(
        (d["info"].get("backend") for d in untraced), None
    )
    if result["noisy"]:
        print(f"# NOISY: 1-min load {load_start:.2f} -> {load_end:.2f} "
              f"exceeds nproc={nproc}")
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        print(f"# wrote {args.out}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        return compare_main(argv[1:], load_spec())
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long the untraced run measures "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = traced run, per-layer "
                             "metrics")
    parser.add_argument("--traced", action="store_true",
                        help="without --workload: add the traced pass")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and two samples: checks the "
                             "harness, not the program's speed")
    parser.add_argument("--out", type=Path, default=None,
                        help="without --workload: write the result file")
    parser.add_argument("--detail", type=Path, default=None,
                        help="with --workload: also write every sample")
    parser.add_argument("--spans", type=Path, default=None,
                        help="with --workload --trace 1: write the spans")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0 if args.smoke else load_spec()["run_seconds"]
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
