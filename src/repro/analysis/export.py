"""Exporting results: CSV series, latency distributions, JSON summaries.

The rendering module (:mod:`repro.analysis.report`) targets humans; this one
targets plotting scripts and archival.  Everything writes plain CSV/JSON so
downstream tooling needs no dependency on this package.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from repro.sched.problem import SchedulePlan
from repro.traffic.flows import TrafficClass
from .stats import SweepSeries

__all__ = [
    "series_to_csv",
    "latencies_to_csv",
    "latency_cdf",
    "result_summary",
    "write_summary_json",
]

PathLike = Union[str, Path]


def series_to_csv(series: SweepSeries, path: PathLike) -> Path:
    """One row per sweep point: x, mean, jitter, min, max, p99, loss (ns)."""
    import csv

    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [series.xlabel, "mean_ns", "jitter_ns", "min_ns", "max_ns",
             "p99_ns", "loss"]
        )
        for point in series.points:
            summary = point.summary
            writer.writerow(
                [point.x, summary.mean_ns, summary.jitter_ns, summary.min_ns,
                 summary.max_ns, summary.p99_ns, point.loss]
            )
    return path


def latencies_to_csv(result, traffic_class: TrafficClass, path: PathLike) -> Path:
    """Per-packet latencies of one class from a ScenarioResult."""
    import csv

    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["flow_id", "latency_ns"])
        for flow in result.flows.by_class(traffic_class):
            record = result.analyzer.records[flow.flow_id]
            for latency in record.latencies_ns:
                writer.writerow([flow.flow_id, latency])
    return path


def latency_cdf(latencies: List[int], points: int = 100) -> List[Dict[str, float]]:
    """An empirical CDF sampled at *points* evenly spaced quantiles."""
    if not latencies:
        return []
    ordered = sorted(latencies)
    count = len(ordered)
    cdf = []
    for i in range(points + 1):
        quantile = i / points
        index = min(count - 1, int(quantile * count))
        cdf.append({"q": quantile, "latency_ns": float(ordered[index])})
    return cdf


def result_summary(result) -> Dict:
    """A JSON-compatible digest of one ScenarioResult.

    Runs executed with a :class:`~repro.obs.metrics.MetricsRegistry`
    attached additionally embed the full registry snapshot under
    ``"metrics"`` and the kernel's calendar accounting under ``"sim"``.
    """
    summary: Dict = {
        "duration_ns": result.duration_ns,
        "slot_ns": result.slot_ns,
        "classes": result.analyzer.class_digest(result.expected_by_flow),
        "switch_counters": result.counters(),
        "max_queue_high_water": result.max_queue_high_water(),
        "max_buffer_high_water": result.max_buffer_high_water(),
    }
    metrics = getattr(result, "metrics", None)
    if metrics is not None:
        summary["metrics"] = metrics.snapshot()
    sim_stats = getattr(result, "sim_stats", None)
    if sim_stats:
        summary["sim"] = dict(sim_stats)
    slo = getattr(result, "slo", None)
    if slo is not None:
        summary["slo"] = slo.as_dict()
    faults = getattr(result, "faults", None)
    if faults is not None:
        summary["faults"] = faults.as_dict()
    if getattr(result, "headroom", None) is not None:
        summary["headroom"] = result.headroom_report().as_dict()
    plan = result.sched_plan
    if isinstance(plan, SchedulePlan):  # one slot grid: not under multi_cqf
        summary["itp"] = {
            "max_frames_per_slot": plan.max_frames_per_slot,
            "load_balance_ratio": plan.load_balance_ratio(),
        }
    if plan is not None:
        summary["sched"] = plan.summary()
    return summary


def write_summary_json(result, path: PathLike) -> Path:
    path = Path(path)
    path.write_text(json.dumps(result_summary(result), indent=2,
                               sort_keys=True))
    return path
