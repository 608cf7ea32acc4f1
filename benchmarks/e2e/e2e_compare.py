"""``run.py compare A.json B.json``: two result files, one verdict per cell.

A cell is one workload x one end-to-end metric.  *A* is the base of every
ratio.  The verdict uses the metric's bound from ``BENCHMARK.json``:

``worse`` / ``better``
    B's median is worse / better than A's by more than the bound.
``same``
    it is within the bound.
``unresolved``
    the spread of either side (interquartile range over median) exceeds
    the bound *and* the two sample sets overlap, so a difference of the
    size the bound cares about could hide in the noise.  When every
    sample of one side beats every sample of the other the cell is
    resolved however wide the spread.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

__all__ = ["quartiles", "verdict", "compare", "compare_main"]


def quartiles(values: Sequence[float]) -> List[float]:
    """Q1, median, Q3 as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> Dict[str, Any]:
    """Compare sample sets *a* (base) and *b* of one metric."""
    qa, qb = quartiles(a), quartiles(b)
    median_a, median_b = statistics.median(a), statistics.median(b)
    ratio = median_b / median_a
    # Positive = B is worse, whatever the metric's direction.
    worsening = ratio - 1.0 if better == "lower" else 1.0 - ratio
    spread = max((qa[2] - qa[0]) / median_a, (qb[2] - qb[0]) / median_b)
    overlap = max(a) >= min(b) and max(b) >= min(a)
    if spread > bound and overlap:
        word = "unresolved"
    elif worsening > bound:
        word = "worse"
    elif worsening < -bound:
        word = "better"
    else:
        word = "same"
    return {
        "a": {"median": median_a, "q1": qa[0], "q3": qa[2], "n": len(a)},
        "b": {"median": median_b, "q1": qb[0], "q3": qb[2], "n": len(b)},
        "ratio": ratio,
        "spread": spread,
        "verdict": word,
    }


def _fail_share(detail: Dict[str, Any]) -> float:
    return detail["failed"] / detail["attempted"]


def compare(a: Dict[str, Any], b: Dict[str, Any],
            spec: Dict[str, Any]) -> Dict[str, Any]:
    """Every cell of two result files, plus what makes the exit code."""
    cells: Dict[str, Dict[str, Any]] = {}
    warnings: List[str] = []
    failures: List[str] = []
    for entry in spec["workloads"]:
        name = entry["name"]
        try:
            da = a["workloads"][name]["untraced"]
            db = b["workloads"][name]["untraced"]
        except KeyError:
            failures.append(f"{name}: missing from one of the files")
            continue
        cells[name] = {}
        for metric in spec["end_to_end"]:
            cell = verdict(
                da["samples"][metric["name"]], db["samples"][metric["name"]],
                metric["better"], metric["bound"],
            )
            cells[name][metric["name"]] = cell
            if cell["verdict"] == "worse":
                failures.append(
                    f"{name} {metric['name']}: worse by more than "
                    f"{metric['bound']:.0%} (x{cell['ratio']:.3f} of A)"
                )
        if _fail_share(db) > _fail_share(da):
            failures.append(
                f"{name}: fail_share rose from {_fail_share(da):.4f} "
                f"to {_fail_share(db):.4f}"
            )
        if da["digest"] != db["digest"]:
            warnings.append(
                f"{name}: simulated-statistics digest differs "
                f"({da['digest']} vs {db['digest']}) -- expected only when "
                f"the seeds differ or the change meant to alter behaviour"
            )
    return {"cells": cells, "warnings": warnings, "failures": failures}


def render(report: Dict[str, Any], a: Dict[str, Any],
           b: Dict[str, Any]) -> str:
    noisy = [side for side, doc in (("A", a), ("B", b)) if doc.get("noisy")]
    tag = f" [NOISY: {'+'.join(noisy)}]" if noisy else ""
    lines = [
        f"A: commit {a.get('commit')} seed {a.get('seed')} "
        f"nproc {a.get('nproc')} backend {a.get('backend')} "
        f"load {a.get('load_1min')}",
        f"B: commit {b.get('commit')} seed {b.get('seed')} "
        f"nproc {b.get('nproc')} backend {b.get('backend')} "
        f"load {b.get('load_1min')}",
        f"{'workload':22s}{'metric':13s}{'A median [q1, q3]':>38s}"
        f"{'B median [q1, q3]':>38s}{'B/A':>8s}  verdict",
    ]
    for name, metrics in report["cells"].items():
        for metric, cell in metrics.items():
            sides = [
                f"{side['median']:.5g} [{side['q1']:.5g}, {side['q3']:.5g}]"
                f" n={side['n']}"
                for side in (cell["a"], cell["b"])
            ]
            lines.append(
                f"{name:22s}{metric:13s}{sides[0]:>38s}{sides[1]:>38s}"
                f"{cell['ratio']:8.3f}  {cell['verdict']}{tag}"
            )
    lines.extend(f"warning: {text}" for text in report["warnings"])
    lines.extend(f"FAIL: {text}" for text in report["failures"])
    return "\n".join(lines)


def compare_main(argv: List[str], spec: Dict[str, Any]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    report = compare(a, b, spec)
    print(render(report, a, b))
    return 1 if report["failures"] else 0
