"""The five workloads: documents from a seed, one closed operation, checks.

Every workload is closed batch work at a stated input size: the harness
runs one operation to completion, checks its outputs, then starts the
next.  The program under test only ever sees the generated documents
(scenario / sweep JSON text); the seed never reaches it any other way.

Importing this module needs ``src/`` on ``sys.path`` (``run.py`` and the
tests' ``conftest.py`` put it there).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import repro
from repro import sched
from repro.analysis.export import result_summary
from repro.analysis.report import render_table1, render_table3
from repro.campaign import Campaign, SweepSpec
from repro.campaign.worker import execute_run
from repro.core.builder import TSNBuilder
from repro.core.optimizer import optimize
from repro.core.presets import bcm53154_config, table1_case1, table1_case2
from repro.core.sizing import derive_config
from repro.cqf.bounds import cqf_bounds
from repro.network.scenario import ScenarioSpec
from repro.obs.flowspans import FlowSpanRecorder
from repro.obs.headroom import HeadroomRecorder
from repro.obs.metrics import MetricsRegistry
from repro.sim.kernel import Simulator

import e2e_spans as spans
from e2e_spans import NULL_LOG

__all__ = [
    "Outcome",
    "Workload",
    "WORKLOADS",
    "PUBLISHED_TABLE3_KB",
    "PUBLISHED_TABLE1_KB",
    "eq1_violations",
    "switch_hops",
    "conservation",
    "digest_of",
]

clock = time.perf_counter


@dataclass
class Outcome:
    """What one operation of a workload did and whether it checked out."""

    wall_s: float            # document text -> serialised output text
    run_s: float             # the stage ``work_per_s`` divides by
    work: int                # units of work done in ``run_s``
    attempted: int           # scenario runs / sweep points / plans
    failed: int
    problems: List[str]
    digest: str              # simulated statistics / rows / tables
    counts: Dict[str, float]  # exact values read from public result objects
    info: Dict[str, Any] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)


def digest_of(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ------------------------------------------------------------------ checks

def switch_hops(result) -> int:
    """Frames that completed serialization on some switch port."""
    return sum(s.counters.transmitted for s in result.switches.values())


def eq1_violations(
    latencies_by_hops: Iterable[Tuple[int, Sequence[int]]], slot_ns: int
) -> int:
    """Latencies outside ``[(h-1)*T, (h+1)*T]`` (PAPER Eq 1)."""
    violations = 0
    for hops, latencies in latencies_by_hops:
        bounds = cqf_bounds(hops, slot_ns)
        low, high = bounds.min_ns, bounds.max_ns
        violations += sum(1 for x in latencies if not low <= x <= high)
    return violations


def conservation(testbed, result) -> Dict[str, int]:
    """Where every emitted frame is when the run stops.

    ``emitted == delivered + dropped + in_flight`` must hold with every
    term read from an independent counter: frames still held by a port
    (queued or on the wire), frames inside a cable, and frames inside a
    switch's processing delay.  A run that stops 8 slots after the last
    injection legitimately leaves frames in flight on a deep topology, so
    ``loss == 0`` would be the wrong test.
    """
    switches = list(result.switches.values())
    hosts = list(testbed.hosts.values())
    ports = [p for s in switches for p in s.ports] + [h.nic for h in hosts]
    dropped = (
        sum(s.counters.dropped_total for s in switches)
        + sum(h.counters.dropped_total for h in hosts)
        + sum(
            link.frames_corrupted + link.frames_blackholed
            + link.frames_fault_lost
            for link in result.links
        )
    )
    # Corrupted-in-flight frames are carried, then dropped by the receiver.
    arrived = (
        sum(s.counters.received for s in switches)
        + sum(h.received + h.counters.dropped_corrupt for h in hosts)
    )
    in_ports = sum(p.pool.in_use for p in ports)
    in_cables = sum(link.frames_carried for link in result.links) - arrived
    in_processing = sum(
        s.counters.received - s.counters.forwarded - s.counters.dropped_total
        for s in switches
    )
    return {
        "emitted": sum(result.expected_by_flow.values()),
        "delivered": (
            result.analyzer.received() + result.analyzer.unknown_frames
        ),
        "dropped": dropped,
        "in_ports": in_ports,
        "in_cables": in_cables,
        "in_processing": in_processing,
    }


def _ts_queue_drops(testbed) -> int:
    ts_queues = {q for group in testbed.ts_queue_groups for q in group}
    return sum(
        queue.stats.tail_drops + queue.stats.gate_drops
        for switch in testbed.switches.values()
        for port in switch.ports
        for queue in port.queues
        if queue.queue_id in ts_queues
    )


#: One talker, one listener: every frame takes the longest path.
_LINE = {"talkers": ["talker0"], "listener": "listener"}


class Workload:
    """What the harness needs from a workload.

    ``documents`` makes the input texts from a seed, ``setup`` turns them
    into a ready-to-execute object, ``run`` is one closed operation.  Why
    each one exists is recorded in ``BENCHMARK.json`` and the README.
    """

    name: str
    work_unit: str
    setup_batch: int  # set-ups per set-up sample, so a sample is >= 0.3 s

    def traced_run(self, docs: Dict[str, str], work_dir: Path,
                   log: spans.SpanLog) -> Tuple[Outcome, Dict[str, float]]:
        """One operation with every layer wrapped; also returns layer
        values that need a run of their own."""
        patches = spans.install(log)
        try:
            return self.run(docs, work_dir, log), {}
        finally:
            patches.undo()


# ------------------------------------------------------- simulation workloads

class SimWorkload(Workload):
    """One scenario document -> ``Testbed.run`` -> summary JSON."""

    work_unit = "switch-hops"

    def __init__(self, name: str, full: Dict[str, Any],
                 smoke: Dict[str, Any], setup_batch: int,
                 observed: bool = False, eq1: bool = True) -> None:
        self.name = name
        self._scale = {False: full, True: smoke}
        self.setup_batch = setup_batch
        self.observed = observed
        self.eq1 = eq1

    def documents(self, seed: int, smoke: bool) -> Dict[str, str]:
        scale = self._scale[smoke]
        doc = {
            "name": self.name,
            "topology": scale["topology"],
            "flows": scale["flows"],
            "config": "derive",
            "slot_us": 62.5,
            "duration_ms": scale["duration_ms"],
            "seed": seed,
        }
        doc.update(scale.get("extra", {}))
        return {"scenario": json.dumps(doc)}

    def _ready(self, text: str, observed: bool):
        spec = ScenarioSpec.from_json(text)
        observers = (
            {
                "metrics": MetricsRegistry(),
                "headroom": HeadroomRecorder(),
                "spans": FlowSpanRecorder(),
            }
            if observed else {}
        )
        testbed = spec.build_testbed(**observers)
        testbed.build()
        return spec, testbed

    def setup(self, docs: Dict[str, str], work_dir: Path) -> None:
        self._ready(docs["scenario"], self.observed)

    def run(self, docs: Dict[str, str], work_dir: Path, log=NULL_LOG,
            observed: Optional[bool] = None) -> Outcome:
        observed = self.observed if observed is None else observed
        with log.span("op"):
            t0 = clock()
            spec, testbed = self._ready(docs["scenario"], observed)
            t1 = clock()
            result = testbed.run(duration_ns=spec.duration_ns)
            t2 = clock()
            with log.span("report.serialise"):
                output = json.dumps(result_summary(result), sort_keys=True)
            t3 = clock()
        return self._judge(spec, testbed, result, output, t3 - t0, t2 - t1)

    def traced_run(self, docs: Dict[str, str], work_dir: Path,
                   log: spans.SpanLog) -> Tuple[Outcome, Dict[str, float]]:
        traced, extra = super().traced_run(docs, work_dir, log)
        if self.observed:
            # what the observers add to the calendar: same scenario, bare
            bare = self.run(docs, work_dir, observed=False)
            extra["obs.extra_events"] = (
                traced.counts["kernel.events_fired"]
                - bare.counts["kernel.events_fired"]
            )
        return traced, extra

    def _judge(self, spec, testbed, result, output: str, wall_s: float,
               run_s: float) -> Outcome:
        problems: List[str] = []
        hops = switch_hops(result)
        ts_drops = _ts_queue_drops(testbed)
        if ts_drops:
            problems.append(f"{ts_drops} drops on TS queues")
        where = conservation(testbed, result)
        in_flight = (
            where["in_ports"] + where["in_cables"] + where["in_processing"]
        )
        if min(where.values()) < 0 or where["emitted"] != (
            where["delivered"] + where["dropped"] + in_flight
        ):
            problems.append(f"frames not conserved: {where}")
        violations = 0
        if self.eq1:
            violations = eq1_violations(
                (
                    (
                        testbed.topology.hops(flow.src, flow.dst),
                        result.analyzer.records[flow.flow_id].latencies_ns,
                    )
                    for flow in result.flows.ts_flows
                ),
                spec.slot_ns,
            )
            if violations:
                problems.append(
                    f"{violations} TS latencies outside the Eq 1 window"
                )
        switches = list(result.switches.values())
        gate_modes = sorted({
            port.gates.event_mode for s in switches for port in s.ports
        })
        stats = result.sim_stats
        recorder = result.spans
        counts = {
            "check.eq1_violations": violations,
            "sizing.gate_size": testbed.base_config.gate_size,
            "sizing.queue_depth": testbed.base_config.queue_depth,
            "testbed.ports": sum(len(s.ports) for s in switches),
            "testbed.frame_path": int(testbed.batch is not None),
            "testbed.gate_mode": int(gate_modes == ["table"]),
            "kernel.events_fired": stats["fired"],
            "kernel.events_per_hop": stats["fired"] / hops if hops else 0.0,
            "kernel.calendar_high_water": stats["calendar_high_water"],
            "kernel.cancelled": stats["cancelled"],
            "kernel.backend": int(testbed.sim.backend == "c"),
            "generator.frames_emitted": where["emitted"],
            "host.frames_injected": sum(
                sum(h.counters.per_queue_enqueued.values())
                for h in testbed.hosts.values()
            ),
            "link.frames_carried": sum(
                link.frames_carried for link in result.links
            ),
            "ingress.frames": sum(s.counters.received for s in switches),
            "ingress.policer_drops": sum(
                s.counters.dropped_policer for s in switches
            ),
            "ingress.lookup_misses": sum(
                s.counters.dropped_unknown_dst for s in switches
            ),
            "port.queue_high_water": result.max_queue_high_water(),
            "port.buffer_high_water": result.max_buffer_high_water(),
            "port.tail_drops": sum(s.counters.dropped_tail for s in switches),
            "analyzer.frames_recorded": result.analyzer.received(),
            "obs.spans_recorded": len(recorder) if recorder is not None else 0,
            "report.bytes": len(output),
            "hops": hops,
            "frames_in_flight": in_flight,
        }
        return Outcome(
            wall_s=wall_s,
            run_s=run_s,
            work=hops,
            attempted=1,
            failed=int(bool(problems)),
            problems=problems,
            digest=digest_of({
                "classes": result.analyzer.class_digest(
                    result.expected_by_flow
                ),
                "counters": result.counters(),
                "sim": stats,
            }),
            counts=counts,
            info={
                "backend": testbed.sim.backend,
                "frame_path": "batch" if testbed.batch is not None else "object",
                "gate_mode": "/".join(gate_modes),
            },
        )


# ------------------------------------------------------------- sweep workload

class SweepWorkload(Workload):
    """One sweep document -> ``Campaign.run`` on a pool -> rows + aggregate."""

    name = "sweep_short"
    work_unit = "sweep points"
    setup_batch = 60

    def documents(self, seed: int, smoke: bool) -> Dict[str, str]:
        doc = {
            "name": f"sweep-short-{seed}",
            "base": {
                "name": "ring-point",
                "topology": {"kind": "ring", "switch_count": 3,
                             "talkers": ["talker0"], "listener": "listener"},
                "flows": {"ts_count": 16, "period_us": 10_000,
                          "size_bytes": 64, "rc_mbps": 50, "be_mbps": 50},
                "config": "derive",
                "slot_us": 62.5,
                "duration_ms": 5 if smoke else 10,
                "seed": seed,
            },
            "grid": {
                "flows.ts_count": [8, 16] if smoke else [8, 16, 32, 64],
                "slot_us": [62.5, 125.0],
            },
            "seeds": 2 if smoke else 6,
        }
        return {"sweep": json.dumps(doc)}

    @property
    def workers(self) -> int:
        return min(2, os.cpu_count() or 1)

    def setup(self, docs: Dict[str, str], work_dir: Path) -> None:
        SweepSpec.from_json(docs["sweep"]).expand()

    def run(self, docs: Dict[str, str], work_dir: Path,
            log=NULL_LOG) -> Outcome:
        ledger = work_dir / "ledger.jsonl"
        with log.span("op"):
            t0 = clock()
            spec = SweepSpec.from_json(docs["sweep"])
            campaign = Campaign(spec, workers=self.workers, ledger=ledger)
            sink = io.StringIO()
            t1 = clock()
            aggregate = campaign.run(jsonl=sink)
            t2 = clock()
            with log.span("report.serialise"):
                rows_text = sorted(sink.getvalue().splitlines())
                ledger_text = ledger.read_text()
                output = "\n".join(
                    rows_text + [json.dumps(aggregate, sort_keys=True),
                                 ledger_text]
                )
            t3 = clock()
        rows = campaign.rows
        problems: List[str] = []
        bad = [r["run_id"] for r in rows if r["status"] != "ok"]
        if bad:
            problems.append(f"{len(bad)} points not ok: {bad[:4]}")
        lossy = [
            r["run_id"] for r in rows
            if r["status"] == "ok" and r["classes"]["TS"]["loss"] != 0.0
        ]
        if lossy:
            problems.append(f"{len(lossy)} points lost TS frames: {lossy[:4]}")
        planned = len(spec.override_sets()) * spec.seeds
        if len(rows) != planned:
            problems.append(f"{len(rows)} rows for {planned} planned points")
        ok_rows = len(rows) - len(bad)
        run_s = t2 - t1
        point_wall = [t["wall_s"] for t in campaign.telemetry]
        point_cpu = [t["cpu_s"] for t in campaign.telemetry]
        backend = Simulator().backend
        return Outcome(
            wall_s=t3 - t0,
            run_s=run_s,
            work=ok_rows,
            attempted=planned,
            failed=len(set(bad) | set(lossy)) + abs(planned - len(rows)),
            problems=problems,
            digest=digest_of({"rows": rows_text, "aggregate": aggregate}),
            counts={
                "campaign.ledger_bytes": len(ledger_text),
                "campaign.retries": sum(r["attempts"] - 1 for r in rows),
                "campaign.failed_points": len(bad),
                "report.bytes": len(output),
                "points": len(rows),
                "kernel.events_fired": sum(
                    t["events"] for t in campaign.telemetry
                ),
                "kernel.calendar_high_water": max(
                    (t["calendar_high_water"] for t in campaign.telemetry),
                    default=0,
                ),
                "kernel.backend": int(backend == "c"),
            },
            info={"backend": backend, "workers": self.workers},
            timings={
                "campaign.point_wall_s_p50": statistics.median(point_wall),
                "campaign.point_cpu_s_p50": statistics.median(point_cpu),
                "campaign.overhead_share": (
                    1.0 - sum(point_wall) / (run_s * self.workers)
                ),
            },
        )

    def traced_run(self, docs: Dict[str, str], work_dir: Path,
                   log: spans.SpanLog) -> Tuple[Outcome, Dict[str, float]]:
        # The pool run carries parent-side spans only: forked workers
        # inherit whatever is patched at fork time, and wrapped dataplanes
        # in the workers would slow the very thing being measured.  A
        # sample of points then runs in this process with every layer
        # wrapped, to split a point's time by layer.
        patches = spans.install_campaign(log)
        try:
            traced = self.run(docs, work_dir, log)
        finally:
            patches.undo()
        runs = SweepSpec.from_json(docs["sweep"]).expand()
        patches = spans.install(log)
        try:
            with log.span("op"):
                for run in runs[::max(1, len(runs) // 8)][:8]:
                    row = execute_run(run.as_payload())
                    if row["status"] != "ok":
                        traced.problems.append(
                            f"inline point failed: {row.get('error')}"
                        )
        finally:
            patches.undo()
        return traced, {"cli.import_s": _import_seconds()}


def _import_seconds() -> float:
    """Median wall time of a fresh ``python -c 'import repro.cli'``."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    times = []
    for _ in range(3):
        started = clock()
        subprocess.run(
            [sys.executable, "-c", "import repro.cli"], env=env, check=True
        )
        times.append(clock() - started)
    return statistics.median(times)


# -------------------------------------------------------------- plan workload

#: Table III of the paper, Kb per resource row then the total.
PUBLISHED_TABLE3_KB = {
    "commercial": (1152, 126, 36, 144, 144, 576, 8640, 10818),
    "star": (72, 126, 72, 108, 108, 432, 4860, 5778),
    "linear": (72, 126, 72, 72, 72, 288, 3240, 3942),
    "ring": (72, 126, 72, 36, 36, 144, 1620, 2106),
}
_TABLE3_ROWS = ("Switch Tbl", "Class. Tbl", "Meter Tbl", "Gate Tbl",
                "CBS Tbl", "Queues", "Buffers")

#: Table I of the paper: queue + buffer BRAM of the two motivation cases.
PUBLISHED_TABLE1_KB = {"case1": 2304, "case2": 1764}

#: A heterogeneous cell on which first-fit is not provably optimal, so the
#: exact backend has to branch (it runs into its node cap) and annealing
#: has something to level.  The uniform 1024-flow set is solved at the
#: root by every backend.
_MIXED_GROUPS = [
    {"ts_count": 27, "period_us": 500, "size_bytes": 128},
    {"ts_count": 8, "period_us": 2000, "size_bytes": 1500},
    {"ts_count": 32, "period_us": 4000, "size_bytes": 512},
    {"ts_count": 39, "period_us": 500, "size_bytes": 128},
]


def _column_error(report, published: Sequence[int]) -> float:
    computed = [report.row(name).kb for name in _TABLE3_ROWS]
    computed.append(report.total_kb)
    return max(abs(c - p) for c, p in zip(computed, published))


class PlanWorkload(Workload):
    """Scenario documents -> sizing, scheduling, optimisation, tables, RTL."""

    name = "plan_and_size"
    work_unit = "flows sized"
    setup_batch = 2

    def documents(self, seed: int, smoke: bool) -> Dict[str, str]:
        def scenario(name: str, topology: Dict[str, Any],
                     flows: Dict[str, Any], **extra: Any) -> str:
            return json.dumps({
                "name": name, "topology": topology, "flows": flows,
                "config": "derive", "slot_us": 62.5, "duration_ms": 10,
                "seed": seed, **extra,
            })

        cell = {"ts_count": 1024, "period_us": 10_000, "size_bytes": 64}
        ring = {"kind": "ring", "switch_count": 6, **_LINE}
        line = {"kind": "linear", "switch_count": 6, **_LINE}
        backends = {
            "greedy": {},
            "exact": {"node_limit": 1000 if smoke else 20_000},
            "anneal": {"iterations": 100 if smoke else 500, "seed": seed},
        }
        docs = {
            "ring": scenario("cell-ring", ring, cell),
            "linear": scenario("cell-linear", line, cell),
            "star": scenario("cell-star", {"kind": "star"}, cell),
            "optimize": scenario(
                "cell-optimize", ring,
                {**cell, "ts_count": 64 if smoke else 128}),
        }
        for backend, options in backends.items():
            docs[f"mixed.{backend}"] = scenario(
                f"cell-mixed-{backend}", line, {"groups": _MIXED_GROUPS},
                sched={"backend": backend, "options": options},
            )
        return docs

    def setup(self, docs: Dict[str, str], work_dir: Path) -> None:
        ScenarioSpec.from_json(docs["ring"]).build_testbed().build()

    def run(self, docs: Dict[str, str], work_dir: Path,
            log=NULL_LOG) -> Outcome:
        problems: List[str] = []
        flows_sized = 0
        plans = 0
        with log.span("op"):
            t0 = clock()
            specs = {
                key: ScenarioSpec.from_json(text) for key, text in docs.items()
            }
            t1 = clock()
            # Sizing guidelines per topology, checked against Table III.
            sizings = {}
            reports = {}
            for kind in ("star", "linear", "ring"):
                spec = specs[kind]
                topology = spec.build_topology()
                flows = spec.build_flows()
                with log.span("sizing.derive"):
                    sizings[kind] = derive_config(
                        topology, flows, spec.slot_ns, name=spec.name
                    )
                with log.span("bram.report"):
                    reports[kind] = sizings[kind].config.resource_report(
                        f"{kind.title()} ({topology.max_enabled_ports} ports)"
                    )
                flows_sized += len(flows)
                plans += 1
            # The scheduling layer, every backend, on the mixed cell (the
            # uniform cell was planned by greedy inside derive_config).
            summaries = {}
            for backend in ("greedy", "exact", "anneal"):
                spec = specs[f"mixed.{backend}"]
                flows = list(spec.build_flows())
                policy = spec.build_sched_policy()
                with log.span(f"sched.plan.{backend}"):
                    plan = sched.plan_flows(flows, spec.slot_ns, policy=policy)
                summaries[backend] = plan.summary()
                if plan.status not in ("optimal", "feasible"):
                    problems.append(f"mixed/{backend}: plan is {plan.status}")
                flows_sized += len(flows)
                plans += 1
            # Parameter search, with and without table aggregation.
            spec = specs["optimize"]
            topology = spec.build_topology()
            flows = spec.build_flows()
            searches = {}
            for aggregate in (False, True):
                with log.span("optimizer.search"):
                    searches[aggregate] = optimize(
                        topology, flows, aggregate_switch_entries=aggregate
                    )
                flows_sized += len(flows)
                plans += 1
            if searches[True].best.total_bram_kb > (
                searches[False].best.total_bram_kb
            ):
                problems.append("aggregation made the best point dearer")
            # Tables I/III and the RTL bundle of the ring customisation.
            with log.span("bram.report"):
                commercial = bcm53154_config().resource_report(
                    "Commercial (4 ports)"
                )
                case1 = table1_case1().resource_report("Case 1")
                case2 = table1_case2().resource_report("Case 2")
                tables = [
                    render_table3(
                        commercial, [reports[k] for k in
                                     ("star", "linear", "ring")]
                    ),
                    render_table1(case1, case2),
                ]
            with log.span("rtl.emit"):
                builder = TSNBuilder(platform="rtl")
                builder.customize(sizings["ring"].config)
                written = builder.synthesize().emit_verilog(work_dir / "rtl")
                bundle = [path.read_text() for path in written]
            t2 = clock()
            with log.span("report.serialise"):
                output = "\n".join(
                    tables
                    + [json.dumps(summaries, sort_keys=True)]
                    + [
                        json.dumps({
                            "aggregate": aggregate,
                            "best_slot_ns": search.best.slot_ns,
                            "best_bram_kb": search.best.total_bram_kb,
                            "pareto": [
                                (p.worst_latency_ns, p.total_bram_kb)
                                for p in search.pareto
                            ],
                            "rejected_slots": search.rejected_slots,
                        })
                        for aggregate, search in searches.items()
                    ]
                    + bundle
                )
            t3 = clock()
        error_kb = max(
            [_column_error(reports[k], PUBLISHED_TABLE3_KB[k])
             for k in ("star", "linear", "ring")]
            + [_column_error(commercial, PUBLISHED_TABLE3_KB["commercial"])]
            + [
                abs(r.row("Queues").kb + r.row("Buffers").kb - published)
                for r, published in (
                    (case1, PUBLISHED_TABLE1_KB["case1"]),
                    (case2, PUBLISHED_TABLE1_KB["case2"]),
                )
            ]
        )
        if error_kb:
            problems.append(
                f"BRAM totals off the published tables by {error_kb} Kb"
            )
        ring = sizings["ring"].config
        return Outcome(
            wall_s=t3 - t0,
            run_s=t2 - t1,
            work=flows_sized,
            attempted=plans,
            failed=plans if problems else 0,
            problems=problems,
            digest=digest_of(output),
            counts={
                "check.bram_abs_err_kb": error_kb,
                "scenario.validate_problems": 0,
                "sizing.gate_size": ring.gate_size,
                "sizing.queue_depth": ring.queue_depth,
                "sched.nodes_explored": sum(
                    s["nodes_explored"] for s in summaries.values()
                ),
                "sched.peak_frames_per_slot": min(
                    summary["peak_frames_per_slot"]
                    for summary in summaries.values()
                ),
                "rtl.bytes": sum(len(text) for text in bundle),
                "report.bytes": len(output),
                "plans": plans,
            },
            info={"backend": Simulator().backend},
        )


# ------------------------------------------------------------------ registry

WORKLOADS = {
    w.name: w for w in (
        SimWorkload(
            "star_dense",
            full={"topology": {"kind": "star"}, "duration_ms": 80,
                  "flows": {"ts_count": 512, "size_bytes": 64,
                            "rc_mbps": 100, "be_mbps": 100}},
            smoke={"topology": {"kind": "star"}, "duration_ms": 10,
                   "flows": {"ts_count": 64, "size_bytes": 64,
                             "rc_mbps": 100, "be_mbps": 100}},
            setup_batch=3,
        ),
        SimWorkload(
            "ring_deep",
            full={"topology": {"kind": "ring", "switch_count": 64, **_LINE},
                  "duration_ms": 25,
                  "flows": {"ts_count": 16, "period_us": 1000,
                            "size_bytes": 64}},
            smoke={"topology": {"kind": "ring", "switch_count": 16, **_LINE},
                   "duration_ms": 5,
                   "flows": {"ts_count": 16, "period_us": 1000,
                             "size_bytes": 64}},
            setup_batch=15,
        ),
        SimWorkload(
            "linear_qbv_observed",
            full={"topology": {"kind": "linear", "switch_count": 6, **_LINE},
                  "duration_ms": 70, "extra": {"gate_mechanism": "qbv"},
                  "flows": {"ts_count": 32, "size_bytes": 256,
                            "rc_mbps": 100, "be_mbps": 100}},
            smoke={"topology": {"kind": "linear", "switch_count": 6, **_LINE},
                   "duration_ms": 10, "extra": {"gate_mechanism": "qbv"},
                   "flows": {"ts_count": 32, "size_bytes": 256,
                             "rc_mbps": 100, "be_mbps": 100}},
            setup_batch=20,
            observed=True,
            eq1=False,
        ),
        SweepWorkload(),
        PlanWorkload(),
    )
}
