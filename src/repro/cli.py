"""Command-line interface: ``python -m repro <command>``.

The commands wrap the library's main workflows:

``report``
    Print the paper's Table III (and optionally Table I) from the published
    parameter sets.
``size``
    Apply the Section III.C guidelines: topology + flow features in,
    derived SwitchConfig out (JSON to stdout or a file).
``emit-rtl``
    Synthesize a configuration (preset name or JSON file) and write the
    parameterized Verilog bundle.
``simulate``
    Run a declarative scenario file (see
    :class:`repro.network.scenario.ScenarioSpec`) and print/emit the
    result summary.  ``--metrics`` attaches a
    :class:`~repro.obs.metrics.MetricsRegistry` and writes its snapshot;
    ``--chrome-trace`` records a trace and exports Chrome trace-event JSON
    (open in Perfetto / ``chrome://tracing``); ``--profile`` prints a
    wall-clock profile of simulation work.
``metrics``
    Pretty-print a metrics snapshot produced by ``simulate --metrics`` (or
    a summary JSON embedding one).
``headroom``
    Run a scenario with occupancy probes armed and print the
    observed-vs-provisioned resource report: per-structure utilization,
    time-weighted occupancy, wasted BRAM and the cheapest sufficient
    configuration under the sizing margin policy (see
    :mod:`repro.obs.headroom`).  ``--json``/``--csv``/``--prom`` export
    the report for tooling.  ``simulate --headroom`` attaches the same
    probes to an ordinary simulation run.
``slo``
    Run a scenario under its SLO policy (the spec's ``"slo"`` stanza, plus
    every flow-definition deadline) and print per-flow pass/fail verdicts.
    Exit code 0 = all monitored flows pass, 1 = violations, 2 = nothing
    monitored.
``sched``
    Plan a scenario's TS flows with one scheduling backend (or all of
    them with ``--compare``) without simulating: admission, per-slot
    peak, the derived queue depth and total BRAM per backend, plus
    optimality/infeasibility proofs from the ``exact`` backend.
``sweep``
    Expand a declarative sweep document (see
    :class:`repro.campaign.SweepSpec`) into concrete scenarios and run
    them across a process pool, streaming per-run JSONL rows and writing
    an aggregate summary with a BRAM-vs-QoS Pareto frontier.  Every sweep
    also writes a deterministic run *ledger* (``ledger.jsonl``) and a
    wall-clock ``telemetry.json`` with straggler flags; ``--status-file``
    streams live heartbeats, ``--flight-dir`` arms a flight recorder that
    dumps the last kernel events of any failed run, and
    ``--event-budget`` adds a deterministic per-run kill switch.
``tail``
    Render the live progress + ETA view of a sweep's ``--status-file``
    (optionally following it like ``tail -f``).
``faults``
    Run a scenario that declares a ``"faults"`` stanza (see
    :mod:`repro.faults`) and print the recovery summary: the executed
    fault timeline, per-link frame destruction, FRER elimination
    counters, gPTP failover latency, the drops-by-reason table, and the
    SLO verdicts.  Exit code 0 = survived (SLO passed, or zero TS loss
    when nothing is monitored), 1 = the faults caused violations, 2 =
    the scenario declares no faults.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro import __version__
from repro.core.errors import TsnBuilderError
from repro.cqf import gating

__all__ = ["main", "build_parser"]

# The parser imports nothing it runs: each ``_cmd_*`` handler imports its
# own modules, so ``repro --help`` loads no simulator.

#: Preset name -> its factory in :mod:`repro.core.presets`.
_PRESETS = {
    "commercial": "bcm53154_config",
    "star": "star_config",
    "linear": "linear_config",
    "ring": "ring_config",
}

#: The topologies ``size`` builds, ``<name>_topology`` in
#: :mod:`repro.network.topology`.
_TOPOLOGIES = ("ring", "linear", "star")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TSN-Builder reproduction (DAC 2020) command line",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    report = commands.add_parser(
        "report", help="print the paper's resource tables"
    )
    report.add_argument("--table1", action="store_true",
                        help="also print the motivation table")

    size = commands.add_parser(
        "size", help="derive a switch configuration from application features"
    )
    size.add_argument("--topology", choices=sorted(_TOPOLOGIES),
                      default="ring")
    size.add_argument("--switches", type=int, default=None,
                      help="switch count (ring/linear; default 6)")
    size.add_argument("--flows", type=int, default=1024)
    size.add_argument("--period-us", type=float, default=10_000.0)
    size.add_argument("--size-bytes", type=int, default=64)
    size.add_argument("--slot-us", type=float, default=None,
                      help="the slot the guidelines size for (default 62.5; "
                           "--optimize searches it)")
    size.add_argument("--gate-mechanism", choices=gating.GATE_MECHANISMS,
                      default=gating.CQF.gate_mechanism,
                      help="gate tables to size (--optimize sizes CQF)")
    size.add_argument("--optimize", action="store_true",
                      help="search slot sizes for the cheapest "
                           "deadline-feasible configuration instead of "
                           "applying the guidelines at --slot-us")
    size.add_argument("--deadline-us", type=float, default=None,
                      help="tightest flow deadline for --optimize")
    size.add_argument("--aggregate", action="store_true",
                      help="with --optimize: aggregate forwarding entries "
                           "per destination")
    size.add_argument("--output", type=Path, default=None,
                      help="write the config JSON here instead of stdout")

    emit = commands.add_parser(
        "emit-rtl", help="generate the parameterized Verilog bundle"
    )
    source = emit.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=sorted(_PRESETS))
    source.add_argument("--config", type=Path,
                        help="SwitchConfig JSON file (e.g. from `size`)")
    emit.add_argument("--outdir", type=Path, required=True)

    simulate = commands.add_parser(
        "simulate", help="run a declarative scenario file"
    )
    simulate.add_argument("scenario", type=Path)
    simulate.add_argument("--summary-json", type=Path, default=None,
                          help="also write the summary as JSON")
    simulate.add_argument("--check", action="store_true",
                          help="pre-flight the configuration against the "
                               "scenario and stop (no simulation)")
    simulate.add_argument("--metrics", type=Path, default=None,
                          help="attach a metrics registry and write its "
                               "snapshot JSON here")
    simulate.add_argument("--chrome-trace", type=Path, default=None,
                          help="record gate/queue/tx/drop traces and write "
                               "Chrome trace-event JSON here (open in "
                               "Perfetto or chrome://tracing)")
    simulate.add_argument("--jsonl-trace", type=Path, default=None,
                          help="also write the raw trace records as JSONL")
    simulate.add_argument("--profile", action="store_true",
                          help="profile wall-clock time per simulation "
                               "component and print the table to stderr")
    simulate.add_argument("--flow-spans", action="store_true",
                          help="record per-frame hop events; journeys show "
                               "as async flow tracks in --chrome-trace and "
                               "a frame-accounting summary on stderr")
    simulate.add_argument("--timeseries", type=Path, default=None,
                          help="sample the metrics registry periodically "
                               "and write the series as CSV here (implies "
                               "a registry even without --metrics)")
    simulate.add_argument("--timeseries-interval-us", type=float,
                          default=1000.0,
                          help="sampling interval for --timeseries "
                               "(default: 1000us)")
    simulate.add_argument("--prom", type=Path, default=None,
                          help="write the final registry state in "
                               "Prometheus text exposition format (implies "
                               "a registry even without --metrics)")
    simulate.add_argument("--flight", type=Path, default=None,
                          help="arm a flight recorder and write its "
                               "post-mortem dump (last kernel events + "
                               "fault firings) here after the run")
    simulate.add_argument("--drops", action="store_true",
                          help="print the per-switch drops-by-reason and "
                               "per-port occupancy tables to stderr")
    simulate.add_argument("--headroom", action="store_true",
                          help="attach occupancy probes and print the "
                               "observed-vs-provisioned resource headroom "
                               "report to stderr (also embedded in the "
                               "summary JSON)")

    metrics = commands.add_parser(
        "metrics",
        help="pretty-print a metrics snapshot (from simulate --metrics)",
    )
    metrics.add_argument("snapshot", type=Path,
                         help="metrics snapshot JSON, or a summary JSON "
                              "embedding one under 'metrics'")
    metrics.add_argument("--json", action="store_true",
                         help="re-emit the snapshot as JSON instead of "
                              "tables (e.g. to extract the embedded "
                              "snapshot from a summary)")

    headroom = commands.add_parser(
        "headroom",
        help="run a scenario with occupancy probes and report "
             "observed-vs-provisioned resource headroom",
    )
    headroom.add_argument("scenario", type=Path)
    headroom.add_argument("--json", action="store_true",
                          help="emit the report as JSON instead of tables")
    headroom.add_argument("--csv", type=Path, default=None,
                          help="also write the per-structure rows as CSV")
    headroom.add_argument("--prom", type=Path, default=None,
                          help="also write the headroom gauges in "
                               "Prometheus text exposition format")
    headroom.add_argument("--margin", type=float, default=1.5,
                          help="queue-depth margin for the cheapest "
                               "sufficient config (default: 1.5, the "
                               "sizing guideline)")

    slo = commands.add_parser(
        "slo",
        help="run a scenario under its SLO policy and print verdicts",
    )
    slo.add_argument("scenario", type=Path)
    slo.add_argument("--json", action="store_true",
                     help="emit the report as JSON instead of tables")
    slo.add_argument("--violations", type=int, default=20,
                     help="individual violations to list (default: 20)")

    faults = commands.add_parser(
        "faults",
        help="run a faulted scenario and print the recovery summary",
    )
    faults.add_argument("scenario", type=Path,
                        help="scenario file with a 'faults' stanza")
    faults.add_argument("--json", action="store_true",
                        help="emit the fault report (and SLO report) as "
                             "JSON instead of tables")

    sched = commands.add_parser(
        "sched",
        help="plan a scenario's TS flows with a scheduling backend "
             "(no simulation) and report the admission/queue-depth/BRAM "
             "outcome",
    )
    sched.add_argument("scenario", type=Path)
    sched.add_argument("--backend", default=None,
                       help="override the scenario's sched.backend "
                            "(greedy, exact, anneal, unplanned)")
    sched.add_argument("--compare", action="store_true",
                       help="run every registered backend and tabulate "
                            "the greedy-vs-optimal gaps")
    sched.add_argument("--json", action="store_true",
                       help="emit the plan summaries as JSON")

    sweep = commands.add_parser(
        "sweep",
        help="run a declarative scenario sweep across a process pool",
    )
    sweep.add_argument("spec", type=Path,
                       help="sweep document: base scenario + grid/list "
                            "overrides (+ seeds)")
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes (1 = run inline; default: 1)")
    sweep.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-run wall-clock budget in seconds")
    sweep.add_argument("--retries", type=int, default=0,
                       help="re-execute a failed/timed-out run up to this "
                            "many times (default: 0)")
    sweep.add_argument("--out", type=Path, default=Path("sweep_out"),
                       help="output directory for runs.jsonl + summary.json "
                            "(default: sweep_out)")
    sweep.add_argument("--list", action="store_true", dest="list_runs",
                       help="print the expanded run table and exit "
                            "(no execution)")
    sweep.add_argument("--event-budget", type=int, default=None, metavar="N",
                       help="deterministic per-run kill switch: abort a run "
                            "(status 'timeout') after N kernel events -- "
                            "trips at the same simulation point on every "
                            "host and worker count")
    sweep.add_argument("--status-file", type=Path, default=None,
                       help="stream live heartbeat records (JSONL) here; "
                            "render with `repro tail`")
    sweep.add_argument("--flight-dir", type=Path, default=None,
                       help="arm a flight recorder in every worker and dump "
                            "the last kernel events of failed runs here")
    sweep.add_argument("--heartbeat-interval-us", type=float, default=None,
                       metavar="US",
                       help="simulation-time spacing of worker heartbeats "
                            "(default: duration/8)")
    sweep.add_argument("--no-ledger", action="store_true",
                       help="skip writing the run ledger "
                            "(<out>/ledger.jsonl)")

    tail = commands.add_parser(
        "tail",
        help="render live progress + ETA from a sweep status file",
    )
    tail.add_argument("status_file", type=Path,
                      help="a sweep's --status-file (or an --out directory "
                           "containing status.jsonl)")
    tail.add_argument("--follow", action="store_true",
                      help="keep re-rendering until the sweep ends")
    tail.add_argument("--interval", type=float, default=2.0, metavar="S",
                      help="refresh interval for --follow (default: 2s)")

    return parser


# ------------------------------------------------------------------ commands


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_table1, render_table3
    from repro.core.presets import (
        bcm53154_config,
        linear_config,
        ring_config,
        star_config,
        table1_case1,
        table1_case2,
    )

    baseline = bcm53154_config().resource_report("Commercial (4 ports)")
    customized = [
        star_config().resource_report("Star (3 ports)"),
        linear_config().resource_report("Linear (2 ports)"),
        ring_config().resource_report("Ring (1 port)"),
    ]
    print(render_table3(baseline, customized))
    if args.table1:
        print()
        print(render_table1(
            table1_case1().resource_report("Case 1"),
            table1_case2().resource_report("Case 2"),
        ))
    return 0


def _us_flag(flag: str, value: float) -> int:
    """*value* microseconds in nanoseconds; a value finer than one
    nanosecond is a usage error that names *flag*."""
    from repro.core.units import us

    try:
        return us(value)
    except ValueError as exc:
        raise TsnBuilderError(f"{flag}: {exc}") from None


def _cmd_size(args: argparse.Namespace) -> int:
    from repro.core.optimizer import optimize
    from repro.core.sizing import derive_config
    from repro.network import topology as topologies
    from repro.traffic.flows import FlowSet
    from repro.traffic.iec60802 import production_cell_flows

    # A flag that does nothing in the chosen mode is refused, not ignored.
    discipline = gating.from_document(args.gate_mechanism)
    refusal = None
    if args.optimize and discipline is not gating.CQF:
        refusal = ("--gate-mechanism qbv cannot be combined with --optimize "
                   "(the search sizes CQF gate tables)")
    elif args.optimize and args.slot_us is not None:
        refusal = "--slot-us cannot be combined with --optimize (the " \
            "search picks the slot)"
    elif args.topology == "star" and args.switches is not None:
        refusal = "--switches does not apply to --topology star"
    elif not args.optimize:
        for flag, given in (("--deadline-us", args.deadline_us is not None),
                            ("--aggregate", args.aggregate)):
            if given:
                refusal = f"{flag} only applies with --optimize"
                break
    if refusal is not None:
        print(f"error: {refusal}", file=sys.stderr)
        return 2
    slot_ns = _us_flag(
        "--slot-us", 62.5 if args.slot_us is None else args.slot_us
    )
    period_ns = _us_flag("--period-us", args.period_us)
    deadline_ns = None if args.deadline_us is None else _us_flag(
        "--deadline-us", args.deadline_us
    )
    builder = getattr(topologies, f"{args.topology}_topology")
    if args.topology == "star":
        topology = builder()
    else:
        topology = builder(
            switch_count=6 if args.switches is None else args.switches
        )
    talkers = [u.host for u in topology.uplinks]
    flows = production_cell_flows(
        talkers,
        topology.attachments[0].host,
        flow_count=args.flows,
        period_ns=period_ns,
        size_bytes=args.size_bytes,
    )
    if args.optimize:
        if deadline_ns is not None:
            flows = FlowSet(
                [flow.with_updates(deadline_ns=deadline_ns) for flow in flows]
            )
        search = optimize(
            topology,
            flows,
            aggregate_switch_entries=args.aggregate,
            name=f"optimized-{args.topology}",
        )
        config = search.best.config
        note = (
            f"# optimized: slot {search.best.slot_ns / 1000:g}us, "
            f"L_max {search.best.worst_latency_ns / 1000:g}us, "
            f"{config.total_bram_kb:g}Kb BRAM"
        )
    else:
        result = derive_config(
            topology,
            flows,
            slot_ns,
            name=f"sized-{args.topology}",
            discipline=discipline,
        )
        config = result.config
        note = (
            f"# total {config.total_bram_kb:g}Kb BRAM; ITP needs queue "
            f"depth {result.required_queue_depth}, configured "
            f"{config.queue_depth} "
            f"(+{result.depth_margin_frames} frames margin)"
        )
    payload = config.to_json()
    if args.output:
        args.output.write_text(payload)
        print(f"wrote {args.output}")
    else:
        print(payload)
    print(note, file=sys.stderr)
    return 0


def _cmd_emit_rtl(args: argparse.Namespace) -> int:
    from repro.core import presets
    from repro.core.builder import TSNBuilder
    from repro.core.config import SwitchConfig

    if args.preset:
        config = getattr(presets, _PRESETS[args.preset])()
    else:
        config = SwitchConfig.from_json(args.config.read_text())
    builder = TSNBuilder(platform="rtl")
    builder.customize(config)
    model = builder.synthesize()
    files = model.emit_verilog(args.outdir)
    for path in files:
        print(path)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.network.scenario import ScenarioSpec

    spec = ScenarioSpec.from_file(args.scenario)
    if args.check:
        from repro.core.errors import InfeasiblePlanError, SlotError
        from repro.network.program import Severity, Violation, \
            check_deployment

        try:  # the RunPlan the run would use, planned once
            violations = check_deployment(spec.build_run_plan())
        except (SlotError, InfeasiblePlanError) as exc:
            # No plan to judge: the flows cannot be slotted, or a derived
            # config cannot be sized from an infeasible plan.
            subject = "slotting" if isinstance(exc, SlotError) else "itp"
            violations = [Violation(Severity.ERROR, subject, str(exc))]
        for violation in violations:
            print(violation)
        errors = [v for v in violations
                  if v.severity is Severity.ERROR]
        print(f"# {len(errors)} error(s), "
              f"{len(violations) - len(errors)} warning(s)",
              file=sys.stderr)
        return 1 if errors else 0
    interval_ns = _us_flag(
        "--timeseries-interval-us", args.timeseries_interval_us
    )
    from repro.analysis.export import result_summary
    from repro.obs.flowspans import FlowSpanRecorder, flow_stats
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.profiler import WallClockProfiler
    from repro.sim.trace import Tracer

    needs_registry = args.metrics or args.timeseries or args.prom
    registry = MetricsRegistry() if needs_registry else None
    tracer = (
        Tracer(enabled={"gate", "queue", "tx", "drop"})
        if args.chrome_trace or args.jsonl_trace
        else None
    )
    profiler = WallClockProfiler() if args.profile else None
    spans = FlowSpanRecorder() if args.flow_spans else None
    headroom = None
    if args.headroom:
        from repro.obs.headroom import HeadroomRecorder

        headroom = HeadroomRecorder()
    testbed = spec.build_testbed(
        metrics=registry, tracer=tracer, profiler=profiler, spans=spans,
        headroom=headroom,
    )
    sampler = None
    if args.timeseries:
        from repro.obs.timeseries import TimeSeriesSampler

        sampler = TimeSeriesSampler(registry, testbed.sim, interval_ns)
        sampler.start()
    recorder = None
    if args.flight:
        from repro.obs.flight import FlightRecorder

        recorder = FlightRecorder()
        testbed.sim.flight = recorder
    result = testbed.run(duration_ns=spec.duration_ns)
    summary = result_summary(result)
    print(json.dumps(summary, indent=2, sort_keys=True))
    if args.summary_json:
        args.summary_json.write_text(
            json.dumps(summary, indent=2, sort_keys=True)
        )
    if args.metrics:
        args.metrics.write_text(registry.to_json())
        print(f"# metrics snapshot: {args.metrics}", file=sys.stderr)
    if args.chrome_trace:
        from repro.obs.chrome_trace import write_chrome_trace

        assert tracer is not None
        write_chrome_trace(tracer.records, args.chrome_trace,
                           span_recorder=spans)
        print(f"# chrome trace ({len(tracer.records)} records): "
              f"{args.chrome_trace}", file=sys.stderr)
    if args.jsonl_trace:
        from repro.obs.chrome_trace import trace_to_jsonl

        assert tracer is not None
        trace_to_jsonl(tracer.records, args.jsonl_trace)
        print(f"# jsonl trace: {args.jsonl_trace}", file=sys.stderr)
    if spans is not None:
        stats = flow_stats(spans.journeys(), result.expected_by_flow)
        lost, dropped, in_flight, dup = (
            sum(getattr(s, name) for s in stats.values())
            for name in ("lost", "dropped", "in_flight", "duplicates")
        )
        print(f"# flow spans: {len(spans)} events, "
              f"{sum(s.frames for s in stats.values())} journeys, "
              f"{lost} lost ({dropped} dropped, {in_flight} in flight), "
              f"{dup} duplicate", file=sys.stderr)
        if spans.dropped_events:
            print(f"# flow spans: {spans.dropped_events} events beyond the "
                  f"recorder cap were not recorded", file=sys.stderr)
    if sampler is not None:
        args.timeseries.write_text(sampler.to_csv())
        print(f"# time series ({sampler.samples_taken} samples, "
              f"{len(sampler.rings)} series): {args.timeseries}",
              file=sys.stderr)
    if args.headroom:
        from repro.analysis.report import render_headroom

        report = result.headroom_report()
        print(render_headroom(report), file=sys.stderr)
        if registry is not None:
            report.publish(registry)
    if args.prom:
        from repro.obs.timeseries import prometheus_exposition

        args.prom.write_text(prometheus_exposition(registry))
        print(f"# prometheus exposition: {args.prom}", file=sys.stderr)
    if recorder is not None:
        recorder.dump_to(
            args.flight,
            context={
                "scenario": spec.name,
                "seed": spec.seed,
                "status": "ok",
                "sim_now_ns": testbed.sim.now,
                "sim_stats": testbed.sim.stats.as_dict(),
            },
        )
        print(f"# flight recorder ({len(recorder)} events, "
              f"{len(recorder.notes())} notes): {args.flight}",
              file=sys.stderr)
    if args.drops:
        print(result.drop_report(), file=sys.stderr)
        print(result.port_report(), file=sys.stderr)
    if profiler is not None:
        print(profiler.render(), file=sys.stderr)
    ts = summary["classes"]["TS"]
    if ts.get("received") and ts["loss"] == 0.0:
        print("# TS: zero loss", file=sys.stderr)
    return 0


def _cmd_headroom(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_headroom, render_port_occupancy
    from repro.network.scenario import ScenarioSpec
    from repro.obs.headroom import HeadroomRecorder

    spec = ScenarioSpec.from_file(args.scenario)
    recorder = HeadroomRecorder()
    result = spec.run(headroom=recorder)
    report = result.headroom_report(queue_depth_margin=args.margin)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(render_headroom(report))
        print()
        print(render_port_occupancy(report))
    if args.csv:
        args.csv.write_text(report.to_csv())
        print(f"# headroom csv: {args.csv}", file=sys.stderr)
    if args.prom:
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.timeseries import prometheus_exposition

        registry = MetricsRegistry()
        report.publish(registry)
        args.prom.write_text(prometheus_exposition(registry))
        print(f"# prometheus exposition: {args.prom}", file=sys.stderr)
    wasted = report.wasted_kb
    print(f"# provisioned {report.provisioned_kb:g}Kb, sufficient "
          f"{report.sufficient_kb:g}Kb, cheapest single config "
          f"{report.cheapest_kb:g}Kb", file=sys.stderr)
    if wasted < 0:
        print(f"# under-provisioned by {-wasted:g}Kb against the "
              f"{args.margin:g}x depth-margin policy", file=sys.stderr)
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_slo
    from repro.network.scenario import ScenarioSpec
    from repro.obs.slo import SloPolicy

    spec = ScenarioSpec.from_file(args.scenario)
    # An absent stanza still monitors flow-definition deadlines.
    policy = spec.build_slo_policy() or SloPolicy()
    result = spec.run(slo_policy=policy)
    report = result.slo
    assert report is not None
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(render_slo(report, max_violations=args.violations))
    if not report.monitored:
        print("# no flow has any SLO bound; nothing was checked",
              file=sys.stderr)
        return 2
    return 0 if report.passed else 1


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_faults, render_slo
    from repro.network.scenario import ScenarioSpec
    from repro.obs.slo import SloPolicy

    spec = ScenarioSpec.from_file(args.scenario)
    if spec.faults is None:
        print(f"error: {args.scenario} declares no 'faults' stanza",
              file=sys.stderr)
        return 2
    # Faults without verdicts are just noise: always attach SLO
    # monitoring so the run says whether the network survived.
    policy = spec.build_slo_policy() or SloPolicy()
    result = spec.run(slo_policy=policy)
    fault_report = result.faults
    slo_report = result.slo
    assert fault_report is not None and slo_report is not None
    if args.json:
        payload = {"faults": fault_report.as_dict(),
                   "slo": slo_report.as_dict()}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_faults(fault_report))
        print()
        print(result.drop_report())
        print()
        print(render_slo(slo_report))
    if slo_report.monitored:
        return 0 if slo_report.passed else 1
    # No SLO bound anywhere: fall back to the raw TS loss signal.
    from repro.traffic.flows import TrafficClass

    ts_loss = result.loss_rate(TrafficClass.TS)
    print("# no flow has any SLO bound; verdict is TS loss only",
          file=sys.stderr)
    return 0 if ts_loss == 0.0 else 1


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_metrics

    data = json.loads(args.snapshot.read_text())
    # Accept either a bare registry snapshot or a summary embedding one.
    snapshot = data.get("metrics", data) if isinstance(data, dict) else data
    if not isinstance(snapshot, dict) or not all(
        isinstance(value, dict) and "kind" in value
        for value in snapshot.values()
    ):
        print(f"error: {args.snapshot} does not contain a metrics snapshot",
              file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        print(render_metrics(snapshot))
    return 0


def _cmd_sched(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.network.scenario import ScenarioSpec
    from repro.sched import available_backends, plan_flows

    spec = ScenarioSpec.from_file(args.scenario)
    policy = spec.build_run_policy()
    discipline = spec.build_discipline()
    topology = spec.build_topology()
    flows = spec.build_flows()
    backends = (
        sorted(available_backends()) if args.compare
        else [args.backend or policy.backend]
    )

    rows = []
    for backend in backends:
        # Options belong to the backend the stanza declared them for;
        # every other backend runs with its defaults.
        per_backend = dataclasses.replace(
            policy, backend=backend,
            options=policy.options if backend == policy.backend else {},
        )
        plan = plan_flows(
            list(flows), spec.slot_ns, spec.rate_bps, policy=per_backend,
            discipline=discipline,
        )
        entry = plan.summary()
        entry["shaper"] = discipline.shaper
        try:
            sizing = spec.derive_sizing(
                topology, flows, plan, sched=per_backend,
                name=f"{spec.name}-{backend}",
            )
            entry["configured_queue_depth"] = sizing.config.queue_depth
            entry["bram_kb"] = sizing.config.total_bram_kb
        except TsnBuilderError as exc:
            entry["sizing_error"] = str(exc)
        rows.append(entry)

    if args.json:
        payload = {
            "scenario": spec.name,
            "slot_us": spec.slot_us,
            "shaper": discipline.shaper,
            "plans": rows,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        header = (f"{'backend':<10} {'status':<11} {'admitted':>8} "
                  f"{'peak':>5} {'depth':>6} {'BRAM Kb':>8}")
        print(header)
        print("-" * len(header))
        for entry in rows:
            admitted = f"{entry['admitted']}/{entry['demanded']}"
            depth = entry.get("configured_queue_depth", "-")
            bram = entry.get("bram_kb", "-")
            bram_s = f"{bram:g}" if isinstance(bram, (int, float)) else bram
            print(f"{entry['backend']:<10} {entry['status']:<11} "
                  f"{admitted:>8} {entry['peak_frames_per_slot']:>5} "
                  f"{depth!s:>6} {bram_s:>8}")
    for entry in rows:
        if entry["status"] == "optimal":
            print(f"# {entry['backend']}: proved peak "
                  f"{entry['peak_frames_per_slot']} frames/slot optimal "
                  f"(lower bound "
                  f"{entry.get('peak_lower_bound', '?')}, "
                  f"{entry['nodes_explored']} nodes)", file=sys.stderr)
        elif entry["status"] == "infeasible":
            print(f"# {entry['backend']}: proved infeasible at slot "
                  f"{spec.slot_us:g}us", file=sys.stderr)
    if not args.compare and rows[0]["status"] in ("infeasible", "unknown"):
        return 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.campaign import Campaign, SweepSpec

    spec = SweepSpec.from_file(args.spec)
    heartbeat_interval_ns = (
        int(args.heartbeat_interval_us * 1000)
        if args.heartbeat_interval_us else None
    )
    campaign = Campaign(
        spec,
        workers=args.workers,
        timeout_s=args.timeout,
        retries=args.retries,
        event_budget=args.event_budget,
        status_file=args.status_file,
        ledger=None if args.no_ledger else args.out / "ledger.jsonl",
        flight_dir=args.flight_dir,
        heartbeat_interval_ns=heartbeat_interval_ns,
    )
    runs = campaign.plan()
    if args.list_runs:
        for run in runs:
            params = json.dumps(run.overrides, sort_keys=True)
            print(f"{run.run_id}  seed={run.seed}  {params}")
        print(f"# {len(runs)} run(s)", file=sys.stderr)
        return 0

    args.out.mkdir(parents=True, exist_ok=True)
    jsonl_path = args.out / "runs.jsonl"
    summary_path = args.out / "summary.json"
    telemetry_path = args.out / "telemetry.json"

    def progress(row, finished, total):
        status = row["status"]
        note = "" if status == "ok" else f" ({row.get('error', status)})"
        print(f"# [{finished}/{total}] {row['run_id']} {status}{note}",
              file=sys.stderr)

    summary = campaign.run(jsonl=jsonl_path, progress=progress)
    summary_path.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    from repro.obs.campaign import telemetry_summary

    telemetry_path.write_text(
        json.dumps(telemetry_summary(spec.name, campaign.telemetry),
                   indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps(summary, indent=2, sort_keys=True))
    print(f"# rows: {jsonl_path}", file=sys.stderr)
    print(f"# summary: {summary_path}", file=sys.stderr)
    if not args.no_ledger:
        print(f"# ledger: {args.out / 'ledger.jsonl'}", file=sys.stderr)
    print(f"# telemetry: {telemetry_path}", file=sys.stderr)
    for flag in campaign.stragglers:
        print(f"# straggler: {flag['run_id']} attempt {flag['attempt']} "
              f"({', '.join(flag['reasons'])}, {flag['wall_s']:.3f}s)",
              file=sys.stderr)
    failed = summary["runs"] - summary["status"].get("ok", 0)
    if failed:
        print(f"# {failed} run(s) did not finish ok", file=sys.stderr)
        return 1
    return 0


def _cmd_tail(args: argparse.Namespace) -> int:
    import time as _time

    from repro.obs.campaign import read_status, render_status

    path = args.status_file
    if path.is_dir():
        path = path / "status.jsonl"
    if not path.exists():
        print(f"error: no status file at {path}", file=sys.stderr)
        return 2
    while True:
        records = read_status(path)
        print(render_status(records))
        if not args.follow:
            return 0
        if any(r.get("hb") == "sweep_end" for r in records):
            return 0
        _time.sleep(args.interval)
        print()


_HANDLERS = {
    "report": _cmd_report,
    "size": _cmd_size,
    "emit-rtl": _cmd_emit_rtl,
    "simulate": _cmd_simulate,
    "metrics": _cmd_metrics,
    "headroom": _cmd_headroom,
    "slo": _cmd_slo,
    "sched": _cmd_sched,
    "sweep": _cmd_sweep,
    "faults": _cmd_faults,
    "tail": _cmd_tail,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except TsnBuilderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
