"""The per-run unit of work executed inside a worker process.

:func:`execute_run` must stay a module-level function with a picklable
payload/return so ``ProcessPoolExecutor`` can ship it under any start
method.  It never raises: every failure mode -- scenario error, simulation
blow-up, per-run timeout -- comes back as a row with a ``status`` field, so
the parent's retry/streaming logic needs no exception plumbing.

Rows contain only deterministic content (no wall-clock timestamps): the
acceptance bar for the campaign engine is byte-identical rows and
aggregates regardless of worker count, and elapsed times would break that.
Wall-clock telemetry still gets measured per run, but it travels back on
the row's ``_telemetry`` side channel, which the runner strips before any
row reaches JSONL or aggregation; heartbeats stream to the shared status
file instead (see :mod:`repro.obs.campaign`).

Two per-run watchdogs coexist: the wall-clock ``SIGALRM`` (environmental,
nondeterministic by nature) and the kernel's *event budget*
(:class:`~repro.sim.kernel.EventBudgetExceeded`), which trips at exactly
the same simulation point everywhere and therefore yields byte-identical
timeout rows and flight-recorder dumps at any worker count.
"""

from __future__ import annotations

import signal
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional

from repro.core.errors import TsnBuilderError
from repro.sched.problem import SchedulePlan
from repro.sim.kernel import EventBudgetExceeded

__all__ = ["execute_run", "RunTimeout"]


class RunTimeout(Exception):
    """A single run exceeded its wall-clock budget."""


def _alarm_supported() -> bool:
    # SIGALRM only exists on POSIX and only fires in the main thread.
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


def _raise_timeout(signum, frame):  # pragma: no cover - trivial
    raise RunTimeout()


def execute_run(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one expanded scenario and digest the result into a JSONL row."""
    from repro.network.scenario import ScenarioSpec
    from repro.obs.campaign import WorkerTelemetry, flight_dump_name

    attempt = payload.get("attempt", 1)
    row: Dict[str, Any] = {
        "run_id": payload["run_id"],
        "index": payload["index"],
        "replicate": payload["replicate"],
        "seed": payload["seed"],
        "params": payload["overrides"],
    }
    timeout_s = payload.get("timeout_s")
    telemetry = WorkerTelemetry(
        payload["run_id"],
        attempt=attempt,
        index=payload["index"],
        status_path=payload.get("status_file"),
        interval_ns=payload.get("heartbeat_interval_ns"),
    )
    if timeout_s is not None and timeout_s <= 0:
        # An exhausted (zero/negative) budget must *fire*, not arm:
        # ``setitimer(ITIMER_REAL, 0.0)`` silently disables the timer and
        # a negative value raises -- either way the run would proceed
        # unwatched.  Short-circuit to the same row a fired alarm yields.
        row["status"] = "timeout"
        row["error"] = f"run exceeded {timeout_s:g}s"
        row["_telemetry"] = telemetry.finish(row["status"], row["error"])
        return row
    use_alarm = timeout_s is not None and _alarm_supported()
    recorder = None
    testbed: Optional[Any] = None
    sim: Optional[Any] = None
    if use_alarm:
        previous = signal.signal(signal.SIGALRM, _raise_timeout)
        armed_at = time.monotonic()
        # setitimer returns the timer it displaced; teardown re-arms it
        # (minus our elapsed time) so an outer watchdog keeps ticking.
        prior_timer = signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        spec = ScenarioSpec.from_dict(payload["scenario"])
        testbed = spec.build_testbed()
        sim = testbed.sim
        if payload.get("flight_dir"):
            from repro.obs.flight import FlightRecorder

            recorder = FlightRecorder()
            sim.flight = recorder
        if payload.get("event_budget"):
            sim.event_budget = int(payload["event_budget"])
        telemetry.attach(sim, spec.duration_ns)
        result = testbed.run(duration_ns=spec.duration_ns)
        row.update(_measurements(result, testbed.base_config))
        row["status"] = "ok"
    except RunTimeout:
        row["status"] = "timeout"
        row["error"] = f"run exceeded {timeout_s:g}s"
    except EventBudgetExceeded as exc:
        # The deterministic timeout: same sim point on every host.
        row["status"] = "timeout"
        row["error"] = str(exc)
    except TsnBuilderError as exc:
        row["status"] = "error"
        row["error"] = str(exc)
        row["error_type"] = type(exc).__name__
    except Exception as exc:  # simulation bugs must not kill the campaign
        row["status"] = "error"
        row["error"] = f"{type(exc).__name__}: {exc}"
        row["error_type"] = type(exc).__name__
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            prior_delay, prior_interval = prior_timer
            if prior_delay > 0.0:
                # Restore the displaced itimer with whatever time it had
                # left; clamp at a minimal positive delay (0 would disable
                # it) so an already-due outer timer fires immediately.
                remaining = max(
                    prior_delay - (time.monotonic() - armed_at), 1e-6
                )
                signal.setitimer(
                    signal.ITIMER_REAL, remaining, prior_interval
                )
        if testbed is not None:
            # Frees the point's devices here, even while an exception's
            # traceback still holds the testbed, so a worker's memory
            # stays flat across points; after the alarm is disarmed, so
            # it cannot interrupt the teardown.
            testbed.close()
    if recorder is not None and row["status"] != "ok":
        name = flight_dump_name(payload["run_id"], attempt)
        context = {
            "run_id": payload["run_id"],
            "attempt": attempt,
            "seed": payload["seed"],
            "status": row["status"],
            "error": row.get("error"),
        }
        if sim is not None:
            context["sim_now_ns"] = sim.now
            context["sim_stats"] = sim.stats.as_dict()
        recorder.dump_to(Path(payload["flight_dir"]) / name, context)
        row["flight_dump"] = name
    digest = telemetry.finish(row["status"], row.get("error"))
    if sim is not None:
        # Which kernel loop ran, for the run manifest (telemetry side
        # channel, not the row).
        digest["backend"] = sim.backend
    row["_telemetry"] = digest
    return row


def _measurements(result, config) -> Dict[str, Any]:
    classes = result.analyzer.class_digest(result.expected_by_flow)
    ts = classes.get("TS", {})
    slo = result.slo
    qos_ok = ts.get("loss") == 0.0 and bool(ts.get("received"))
    if slo is not None and slo.monitored:
        qos_ok = qos_ok and slo.passed
    # Recorder-less headroom report: every input is deterministic sim state
    # (high waters, table fills), so rows stay byte-identical at any worker
    # count and the probes' overhead is never paid inside campaigns.
    # ``observed_bram_kb`` is the cheapest single sufficient config, the
    # same one-customization cost basis as ``bram_kb``.  Both read the
    # report's own costing: each distinct sizing is costed once a point.
    headroom = result.headroom_report()
    bram_kb = headroom.total_kb(config)
    observed_kb = headroom.cheapest_kb
    measurements: Dict[str, Any] = {
        "bram_kb": bram_kb,
        "observed_bram_kb": round(observed_kb, 3),
        "wasted_bram_kb": round(bram_kb - observed_kb, 3),
        "utilization": headroom.utilization_digest(),
        "classes": classes,
        "max_queue_high_water": result.max_queue_high_water(),
        "max_buffer_high_water": result.max_buffer_high_water(),
        "qos_ok": qos_ok,
    }
    plan = result.sched_plan
    if isinstance(plan, SchedulePlan):  # one slot grid: not under multi_cqf
        measurements["depth_margin_frames"] = (
            config.queue_depth - plan.required_queue_depth
        )
    if plan is not None:
        measurements["sched"] = {
            "backend": plan.backend,
            "status": plan.status,
            "admitted": plan.admitted_count,
            "demanded": plan.demand_count,
            "admission_rate": round(plan.admission_rate, 6),
            "required_queue_depth": plan.required_queue_depth,
        }
    if slo is not None:
        measurements["slo"] = {
            "passed": slo.passed,
            "monitored_flows": slo.monitored,
        }
    faults = getattr(result, "faults", None)
    if faults is not None:
        gptp = faults.gptp or {}
        measurements["faults"] = {
            "events": len(faults.timeline),
            "frames_lost_in_failover": faults.frames_lost_in_failover,
            "frer_eliminated": faults.frer_eliminated,
            "gptp_elections": gptp.get("elections", 0),
        }
    return measurements
