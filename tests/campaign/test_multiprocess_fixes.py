"""Multi-process sharp edges: watchdog timer semantics, explicit pool
context, worker telemetry.

These are the regression tests for the campaign layer's process-management
fixes: a zero/negative wall-clock budget must *fire* (``setitimer(0)``
silently disables the alarm), teardown must restore a previously armed
itimer (not just the handler), the pool's start method is chosen, and
pool workers report the kernel loop they ran on their telemetry digest.
"""

import signal
import threading

import pytest

from repro.campaign import Campaign, SweepSpec
from repro.campaign.runner import pool_context
from repro.campaign.worker import execute_run

_SCENARIO = {
    "name": "watchdog-point",
    "topology": {"kind": "ring", "switch_count": 2,
                 "talkers": ["talker0"], "listener": "listener"},
    "flows": {"ts_count": 2},
    "config": "derive",
    "slot_us": 62.5,
    "duration_ms": 2,
    "seed": 0,
}


def _payload(**extra):
    payload = {
        "run_id": "wd:0000",
        "index": 0,
        "replicate": 0,
        "seed": 0,
        "overrides": {},
        "scenario": dict(_SCENARIO),
    }
    payload.update(extra)
    return payload


def _alarm_testable():
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


class TestWatchdogEdges:
    def test_zero_timeout_fires_instead_of_disabling(self):
        row = execute_run(_payload(timeout_s=0))
        assert row["status"] == "timeout"
        assert "0" in row["error"]
        # Nothing was simulated: the run never got a chance to start.
        assert "classes" not in row

    def test_negative_timeout_fires_instead_of_raising(self):
        row = execute_run(_payload(timeout_s=-3.5))
        assert row["status"] == "timeout"
        assert row["error"] == "run exceeded -3.5s"

    def test_none_timeout_still_means_unbounded(self):
        row = execute_run(_payload(timeout_s=None))
        assert row["status"] == "ok"

    def test_prior_itimer_and_handler_restored(self):
        if not _alarm_testable():
            pytest.skip("SIGALRM unavailable in this environment")
        fired = []
        prev_handler = signal.signal(
            signal.SIGALRM, lambda *args: fired.append(args)
        )
        signal.setitimer(signal.ITIMER_REAL, 60.0)
        try:
            row = execute_run(_payload(timeout_s=30.0))
            assert row["status"] == "ok"
            # Our handler is back in place...
            restored = signal.getsignal(signal.SIGALRM)
            remaining, interval = signal.setitimer(signal.ITIMER_REAL, 0.0)
            # ...and the outer 60 s timer was re-armed with (roughly) the
            # time it had left, not silently discarded.
            assert 0.0 < remaining <= 60.0
            assert interval == 0.0
            assert callable(restored) and restored is not signal.SIG_DFL
            assert not fired
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, prev_handler)

    def test_no_outer_timer_leaves_alarm_disarmed(self):
        if not _alarm_testable():
            pytest.skip("SIGALRM unavailable in this environment")
        row = execute_run(_payload(timeout_s=30.0))
        assert row["status"] == "ok"
        remaining, _ = signal.setitimer(signal.ITIMER_REAL, 0.0)
        assert remaining == 0.0


class TestPostForkBackendState:
    def test_pool_context_is_explicit(self):
        method = pool_context().get_start_method()
        assert method in ("fork", "spawn")

    def test_worker_reports_its_backend_on_telemetry(self):
        spec = SweepSpec.from_dict({
            "name": "backend-digest",
            "base": dict(_SCENARIO),
            "grid": {"flows.ts_count": [2, 4]},
        })
        campaign = Campaign(spec, workers=2, ledger=None)
        campaign.run()
        assert [t["backend"] for t in campaign.telemetry] == ["py", "py"]
