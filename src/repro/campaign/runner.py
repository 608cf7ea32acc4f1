"""Executing a campaign: process pool, timeouts, retries, JSONL streaming.

:class:`Campaign` is the programmatic face of ``repro sweep``.  It expands
a :class:`~repro.campaign.spec.SweepSpec`, farms the runs out to a
``ProcessPoolExecutor`` (or runs them inline for ``workers=1``), retries
failed/timed-out runs up to a bound, and streams every finished row to a
JSONL sink the moment it completes -- a crashed campaign leaves all its
finished work on disk.

Determinism contract: row *content* is a pure function of the sweep
document (seeds are derived, wall-clock never enters a row), so any worker
count produces the same row set; only JSONL file order varies with
completion order.  The aggregate re-sorts by run index first and is
therefore byte-identical across worker counts -- the property
``benchmarks/bench_campaign.py`` asserts while measuring scaling.

Observability (PR 6) threads through here without touching that contract:
the *run ledger* records only deterministic identity/outcome fields, the
wall-clock-bearing telemetry each worker measures rides back on the row's
``_telemetry`` side channel and is stripped before the row is written or
aggregated, and heartbeats stream to a separate status file.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, IO, List, Optional, \
    Union

from repro.obs.campaign import HeartbeatWriter, LedgerWriter, \
    flag_stragglers
from .pareto import aggregate_rows
from .spec import PlannedRun, SweepSpec
from .worker import execute_run

if TYPE_CHECKING:
    from multiprocessing.context import BaseContext

__all__ = ["Campaign", "pool_context"]

Progress = Callable[[Dict[str, Any], int, int], None]


def pool_context() -> BaseContext:
    """The explicit multiprocessing context campaign pools run under.

    ``fork`` where the platform offers it (cheap, and the worker payload
    is picklable either way), ``spawn`` elsewhere -- but always *chosen*,
    never the interpreter default, so behaviour cannot silently change
    with the Python version's default start method.  Imported here: a
    process that builds no pool never loads ``multiprocessing``.
    """
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


class Campaign:
    """Execute every run of a sweep and aggregate the results.

    Parameters
    ----------
    spec:
        The sweep to execute.
    workers:
        Process count.  ``1`` runs inline in this process (no pool, no
        pickling) -- the reference execution the parallel path must match.
    timeout_s:
        Per-run wall-clock budget, enforced inside the worker via
        ``SIGALRM`` (ignored on platforms/threads without it).
    retries:
        How many times a non-``ok`` run is re-executed before its last row
        is accepted.  Deterministic failures fail identically every
        attempt; the bound exists for runs killed by environmental noise
        (timeouts on a loaded box).  Earlier attempts are never silently
        overwritten: the accepted row carries ``attempts`` plus an
        ``attempt_history`` of every prior attempt's outcome.
    event_budget:
        Deterministic per-run kill switch: abort a run (status
        ``timeout``) once its kernel has fired this many events.  Unlike
        ``timeout_s`` this trips at the same simulation point on every
        host and worker count, so the resulting rows, ledger records and
        flight dumps are byte-identical wherever the sweep runs.
    status_file:
        Heartbeat stream (JSONL) shared by the runner and all workers;
        render it live with ``repro tail``.
    ledger:
        Path for the append-only run ledger (JSONL, deterministic
        content; see :class:`repro.obs.campaign.LedgerWriter`).
    flight_dir:
        Directory for flight-recorder post-mortems.  When set, every
        worker arms a :class:`~repro.obs.flight.FlightRecorder` and each
        failed attempt dumps its last kernel events there.
    heartbeat_interval_ns:
        Simulation-time spacing of worker heartbeats (default: one
        eighth of the scenario duration).
    """

    def __init__(
        self,
        spec: SweepSpec,
        workers: int = 1,
        timeout_s: Optional[float] = None,
        retries: int = 0,
        event_budget: Optional[int] = None,
        status_file: Union[None, str, Path] = None,
        ledger: Union[None, str, Path] = None,
        flight_dir: Union[None, str, Path] = None,
        heartbeat_interval_ns: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if event_budget is not None and event_budget < 1:
            raise ValueError(
                f"event_budget must be >= 1, got {event_budget}"
            )
        self.spec = spec
        self.workers = workers
        self.timeout_s = timeout_s
        self.retries = retries
        self.event_budget = event_budget
        self.status_file = status_file
        self.ledger = ledger
        self.flight_dir = flight_dir
        self.heartbeat_interval_ns = heartbeat_interval_ns
        #: Per-attempt telemetry digests, populated by :meth:`run`.
        self.telemetry: List[Dict[str, Any]] = []
        #: Straggler/anomaly flags over :attr:`telemetry`.
        self.stragglers: List[Dict[str, Any]] = []

    # ------------------------------------------------------------- running

    def plan(self) -> List[PlannedRun]:
        return self.spec.expand()

    def run(
        self,
        jsonl: Union[None, str, Path, IO[str]] = None,
        progress: Optional[Progress] = None,
    ) -> Dict[str, Any]:
        """Execute all runs; returns the aggregate summary document.

        *jsonl* (path or open text handle) receives one row per finished
        run, written and flushed in completion order.  *progress* is called
        with ``(row, finished_count, total)`` after each run.  The full row
        list is available afterwards as :attr:`rows`.
        """
        runs = self.plan()
        payloads = [run.as_payload() for run in runs]
        status_path = (
            str(self.status_file) if self.status_file is not None else None
        )
        flight_dir = (
            str(self.flight_dir) if self.flight_dir is not None else None
        )
        for payload in payloads:
            payload["timeout_s"] = self.timeout_s
            payload["event_budget"] = self.event_budget
            payload["status_file"] = status_path
            payload["flight_dir"] = flight_dir
            payload["heartbeat_interval_ns"] = self.heartbeat_interval_ns

        sink: Optional[IO[str]] = None
        owns_sink = False
        if jsonl is not None:
            if hasattr(jsonl, "write"):
                sink = jsonl  # type: ignore[assignment]
            else:
                path = Path(jsonl)
                path.parent.mkdir(parents=True, exist_ok=True)
                sink = path.open("w")
                owns_sink = True

        ledger = None
        if self.ledger is not None:
            ledger = LedgerWriter(
                self.ledger,
                sweep=self.spec.name,
                spec_hash=self.spec.spec_hash(),
                runs=len(runs),
            )
        status = None
        if status_path is not None:
            status = HeartbeatWriter(status_path)
            status.write(
                {
                    "hb": "sweep",
                    "sweep": self.spec.name,
                    "spec_hash": self.spec.spec_hash(),
                    "total": len(runs),
                    "workers": self.workers,
                    "t": time.time(),
                }
            )

        rows: List[Dict[str, Any]] = []
        self.telemetry = []
        status_counts: Dict[str, int] = {}

        def finish(row: Dict[str, Any]) -> None:
            telemetry = row.pop("_telemetry", None)
            if telemetry is not None:
                self.telemetry.append(telemetry)
            status_counts[row["status"]] = (
                status_counts.get(row["status"], 0) + 1
            )
            if ledger is not None:
                ledger.record_run(row)
            rows.append(row)
            if sink is not None:
                sink.write(json.dumps(row, sort_keys=True) + "\n")
                sink.flush()
            if progress is not None:
                progress(row, len(rows), len(runs))

        try:
            if self.workers == 1:
                self._run_inline(payloads, finish)
            else:
                self._run_pool(payloads, finish)
        finally:
            if ledger is not None:
                ledger.close(status_counts)
            if status is not None:
                status.write(
                    {
                        "hb": "sweep_end",
                        "sweep": self.spec.name,
                        "t": time.time(),
                        "status": status_counts,
                    }
                )
                status.close()
            if owns_sink and sink is not None:
                sink.close()

        self.stragglers = flag_stragglers(self.telemetry)
        self.rows = rows
        return aggregate_rows(self.spec.name, rows)

    # ------------------------------------------------------------ backends

    def _attempts(self, payload: Dict[str, Any]) -> int:
        return self.retries + 1

    def _collect_telemetry(self, row: Dict[str, Any]) -> None:
        """Harvest a *retried* attempt's telemetry before it is replaced.

        The accepted attempt's telemetry is popped in ``finish``; failed
        attempts would otherwise vanish -- and a straggler analysis that
        cannot see the timed-out first attempt is useless.
        """
        telemetry = row.pop("_telemetry", None)
        if telemetry is not None:
            self.telemetry.append(telemetry)

    @staticmethod
    def _attempt_record(row: Dict[str, Any], attempt: int) -> Dict[str, Any]:
        """The retry-lineage digest of one superseded attempt."""
        record: Dict[str, Any] = {
            "attempt": attempt,
            "status": row["status"],
        }
        if row.get("error") is not None:
            record["error"] = row["error"]
        if row.get("flight_dump") is not None:
            record["flight_dump"] = row["flight_dump"]
        return record

    def _run_inline(
        self, payloads: List[Dict[str, Any]], finish: Callable
    ) -> None:
        for payload in payloads:
            row: Dict[str, Any] = {}
            history: List[Dict[str, Any]] = []
            for attempt in range(1, self._attempts(payload) + 1):
                row = execute_run(dict(payload, attempt=attempt))
                row["attempts"] = attempt
                if row["status"] == "ok" or attempt > self.retries:
                    break
                history.append(self._attempt_record(row, attempt))
                self._collect_telemetry(row)
            if history:
                row["attempt_history"] = history
            finish(row)

    def _run_pool(
        self, payloads: List[Dict[str, Any]], finish: Callable
    ) -> None:
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, \
            wait

        with ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=pool_context(),
        ) as pool:
            pending = {}
            for payload in payloads:
                payload = dict(payload, attempt=1)
                future = pool.submit(execute_run, payload)
                pending[future] = (payload, 1, [])
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    payload, attempt, history = pending.pop(future)
                    try:
                        row = future.result()
                    except Exception as exc:  # worker process died
                        row = {
                            "run_id": payload["run_id"],
                            "index": payload["index"],
                            "replicate": payload["replicate"],
                            "seed": payload["seed"],
                            "params": payload["overrides"],
                            "status": "error",
                            "error": f"worker crashed: {exc}",
                            "error_type": type(exc).__name__,
                        }
                    if row["status"] != "ok" and attempt <= self.retries:
                        history = history + [
                            self._attempt_record(row, attempt)
                        ]
                        self._collect_telemetry(row)
                        payload = dict(payload, attempt=attempt + 1)
                        retry = pool.submit(execute_run, payload)
                        pending[retry] = (payload, attempt + 1, history)
                        continue
                    row["attempts"] = attempt
                    if history:
                        row["attempt_history"] = history
                    finish(row)
