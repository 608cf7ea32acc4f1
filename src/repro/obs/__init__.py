"""Unified observability layer: metrics, profiling, trace export.

Everything the evaluation needs to *see inside* a run lives here:

* :class:`MetricsRegistry` with labeled :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` instruments (:mod:`repro.obs.metrics`);
* the opt-in wall-clock :class:`WallClockProfiler` the kernel hooks
  (:mod:`repro.obs.profiler`);
* pre-bound dataplane instruments (:mod:`repro.obs.instruments`);
* Chrome trace-event / JSONL exporters (:mod:`repro.obs.chrome_trace`);
* frame-journey span recording (:mod:`repro.obs.flowspans`);
* resource-headroom probes and observed-vs-provisioned BRAM accounting
  (:mod:`repro.obs.headroom`);
* per-flow SLO monitors (:mod:`repro.obs.slo`);
* ring-buffered time series + Prometheus/CSV export
  (:mod:`repro.obs.timeseries`);
* the flight recorder black box for post-mortems
  (:mod:`repro.obs.flight`);
* campaign-scale telemetry -- run ledger, worker heartbeats, straggler
  flagging, live status rendering (:mod:`repro.obs.campaign`).

See ``docs/observability.md`` for the metric catalogue and exporter
formats, and ``docs/campaigns.md`` for the sweep-level artifacts.
"""

from repro import _lazy_exports

#: Public name -> the submodule defining it, imported the first time the
#: name is read: ``from repro.obs.flowspans import ...`` loads the span
#: recorder alone.
_EXPORTS = {
    "MetricsRegistry": "metrics",
    "Counter": "metrics",
    "Gauge": "metrics",
    "Histogram": "metrics",
    "log_buckets": "metrics",
    "DEFAULT_LATENCY_BUCKETS_NS": "metrics",
    "SwitchInstruments": "instruments",
    "PortInstruments": "instruments",
    "WallClockProfiler": "profiler",
    "NullProfiler": "profiler",
    "NULL_PROFILER": "profiler",
    "chrome_trace_events": "chrome_trace",
    "gate_span_events": "chrome_trace",
    "instant_events": "chrome_trace",
    "write_chrome_trace": "chrome_trace",
    "trace_to_jsonl": "chrome_trace",
    "FlowSpanRecorder": "flowspans",
    "FrameJourney": "flowspans",
    "flow_stats": "flowspans",
    "HeadroomRecorder": "headroom",
    "HeadroomReport": "headroom",
    "OccupancyProbe": "headroom",
    "PortHeadroomProbes": "headroom",
    "build_headroom_report": "headroom",
    "SloSpec": "slo",
    "SloPolicy": "slo",
    "SloMonitor": "slo",
    "SloReport": "slo",
    "RingBuffer": "timeseries",
    "TimeSeriesSampler": "timeseries",
    "prometheus_exposition": "timeseries",
    "FlightRecorder": "flight",
    "DEFAULT_FLIGHT_CAPACITY": "flight",
    "LedgerWriter": "campaign",
    "HeartbeatWriter": "campaign",
    "WorkerTelemetry": "campaign",
    "sweep_spec_hash": "campaign",
    "read_ledger": "campaign",
    "read_status": "campaign",
    "render_status": "campaign",
    "robust_z_scores": "campaign",
    "flag_stragglers": "campaign",
    "telemetry_summary": "campaign",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
