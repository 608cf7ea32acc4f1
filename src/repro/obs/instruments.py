"""Pre-bound dataplane instruments: the switch's view of the registry.

The dataplane fires millions of events per simulated second, so it must not
pay registry/label resolution per frame.  :class:`SwitchInstruments` does
all of that once at device-build time -- one metric name space shared by
every switch, one bound series per (switch, port, queue) -- and hands each
:class:`~repro.switch.port.EgressPort` a :class:`PortInstruments` whose
methods only bump plain integer fields.

Metric catalogue (labels in parentheses):

===========================  =========  ====================================
``frames_total``             counter    (switch, event: received/forwarded/
                                        transmitted)
``drops_total``              counter    (switch, reason)
``meter_decisions_total``    counter    (switch, decision: conform/violate)
``gate_flips_total``         counter    (switch, port, direction: in/out)
``queue_depth``              gauge      (switch, port, queue) + high-water
``buffer_in_use``            gauge      (switch, port) + high-water
``queue_residence_ns``       histogram  (switch, port, queue), log-ns buckets
===========================  =========  ====================================
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from .metrics import (
    CounterSeries,
    GaugeSeries,
    HistogramSeries,
    MetricsRegistry,
)

__all__ = ["SwitchInstruments", "PortInstruments"]


class PortInstruments:
    """Bound series for one egress port; every method is O(1) field math."""

    __slots__ = (
        "_queue_depth",
        "_residence",
        "_buffer",
        "_transmitted",
        "_gate_flips",
        "_drops",
    )

    def __init__(
        self,
        queue_depth: Dict[int, GaugeSeries],
        residence: Dict[int, HistogramSeries],
        buffer_in_use: GaugeSeries,
        transmitted: CounterSeries,
        gate_flips: Dict[str, CounterSeries],
        drops: Dict[str, CounterSeries],
    ) -> None:
        self._queue_depth = queue_depth
        self._residence = residence
        self._buffer = buffer_in_use
        self._transmitted = transmitted
        self._gate_flips = gate_flips
        self._drops = drops

    # Gauge and counter fields are written here directly (what
    # ``GaugeSeries.set`` / ``CounterSeries.inc`` do): one call per event.

    def on_enqueue(self, queue_id: int, occupancy: int) -> None:
        series = self._queue_depth.get(queue_id)
        if series is not None:
            series.value = occupancy
            if occupancy > series.high_water:
                series.high_water = occupancy

    def on_dequeue(self, queue_id: int, occupancy: int,
                   residence_ns: int) -> None:
        series = self._queue_depth.get(queue_id)
        if series is not None:
            series.value = occupancy
            if occupancy > series.high_water:
                series.high_water = occupancy
        histogram = self._residence.get(queue_id)
        if histogram is not None:
            histogram.observe(residence_ns)

    def on_buffer(self, in_use: int) -> None:
        series = self._buffer
        series.value = in_use
        if in_use > series.high_water:
            series.high_water = in_use

    def on_transmitted(self) -> None:
        self._transmitted.value += 1

    def on_gate_flip(self, direction: str) -> None:
        self._gate_flips[direction].value += 1

    def on_drop(self, reason: str) -> None:
        self._drops[reason].value += 1


class SwitchInstruments:
    """One switch's bound instrument set over a shared registry."""

    #: Drop reasons the egress path can produce (pre-bound per port).
    PORT_DROP_REASONS = ("gate", "tail", "no_buffer")

    def __init__(self, registry: MetricsRegistry, switch: str) -> None:
        self.registry = registry
        self.switch = switch
        frames = registry.counter(
            "frames_total", help="Frames by lifecycle event"
        )
        self._received = frames.labels(switch=switch, event="received")
        self._forwarded = frames.labels(switch=switch, event="forwarded")
        self._transmitted = frames.labels(switch=switch, event="transmitted")
        self._drops = registry.counter(
            "drops_total", help="Dropped frames by reason"
        )
        self._drop_series: Dict[str, CounterSeries] = {}
        meter = registry.counter(
            "meter_decisions_total", help="Policer conform/violate decisions"
        )
        self._conform = meter.labels(switch=switch, decision="conform")
        self._violate = meter.labels(switch=switch, decision="violate")
        self._gate_flips = registry.counter(
            "gate_flips_total", help="GCL boundaries narrated per port"
        )
        self._queue_depth = registry.gauge(
            "queue_depth", help="Instantaneous queue occupancy (descriptors)"
        )
        self._buffer_in_use = registry.gauge(
            "buffer_in_use", help="Buffer-pool slots in use"
        )
        self._residence = registry.histogram(
            "queue_residence_ns",
            help="Enqueue-to-dequeue residence time per queue",
        )

    # --------------------------------------------------------- switch level

    def on_received(self) -> None:
        self._received.value += 1

    def on_forwarded(self) -> None:
        self._forwarded.value += 1

    def on_meter(self, conformed: bool) -> None:
        (self._conform if conformed else self._violate).value += 1

    def _drop(self, reason: str) -> CounterSeries:
        series = self._drop_series.get(reason)
        if series is None:
            series = self._drop_series[reason] = self._drops.labels(
                switch=self.switch, reason=reason
            )
        return series

    def on_drop(self, reason: str) -> None:
        self._drop(reason).value += 1

    # ----------------------------------------------------------- port level

    def for_port(self, port_id: int, queue_ids: Iterable[int]) -> PortInstruments:
        """Bind every per-queue series of one port up front."""
        queue_ids = tuple(queue_ids)
        labels = {"switch": self.switch, "port": port_id}
        return PortInstruments(
            queue_depth={
                queue_id: self._queue_depth.labels(**labels, queue=queue_id)
                for queue_id in queue_ids
            },
            residence={
                queue_id: self._residence.labels(**labels, queue=queue_id)
                for queue_id in queue_ids
            },
            buffer_in_use=self._buffer_in_use.labels(**labels),
            transmitted=self._transmitted,
            gate_flips={
                direction: self._gate_flips.labels(**labels,
                                                   direction=direction)
                for direction in ("in", "out")
            },
            drops={
                reason: self._drop(reason)
                for reason in self.PORT_DROP_REASONS
            },
        )
