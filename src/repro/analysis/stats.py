"""Sweep containers for the paper's figures.

A figure is a *series*: an x-axis (hops, packet size, slot size,
background load) against latency summaries, which
:func:`repro.analysis.report.render_series` prints as a table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.network.analyzer import LatencySummary

__all__ = ["SweepPoint", "SweepSeries"]


@dataclass(frozen=True)
class SweepPoint:
    """One x-position of a figure: its latency summary and loss rate."""

    x: float
    label: str
    summary: LatencySummary
    loss: float = 0.0

    @property
    def jitter_us(self) -> float:
        return self.summary.jitter_ns / 1000.0


@dataclass
class SweepSeries:
    """One curve of a figure."""

    name: str
    xlabel: str
    points: List[SweepPoint] = field(default_factory=list)

    def add(self, point: SweepPoint) -> None:
        self.points.append(point)

    @property
    def losses(self) -> List[float]:
        return [p.loss for p in self.points]
