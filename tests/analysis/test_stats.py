"""Sweep series, and the shape checks the paper's figures assert."""

import pytest

from repro.core.errors import SimulationError
from repro.analysis.stats import SweepPoint
from repro.network.analyzer import LatencySummary
from tests.paper.harness import Panel, relative_spread


def _point(x, mean, jitter=0.0, loss=0.0):
    count = 10
    summary = LatencySummary(
        count=count, min_ns=int(mean - jitter), max_ns=int(mean + jitter),
        mean_ns=mean, jitter_ns=jitter, p99_ns=int(mean + jitter),
    )
    return SweepPoint(x=x, label=str(x), summary=summary, loss=loss)


class TestSweepSeries:
    def _series(self, means, jitters=None):
        series = Panel("s", "x")
        jitters = jitters or [0.0] * len(means)
        for i, (m, j) in enumerate(zip(means, jitters)):
            series.add(_point(i, m, j))
        return series

    def test_accessors(self):
        series = self._series([100.0, 200.0])
        assert [p.x for p in series.points] == [0, 1]
        assert series.means_ns == [100.0, 200.0]
        assert series.losses == [0.0, 0.0]

    def test_monotonic_increasing(self):
        assert self._series([1.0, 2.0, 2.0, 5.0]).is_monotonic_increasing()
        assert not self._series([1.0, 3.0, 2.0]).is_monotonic_increasing()

    def test_monotonic_on_jitter(self):
        series = self._series([1.0, 1.0], jitters=[5.0, 2.0])
        assert not series.is_monotonic_increasing(key="jitter")

    def test_flatness(self):
        assert self._series([100.0, 101.0, 99.5]).is_flat(tolerance=0.05)
        assert not self._series([100.0, 150.0]).is_flat(tolerance=0.05)

    def test_scaling_factor(self):
        assert self._series([100.0, 400.0]).scaling_factor() == 4.0

    def test_scaling_factor_needs_two_points(self):
        with pytest.raises(SimulationError):
            self._series([100.0]).scaling_factor()

    def test_point_unit_helpers(self):
        point = _point(1, 62_500.0, jitter=500.0)
        assert point.jitter_us == 0.5


class TestRelativeSpread:
    def test_constant_series(self):
        assert relative_spread([5.0, 5.0, 5.0]) == 0.0

    def test_spread(self):
        assert relative_spread([90.0, 110.0]) == pytest.approx(0.2)

    def test_zero_mean(self):
        assert relative_spread([0.0, 0.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            relative_spread([])
