"""Template reuse quantification."""

import pytest

from repro.core.builder import TSNBuilder
from repro.core.presets import (
    bcm53154_config,
    linear_config,
    ring_config,
    star_config,
)
from repro.core.reuse import reuse_report


def _model(config):
    builder = TSNBuilder()
    builder.customize(config)
    return builder.synthesize()


class TestReuseReport:
    def test_identical_configs_fully_reused(self):
        report = reuse_report(_model(ring_config()), _model(ring_config()))
        assert report.changed_parameters == {}
        assert report.changed_lines == 0
        assert report.reuse_ratio == 1.0
        assert report.reprogrammed_nothing

    def test_cross_topology_changes_only_parameters(self):
        """The paper's scenario change: star -> ring.  Zero reprogramming."""
        report = reuse_report(_model(star_config()), _model(ring_config()))
        assert report.changed_parameters == {"port_num": (3, 1)}
        assert report.reprogrammed_nothing
        # the top level re-instantiates per port, so some lines move there,
        # but the template bodies change at most in their parameter section
        assert report.template_reuse_ratio > 0.99

    def test_reuse_ratio_high_across_commercial_and_custom(self):
        report = reuse_report(_model(bcm53154_config()), _model(ring_config()))
        # seven parameters move, yet >80% of all generated lines and >97%
        # of the template bodies survive verbatim
        assert report.reuse_ratio > 0.80
        assert report.template_reuse_ratio > 0.97
        assert report.reprogrammed_nothing
        assert "unicast_size" in report.changed_parameters
        assert "queue_depth" in report.changed_parameters

    def test_per_file_accounting_sums(self):
        report = reuse_report(_model(linear_config()), _model(ring_config()))
        assert report.total_lines == sum(
            d.total_lines for d in report.file_diffs
        )
        assert report.changed_lines == sum(
            d.changed_lines for d in report.file_diffs
        )
        for diff in report.file_diffs:
            assert 0 <= diff.changed_lines <= diff.total_lines

    def test_width_change_is_reprogramming(self):
        """Changing an entry layout is not a parameter tweak: the generated
        memories change shape beyond the parameter section."""
        from repro.core.config import EntryWidths

        altered = ring_config().with_updates(
            widths=EntryWidths(class_tbl=140)
        )
        report = reuse_report(_model(ring_config()), _model(altered))
        assert "class_size" not in report.changed_parameters  # size equal
        assert report.changed_lines > 0
