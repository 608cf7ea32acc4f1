"""Quantifying template reuse across customizations.

The paper's closing claim is qualitative: "the development effort is
reduced dramatically by reusing the templates ... without reprogramming in
many cases."  This module makes it measurable.  Given two synthesized
switch models (two application scenarios), :func:`reuse_report` compares:

* **parameters** -- which of the seven APIs' values changed;
* **generated RTL** -- per-file identical/changed line counts after
  normalizing the configuration-name banner, i.e. how much Verilog a
  developer would have had to touch without the template model (everything)
  versus with it (nothing -- only injected parameters move).

The reuse benchmark prints these numbers for the paper's three scenarios:
the templates' fixed logic is byte-identical across star/linear/ring, and
only parameter-carrying lines differ.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .builder import SwitchModel
from .errors import SynthesisError

__all__ = ["FileDiff", "ReuseReport", "reuse_report"]

_BANNER_RE = re.compile(r"configuration '.*'")


@dataclass(frozen=True)
class FileDiff:
    """Line-level comparison of one generated file across two scenarios."""

    name: str
    total_lines: int
    changed_lines: int


@dataclass
class ReuseReport:
    """How much of scenario A's artifact carries over to scenario B."""

    scenario_a: str
    scenario_b: str
    changed_parameters: Dict[str, Tuple[int, int]] = field(
        default_factory=dict
    )
    file_diffs: List[FileDiff] = field(default_factory=list)

    @property
    def total_lines(self) -> int:
        return sum(d.total_lines for d in self.file_diffs)

    @property
    def changed_lines(self) -> int:
        return sum(d.changed_lines for d in self.file_diffs)

    #: Machine-assembled glue, legitimately regenerated per customization:
    #: the parameter header and the per-port instantiating top level.
    GENERATED_GLUE = ("tsn_params.vh", "tsn_switch_top.v")

    @property
    def reuse_ratio(self) -> float:
        if not self.total_lines:
            return 1.0
        return 1.0 - self.changed_lines / self.total_lines

    @property
    def template_reuse_ratio(self) -> float:
        """Reuse over the five template *bodies* only (glue excluded) --
        the paper's "reuse the templates" claim measured directly."""
        diffs = [d for d in self.file_diffs
                 if d.name not in self.GENERATED_GLUE]
        total = sum(d.total_lines for d in diffs)
        if not total:
            return 1.0
        return 1.0 - sum(d.changed_lines for d in diffs) / total

    @property
    def reprogrammed_nothing(self) -> bool:
        """True when no template body changed beyond parameter-value lines
        -- the paper's "reuse these templates without reprogramming" case.
        The parameter header and the instantiating top level are generated
        glue and excluded by definition."""
        return all(
            diff.changed_lines == 0
            or diff.name in self.GENERATED_GLUE
            or self._only_parameter_lines(diff)
            for diff in self.file_diffs
        )

    _parameter_line_markers = ("parameter", "`define", "localparam")

    def _only_parameter_lines(self, diff: FileDiff) -> bool:
        # populated during construction; see reuse_report
        return diff.name in getattr(self, "_param_only_files", set())


def _normalize(text: str) -> List[str]:
    return [_BANNER_RE.sub("configuration <elided>", line)
            for line in text.splitlines()]


def reuse_report(model_a: SwitchModel, model_b: SwitchModel) -> ReuseReport:
    """Compare two synthesized models' parameters and generated RTL."""
    from repro.rtl.emit import FILE_ORDER

    report = ReuseReport(model_a.config.name, model_b.config.name)
    params_a = {
        k: v
        for template in model_a.template_parameters().values()
        for k, v in template.items()
    }
    params_b = {
        k: v
        for template in model_b.template_parameters().values()
        for k, v in template.items()
    }
    if set(params_a) != set(params_b):
        raise SynthesisError(
            "models expose different parameter sets; are the template sets "
            "compatible?"
        )
    for key, value_a in params_a.items():
        if params_b[key] != value_a:
            report.changed_parameters[key] = (value_a, params_b[key])

    param_only_files = set()
    for name, generator in FILE_ORDER:
        lines_a = _normalize(generator(model_a.config))
        lines_b = _normalize(generator(model_b.config))
        total = max(len(lines_a), len(lines_b))
        changed = sum(
            1
            for left, right in zip(lines_a, lines_b)
            if left != right
        ) + abs(len(lines_a) - len(lines_b))
        diff = FileDiff(name, total, changed)
        report.file_diffs.append(diff)
        changed_pairs = [
            (left, right)
            for left, right in zip(lines_a, lines_b)
            if left != right
        ]
        if len(lines_a) == len(lines_b) and all(
            any(marker in left for marker in
                ReuseReport._parameter_line_markers)
            for left, _ in changed_pairs
        ):
            param_only_files.add(name)
    report._param_only_files = param_only_files  # type: ignore[attr-defined]
    return report
