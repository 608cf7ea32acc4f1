"""TSN-Builder itself: template selection, parameter injection, synthesis.

The developer workflow reproduces paper Section III.C:

1. pick the function templates (the default set covers the five-component
   composition of Fig. 3);
2. inject the application-specific resource parameters through the
   :class:`~repro.core.api.CustomizationAPI` (or hand a finished
   :class:`~repro.core.config.SwitchConfig`, e.g. one derived by the
   :mod:`~repro.core.sizing` guidelines);
3. ``synthesize()`` -- check template coverage and get a
   :class:`SwitchModel` bound to a platform backend (``customize()``
   already validated the parameters).

The model is the platform-independence boundary: the same ``SwitchModel``
can ``instantiate()`` a behavioural :class:`~repro.switch.device.TsnSwitch`
for the simulation testbed, or ``emit_verilog()`` the parameterized RTL of
the five templates (what the FPGA flow would synthesize).
``instantiate()`` is the only place a ``TsnSwitch`` is built for a
testbed: :class:`~repro.network.testbed.Testbed` synthesizes one model per
distinct port count and instantiates every node from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.switch.device import TsnSwitch

from .api import CustomizationAPI
from .config import SwitchConfig
from .errors import SynthesisError
from .resources import Component, ResourceReport
from .templates import (
    FunctionTemplate,
    check_complete,
    default_template_set,
)

__all__ = ["TSNBuilder", "SwitchModel", "PLATFORMS"]

#: Supported elaboration backends.
PLATFORMS = ("sim", "rtl")


@dataclass
class SwitchModel:
    """A synthesized switch: templates + frozen resource configuration."""

    config: SwitchConfig
    templates: List[FunctionTemplate]
    platform: str = "sim"

    def resource_report(self, title: Optional[str] = None) -> ResourceReport:
        """The model's BRAM consumption (a Table III column)."""
        return self.config.resource_report(title)

    @property
    def total_bram_kb(self) -> float:
        return self.config.total_bram_kb

    def template_parameters(self) -> Dict[str, Dict[str, int]]:
        """Per-template view of the injected parameters (for reports)."""
        return {
            template.name: template.parameters(self.config)
            for template in self.templates
        }

    def __post_init__(self) -> None:
        # Resolved once: every switch this model instantiates arbitrates
        # through the Egress Sched template's factory.
        by_component = {t.component: t for t in self.templates}
        self._scheduler_factory = by_component[
            Component.EGRESS_SCHED
        ].scheduler_factory

    # ----------------------------------------------------------- sim backend

    def instantiate(
        self, sim, name: Optional[str] = None, **kwargs
    ) -> TsnSwitch:
        """Build the behavioural switch for the simulation platform.

        The Egress Sched template supplies the per-port scheduler factory,
        so replacing that template changes the arbitration logic of every
        instantiated switch.  *name* renames the switch and its config (a
        testbed node); extra keyword arguments pass through to
        :class:`~repro.switch.device.TsnSwitch` (rate, clock, tracer, ...).
        """
        config = self.config if name is None else self.config.with_updates(
            name=name
        )
        return TsnSwitch(
            sim, config, scheduler_factory=self._scheduler_factory, **kwargs
        )

    # ----------------------------------------------------------- rtl backend

    def emit_verilog(self, outdir: Union[str, Path]) -> List[Path]:
        """Write the parameterized Verilog of every template to *outdir*."""
        from repro.rtl.emit import emit_switch  # late: layering

        return emit_switch(self, Path(outdir))


class TSNBuilder:
    """The entry point of the developing model."""

    def __init__(self, platform: str = "sim"):
        if platform not in PLATFORMS:
            raise SynthesisError(
                f"unknown platform {platform!r}; expected one of {PLATFORMS}"
            )
        self.platform = platform
        self._templates: List[FunctionTemplate] = default_template_set()
        self._config: Optional[SwitchConfig] = None

    # ------------------------------------------------------------- templates

    @property
    def templates(self) -> List[FunctionTemplate]:
        return list(self._templates)

    def use_templates(self, templates: Sequence[FunctionTemplate]) -> None:
        """Replace the template set (e.g. a custom Egress Sched variant).

        Coverage of all five components is checked at synthesis, not here,
        so sets can be assembled incrementally.
        """
        self._templates = list(templates)

    def replace_template(self, template: FunctionTemplate) -> None:
        """Swap in *template* for whichever one covers the same component."""
        kept = [
            t for t in self._templates if t.component is not template.component
        ]
        if len(kept) == len(self._templates):
            raise SynthesisError(
                f"no existing template covers {template.component.value!r}"
            )
        self._templates = kept + [template]

    # ----------------------------------------------------------- customization

    def customize(self, source: Union[SwitchConfig, CustomizationAPI]) -> None:
        """Inject the resource parameters (a config or a completed API)."""
        if isinstance(source, CustomizationAPI):
            self._config = source.build()
        else:
            source.validate()
            self._config = source

    # --------------------------------------------------------------- synthesis

    def synthesize(self) -> SwitchModel:
        """Check template coverage and freeze the switch model.

        The config was validated when :meth:`customize` injected it.
        """
        if self._config is None:
            raise SynthesisError(
                "no resource configuration injected; call customize() first"
            )
        check_complete(self._templates)
        return SwitchModel(
            config=self._config,
            templates=list(self._templates),
            platform=self.platform,
        )
