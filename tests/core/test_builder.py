"""TSNBuilder synthesis workflow."""

import pytest

from repro.core.api import CustomizationAPI
from repro.core.builder import PLATFORMS, SwitchModel, TSNBuilder
from repro.core.errors import SynthesisError
from repro.core.presets import ring_config, star_config
from repro.core.resources import Component
from repro.core.templates import EgressSchedTemplate, GateCtrlTemplate
from repro.sim.kernel import Simulator
from repro.switch.scheduler import (
    DeficitRoundRobinScheduler,
    StrictPriorityScheduler,
)


class TestTSNBuilder:
    def test_platforms(self):
        assert set(PLATFORMS) == {"sim", "rtl"}

    def test_unknown_platform_rejected(self):
        with pytest.raises(SynthesisError):
            TSNBuilder(platform="asic")

    def test_synthesize_without_customize_rejected(self):
        with pytest.raises(SynthesisError, match="customize"):
            TSNBuilder().synthesize()

    def test_synthesize_from_config(self):
        builder = TSNBuilder()
        builder.customize(ring_config())
        model = builder.synthesize()
        assert isinstance(model, SwitchModel)
        assert model.total_bram_kb == 2106

    def test_synthesize_from_api(self):
        builder = TSNBuilder()
        config = star_config()
        builder.customize(CustomizationAPI(config.name, widths=config.widths)
                          .replay(config))
        assert builder.synthesize().total_bram_kb == 5778

    def test_replace_template(self):
        class MyGateCtrl(GateCtrlTemplate):
            pass

        builder = TSNBuilder()
        builder.replace_template(MyGateCtrl())
        builder.customize(ring_config())
        model = builder.synthesize()
        kinds = {type(t).__name__ for t in model.templates}
        assert "MyGateCtrl" in kinds and "GateCtrlTemplate" not in kinds

    def test_replace_unknown_component_rejected(self):
        builder = TSNBuilder()
        builder.use_templates(
            [t for t in builder.templates
             if t.component is not Component.GATE_CTRL]
        )
        with pytest.raises(SynthesisError):
            builder.replace_template(GateCtrlTemplate())
            # already removed: replace has nothing to swap
        # and synthesis on the incomplete set fails too
        builder.customize(ring_config())
        with pytest.raises(SynthesisError):
            builder.synthesize()


class TestSwitchModel:
    def _model(self):
        builder = TSNBuilder()
        builder.customize(ring_config())
        return builder.synthesize()

    def test_resource_report(self):
        assert self._model().resource_report().total_kb == 2106

    def test_template_parameters(self):
        params = self._model().template_parameters()
        assert params["Gate Ctrl"]["queue_depth"] == 12
        assert params["Time Sync"] == {}

    def test_instantiate_builds_switch(self):
        sim = Simulator()
        switch = self._model().instantiate(sim)
        assert len(switch.ports) == 1
        assert switch.config.queue_depth == 12

    def test_instantiate_passes_kwargs(self):
        sim = Simulator()
        switch = self._model().instantiate(sim, rate_bps=100_000_000)
        assert switch.rate_bps == 100_000_000

    def test_instantiate_names_the_switch_and_its_config(self):
        model = self._model()
        switch = model.instantiate(Simulator(), "sw3")
        assert switch.name == switch.config.name == "sw3"
        assert switch.config == model.config.with_updates(name="sw3")
        # the model's own config is untouched
        assert model.config == ring_config()

    def test_egress_sched_template_arbitrates_every_port(self):
        class Drr(EgressSchedTemplate):
            def scheduler_factory(self):
                return DeficitRoundRobinScheduler(weights={0: 1})

        builder = TSNBuilder()
        builder.replace_template(Drr())
        builder.customize(star_config())
        switch = builder.synthesize().instantiate(Simulator())
        schedulers = [port.scheduler for port in switch.ports]
        assert len(schedulers) == 3
        assert all(isinstance(s, DeficitRoundRobinScheduler)
                   for s in schedulers)
        # one fresh arbiter per port
        assert len({id(s) for s in schedulers}) == 3

    def test_a_callers_scheduler_factory_cannot_override_the_template(self):
        with pytest.raises(TypeError, match="scheduler_factory"):
            self._model().instantiate(
                Simulator(), scheduler_factory=StrictPriorityScheduler
            )

    def test_emit_verilog(self, tmp_path):
        files = self._model().emit_verilog(tmp_path)
        names = {f.name for f in files}
        assert "tsn_switch_top.v" in names
        assert "manifest.json" in names
