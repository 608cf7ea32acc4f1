"""Platform-independent customization APIs (paper Table II).

The seven ``set_*`` calls below are verbatim the interface the paper
publishes for injecting application-specific resource parameters into the
function templates.  :class:`CustomizationAPI` records the injected values
and produces an immutable :class:`~repro.core.config.SwitchConfig` once every
mandatory resource has been specified.

The calls are platform-independent by construction: nothing here knows
whether the templates will elaborate into a discrete-event simulation model
or into Verilog parameters -- that binding happens later, in
:class:`~repro.core.builder.TSNBuilder`.

Example
-------
Every call returns the API, so a complete customization reads as one
chained expression:

>>> config = (
...     CustomizationAPI("ring-node")
...     .set_switch_tbl(unicast_size=1024, multicast_size=0)
...     .set_class_tbl(class_size=1024)
...     .set_meter_tbl(meter_size=1024)
...     .set_gate_tbl(gate_size=2, queue_num=8, port_num=1)
...     .set_cbs_tbl(cbs_map_size=3, cbs_size=3, port_num=1)
...     .set_queues(queue_depth=12, queue_num=8, port_num=1)
...     .set_buffers(buffer_num=96, port_num=1)
...     .build()
... )
>>> round(config.total_bram_kb)
2106
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set

from . import presets
from .config import EntryWidths, SwitchConfig
from .errors import ConfigurationError, IncompleteCustomizationError

__all__ = ["CustomizationAPI", "PROFILES"]

_ALL_CALLS = frozenset(
    {
        "set_switch_tbl",
        "set_class_tbl",
        "set_meter_tbl",
        "set_gate_tbl",
        "set_cbs_tbl",
        "set_queues",
        "set_buffers",
    }
)

#: Named reference parameter sets accepted by
#: :meth:`CustomizationAPI.apply_profile`.
PROFILES: Dict[str, Callable[[], SwitchConfig]] = {
    "bcm53154": presets.bcm53154_config,
    "star": presets.star_config,
    "linear": presets.linear_config,
    "ring": presets.ring_config,
    "table1_case1": presets.table1_case1,
    "table1_case2": presets.table1_case2,
}


class CustomizationAPI:
    """Collects resource parameters through the paper's seven APIs.

    Consistency across calls is enforced eagerly: ``port_num`` and
    ``queue_num`` appear in several APIs (exactly as in the paper's Table II)
    and must agree everywhere; a later call with a conflicting value raises
    :class:`~repro.core.errors.ConfigurationError` immediately rather than at
    :meth:`build` time, so the developer sees which call introduced the
    conflict.
    """

    def __init__(self, name: str = "switch", widths: Optional[EntryWidths] = None):
        self._name = name
        self._widths = widths or EntryWidths()
        self._params: Dict[str, int] = {}
        self._called: Set[str] = set()

    # ------------------------------------------------------------ helpers

    def _set(self, call: str, **values: int) -> "CustomizationAPI":
        for key, value in values.items():
            if key in self._params and self._params[key] != value:
                raise ConfigurationError(
                    f"{call}: {key}={value} conflicts with previously "
                    f"configured {key}={self._params[key]}"
                )
            self._params[key] = value
        self._called.add(call)
        return self

    # -------------------------------------------------- the seven Table II APIs

    def set_switch_tbl(self, unicast_size: int, multicast_size: int) -> "CustomizationAPI":
        """Set the size of the unicast table and multicast table."""
        return self._set(
            "set_switch_tbl",
            unicast_size=unicast_size,
            multicast_size=multicast_size,
        )

    def set_class_tbl(self, class_size: int) -> "CustomizationAPI":
        """Set the size of the classification table."""
        return self._set("set_class_tbl", class_size=class_size)

    def set_meter_tbl(self, meter_size: int) -> "CustomizationAPI":
        """Set the size of the meter table."""
        return self._set("set_meter_tbl", meter_size=meter_size)

    def set_gate_tbl(self, gate_size: int, queue_num: int, port_num: int) -> "CustomizationAPI":
        """Set each gate table's size, queues per port, and port count."""
        return self._set(
            "set_gate_tbl",
            gate_size=gate_size,
            queue_num=queue_num,
            port_num=port_num,
        )

    def set_cbs_tbl(self, cbs_map_size: int, cbs_size: int, port_num: int) -> "CustomizationAPI":
        """Set the CBS map table and CBS table sizes, and the port count."""
        return self._set(
            "set_cbs_tbl",
            cbs_map_size=cbs_map_size,
            cbs_size=cbs_size,
            port_num=port_num,
        )

    def set_queues(self, queue_depth: int, queue_num: int, port_num: int) -> "CustomizationAPI":
        """Set per-queue depth, queues per port, and the port count."""
        return self._set(
            "set_queues",
            queue_depth=queue_depth,
            queue_num=queue_num,
            port_num=port_num,
        )

    def set_buffers(self, buffer_num: int, port_num: int) -> "CustomizationAPI":
        """Set per-port packet buffer count and the port count."""
        return self._set("set_buffers", buffer_num=buffer_num, port_num=port_num)

    # ------------------------------------------------------------- build

    @property
    def missing_calls(self) -> Set[str]:
        """Which of the seven APIs have not been invoked yet."""
        return set(_ALL_CALLS) - self._called

    def build(self) -> SwitchConfig:
        """Freeze the collected parameters into a validated config.

        Raises :class:`~repro.core.errors.IncompleteCustomizationError`
        (a :class:`ConfigurationError`) naming *every* API that was never
        called -- a partially customized switch has undefined resource
        specifications, and one build attempt should surface all of them.
        """
        missing = self.missing_calls
        if missing:
            raise IncompleteCustomizationError(self._name, missing)
        config = SwitchConfig(name=self._name, widths=self._widths, **self._params)
        config.validate()
        return config

    # ----------------------------------------------------------- profiles

    def apply_profile(self, profile: str) -> "CustomizationAPI":
        """Replay a named reference parameter set through the seven APIs.

        Profiles are the paper's published configurations (see
        :data:`PROFILES`): ``"bcm53154"`` is the COTS baseline of Table III,
        ``"star"``/``"linear"``/``"ring"`` the customized columns, and
        ``"table1_case1"``/``"table1_case2"`` the motivation cases.  The
        values pass through :meth:`_set` like any hand-written call, so a
        profile conflicting with an already-injected parameter raises
        immediately with the offending call named.  Returns ``self`` so a
        sweep can diff against the reference config in one expression::

            baseline = CustomizationAPI("ref").apply_profile("bcm53154").build()
        """
        try:
            preset = PROFILES[profile]
        except KeyError:
            raise ConfigurationError(
                f"unknown profile {profile!r}; expected one of "
                f"{sorted(PROFILES)}"
            ) from None
        return self.replay(preset())

    def replay(self, config: SwitchConfig) -> "CustomizationAPI":
        """Feed an existing config's parameters through the seven APIs."""
        return (
            self.set_switch_tbl(config.unicast_size, config.multicast_size)
            .set_class_tbl(config.class_size)
            .set_meter_tbl(config.meter_size)
            .set_gate_tbl(config.gate_size, config.queue_num, config.port_num)
            .set_cbs_tbl(config.cbs_map_size, config.cbs_size, config.port_num)
            .set_queues(config.queue_depth, config.queue_num, config.port_num)
            .set_buffers(config.buffer_num, config.port_num)
        )

    @classmethod
    def from_config(cls, config: SwitchConfig) -> "CustomizationAPI":
        """Replay an existing config through the API (useful for tweaking)."""
        return cls(config.name, widths=config.widths).replay(config)
