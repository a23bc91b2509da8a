"""Frozen, hashable system configuration: preset + component overrides.

A :class:`SystemConfig` is the declarative answer to "which system am I
simulating": one of the paper's evaluated presets (``local`` /
``remote`` / ``ioctopus``, §5) plus an explicit set of component
overrides against the registry defaults.  It is a frozen dataclass —
hashable, usable as a dict key, JSON round-trippable — and its
:meth:`run_id` is a stable content hash, which is what gives ablation
matrices stable run IDs across processes and sessions.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.components.registry import component_names, default_states

#: The paper's evaluated server arrangements (§5).
PRESETS = ("local", "remote", "ioctopus")


@dataclass(frozen=True)
class SystemConfig:
    """One declarative system under test."""

    #: Server arrangement preset (wiring + firmware + driver choice).
    preset: str = "ioctopus"
    #: Component overrides vs the registry defaults, kept sorted so two
    #: configs with the same content compare and hash equal.
    overrides: Tuple[Tuple[str, bool], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ValueError(f"preset must be one of {PRESETS}, "
                             f"got {self.preset!r}")
        known = set(component_names())
        seen = set()
        for name, enabled in self.overrides:
            if name not in known:
                raise ValueError(f"unknown component {name!r}; "
                                 f"registered: {sorted(known)}")
            if name in seen:
                raise ValueError(f"duplicate override for {name!r}")
            if not isinstance(enabled, bool):
                raise ValueError(f"override for {name!r} must be a bool, "
                                 f"got {enabled!r}")
            seen.add(name)
        normalized = tuple(sorted(self.overrides))
        object.__setattr__(self, "overrides", normalized)

    # ------------------------------------------------------ construction

    def without(self, *names: str) -> "SystemConfig":
        """This config with ``names`` switched off (leave-one-out)."""
        merged = dict(self.overrides)
        for name in names:
            merged[name] = False
        return SystemConfig(self.preset, tuple(merged.items()))

    def with_override(self, name: str, enabled: bool) -> "SystemConfig":
        merged = dict(self.overrides)
        merged[name] = enabled
        return SystemConfig(self.preset, tuple(merged.items()))

    # ----------------------------------------------------------- queries

    def enabled(self, name: str) -> bool:
        """Effective state of component ``name`` under this config."""
        for key, value in self.overrides:
            if key == name:
                return value
        defaults = default_states()
        if name not in defaults:
            raise KeyError(f"unknown component {name!r}")
        return defaults[name]

    def components(self) -> Dict[str, bool]:
        """Full effective component map (defaults + overrides)."""
        states = default_states()
        states.update(dict(self.overrides))
        return states

    def disabled_components(self) -> Tuple[str, ...]:
        """Components this config switches off vs their defaults."""
        defaults = default_states()
        return tuple(name for name, enabled in self.overrides
                     if not enabled and defaults[name])

    def is_default(self) -> bool:
        defaults = default_states()
        return all(defaults[name] == enabled
                   for name, enabled in self.overrides)

    def label(self) -> str:
        """Human-readable tag, e.g. ``ioctopus`` or ``ioctopus-ddio``."""
        off = self.disabled_components()
        flipped_on = tuple(name for name, enabled in self.overrides
                           if enabled and not default_states()[name])
        parts = [self.preset]
        parts.extend(f"-{name}" for name in off)
        parts.extend(f"+{name}" for name in flipped_on)
        return "".join(parts) if len(parts) > 1 else self.preset

    def run_id(self) -> str:
        """Stable content hash of (preset, effective overrides).

        Deliberately independent of the process, session, and dict
        ordering: two processes generating the same leave-one-out
        matrix produce the same IDs, which is what lets matrix rows
        flow through the on-disk sweep cache as cache hits.
        """
        payload = json.dumps({"preset": self.preset,
                              "overrides": list(self.overrides)},
                             sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    # ----------------------------------------------------- serialization

    def to_dict(self) -> Dict:
        return {"preset": self.preset,
                "overrides": {name: enabled
                              for name, enabled in self.overrides}}

    @classmethod
    def from_dict(cls, data: Mapping) -> "SystemConfig":
        return cls(preset=data["preset"],
                   overrides=tuple(dict(data.get("overrides",
                                                 {})).items()))

    def __str__(self) -> str:
        return self.label()


def as_system_config(value: Union[str, SystemConfig, Mapping, None],
                     ) -> SystemConfig:
    """Coerce a preset string / dict / SystemConfig into a SystemConfig."""
    if value is None:
        return SystemConfig()
    if isinstance(value, SystemConfig):
        return value
    if isinstance(value, str):
        return SystemConfig(preset=value)
    if isinstance(value, Mapping):
        return SystemConfig.from_dict(value)
    raise TypeError(f"cannot build a SystemConfig from {value!r}")


def loo_matrix(base: SystemConfig,
               names: Optional[Iterable[str]] = None,
               pairwise: bool = False) -> Tuple[SystemConfig, ...]:
    """Baseline + leave-one-out (+ optional pairwise) configurations.

    Only components that are *on* under ``base`` produce rows (turning
    off an already-off component is the baseline again).
    """
    selected = tuple(names) if names is not None else component_names()
    active = [name for name in selected if base.enabled(name)]
    configs = [base]
    configs.extend(base.without(name) for name in active)
    if pairwise:
        for i, first in enumerate(active):
            for second in active[i + 1:]:
                configs.append(base.without(first, second))
    return tuple(configs)
