"""Declarative scenario description.

A :class:`ScenarioSpec` names a workload *instance*: which generator
family synthesizes it, the family-specific parameters, and the base seed.
Workload families are data, not code — adding a scenario is a registry
entry, not a new generator function.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.common.errors import ConfigurationError


@dataclass
class ScenarioSpec:
    """Parameters of one named scenario.

    Attributes:
        name: unique scenario name, e.g. ``"kv-zipf-hot"``.
        family: generator-family key in the plugin registry
            (e.g. ``"zipf-kv"``, ``"spec2006"``).
        category: aggregation bucket used by the experiments — the legacy
            suites use ``"int"`` / ``"fp"``; new scenarios may introduce
            their own buckets (e.g. ``"server"``, ``"hpc"``).
        params: family-specific generator parameters; unknown keys are
            rejected by the family at generation time.
        seed: base RNG seed, combined with the per-run seed and trace
            length exactly like the legacy workload generator.
        description: one-line human-readable summary for ``scenarios list``.
        tags: free-form labels (``"new"``, ``"legacy"``, ...) used to
            select scenario subsets.
    """

    name: str
    family: str
    category: str
    params: Dict[str, object] = field(default_factory=dict)
    seed: int = 1
    description: str = ""
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a scenario needs a name")
        if not self.family:
            raise ConfigurationError(f"scenario {self.name!r} needs a generator family")
        if not self.category:
            raise ConfigurationError(f"scenario {self.name!r} needs a category")

    def trace_key(self, seed: int | None, num_instructions: int) -> str:
        """RNG key for one generated trace (legacy-compatible shape)."""
        return f"{self.seed}-{seed or 0}-{num_instructions}"

    def with_params(self, **extra: object) -> "ScenarioSpec":
        """A copy of this spec with ``extra`` merged into its params.

        The canonical way to override generator knobs (e.g. a family's
        ``skew``) without dropping any other field.
        """
        return dataclasses.replace(self, params={**self.params, **extra})
