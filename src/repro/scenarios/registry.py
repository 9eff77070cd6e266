"""Plugin registry for generator families and the scenario catalog.

Two registries live here:

* **families** — ``name -> GeneratorFamily``: the pluggable generators.
  A family is registered with :func:`register_family` (arbitrary
  ``(spec, num_instructions, seed) -> Trace`` callables, used by the
  legacy SPEC port and the phase mixer) or with :func:`model_family`
  (declarative families that map ``params`` to a
  :class:`~repro.scenarios.sampling.TraceModel` and synthesize through
  the shared sampling engine).
* **scenarios** — ``name -> ScenarioSpec``: the built-in catalog, filled
  by :mod:`repro.scenarios.families` and extensible at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional

from repro.common.errors import ConfigurationError
from repro.cpu.trace import Trace
from repro.scenarios.sampling import TraceModel, synthesize_trace
from repro.scenarios.spec import ScenarioSpec

GeneratorFn = Callable[[ScenarioSpec, int, Optional[int]], Trace]
ModelBuilder = Callable[[Mapping[str, object]], TraceModel]


@dataclass(frozen=True)
class GeneratorFamily:
    """One pluggable workload-generator family."""

    name: str
    doc: str
    generate: GeneratorFn
    default_params: Mapping[str, object]


_FAMILIES: Dict[str, GeneratorFamily] = {}
_SCENARIOS: Dict[str, ScenarioSpec] = {}


# --------------------------------------------------------------------------- families
def register_family(
    name: str, *, doc: str, default_params: Optional[Mapping[str, object]] = None
) -> Callable[[GeneratorFn], GeneratorFn]:
    """Decorator registering ``fn(spec, num_instructions, seed) -> Trace``."""

    def wrap(fn: GeneratorFn) -> GeneratorFn:
        if name in _FAMILIES:
            raise ConfigurationError(f"generator family {name!r} already registered")
        _FAMILIES[name] = GeneratorFamily(
            name=name, doc=doc, generate=fn, default_params=dict(default_params or {})
        )
        return fn

    return wrap


def model_family(
    name: str, *, doc: str, default_params: Mapping[str, object]
) -> Callable[[ModelBuilder], ModelBuilder]:
    """Decorator registering a declarative family.

    The decorated builder receives the merged ``default_params + spec
    params`` mapping and returns a :class:`TraceModel`; synthesis is
    handled by the shared engine.
    """

    def wrap(builder: ModelBuilder) -> ModelBuilder:
        def generate(spec: ScenarioSpec, num_instructions: int, seed: Optional[int]) -> Trace:
            model = builder(merge_params(name, spec.params))
            return synthesize_trace(
                spec.name,
                spec.category,
                model,
                num_instructions,
                key=spec.trace_key(seed, num_instructions),
            )

        register_family(name, doc=doc, default_params=default_params)(generate)
        return builder

    return wrap


def family(name: str) -> GeneratorFamily:
    """Look a generator family up by name."""
    try:
        return _FAMILIES[name]
    except KeyError:
        known = ", ".join(sorted(_FAMILIES))
        raise ConfigurationError(f"unknown generator family {name!r} (known: {known})") from None


def families() -> List[GeneratorFamily]:
    """All registered families, sorted by name."""
    return [_FAMILIES[name] for name in sorted(_FAMILIES)]


def merge_params(family_name: str, params: Mapping[str, object]) -> Dict[str, object]:
    """Merge ``params`` over the family defaults, rejecting unknown keys."""
    defaults = dict(family(family_name).default_params)
    unknown = set(params) - set(defaults)
    if unknown:
        raise ConfigurationError(
            f"unknown parameter(s) {sorted(unknown)} for family {family_name!r} "
            f"(accepted: {sorted(defaults)})"
        )
    defaults.update(params)
    return defaults


# --------------------------------------------------------------------------- scenarios
def register_scenario(spec: ScenarioSpec, *, replace: bool = False) -> ScenarioSpec:
    """Add a scenario to the catalog (``replace=True`` to overwrite)."""
    if spec.family not in _FAMILIES:
        raise ConfigurationError(
            f"scenario {spec.name!r} references unknown family {spec.family!r}"
        )
    if spec.name in _SCENARIOS and not replace:
        raise ConfigurationError(f"scenario {spec.name!r} already registered")
    _SCENARIOS[spec.name] = spec
    return spec


def scenario(name: str) -> ScenarioSpec:
    """Look a scenario up by name."""
    try:
        return _SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(_SCENARIOS))
        raise ConfigurationError(f"unknown scenario {name!r} (known: {known})") from None


def scenarios(tag: Optional[str] = None) -> List[ScenarioSpec]:
    """All catalog scenarios (optionally filtered by tag), sorted by name."""
    specs = [_SCENARIOS[name] for name in sorted(_SCENARIOS)]
    if tag is not None:
        specs = [spec for spec in specs if tag in spec.tags]
    return specs


def build_trace(
    spec: ScenarioSpec, num_instructions: int, seed: Optional[int] = None
) -> Trace:
    """Generate a trace for ``spec`` through its family's generator.

    This is the registry's single dispatch point — the experiment harness
    passes it to ``run_suite`` as the trace factory.
    """
    return family(spec.family).generate(spec, num_instructions, seed)
