"""Paper configuration presets (Table I) and system builders.

Every experiment and benchmark builds its cache hierarchies through the
functions in this module, so the architectural parameters of Table I live
in exactly one place:

* ``l1_config`` / ``l2_config`` / ``l3_config`` — the conventional levels;
* ``build_conventional_hierarchy`` — the L2-256KB baseline (Fig. 1(a));
* ``build_lnuca_l3_hierarchy`` — LN2/LN3/LN4 in front of the 8 MB L3
  (Fig. 1(b));
* ``build_dnuca_hierarchy`` — the DN-4x8 baseline (Fig. 1(c));
* ``build_lnuca_dnuca_hierarchy`` — LNx + DN-4x8 (Fig. 1(d));
* ``conventional_energy`` / ``lnuca_l3_energy`` / ``dnuca_energy`` /
  ``lnuca_dnuca_energy`` — the matching Table I energy models, built from
  the level configurations alone (no hierarchy is constructed);
* ``build_accountant`` — the same energy model for an already-built system.

For the declarative run-plan layer (:mod:`repro.sim.plan`) the four system
types are also exposed as *digestable* :class:`BuilderSpec`\\ s
(``conventional_spec`` / ``lnuca_l3_spec`` / ``dnuca_spec`` /
``lnuca_dnuca_spec``): a builder plus a canonical parameter description
whose digest keys the content-addressed result cache, plus the
energy-model constructor for the same system.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.cache.cache import CacheConfig, TimedCache
from repro.cache.hierarchy import ConventionalHierarchy
from repro.cache.memory import MainMemory, MainMemoryConfig
from repro.common.errors import ConfigurationError
from repro.core.config import LNUCAConfig, default_rtile_config
from repro.core.lnuca import LightNUCA
from repro.dnuca.dnuca import DNUCACache, DNUCAConfig
from repro.dnuca.system import DNUCASystem
from repro.energy.accounting import (
    GROUP_DYNAMIC,
    GROUP_L1_RT,
    GROUP_L2_RESTT,
    GROUP_L3_DNUCA,
    EnergyAccountant,
)
from repro.energy.orion import RouterEnergyModel
from repro.sim.memsys import MemorySystem

#: Cycle time of the modelled core: 19 FO4 at 32 nm, comparable to the
#: 3.33 GHz Core 2 Duo E8600 the paper references.
CYCLE_TIME_NS = 0.30

#: Bump when the meaning of a builder key / parameter set changes in a way
#: the parameters themselves do not capture, so old cache entries cannot be
#: misattributed to the new architecture.  (Code changes are covered by the
#: simulator version in the cache key, not by this.)
BUILDER_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class BuilderSpec:
    """A system builder plus the canonical description that identifies it.

    ``params`` is a canonical JSON string of everything that architecturally
    distinguishes the built system (or ``None`` for ad-hoc builders — e.g.
    raw lambdas handed to ``run_suite`` — which then run uncached).  The
    spec is callable, so every API that accepted a plain builder callable
    accepts a ``BuilderSpec`` unchanged.

    ``energy`` builds the system's :class:`EnergyAccountant` without
    building the system (``None`` for ad hoc builders).  It is derived from
    the same parameters as ``factory``, so it takes no part in equality or
    the digest.
    """

    key: str
    factory: Callable[[], MemorySystem]
    params: Optional[str] = None
    energy: Optional[Callable[[], EnergyAccountant]] = field(default=None, compare=False)

    def __call__(self) -> MemorySystem:
        return self.factory()

    def digest(self) -> Optional[str]:
        """Content digest of the builder identity; ``None`` when ad hoc."""
        if self.params is None:
            return None
        payload = f"builder/{BUILDER_SCHEMA_VERSION}/{self.key}/{self.params}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _canonical(value):
    """Canonicalise ``value`` into JSON-serializable plain data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise ConfigurationError(
        f"builder parameter of type {type(value).__name__} has no canonical form"
    )


def builder_spec(
    key: str,
    factory: Callable[[], MemorySystem],
    *,
    energy: Optional[Callable[[], EnergyAccountant]] = None,
    **params,
) -> BuilderSpec:
    """Wrap ``factory`` (and its ``energy`` model) as a digestable :class:`BuilderSpec`.

    ``params`` must fully determine what ``factory`` builds; they are
    canonicalised (dataclasses and tuples included) into the digest.
    """
    blob = json.dumps(_canonical(params), sort_keys=True)
    return BuilderSpec(key=key, factory=factory, params=blob, energy=energy)

# Dynamic energies for tag-only probes, as a fraction of a full read.
_TAG_PROBE_FRACTION = 0.35


# --------------------------------------------------------------------------- level configs
def l1_config() -> CacheConfig:
    """L1 data cache / r-tile: 32 KB, 4-way, 32 B, 2-cycle, write-through."""
    return CacheConfig(
        name="L1",
        size_bytes=32 * 1024,
        associativity=4,
        block_size=32,
        completion_cycles=2,
        initiation_cycles=1,
        ports=2,
        write_policy="write_through",
        access_mode="parallel",
        mshr_entries=16,
        mshr_secondary=4,
        write_buffer_entries=32,
        read_energy_pj=21.2,
        leakage_mw=12.8,
    )


def l2_config(size_kb: int = 256) -> CacheConfig:
    """L2: 256 KB, 8-way, 64 B, serial access, 4-cycle completion, copy-back."""
    return CacheConfig(
        name="L2",
        size_bytes=size_kb * 1024,
        associativity=8,
        block_size=64,
        completion_cycles=4,
        initiation_cycles=2,
        ports=1,
        write_policy="copy_back",
        access_mode="serial",
        mshr_entries=16,
        mshr_secondary=4,
        write_buffer_entries=32,
        read_energy_pj=47.2,
        leakage_mw=66.9,
    )


def l3_config() -> CacheConfig:
    """L3: 8 MB, 16-way, 128 B, 20-cycle completion, 15-cycle initiation.

    The 15-cycle initiation interval of Table I is interpreted per bank; an
    Intel-Core-2-class 8 MB cache is interleaved over several banks, so the
    timing model exposes four of them (``ports=4``) to keep the sustained
    throughput realistic while individual accesses still pay the Table I
    latencies.
    """
    return CacheConfig(
        name="L3",
        size_bytes=8 * 1024 * 1024,
        associativity=16,
        block_size=128,
        completion_cycles=20,
        initiation_cycles=15,
        ports=4,
        write_policy="copy_back",
        access_mode="serial",
        mshr_entries=8,
        mshr_secondary=4,
        write_buffer_entries=32,
        read_energy_pj=20.9,
        leakage_mw=600.0,
    )


def main_memory_config() -> MainMemoryConfig:
    """Main memory: 200-cycle first chunk, 4-cycle inter-chunk, 16 B wires."""
    return MainMemoryConfig(first_chunk_cycles=200, inter_chunk_cycles=4, chunk_bytes=16)


def dnuca_config() -> DNUCAConfig:
    """DN-4x8: 8 MB, 8 sparse sets x 4 rows of 256 KB 2-way 128 B banks."""
    return DNUCAConfig()


# --------------------------------------------------------------------------- systems
def lnuca_config(levels: int, **overrides) -> LNUCAConfig:
    """The LN``levels`` design point with the Table I r-tile; ``overrides``
    are further :class:`~repro.core.config.LNUCAConfig` fields."""
    return LNUCAConfig(levels=levels, rtile=default_rtile_config(), **overrides)


def build_conventional_hierarchy(l2_size_kb: int = 256) -> ConventionalHierarchy:
    """The three-level baseline: L1-32KB / L2 / L3-8MB / memory."""
    levels = [
        TimedCache(l1_config()),
        TimedCache(l2_config(l2_size_kb)),
        TimedCache(l3_config()),
    ]
    return ConventionalHierarchy(
        levels, MainMemory(main_memory_config()), name=f"L2-{l2_size_kb}KB"
    )


def build_lnuca_l3_hierarchy(levels: int, **overrides) -> LightNUCA:
    """An LN``levels`` L-NUCA backed by the 8 MB L3 (Fig. 1(b))."""
    backside = ConventionalHierarchy(
        [TimedCache(l3_config())],
        MainMemory(main_memory_config()),
        name="L3-backside",
        extra_bus_hops=1,
    )
    return LightNUCA(lnuca_config(levels, **overrides), backside)


def build_dnuca_hierarchy() -> DNUCASystem:
    """The DN-4x8 baseline: L1-32KB in front of the 8 MB D-NUCA (Fig. 1(c))."""
    return DNUCASystem(
        dnuca=DNUCACache(dnuca_config()),
        memory=MainMemory(main_memory_config()),
        l1=TimedCache(l1_config()),
        name="DN-4x8",
    )


def build_lnuca_dnuca_hierarchy(levels: int, **overrides) -> LightNUCA:
    """LN``levels`` + DN-4x8: an L-NUCA whose backside is the D-NUCA (Fig. 1(d))."""
    backside = DNUCASystem(
        dnuca=DNUCACache(dnuca_config()),
        memory=MainMemory(main_memory_config()),
        l1=None,
        name="DN-4x8-backside",
    )
    system = LightNUCA(lnuca_config(levels, **overrides), backside)
    system.stats.set("plus_dnuca", 1.0)
    return system


# --------------------------------------------------------------------------- builder specs
def conventional_spec(l2_size_kb: int = 256) -> BuilderSpec:
    """:func:`build_conventional_hierarchy` as a digestable spec.

    The factory and energy model are :func:`functools.partial`\\ s of
    module-level functions (not lambdas) so the spec pickles by reference:
    the persistent worker pool ships :class:`BuilderSpec`\\ s to
    already-running processes instead of relying on fork-time memory
    inheritance.
    """
    return builder_spec(
        f"conventional:l2={l2_size_kb}KB",
        functools.partial(build_conventional_hierarchy, l2_size_kb),
        energy=functools.partial(conventional_energy, l2_size_kb),
        l2_size_kb=l2_size_kb,
    )


def lnuca_l3_spec(levels: int, **overrides) -> BuilderSpec:
    """:func:`build_lnuca_l3_hierarchy` as a digestable spec.

    ``overrides`` are the :class:`~repro.core.config.LNUCAConfig` keyword
    overrides the ablations use (``routing_policy``, ``buffer_depth``,
    ``tile`` ...); they are canonicalised into the digest and shape the
    energy model too.
    """
    return builder_spec(
        f"lnuca-l3:levels={levels}",
        functools.partial(build_lnuca_l3_hierarchy, levels, **overrides),
        energy=functools.partial(lnuca_l3_energy, lnuca_config(levels, **overrides)),
        levels=levels,
        **overrides,
    )


def dnuca_spec() -> BuilderSpec:
    """:func:`build_dnuca_hierarchy` as a digestable spec."""
    return builder_spec("dnuca:4x8", build_dnuca_hierarchy, energy=dnuca_energy)


def lnuca_dnuca_spec(levels: int, **overrides) -> BuilderSpec:
    """:func:`build_lnuca_dnuca_hierarchy` as a digestable spec."""
    return builder_spec(
        f"lnuca-dnuca:levels={levels}",
        functools.partial(build_lnuca_dnuca_hierarchy, levels, **overrides),
        energy=functools.partial(lnuca_dnuca_energy, lnuca_config(levels, **overrides)),
        levels=levels,
        **overrides,
    )


# --------------------------------------------------------------------------- energy models
# The Table I energy models are pure functions of the level configurations:
# they read energies and leakages off the configs and never build a cache.
def _accountant(name: str) -> EnergyAccountant:
    return EnergyAccountant(cycle_time_ns=CYCLE_TIME_NS, name=f"energy[{name}]")


def _add_l1_dynamic(accountant: EnergyAccountant, prefix: str, energy_pj: float) -> None:
    accountant.add_dynamic(f"{prefix}.read_accesses", energy_pj)
    accountant.add_dynamic(f"{prefix}.write_accesses", energy_pj)
    accountant.add_dynamic(f"{prefix}.fills", energy_pj)


def _add_dnuca(accountant: EnergyAccountant, cfg: DNUCAConfig, name: str) -> None:
    accountant.add_static(
        "DNUCA-banks", GROUP_L3_DNUCA, cfg.leakage_mw_per_bank, count=cfg.num_banks
    )
    accountant.add_dynamic(f"{name}.bank_lookups", cfg.read_energy_pj * _TAG_PROBE_FRACTION)
    accountant.add_dynamic(f"{name}.hits", cfg.read_energy_pj * (1.0 - _TAG_PROBE_FRACTION))
    accountant.add_dynamic(f"{name}.fills", cfg.write_energy_pj)
    accountant.add_dynamic(f"{name}.promotions", 2.0 * cfg.read_energy_pj)
    accountant.add_dynamic(
        f"{name}.mesh.link_traversals", RouterEnergyModel().dnuca_hop_energy_pj()
    )


def _lnuca_accountant(config: LNUCAConfig, name: Optional[str]) -> EnergyAccountant:
    """The r-tile, tile and network part of every L-NUCA energy model."""
    router = RouterEnergyModel()
    accountant = _accountant(name or config.name)
    accountant.add_static("L1-RT", GROUP_L1_RT, config.rtile.leakage_mw)
    accountant.add_static("tiles", GROUP_L2_RESTT, config.tile.leakage_mw, count=config.num_tiles)
    _add_l1_dynamic(accountant, "L1-RT", config.rtile.read_energy_pj)
    tile_read = config.tile.read_energy_pj
    accountant.add_dynamic("tiles.search_lookups", tile_read * _TAG_PROBE_FRACTION)
    accountant.add_dynamic("tiles.hits", tile_read * (1.0 - _TAG_PROBE_FRACTION))
    accountant.add_dynamic("tiles.fills", config.tile.write_energy_pj)
    hop = router.lnuca_hop_energy_pj()
    accountant.add_dynamic("transport_net.link_traversals", hop)
    accountant.add_dynamic("replacement_net.link_traversals", hop)
    accountant.add_dynamic("search_net.link_traversals", router.search_hop_energy_pj())
    return accountant


def conventional_energy(l2_size_kb: int = 256, name: Optional[str] = None) -> EnergyAccountant:
    """Energy model of :func:`build_conventional_hierarchy`."""
    accountant = _accountant(name or f"L2-{l2_size_kb}KB")
    levels = (
        ("L1", GROUP_L1_RT, l1_config()),
        ("L2", GROUP_L2_RESTT, l2_config(l2_size_kb)),
        ("L3", GROUP_L3_DNUCA, l3_config()),
    )
    for prefix, group, config in levels:
        accountant.add_static(prefix, group, config.leakage_mw)
    for prefix, _, config in levels:
        _add_l1_dynamic(accountant, prefix, config.read_energy_pj)
    return accountant


def dnuca_energy(
    dnuca: Optional[DNUCAConfig] = None, name: str = "DN-4x8", dnuca_name: str = "DNUCA"
) -> EnergyAccountant:
    """Energy model of :func:`build_dnuca_hierarchy` (L1 plus the D-NUCA)."""
    accountant = _accountant(name)
    accountant.add_static("L1", GROUP_L1_RT, l1_config().leakage_mw)
    _add_l1_dynamic(accountant, "L1", l1_config().read_energy_pj)
    _add_dnuca(accountant, dnuca or dnuca_config(), dnuca_name)
    return accountant


def lnuca_l3_energy(config: LNUCAConfig, name: Optional[str] = None) -> EnergyAccountant:
    """Energy model of an L-NUCA backed by the 8 MB L3 (:func:`build_lnuca_l3_hierarchy`)."""
    accountant = _lnuca_accountant(config, name)
    accountant.add_static("L3", GROUP_L3_DNUCA, l3_config().leakage_mw)
    _add_l1_dynamic(accountant, "L3", l3_config().read_energy_pj)
    return accountant


def lnuca_dnuca_energy(
    config: LNUCAConfig,
    dnuca: Optional[DNUCAConfig] = None,
    name: Optional[str] = None,
    dnuca_name: str = "DNUCA",
) -> EnergyAccountant:
    """Energy model of an L-NUCA backed by the D-NUCA (:func:`build_lnuca_dnuca_hierarchy`)."""
    accountant = _lnuca_accountant(config, name)
    _add_dnuca(accountant, dnuca or dnuca_config(), dnuca_name)
    return accountant


def build_accountant(system: MemorySystem) -> EnergyAccountant:
    """Return the Table I energy model matching an already-built ``system``.

    Reads only the system's type, name and configs, and delegates to the
    config-level constructors above, so there is one energy table.
    """
    if isinstance(system, ConventionalHierarchy):
        return conventional_energy(name=system.name)
    if isinstance(system, DNUCASystem):
        return dnuca_energy(system.dnuca.config, system.name, system.dnuca.name)
    if isinstance(system, LightNUCA):
        backside = system.backside
        if isinstance(backside, DNUCASystem):
            return lnuca_dnuca_energy(
                system.config, backside.dnuca.config, system.name, backside.dnuca.name
            )
        if isinstance(backside, ConventionalHierarchy):
            return lnuca_l3_energy(system.config, system.name)
        raise ConfigurationError(
            f"no energy model for backside of type {type(backside).__name__}"
        )
    raise ConfigurationError(f"no energy model for system of type {type(system).__name__}")
