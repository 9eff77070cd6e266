"""Tests for the Table I configuration presets and the run harness."""

import dataclasses

import pytest

from repro.cache.array import SetAssociativeArray
from repro.cache.hierarchy import ConventionalHierarchy
from repro.core.config import TileConfig
from repro.core.lnuca import LightNUCA
from repro.dnuca.system import DNUCASystem
from repro.energy.accounting import GROUP_L2_RESTT, GROUP_L3_DNUCA
from repro.experiments.common import (
    conventional_builders,
    dnuca_builders,
    total_energy_by_system,
)
from repro.experiments.fig6_scenarios import scenario_builders
from repro.sim.configs import (
    build_accountant,
    build_conventional_hierarchy,
    build_dnuca_hierarchy,
    build_lnuca_dnuca_hierarchy,
    build_lnuca_l3_hierarchy,
    l1_config,
    l2_config,
    l3_config,
    lnuca_l3_spec,
    main_memory_config,
)
from repro.sim.runner import ipc_by_category, run_suite, run_workload
from repro.cpu.workloads import WorkloadSpec


class TestTableOneParameters:
    def test_l1_matches_table(self):
        cfg = l1_config()
        assert cfg.size_bytes == 32 * 1024
        assert cfg.associativity == 4
        assert cfg.block_size == 32
        assert cfg.completion_cycles == 2
        assert cfg.ports == 2
        assert cfg.write_policy == "write_through"
        assert cfg.read_energy_pj == pytest.approx(21.2)
        assert cfg.leakage_mw == pytest.approx(12.8)

    def test_l2_matches_table(self):
        cfg = l2_config()
        assert cfg.size_bytes == 256 * 1024
        assert cfg.associativity == 8
        assert cfg.block_size == 64
        assert cfg.completion_cycles == 4
        assert cfg.initiation_cycles == 2
        assert cfg.access_mode == "serial"
        assert cfg.read_energy_pj == pytest.approx(47.2)
        assert cfg.leakage_mw == pytest.approx(66.9)

    def test_l3_matches_table(self):
        cfg = l3_config()
        assert cfg.size_bytes == 8 * 1024 * 1024
        assert cfg.associativity == 16
        assert cfg.block_size == 128
        assert cfg.completion_cycles == 20
        assert cfg.initiation_cycles == 15
        assert cfg.leakage_mw == pytest.approx(600.0)

    def test_memory_matches_table(self):
        cfg = main_memory_config()
        assert cfg.first_chunk_cycles == 200
        assert cfg.inter_chunk_cycles == 4
        assert cfg.chunk_bytes == 16


class TestBuilders:
    def test_conventional_levels(self):
        system = build_conventional_hierarchy()
        assert isinstance(system, ConventionalHierarchy)
        assert [level.name for level in system.levels] == ["L1", "L2", "L3"]
        assert system.name == "L2-256KB"

    def test_lnuca_l3_composition(self):
        system = build_lnuca_l3_hierarchy(3)
        assert isinstance(system, LightNUCA)
        assert system.name == "LN3-144KB"
        assert isinstance(system.backside, ConventionalHierarchy)
        assert system.config.num_tiles == 14

    def test_dnuca_baseline(self):
        system = build_dnuca_hierarchy()
        assert isinstance(system, DNUCASystem)
        assert system.l1 is not None
        assert system.dnuca.config.num_banks == 32

    def test_lnuca_dnuca_composition(self):
        system = build_lnuca_dnuca_hierarchy(2)
        assert isinstance(system, LightNUCA)
        assert isinstance(system.backside, DNUCASystem)
        assert system.backside.l1 is None

    def test_builders_return_fresh_instances(self):
        assert build_conventional_hierarchy() is not build_conventional_hierarchy()


class TestAccountants:
    def test_conventional_static_power(self):
        accountant = build_accountant(build_conventional_hierarchy())
        assert accountant.static_power_mw() == pytest.approx(12.8 + 66.9 + 600.0)

    def test_lnuca_static_power_scales_with_tiles(self):
        ln2 = build_accountant(build_lnuca_l3_hierarchy(2))
        ln4 = build_accountant(build_lnuca_l3_hierarchy(4))
        assert ln4.static_power_mw() - ln2.static_power_mw() == pytest.approx(22 * 2.2)

    def test_dnuca_accountant_includes_banks(self):
        accountant = build_accountant(build_dnuca_hierarchy())
        assert accountant.static_power_mw() == pytest.approx(12.8 + 32 * 33.5)

    def test_lnuca_dnuca_accountant(self):
        accountant = build_accountant(build_lnuca_dnuca_hierarchy(2))
        assert accountant.static_power_mw() == pytest.approx(12.8 + 5 * 2.2 + 32 * 33.5)

    def test_evaluation_produces_l3_dominated_static(self):
        spec = WorkloadSpec(name="t", category="int", seed=2,
                            regions=((8.0, 0.8), (48.0, 0.14)), stream_weight=0.04,
                            cold_weight=0.02)
        result = run_workload(build_conventional_hierarchy, spec, 1500)
        accountant = build_accountant(build_conventional_hierarchy())
        breakdown = accountant.evaluate(result.activity, result.cycles)
        assert breakdown.group(GROUP_L3_DNUCA) > breakdown.group(GROUP_L2_RESTT)


def _registries():
    """Every builder registry in the repo, ablation overrides included."""
    ablations = {
        "routing-random": lnuca_l3_spec(3, routing_policy="random"),
        "routing-deterministic": lnuca_l3_spec(3, routing_policy="deterministic"),
        **{f"depth-{depth}": lnuca_l3_spec(3, buffer_depth=depth) for depth in (1, 2, 4)},
        **{
            f"tile-{size_kb}KB": lnuca_l3_spec(3, tile=TileConfig(size_bytes=size_kb * 1024))
            for size_kb in (2, 4, 8)
        },
        **{f"LN{levels}": lnuca_l3_spec(levels) for levels in (2, 3, 4, 5)},
    }
    return {
        "fig4": conventional_builders(),
        "fig5": dnuca_builders(),
        "fig6": scenario_builders(),
        "ablations": ablations,
    }


def _registered(accountant):
    return (
        accountant.name,
        accountant.cycle_time_ns,
        list(accountant._static),
        list(accountant._dynamic),
    )


_SPECS = [
    pytest.param(spec, id=f"{registry}:{name}")
    for registry, builders in _registries().items()
    for name, spec in builders.items()
]


class TestSpecEnergyModels:
    """``spec.energy()`` is the same model as ``build_accountant(spec())``."""

    @pytest.mark.parametrize("spec", _SPECS)
    def test_registers_the_same_components_and_rules(self, spec):
        assert _registered(spec.energy()) == _registered(build_accountant(spec()))

    @pytest.mark.parametrize("spec", _SPECS)
    def test_evaluates_every_counter_identically(self, spec):
        reference = build_accountant(spec())
        activity = {
            rule.activity_key: float(1000 + 37 * index)
            for index, rule in enumerate(reference._dynamic)
        }
        assert spec.energy().evaluate(activity, 123457.0) == reference.evaluate(
            activity, 123457.0
        )

    def test_recorded_runs_evaluate_identically(self, tiny_workload):
        """One recorded run per hierarchy type: the per-run breakdowns and
        the figure totals match the built-system path exactly."""
        builders = scenario_builders()
        results = run_suite(builders, [tiny_workload], 800)
        for result in results:
            spec = builders[result.system]
            by_spec = spec.energy().evaluate(result.activity, result.cycles)
            by_system = build_accountant(spec()).evaluate(result.activity, result.cycles)
            assert by_spec == by_system
            assert by_spec.total_joules > 0
        adhoc = {name: spec.factory for name, spec in builders.items()}
        assert total_energy_by_system(results, builders) == total_energy_by_system(
            results, adhoc
        )

    def test_allocates_no_cache_arrays(self, monkeypatch):
        built = []
        original = SetAssociativeArray.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(SetAssociativeArray, "__init__", counting_init)
        for builders in _registries().values():
            for spec in builders.values():
                spec.energy()
        assert built == []

    def test_energy_model_is_outside_equality_and_digest(self):
        spec = lnuca_l3_spec(3)
        bare = dataclasses.replace(spec, energy=None)
        assert bare == spec and hash(bare) == hash(spec)
        assert bare.digest() == spec.digest()

    def test_specs_with_energy_models_pickle(self):
        import pickle

        for builders in _registries().values():
            for spec in builders.values():
                clone = pickle.loads(pickle.dumps(spec, pickle.HIGHEST_PROTOCOL))
                assert _registered(clone.energy()) == _registered(spec.energy())


class TestRunner:
    def test_run_workload_reports_ipc(self, tiny_workload):
        result = run_workload(build_conventional_hierarchy, tiny_workload, 1200)
        assert 0 < result.ipc <= 4
        assert result.instructions == 1200
        assert result.workload == tiny_workload.name

    def test_prewarm_improves_ipc(self, tiny_workload):
        warm = run_workload(build_conventional_hierarchy, tiny_workload, 1200, prewarm=True)
        cold = run_workload(build_conventional_hierarchy, tiny_workload, 1200, prewarm=False)
        assert warm.ipc > cold.ipc

    def test_run_suite_covers_all_systems_and_workloads(self, tiny_workload):
        other = WorkloadSpec(name="tiny-fp", category="fp", seed=12,
                             regions=((8.0, 0.7), (64.0, 0.2)), stream_weight=0.06,
                             cold_weight=0.04, fp_fraction=0.5)
        builders = {
            "base": build_conventional_hierarchy,
            "ln2": lambda: build_lnuca_l3_hierarchy(2),
        }
        results = run_suite(builders, [tiny_workload, other], 1000)
        assert len(results) == 4
        assert {r.system for r in results} == {"base", "ln2"}

    def test_ipc_by_category_groups_correctly(self, tiny_workload):
        other = WorkloadSpec(name="tiny-fp", category="fp", seed=12,
                             regions=((8.0, 0.7), (64.0, 0.2)), fp_fraction=0.5)
        builders = {"base": build_conventional_hierarchy}
        results = run_suite(builders, [tiny_workload, other], 800)
        grouped = ipc_by_category(results)
        assert set(grouped["base"]) == {"int", "fp"}
