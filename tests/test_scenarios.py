"""Tests for the scenario engine: registry, families, sampling."""

import sys

import pytest

from repro.common.errors import ConfigurationError
from repro.cpu.isa import InstrClass
from repro.cpu.workloads import full_suite, generate_trace, workload_by_name
from repro.scenarios import (
    ScenarioSpec,
    SequentialRegion,
    TraceModel,
    UniformRegion,
    ZipfRegion,
    build_trace,
    default_sweep,
    families,
    family,
    register_family,
    register_scenario,
    scenario,
    scenarios,
    synthesize_trace,
)
from repro.scenarios.registry import merge_params

NEW_FAMILY_SCENARIOS = (
    "kv-zipf-hot",
    "graph-bfs",
    "stencil-2d5p",
    "gups-8m",
    "phase-kv-stencil",
)


class TestRegistry:
    def test_builtin_families_present(self):
        names = {fam.name for fam in families()}
        assert {"spec2006", "zipf-kv", "graph-chase", "stencil", "gups", "phase-mix"} <= names

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError):
            family("no-such-family")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            scenario("no-such-scenario")

    def test_with_params_preserves_other_fields(self):
        spec = scenario("kv-zipf-hot")
        clone = spec.with_params(skew=0.5)
        assert clone.params["skew"] == 0.5
        assert (clone.name, clone.family, clone.category, clone.seed) == (
            spec.name, spec.family, spec.category, spec.seed,
        )
        assert clone.description == spec.description
        assert clone.tags == spec.tags
        assert "skew" not in spec.params  # original untouched

    def test_catalog_has_legacy_and_new(self):
        legacy = scenarios("legacy")
        assert len(legacy) == len(full_suite())
        assert len(scenarios("new")) >= 10

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown parameter"):
            merge_params("zipf-kv", {"not_a_knob": 1})

    # Synthesis has one backend, so no family reserves a switch for it.
    @pytest.mark.parametrize("family_name", ["zipf-kv", "spec2006", "phase-mix"])
    def test_backend_switch_rejected(self, family_name):
        with pytest.raises(ConfigurationError, match="unknown parameter"):
            merge_params(family_name, {"vectorized": False})

    def test_duplicate_family_rejected(self):
        with pytest.raises(ConfigurationError):
            register_family("spec2006", doc="dup")(lambda spec, n, seed: None)

    def test_duplicate_scenario_rejected_unless_replace(self):
        spec = scenario("kv-zipf-hot")
        with pytest.raises(ConfigurationError):
            register_scenario(spec)
        assert register_scenario(spec, replace=True) is spec

    def test_scenario_referencing_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError):
            register_scenario(
                ScenarioSpec(name="bad", family="missing", category="int")
            )

    def test_default_sweep_covers_all_new_families(self):
        swept = {spec.family for spec in default_sweep()}
        assert {"zipf-kv", "graph-chase", "stencil", "gups", "phase-mix"} <= swept


class TestLegacyEquivalence:
    """The spec2006 family regenerates the legacy traces bit-identically."""

    @pytest.mark.parametrize("name", [spec.name for spec in full_suite()])
    def test_registry_trace_matches_workloads_py(self, name):
        legacy = generate_trace(workload_by_name(name), 600)
        ported = build_trace(scenario(name), 600)
        assert ported.name == legacy.name
        assert ported.category == legacy.category
        assert ported.instructions == legacy.instructions

    def test_seed_argument_forwarded(self):
        spec = scenario("mcf-like")
        legacy = generate_trace(workload_by_name("mcf-like"), 400, seed=9)
        assert build_trace(spec, 400, seed=9).instructions == legacy.instructions
        assert build_trace(spec, 400, seed=10).instructions != legacy.instructions


class TestDeterminism:
    @pytest.mark.parametrize("name", NEW_FAMILY_SCENARIOS)
    def test_same_seed_bit_identical(self, name):
        spec = scenario(name)
        a = build_trace(spec, 1500)
        b = build_trace(spec, 1500)
        assert a.instructions == b.instructions

    @pytest.mark.parametrize("name", NEW_FAMILY_SCENARIOS)
    def test_run_seed_changes_trace(self, name):
        spec = scenario(name)
        a = build_trace(spec, 1500, seed=1)
        b = build_trace(spec, 1500, seed=2)
        assert a.instructions != b.instructions

    @pytest.mark.parametrize("name", NEW_FAMILY_SCENARIOS)
    def test_synthesis_needs_no_numpy(self, name, monkeypatch):
        spec = scenario(name)
        expected = build_trace(spec, 2500)
        monkeypatch.setitem(sys.modules, "numpy", None)  # `import numpy` raises
        assert build_trace(spec, 2500).instructions == expected.instructions

    def test_requested_length_honoured(self):
        for name in NEW_FAMILY_SCENARIOS:
            assert len(build_trace(scenario(name), 777)) == 777

    def test_rejects_empty_trace(self):
        with pytest.raises(ConfigurationError):
            build_trace(scenario("kv-zipf-hot"), 0)


class TestModelProperties:
    def test_class_mix_within_tolerance(self):
        model = TraceModel(
            load_fraction=0.3,
            store_fraction=0.14,
            branch_fraction=0.15,
            regions=(UniformRegion(weight=1.0, base=0x1000, span_bytes=64 * 1024),),
        )
        trace = synthesize_trace("mix", "int", model, 10_000, key="mix-test")
        mix = trace.class_mix()
        assert mix["LOAD"] == pytest.approx(0.3, abs=0.02)
        assert mix["STORE"] == pytest.approx(0.14, abs=0.02)
        assert mix["BRANCH"] == pytest.approx(0.15, abs=0.02)

    def test_footprint_bounded_by_regions(self):
        span = 32 * 1024
        model = TraceModel(
            regions=(UniformRegion(weight=1.0, base=0x10000, span_bytes=span),),
        )
        trace = synthesize_trace("fp-test", "int", model, 6000, key="fp")
        for instr in trace:
            if instr.kind.is_memory:
                assert 0x10000 <= instr.addr < 0x10000 + span
        assert trace.footprint_bytes() <= span + 64  # block-granule rounding

    def test_zipf_skew_concentrates_accesses(self):
        def top_item_share(exponent):
            model = TraceModel(
                regions=(
                    ZipfRegion(
                        weight=1.0, base=0, num_items=1024, item_bytes=64,
                        exponent=exponent,
                    ),
                ),
            )
            trace = synthesize_trace("z", "int", model, 8000, key=f"zipf-{exponent}")
            addrs = [i.addr for i in trace if i.kind.is_memory]
            return addrs.count(0) / len(addrs)

        assert top_item_share(1.2) > 5 * top_item_share(0.1)

    def test_sequential_region_streams(self):
        model = TraceModel(
            regions=(
                SequentialRegion(
                    weight=1.0, base=0, span_bytes=1 << 20, stride=64, transient=True
                ),
            ),
        )
        trace = synthesize_trace("seq", "int", model, 2000, key="seq")
        addrs = [i.addr for i in trace if i.kind.is_memory]
        assert addrs == [64 * k for k in range(len(addrs))]
        assert all(i.transient for i in trace if i.kind.is_memory)

    def test_pointer_chase_creates_load_load_deps(self):
        trace = build_trace(scenario("graph-hub-chase"), 3000)
        chased = 0
        for index, instr in enumerate(trace):
            if instr.kind is InstrClass.LOAD and instr.dep1:
                if trace[index - instr.dep1].kind is InstrClass.LOAD:
                    chased += 1
        assert chased > 100

    def test_rmw_stores_hit_previous_load_address(self):
        trace = build_trace(scenario("gups-8m"), 4000)
        paired = 0
        for index, instr in enumerate(trace):
            if instr.kind is InstrClass.STORE and instr.dep1:
                producer = trace[index - instr.dep1]
                if producer.kind is InstrClass.LOAD and producer.addr == instr.addr:
                    paired += 1
        assert paired > 100

    def test_gups_table_accesses_are_transient(self):
        trace = build_trace(scenario("gups-48m"), 3000)
        transient = sum(1 for i in trace if i.kind.is_memory and i.transient)
        assert transient > 0.5 * trace.memory_instructions()

    def test_stencil_is_fp_heavy(self):
        mix = build_trace(scenario("stencil-2d5p"), 4000).class_mix()
        assert mix["FP_ALU"] > mix["INT_ALU"]

    def test_phase_mix_alternates_working_sets(self):
        spec = scenario("phase-kv-stencil")
        phase_length = merge_params("phase-mix", spec.params)["phase_length"]
        trace = build_trace(spec, 2 * phase_length)
        first = {i.addr >> 26 for i in trace[:phase_length] if i.kind.is_memory}
        second = {
            i.addr >> 26
            for i in trace.instructions[phase_length:]
            if i.kind.is_memory
        }
        # The kv phase touches the key-value base, the stencil phase the
        # grid base; the high address bits separate them.
        assert first != second

    def test_model_validation(self):
        with pytest.raises(ConfigurationError):
            TraceModel(load_fraction=0.6, store_fraction=0.5, regions=())
        with pytest.raises(ConfigurationError):
            TraceModel(regions=())
        with pytest.raises(ConfigurationError):
            UniformRegion(weight=0.0, base=0, span_bytes=1024)
        with pytest.raises(ConfigurationError):
            TraceModel(
                dep_density=1.5,
                regions=(UniformRegion(weight=1.0, base=0, span_bytes=1024),),
            )


class TestPluginExtension:
    def test_custom_family_and_scenario_roundtrip(self):
        from repro.scenarios.registry import _FAMILIES, _SCENARIOS

        @register_family("test-constant", doc="single-address test family")
        def _constant(spec, num_instructions, seed):
            model = TraceModel(
                regions=(UniformRegion(weight=1.0, base=0x42000, span_bytes=64),),
            )
            return synthesize_trace(
                spec.name, spec.category, model, num_instructions,
                key=spec.trace_key(seed, num_instructions),
            )

        try:
            spec = register_scenario(
                ScenarioSpec(name="test-const", family="test-constant", category="int")
            )
            trace = build_trace(spec, 200)
            assert len(trace) == 200
            for instr in trace:
                if instr.kind.is_memory:
                    assert 0x42000 <= instr.addr < 0x42040
        finally:
            _FAMILIES.pop("test-constant", None)
            _SCENARIOS.pop("test-const", None)
