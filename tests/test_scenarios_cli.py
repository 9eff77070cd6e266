"""End-to-end tests: fig6 scenario sweep and the `scenarios` CLI."""

import os
from pathlib import Path

import pytest

from repro import cli
from repro.experiments import fig6_scenarios
from repro.scenarios import scenario

TINY = 400


@pytest.fixture(scope="module")
def fig6_report():
    specs = [scenario("kv-zipf-hot"), scenario("gups-8m")]
    return fig6_scenarios.run(num_instructions=TINY, specs=specs)


class TestFig6:
    def test_sweeps_all_four_hierarchies(self, fig6_report):
        assert fig6_report["systems"] == [
            "L2-256KB", "LN3-144KB", "DN-4x8", "LN3+DN-4x8",
        ]
        for by_system in fig6_report["ipc"].values():
            assert set(by_system) == set(fig6_report["systems"])
            assert all(value > 0 for value in by_system.values())

    def test_one_result_per_pair(self, fig6_report):
        assert len(fig6_report["results"]) == 8  # 2 scenarios x 4 systems

    def test_format_rows_table(self, fig6_report):
        rows = fig6_scenarios.format_rows(fig6_report)
        assert len(rows) == 1 + len(fig6_report["ipc"])
        assert "scenario" in rows[0]

    def test_write_csv(self, fig6_report, tmp_path):
        path = fig6_scenarios.write_csv(fig6_report, str(tmp_path / "sweep.csv"))
        lines = Path(path).read_text().strip().splitlines()
        assert lines[0] == "scenario," + ",".join(fig6_report["systems"])
        assert len(lines) == 1 + len(fig6_report["ipc"])

    def test_default_sweep_covers_five_new_families(self):
        from repro.scenarios import default_sweep

        assert len({spec.family for spec in default_sweep()}) >= 5


class TestScenariosCli:
    def test_list(self, capsys):
        assert cli.main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "zipf-kv" in out
        assert "kv-zipf-hot" in out
        assert "spec2006" in out

    def test_list_tag_filter(self, capsys):
        cli.main(["scenarios", "list", "--tag", "new"])
        out = capsys.readouterr().out
        assert "kv-zipf-hot" in out
        assert "mcf-like" not in out.split("scenarios:")[1]

    def test_generate_writes_trace_files(self, tmp_path, capsys):
        out_dir = str(tmp_path / "traces")
        code = cli.main(
            ["--instructions", str(TINY), "scenarios", "generate",
             "--out", out_dir, "--names", "kv-zipf-hot", "mcf-like"]
        )
        assert code == 0
        for name in ("kv-zipf-hot", "mcf-like"):
            assert os.path.exists(os.path.join(out_dir, f"{name}-{TINY}.lntr"))

    def test_run_prints_table(self, capsys):
        code = cli.main(
            ["--instructions", str(TINY), "scenarios", "run",
             "--names", "kv-zipf-hot"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "kv-zipf-hot" in out
        assert "LN3+DN-4x8" in out

    def test_run_with_trace_cache_replays_identically(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        args = ["--instructions", str(TINY), "scenarios", "run",
                "--names", "gups-8m", "--traces-dir", cache]
        cli.main(args)
        first = capsys.readouterr().out
        assert os.path.exists(os.path.join(cache, f"gups-8m-{TINY}.lntr"))
        cli.main(args)  # second run replays the captured trace
        assert capsys.readouterr().out == first

    def test_run_csv_output(self, tmp_path, capsys):
        csv_path = str(tmp_path / "out.csv")
        cli.main(
            ["--instructions", str(TINY), "scenarios", "run",
             "--names", "kv-zipf-hot", "--csv", csv_path]
        )
        assert os.path.exists(csv_path)

    def test_unknown_name_fails_cleanly(self, capsys):
        code = cli.main(["scenarios", "run", "--names", "no-such-scenario"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().out

    def test_names_and_tag_are_mutually_exclusive(self, capsys):
        code = cli.main(
            ["scenarios", "run", "--names", "kv-zipf-hot", "--tag", "hpc"]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().out

    def test_stale_trace_cache_is_regenerated(self, tmp_path, capsys):
        from repro.scenarios import build_trace, save_trace, scenario

        cache = tmp_path / "cache"
        cache.mkdir()
        # Poison the cache: right file name, but captured from a different
        # scenario definition (wrong family/seed in the header).
        imposter = build_trace(scenario("mcf-like"), TINY)
        path = cache / f"gups-8m-{TINY}.lntr"
        save_trace(imposter, str(path), extra_meta={"family": "spec2006", "seed": 14})
        cli.main(
            ["--instructions", str(TINY), "scenarios", "run",
             "--names", "gups-8m", "--traces-dir", str(cache)]
        )
        out = capsys.readouterr().out
        assert "stale capture" in out
        from repro.scenarios import read_meta

        meta = read_meta(str(path))
        assert meta["family"] == "gups"
        assert meta["name"] == "gups-8m"

    def test_params_drift_invalidates_trace_cache(self, tmp_path, capsys):
        """A capture from the same family/seed but different params is stale."""
        from repro.cli import _capture_meta
        from repro.scenarios import build_trace, save_trace, scenario

        cache = tmp_path / "cache"
        cache.mkdir()
        spec = scenario("gups-8m")
        drifted = spec.with_params(table_mb=2)
        path = cache / f"gups-8m-{TINY}.lntr"
        save_trace(build_trace(drifted, TINY), str(path), extra_meta=_capture_meta(drifted))
        cli.main(
            ["--instructions", str(TINY), "scenarios", "run",
             "--names", "gups-8m", "--traces-dir", str(cache)]
        )
        assert "stale capture" in capsys.readouterr().out
        from repro.scenarios import read_meta

        assert read_meta(str(path))["params"] == _capture_meta(spec)["params"]

    def test_workers_flag_accepted(self, capsys):
        code = cli.main(
            ["--instructions", str(TINY), "--workers", "2", "scenarios", "run",
             "--names", "kv-zipf-hot"]
        )
        assert code == 0
        assert "kv-zipf-hot" in capsys.readouterr().out


class TestWorkersWiring:
    """`run_suite(workers=N)` is reachable from the experiment modules."""

    def test_fig4_workers_identical_to_sequential(self):
        from repro.experiments import fig4_conventional

        seq = fig4_conventional.run(num_instructions=TINY, per_category=1)
        par = fig4_conventional.run(num_instructions=TINY, per_category=1, workers=2)
        assert seq["ipc"] == par["ipc"]
        assert seq["energy"] == par["energy"]

    def test_fig6_workers_identical_to_sequential(self):
        specs = [scenario("kv-zipf-hot"), scenario("stencil-2d5p")]
        seq = fig6_scenarios.run(num_instructions=TINY, specs=specs)
        par = fig6_scenarios.run(num_instructions=TINY, specs=specs, workers=2)
        assert seq["ipc"] == par["ipc"]
