"""Tests for the CLI, the report generator, and the coherence hook."""

import json
import os
import subprocess
import sys

import pytest

from repro.cache.request import AccessType
from repro.cli import build_parser, main
from repro.experiments import report as report_module

from helpers import make_small_lnuca


class TestCLI:
    def test_parser_knows_all_commands(self):
        parser = build_parser()
        for command in ("table2", "table3", "fig4", "fig5", "ablations", "report"):
            args = parser.parse_args([command] if command != "report" else ["report"])
            assert args.command == command

    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table2_command_runs(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "L2-256KB" in out and "LN3-144KB" in out

    def test_fig4_command_with_tiny_sizes(self, capsys):
        assert main(["--instructions", "800", "--per-category", "1", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4(a)" in out
        assert "LN4-248KB" in out

    def test_report_command_writes_files(self, tmp_path, capsys):
        output = tmp_path / "results"
        code = main(
            ["--instructions", "800", "--per-category", "1", "report", "--output", str(output)]
        )
        assert code == 0
        assert (output / "REPORT.md").exists()
        assert (output / "fig4a_ipc.csv").exists()
        assert (output / "table3_hits.csv").exists()

    def test_import_loads_no_heavy_optional_modules(self):
        """``import repro.cli`` stays cheap: the store, server and pool
        modules are imported by the commands that use them."""
        heavy = ["numpy", "sqlite3", "http.server", "multiprocessing"]
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        code = (
            "import json, sys; import repro.cli; "
            f"print(json.dumps([name for name in {heavy!r} if name in sys.modules]))"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
        ).stdout
        assert json.loads(out.strip().splitlines()[-1]) == []


class TestReportModule:
    @pytest.fixture(scope="class")
    def report(self):
        return report_module.generate_report(num_instructions=800, per_category=1)

    def test_report_sections(self, report):
        assert set(report) >= {"table2", "fig4", "fig5", "fig6", "table3", "parameters"}

    def test_markdown_rendering(self, report):
        text = report_module.render_markdown(report)
        assert "# Light NUCA reproduction" in text
        assert "Figure 4(a)" in text
        assert "DN-4x8" in text

    def test_markdown_includes_fig6_scenario_sweep(self, report):
        text = report_module.render_markdown(report)
        assert "Figure 6 — scenario sweep" in text
        assert "kv-zipf-hot" in text
        assert "best gain" in text

    def test_csv_files(self, report, tmp_path):
        paths = report_module.write_csv_files(report, str(tmp_path))
        assert len(paths) == 7
        assert any(path.endswith("fig6_scenarios.csv") for path in paths)
        for path in paths:
            assert os.path.getsize(path) > 0


class TestCoherenceHook:
    def test_invalidate_removes_from_rtile_and_tiles(self):
        lnuca = make_small_lnuca(2)
        lnuca.rtile.array.fill(0x100)
        lnuca.tiles[(0, 1)].array.fill(0x200)
        assert lnuca.invalidate_block(0x100)
        assert lnuca.invalidate_block(0x200)
        assert not lnuca.rtile.array.contains(0x100)
        assert not lnuca.tiles[(0, 1)].contains(0x200)

    def test_invalidate_missing_block_returns_false(self):
        lnuca = make_small_lnuca(2)
        assert not lnuca.invalidate_block(0x12345)
        assert lnuca.stats["invalidations"] == 1
        assert lnuca.stats["invalidation_hits"] == 0

    def test_invalidate_clears_eviction_queue(self):
        lnuca = make_small_lnuca(2)
        lnuca._rtile_evictions.append((0x4000, False))
        assert lnuca.invalidate_block(0x4000)
        assert not lnuca._rtile_evictions

    def test_invalidated_block_misses_afterwards(self):
        lnuca = make_small_lnuca(2)
        lnuca.tiles[(0, 1)].array.fill(0x400)
        lnuca.invalidate_block(0x400)
        request = lnuca.issue(0x400, AccessType.LOAD, 0)
        lnuca.finalize(0)
        assert request.service_level in ("L3", "MEM")
