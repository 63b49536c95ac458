"""Scenario catalog metadata, its generated docs page, and the CLI surface."""

from __future__ import annotations

import json
import pathlib

from repro.api.cli import main as cli_main
from repro.scenarios import get_scenario, list_scenarios
from repro.scenarios.catalog import (
    render_catalog,
    scenario_summaries,
    scenario_summary,
    security_label,
    summary_line,
    topology_label,
)

REPO_ROOT = pathlib.Path(__file__).parent.parent
CATALOG_PAGE = REPO_ROOT / "docs" / "scenario-catalog.md"


class TestSummaries:
    def test_every_scenario_has_a_summary(self):
        summaries = scenario_summaries()
        assert [s["name"] for s in summaries] == list_scenarios()
        for summary in summaries:
            assert summary["description"]
            assert summary["doc"], f"{summary['name']}: factory needs a docstring"
            assert summary["masters"] and summary["slaves"]

    def test_topology_label_flat_vs_fabric(self):
        assert topology_label(scenario_summary("paper_baseline")) == "4M/3S flat"
        assert topology_label(scenario_summary("deep_hierarchy_3seg")) == "3M/4S 3seg/2br"

    def test_security_label_covers_placement_and_enforcement(self):
        assert security_label(scenario_summary("two_segment_dma_isolation")) == "both/distributed"
        assert security_label(scenario_summary("centralized_baseline_mirror")) == "-/centralized"

    def test_summary_matches_the_spec(self):
        spec = get_scenario("attack_heavy")
        summary = scenario_summary("attack_heavy")
        assert summary["attacks"] == [a.kind for a in spec.attacks]
        assert summary["workload_operations"] == spec.workload.n_operations

    def test_summary_line_carries_segment_and_placement_info(self):
        line = summary_line(scenario_summary("deep_hierarchy_3seg"))
        assert "3seg/2br" in line and "both/distributed" in line
        assert line.startswith("deep_hierarchy_3seg")


class TestGeneratedPage:
    def test_checked_in_catalog_is_in_sync_with_the_registry(self):
        assert CATALOG_PAGE.exists(), "docs/scenario-catalog.md missing"
        assert CATALOG_PAGE.read_text(encoding="utf-8") == render_catalog(), (
            "docs/scenario-catalog.md is stale; regenerate with "
            "`python -m repro catalog --write docs/scenario-catalog.md`"
        )

    def test_rendered_page_mentions_every_scenario(self):
        page = render_catalog()
        for name in list_scenarios():
            assert f"## {name}" in page


class TestCli:
    def test_list_prints_topology_and_placement_summaries(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "2seg/1br" in out and "both/distributed" in out
        assert "-/centralized" in out
        for name in list_scenarios():
            assert name in out

    def test_list_json_carries_the_catalog_metadata(self, capsys):
        assert cli_main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {entry["name"] for entry in payload} == set(list_scenarios())
        deep = next(e for e in payload if e["name"] == "deep_hierarchy_3seg")
        assert deep["segments"] == ["seg0", "seg1", "seg2"]
        assert deep["placement"] == "both"

    def test_catalog_check_passes_on_the_checked_in_page(self, capsys):
        assert cli_main(["catalog", "--check", str(CATALOG_PAGE)]) == 0

    def test_catalog_check_fails_on_a_stale_page(self, tmp_path, capsys):
        stale = tmp_path / "catalog.md"
        stale.write_text("# outdated\n", encoding="utf-8")
        assert cli_main(["catalog", "--check", str(stale)]) == 1
        assert "out of date" in capsys.readouterr().err

    def test_catalog_write_roundtrips_through_check(self, tmp_path, capsys):
        page = tmp_path / "generated.md"
        assert cli_main(["catalog", "--write", str(page)]) == 0
        assert cli_main(["catalog", "--check", str(page)]) == 0

    def test_sweep_run_and_gc_cli(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        argv = ["sweep", "run", "--scenario", "minimal_1x1", "--store", store, "--json"]
        assert cli_main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["computed"]) == 1

        assert cli_main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["computed"] == [] and len(report["cached"]) == 1

        assert cli_main(["sweep", "gc", "--keep-latest", "1", "--store", store, "--json"]) == 0
        gc_report = json.loads(capsys.readouterr().out)
        assert gc_report["applied"] is False and gc_report["dropped_points"] == []

    def test_sweep_gc_refuses_a_missing_store(self, tmp_path, capsys):
        missing = str(tmp_path / "no-such-store")
        assert cli_main(["sweep", "gc", "--keep-latest", "1", "--store", missing]) == 1
        assert "no result store" in capsys.readouterr().err
        assert not (tmp_path / "no-such-store").exists()  # nothing was created

    def test_sweep_run_refuses_a_regular_file_store_up_front(self, tmp_path, capsys):
        store = tmp_path / "store"
        store.write_text("not a directory\n")
        argv = ["sweep", "run", "--scenario", "minimal_1x1", "--store", str(store)]
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == f"repro sweep run: {store}: File exists\n"
        assert store.read_text() == "not a directory\n"

    def test_sweep_run_rejects_unknown_scenario_pattern(self, tmp_path):
        import pytest

        with pytest.raises(SystemExit, match="no scenario matches"):
            cli_main(["sweep", "run", "--scenario", "nope-*",
                      "--store", str(tmp_path / "s")])
