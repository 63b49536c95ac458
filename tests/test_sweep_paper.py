"""``repro paper``: cold regeneration, full cache service, artifact content."""

from __future__ import annotations

import json

from repro.api.cli import main as cli_main
from repro.sweep import ResultStore, regenerate_paper
from repro.sweep.paper import PAPER_FAST_SCENARIOS, paper_sweep_spec

EXPECTED_ARTIFACTS = {
    "figure1_architecture.txt",
    "table1_area.txt",
    "table2_latency.txt",
    "detection_matrix.txt",
    "per_hop_latency.txt",
    "placement_split.txt",
    "index.json",
}


class TestPaperRegeneration:
    def test_fast_cold_run_then_fully_cached_second_invocation(self, tmp_path):
        store = tmp_path / "store"

        # Cold store: every sweep point computes, every artifact appears.
        first = regenerate_paper(store, tmp_path / "out1", fast=True)
        assert sorted({p.split("/")[0] for p in first.sweep.computed}) == sorted(
            PAPER_FAST_SCENARIOS
        )
        assert not first.sweep.cached
        assert set(first.artifacts) == EXPECTED_ARTIFACTS
        for path in first.artifacts.values():
            content = open(path, encoding="utf-8").read()
            assert content.strip(), f"empty artifact: {path}"

        # Warm store: nothing recomputes, artifacts are identical.
        second = regenerate_paper(store, tmp_path / "out2", fast=True)
        assert second.sweep.computed == []
        assert sorted(second.sweep.cached) == sorted(first.sweep.computed)
        assert second.sweep.store_digest == first.sweep.store_digest
        for name in EXPECTED_ARTIFACTS - {"index.json"}:
            assert (tmp_path / "out1" / name).read_text() == (
                tmp_path / "out2" / name
            ).read_text()

    def test_table2_artifact_reproduces_the_paper_cycles(self, tmp_path):
        report = regenerate_paper(tmp_path / "store", tmp_path / "out", fast=True)
        store = ResultStore(tmp_path / "store")
        entry = next(
            store.get(key)
            for point_id, key in report.sweep.keys.items()
            if point_id.startswith("paper_baseline/")
        )
        rows = {row["module"]: row for row in entry["result"]["latency"]["table2"]}
        assert rows["SB (LF/LCF)"]["measured_cycles"] == rows["SB (LF/LCF)"]["paper_cycles"] == 12
        assert rows["CC"]["measured_cycles"] == rows["CC"]["paper_cycles"] == 11
        assert rows["IC"]["measured_cycles"] == rows["IC"]["paper_cycles"] == 20
        text = (tmp_path / "out" / "table2_latency.txt").read_text()
        assert "SB (LF/LCF)" in text and "paper_baseline" in text

    def test_index_records_the_sweep_outcome(self, tmp_path):
        regenerate_paper(tmp_path / "store", tmp_path / "out", fast=True)
        index = json.loads((tmp_path / "out" / "index.json").read_text())
        assert index["fast"] is True
        assert index["sweep"]["total"] == len(index["sweep"]["computed"])
        assert set(index["artifacts"]) == EXPECTED_ARTIFACTS

    def test_full_spec_covers_the_whole_registry(self):
        from repro.scenarios import list_scenarios

        assert paper_sweep_spec(fast=False).scenarios == tuple(list_scenarios())
        assert paper_sweep_spec(fast=True).scenarios == PAPER_FAST_SCENARIOS


class TestPaperCli:
    def test_cli_json_reports_cache_service(self, tmp_path, capsys):
        store, out = str(tmp_path / "store"), str(tmp_path / "out")
        assert cli_main(["paper", "--fast", "--store", store, "--out", out]) == 0
        human = capsys.readouterr().out
        assert "computed" in human

        assert cli_main(
            ["paper", "--fast", "--store", store, "--out", out, "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sweep"]["computed"] == []
        assert len(payload["sweep"]["cached"]) == len(PAPER_FAST_SCENARIOS)

    def test_cli_refuses_a_regular_file_out_before_any_point_runs(self, tmp_path, capsys):
        store, out = tmp_path / "store", tmp_path / "out"
        out.write_text("not a directory\n")
        assert cli_main(["paper", "--fast", "--store", str(store), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"repro paper: {out}: File exists\n"
        assert not store.exists()  # no sweep point was computed into the store
