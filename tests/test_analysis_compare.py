"""Cross-scenario comparison tables: golden rendering + real-result smoke.

``tests/golden/comparison_report.txt`` pins the report over :data:`ENTRIES`;
regenerate it with ``PYTHONPATH=src python -m tests.golden --write comparison_report``.
"""

from __future__ import annotations

import pathlib

from repro.analysis.compare import (
    area_rows,
    comparison_report,
    detection_rows,
    hop_latency_rows,
    placement_rows,
    render_detection,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _entry(point_id, *, campaign=None, per_hop=None, split=None, area=None):
    return {
        "point_id": point_id,
        "result": {
            "campaign": campaign,
            "latency": {"per_hop": per_hop or {}, "placement_split": split or []},
            "area": area,
        },
    }


#: Synthetic, fully deterministic entry set exercising every table.
ENTRIES = [
    _entry(
        "flat/seed=0",
        campaign={"summary": {"attacks": 4, "prevented": 4, "detected": 3}},
        per_hop={"bus": 240},
        split=[
            {"placement": "leaf_master", "firewalls": 2, "evaluations": 50, "cycles": 600},
            {"placement": "bridge", "firewalls": 0, "evaluations": 0, "cycles": 0},
        ],
        area={
            "resources": {
                "slice_registers": 13000, "slice_luts": 15000,
                "lut_ff_pairs": 18000, "brams": 55,
            },
            "overhead_vs_baseline": {"slice_luts": 0.25},
        },
    ),
    _entry(
        "fabric/seed=0",
        campaign={"summary": {"attacks": 3, "prevented": 3, "detected": 3}},
        per_hop={"bus:seg_a": 120, "bridge:br0": 40},
        split=[
            {"placement": "leaf_master", "firewalls": 3, "evaluations": 90, "cycles": 1080},
            {"placement": "bridge", "firewalls": 1, "evaluations": 30, "cycles": 360},
        ],
        area={
            "resources": {
                "slice_registers": 15500, "slice_luts": 19000,
                "lut_ff_pairs": 21000, "brams": 63,
            },
            "overhead_vs_baseline": {"slice_luts": 0.472},
        },
    ),
    _entry("no-campaign/seed=0"),  # contributes to no table
]


class TestRows:
    def test_detection_rows(self):
        headers, rows = detection_rows(ENTRIES)
        assert headers[0] == "point"
        assert [r[0] for r in rows] == ["fabric/seed=0", "flat/seed=0"]
        assert rows[1][1:] == [4, 4, 3, "75%"]

    def test_hop_latency_rows_take_the_stage_union(self):
        headers, rows = hop_latency_rows(ENTRIES)
        assert headers == ["point", "bridge:br0", "bus", "bus:seg_a", "total"]
        assert rows[0][-1] == 160 and rows[1][-1] == 240
        assert rows[1][1] is None  # flat bus has no bridge column entry

    def test_placement_rows_compute_mean_cycles(self):
        _, rows = placement_rows(ENTRIES)
        bridge = next(r for r in rows if r[0] == "fabric/seed=0" and r[1] == "bridge")
        assert bridge[5] == "12.0"
        empty = next(r for r in rows if r[0] == "flat/seed=0" and r[1] == "bridge")
        assert empty[5] == "-"

    def test_area_rows_format_overhead(self):
        _, rows = area_rows(ENTRIES)
        assert rows[1][0] == "flat/seed=0" and rows[1][-1] == "+25.0%"

    def test_empty_entry_set_renders_placeholder(self):
        assert "(no data)" in render_detection([])


def golden_text() -> str:
    return comparison_report(ENTRIES) + "\n"


class TestGolden:
    def test_comparison_report_matches_golden_file(self):
        golden = (GOLDEN_DIR / "comparison_report.txt").read_text(encoding="utf-8")
        assert golden_text() == golden


class TestRealResults:
    def test_report_over_a_real_experiment_result(self):
        from repro.api import Experiment

        result = Experiment.from_scenario("minimal_1x1").run().to_dict()
        report = comparison_report([{"point_id": "minimal_1x1/live", "result": result}])
        assert "minimal_1x1/live" in report
        assert "Attack detection by scenario" in report
        assert "Modelled area by scenario" in report
