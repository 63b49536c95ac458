"""Golden expected findings and coverage, CLI surface, and
``ScenarioBuilder(verify=True)``.

After an intentional change to the verifier, regenerate both goldens with::

    PYTHONPATH=src python -m tests.golden --write verify_findings verify_coverage
"""

import json
import pathlib

import pytest

from repro.api.cli import main
from repro.scenarios.builder import ScenarioBuilder
from repro.scenarios.registry import get_scenario, list_scenarios
from repro.staticcheck import StaticCheckError, verify_scenario
from tests.test_staticcheck_analyzer import bypass_spec

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN_PATH = GOLDEN_DIR / "verify_findings.json"
COVERAGE_PATH = GOLDEN_DIR / "verify_coverage.json"


def _findings(name):
    return [
        {"code": f.code, "severity": f.severity, "subject": f.subject}
        for f in verify_scenario(name).findings
    ]


def _coverage(name):
    """``[master, target, op, width, enforced_by]`` per coverage witness."""
    return [
        [w.master, w.target, w.op, w.width, w.enforced_by]
        for w in verify_scenario(name).coverage
    ]


def _dump_coverage(table):
    """One witness per line, so a moved enforcing hop is a one-line diff."""
    entries = []
    for name, rows in table.items():
        body = "".join(f"\n    {json.dumps(row)}," for row in rows).rstrip(",")
        entries.append(f"  {json.dumps(name)}: [{body}\n  ]" if rows else f"  {json.dumps(name)}: []")
    return "{\n" + ",\n".join(entries) + "\n}\n"


def findings_text():
    return json.dumps({name: _findings(name) for name in list_scenarios()}, indent=2) + "\n"


def coverage_text():
    return _dump_coverage({name: _coverage(name) for name in list_scenarios()})


def test_findings_match_golden_file():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(list_scenarios())
    for name in list_scenarios():
        assert _findings(name) == golden[name], (
            f"{name}: findings drifted from tests/golden/verify_findings.json; "
            "regenerate it if the change is intentional"
        )


def test_coverage_matches_golden_file():
    golden = json.loads(COVERAGE_PATH.read_text(encoding="utf-8"))
    assert list(golden) == list_scenarios()
    for name in list_scenarios():
        assert _coverage(name) == golden[name], (
            f"{name}: coverage witnesses drifted from tests/golden/verify_coverage.json; "
            "regenerate it if the change is intentional"
        )


class TestVerifyCli:
    def test_verify_all_exits_zero(self, capsys):
        assert main(["verify", "--all"]) == 0
        out = capsys.readouterr().out
        assert "Static policy/fabric verification" in out
        assert "no error findings" in out

    def test_verify_json_schema(self, capsys):
        assert main(["verify", "paper_baseline", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["errors"] == 0
        (report,) = payload["reports"]
        assert report["scenario"] == "paper_baseline"
        assert report["verdict"] == "ok"
        assert set(report["counts"]) == {"error", "warning", "info"}
        assert all(w["enforced_by"] for w in report["coverage"])

    def test_verify_confirm_replays_witnesses(self, capsys):
        assert main(["verify", "sparse_protection", "--confirm", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed_confirmations"] == 0
        results = payload["confirmations"]["sparse_protection"]
        assert results and all(r["confirmed"] for r in results)

    def test_verify_unknown_scenario_fails(self, capsys):
        assert main(["verify", "nonsense"]) == 1
        assert "no scenario named" in capsys.readouterr().err


class TestBuilderVerify:
    def test_verify_off_by_default(self):
        ScenarioBuilder(bypass_spec())  # builds despite the ERROR finding
        ScenarioBuilder(bypass_spec(), verify=False)

    def test_verify_raises_on_error_findings(self):
        with pytest.raises(StaticCheckError) as excinfo:
            ScenarioBuilder(bypass_spec(), verify=True)
        assert "unguarded-path" in str(excinfo.value)
        assert repr(bypass_spec().name) in str(excinfo.value)
        assert excinfo.value.report.has_errors

    def test_registered_scenarios_pass_verify(self):
        for name in ("paper_baseline", "deep_hierarchy_3seg"):
            ScenarioBuilder(get_scenario(name), verify=True)


def test_catalog_verified_column_matches_analyzer():
    from repro.scenarios.catalog import scenario_summaries

    for summary in scenario_summaries():
        assert summary["verified"] == verify_scenario(summary["name"]).verdict()


def test_catalog_page_in_sync(capsys):
    assert main(["catalog", "--check"]) == 0
