"""Core fuzzer machinery: cases, generator determinism, shrinking, corpus,
report reproducibility and the ``repro fuzz`` CLI."""

from __future__ import annotations

import errno
import json
import os
import pathlib

import pytest

from repro.api.cli import main
from repro.fuzz import (
    BypassOracle,
    FuzzCase,
    SequenceGenerator,
    export_cases,
    fuzz_scenario,
    load_cases,
    planted_backdoor_spec,
    replay_case,
    shrink_case,
)
from repro.scenarios import get_scenario
from repro.soc.transaction import Step

SPEC = planted_backdoor_spec()
COMMITTED_CORPUS = pathlib.Path(__file__).parent / "corpus" / "planted_backdoor.json"


# -- cases ------------------------------------------------------------------------


def _case() -> FuzzCase:
    return FuzzCase(
        scenario="planted_backdoor",
        seed=3,
        steps=(
            Step("cpu0", "write", 0x4200_0008, data=b"\x01\x00\xb6\xde"),
            Step("cpu0", "read", 0x4200_0010),
        ),
    )


def test_case_round_trips_through_dict():
    case = _case()
    clone = FuzzCase.from_dict(json.loads(json.dumps(case.to_dict())))
    assert clone == case
    assert clone.digest() == case.digest()


def test_step_label_is_optional_in_the_payload():
    plain = Step("cpu0", "read", 0x10)
    assert "label" not in plain.to_dict()
    labelled = Step("cpu0", "read", 0x10, label="probe")
    assert labelled.to_dict() == {**plain.to_dict(), "label": "probe"}
    assert Step.from_dict(labelled.to_dict()) == labelled
    assert Step.from_dict(plain.to_dict()) == plain


def test_case_digest_tracks_steps_not_seed():
    case = _case()
    assert FuzzCase.from_dict({**case.to_dict(), "seed": 99}).digest() == case.digest()
    shorter = case.with_steps(case.steps[:1])
    assert shorter.digest() != case.digest()


def test_steps_validate_op_and_write_data():
    with pytest.raises(ValueError):
        Step("cpu0", "erase", 0x0)
    with pytest.raises(ValueError):
        Step("cpu0", "write", 0x0)  # no data


def test_steps_validate_width_burst_and_data_length():
    with pytest.raises(ValueError, match="width"):
        Step("cpu0", "read", 0x0, width=3)
    with pytest.raises(ValueError, match="burst_length"):
        Step("cpu0", "read", 0x0, burst_length=0)
    with pytest.raises(ValueError, match="data is for writes only"):
        Step("cpu0", "read", 0x0, data=bytes(4))
    with pytest.raises(ValueError, match="data must be width x burst_length = 4 bytes, got 3"):
        Step("cpu0", "write", 0x0, data=bytes(3))
    with pytest.raises(ValueError, match="data must be"):
        Step("cpu0", "write", 0x0, width=2, burst_length=2, data=bytes(2))
    assert Step("cpu0", "write", 0x0, width=2, burst_length=2, data=bytes(4)).data == bytes(4)


def test_steps_refuse_a_negative_address():
    with pytest.raises(ValueError, match="address must be non-negative, got -4"):
        Step("cpu0", "read", -4)


# In the edits below, a None value drops the field from the payload.
@pytest.mark.parametrize("edit, field", [
    ({"widht": 2}, "widht"),
    ({"width": None}, "width"),
    ({"width": "16"}, "width"),
    ({"address": 1.9}, "address"),
    ({"burst_length": True}, "burst_length"),
    ({"master": 0}, "master"),
    ({"data": "zz"}, "data"),
    ({"data": "00000000"}, "data"),  # data on a read
    ({"address": -4}, "address"),
    ({"label": 7}, "label"),
])
def test_step_from_dict_rejects_malformed_fields(edit, field):
    payload = {**Step("cpu0", "read", 0x10).to_dict(), **edit}
    payload = {key: value for key, value in payload.items() if value is not None}
    with pytest.raises(ValueError, match=field):
        Step.from_dict(payload)


@pytest.mark.parametrize("edit, field", [
    ({"seeed": 1}, "seeed"),
    ({"steps": None}, "steps"),
    ({"seed": "3"}, "seed"),
    ({"scenario": None}, "scenario"),
    ({"steps": {}}, "steps"),
])
def test_case_from_dict_rejects_malformed_fields(edit, field):
    payload = {**_case().to_dict(), **edit}
    payload = {key: value for key, value in payload.items() if value is not None}
    with pytest.raises(ValueError, match=field):
        FuzzCase.from_dict(payload)


# -- generator --------------------------------------------------------------------


def test_generator_is_deterministic_per_seed():
    a = SequenceGenerator(SPEC, seed=11)
    b = SequenceGenerator(SPEC, seed=11)
    cases_a = [a.generate(8) for _ in range(5)]
    cases_b = [b.generate(8) for _ in range(5)]
    assert cases_a == cases_b
    assert [a.mutate(c) for c in cases_a] == [b.mutate(c) for c in cases_b]
    assert SequenceGenerator(SPEC, seed=12).generate(8) != cases_a[0]


def test_generator_templates_speak_the_device_protocols():
    generator = SequenceGenerator(SPEC, seed=0)
    addresses = {step.address for step in generator.templates}
    boot = SPEC.topology.slave("boot0")
    assert boot.base + 0x8 in addresses  # DEBUG register
    assert boot.base + 0x0 in addresses  # STAGE register
    assert boot.base + 0x10 in addresses  # first key word
    assert all(step.master == "" for step in generator.templates)


def test_generated_steps_stay_inside_the_address_map():
    generator = SequenceGenerator(SPEC, seed=2)
    slaves = list(SPEC.topology.slaves)
    for case in (generator.generate(20) for _ in range(10)):
        for step in case.steps:
            assert any(s.base <= step.address < s.end for s in slaves)
            assert step.master in {"cpu0", "cpu1"}


# -- oracle + shrinker ------------------------------------------------------------


@pytest.fixture(scope="module")
def leak_violation():
    oracle = BypassOracle(SPEC)
    boot = SPEC.topology.slave("boot0")
    noise = Step("cpu1", "read", 0x0)
    case = FuzzCase(
        scenario=SPEC.name,
        seed=0,
        steps=(
            noise,
            Step("cpu0", "write", boot.base + 0x8, data=b"\x01\x00\xb6\xde"),
            noise,
            Step("cpu0", "write", boot.base + 0x0, data=b"\x00" * 4),
            noise,
            Step("cpu0", "read", boot.base + 0x10),
            noise,
        ),
    )
    result = oracle.run(case)
    assert [v.kind for v in result.violations] == ["guard_leak"]
    return oracle, case, result.violations[0]


def test_oracle_flags_the_planted_leak_with_a_witness(leak_violation):
    _, _, violation = leak_violation
    assert violation.identity == ("guard_leak", "cpu0", "boot0", "read")
    witness = violation.witness
    assert witness.expectation == "reaches_silently"
    assert witness.target == "boot0"


def test_oracle_is_clean_on_the_honest_protocol():
    oracle = BypassOracle(SPEC)
    boot = SPEC.topology.slave("boot0")
    result = oracle.run(FuzzCase(
        scenario=SPEC.name,
        seed=0,
        steps=(
            Step("cpu0", "write", boot.base, data=b"\x03\x00\x00\x00"),  # advance
            Step("cpu0", "read", boot.base + 0x10),  # keys are wiped: no leak
        ),
    ))
    assert result.clean
    assert result.steps_run == 2
    assert result.signature  # stage_advances showed up in the coverage signature


def test_shrinker_reduces_to_the_three_step_chain(leak_violation):
    oracle, case, violation = leak_violation
    minimized = shrink_case(oracle, case, violation)
    assert len(minimized) == 3
    assert [s.op for s in minimized.steps] == ["write", "write", "read"]
    replay = oracle.run(minimized)
    assert any(v.identity == violation.identity for v in replay.violations)


def test_shrinker_refuses_a_non_reproducing_premise(leak_violation):
    oracle, case, violation = leak_violation
    benign = case.with_steps(case.steps[:1])
    assert shrink_case(oracle, benign, violation) == benign


# -- corpus -----------------------------------------------------------------------


def test_corpus_round_trips_through_a_file(tmp_path, leak_violation):
    _, case, violation = leak_violation
    replay = [{"status": "completed", "alerts": 0}] * len(case)
    finding = {"case": case.to_dict(), "violation": violation.to_dict(), "replay": replay}
    path = tmp_path / "corpus.json"
    assert export_cases(path, [finding]) == [f"fuzz/{case.scenario}/{case.digest()}"]
    loaded = load_cases(path)
    assert loaded == [{"schema": 2, **json.loads(json.dumps(finding))}]
    assert FuzzCase.from_dict(loaded[0]["case"]) == case

    # A second identical write changes nothing.
    written = path.read_bytes()
    export_cases(path, [finding])
    assert path.read_bytes() == written
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.json"]

    # A merge keeps the existing entries first; a known key is rewritten in place.
    shorter = case.with_steps(case.steps[1:])
    other = {**finding, "case": shorter.to_dict(), "replay": replay[1:]}
    keys = export_cases(path, [other, {**finding, "replay": replay[:1]}])
    assert keys[0] == f"fuzz/{shorter.scenario}/{shorter.digest()}"
    merged = load_cases(path)
    assert [entry["case"] for entry in merged] == [case.to_dict(), shorter.to_dict()]
    assert merged[0]["replay"] == replay[:1]


def test_load_cases_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 99, "cases": []}))
    with pytest.raises(ValueError):
        load_cases(path)


# -- the fuzzing loop -------------------------------------------------------------


def test_fuzz_scenario_is_bit_reproducible():
    kwargs = dict(seed=5, budget=8, n_steps=6, shrink=False)
    first = fuzz_scenario(get_scenario("minimal_1x1"), **kwargs)
    second = fuzz_scenario(get_scenario("minimal_1x1"), **kwargs)
    assert first.to_dict() == second.to_dict()
    assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
        second.to_dict(), sort_keys=True
    )
    assert first.cases_run == 8
    assert first.clean


def test_fuzz_scenario_constructs_one_builder(built_specs):
    report = fuzz_scenario(get_scenario("paper_baseline"), seed=0, budget=6, n_steps=6)
    assert report.clean and report.cases_run == 6
    assert built_specs == ["paper_baseline"]


def test_a_find_is_minimized_and_replayed_on_the_oracles_builder(built_specs):
    report = fuzz_scenario(SPEC, seed=0, budget=60, n_steps=10, stop_on_first=True)
    assert len(report.findings) == 1
    assert built_specs == [SPEC.name]


def test_fuzz_scenario_accepts_only_the_object_engine():
    spec = get_scenario("minimal_1x1")
    pinned = fuzz_scenario(spec, seed=5, budget=2, n_steps=4, engines=("object",))
    assert pinned.to_dict() == fuzz_scenario(spec, seed=5, budget=2, n_steps=4).to_dict()
    with pytest.raises(ValueError, match="engine"):
        fuzz_scenario(spec, budget=1, engines=("object", "vector"))


@pytest.mark.parametrize("argument, kwargs", [
    ("budget", {"budget": 0}),
    ("budget", {"budget": -5}),
    ("n_steps", {"n_steps": 0}),
])
def test_fuzz_scenario_refuses_a_run_that_tries_nothing(argument, kwargs):
    with pytest.raises(ValueError, match=argument):
        fuzz_scenario(get_scenario("minimal_1x1"), **kwargs)


def test_replay_case_reports_each_step(leak_violation):
    _, case, _ = leak_violation
    replay = replay_case(SPEC, case)
    assert len(replay) == len(case)
    assert all(set(step) == {"status", "alerts"} for step in replay)


# -- CLI --------------------------------------------------------------------------


def test_cli_fuzz_clean_scenario_exits_zero(capsys):
    assert main(["fuzz", "minimal_1x1", "--seed", "1", "--budget", "4",
                 "--steps", "4"]) == 0
    out = capsys.readouterr().out
    assert "clean" in out


def test_cli_fuzz_planted_backdoor_exits_one_with_json(capsys):
    code = main(["fuzz", "planted_backdoor", "--seed", "0", "--budget", "60",
                 "--steps", "10", "--json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is False
    finding = payload["findings"][0]
    assert finding["violation"]["kind"] == "guard_leak"
    assert [step["status"] for step in finding["replay"]] == ["completed"] * 3


def test_cli_fuzz_unknown_scenario_fails(capsys):
    with pytest.raises(SystemExit):
        main(["fuzz", "no_such_scenario", "--budget", "1"])


_JUMP_STEP = {"master": "cpu0", "op": "jump", "address": 0, "width": 4, "burst_length": 1}
_ENTRY = json.loads(COMMITTED_CORPUS.read_text())["cases"][0]


@pytest.mark.parametrize("document, reason", [
    (None, os.strerror(errno.ENOENT)),
    ("not json", "Expecting value: line 1 column 1 (char 0)"),
    ({"schema": 1, "cases": []}, "unsupported corpus schema 1"),
    ({"schema": 2, "cases": [{"case": {"scenario": "minimal_1x1", "seed": 0,
                                        "steps": [_JUMP_STEP]}}]},
     "step op must be one of ('read', 'write'), got 'jump'"),
    ({"schema": 2, "cases": [{"violation": {}}]},
     "corpus entry 0 is not an object holding a 'case' object"),
    ({"schema": 2, "cases": ["minimal_1x1"]},
     "corpus entry 0 is not an object holding a 'case' object"),
    ({"schema": 2, "cases": [{**_ENTRY, "violation": "x"}]},
     "corpus entry 0: 'violation' must be an object whose 'kind', 'master', "
     "'target' and 'op' are strings"),
    ({"schema": 2, "cases": [_ENTRY, {**_ENTRY, "replay": [["completed", 0]]}]},
     "corpus entry 1: 'replay' must be a list of objects"),
], ids=["missing", "not_json", "schema_1", "jump_step", "no_case", "string_entry",
        "string_violation", "replay_of_lists"])
def test_cli_fuzz_bad_replay_file_is_one_line_and_exit_one(document, reason, tmp_path, capsys):
    path = tmp_path / "corpus.json"
    if document is not None:
        path.write_text(document if isinstance(document, str) else json.dumps(document))
    assert main(["fuzz", "minimal_1x1", "--replay", str(path)]) == 1
    assert capsys.readouterr().err == f"repro fuzz: {path}: {reason}\n"


def test_cli_fuzz_replay_checks_the_committed_corpus(capsys):
    assert main(["fuzz", "planted_backdoor",
                 "--replay", "tests/corpus/planted_backdoor.json"]) == 0
    out = capsys.readouterr().out
    assert "0 failure(s)" in out


def test_cli_fuzz_replay_builds_one_oracle_per_scenario(tmp_path, built_specs, capsys):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"schema": 2, "cases": [_ENTRY, _ENTRY]}))
    assert main(["fuzz", "planted_backdoor", "--replay", str(path)]) == 0
    assert "replayed 2 corpus case(s), 0 failure(s)" in capsys.readouterr().out
    assert built_specs == ["planted_backdoor"]


def test_cli_fuzz_replay_checks_only_the_named_scenarios_entries(tmp_path, built_specs, capsys):
    """Another scenario's entries are skipped: they are neither replayed nor
    counted, and no platform is built for them."""
    other = {**_ENTRY, "case": {**_ENTRY["case"], "scenario": "minimal_1x1"},
             "replay": [{"status": "bogus", "alerts": 0}]}
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"schema": 2, "cases": [other, _ENTRY]}))
    assert main(["fuzz", "planted_backdoor", "--replay", str(path)]) == 0
    out = capsys.readouterr().out
    assert "replayed 1 corpus case(s), 0 failure(s)" in out
    assert "minimal_1x1/" not in out
    assert built_specs == ["planted_backdoor"]


def test_cli_fuzz_replay_without_an_entry_for_the_scenario_is_one_line(built_specs, capsys):
    assert main(["fuzz", "minimal_1x1", "--replay", str(COMMITTED_CORPUS)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"repro fuzz: {COMMITTED_CORPUS}: "
                            "no corpus entry for scenario 'minimal_1x1'\n")
    assert captured.out == ""
    assert built_specs == []


def test_cli_fuzz_corpus_writes_the_committed_corpus(tmp_path, capsys):
    """One command regenerates ``tests/corpus/planted_backdoor.json``; a
    second run leaves the file as it is, and ``--replay`` accepts it."""
    path = tmp_path / "corpus.json"
    argv = ["fuzz", "planted_backdoor", "--seed", "0", "--budget", "60",
            "--steps", "10", "--corpus", str(path)]
    assert main([*argv, "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    digest = FuzzCase.from_dict(report["findings"][0]["case"]).digest()
    assert report["corpus_keys"] == [f"fuzz/planted_backdoor/{digest}"]
    assert path.read_bytes() == COMMITTED_CORPUS.read_bytes()

    assert main(argv) == 1
    assert f"corpus   : 1 case(s) -> {path}" in capsys.readouterr().out
    assert path.read_bytes() == COMMITTED_CORPUS.read_bytes()
    assert main(["fuzz", "planted_backdoor", "--replay", str(path)]) == 0


def test_cli_fuzz_corpus_refuses_a_malformed_file_in_one_line(tmp_path, built_specs, capsys):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"schema": 1, "cases": []}))
    argv = ["fuzz", "minimal_1x1", "--budget", "1", "--steps", "1", "--corpus", str(path)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"repro fuzz: {path}: unsupported corpus schema 1\n"
    assert json.loads(path.read_text()) == {"schema": 1, "cases": []}
    # The file is refused before the search builds its first platform.
    assert built_specs == []


def test_cli_fuzz_corpus_and_replay_exclude_each_other(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["fuzz", "planted_backdoor", "--corpus", str(tmp_path / "a.json"),
              "--replay", str(COMMITTED_CORPUS)])
    assert excinfo.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
