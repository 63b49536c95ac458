"""Tests of the benchmark's own arithmetic, correctness check and declarations.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

import argparse
import json
import pathlib
import re
import time

import pytest

import run
import spans
import suite

ROOT = pathlib.Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- span arithmetic -------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    rows = [
        ["root", -1, 0.0, 10.0],
        ["a", 0, 1.0, 4.0],
        ["b", 0, 5.0, 9.0],
        ["a", 2, 6.0, 7.0],  # grandchild of root, child of b
    ]
    folded = spans.fold_spans(rows)
    assert folded["root"]["self"] == pytest.approx(3.0)
    assert folded["b"]["self"] == pytest.approx(3.0)
    assert folded["a"] == {"total": pytest.approx(4.0), "self": pytest.approx(4.0), "count": 2}
    # Self times of all spans add up to the root's duration.
    assert sum(row["self"] for row in folded.values()) == pytest.approx(10.0)
    assert spans.unattributed(rows, wall_s=12.5) == pytest.approx(2.5)


def test_recorder_nests_calls_and_restores_on_error():
    ticks = iter(range(100))
    recorder = spans.SpanRecorder(clock=lambda: float(next(ticks)))

    inner = recorder.wrap("inner", lambda: None)

    def boom():
        inner()
        raise ValueError("boom")

    outer = recorder.wrap("outer", boom)
    with pytest.raises(ValueError):
        outer()
    recorder.wrap("after", lambda: None)()
    names = [(row[0], row[1]) for row in recorder.spans]
    assert names == [("outer", -1), ("inner", 0), ("after", -1)]
    folded = spans.fold_spans(recorder.spans)
    assert folded["outer"]["total"] == 3.0  # ticks 0..3
    assert folded["outer"]["self"] == 2.0


def test_install_wraps_and_uninstall_restores():
    import repro.api.experiment as experiment
    from repro.scenarios.builder import BuiltScenario

    before = (experiment.Experiment.__dict__["run"], experiment.aggregate_hop_latency,
              BuiltScenario.__dict__["run_workload"])
    recorder = spans.SpanRecorder()
    uninstall, missing = spans.install(recorder)
    try:
        assert missing == []
        assert experiment.Experiment.__dict__["run"].__wrapped__ is before[0]
        assert experiment.aggregate_hop_latency.__wrapped__ is before[1]
    finally:
        uninstall()
    after = (experiment.Experiment.__dict__["run"], experiment.aggregate_hop_latency,
             BuiltScenario.__dict__["run_workload"])
    assert after == before


def test_wrapped_experiment_spans_sum_to_run_time():
    from repro.api import Experiment

    recorder = spans.SpanRecorder()
    uninstall, _ = spans.install(recorder)
    try:
        Experiment.from_scenario("minimal_1x1").no_attacks().run()
    finally:
        uninstall()
    folded = spans.fold_spans(recorder.spans)
    top = [row for row in recorder.spans if row[1] < 0]
    assert [row[0] for row in top] == ["api.experiment.run_self"]
    run_total = top[0][3] - top[0][2]
    assert sum(row["self"] for row in folded.values()) == pytest.approx(run_total)
    assert folded["scenarios.builder.build_self"]["count"] == 1
    assert folded["soc.kernel.drain"]["count"] == 1


# -- folds -----------------------------------------------------------------------------


def test_module_of_maps_files_to_layers():
    root = "/x/src/repro"
    assert spans.module_of("/x/src/repro/soc/fabric/bridge.py", root) == "soc.fabric.bridge"
    assert spans.module_of("/x/src/repro/soc/__init__.py", root) == "soc"
    assert spans.module_of("~", root) == "builtin"
    assert spans.module_of("/usr/lib/python3.11/heapq.py", root) == "stdlib"


def test_importtime_fold_sums_self_times_per_subpackage():
    lines = [
        "import time: self [us] | cumulative | imported package",
        "import time:       120 |        120 |   json",
        "import time:      1000 |       1500 |     repro.soc.kernel",
        "import time:       500 |        500 |   repro.soc",
        "import time:      2000 |       4000 | repro.api.experiment",
        "import time:        50 |         50 | repro",
    ]
    folded = spans.fold_importtime(lines, ("soc", "api", "fuzz"))
    assert folded == {"soc": pytest.approx(0.0015), "api": pytest.approx(0.002), "fuzz": 0.0}


# -- piecewise timing ------------------------------------------------------------------


def test_piecewise_fastest_sums_each_pieces_fastest_time():
    reps = [
        [0.5, 1.0, 2.0],
        [0.7, 0.8, 2.5],
        [0.6, 0.9, 1.5],
    ]
    assert run.piecewise_fastest(reps) == pytest.approx(0.5 + 0.8 + 1.5)
    with pytest.raises(RuntimeError):
        run.piecewise_fastest(reps + [[0.1, 0.1]])


def test_times_are_scaled_by_the_reference_speed():
    bench = _bench()
    plain = _fake_reps()[0]
    nominal = suite.REFERENCE_NOMINAL_S
    at_nominal = bench.end_to_end([plain])
    assert at_nominal["wall_s"] == pytest.approx(1.0)
    assert at_nominal["setup_s"] == pytest.approx(0.1)
    # A host running at half speed: everything, the reference too, takes twice as long.
    slow = dict(plain, pieces=[0.8, 1.2], setup_s=0.2, reference_chunks=[2 * nominal] * 4)
    assert bench.end_to_end([slow]) == pytest.approx(at_nominal)


def test_reference_is_each_chunks_fastest_time_averaged():
    nominal = suite.REFERENCE_NOMINAL_S
    reps = [
        {"reference_chunks": [nominal, 3 * nominal]},
        {"reference_chunks": [2 * nominal, 2 * nominal]},
    ]
    assert run.reference_s(reps) == pytest.approx(1.5 * nominal)


def test_reference_chunk_is_deterministic_and_set_for_every_workload():
    assert suite._reference_chunk(500) == suite._reference_chunk(500)
    assert set(suite.REFERENCE_STRIDE) == set(suite.WORKLOADS)


def test_piece_clock_cuts_a_run_at_every_build():
    from repro.api import Experiment
    from repro.scenarios.builder import ScenarioBuilder

    before = ScenarioBuilder.__dict__["build"]
    clock = suite.PieceClock()
    clock.install()
    try:
        start = time.perf_counter()
        Experiment.from_scenario("minimal_1x1").no_attacks().run()
        Experiment.from_scenario("minimal_1x1").no_attacks().run()
        end = time.perf_counter()
    finally:
        clock.uninstall()
    assert ScenarioBuilder.__dict__["build"] is before
    pieces = clock.pieces(start, end)
    assert len(pieces) == 3
    assert all(piece >= 0 for piece in pieces)
    # Every cut times a reference chunk at stride 1; the pieces leave it out.
    assert len(clock.references) == 2
    assert sum(pieces) + sum(clock.references) == pytest.approx(end - start)


# -- correctness check -----------------------------------------------------------------


def _bench(workload="fabric_drain"):
    args = argparse.Namespace(workload=workload, seed=0, seconds=0, trace=0)
    bench = run.Bench(ROOT, args)
    bench.pins = {"default_seed": 0, "workloads": {workload: {"0": {"u1": "aa", "u2": "bb"}}}}
    return bench


def test_check_flags_a_tampered_unit_against_the_pin():
    bench = _bench()
    good = {"seed": 0, "mode": "plain", "units": {"u1": "aa", "u2": "bb"}}
    tampered = {"seed": 0, "mode": "plain", "units": {"u1": "aa", "u2": "cc"}}
    assert bench.check([good, good]) == {"attempted": 4, "failed": 0}
    assert bench.check([good, tampered]) == {"attempted": 4, "failed": 1}


def test_check_flags_missing_errored_and_disagreeing_units():
    bench = _bench()
    missing = {"seed": 0, "mode": "plain", "units": {"u1": "aa"}}
    crashed = {"seed": 0, "mode": "plain", "error": "Traceback"}
    assert bench.check([missing]) == {"attempted": 2, "failed": 1}
    assert bench.check([crashed]) == {"attempted": 2, "failed": 2}
    # An unpinned seed: repetitions are checked against each other.
    reps = [{"seed": 5, "mode": "plain", "units": {"u": d}} for d in ("x", "x", "y")]
    assert bench.check(reps) == {"attempted": 3, "failed": 1}
    broken = [{"seed": 5, "mode": "plain", "units": {"u": "error: table2"}}]
    assert bench.check(broken) == {"attempted": 1, "failed": 1}


def test_result_digest_moves_with_results_but_not_wall_clock():
    from repro.api import Experiment

    result = Experiment.from_scenario("minimal_1x1").run().to_dict()
    reference = suite.unit_digest(result)
    assert not reference.startswith("error")

    result["campaign"]["metrics"]["wall_seconds"] += 1.0
    assert suite.unit_digest(result) == reference

    result["workload"]["events_processed"] += 1
    assert suite.unit_digest(result) != reference


def test_table2_check_flags_a_wrong_cycle_cost():
    from repro.api import Experiment

    result = Experiment.from_scenario("paper_baseline").no_attacks().run().to_dict()
    assert suite.table2_error(result) is None
    row = next(r for r in result["latency"]["table2"] if r["module"] == "IC")
    row["measured_cycles"] = 21.0
    assert suite.unit_digest(result).startswith("error: table2 IC")


def test_pinned_digests_cover_every_workload_at_both_seeds():
    pins = json.loads(run.PINS_PATH.read_text())
    seeds = {str(pins["default_seed"]), str(pins["held_out_seed"])}
    assert len(seeds) == 2
    assert set(pins["workloads"]) == set(suite.WORKLOADS)
    for workload, by_seed in pins["workloads"].items():
        assert set(by_seed) == seeds, workload
        for units in by_seed.values():
            assert units and all(re.fullmatch(r"[0-9a-f]{64}", d) for d in units.values())


# -- declarations ----------------------------------------------------------------------


def test_benchmark_json_follows_the_declared_limits():
    bench = declared()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert bench["paths"] == ["perfbench"]
    assert 1 <= bench["run_seconds"] <= 60
    assert [w["name"] for w in bench["workloads"]] == list(suite.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in bench["workloads"])
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in bench[group]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in bench["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def _fake_reps():
    counters = suite._zero_counters()
    plain = {"mode": "plain", "wall_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 40.0,
             "counters": counters, "pieces": [0.4, 0.6],
             "reference_chunks": [suite.REFERENCE_NOMINAL_S] * 4}
    traced = dict(plain, mode="spans", spans={}, unattributed_s=0.0)
    profiled = dict(plain, mode="profile", profile={"soc.kernel": 1.0})
    imports = [dict.fromkeys(run.IMPORT_SUBPACKAGES, 0.0)]
    return plain, traced, profiled, imports


def test_reported_metrics_match_the_declarations():
    bench = _bench()
    plain, traced, profiled, imports = _fake_reps()
    e2e = bench.end_to_end([plain])
    layers = bench.per_layer([plain], [traced], [profiled], imports)
    assert sorted(e2e) == sorted(m["name"] for m in declared()["end_to_end"])
    assert sorted(layers) == sorted(m["name"] for m in declared()["per_layer"])


def test_run_refuses_a_directory_without_the_program(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "fabric_drain", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
