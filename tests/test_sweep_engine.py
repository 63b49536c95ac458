"""Sweep engine semantics: caching, resume after a kill, invalidation,
the process pool and two sweep processes sharing one store."""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.scenarios import ScenarioBuilder, get_scenario
from repro.sweep import ResultStore, SweepRunner, SweepSpec

#: Cheap two-point grid used throughout (minimal scenario, two seeds).
GRID = SweepSpec(scenarios=("minimal_1x1",), seeds=(0, 1))
#: Four points, so two or three workers each take more than one.
GRID4 = SweepSpec(scenarios=("minimal_1x1",), seeds=(0, 1, 2, 3))


class TestCaching:
    def test_cold_run_computes_warm_run_serves_from_cache(self, tmp_path, monkeypatch):
        builds = []
        build = ScenarioBuilder.build

        def counting_build(self, *args, **kwargs):
            builds.append(self.spec.name)
            return build(self, *args, **kwargs)

        monkeypatch.setattr(ScenarioBuilder, "build", counting_build)
        store = ResultStore(tmp_path / "store")
        cold = SweepRunner(GRID, store).run()
        assert len(cold.computed) == 2 and not cold.cached
        assert builds

        # A warm run serves every point from the store: it builds no platform.
        builds.clear()
        warm = SweepRunner(GRID, store).run()
        assert builds == []
        assert not warm.computed
        assert sorted(warm.cached) == sorted(cold.computed)
        assert warm.store_digest == cold.store_digest
        assert warm.keys == cold.keys

    def test_stored_payload_is_a_full_experiment_result(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        report = SweepRunner(GRID, store).run()
        entry = store.get(report.keys[report.computed[0]])
        result = entry["result"]
        assert result["scenario"] == "minimal_1x1"
        assert result["campaign"]["summary"]["attacks"] == 1
        assert result["latency"]["table2"], "Table-II rows missing from the record"


class TestResume:
    def test_killed_sweep_resumes_to_an_identical_store(self, tmp_path):
        # Uninterrupted reference run.
        reference = ResultStore(tmp_path / "reference")
        SweepRunner(GRID, reference).run()

        # Same grid, killed after the first point completes.
        interrupted = ResultStore(tmp_path / "interrupted")
        executed = []

        def kill_before_second(point):
            if executed:
                raise KeyboardInterrupt("simulated kill")
            executed.append(point.point_id)

        with pytest.raises(KeyboardInterrupt):
            SweepRunner(GRID, interrupted, point_hook=kill_before_second).run()
        assert len(interrupted) == 1  # the completed point survived the kill

        # Rerun: only the missing point computes, and the store is identical
        # to the uninterrupted run.
        resumed = SweepRunner(GRID, ResultStore(tmp_path / "interrupted")).run()
        assert len(resumed.computed) == 1 and len(resumed.cached) == 1
        assert ResultStore(tmp_path / "interrupted").digest() == reference.digest()


class TestInvalidation:
    def test_code_fingerprint_change_recomputes(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        first = SweepRunner(GRID, store, fingerprint="fp-a").run()
        assert len(first.computed) == 2

        second = SweepRunner(GRID, store, fingerprint="fp-b").run()
        assert len(second.computed) == 2 and not second.cached
        assert len(store) == 4  # old-fingerprint entries remain as history

    def test_scenario_definition_change_recomputes(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        SweepRunner(GRID, store).run()

        def edited_resolver(name):
            spec = get_scenario(name)
            return dataclasses.replace(
                spec, workload=dataclasses.replace(spec.workload, n_operations=33)
            )

        edited = SweepRunner(GRID, store, resolver=edited_resolver).run()
        assert len(edited.computed) == 2 and not edited.cached


class TestPool:
    def test_stores_at_one_two_and_three_workers_share_one_digest(self, tmp_path):
        digests = set()
        for workers in (1, 2, 3):
            store = ResultStore(tmp_path / f"workers{workers}")
            report = SweepRunner(GRID4, store, sweep_workers=workers).run()
            assert len(report.computed) == 4
            digests.add(store.digest())
        assert len(digests) == 1

    def test_one_run_starts_one_pool(self, tmp_path, monkeypatch):
        import concurrent.futures
        import multiprocessing

        started = []
        executor, pool = concurrent.futures.ProcessPoolExecutor, multiprocessing.Pool

        def counting(make):
            def start(*args, **kwargs):
                started.append(make)
                return make(*args, **kwargs)
            return start

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting(executor))
        monkeypatch.setattr(multiprocessing, "Pool", counting(pool))
        report = SweepRunner(GRID4, ResultStore(tmp_path / "store"), sweep_workers=2).run()
        assert len(report.computed) == 4
        assert len(started) == 1

    def test_killed_pooled_sweep_keeps_stored_points_and_resumes(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        stored = []

        def kill_before_third(point):
            if len(stored) == 2:
                raise KeyboardInterrupt("simulated kill")
            stored.append(point.point_id)

        with pytest.raises(KeyboardInterrupt):
            SweepRunner(GRID4, store, sweep_workers=2, point_hook=kill_before_third).run()
        # Every result stored before the kill survived it, in job order.
        report, _ = SweepRunner(GRID4, ResultStore(tmp_path / "store")).classify()
        assert report.cached == stored

        resumed = SweepRunner(GRID4, ResultStore(tmp_path / "store"), sweep_workers=2).run()
        assert len(resumed.computed) == 2 and resumed.cached == stored

        reference = ResultStore(tmp_path / "reference")
        SweepRunner(GRID4, reference).run()
        assert ResultStore(tmp_path / "store").digest() == reference.digest()

    def test_invalid_sweep_workers_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="sweep_workers"):
            SweepRunner(GRID, ResultStore(tmp_path / "store"), sweep_workers=0)


#: ``repro sweep run`` arguments of the shared-store grid (2 x 3 x 2 points).
SHARED_GRID_ARGS = [
    "--scenario", "minimal_1x1", "--scenario", "paper_baseline",
    "--seed", "0", "--seed", "1", "--seed", "2", "--unprotected",
]


class TestSharedStore:
    def test_two_sweep_processes_on_one_store_match_a_serial_run(self, tmp_path):
        """Two ``repro sweep run`` processes over one overlapping grid and one
        store: both succeed, the store stays parseable and complete, and its
        digest equals a serial run's.  A point both processes compute is
        stored twice, with byte-identical canonical results."""
        shared = tmp_path / "shared"
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]))
        command = [sys.executable, "-m", "repro", "sweep", "run", *SHARED_GRID_ARGS,
                   "--store", str(shared), "--json"]
        procs = [
            subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
            for _ in range(2)
        ]
        outputs = [proc.communicate(timeout=300) for proc in procs]
        for proc, (_, stderr) in zip(procs, outputs):
            assert proc.returncode == 0, stderr

        grid = SweepSpec(
            scenarios=("minimal_1x1", "paper_baseline"),
            seeds=(0, 1, 2),
            protected=(True, False),
        )
        serial = ResultStore(tmp_path / "serial")
        report = SweepRunner(grid, serial).run()
        assert len(report.computed) == 12

        lines = (shared / ResultStore.RESULTS_NAME).read_text().splitlines()
        assert all(json.loads(line)["key"] for line in lines)
        assert 12 <= len(lines) <= 24
        store = ResultStore(shared)
        assert all(store.has(key) for key in report.keys.values())
        assert store.digest() == serial.digest()
        for stdout, _ in outputs:
            assert json.loads(stdout)["keys"] == report.keys


class TestSkips:
    def test_skipped_placements_are_reported_not_run(self, tmp_path):
        grid = SweepSpec(scenarios=("minimal_1x1",), placements=("bridge",))
        report = SweepRunner(grid, ResultStore(tmp_path / "store")).run()
        assert not report.computed and not report.cached
        assert len(report.skipped) == 1
