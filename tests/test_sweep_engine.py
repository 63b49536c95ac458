"""Sweep engine semantics: caching, resume after a kill, invalidation."""

from __future__ import annotations

import dataclasses

import pytest

from repro.scenarios import get_scenario
from repro.sweep import ResultStore, SweepRunner, SweepSpec

#: Cheap two-point grid used throughout (minimal scenario, two seeds).
GRID = SweepSpec(scenarios=("minimal_1x1",), seeds=(0, 1))


class TestCaching:
    def test_cold_run_computes_warm_run_serves_from_cache(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        cold = SweepRunner(GRID, store).run()
        assert len(cold.computed) == 2 and not cold.cached

        warm = SweepRunner(GRID, store).run()
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


class TestSharding:
    def test_sharded_sweep_matches_serial_digest(self, tmp_path):
        serial = ResultStore(tmp_path / "serial")
        SweepRunner(GRID, serial).run()
        sharded = ResultStore(tmp_path / "sharded")
        report = SweepRunner(GRID, sharded, sweep_workers=2).run()
        assert len(report.computed) == 2
        assert sharded.digest() == serial.digest()

    def test_sharded_sweep_persists_per_batch_and_resumes(self, tmp_path):
        grid = SweepSpec(scenarios=("minimal_1x1",), seeds=(0, 1, 2, 3))
        store = ResultStore(tmp_path / "store")
        seen = []

        def kill_on_second_batch(point):
            seen.append(point.point_id)
            if len(seen) == 3:  # first point of the second 2-wide batch
                raise KeyboardInterrupt("simulated kill")

        with pytest.raises(KeyboardInterrupt):
            SweepRunner(grid, store, sweep_workers=2,
                        point_hook=kill_on_second_batch).run()
        assert len(store) == 2  # the completed first batch survived

        resumed = SweepRunner(grid, ResultStore(tmp_path / "store"),
                              sweep_workers=2).run()
        assert len(resumed.computed) == 2 and len(resumed.cached) == 2

        reference = ResultStore(tmp_path / "reference")
        SweepRunner(grid, reference).run()
        assert ResultStore(tmp_path / "store").digest() == reference.digest()

    def test_nested_pools_are_rejected(self, tmp_path):
        grid = SweepSpec(scenarios=("minimal_1x1",), campaign_workers=(2,))
        runner = SweepRunner(grid, ResultStore(tmp_path / "store"), sweep_workers=2)
        with pytest.raises(ValueError, match="campaign_workers"):
            runner.run()

    def test_worker_process_degrades_to_serial_with_one_warning(
        self, tmp_path, monkeypatch
    ):
        """Inside a daemonic pool worker a sharded sweep must not crash the
        job — it degrades to serial per-point execution, warning once."""
        import warnings

        from repro import _deprecation
        from repro.attacks import runner as attacks_runner

        monkeypatch.setattr(attacks_runner, "in_worker_process", lambda: True)
        _deprecation.reset()

        reference = ResultStore(tmp_path / "reference")
        SweepRunner(GRID, reference).run()

        store = ResultStore(tmp_path / "store")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = SweepRunner(GRID, store, sweep_workers=2).run()
            SweepRunner(GRID, ResultStore(tmp_path / "again"),
                        sweep_workers=2).run()
        degrade = [w for w in caught if issubclass(w.category, RuntimeWarning)
                   and "nested pool" in str(w.message)]
        assert len(degrade) == 1  # once per process, not once per sweep
        assert len(report.computed) == 2
        assert store.digest() == reference.digest()
        _deprecation.reset()

    def test_invalid_sweep_workers_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="sweep_workers"):
            SweepRunner(GRID, ResultStore(tmp_path / "store"), sweep_workers=0)


class TestSkips:
    def test_skipped_placements_are_reported_not_run(self, tmp_path):
        grid = SweepSpec(scenarios=("minimal_1x1",), placements=("bridge",))
        report = SweepRunner(grid, ResultStore(tmp_path / "store")).run()
        assert not report.computed and not report.cached
        assert len(report.skipped) == 1
