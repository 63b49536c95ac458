"""ResultStore durability: resume tolerance, digests, garbage collection,
and safety under concurrent writer processes."""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.sweep import ResultStore, code_fingerprint
from repro.sweep.store import canonical_result


def _result(cycles: int = 100, wall: float = 0.5) -> dict:
    return {
        "scenario": "fake",
        "workload": {"final_cycle": cycles},
        "campaign": {
            "summary": {"attacks": 1, "prevented": 1, "detected": 1},
            "metrics": {
                "n_workers": 1,
                "wall_seconds": wall,
                "shards": [{"shard": 0, "seed": 7, "attacks": 1}],
            },
        },
    }


class TestCoreApi:
    def test_put_get_roundtrip_survives_reopen(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put("k1", "p1", "fake", "fp", _result())
        reopened = ResultStore(tmp_path / "store")
        assert reopened.has("k1")
        assert reopened.get("k1")["result"]["workload"]["final_cycle"] == 100
        assert len(reopened) == 1

    def test_last_write_wins_per_key(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put("k1", "p1", "fake", "fp", _result(cycles=1))
        store.put("k1", "p1", "fake", "fp", _result(cycles=2))
        assert ResultStore(tmp_path / "store").get("k1")["result"]["workload"]["final_cycle"] == 2

    def test_partial_trailing_line_is_tolerated(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put("k1", "p1", "fake", "fp", _result())
        with store.results_path.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "k2", "result": {"trunc')  # killed mid-write
        reopened = ResultStore(tmp_path / "store")
        assert reopened.has("k1") and not reopened.has("k2")

    @pytest.mark.parametrize("line, reason", [
        ('{"key": 1}', "'key' must be a string"),
        ('{"key": "k", "seq": "x"}', "'point_id' must be a string"),
        ('{"key": "k", "seq": 3, "result": 5}', "'point_id' must be a string"),
        ('{"key": ["a"]}', "'key' must be a string"),
        ("[1, 2]", "not a JSON object"),
        ('{"key": "k", "point_id": "p", "fingerprint": "f", "seq": "x", "result": {}}',
         "'seq' must be an integer"),
        ('{"key": "k", "point_id": "p", "fingerprint": "f", "seq": true, "result": {}}',
         "'seq' must be an integer"),
        ('{"key": "k", "point_id": "p", "fingerprint": "f", "seq": 3, "result": 5}',
         "'result' must be an object"),
    ], ids=["int-key", "key-and-string-seq", "key-seq-and-int-result", "array-key", "array",
            "string-seq", "bool-seq", "int-result"])
    def test_a_line_that_parses_but_is_not_an_entry_is_refused(self, tmp_path, line, reason):
        store = ResultStore(tmp_path / "store")
        store.put("k1", "p1", "fake", "fp", _result())
        with store.results_path.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        with pytest.raises(ValueError) as refused:
            ResultStore(tmp_path / "store")
        assert str(refused.value) == f"{store.results_path}: line 2: {reason}"
        with pytest.raises(ValueError, match="line 2: "):
            store.reload()  # an open handle refuses the appended line too

    def test_read_only_open_creates_nothing_on_disk(self, tmp_path):
        mistyped = tmp_path / "no-such-store"
        store = ResultStore(mistyped)  # e.g. report rendering over a typo'd path
        assert len(store) == 0
        store.gc(keep_latest=1)  # dry run
        assert not mistyped.exists()

    def test_reopen_does_not_rewrite_an_up_to_date_manifest(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put("k1", "p1", "fake", "fp", _result())
        store.flush_manifest()
        before = store.manifest_path.stat().st_mtime_ns
        reopened = ResultStore(tmp_path / "store")  # read-only consumer
        reopened.gc(keep_latest=1)  # dry run must not touch the store either
        reopened.flush_manifest()  # unchanged content: no rewrite
        assert store.manifest_path.stat().st_mtime_ns == before

    def test_manifest_mirrors_entries_after_flush(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put("k1", "p1", "scn", "fp", _result())
        store.flush_manifest()
        manifest = json.loads(store.manifest_path.read_text())
        assert manifest["entries"]["k1"]["point_id"] == "p1"
        assert manifest["entries"]["k1"]["fingerprint"] == "fp"

    def test_gc_apply_leaves_no_temp_file(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put("k1", "p1", "fake", "fp-old", _result())
        store.put("k2", "p2", "fake", "fp-new", _result())
        store.gc(keep_latest=1, apply=True)
        assert sorted(p.name for p in (tmp_path / "store").iterdir()) == [
            ".lock", "manifest.json", "results.jsonl",
        ]


class TestDigest:
    def test_digest_ignores_wall_clock_timings(self, tmp_path):
        a = ResultStore(tmp_path / "a")
        b = ResultStore(tmp_path / "b")
        a.put("k1", "p1", "fake", "fp", _result(wall=0.1))
        b.put("k1", "p1", "fake", "fp", _result(wall=9.9))
        assert a.digest() == b.digest()

    def test_digest_sees_real_result_changes(self, tmp_path):
        a = ResultStore(tmp_path / "a")
        b = ResultStore(tmp_path / "b")
        a.put("k1", "p1", "fake", "fp", _result(cycles=1))
        b.put("k1", "p1", "fake", "fp", _result(cycles=2))
        assert a.digest() != b.digest()

    def test_canonical_result_does_not_mutate_the_input(self):
        original = _result(wall=3.3)
        canonical = canonical_result(original)
        assert original["campaign"]["metrics"]["wall_seconds"] == 3.3
        assert "wall_seconds" not in canonical["campaign"]["metrics"]


def _hammer_store(path: str, writer: int, n_entries: int) -> None:
    """Worker process: append this writer's share of entries to one store."""
    store = ResultStore(path)
    for i in range(n_entries):
        store.put(f"w{writer}-k{i}", f"w{writer}-p{i}", "fake", "fp",
                  _result(cycles=writer * 1000 + i))


class TestConcurrentWriters:
    """The PR-7 bugfix: the store is safe under concurrent processes."""

    def test_n_processes_hammering_one_store_match_a_serial_run(self, tmp_path):
        n_writers, n_entries = 4, 8
        shared = tmp_path / "shared"
        workers = [
            multiprocessing.Process(
                target=_hammer_store, args=(str(shared), w, n_entries)
            )
            for w in range(n_writers)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
            assert worker.exitcode == 0

        serial = ResultStore(tmp_path / "serial")
        for w in range(n_writers):
            _hammer_store(str(tmp_path / "serial"), w, n_entries)

        reloaded = ResultStore(shared)
        assert len(reloaded) == n_writers * n_entries
        assert reloaded.digest() == ResultStore(tmp_path / "serial").digest()
        # No interleaved/torn lines: every line parses and seqs are unique.
        seqs = [e["seq"] for e in reloaded.entries()]
        assert sorted(seqs) == list(range(n_writers * n_entries))
        del serial

    def test_put_sees_lines_appended_by_another_handle(self, tmp_path):
        a = ResultStore(tmp_path / "store")
        b = ResultStore(tmp_path / "store")  # second handle, same directory
        a.put("k-a", "p-a", "fake", "fp", _result())
        b.put("k-b", "p-b", "fake", "fp", _result())
        # b reloaded before appending: it saw a's entry and chained the seq.
        assert b.has("k-a")
        assert b.get("k-b")["seq"] == 1
        reopened = ResultStore(tmp_path / "store")
        assert len(reopened) == 2

    def test_flush_manifest_never_drops_a_concurrent_append(self, tmp_path):
        a = ResultStore(tmp_path / "store")
        b = ResultStore(tmp_path / "store")
        a.put("k-a", "p-a", "fake", "fp", _result())
        b.put("k-b", "p-b", "fake", "fp", _result())
        # The stale handle flushes: the manifest must still index both.
        a.flush_manifest()
        manifest = json.loads(a.manifest_path.read_text())
        assert set(manifest["entries"]) == {"k-a", "k-b"}

    def test_gc_apply_never_loses_a_concurrent_append(self, tmp_path):
        a = ResultStore(tmp_path / "store")
        a.put("k-old", "p-old", "fake", "fp-old", _result())
        a.put("k-new", "p-new", "fake", "fp-new", _result())
        # Another process appends with the current fingerprint while the
        # first handle is about to gc: the rewrite must keep that entry.
        b = ResultStore(tmp_path / "store")
        b.put("k-racer", "p-racer", "fake", "fp-new", _result())
        report = a.gc(keep_latest=1, apply=True)
        assert report.applied
        survivors = set(json.loads(a.manifest_path.read_text())["entries"])
        assert survivors == {"k-new", "k-racer"}

    def test_put_terminates_a_dead_writers_torn_line(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put("k1", "p1", "fake", "fp", _result())
        with store.results_path.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "k-torn", "result": {"trunc')  # killed mid-write
        late = ResultStore(tmp_path / "store")
        late.put("k2", "p2", "fake", "fp", _result())
        reopened = ResultStore(tmp_path / "store")
        assert reopened.has("k1") and reopened.has("k2")
        assert not reopened.has("k-torn")

    def test_reload_follows_a_gc_shrunken_file(self, tmp_path):
        a = ResultStore(tmp_path / "store")
        a.put("k-old", "p-old", "fake", "fp-old", _result())
        a.put("k-new", "p-new", "fake", "fp-new", _result())
        b = ResultStore(tmp_path / "store")  # long-lived reader
        a.gc(keep_latest=1, apply=True)
        b.reload()
        assert b.has("k-new") and not b.has("k-old")


class TestGc:
    def _seed(self, store: ResultStore) -> None:
        store.put("k1", "p1", "fake", "fp-old", _result())
        store.put("k2", "p2", "fake", "fp-old", _result())
        store.put("k3", "p3", "fake", "fp-new", _result())

    def test_dry_run_reports_but_keeps_everything(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        self._seed(store)
        report = store.gc(keep_latest=1)
        assert not report.applied
        assert report.kept_fingerprints == ["fp-new"]
        assert report.dropped_fingerprints == ["fp-old"]
        assert report.dropped_points == ["p1", "p2"]
        assert len(ResultStore(tmp_path / "store")) == 3

    def test_apply_rewrites_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        self._seed(store)
        report = store.gc(keep_latest=1, apply=True)
        assert report.applied
        reopened = ResultStore(tmp_path / "store")
        assert len(reopened) == 1 and reopened.has("k3")
        manifest = json.loads(reopened.manifest_path.read_text())
        assert set(manifest["entries"]) == {"k3"}

    def test_keep_latest_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path / "store").gc(keep_latest=0)


def test_code_fingerprint_is_stable_within_a_process():
    assert code_fingerprint() == code_fingerprint()
    assert len(code_fingerprint()) == 16


def test_tree_fingerprint_moves_with_any_source_edit(tmp_path):
    """Every ``*.py`` file of the package, nested or not, keys the hash."""
    from repro.sweep.store import _tree_fingerprint

    root = tmp_path / "pkg"
    (root / "soc").mkdir(parents=True)
    (root / "a.py").write_text("x = 1\n")
    (root / "soc" / "kernel.py").write_text("y = 1\n")

    base = _tree_fingerprint(root)
    (root / "soc" / "kernel.py").write_text("y = 2\n")
    nested = _tree_fingerprint(root)
    assert nested != base

    (root / "a.py").write_text("x = 2\n")
    assert _tree_fingerprint(root) not in (base, nested)
