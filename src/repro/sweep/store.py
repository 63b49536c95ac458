"""Content-addressed on-disk result store for sweep runs.

Layout of a store directory::

    store/
      results.jsonl   # append-only: one JSON line per stored ExperimentResult
      manifest.json   # derived index: key -> {point_id, scenario, fingerprint, seq}

``results.jsonl`` is the source of truth; ``manifest.json`` is a derived
index written by :meth:`ResultStore.flush_manifest` (the sweep engine calls
it once per run) and by garbage collection — opening a store reads only, so
pointing a read-only consumer (dry-run gc, report rendering) at a mistyped
path creates nothing on disk.  Every :meth:`ResultStore.put` appends one
line and flushes, so a killed sweep loses at most the line being written (a
trailing partial line is tolerated and ignored on load); rerunning the sweep
skips every completed key and appends only the missing points, which makes
the resumed store *digest-identical* to an uninterrupted run — the property
:meth:`ResultStore.digest` exists to assert.  The raw ``results.jsonl``
lines still differ, in ``campaign.metrics.wall_seconds``: the digest
canonicalizes entries by dropping that field, the only nondeterministic one
an :class:`~repro.api.experiment.ExperimentResult` carries, so two stores
with the same digest hold the same results.
A complete line that parses but is not an entry as :meth:`ResultStore.put`
writes it raises a ``ValueError`` that names the file and the line.

The store is safe under **concurrent writers** (parallel ``repro sweep run``
processes on one store directory): every mutating operation — :meth:`ResultStore.put`,
:meth:`ResultStore.flush_manifest` and ``gc(apply=True)`` — holds an
``fcntl`` advisory lock on ``store/.lock`` and *re-reads lines appended by
other writers since the last load* before touching the file, so appends
never interleave mid-line, sequence numbers stay unique, and the atomic
manifest/gc rewrites can never drop a result a concurrent process just
stored.  Readers need no lock: appends are newline-terminated under the
lock, so a reader sees at worst a partial trailing line (ignored, re-read
on the next reload).  On platforms without ``fcntl`` the store degrades to
the historical single-writer behaviour.

Keys come from :func:`repro.sweep.spec.point_key` and embed the **code
fingerprint** — a hash over every ``*.py`` file of the installed ``repro``
package — so results computed by older code are never served as current.
Old-fingerprint entries stay on disk (they are the perf-trajectory history)
until ``repro sweep gc --keep-latest N`` rewrites the store.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import hashlib
import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

try:  # advisory locking is POSIX-only; the store degrades gracefully without
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "ResultStore",
    "GcReport",
    "code_fingerprint",
    "canonical_result",
]


def _tree_fingerprint(root: pathlib.Path) -> str:
    """Hash the ``*.py`` files under ``root`` (relative paths + contents)."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _package_root() -> pathlib.Path:
    import repro

    return pathlib.Path(repro.__file__).parent


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of every Python source file of the installed ``repro`` package."""
    return _tree_fingerprint(_package_root())


#: The fields :meth:`ResultStore.put` writes in every entry, and their JSON types.
_ENTRY_TYPES = {"key": str, "point_id": str, "fingerprint": str, "seq": int, "result": dict}
_TYPE_NAMES = {str: "a string", int: "an integer", dict: "an object"}


def _entry_error(entry: object) -> Optional[str]:
    """Why a parsed ``results.jsonl`` line is not a result entry, or None."""
    if type(entry) is not dict:
        return "not a JSON object"
    for name, kind in _ENTRY_TYPES.items():
        if type(entry.get(name)) is not kind:
            return f"{name!r} must be {_TYPE_NAMES[kind]}"
    return None


def canonical_result(result: Dict[str, object]) -> Dict[str, object]:
    """A deep copy without the campaign's wall-clock time.

    Everything else in a result is deterministic for a fixed scenario and
    seed, so this is the form store digests and resume tests compare.
    """
    result = copy.deepcopy(result)
    campaign = result.get("campaign")
    if isinstance(campaign, dict):
        metrics = campaign.get("metrics")
        if isinstance(metrics, dict):
            metrics.pop("wall_seconds", None)
    return result


@dataclass
class GcReport:
    """What one garbage-collection pass kept and dropped."""

    keep_latest: int
    applied: bool
    kept_fingerprints: List[str] = field(default_factory=list)
    dropped_fingerprints: List[str] = field(default_factory=list)
    dropped_points: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "keep_latest": self.keep_latest,
            "applied": self.applied,
            "kept_fingerprints": list(self.kept_fingerprints),
            "dropped_fingerprints": list(self.dropped_fingerprints),
            "dropped_points": list(self.dropped_points),
        }


class ResultStore:
    """Durable key → :class:`ExperimentResult`-payload store (see module doc)."""

    RESULTS_NAME = "results.jsonl"
    MANIFEST_NAME = "manifest.json"
    LOCK_NAME = ".lock"
    MANIFEST_VERSION = 1

    def __init__(self, root) -> None:
        self.root = pathlib.Path(root)
        self._entries: Dict[str, Dict[str, object]] = {}
        self._next_seq = 0
        self._lock_depth = 0
        #: Bytes of ``results.jsonl`` this handle has consumed (up to and
        #: including the last *complete* line); a reload under the writer
        #: lock resumes from here to pick up other writers' appends.
        self._tail_offset = 0
        self._load()

    # -- paths ---------------------------------------------------------------------

    @property
    def results_path(self) -> pathlib.Path:
        return self.root / self.RESULTS_NAME

    @property
    def manifest_path(self) -> pathlib.Path:
        return self.root / self.MANIFEST_NAME

    @property
    def lock_path(self) -> pathlib.Path:
        return self.root / self.LOCK_NAME

    # -- locking -------------------------------------------------------------------

    @contextlib.contextmanager
    def _locked(self) -> Iterator[None]:
        """Hold the store's advisory writer lock (no-op without ``fcntl``).

        Mutators (:meth:`put`, :meth:`flush_manifest`, applied :meth:`gc`)
        serialize on a dedicated ``.lock`` file rather than on
        ``results.jsonl`` itself: gc atomically replaces the results file, and
        a lock held on the replaced inode would no longer exclude anybody.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        if self._lock_depth:
            # Reentrant within one handle (gc flushes the manifest while
            # holding the lock); two fds of one process would self-deadlock.
            self._lock_depth += 1
            try:
                yield
            finally:
                self._lock_depth -= 1
            return
        self.root.mkdir(parents=True, exist_ok=True)
        with self.lock_path.open("a+") as lock_handle:
            fcntl.flock(lock_handle.fileno(), fcntl.LOCK_EX)
            self._lock_depth = 1
            try:
                yield
            finally:
                self._lock_depth = 0
                fcntl.flock(lock_handle.fileno(), fcntl.LOCK_UN)

    # -- loading -------------------------------------------------------------------

    def _consume_line(self, raw: bytes, offset: int) -> None:
        """Index one complete ``results.jsonl`` line, which starts at byte
        ``offset``; skip one that does not parse, refuse one that is no entry."""
        line = raw.strip()
        if not line:
            return
        try:
            entry = json.loads(line.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            # A writer killed mid-write leaves at most one partial trailing
            # line; the point it was storing simply reruns.
            return
        reason = _entry_error(entry)
        if reason is not None:
            with self.results_path.open("rb") as handle:
                number = handle.read(offset).count(b"\n") + 1
            raise ValueError(f"{self.results_path}: line {number}: {reason}")
        self._entries[entry["key"]] = entry

    def _read_from(self, offset: int) -> None:
        """Consume complete lines from ``offset``; advance ``_tail_offset``.

        Reads in binary so the offset is an exact byte position; a partial
        trailing line (no newline yet — a concurrent writer mid-append, or a
        dead writer's torn line) is left unconsumed and re-read next time.
        """
        with self.results_path.open("rb") as handle:
            handle.seek(offset)
            for raw in handle:
                if not raw.endswith(b"\n"):
                    break
                self._consume_line(raw, offset)
                offset += len(raw)
        self._tail_offset = offset

    def _load(self) -> None:
        """Read-only: a missing or mistyped path creates nothing on disk."""
        if self.results_path.exists():
            self._read_from(0)
        self._bump_next_seq()

    def _bump_next_seq(self) -> None:
        self._next_seq = max(
            self._next_seq,
            max((e["seq"] for e in self._entries.values()), default=-1) + 1,
        )

    def reload(self) -> None:
        """Pick up lines other writers appended since this handle last read.

        Called automatically (under the lock) by every mutator; also public
        so long-lived readers can refresh without reopening the store.
        """
        if self.results_path.exists():
            if self.results_path.stat().st_size < self._tail_offset:
                # The file shrank: another process ran gc(apply=True) and
                # atomically rewrote it.  Rebuild from scratch rather than
                # reading from a now-meaningless byte offset.
                self._entries.clear()
                self._read_from(0)
            else:
                self._read_from(self._tail_offset)
        self._bump_next_seq()

    def _manifest_text(self) -> str:
        manifest = {
            "version": self.MANIFEST_VERSION,
            "entries": {
                key: {
                    "point_id": entry["point_id"],
                    "scenario": entry.get("scenario"),
                    "fingerprint": entry["fingerprint"],
                    "seq": entry["seq"],
                }
                for key, entry in self._entries.items()
            },
        }
        return json.dumps(manifest, indent=2, sort_keys=True) + "\n"

    def flush_manifest(self) -> None:
        """Rewrite the derived index (once per sweep, not once per put).

        Holds the writer lock and reloads first, so the manifest written
        always indexes every result any concurrent writer has stored — the
        rewrite can never "lose" an append it raced with.
        """
        with self._locked():
            self.reload()
            text = self._manifest_text()
            if self.manifest_path.exists():
                if self.manifest_path.read_text(encoding="utf-8") == text:
                    return
            self.root.mkdir(parents=True, exist_ok=True)
            self.manifest_path.write_text(text, encoding="utf-8")

    # -- core API ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def has(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[Dict[str, object]]:
        return self._entries.get(key)

    def entries(self) -> List[Dict[str, object]]:
        """All entries, ordered by write sequence."""
        return sorted(self._entries.values(), key=lambda e: e["seq"])

    def put(
        self,
        key: str,
        point_id: str,
        scenario: str,
        fingerprint: str,
        result: Dict[str, object],
    ) -> None:
        """Append one result line (durable per call; manifest flushed later).

        Cross-process safe: the append happens under the advisory writer
        lock, after re-reading anything other writers stored since this
        handle last looked — so concurrent ``put`` calls never interleave
        mid-line and sequence numbers stay unique.  Per-key semantics stay
        last-write-wins; keys are content-addressed, so two writers racing
        on one key are storing the same canonical result anyway.
        """
        with self._locked():
            self.reload()
            entry = {
                "key": key,
                "point_id": point_id,
                "scenario": scenario,
                "fingerprint": fingerprint,
                "seq": self._next_seq,
                "result": result,
            }
            self._next_seq += 1
            self.root.mkdir(parents=True, exist_ok=True)
            with self.results_path.open("ab") as handle:
                payload = b""
                if self._tail_offset < handle.seek(0, os.SEEK_END):
                    # A dead writer left a torn, never-terminated line (the
                    # unconsumed tail).  Terminate it so our entry starts on
                    # a fresh line instead of corrupting both.
                    payload = b"\n"
                payload += json.dumps(entry, sort_keys=True).encode("utf-8") + b"\n"
                handle.write(payload)
                handle.flush()
                self._tail_offset = handle.tell()
            self._entries[key] = entry

    def digest(self) -> str:
        """Content digest over canonicalized entries (order-independent)."""
        digest = hashlib.sha256()
        for key in sorted(self._entries):
            entry = self._entries[key]
            canonical = {
                "key": key,
                "point_id": entry["point_id"],
                "fingerprint": entry["fingerprint"],
                "result": canonical_result(entry["result"]),
            }
            digest.update(json.dumps(canonical, sort_keys=True).encode())
            digest.update(b"\n")
        return digest.hexdigest()

    # -- garbage collection --------------------------------------------------------

    def gc(self, keep_latest: int, apply: bool = False) -> GcReport:
        """Drop entries of all but the ``keep_latest`` most recent fingerprints.

        Fingerprint recency is the highest write sequence any of its entries
        carries.  The default is a dry run: nothing is touched until
        ``apply=True`` (the CLI's ``--apply``); the applied rewrite holds
        the writer lock and reloads first, so an append racing the gc is
        either kept (current fingerprint) or consciously dropped (old
        fingerprint) — never lost by the atomic rewrite.
        """
        if keep_latest < 1:
            raise ValueError("keep_latest must be >= 1")
        if apply:
            with self._locked():
                self.reload()
                return self._gc_inner(keep_latest, apply=True)
        return self._gc_inner(keep_latest, apply=False)

    def _gc_inner(self, keep_latest: int, apply: bool) -> GcReport:
        latest_seq: Dict[str, int] = {}
        for entry in self._entries.values():
            fingerprint = entry["fingerprint"]
            latest_seq[fingerprint] = max(latest_seq.get(fingerprint, -1), entry["seq"])
        ordered = sorted(latest_seq, key=lambda f: latest_seq[f], reverse=True)
        kept = ordered[:keep_latest]
        dropped = ordered[keep_latest:]
        report = GcReport(
            keep_latest=keep_latest,
            applied=apply,
            kept_fingerprints=kept,
            dropped_fingerprints=dropped,
            dropped_points=sorted(
                entry["point_id"]
                for entry in self._entries.values()
                if entry["fingerprint"] in dropped
            ),
        )
        if not apply or not dropped:
            return report
        self._entries = {
            key: entry
            for key, entry in self._entries.items()
            if entry["fingerprint"] in kept
        }
        # Atomic rewrite: a kill mid-gc must not truncate the kept entries.
        tmp_path = self.results_path.with_suffix(".jsonl.tmp")
        with tmp_path.open("w", encoding="utf-8") as handle:
            for entry in self.entries():
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
        os.replace(tmp_path, self.results_path)
        self._tail_offset = self.results_path.stat().st_size
        self.flush_manifest()
        return report
