"""Corpus persistence: minimized bypass cases in the sweep ResultStore.

Found (and minimized) cases are results like any sweep point's: they go
through :class:`~repro.sweep.store.ResultStore`, so fuzz campaigns
accumulate a corpus across runs with the same durability, locking and
code-fingerprint bookkeeping the benchmark sweeps already rely on.  A flat
JSON export/import keeps a human-reviewable copy in the repository
(``tests/corpus/``) that CI replays as a regression gate.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Optional, Union

from repro.fuzz.case import FuzzCase
from repro.sweep.store import ResultStore, code_fingerprint

__all__ = ["Corpus", "export_cases", "load_cases"]

#: v2: entries carry the minimized case's per-step ``replay`` outcomes.
_SCHEMA = 2
_KEY_PREFIX = "fuzz/"


class Corpus:
    """Fuzz-case view over a :class:`ResultStore`."""

    def __init__(self, store: ResultStore) -> None:
        self.store = store

    @staticmethod
    def key_for(case: FuzzCase) -> str:
        return f"{_KEY_PREFIX}{case.scenario}/{case.digest()}"

    def add(
        self,
        case: FuzzCase,
        violation: Dict[str, object],
        replay: List[Dict[str, object]],
    ) -> str:
        """Persist one minimized case; returns its store key."""
        key = self.key_for(case)
        self.store.put(
            key,
            point_id=case.digest(),
            scenario=case.scenario,
            fingerprint=code_fingerprint(),
            result={
                "schema": _SCHEMA,
                "case": case.to_dict(),
                "violation": violation,
                "replay": replay,
            },
        )
        return key

    def has(self, case: FuzzCase) -> bool:
        return self.store.has(self.key_for(case))

    def entries(self, scenario: Optional[str] = None) -> List[Dict[str, object]]:
        """All corpus entries (optionally one scenario's), in write order."""
        prefix = _KEY_PREFIX + (f"{scenario}/" if scenario else "")
        return [
            entry
            for entry in self.store.entries()
            if str(entry.get("key", "")).startswith(prefix)
        ]

    def cases(self, scenario: Optional[str] = None) -> List[FuzzCase]:
        out = []
        for entry in self.entries(scenario):
            result = entry.get("result", {})
            payload = result.get("case") if isinstance(result, dict) else None
            if isinstance(payload, dict):
                out.append(FuzzCase.from_dict(payload))
        return out


def export_cases(
    path: Union[str, pathlib.Path], entries: List[Dict[str, object]]
) -> None:
    """Write corpus entries (``{"case", "violation", "replay"}`` dicts) as
    a reviewable JSON document."""
    payload = {"schema": _SCHEMA, "cases": entries}
    pathlib.Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_cases(path: Union[str, pathlib.Path]) -> List[Dict[str, object]]:
    """Read a JSON corpus document back into entry dicts.

    A file that cannot be read raises :class:`OSError`.  A file that is not
    JSON, not a schema-2 document or not a list of objects each holding a
    ``case`` object raises :class:`ValueError` (a bad entry is named by its
    index); :meth:`FuzzCase.from_dict` checks each case itself.
    """
    payload = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != _SCHEMA:
        raise ValueError(f"unsupported corpus schema {schema!r}")
    cases = payload.get("cases", [])
    if not isinstance(cases, list):
        raise ValueError("corpus document must carry a list of cases")
    for index, entry in enumerate(cases):
        if not isinstance(entry, dict) or not isinstance(entry.get("case"), dict):
            raise ValueError(f"corpus entry {index} is not an object holding a 'case' object")
    return cases
