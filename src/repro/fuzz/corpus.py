"""Corpus files: minimized bypass cases as one reviewable JSON document.

A corpus file is ``{"schema": 2, "cases": [entry, ...]}`` with one entry per
``fuzz/<scenario>/<digest>`` key: a find's ``{"case", "violation",
"replay"}`` record plus its own ``"schema"``.  ``repro fuzz --corpus FILE``
merges a run's finds into the file (:func:`export_cases`) and ``repro fuzz
--replay FILE`` re-checks every entry (:func:`load_cases`), so a fresh run
writes exactly the format of the committed ``tests/corpus/`` files.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Dict, List, Sequence, Union

from repro.fuzz.case import FuzzCase

__all__ = ["export_cases", "load_cases"]

#: v2: entries carry the minimized case's per-step ``replay`` outcomes.
_SCHEMA = 2


def _key(entry: Dict[str, Any]) -> str:
    case = FuzzCase.from_dict(entry["case"])
    return f"fuzz/{case.scenario}/{case.digest()}"


def export_cases(
    path: Union[str, pathlib.Path], entries: Sequence[Dict[str, Any]]
) -> List[str]:
    """Merge finds (:attr:`FuzzReport.findings` records) into the corpus
    file at ``path``; returns the key of each, in order.

    The file's entries stay first and in their order.  A find whose key is
    already there replaces that entry in place; a new key is appended.  A
    missing file starts an empty corpus, and an existing one that
    :func:`load_cases` refuses raises as it does.  The document is written
    once, to a temporary file that :func:`os.replace` moves over ``path``,
    so an interrupted write leaves the old file whole.
    """
    path = pathlib.Path(path)
    merged = {_key(entry): entry for entry in (load_cases(path) if path.exists() else [])}
    keys = []
    for entry in entries:
        key = _key(entry)
        merged[key] = {"schema": _SCHEMA, **entry}
        keys.append(key)
    document = {"schema": _SCHEMA, "cases": list(merged.values())}
    tmp_path = path.with_name(path.name + ".tmp")
    tmp_path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp_path, path)
    return keys


def load_cases(path: Union[str, pathlib.Path]) -> List[Dict[str, object]]:
    """Read a corpus file back into its entries.

    A file that cannot be read raises :class:`OSError`.  A file that is not
    JSON or not a schema-2 document raises :class:`ValueError`, and so does
    an entry (named by its index) that does not hold a ``case`` object that
    :meth:`FuzzCase.from_dict` accepts, a ``violation`` object whose
    ``kind``, ``master``, ``target`` and ``op`` are strings, and a
    ``replay`` list of objects.
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
        FuzzCase.from_dict(entry["case"])
        violation = entry.get("violation")
        if not isinstance(violation, dict) or not all(
            isinstance(violation.get(name), str) for name in ("kind", "master", "target", "op")
        ):
            raise ValueError(
                f"corpus entry {index}: 'violation' must be an object whose "
                "'kind', 'master', 'target' and 'op' are strings"
            )
        replay = entry.get("replay")
        if not isinstance(replay, list) or not all(isinstance(step, dict) for step in replay):
            raise ValueError(f"corpus entry {index}: 'replay' must be a list of objects")
    return cases
