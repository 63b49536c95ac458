"""Golden CLI artifacts: the verifier's confirmed JSON, the paper tables and a trace.

Three outputs a user reads directly are pinned here, each produced in this
process through :func:`repro.api.cli.main`:

* ``repro verify --all --confirm --json``, verbatim
  (``tests/golden/verify_confirm.json``): every finding, every coverage
  witness and the simulator's confirmation of each;
* the six ``repro paper --fast`` tables, verbatim
  (``tests/golden/paper_fast/*.txt``), from a serial run and from a run with
  ``--sweep-workers 2``; ``index.json`` is left out because it carries the
  code fingerprint and the store keys;
* ``repro run paper_baseline --trace``, as per-kind event counts plus a
  digest (``tests/golden/trace_paper_baseline.json``).  Transaction ids come
  from a process-global counter, so each ``txn_id`` is replaced with itself
  minus the trace's smallest id before hashing.

After an intentional behaviour change, regenerate them with::

    PYTHONPATH=src python -m tests.golden --write verify_confirm trace_paper_baseline paper_fast
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import pathlib
import tempfile
from typing import Dict, List

import pytest

from repro.api.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent.parent / "golden"
VERIFY_PATH = GOLDEN_DIR / "verify_confirm.json"
TRACE_PATH = GOLDEN_DIR / "trace_paper_baseline.json"
PAPER_DIR = GOLDEN_DIR / "paper_fast"

#: The pinned tables; ``tests/golden.py`` lists the ones it writes.
PAPER_TABLES = tuple(sorted(path.name for path in PAPER_DIR.glob("*.txt")))


def _cli(argv: List[str]) -> str:
    """Run ``repro <argv>`` in this process; its exit code must be 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"repro {' '.join(argv)} exited {code}"
    return out.getvalue()


def verify_confirm_text() -> str:
    return _cli(["verify", "--all", "--confirm", "--json"])


@functools.lru_cache(maxsize=2)
def paper_tables(sweep_workers: int = 1) -> Dict[str, str]:
    """Every ``.txt`` file of one cold ``repro paper --fast`` run, by name."""
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "out"
        _cli(["paper", "--fast", "--store", str(pathlib.Path(tmp) / "store"), "--out", str(out),
              "--sweep-workers", str(sweep_workers)])
        return {path.name: path.read_text(encoding="utf-8") for path in sorted(out.glob("*.txt"))}


def paper_table(name: str) -> str:
    return paper_tables()[name]


def trace_summary() -> Dict[str, object]:
    """Event count, per-kind counts and the id-normalised digest of one trace."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "trace.jsonl"
        _cli(["run", "paper_baseline", "--trace", str(path)])
        events = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    ids = [event["data"]["txn_id"] for event in events if "txn_id" in event["data"]]
    base = min(ids) if ids else 0
    kinds: Dict[str, int] = {}
    lines = []
    for event in events:
        if "txn_id" in event["data"]:
            event["data"]["txn_id"] -= base
        kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
        lines.append(json.dumps(event, sort_keys=True))
    blob = "\n".join(lines).encode("utf-8")
    return {
        "events": len(events),
        "kinds": dict(sorted(kinds.items())),
        "digest": hashlib.sha256(blob).hexdigest()[:16],
    }


def trace_text() -> str:
    return json.dumps(trace_summary(), indent=2, sort_keys=True) + "\n"


def test_verify_confirm_json_matches_golden():
    assert verify_confirm_text() == VERIFY_PATH.read_text(encoding="utf-8"), (
        "repro verify --all --confirm --json drifted from tests/golden/verify_confirm.json; "
        "regenerate it if the change is intentional"
    )


def test_paper_writes_exactly_the_pinned_tables():
    assert sorted(paper_tables()) == list(PAPER_TABLES)


@pytest.mark.parametrize("table", PAPER_TABLES)
def test_paper_table_matches_golden(table):
    assert paper_tables()[table] == (PAPER_DIR / table).read_text(encoding="utf-8"), (
        f"repro paper --fast {table} drifted from tests/golden/paper_fast/{table}; "
        "regenerate it if the change is intentional"
    )


def test_paper_with_two_sweep_workers_writes_the_pinned_tables():
    want = {table: (PAPER_DIR / table).read_text(encoding="utf-8") for table in PAPER_TABLES}
    assert paper_tables(2) == want, (
        "repro paper --fast --sweep-workers 2 wrote tables that differ from tests/golden/paper_fast/"
    )


def test_trace_matches_golden():
    want = json.loads(TRACE_PATH.read_text(encoding="utf-8"))
    got = trace_summary()
    assert got == want, (
        f"repro run paper_baseline --trace drifted from tests/golden/trace_paper_baseline.json: "
        f"got {got}, want {want}; regenerate it if the change is intentional"
    )
