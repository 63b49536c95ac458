"""The one writer of every golden file under ``tests/golden/``.

Each golden is a :class:`Golden` entry of :data:`GOLDENS`: a name, the file
it pins and a producer that returns the file's full text from the current
code.  The tests that check a golden read the file; only writing happens
here.  After an intentional behaviour change, regenerate every golden or
the named ones (a name ending a ``/`` group, such as ``paper_fast``, selects
the whole group) from the repository root with::

    PYTHONPATH=src python -m tests.golden --write [name ...]

and say in the change why the pins moved.  ``tests/test_golden_registry.py``
checks that every file under ``tests/golden/`` has exactly one entry.
"""

from __future__ import annotations

import importlib
import pathlib
import sys
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


@dataclass(frozen=True)
class Golden:
    """One pinned file and the producer of its text."""

    name: str
    path: pathlib.Path
    producer: Callable[[], str]


def _call(module: str, function: str, *args: str) -> Callable[[], str]:
    """A producer that imports ``module`` only when it runs: the test modules
    load pytest and most of the package."""

    def produce() -> str:
        return getattr(importlib.import_module(module), function)(*args)

    return produce


_ARTIFACTS = "tests.differential.test_artifact_golden"

#: The tables ``repro paper --fast`` writes (``index.json`` is not pinned).
_PAPER_TABLES = (
    "detection_matrix",
    "figure1_architecture",
    "per_hop_latency",
    "placement_split",
    "table1_area",
    "table2_latency",
)

GOLDENS: Tuple[Golden, ...] = (
    Golden("workload", GOLDEN_DIR / "workload_fingerprints.json",
           _call("tests.differential.test_workload_golden", "golden_text")),
    Golden("campaign", GOLDEN_DIR / "campaign_fingerprints.json",
           _call("tests.differential.test_campaign_golden", "golden_text")),
    Golden("figure1", GOLDEN_DIR / "figure1_fingerprints.json",
           _call("tests.differential.test_figure1_golden", "golden_text")),
    Golden("fuzz", GOLDEN_DIR / "fuzz_reports.json",
           _call("tests.differential.test_fuzz_golden", "golden_text")),
    Golden("verify_findings", GOLDEN_DIR / "verify_findings.json",
           _call("tests.test_staticcheck_golden", "findings_text")),
    Golden("verify_coverage", GOLDEN_DIR / "verify_coverage.json",
           _call("tests.test_staticcheck_golden", "coverage_text")),
    Golden("comparison_report", GOLDEN_DIR / "comparison_report.txt",
           _call("tests.test_analysis_compare", "golden_text")),
    Golden("verify_confirm", GOLDEN_DIR / "verify_confirm.json",
           _call(_ARTIFACTS, "verify_confirm_text")),
    Golden("trace_paper_baseline", GOLDEN_DIR / "trace_paper_baseline.json",
           _call(_ARTIFACTS, "trace_text")),
    *(
        Golden(f"paper_fast/{table}", GOLDEN_DIR / "paper_fast" / f"{table}.txt",
               _call(_ARTIFACTS, "paper_table", f"{table}.txt"))
        for table in _PAPER_TABLES
    ),
)


def select(names: Sequence[str]) -> List[Golden]:
    """The entries ``names`` pick (all of them when empty); an unknown name raises."""
    if not names:
        return list(GOLDENS)
    chosen = []
    for want in names:
        matched = [g for g in GOLDENS if g.name == want or g.name.startswith(want + "/")]
        if not matched:
            raise SystemExit(f"unknown golden {want!r}; known: {[g.name for g in GOLDENS]}")
        chosen.extend(g for g in matched if g not in chosen)
    return chosen


def main(argv: Sequence[str]) -> int:
    if not argv or argv[0] != "--write":
        print("usage: python -m tests.golden --write [name ...]", file=sys.stderr)
        return 2
    for golden in select(argv[1:]):
        golden.path.parent.mkdir(parents=True, exist_ok=True)
        golden.path.write_text(golden.producer(), encoding="utf-8")
        print(f"wrote {golden.path.relative_to(GOLDEN_DIR.parent.parent)} ({golden.name})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
