"""The golden registry: one writer entry per pinned file."""

from __future__ import annotations

import pytest

from tests.golden import GOLDEN_DIR, GOLDENS, select


def test_every_golden_file_has_exactly_one_entry():
    files = sorted(path for path in GOLDEN_DIR.rglob("*") if path.is_file())
    registered = sorted(golden.path for golden in GOLDENS)
    assert registered == files


def test_entry_names_are_unique():
    names = [golden.name for golden in GOLDENS]
    assert len(names) == len(set(names))


def test_select_by_name_and_group():
    assert select([]) == list(GOLDENS)
    assert [golden.name for golden in select(["fuzz"])] == ["fuzz"]
    paper = select(["paper_fast"])
    assert len(paper) == 6 and all(golden.name.startswith("paper_fast/") for golden in paper)
    with pytest.raises(SystemExit, match="unknown golden"):
        select(["nonsense"])
