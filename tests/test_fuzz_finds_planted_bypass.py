"""The fuzzer's acceptance gate: find the planted multi-step backdoor.

``planted_backdoor_spec()`` is statically clean — ``repro verify`` has
nothing to say about it — yet ships a secure-boot sequencer with its debug
backdoor compiled in.  Within a fixed seed and budget the fuzzer must find
the silent key leak, minimize it to the exact three-step chain, replay it
after the workload with every step completing silently, and do all of it
deterministically (same seed, same bits).
"""

from __future__ import annotations

import json

from repro.fuzz import FuzzCase, fuzz_scenario, planted_backdoor_spec
from repro.staticcheck import verify_spec

#: Pinned search parameters, those of the committed corpus: seed 0 finds the
#: hole on its 7th case, and the other 53 cases find nothing new.
FUZZ_ARGS = dict(seed=0, budget=60, n_steps=10)
MAX_MINIMIZED_STEPS = 3


def test_planted_spec_is_statically_clean():
    report = verify_spec(planted_backdoor_spec())
    assert not report.errors
    assert report.verdict() == "ok"


def test_fuzzer_finds_and_minimizes_the_planted_bypass():
    report = fuzz_scenario(planted_backdoor_spec(), **FUZZ_ARGS)

    assert not report.clean, "the fuzzer must find the planted hole"
    assert len(report.findings) == 1
    finding = report.findings[0]

    violation = finding["violation"]
    assert violation["kind"] == "guard_leak"
    assert violation["master"] == "cpu0"
    assert violation["target"] == "boot0"
    assert violation["op"] == "read"
    assert violation["witness"]["expectation"] == "reaches_silently"

    # Minimized to the exact chain: debug magic, rollback, key read.
    case = FuzzCase.from_dict(finding["case"])
    assert len(case) <= MAX_MINIMIZED_STEPS
    assert [s.op for s in case.steps] == ["write", "write", "read"]
    boot = planted_backdoor_spec().topology.slave("boot0")
    assert all(boot.base <= s.address < boot.end for s in case.steps)

    # Replayed after the workload, every step completes with no alert.
    assert finding["replay"] == [{"status": "completed", "alerts": 0}] * 3


def test_the_find_is_deterministic():
    first = fuzz_scenario(planted_backdoor_spec(), **FUZZ_ARGS)
    second = fuzz_scenario(planted_backdoor_spec(), **FUZZ_ARGS)
    assert first.to_dict() == second.to_dict()
    assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
        second.to_dict(), sort_keys=True
    )


def test_committed_corpus_matches_the_live_find():
    """The corpus file in tests/corpus/ is the minimized witness this seed
    produces today — regenerate it with ``repro fuzz`` if the search or the
    spec legitimately change."""
    from repro.fuzz import load_cases

    entries = load_cases("tests/corpus/planted_backdoor.json")
    assert len(entries) == 1
    committed = FuzzCase.from_dict(entries[0]["case"])
    report = fuzz_scenario(planted_backdoor_spec(), **FUZZ_ARGS)
    live = FuzzCase.from_dict(report.findings[0]["case"])
    assert committed.digest() == live.digest()
