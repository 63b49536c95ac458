"""tools/gc_probe.py: which reference chunks held a collection."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "tools"))

from gc_probe import slow_chunks  # noqa: E402


def test_a_chunk_is_slow_only_if_it_is_slow_in_every_repetition():
    ms = 1e-3
    repetitions = [
        [0.5 * ms, 3.0 * ms, 0.6 * ms, 14.0 * ms, 0.5 * ms],
        [0.6 * ms, 0.5 * ms, 0.5 * ms, 12.0 * ms, 0.5 * ms],
        [0.5 * ms, 2.5 * ms, 0.6 * ms, 15.0 * ms, 1.4 * ms],
    ]
    slow, fastest, median = slow_chunks(repetitions)
    # Chunk 1 was slow in two repetitions of three: its fastest time is not.
    assert slow == [3]
    assert fastest[3] == 12.0
    assert median == 0.5


def test_a_chunk_within_a_millisecond_of_the_median_is_not_slow():
    ms = 1e-3
    slow, _, _ = slow_chunks([[0.5 * ms, 0.5 * ms, 0.5 * ms, 1.4 * ms, 1.6 * ms]])
    assert slow == [4]
