"""Generated traces are byte-identical to the committed golden digests.

Trace generation is the single source of ground truth for every figure,
so any change to the generator or the dependence tracker must reproduce
``golden_traces.json`` exactly (see :mod:`tests.equivalence.goldens`).
Tier 1 checks every profile at the short length; the long length runs
behind the ``slow`` marker.
"""

from __future__ import annotations

import pytest

from repro.trace.profiles import suite_names

from .goldens import (TRACE_GOLDEN, TRACE_LENGTHS, TRACE_SEEDS,
                      compute_trace_digest, load, trace_cells, trace_key)

GOLDEN = load(TRACE_GOLDEN)
SHORT, LONG = TRACE_LENGTHS


def _check(bench: str, num_uops: int) -> None:
    mismatched = [
        seed for seed in TRACE_SEEDS
        if compute_trace_digest(bench, num_uops, seed)
        != GOLDEN["digests"][trace_key(bench, num_uops, seed)]
    ]
    assert not mismatched, (
        f"{bench} at {num_uops} uops: trace differs from the golden "
        f"digest for trace seeds {mismatched}"
    )


def test_golden_covers_the_grid():
    assert GOLDEN["lengths"] == list(TRACE_LENGTHS)
    assert GOLDEN["seeds"] == list(TRACE_SEEDS)
    assert sorted(GOLDEN["digests"]) == sorted(
        trace_key(*cell) for cell in trace_cells())


@pytest.mark.parametrize("bench", suite_names())
def test_short_trace_matches_golden(bench):
    _check(bench, SHORT)


@pytest.mark.slow
@pytest.mark.parametrize("bench", suite_names())
def test_long_trace_matches_golden(bench):
    _check(bench, LONG)
