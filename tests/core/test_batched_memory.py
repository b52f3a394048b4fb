"""Memory regression test: the batched engine's peak stays near scalar's.

The batched engine is the default for every timing path, so its memory
high-water mark is what every figure's pool workers pay.  Its whole-trace
structures (primed table keys, per-uop timing lists, trace columns) once
made one run peak at about three times the scalar engine's.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.core.config import GOLDEN_COVE
from repro.experiments.runner import run_timing
from repro.experiments.suite import make_predictor
from repro.trace.columns import TraceColumns
from repro.trace.fixture_cache import cached_trace

#: Largest allowed ratio of the batched to the scalar tracemalloc peak.
MAX_PEAK_RATIO = 2.0


def _peak_bytes(trace, engine: str) -> int:
    """tracemalloc peak of one cold run: no memoised columns, a fresh
    predictor (built before tracing starts)."""
    TraceColumns.clear_memo()
    gc.collect()
    predictor = make_predictor("mascot")
    tracemalloc.start()
    try:
        run_timing(trace, predictor, config=GOLDEN_COVE, engine=engine)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        TraceColumns.clear_memo()


def test_batched_peak_within_bound_of_scalar():
    trace = cached_trace("perlbench1", 20_000)
    scalar = _peak_bytes(trace, "scalar")
    batched = _peak_bytes(trace, "batched")
    assert batched <= MAX_PEAK_RATIO * scalar, (
        f"batched peak {batched / 2**20:.2f} MiB is "
        f"{batched / scalar:.2f}x the scalar {scalar / 2**20:.2f} MiB "
        f"(bound {MAX_PEAK_RATIO}x)"
    )
