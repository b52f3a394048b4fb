"""The columnar trace: invariants, the lazy micro-op view, and its cost.

A generated trace is a :class:`~repro.trace.columns.ColumnarTrace`: the
generator writes per-field columns and micro-ops are built only when a
consumer asks for one.  These tests pin the three promises that makes:

* the columnar constructor enforces every ``MicroOp.__post_init__``
  invariant, with the same error the micro-op itself raises;
* the ``Sequence[MicroOp]`` view (index, negative index, slices,
  iteration, ``len``) agrees everywhere with an independent decode;
* generation and the batched replay loops build no micro-op at all, and
  a generated trace stays small.
"""

from __future__ import annotations

import gc
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.runner import run_prediction_only, run_timing
from repro.experiments.suite import make_predictor
from repro.trace.columns import (BYPASS_CODES, COLUMN_DTYPES, OP_CODES,
                                 ColumnarTrace, TraceColumns)
from repro.trace.generator import generate_trace
from repro.trace.profiles import suite_names
from repro.trace.uop import BypassClass, MicroOp, OpClass

#: Predictors whose batch sessions are fused transcriptions, one per
#: session class: replaying them must not build a single micro-op.
FUSED_PREDICTORS = ("mascot", "nosq", "phast", "store-sets")

#: tracemalloc size of a generated 20k-uop perlbench1 trace: 1.27 MiB
#: measured for the columnar trace, plus 10% headroom.  The same trace
#: held as a list of MicroOp objects measured 4.19 MiB.
MAX_TRACE_MIB = 1.40


def _columns(bench: str = "perlbench1", num_uops: int = 600):
    """A private, writable copy of a generated trace's columns."""
    cols = generate_trace(bench, num_uops).columns
    return {name: getattr(cols, name).copy() for name in COLUMN_DTYPES}


def _first(arrays, mask) -> int:
    rows = np.flatnonzero(mask)
    assert rows.size, "the trace has no row of the kind this test corrupts"
    return int(rows[0])


def _dependent_load(arrays) -> int:
    return _first(arrays, (arrays["op"] == OP_CODES[OpClass.LOAD])
                  & (arrays["store_distance"] > 0))


def _independent_load(arrays) -> int:
    return _first(arrays, (arrays["op"] == OP_CODES[OpClass.LOAD])
                  & (arrays["store_distance"] == 0))


def _alu(arrays) -> int:
    return _first(arrays, arrays["op"] == OP_CODES[OpClass.ALU])


def _rejects(arrays, match: str) -> None:
    with pytest.raises(ValueError, match=match):
        ColumnarTrace(TraceColumns.from_arrays(**arrays))


class TestInvariants:
    def test_generated_columns_are_accepted(self):
        trace = ColumnarTrace(TraceColumns.from_arrays(**_columns()))
        assert len(trace) == 600

    @pytest.mark.parametrize("op", [OpClass.LOAD, OpClass.STORE])
    def test_memory_op_needs_positive_size(self, op):
        arrays = _columns()
        row = _first(arrays, arrays["op"] == OP_CODES[op])
        arrays["size"][row] = 0
        _rejects(arrays, f"memory op {row} needs a positive size")

    def test_load_bypass_class_and_distance_agree(self):
        arrays = _columns()
        row = _dependent_load(arrays)
        arrays["store_distance"][row] = 0
        _rejects(arrays, f"load {row}: bypass class .* inconsistent with "
                         f"store_distance 0")

    def test_dependence_needs_dep_store_seq(self):
        arrays = _columns()
        row = _dependent_load(arrays)
        arrays["dep_store_seq"][row] = -1
        _rejects(arrays, f"load {row}: dependence without dep_store_seq")

    def test_dep_store_seq_on_non_dependent_load(self):
        arrays = _columns()
        row = _independent_load(arrays)
        arrays["dep_store_seq"][row] = 0
        _rejects(arrays, f"load {row}: dep_store_seq 0 set but bypass "
                         f"class none is a non-dependence")

    def test_dep_store_seq_on_non_load(self):
        arrays = _columns()
        row = _alu(arrays)
        arrays["dep_store_seq"][row] = 0
        _rejects(arrays, f"alu {row}: dep_store_seq on a non-load")

    def test_store_distance_on_non_load(self):
        arrays = _columns()
        row = _alu(arrays)
        arrays["store_distance"][row] = 3
        _rejects(arrays, f"alu {row}: store_distance on a non-load")

    def test_bypass_class_on_non_load(self):
        arrays = _columns()
        row = _alu(arrays)
        arrays["bypass"][row] = BYPASS_CODES[BypassClass.DIRECT]
        _rejects(arrays, f"alu {row}: bypass class direct on a non-load")

    def test_first_offending_uop_is_reported(self):
        arrays = _columns()
        memory = np.flatnonzero(arrays["size"] > 0)
        arrays["size"][memory[3]] = 0
        arrays["size"][memory[1]] = 0
        _rejects(arrays, f"memory op {memory[1]} needs")

    def test_ragged_columns_are_rejected(self):
        arrays = _columns()
        arrays["pc"] = arrays["pc"][:-1]
        _rejects(arrays, "column 'pc' does not hold 600 rows")


class TestLazyView:
    @given(bench=st.sampled_from(sorted(suite_names())),
           num_uops=st.integers(min_value=1, max_value=2_500),
           trace_seed=st.integers(min_value=0, max_value=2**16),
           data=st.data())
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_view_agrees_with_materialised_list(self, bench, num_uops,
                                                trace_seed, data):
        trace = generate_trace(bench, num_uops, trace_seed=trace_seed)
        cols = trace.columns
        listed = list(trace)
        assert len(trace) == len(listed) == num_uops
        assert [uop.seq for uop in listed] == list(range(num_uops))
        for i in range(num_uops):
            assert trace[i] == listed[i] == MicroOp(**cols.uop_fields(i))
        back = data.draw(st.integers(min_value=1, max_value=num_uops))
        assert trace[-back] == listed[-back]
        start = data.draw(st.integers(min_value=-num_uops - 3,
                                      max_value=num_uops + 3))
        stop = data.draw(st.integers(min_value=-num_uops - 3,
                                     max_value=num_uops + 3))
        step = data.draw(st.sampled_from((None, 1, 2, 7, -1, -3)))
        assert trace[start:stop:step] == listed[start:stop:step]
        assert trace[start:stop] == listed[start:stop]
        assert trace == listed

    def test_out_of_range_index_raises(self):
        trace = generate_trace("lbm", 50)
        with pytest.raises(IndexError):
            trace[50]
        with pytest.raises(IndexError):
            trace[-51]

    def test_pickle_round_trip(self):
        trace = generate_trace("mcf", 3_000)
        assert pickle.loads(pickle.dumps(trace)) == trace


@pytest.fixture
def constructions(monkeypatch):
    """Counts MicroOp constructions through a wrapped ``__post_init__``."""
    count = [0]
    check = MicroOp.__post_init__

    def counting(uop):
        count[0] += 1
        check(uop)

    monkeypatch.setattr(MicroOp, "__post_init__", counting)
    return count


class TestNoMicroOps:
    def test_the_counter_sees_the_view(self, constructions):
        trace = generate_trace("perlbench1", 3_000)
        trace[5]
        list(trace[10:20])
        assert constructions[0] == 11

    def test_generation_builds_none(self, constructions):
        generate_trace("perlbench1", 20_000)
        assert constructions[0] == 0

    @pytest.mark.parametrize("name", FUSED_PREDICTORS)
    def test_batched_timing_builds_none(self, constructions, name):
        trace = generate_trace("perlbench1", 5_000)
        run_timing(trace, make_predictor(name), engine="batched")
        assert constructions[0] == 0

    @pytest.mark.parametrize("name", FUSED_PREDICTORS)
    def test_prediction_only_builds_none(self, constructions, name):
        trace = generate_trace("perlbench1", 5_000)
        run_prediction_only(trace, make_predictor(name), warmup=1_000)
        assert constructions[0] == 0


def test_generated_trace_memory_is_pinned():
    generate_trace("perlbench1", 100)  # profile and program caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = generate_trace("perlbench1", 20_000)
        gc.collect()
        size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace) == 20_000
    assert size <= MAX_TRACE_MIB * 2**20, (
        f"a 20k-uop perlbench1 trace holds {size / 2**20:.2f} MiB "
        f"(bound {MAX_TRACE_MIB} MiB)"
    )
