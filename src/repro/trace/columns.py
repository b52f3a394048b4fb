"""Columnar (struct-of-arrays) micro-op traces.

The batched engine (:mod:`repro.core.batched`), prediction-only replay,
region selection and functional warmup do their work on per-field numpy
columns.  :class:`TraceColumns` holds them: one array per scalar field,
with ``-1`` sentinels standing in for ``None`` (``addr_src``,
``dep_store_seq``), small integer codes for the two enums, and the
dataflow sources in compressed-row form (``src_start`` / ``src_flat``).

Two kinds of trace carry columns:

* A generated trace is a :class:`ColumnarTrace`.  The generator writes
  the columns directly and the trace owns them, so
  :meth:`TraceColumns.ensure` hands them back without touching a
  :class:`~repro.trace.uop.MicroOp`.  The trace is still a
  ``Sequence[MicroOp]``: ``len``, iteration, indexing and slicing build
  micro-ops on demand, for the scalar engine, validation, streaming and
  analysis code.
* Any other sequence of micro-ops (hand-built lists, traces read from
  disk) gets columns derived from its objects, each column built the
  first time it is read.  Derived columns add no information beyond the
  trace, so they are memoised by *identity* in a small bounded cache;
  traces are treated as immutable once built, so a caller that mutates
  one must rebuild the list object to get fresh columns.
"""

from __future__ import annotations

from collections.abc import Sequence as _SequenceABC
from functools import cached_property
from itertools import chain
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .uop import BypassClass, MicroOp, OpClass

__all__ = ["OP_CODES", "OP_BY_CODE", "BYPASS_CODES", "BYPASS_BY_CODE",
           "BYPASS_CODE_BY_VALUE", "COLUMN_DTYPES", "TraceColumns",
           "ColumnarTrace"]

#: Stable integer codes for :class:`OpClass`, ordered by enum definition.
OP_CODES = {op: i for i, op in enumerate(OpClass)}
OP_BY_CODE = tuple(OpClass)

#: Stable integer codes for :class:`BypassClass`.
BYPASS_CODES = {bc: i for i, bc in enumerate(BypassClass)}
BYPASS_BY_CODE = tuple(BypassClass)

#: Codes keyed by enum *value*: a member's ``_value_`` is a plain
#: attribute with a C-level string hash, where looking the member itself
#: up runs ``Enum.__hash__`` in Python on every call.
_OP_CODE_BY_VALUE = {op.value: code for op, code in OP_CODES.items()}
BYPASS_CODE_BY_VALUE = {bc.value: code for bc, code in BYPASS_CODES.items()}

#: Every column and its dtype, in :class:`MicroOp` field order (``srcs``
#: is the ``src_start``/``src_flat`` pair).
COLUMN_DTYPES: Dict[str, type] = {
    "op": np.int8,
    "pc": np.int64,
    "src_start": np.int64,
    "src_flat": np.int64,
    "taken": np.bool_,
    "target": np.int64,
    "address": np.int64,
    "size": np.int32,
    "addr_src": np.int64,
    "store_distance": np.int32,
    "dep_store_seq": np.int64,
    "bypass": np.int8,
}

#: Rows decoded per block when a columnar trace is iterated.
_DECODE_BLOCK = 1024

#: Bounded identity-keyed memo: list of (trace, columns) pairs, newest last.
#: Safe across pool workers: a columnisation is a pure function of the
#: trace it is keyed on, so per-worker copies can only agree.
_MEMO_CAPACITY = 4
# repro-lint: allow(conc-mutable-global) -- identity-keyed memo of pure columnisations
_MEMO: List[Tuple[Sequence[MicroOp], "TraceColumns"]] = []

_LOAD = OP_CODES[OpClass.LOAD]
_STORE = OP_CODES[OpClass.STORE]
_BYPASS_NONE = BYPASS_CODES[BypassClass.NONE]


def _seq_or_sentinel(seq: Optional[int]) -> int:
    return -1 if seq is None else seq


class _Column:
    """A numpy column of one :class:`MicroOp` field, derived on first read.

    A non-data descriptor: the built array is stored in the instance
    ``__dict__`` under the field's name, which shadows the descriptor
    from then on (the ``functools.cached_property`` protocol).  Owned
    columns are stored there at construction, so the descriptor is never
    reached for them.  ``attribute`` is the (possibly dotted) path read
    from each micro-op; it defaults to the column's own name.
    """

    def __init__(self, convert=None, attribute: str = "") -> None:
        self.convert = convert
        self.attribute = attribute
        self.name = ""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name
        self.attribute = self.attribute or name

    def __get__(self, cols: Optional["TraceColumns"], owner=None):
        if cols is None:
            return self
        values = map(attrgetter(self.attribute), cols._trace)
        if self.convert is not None:
            values = map(self.convert, values)
        array = np.fromiter(values, dtype=COLUMN_DTYPES[self.name],
                            count=cols.n)
        cols.__dict__[self.name] = array
        return array


class TraceColumns:
    """Numpy columns for one trace, owned or derived.

    The arrays serve vectorised work (event-index extraction, key
    priming, measured-count reductions) and, through blocks of
    ``.tolist()`` values of the fields each loop reads, the per-uop loops
    of the batched engine and prediction-only replay.  Owned columns
    (:meth:`from_arrays`) exist from construction; columns derived from
    micro-op objects are built only when some consumer reads them, which
    keeps memoised columns to the few that consumer needs.
    """

    op = _Column(_OP_CODE_BY_VALUE.__getitem__, "op._value_")
    pc = _Column()
    address = _Column()
    size = _Column()
    taken = _Column()
    target = _Column()
    addr_src = _Column(_seq_or_sentinel)
    dep_store_seq = _Column(_seq_or_sentinel)
    store_distance = _Column()
    bypass = _Column(BYPASS_CODE_BY_VALUE.__getitem__, "bypass._value_")

    def __init__(self, trace: Sequence[MicroOp]) -> None:
        self._trace = trace
        self.n = len(trace)

    # -- sources (compressed rows) ---------------------------------------------

    @cached_property
    def src_start(self) -> np.ndarray:
        """Row offsets into :attr:`src_flat`: uop ``i``'s sources are
        ``src_flat[src_start[i]:src_start[i + 1]]``."""
        counts = np.fromiter(map(len, map(attrgetter("srcs"), self._trace)),
                             dtype=np.int64, count=self.n)
        start = np.zeros(self.n + 1, dtype=COLUMN_DTYPES["src_start"])
        np.cumsum(counts, out=start[1:])
        return start

    @cached_property
    def src_flat(self) -> np.ndarray:
        """Every uop's dataflow sources, concatenated in trace order."""
        flat = chain.from_iterable(map(attrgetter("srcs"), self._trace))
        return np.fromiter(flat, dtype=COLUMN_DTYPES["src_flat"],
                           count=int(self.src_start[-1]))

    def iter_srcs(self, start: int = 0, stop: Optional[int] = None
                  ) -> Iterator[Tuple[int, ...]]:
        """``srcs`` tuples of uops ``start..stop``, decoded by block."""
        stop = self.n if stop is None else stop
        return chain.from_iterable(
            self._srcs_block(lo, min(lo + _DECODE_BLOCK, stop))
            for lo in range(start, stop, _DECODE_BLOCK))

    def _srcs_block(self, lo: int, hi: int) -> List[Tuple[int, ...]]:
        bounds = self.src_start[lo:hi + 1]
        flat = tuple(self.src_flat[bounds[0]:bounds[-1]].tolist())
        rel = (bounds - bounds[0]).tolist()
        return [flat[a:b] for a, b in zip(rel, rel[1:])]

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_arrays(cls, **arrays) -> "TraceColumns":
        """Columns that own the given arrays (one per :data:`COLUMN_DTYPES`
        key), cast to the column dtypes.  No invariant is checked here;
        :class:`ColumnarTrace` checks them."""
        missing = set(COLUMN_DTYPES) - set(arrays)
        extra = set(arrays) - set(COLUMN_DTYPES)
        if missing or extra:
            raise ValueError(f"column set mismatch: missing {sorted(missing)}, "
                             f"unknown {sorted(extra)}")
        cols = cls.__new__(cls)
        cols._trace = None
        cols.n = len(arrays["op"])
        for name, dtype in COLUMN_DTYPES.items():
            cols.__dict__[name] = np.asarray(arrays[name], dtype=dtype)
        return cols

    @classmethod
    def from_trace(cls, trace: Sequence[MicroOp]) -> "TraceColumns":
        """Derive columns from the trace's micro-ops, bypassing the memo."""
        return cls(trace)

    @classmethod
    def ensure(cls, trace: Sequence[MicroOp]) -> "TraceColumns":
        """The columns for ``trace``: its own for a :class:`ColumnarTrace`,
        otherwise the memoised (building if necessary) derived columns.

        The memo is identity-keyed and holds at most ``_MEMO_CAPACITY``
        traces; the eldest entry is dropped on overflow.
        """
        if isinstance(trace, ColumnarTrace):
            return trace.columns
        for i, (cached_trace, cols) in enumerate(_MEMO):
            if cached_trace is trace:
                if i != len(_MEMO) - 1:  # keep MRU at the tail
                    _MEMO.append(_MEMO.pop(i))
                return cols
        cols = cls(trace)
        _MEMO.append((trace, cols))
        if len(_MEMO) > _MEMO_CAPACITY:
            _MEMO.pop(0)
        return cols

    @classmethod
    def clear_memo(cls) -> None:
        _MEMO.clear()

    # -- views -----------------------------------------------------------------

    def indices_of(self, *ops: OpClass) -> np.ndarray:
        """Sorted sequence numbers of all uops with one of the given classes."""
        codes = [OP_CODES[o] for o in ops]
        mask = np.isin(self.op, codes) if len(codes) > 1 else (
            self.op == codes[0])
        return np.flatnonzero(mask)

    # -- decoding --------------------------------------------------------------

    def iter_rows(self, rows: np.ndarray, *names: str) -> Iterator[tuple]:
        """Tuples of the named fields of ``rows`` (``"seq"`` names the row
        itself) as python values, materialised a block of rows at a time."""
        def block(lo: int):
            index = rows[lo:lo + _DECODE_BLOCK]
            return zip(*[index.tolist() if name == "seq"
                         else getattr(self, name)[index].tolist()
                         for name in names])

        return chain.from_iterable(
            block(lo) for lo in range(0, len(rows), _DECODE_BLOCK))

    def uops(self, start: int, stop: int) -> List[MicroOp]:
        """Micro-ops ``start..stop`` built from the columns."""
        if start >= stop:
            return []
        rows = slice(start, stop)
        addr_src = [None if s < 0 else s
                    for s in self.addr_src[rows].tolist()]
        dep = [None if s < 0 else s
               for s in self.dep_store_seq[rows].tolist()]
        return list(map(
            MicroOp,
            range(start, stop),
            self.pc[rows].tolist(),
            map(OP_BY_CODE.__getitem__, self.op[rows].tolist()),
            self.iter_srcs(start, stop),
            self.taken[rows].tolist(),
            self.target[rows].tolist(),
            self.address[rows].tolist(),
            self.size[rows].tolist(),
            addr_src,
            self.store_distance[rows].tolist(),
            dep,
            map(BYPASS_BY_CODE.__getitem__, self.bypass[rows].tolist()),
        ))

    def uop(self, seq: int) -> MicroOp:
        """Micro-op ``seq`` built from the columns."""
        start = self.src_start
        lo = start.item(seq)
        hi = start.item(seq + 1)
        addr_src = self.addr_src.item(seq)
        dep = self.dep_store_seq.item(seq)
        return MicroOp(
            seq, self.pc.item(seq), OP_BY_CODE[self.op.item(seq)],
            tuple(self.src_flat[lo:hi].tolist()) if hi > lo else (),
            self.taken.item(seq), self.target.item(seq),
            self.address.item(seq), self.size.item(seq),
            None if addr_src < 0 else addr_src,
            self.store_distance.item(seq),
            None if dep < 0 else dep,
            BYPASS_BY_CODE[self.bypass.item(seq)],
        )

    # -- reconstruction (testing aid) ------------------------------------------

    def uop_fields(self, seq: int) -> dict:
        """Scalar fields of uop ``seq`` decoded back to python values,
        independently of :meth:`uop` and :meth:`uops`."""
        addr_src = int(self.addr_src[seq])
        dep = int(self.dep_store_seq[seq])
        start = self.src_start
        return {
            "seq": seq,
            "pc": int(self.pc[seq]),
            "op": OP_BY_CODE[int(self.op[seq])],
            "srcs": tuple(int(s) for s in
                          self.src_flat[start[seq]:start[seq + 1]]),
            "taken": bool(self.taken[seq]),
            "target": int(self.target[seq]),
            "address": int(self.address[seq]),
            "size": int(self.size[seq]),
            "addr_src": None if addr_src < 0 else addr_src,
            "store_distance": int(self.store_distance[seq]),
            "dep_store_seq": None if dep < 0 else dep,
            "bypass": BYPASS_BY_CODE[int(self.bypass[seq])],
        }


def _check_columns(cols: TraceColumns) -> None:
    """Every :meth:`MicroOp.__post_init__` invariant, vectorised.

    Sequence numbers are the row indices, so they are non-negative by
    construction.  The first offending row is rebuilt as a
    :class:`MicroOp`, whose own check raises the very ``ValueError`` a
    list of micro-ops would have raised.
    """
    n = cols.n
    start = cols.src_start
    if start.shape != (n + 1,) or start[0] != 0 or np.any(np.diff(start) < 0) \
            or start[-1] != cols.src_flat.shape[0]:
        raise ValueError("src_start is not a row-offset column of src_flat")
    for name in COLUMN_DTYPES:
        if name not in ("src_start", "src_flat") and \
                getattr(cols, name).shape != (n,):
            raise ValueError(f"column {name!r} does not hold {n} rows")
    op = cols.op
    bypass = cols.bypass
    if n and (op.min() < 0 or op.max() >= len(OP_BY_CODE)):
        raise ValueError("op column holds an unknown op code")
    if n and (bypass.min() < 0 or bypass.max() >= len(BYPASS_BY_CODE)):
        raise ValueError("bypass column holds an unknown bypass code")

    is_load = op == _LOAD
    distance = cols.store_distance
    has_dep = bypass != _BYPASS_NONE
    dep_set = cols.dep_store_seq >= 0
    bad = ((is_load | (op == _STORE)) & (cols.size <= 0)) | np.where(
        is_load,
        (has_dep != (distance > 0)) | (has_dep != dep_set),
        dep_set | (distance != 0) | has_dep,
    )
    if bad.any():
        seq = int(np.argmax(bad))
        cols.uop(seq)
        raise AssertionError(f"uop {seq} fails a vectorised check that "
                             f"MicroOp accepts")


class ColumnarTrace(_SequenceABC):
    """A trace that owns its :class:`TraceColumns`.

    A read-only ``Sequence[MicroOp]`` whose micro-ops are built on demand
    from the columns; equal micro-ops come back on every access, but not
    the same objects, so mutating one changes nothing.  The constructor
    checks every :class:`MicroOp` invariant once, over whole columns.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: TraceColumns) -> None:
        _check_columns(columns)
        self.columns = columns

    def __len__(self) -> int:
        return self.columns.n

    def __getitem__(self, index):
        n = self.columns.n
        if isinstance(index, slice):
            start, stop, step = index.indices(n)
            if step == 1:
                return self.columns.uops(start, stop)
            return [self[i] for i in range(start, stop, step)]
        i = index.__index__()
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("trace index out of range")
        return self.columns.uop(i)

    def __iter__(self) -> Iterator[MicroOp]:
        cols = self.columns
        for lo in range(0, cols.n, _DECODE_BLOCK):
            yield from cols.uops(lo, min(lo + _DECODE_BLOCK, cols.n))

    def __eq__(self, other) -> bool:
        if isinstance(other, _SequenceABC) and not isinstance(other, str):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"ColumnarTrace({self.columns.n} uops)"
