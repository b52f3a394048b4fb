"""Columnar (struct-of-arrays) view of a micro-op trace.

The batched engine (:mod:`repro.core.batched`), region selection and
functional warmup do their whole-trace work on per-field numpy columns.
:class:`TraceColumns` is that view: one array per scalar field, with ``-1``
sentinels standing in for ``None`` (``addr_src``, ``dep_store_seq``) and
small integer codes for the two enums.  Each column is built from the
trace the first time it is read.

The columns are derived data — they add no information beyond the trace —
so they are memoised by *identity* in a small bounded cache
(:func:`TraceColumns.ensure`).  Identity keying is safe because the
experiment harness holds traces in :class:`repro.experiments.runner.TraceCache`
for the life of the process; it also means a mutated trace list produces a
fresh column set rather than a stale one only if the caller rebuilds the
list object, which matches how traces are treated everywhere else
(immutable once generated).
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .uop import BypassClass, MicroOp, OpClass

__all__ = ["OP_CODES", "OP_BY_CODE", "BYPASS_CODES", "BYPASS_BY_CODE",
           "BYPASS_CODE_BY_VALUE", "TraceColumns"]

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

#: Bounded identity-keyed memo: list of (trace, columns) pairs, newest last.
#: Safe across pool workers: a columnisation is a pure function of the
#: trace it is keyed on, so per-worker copies can only agree.
_MEMO_CAPACITY = 4
# repro-lint: allow(conc-mutable-global) -- identity-keyed memo of pure columnisations
_MEMO: List[Tuple[Sequence[MicroOp], "TraceColumns"]] = []


def _seq_or_sentinel(seq: Optional[int]) -> int:
    return -1 if seq is None else seq


class _Column:
    """A numpy column of one :class:`MicroOp` field, built on first read.

    A non-data descriptor: the built array is stored in the instance
    ``__dict__`` under the field's name, which shadows the descriptor
    from then on (the ``functools.cached_property`` protocol).
    ``attribute`` is the (possibly dotted) path read from each micro-op;
    it defaults to the column's own name.
    """

    def __init__(self, dtype, convert=None, attribute: str = "") -> None:
        self.dtype = dtype
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
        array = np.fromiter(values, dtype=self.dtype, count=cols.n)
        cols.__dict__[self.name] = array
        return array


class TraceColumns:
    """Numpy columns for one trace, each built on first read.

    The arrays serve vectorised work (event-index extraction, key
    priming, measured-count reductions); the per-uop loops of the batched
    engine read a micro-op's own fields, or ``.tolist()`` views of the
    small-code columns.  Building a column only when some consumer reads
    it keeps memoised columns to the few that consumer needs.
    """

    op = _Column(np.int8, _OP_CODE_BY_VALUE.__getitem__, "op._value_")
    pc = _Column(np.int64)
    address = _Column(np.int64)
    size = _Column(np.int32)
    taken = _Column(np.bool_)
    target = _Column(np.int64)
    addr_src = _Column(np.int64, _seq_or_sentinel)
    dep_store_seq = _Column(np.int64, _seq_or_sentinel)
    store_distance = _Column(np.int32)
    bypass = _Column(np.int8, BYPASS_CODE_BY_VALUE.__getitem__,
                     "bypass._value_")

    def __init__(self, trace: Sequence[MicroOp]) -> None:
        self._trace = trace
        self.n = len(trace)

    @cached_property
    def srcs(self) -> List[Tuple[int, ...]]:
        return list(map(attrgetter("srcs"), self._trace))

    @cached_property
    def src_count(self) -> np.ndarray:
        return np.fromiter(map(len, self.srcs), dtype=np.int16, count=self.n)

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_trace(cls, trace: Sequence[MicroOp]) -> "TraceColumns":
        """Build columns without touching the memo."""
        return cls(trace)

    @classmethod
    def ensure(cls, trace: Sequence[MicroOp]) -> "TraceColumns":
        """Return (building if necessary) the memoised columns for ``trace``.

        The memo is identity-keyed and holds at most ``_MEMO_CAPACITY``
        traces; the eldest entry is dropped on overflow.
        """
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

    # -- reconstruction (testing aid) ------------------------------------------

    def uop_fields(self, seq: int) -> dict:
        """Scalar fields of uop ``seq`` decoded back to python values."""
        addr_src = int(self.addr_src[seq])
        dep = int(self.dep_store_seq[seq])
        return {
            "seq": seq,
            "pc": int(self.pc[seq]),
            "op": OP_BY_CODE[int(self.op[seq])],
            "srcs": self.srcs[seq],
            "taken": bool(self.taken[seq]),
            "target": int(self.target[seq]),
            "address": int(self.address[seq]),
            "size": int(self.size[seq]),
            "addr_src": None if addr_src < 0 else addr_src,
            "store_distance": int(self.store_distance[seq]),
            "dep_store_seq": None if dep < 0 else dep,
            "bypass": BYPASS_BY_CODE[int(self.bypass[seq])],
        }
