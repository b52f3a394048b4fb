"""Slotted batch lookup sessions for the predictor zoo.

The batched engine (:mod:`repro.core.batched`) exploits a structural fact of
the scalar pipeline: the predictor-visible event stream (``on_branch`` /
``on_indirect`` / ``on_store`` / ``predict`` / ``train``) is purely
trace-order driven — nothing predictor-visible happens between the
``predict`` and ``train`` of the same load, and no timing result ever feeds
back into a predictor.  A *session* therefore replays that stream in one
pass with a fused :meth:`predict_train` per load.

Each fast session operates on its predictor's **real storage** (the same
entry objects, tables and counters the scalar path mutates) so that
post-run predictor state — telemetry counters, ``predictions_per_table``,
table contents, history registers — is bit-identical to a scalar run.  The
speed comes from three sources, none of which changes any value:

* :class:`~repro.common.foldvec.FoldVector` mirrors the global history with
  O(1) evicted-bit reads (synced back at :meth:`finish`);
* :class:`FastBank` caches the PC-static components of every table's
  index/tag hash, so the per-load work is a handful of XOR/mask ops;
* predictions and outcomes travel as plain ints instead of
  :class:`Prediction`/:class:`Outcome` objects.

Every session honours the attached :class:`TelemetrySink` with exactly the
scalar call pattern.  Sessions are selected via
``MDPredictor.batch_session()``; subclasses of a zoo predictor fall back to
:class:`GenericMDSession` (which drives the real ``predict``/``train``)
unless they opt in themselves.  Both replay loops (Phase A of the batched
engine and prediction-only replay) prime their sessions for a trace
through :func:`prime_session`.

Sessions take a load or store as plain column values — ``seq``, ``pc``
and, for a load, ``dep_store_seq`` (-1 when it has none) — rather than a
:class:`~repro.trace.uop.MicroOp`, so the replay loops read the trace's
columns only.  :class:`GenericMDSession` builds the one micro-op the real
protocol takes.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..analysis.accuracy import OutcomeKind, classify
from ..common.bitops import fold_bits, mask
from ..common.foldplan import BranchStream, FoldPlan, key_rows, path_series
from ..common.foldvec import FoldVector
from ..common.hashing import mix64
from ..trace.columns import BYPASS_BY_CODE, OP_CODES, TraceColumns
from ..trace.uop import BypassClass, OpClass
from .base import ActualOutcome, MDPredictor, PredictionKind
from .mascot import Mascot, MascotEntry
from .nosq import NoSQ, NoSQEntry
from .phast import Phast, PhastEntry
from .store_sets import StoreSets
from .tables import TableBank

__all__ = [
    "KIND_NO_DEP", "KIND_MDP", "KIND_SMB", "PRED_KIND_BY_CODE",
    "OUTCOME_BY_CODE", "OUTCOME_CODES", "classify_fast",
    "FastBank", "GenericMDSession", "MascotSession", "PhastSession",
    "NoSQSession", "StoreSetsSession", "make_session", "prime_session",
]

#: Integer prediction-kind codes used on the session wire format.
KIND_NO_DEP = 0
KIND_MDP = 1
KIND_SMB = 2
PRED_KIND_BY_CODE = (PredictionKind.NO_DEP, PredictionKind.MDP,
                     PredictionKind.SMB)
_KIND_CODE = {PredictionKind.NO_DEP: 0, PredictionKind.MDP: 1,
              PredictionKind.SMB: 2}

#: Integer outcome-kind codes used on the session wire format (sessions
#: return codes, not enum members, so the Phase A loop can count outcomes
#: with list indexing instead of enum hashing).
OUTCOME_BY_CODE = tuple(OutcomeKind)
OUTCOME_CODES = {kind: code for code, kind in enumerate(OUTCOME_BY_CODE)}

_OC_MISSED_DEP = OUTCOME_CODES[OutcomeKind.MISSED_DEP]
_OC_CORRECT_NODEP = OUTCOME_CODES[OutcomeKind.CORRECT_NODEP]
_OC_FALSE_DEP_SMB = OUTCOME_CODES[OutcomeKind.FALSE_DEP_SMB]
_OC_FALSE_DEP_MDP = OUTCOME_CODES[OutcomeKind.FALSE_DEP_MDP]
_OC_CORRECT_MDP = OUTCOME_CODES[OutcomeKind.CORRECT_MDP]
_OC_WRONG_STORE_MDP = OUTCOME_CODES[OutcomeKind.WRONG_STORE_MDP]
_OC_WRONG_STORE_SMB = OUTCOME_CODES[OutcomeKind.WRONG_STORE_SMB]
_OC_CORRECT_SMB = OUTCOME_CODES[OutcomeKind.CORRECT_SMB]
_OC_SMB_NOT_BYP = OUTCOME_CODES[OutcomeKind.SMB_NOT_BYPASSABLE]

#: classify()'s fixed store-distance comparison cap.
_DISTANCE_CAP = 127

_OP_BI = OP_CODES[OpClass.BRANCH_INDIRECT]


def classify_fast(kind_code: int, p_dist: int, p_seq: Optional[int],
                  a_dist: int, a_seq: Optional[int],
                  a_bypassable: bool) -> int:
    """Int-based transcription of :func:`repro.analysis.accuracy.classify`.

    ``a_bypassable`` is the precomputed ``actual.bypass in bypassable``
    membership; the return value is an :data:`OUTCOME_BY_CODE` index.
    """
    if kind_code == KIND_NO_DEP:
        if a_dist > 0:
            return _OC_MISSED_DEP
        return _OC_CORRECT_NODEP
    if a_dist <= 0:
        return (_OC_FALSE_DEP_SMB if kind_code == KIND_SMB
                else _OC_FALSE_DEP_MDP)
    if p_seq is not None and a_seq is not None:
        match = p_seq == a_seq
    else:
        match = p_dist == (a_dist if a_dist < _DISTANCE_CAP else _DISTANCE_CAP)
    if kind_code == KIND_MDP:
        return _OC_CORRECT_MDP if match else _OC_WRONG_STORE_MDP
    if not match:
        return _OC_WRONG_STORE_SMB
    if a_bypassable:
        return _OC_CORRECT_SMB
    return _OC_SMB_NOT_BYP


class FastBank:
    """Per-PC-cached key computation over a live :class:`TableBank`.

    ``TaggedTable.key`` recomputes the PC-shift hash, the path fold and the
    per-table constants on every lookup; all of those are static per PC (or
    per masked path value).  This wrapper caches the static parts and
    combines them with the :class:`FoldVector` history values, producing
    indices and tags bit-identical to ``TableBank.keys`` (property-tested).

    Table storage is untouched — sessions read and write the bank's own
    ``_sets`` so entries stay shared with the scalar path.
    """

    __slots__ = ("bank", "fv", "idx", "tags", "_nt", "_static", "_hl",
                 "_index_bits", "_imask", "_tmask", "_idx_slot", "_tag_slot",
                 "_tag2_slot", "_pmask", "_pc_cache", "_path_memo",
                 "_path_value", "_path_bpb_mask", "_path_bpb", "_path_wmask",
                 "rows", "_plan", "_path_final")

    def __init__(self, bank: TableBank) -> None:
        self.bank = bank
        self.fv = FoldVector(bank.ghist)
        nt = len(bank)
        self._nt = nt
        self.idx = [0] * nt
        self.tags = [0] * nt
        self._static = [False] * nt
        self._hl = [0] * nt
        self._index_bits = [0] * nt
        self._imask = [0] * nt
        self._tmask = [0] * nt
        self._idx_slot = [0] * nt
        self._tag_slot = [0] * nt
        self._tag2_slot = [0] * nt
        self._pmask = [0] * nt
        for t, table in enumerate(bank.tables):
            hl = table.history_length
            self._hl[t] = hl
            self._static[t] = hl == 0
            self._index_bits[t] = table.index_bits
            self._imask[t] = mask(table.index_bits)
            self._tmask[t] = mask(table.tag_bits)
            if hl > 0:
                if table._index_fold is not None:
                    self._idx_slot[t] = self.fv.slot(hl, table.index_bits)
                else:
                    self._idx_slot[t] = -1
                self._tag_slot[t] = self.fv.slot(hl, table.tag_bits)
                self._tag2_slot[t] = self.fv.slot(hl, max(table.tag_bits - 1, 1))
                self._pmask[t] = mask(min(hl, bank.path.width))
        self._pc_cache: Dict[int, Tuple[List[int], List[int]]] = {}
        self._path_memo: Dict[Tuple[int, int], int] = {}
        self._path_value = bank.path.value
        self._path_bpb = bank.path._bits_per_branch
        self._path_bpb_mask = mask(self._path_bpb)
        self._path_wmask = mask(bank.path.width)
        self.rows: Optional[Iterator[Tuple[Tuple[int, ...],
                                           Tuple[int, ...]]]] = None
        self._plan: Optional[FoldPlan] = None
        self._path_final = 0

    # -- whole-run key precomputation ------------------------------------------

    def prime(self, stream: BranchStream, load_pc: np.ndarray,
              cond_before: np.ndarray, ind_before: np.ndarray) -> bool:
        """Precompute every load's per-table index/tag keys, vectorised.

        ``load_pc`` / ``cond_before`` / ``ind_before`` describe the trace's
        loads in order (PC and the number of conditional / indirect branch
        events preceding each).  After priming, :attr:`rows` yields one
        (index tuple, tag tuple) pair per load, in load order (see
        :func:`~repro.common.foldplan.key_rows`), and the per-event history
        updates become no-ops.  Returns False (leaving the
        incremental path active) if the fold invariant check fails.
        """
        bits, _ = stream.mixed()
        try:
            plan = FoldPlan(self.fv, bits)
        except RuntimeError:
            return False
        self._plan = plan
        series = plan.series

        # Path history: closed-form series over all branch events, read at
        # each load's position, folded per table exactly like fold_bits.
        chunks = (stream.pc >> 1) & self._path_bpb_mask
        path = path_series(self._path_value, self.bank.path.width,
                           self._path_bpb, chunks)
        self._path_final = int(path[-1])
        path_at_load = path[cond_before + ind_before]
        k_push = cond_before + 5 * ind_before

        pcv = load_pc >> 1
        n_loads = int(load_pc.shape[0])
        zeros = None
        icols: List[np.ndarray] = []
        tcols: List[np.ndarray] = []
        for t, table in enumerate(self.bank.tables):
            ib = self._index_bits[t]
            tb = table.tag_bits
            imask = self._imask[t]
            tmask = self._tmask[t]
            if ib > 0:
                base_i = ((pcv ^ (pcv >> ib) ^ (pcv >> (2 * ib)))
                          ^ (table.table_number * 0x9E37))
            else:
                if zeros is None:
                    zeros = np.zeros(n_loads, dtype=np.int64)
                base_i = zeros
            base_t = (pcv ^ (pcv >> tb)) if tb > 0 else (
                zeros if zeros is not None else np.zeros(n_loads,
                                                         dtype=np.int64))
            if self._static[t]:
                icols.append(base_i & imask)
                tcols.append(base_t & tmask)
                continue
            if ib > 0:
                p = path_at_load & self._pmask[t]
                pf = p & imask
                path_width = min(self._hl[t], self.bank.path.width)
                for c in range(1, -(-path_width // ib)):
                    pf = pf ^ ((p >> (c * ib)) & imask)
                vi = series[self._idx_slot[t]][k_push]
                ii = (base_i ^ vi ^ pf) & imask
            else:
                if zeros is None:
                    zeros = np.zeros(n_loads, dtype=np.int64)
                ii = zeros
            vt = series[self._tag_slot[t]][k_push]
            vt2 = series[self._tag2_slot[t]][k_push]
            tt = (base_t ^ vt ^ (vt2 << 1)) & tmask
            icols.append(ii)
            tcols.append(tt)
        plan.drop_series()
        self.rows = key_rows(icols, tcols)
        return True

    def _build_pc(self, pc: int) -> Tuple[List[int], List[int]]:
        pcv = pc >> 1
        nt = self._nt
        sidx = [0] * nt
        stag = [0] * nt
        for t, table in enumerate(self.bank.tables):
            ib = table.index_bits
            tb = table.tag_bits
            base_i = 0
            if ib > 0:
                base_i = ((pcv ^ (pcv >> ib) ^ (pcv >> (2 * ib)))
                          ^ (table.table_number * 0x9E37))
            base_t = (pcv ^ (pcv >> tb)) if tb > 0 else 0
            if self._static[t]:
                sidx[t] = base_i & self._imask[t]
                stag[t] = base_t & self._tmask[t]
            else:
                sidx[t] = base_i
                stag[t] = base_t
        return sidx, stag

    def compute_keys(self, pc: int) -> None:
        """Fill :attr:`idx`/:attr:`tags` with this PC's current keys."""
        cache = self._pc_cache.get(pc)
        if cache is None:
            cache = self._build_pc(pc)
            self._pc_cache[pc] = cache
        sidx, stag = cache
        values = self.fv.values
        idx = self.idx
        tags = self.tags
        pv = self._path_value
        memo = self._path_memo
        for t in range(self._nt):
            if self._static[t]:
                idx[t] = sidx[t]
                tags[t] = stag[t]
                continue
            ib = self._index_bits[t]
            if ib > 0:
                p = pv & self._pmask[t]
                key = (p, ib)
                pf = memo.get(key)
                if pf is None:
                    pf = fold_bits(p, max(p.bit_length(), 1), ib)
                    memo[key] = pf
                idx[t] = (sidx[t] ^ values[self._idx_slot[t]] ^ pf) \
                    & self._imask[t]
            else:
                idx[t] = 0
            tags[t] = (stag[t] ^ values[self._tag_slot[t]]
                       ^ (values[self._tag2_slot[t]] << 1)) & self._tmask[t]

    # -- history events --------------------------------------------------------

    def on_branch(self, pc: int, taken: bool) -> None:
        if self._plan is not None:
            return
        self.fv.push_bit(1 if taken else 0)
        self._path_value = (
            (self._path_value << self._path_bpb)
            | ((pc >> 1) & self._path_bpb_mask)
        ) & self._path_wmask

    def on_indirect(self, pc: int, target: int) -> None:
        if self._plan is not None:
            return
        self.fv.push_indirect(target)
        self._path_value = (
            (self._path_value << self._path_bpb)
            | ((pc >> 1) & self._path_bpb_mask)
        ) & self._path_wmask

    def finish(self) -> None:
        if self._plan is not None:
            self._plan.finalize()
            self.fv.sync_back()
            self.bank.path.value = self._path_final
        else:
            self.fv.sync_back()
            self.bank.path.value = self._path_value


class GenericMDSession:
    """Session driving the real ``predict``/``train`` protocol.

    Used for oracles and any predictor without a dedicated fast session;
    correctness by construction (it *is* the scalar call sequence, fused).
    It builds each :class:`MicroOp` the real protocol takes from the
    trace's columns (see :meth:`bind`); a store is built only for a
    predictor that overrides the base class's no-op ``on_store``.
    """

    __slots__ = ("p", "_bypassable", "_cols", "_on_store")

    def __init__(self, p: MDPredictor) -> None:
        self.p = p
        self._bypassable = p.bypassable_classes
        self._cols: Optional[TraceColumns] = None
        self._on_store = (None if type(p).on_store is MDPredictor.on_store
                          else p.on_store)

    def bind(self, cols: TraceColumns) -> None:
        """Set the trace whose micro-ops the replay names by ``seq``."""
        self._cols = cols

    def on_branch(self, pc: int, taken: bool) -> None:
        self.p.on_branch(pc, taken)

    def on_indirect(self, pc: int, target: int) -> None:
        self.p.on_indirect(pc, target)

    def on_store(self, seq: int, pc: int) -> Optional[int]:
        if self._on_store is None:
            return None
        return self._on_store(self._cols.uop(seq))

    def predict_train(self, seq: int, pc: int, dep_store_seq: int,
                      branches_between: int, store_pc: Optional[int],
                      a_dist: int, bypass_code: int):
        p = self.p
        uop = self._cols.uop(seq)
        prediction = p.predict(uop)
        actual = ActualOutcome.from_uop(uop, branches_between=branches_between,
                                        store_pc=store_pc)
        outcome = classify(prediction, actual, self._bypassable)
        p.train(uop, prediction, actual)
        return (_KIND_CODE[prediction.kind], prediction.store_seq,
                prediction.distance, bool(prediction.meta.get("conservative")),
                OUTCOME_CODES[outcome.kind])

    def finish(self) -> None:
        pass


class MascotSession:
    """Fast fused predict+train for :class:`Mascot` (exact transcription).

    The scalar ``train`` re-finds the predicting entry with the keys carried
    in prediction meta (``_reacquire``); since nothing predictor-visible
    happens between a load's predict and train, that re-scan returns the
    predict-time entry, so the session reuses it directly.
    """

    __slots__ = ("p", "fb", "_sets", "_nt", "_ppt", "_sink", "_useful_max",
                 "_bypass_max", "_distance_max", "_smb", "_alloc_nondeps",
                 "_alloc_u_dep", "_alloc_u_nondep", "_track_f1", "_decay",
                 "_sup_code", "_byp_code")

    def __init__(self, p: Mascot) -> None:
        self.p = p
        self.fb = FastBank(p.bank)
        self._sets = [table._sets for table in p.bank.tables]
        self._nt = len(p.bank)
        self._ppt = p.predictions_per_table
        self._sink = p.telemetry
        self._useful_max = p._useful_max
        self._bypass_max = p._bypass_max
        self._distance_max = p._distance_max
        self._smb = p.config.smb_enabled
        self._alloc_nondeps = p.config.allocate_nondependencies
        self._alloc_u_dep = p.config.alloc_usefulness_dep
        self._alloc_u_nondep = p.config.alloc_usefulness_nondep
        self._track_f1 = p.track_f1
        self._decay = p.config.decay_period
        supported = {BypassClass.DIRECT, BypassClass.NO_OFFSET}
        if p.config.offset_bypass:
            supported.add(BypassClass.OFFSET)
        # Per-bypass-code membership tables (no enum hashing on the hot path).
        self._sup_code = tuple(bc in supported for bc in BYPASS_BY_CODE)
        bypassable = p.bypassable_classes
        self._byp_code = tuple(bc in bypassable for bc in BYPASS_BY_CODE)

    def prime(self, stream: BranchStream, load_pc: np.ndarray,
              cond_before: np.ndarray, ind_before: np.ndarray) -> None:
        self.fb.prime(stream, load_pc, cond_before, ind_before)

    def on_branch(self, pc: int, taken: bool) -> None:
        self.fb.on_branch(pc, taken)

    def on_indirect(self, pc: int, target: int) -> None:
        self.fb.on_indirect(pc, target)

    def on_store(self, seq: int, pc: int) -> Optional[int]:
        return None

    def predict_train(self, seq: int, pc: int, dep_store_seq: int,
                      branches_between: int, store_pc: Optional[int],
                      a_dist: int, bypass_code: int):
        p = self.p
        fb = self.fb
        rows = fb.rows
        if rows is not None:
            idx, tags = next(rows)
        else:
            fb.compute_keys(pc)
            idx = fb.idx
            tags = fb.tags
        sets = self._sets
        sink = self._sink
        nt = self._nt

        # -- predict (longest-history tag match) --
        entry = None
        source = None
        for t in range(nt - 1, -1, -1):
            kt = tags[t]
            for e in sets[t][idx[t]]:
                if e is not None and e.tag == kt:
                    entry = e
                    source = t
                    break
            if entry is not None:
                break

        if entry is None:
            self._ppt[nt] += 1
            if sink is not None:
                sink.lookup(nt)
            kind = 0
            p_dist = 0
        elif entry.distance == 0:
            self._ppt[source] += 1
            if sink is not None:
                sink.lookup(source)
            kind = 0
            p_dist = 0
        else:
            self._ppt[source] += 1
            if sink is not None:
                sink.lookup(source)
            p_dist = entry.distance
            if (self._smb and entry.usefulness == self._useful_max
                    and entry.bypass == self._bypass_max):
                kind = 2
            else:
                kind = 1

        supported = self._sup_code[bypass_code]
        okind = classify_fast(kind, p_dist, None, a_dist, None,
                              self._byp_code[bypass_code])

        # -- train --
        umax = self._useful_max
        actual_distance = (a_dist if a_dist < self._distance_max
                           else self._distance_max)
        if kind == 0 and a_dist <= 0:
            if entry is not None and entry.distance == 0:
                entry.usefulness = (entry.usefulness + 1
                                    if entry.usefulness < umax else umax)
                if sink is not None:
                    sink.confidence(source, "up")
                if self._track_f1:
                    entry.tp += 1
        elif kind == 0:
            if entry is not None:
                entry.usefulness = (entry.usefulness - 1
                                    if entry.usefulness > 0 else 0)
                if sink is not None:
                    sink.confidence(source, "down")
                if self._track_f1:
                    entry.fn += 1
            self._allocate(0 if source is None else source + 1,
                           actual_distance, supported, idx, tags)
        elif a_dist <= 0:
            if entry is not None:
                entry.usefulness = (entry.usefulness - 1
                                    if entry.usefulness > 0 else 0)
                if kind == 2:
                    entry.bypass = 0
                if sink is not None:
                    sink.confidence(source, "down")
                    if kind == 2:
                        sink.confidence(source, "bypass_reset")
                if self._track_f1:
                    entry.fp += 1
            if self._alloc_nondeps:
                self._allocate(0 if source is None else source + 1, 0, False,
                               idx, tags)
        else:
            if p_dist == actual_distance:
                if entry is not None:
                    entry.usefulness = (entry.usefulness + 1
                                        if entry.usefulness < umax else umax)
                    if sink is not None:
                        sink.confidence(source, "up")
                    # supported bypass classes are a subset of is_bypassable,
                    # so the scalar's two-part test reduces to membership
                    if supported:
                        bmax = self._bypass_max
                        entry.bypass = (entry.bypass + 1
                                        if entry.bypass < bmax else bmax)
                        if sink is not None:
                            sink.confidence(source, "bypass_up")
                    else:
                        entry.bypass = 0
                        if sink is not None:
                            sink.confidence(source, "bypass_reset")
                    if self._track_f1:
                        entry.tp += 1
            else:
                if entry is not None:
                    entry.usefulness = (entry.usefulness - 1
                                        if entry.usefulness > 0 else 0)
                    if kind == 2:
                        entry.bypass = 0
                    if sink is not None:
                        sink.confidence(source, "down")
                        if kind == 2:
                            sink.confidence(source, "bypass_reset")
                    if self._track_f1:
                        entry.fp += 1
                self._allocate(0 if source is None else source + 1,
                               actual_distance, supported, idx, tags)

        p._loads_seen += 1
        if self._decay and p._loads_seen % self._decay == 0:
            p._decay_all()

        return kind, None, p_dist, False, okind

    def _allocate(self, start: int, distance: int, bypassable: bool,
                  idx, tags) -> None:
        p = self.p
        sink = self._sink
        nt = self._nt
        if start > nt - 1:
            start = nt - 1
        is_nondep = distance == 0
        for t in range(start, nt):
            ways = self._sets[t][idx[t]]
            victim = -1
            for w, e in enumerate(ways):
                if e is None or e.usefulness == 0:
                    victim = w
                    break
            if victim >= 0:
                if sink is not None:
                    if ways[victim] is not None:
                        sink.eviction(t)
                    sink.allocation(t, distance)
                if is_nondep:
                    usefulness = self._alloc_u_nondep
                    bypass = 0
                    p.allocations_nondep += 1
                else:
                    usefulness = self._alloc_u_dep
                    bypass = 1 if bypassable else 0
                    p.allocations_dep += 1
                ways[victim] = MascotEntry(tag=tags[t], distance=distance,
                                           usefulness=usefulness,
                                           bypass=bypass)
                return
            if t == start:
                p.allocation_failures += 1
                if sink is not None:
                    sink.event("allocation_failure")
                for e in ways:
                    if e is not None and e.usefulness > 0:
                        e.usefulness -= 1

    def finish(self) -> None:
        self.fb.finish()


class PhastSession:
    """Fast fused predict+train for :class:`Phast` (exact transcription)."""

    __slots__ = ("p", "fb", "_sets", "_nt", "_ppt", "_sink", "_useful_max",
                 "_lru_max", "_distance_max", "_alloc_usefulness",
                 "_hist_lengths", "_byp_code")

    def __init__(self, p: Phast) -> None:
        self.p = p
        self.fb = FastBank(p.bank)
        self._sets = [table._sets for table in p.bank.tables]
        self._nt = len(p.bank)
        self._ppt = p.predictions_per_table
        self._sink = p.telemetry
        self._useful_max = p._useful_max
        self._lru_max = p._lru_max
        self._distance_max = p._distance_max
        self._alloc_usefulness = p.alloc_usefulness
        self._hist_lengths = p.history_lengths
        bypassable = p.bypassable_classes
        self._byp_code = tuple(bc in bypassable for bc in BYPASS_BY_CODE)

    def prime(self, stream: BranchStream, load_pc: np.ndarray,
              cond_before: np.ndarray, ind_before: np.ndarray) -> None:
        self.fb.prime(stream, load_pc, cond_before, ind_before)

    def on_branch(self, pc: int, taken: bool) -> None:
        self.fb.on_branch(pc, taken)

    def on_indirect(self, pc: int, target: int) -> None:
        self.fb.on_indirect(pc, target)

    def on_store(self, seq: int, pc: int) -> Optional[int]:
        return None

    def predict_train(self, seq: int, pc: int, dep_store_seq: int,
                      branches_between: int, store_pc: Optional[int],
                      a_dist: int, bypass_code: int):
        fb = self.fb
        rows = fb.rows
        if rows is not None:
            idx, tags = next(rows)
        else:
            fb.compute_keys(pc)
            idx = fb.idx
            tags = fb.tags
        sets = self._sets
        sink = self._sink
        nt = self._nt

        entry = None
        source = None
        for t in range(nt - 1, -1, -1):
            kt = tags[t]
            for e in sets[t][idx[t]]:
                if e is not None and e.tag == kt:
                    entry = e
                    source = t
                    break
            if entry is not None:
                break

        if entry is None:
            self._ppt[nt] += 1
            if sink is not None:
                sink.lookup(nt)
            kind = 0
            p_dist = 0
        else:
            self._ppt[source] += 1
            if sink is not None:
                sink.lookup(source)
            lmax = self._lru_max
            for e in sets[source][idx[source]]:
                if e is None:
                    continue
                if e is entry:
                    e.lru = 0
                elif e.lru < lmax:
                    e.lru += 1
            kind = 1
            p_dist = entry.distance

        okind = classify_fast(kind, p_dist, None, a_dist, None,
                              self._byp_code[bypass_code])

        actual_distance = (a_dist if a_dist < self._distance_max
                           else self._distance_max)
        if kind != 0 and a_dist > 0:
            if p_dist == actual_distance:
                if entry.usefulness < self._useful_max:
                    entry.usefulness += 1
                if sink is not None:
                    sink.confidence(source, "up")
            else:
                if entry.usefulness > 0:
                    entry.usefulness -= 1
                if sink is not None:
                    sink.confidence(source, "down")
                self._allocate(branches_between, actual_distance, idx, tags)
        elif kind != 0:
            if entry.usefulness > 0:
                entry.usefulness -= 1
            if sink is not None:
                sink.confidence(source, "down")
        elif a_dist > 0:
            self._allocate(branches_between, actual_distance, idx, tags)
        return kind, None, p_dist, False, okind

    def _allocate(self, branches_between: int, distance: int,
                  idx, tags) -> None:
        table = self._nt - 1
        for t, length in enumerate(self._hist_lengths):
            if length >= branches_between:
                table = t
                break
        ways = self._sets[table][idx[table]]
        sink = self._sink
        victim = -1
        for w, e in enumerate(ways):
            if e is None:
                victim = w
                break
        if victim < 0:
            best = None
            for w, e in enumerate(ways):
                if e.usefulness == 0:
                    k = (e.lru, w)
                    if best is None or k > best:
                        best = k
                        victim = w
        if victim < 0:
            best = None
            oldest = -1
            for w, e in enumerate(ways):
                k = (e.lru, w)
                if best is None or k > best:
                    best = k
                    oldest = w
            e = ways[oldest]
            if e.usefulness > 0:
                e.usefulness -= 1
            if sink is not None:
                sink.event("allocation_deferred")
                sink.confidence(table, "down")
            return
        if sink is not None:
            if ways[victim] is not None:
                sink.eviction(table)
            sink.allocation(table, distance)
        ways[victim] = PhastEntry(tag=tags[table], distance=distance,
                                  usefulness=self._alloc_usefulness)

    def finish(self) -> None:
        self.fb.finish()


class NoSQSession:
    """Fast fused predict+train for :class:`NoSQ` (exact transcription)."""

    __slots__ = ("p", "fv", "_hist_slot", "_tag_slot", "_imask", "_tmask",
                 "_ibits", "_tables", "_sink", "_smb_conf", "_conf_max",
                 "_dist_max", "_lru_max", "_byp_code", "_pc_cache",
                 "_plan", "_keys")

    def __init__(self, p: NoSQ) -> None:
        self.p = p
        self.fv = FoldVector(p._ghist)
        self._hist_slot = self.fv.slot(p.history_bits, p.index_bits)
        self._tag_slot = self.fv.slot(p.history_bits, p.TAG_BITS)
        self._imask = mask(p.index_bits)
        self._tmask = mask(p.TAG_BITS)
        self._ibits = p.index_bits
        self._tables = p._tables
        self._sink = p.telemetry
        self._smb_conf = p.smb_confidence
        self._conf_max = p._confidence_max
        self._dist_max = p._distance_max
        self._lru_max = p._lru_max
        bypassable = p.bypassable_classes
        self._byp_code = tuple(bc in bypassable for bc in BYPASS_BY_CODE)
        self._pc_cache: Dict[int, Tuple[int, int, int]] = {}
        self._plan: Optional[FoldPlan] = None
        self._keys: Optional[Iterator[Tuple[int, int, int, int]]] = None

    def prime(self, stream: BranchStream, load_pc: np.ndarray,
              cond_before: np.ndarray, ind_before: np.ndarray) -> None:
        bits, _ = stream.mixed()
        try:
            plan = FoldPlan(self.fv, bits)
        except RuntimeError:
            return
        self._plan = plan
        k_push = cond_before + 5 * ind_before
        pcv = load_pc >> 1
        vi = plan.series[self._hist_slot][k_push]
        vt = plan.series[self._tag_slot][k_push]
        plan.drop_series()
        self._keys = key_rows(
            (pcv ^ vi) & self._imask,
            (pcv ^ vt) & self._tmask,
            pcv & self._imask,
            (pcv >> self._ibits) & self._tmask,
        )

    def on_branch(self, pc: int, taken: bool) -> None:
        if self._plan is None:
            self.fv.push_bit(1 if taken else 0)

    def on_indirect(self, pc: int, target: int) -> None:
        if self._plan is None:
            self.fv.push_indirect(target)

    def on_store(self, seq: int, pc: int) -> Optional[int]:
        return None

    def predict_train(self, seq: int, pc: int, dep_store_seq: int,
                      branches_between: int, store_pc: Optional[int],
                      a_dist: int, bypass_code: int):
        keys = self._keys
        if keys is not None:
            dep_index, dep_tag, ind_index, ind_tag = next(keys)
        else:
            c = self._pc_cache.get(pc)
            if c is None:
                pc_part = pc >> 1
                c = (pc_part, pc_part & self._imask,
                     (pc_part >> self._ibits) & self._tmask)
                self._pc_cache[pc] = c
            pc_part, ind_index, ind_tag = c
            values = self.fv.values
            dep_index = (pc_part ^ values[self._hist_slot]) & self._imask
            dep_tag = (pc_part ^ values[self._tag_slot]) & self._tmask

        sink = self._sink
        tables = self._tables
        lmax = self._lru_max

        dep_entry = None
        for e in tables[0][dep_index]:
            if e is not None and e.tag == dep_tag:
                dep_entry = e
                break
        ind_entry = None
        for e in tables[1][ind_index]:
            if e is not None and e.tag == ind_tag:
                ind_entry = e
                break

        if dep_entry is not None:
            for e in tables[0][dep_index]:
                if e is None:
                    continue
                if e is dep_entry:
                    e.lru = 0
                elif e.lru < lmax:
                    e.lru += 1
            if sink is not None:
                sink.lookup(0)
            p_dist = dep_entry.distance
            kind = 2 if dep_entry.confidence >= self._smb_conf else 1
        elif ind_entry is not None:
            for e in tables[1][ind_index]:
                if e is None:
                    continue
                if e is ind_entry:
                    e.lru = 0
                elif e.lru < lmax:
                    e.lru += 1
            if sink is not None:
                sink.lookup(1)
            p_dist = ind_entry.distance
            kind = 1
        else:
            if sink is not None:
                sink.lookup(2)
            p_dist = 0
            kind = 0

        bypassable = self._byp_code[bypass_code]
        okind = classify_fast(kind, p_dist, None, a_dist, None, bypassable)

        if a_dist > 0:
            distance = a_dist if a_dist < self._dist_max else self._dist_max
            for table, index, tag, entry in (
                (0, dep_index, dep_tag, dep_entry),
                (1, ind_index, ind_tag, ind_entry),
            ):
                if entry is not None and entry.distance == distance:
                    if bypassable or table == 1:
                        if entry.confidence < self._conf_max:
                            entry.confidence += 1
                        if sink is not None:
                            sink.confidence(table, "up")
                    else:
                        entry.confidence = 0
                        if sink is not None:
                            sink.confidence(table, "bypass_reset")
                else:
                    self._install(table, index, tag, distance)
        else:
            for table, entry in ((0, dep_entry), (1, ind_entry)):
                if entry is not None:
                    entry.confidence = 0
                    if sink is not None:
                        sink.confidence(table, "reset")
        return kind, None, p_dist, False, okind

    def _install(self, table: int, index: int, tag: int,
                 distance: int) -> None:
        ways = self._tables[table][index]
        sink = self._sink
        for entry in ways:
            if entry is not None and entry.tag == tag:
                entry.distance = distance
                entry.confidence = 1
                if sink is not None:
                    sink.confidence(table, "reset")
                return
        victim = -1
        for w, entry in enumerate(ways):
            if entry is None:
                victim = w
                break
        if victim < 0:
            best = None
            for w, entry in enumerate(ways):
                k = (entry.lru, w)
                if best is None or k > best:
                    best = k
                    victim = w
        if sink is not None:
            if ways[victim] is not None:
                sink.eviction(table)
            sink.allocation(table, distance)
        ways[victim] = NoSQEntry(tag=tag, distance=distance, confidence=1)

    def finish(self) -> None:
        if self._plan is not None:
            self._plan.finalize()
        self.fv.sync_back()


class StoreSetsSession:
    """Fast fused predict+train for :class:`StoreSets`.

    Store Sets has no folded history, so the only speedups are the cached
    ``mix64(pc) % effective_ssit`` index and the fused call.  The clear
    logic rebinds the predictor's own lists (as the scalar path does), so
    table references are always read through the predictor.
    """

    __slots__ = ("p", "_sink", "_interval", "_window", "_byp_code",
                 "_idx_cache")

    def __init__(self, p: StoreSets) -> None:
        self.p = p
        self._sink = p.telemetry
        self._interval = p.clear_interval
        self._window = p.instr_window
        bypassable = p.bypassable_classes
        self._byp_code = tuple(bc in bypassable for bc in BYPASS_BY_CODE)
        self._idx_cache: Dict[int, int] = {}

    def on_branch(self, pc: int, taken: bool) -> None:
        pass

    def on_indirect(self, pc: int, target: int) -> None:
        pass

    def _idx(self, pc: int) -> int:
        i = self._idx_cache.get(pc)
        if i is None:
            i = mix64(pc) % self.p._effective_ssit
            self._idx_cache[pc] = i
        return i

    def _maybe_clear(self) -> None:
        p = self.p
        p._accesses += 1
        if self._interval and p._accesses % self._interval == 0:
            p._ssit = [None] * p.ssit_entries
            p._lfst = [None] * p.lfst_entries
            if self._sink is not None:
                self._sink.event("cyclic_clear")

    def on_store(self, seq: int, pc: int) -> Optional[int]:
        p = self.p
        self._maybe_clear()
        ssid = p._ssit[self._idx(pc)]
        if ssid is None:
            return None
        lfst = p._lfst
        previous = lfst[ssid]
        lfst[ssid] = seq
        if previous is not None and seq - previous <= self._window:
            return previous
        return None

    def predict_train(self, seq: int, pc: int, dep_store_seq: int,
                      branches_between: int, store_pc: Optional[int],
                      a_dist: int, bypass_code: int):
        p = self.p
        self._maybe_clear()
        sink = self._sink
        ssid = p._ssit[self._idx(pc)]
        kind = 0
        p_seq = None
        if ssid is None:
            if sink is not None:
                sink.lookup(1)
        else:
            store_seq = p._lfst[ssid]
            if store_seq is None or seq - store_seq > self._window:
                if sink is not None:
                    sink.lookup(1)
            else:
                if sink is not None:
                    sink.lookup(0)
                kind = 1
                p_seq = store_seq

        # A load with a_dist > 0 has a dependence store; otherwise a_seq
        # is the -1 sentinel, which classify_fast never compares.
        a_seq = dep_store_seq
        okind = classify_fast(kind, 0, p_seq, a_dist, a_seq,
                              self._byp_code[bypass_code])

        if a_dist > 0 and not (kind != 0 and p_seq is not None
                               and p_seq >= a_seq):
            p.violations_trained += 1
            if sink is not None:
                sink.event("violation_trained")
            self._assign(self._idx(pc), a_seq, a_dist, store_pc)
        return kind, p_seq, 0, False, okind

    def _assign(self, load_index: int, a_seq: int, a_dist: int,
                store_pc: Optional[int]) -> None:
        p = self.p
        spc = store_pc if store_pc is not None else a_seq
        store_index = self._idx(spc)
        ssit = p._ssit
        load_ssid = ssit[load_index]
        store_ssid = ssit[store_index]
        sink = self._sink
        if load_ssid is None and store_ssid is None:
            ssid = p._new_ssid()
            ssit[load_index] = ssid
            ssit[store_index] = ssid
            if sink is not None:
                sink.allocation(0, a_dist)
        elif load_ssid is not None and store_ssid is None:
            ssit[store_index] = load_ssid
            if sink is not None:
                sink.allocation(0, a_dist)
        elif load_ssid is None:
            ssit[load_index] = store_ssid
            if sink is not None:
                sink.allocation(0, a_dist)
        else:
            winner = load_ssid if load_ssid < store_ssid else store_ssid
            ssit[load_index] = winner
            ssit[store_index] = winner
            if sink is not None:
                sink.event("set_merge")

    def finish(self) -> None:
        pass


def make_session(predictor: MDPredictor):
    """Session for ``predictor`` — fast when the exact type has one.

    Type-exact checks keep subclasses (which may override ``predict`` or
    ``train``) on the generic, by-construction-correct path.
    """
    tp = type(predictor)
    if tp is Mascot:
        return MascotSession(predictor)
    if tp is Phast:
        return PhastSession(predictor)
    if tp is NoSQ:
        return NoSQSession(predictor)
    if tp is StoreSets:
        return StoreSetsSession(predictor)
    return GenericMDSession(predictor)


def prime_session(session, cols: TraceColumns) -> BranchStream:
    """Prime ``session`` for the trace behind ``cols``; returns its branches.

    A session that builds micro-ops (:class:`GenericMDSession`) is bound
    to the columns.  The architectural branch stream is a pure function of
    the trace, so sessions that support priming vectorise their fold
    registers and table keys up front (see :meth:`FastBank.prime`); others
    are left as they are.  The returned :class:`~repro.common.foldplan.BranchStream` can
    prime further sessions (the branch predictor's).
    """
    bseqs = cols.indices_of(OpClass.BRANCH_COND, OpClass.BRANCH_INDIRECT)
    bkind = (cols.op[bseqs] == _OP_BI).astype(np.int64)
    bval = np.where(
        bkind == 0,
        cols.taken[bseqs].astype(np.int64),
        cols.target[bseqs],
    )
    stream = BranchStream(bkind, cols.pc[bseqs].astype(np.int64), bval)
    bind = getattr(session, "bind", None)
    if bind is not None:
        bind(cols)
    prime = getattr(session, "prime", None)
    if prime is not None:
        load_seqs = cols.indices_of(OpClass.LOAD)
        cond_before = np.searchsorted(bseqs[bkind == 0], load_seqs)
        ind_before = np.searchsorted(bseqs[bkind == 1], load_seqs)
        prime(stream, cols.pc[load_seqs].astype(np.int64),
              cond_before, ind_before)
    return stream
