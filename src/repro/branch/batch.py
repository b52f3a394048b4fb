"""Batched-session counterpart of the branch predictors.

Mirrors :mod:`repro.predictors.batch` for the front-end direction
predictor: :class:`TageSession` transcribes the exact
:class:`TAGEBranchPredictor` predict/train/allocate logic over the same
live table entries and :class:`BranchStats`, with history folds carried by
a :class:`~repro.common.foldvec.FoldVector` (synced back on
:meth:`finish`) and the PC-static hash components cached per PC.  The
ITTAGE indirect-target predictor is driven through its real interface —
indirects are ~1% of the branch stream, so fidelity is free.

Any other direction predictor runs through :class:`GenericBranchSession`,
which simply forwards to the real ``predict_and_train`` path.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..common.bitops import mask
from ..common.foldplan import BranchStream, FoldPlan, key_rows
from ..common.foldvec import FoldVector
from ..common.history import INDIRECT_TARGET_BITS
from .base import BranchPredictor
from .ittage import ITtageEntry
from .tage import TAGEBranchPredictor

__all__ = ["TageSession", "GenericBranchSession", "make_branch_session"]


class GenericBranchSession:
    """Session driving the real branch-predictor protocol."""

    __slots__ = ("p",)

    def __init__(self, p: BranchPredictor) -> None:
        self.p = p

    def on_branch(self, pc: int, taken: bool) -> bool:
        return self.p.predict_and_train(pc, taken)

    def on_indirect(self, pc: int, target: int) -> bool:
        return self.p.observe_indirect(pc, target)

    def finish(self) -> None:
        pass


class TageSession:
    """Fast conditional-branch path for :class:`TAGEBranchPredictor`."""

    __slots__ = ("p", "fv", "_idx_slots", "_tag_slots", "_tag2_slots",
                 "_tables", "_base", "_nh", "_imask", "_tmask", "_bmask",
                 "_ibits", "_tbits", "_reset_period", "_stats", "_pc_cache",
                 "_idx", "_tags", "_plan", "_rows", "_ifv", "_iplan",
                 "_ind_rows")

    def __init__(self, p: TAGEBranchPredictor) -> None:
        self.p = p
        self.fv = FoldVector(p._ghist)
        nh = len(p.histories)
        self._nh = nh
        self._idx_slots = [self.fv.slot(h, p.index_bits) for h in p.histories]
        self._tag_slots = [self.fv.slot(h, p.tag_bits) for h in p.histories]
        self._tag2_slots = [self.fv.slot(h, max(p.tag_bits - 1, 1))
                            for h in p.histories]
        self._tables = p._tables
        self._base = p._base
        self._imask = mask(p.index_bits)
        self._tmask = mask(p.tag_bits)
        self._bmask = mask(p.base_index_bits)
        self._ibits = p.index_bits
        self._tbits = p.tag_bits
        self._reset_period = p.useful_reset_period
        self._stats = p.stats
        self._pc_cache: Dict[int, Tuple[List[int], int, int]] = {}
        self._idx = [0] * nh
        self._tags = [0] * nh
        self._plan: Optional[FoldPlan] = None
        # Primed (index tuple, tag tuple, base index) rows, one per
        # conditional / indirect branch (see common.foldplan.key_rows).
        self._rows: Optional[Iterator[Tuple[Tuple[int, ...],
                                            Tuple[int, ...], int]]] = None
        self._ifv: Optional[FoldVector] = None
        self._iplan: Optional[FoldPlan] = None
        self._ind_rows: Optional[Iterator[Tuple[Tuple[int, ...],
                                                Tuple[int, ...], int]]] = None

    def _build_pc(self, pc: int) -> Tuple[List[int], int, int]:
        pcv = pc >> 1
        ib = self._ibits
        base = pcv ^ (pcv >> ib) ^ (pcv >> (2 * ib))
        sidx = [base ^ ((t + 1) * 0x9E37) for t in range(self._nh)]
        stag = pcv ^ (pcv >> self._tbits)
        return sidx, stag, pcv & self._bmask

    def prime(self, stream: BranchStream) -> None:
        """Precompute every conditional branch's table keys, vectorised.

        TAGE's history stream is the conditional outcome bits, plus the
        folded indirect-target bits when an ITTAGE is attached (mirroring
        :meth:`on_indirect`'s ``push_indirect``)."""
        cond = stream.kind == 0
        if self.p._ittage is not None:
            bits, ofs = stream.mixed()
            k_cond = ofs[cond]
            self._prime_ittage(stream)
        else:
            bits = stream.cond_only()
            k_cond = np.arange(int(np.count_nonzero(cond)))
        try:
            plan = FoldPlan(self.fv, bits)
        except RuntimeError:
            return
        self._plan = plan
        series = plan.series
        pcv = stream.pc[cond] >> 1
        ib = self._ibits
        base = pcv ^ (pcv >> ib) ^ (pcv >> (2 * ib))
        stag = pcv ^ (pcv >> self._tbits)
        imask = self._imask
        tmask = self._tmask
        icols = []
        tcols = []
        for t in range(self._nh):
            vi = series[self._idx_slots[t]][k_cond]
            vt = series[self._tag_slots[t]][k_cond]
            vt2 = series[self._tag2_slots[t]][k_cond]
            icols.append((base ^ ((t + 1) * 0x9E37) ^ vi) & imask)
            tcols.append((stag ^ vt ^ (vt2 << 1)) & tmask)
        plan.drop_series()
        self._rows = key_rows(icols, tcols, pcv & self._bmask)

    def _prime_ittage(self, stream: BranchStream) -> None:
        """Precompute the ITTAGE's per-indirect table keys and history.

        The ITTAGE's private :class:`GlobalHistory` sees only the folded
        target bits of indirect events (:meth:`ITTAGE.on_outcome`), another
        pure function of the trace."""
        itt = self.p._ittage
        ifv = FoldVector(itt._ghist)
        try:
            iplan = FoldPlan(ifv, stream.ind_only())
        except RuntimeError:
            return
        self._ifv = ifv
        self._iplan = iplan
        series = iplan.series
        ipc = stream.pc[stream.kind != 0] >> 1
        kp = np.arange(int(ipc.shape[0])) * INDIRECT_TARGET_BITS
        ib = itt.index_bits
        tb = itt.tag_bits
        tb2 = max(tb - 1, 1)
        imask = mask(ib)
        tmask = mask(tb)
        base_i = ipc ^ (ipc >> ib) ^ (ipc >> (2 * ib))
        stag = ipc ^ (ipc >> tb)
        icols = []
        tcols = []
        for t, h in enumerate(itt.histories):
            vi = series[ifv.slot(h, ib)][kp]
            vt = series[ifv.slot(h, tb)][kp]
            vt2 = series[ifv.slot(h, tb2)][kp]
            icols.append((base_i ^ vi ^ ((t + 1) * 0x9E37)) & imask)
            tcols.append((stag ^ vt ^ (vt2 << 1)) & tmask)
        iplan.drop_series()
        self._ind_rows = key_rows(icols, tcols,
                                  ipc & mask(itt.base_index_bits))

    def on_branch(self, pc: int, taken: bool) -> bool:
        p = self.p
        nh = self._nh
        rows = self._rows
        if rows is not None:
            idx, tags, base_idx = next(rows)
        else:
            c = self._pc_cache.get(pc)
            if c is None:
                c = self._build_pc(pc)
                self._pc_cache[pc] = c
            sidx, stag, base_idx = c
            values = self.fv.values
            idx = self._idx
            tags = self._tags
            imask = self._imask
            tmask = self._tmask
            idx_slots = self._idx_slots
            tag_slots = self._tag_slots
            tag2_slots = self._tag2_slots
            for t in range(nh):
                idx[t] = (sidx[t] ^ values[idx_slots[t]]) & imask
                tags[t] = (stag ^ values[tag_slots[t]]
                           ^ (values[tag2_slots[t]] << 1)) & tmask

        # -- predict --
        tables = self._tables
        hit = -1
        for t in range(nh - 1, -1, -1):
            entry = tables[t][idx[t]]
            if entry.valid and entry.tag == tags[t]:
                hit = t
                prediction = entry.counter >= 4
                break
        if hit < 0:
            prediction = self._base[base_idx] >= 2

        # -- train --
        mispredicted = prediction != taken
        if hit < 0:
            counter = self._base[base_idx]
            self._base[base_idx] = (min(3, counter + 1) if taken
                                    else max(0, counter - 1))
        else:
            entry = tables[hit][idx[hit]]
            if not mispredicted and entry.useful < 3:
                entry.useful += 1
            if taken:
                if entry.counter < 7:
                    entry.counter += 1
            elif entry.counter > 0:
                entry.counter -= 1

        if mispredicted:
            start = 0 if hit < 0 else hit + 1
            allocated = False
            for t in range(start, nh):
                entry = tables[t][idx[t]]
                if not entry.valid or entry.useful == 0:
                    entry.valid = True
                    entry.tag = tags[t]
                    entry.counter = 4 if taken else 3
                    entry.useful = 0
                    allocated = True
                    break
            if not allocated:
                for t in range(start, nh):
                    entry = tables[t][idx[t]]
                    if entry.useful > 0:
                        entry.useful -= 1

        p._branch_count += 1
        if p._branch_count % self._reset_period == 0:
            p._decay_useful()
        if rows is None:
            self.fv.push_bit(1 if taken else 0)

        stats = self._stats
        stats.conditional_branches += 1
        if mispredicted:
            stats.mispredictions += 1
            return False
        return True

    def on_indirect(self, pc: int, target: int) -> bool:
        p = self.p
        stats = self._stats
        if p._ittage is None:
            # Base-class last-target fallback (lazily created attribute).
            if not hasattr(p, "_last_targets"):
                p._last_targets = {}
            predicted = p._last_targets.get(pc)
            p._last_targets[pc] = target
            correct = predicted == target
        elif self._iplan is not None:
            correct = self._ittage_step(target)
            if self._plan is None:
                self.fv.push_indirect(target)
        else:
            correct = p._ittage.predict_and_train(pc, target)
            p._ittage.on_outcome(target)
            if self._plan is None:
                self.fv.push_indirect(target)
        stats.indirect_branches += 1
        if not correct:
            stats.indirect_mispredictions += 1
        return correct

    def _ittage_step(self, target: int) -> bool:
        """``ITTAGE.predict_and_train`` with primed keys; history advance
        deferred to the plan's ``finalize``."""
        itt = self.p._ittage
        idx, tags, base_idx = next(self._ind_rows)
        tables = itt._tables
        nh = len(tables)
        provider = -1
        prediction = None
        for t in range(nh - 1, -1, -1):
            entry = tables[t][idx[t]]
            if entry is not None and entry.tag == tags[t]:
                provider = t
                prediction = entry.target
                break
        if prediction is None:
            prediction = itt._base[base_idx]

        correct = prediction == target
        itt.lookups += 1
        if not correct:
            itt.mispredictions += 1

        if provider >= 0:
            entry = tables[provider][idx[provider]]
            if entry.target == target:
                entry.confidence = min(3, entry.confidence + 1)
                entry.useful = min(3, entry.useful + 1)
            elif entry.confidence > 0:
                entry.confidence -= 1
            else:
                entry.target = target
                entry.confidence = 1
        itt._base[base_idx] = target

        if not correct:
            start = 0 if provider < 0 else provider + 1
            for t in range(start, nh):
                entry = tables[t][idx[t]]
                if entry is None or entry.useful == 0:
                    tables[t][idx[t]] = ITtageEntry(tag=tags[t],
                                                    target=target)
                    break
                entry.useful -= 1
        return correct

    def finish(self) -> None:
        if self._plan is not None:
            self._plan.finalize()
        self.fv.sync_back()
        if self._iplan is not None:
            self._iplan.finalize()
            self._ifv.sync_back()


def make_branch_session(predictor: BranchPredictor):
    """Session for the direction predictor; type-exact for subclass safety."""
    if type(predictor) is TAGEBranchPredictor:
        return TageSession(predictor)
    return GenericBranchSession(predictor)
