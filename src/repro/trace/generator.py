"""Dynamic trace generation.

:class:`TraceGenerator` unrolls a static :class:`~repro.trace.program.Program`
into a :class:`~repro.trace.columns.ColumnarTrace`: per-field columns of
annotated micro-ops, read as :class:`~repro.trace.uop.MicroOp` records on
demand.  The
generator is the single source of ground truth: it evaluates every branch,
computes every effective address, tracks the dynamic store stream through a
:class:`~repro.trace.dependence.DependenceTracker` and stamps each load with
its true store distance and bypass class.  Both the prediction-only harness
and the timing pipeline consume the same stream, so accuracy numbers and IPC
numbers always agree about which loads were dependent.

Dataflow is modelled with explicit producer links: every value-producing
micro-op can be named as a source by later ops.  The profile's ``chain_bias``
and ``load_consumer_fraction`` control how deep dependency chains grow and
how often computation consumes fresh load results — the two knobs that decide
how much IPC is gained when SMB delivers load values early.
"""

from __future__ import annotations

import random
from collections import deque
from typing import List, Tuple

import numpy as np

from .columns import BYPASS_CODE_BY_VALUE, OP_CODES, ColumnarTrace, TraceColumns
from .dependence import DependenceTracker
from .profiles import get_profile
from .program import (
    SLOT_STRIDE,
    Program,
    StaticInst,
    StaticKind,
    build_program,
)
from .uop import OpClass

__all__ = ["TraceGenerator", "generate_trace"]

#: How many recent producers are eligible as random dataflow sources.
_RECENT_WINDOW = 24

# Emission kinds of the per-iteration schedule (see TraceGenerator._plan).
_COMPUTE = 0
_BRANCH = 1
_INDIRECT = 2
_STORE_PAIR = 3
_STORE_FILLER = 4
_LOAD_PAIR = 5
_LOAD_STREAM = 6

_COMPUTE_KINDS = (StaticKind.ALU, StaticKind.MUL, StaticKind.DIV,
                  StaticKind.FP)


class TraceGenerator:
    """Generates the dynamic micro-op stream for one synthetic benchmark.

    Parameters
    ----------
    program:
        The static program to unroll (see :func:`build_program`).
    seed:
        Seed for all *dynamic* randomness (branch noise, dataflow sampling).
        Distinct from the program's structural seed so that the same static
        program can produce independent trace samples.
    store_window / instr_window:
        In-flight bounds handed to the dependence tracker; defaults match
        the Golden Cove store buffer (114) and ROB (512) of Table I.

    A generator produces one trace: :meth:`generate` consumes its random
    stream and dependence tracker.
    """

    def __init__(
        self,
        program: Program,
        seed: int = 1,
        store_window: int = 114,
        instr_window: int = 512,
    ):
        self.program = program
        self.profile = program.profile
        self._rng = random.Random(seed ^ 0x5EED)
        self._tracker = DependenceTracker(store_window, instr_window)
        self._used = False

    def _plan(self) -> Tuple[List[Tuple], List[StaticInst]]:
        """One loop iteration as a flat schedule of emission tuples, and
        the static instruction behind each.

        Each tuple starts with its emission kind, followed by what the
        emission reads of the static instruction (a memory op's access
        size first).  A conditional branch
        carries ``skip``, the number of following
        entries its not-taken outcome skips: the guarded segment's body
        for a guard, 0 for an in-body branch.  Stream loads carry the
        index of their address cursor.
        """
        statics: List[StaticInst] = []
        skips: List[int] = []
        for segment in self.program.segments:
            if segment.guard is not None:
                statics.append(segment.guard)
                skips.append(len(segment.body))
            statics.extend(segment.body)
            skips.extend([0] * len(segment.body))
        statics.append(self.program.loop_branch)
        skips.append(0)

        entries: List[Tuple] = []
        cursors = 0
        for inst, skip in zip(statics, skips):
            kind = inst.kind
            if kind in _COMPUTE_KINDS:
                entries.append((_COMPUTE,))
            elif kind is StaticKind.BRANCH:
                b = inst.branch
                entries.append((_BRANCH, b.pattern, b.noise, b.bias, skip))
            elif kind is StaticKind.BRANCH_INDIRECT:
                entries.append((_INDIRECT, inst.indirect))
            elif kind is StaticKind.STORE_PAIR:
                entries.append((_STORE_PAIR, _static_size(inst), inst.pair,
                                inst.writer_stride, inst.force_addr_chain))
            elif kind is StaticKind.STORE_FILLER:
                entries.append((_STORE_FILLER, _static_size(inst),
                                inst.filler_address, inst.force_addr_chain))
            elif kind is StaticKind.LOAD_PAIR:
                entries.append((_LOAD_PAIR, _static_size(inst), inst.pair))
            elif kind is StaticKind.LOAD_STREAM:
                entries.append((_LOAD_STREAM, _static_size(inst),
                                inst.stream_random, inst.stream_stride,
                                inst.stream_start, cursors))
                cursors += 1
            else:
                raise AssertionError(f"unhandled static kind {kind}")
        return entries, statics

    def generate(self, num_uops: int) -> ColumnarTrace:
        """The first ``num_uops`` micro-ops, as a columnar trace.

        One loop emits every micro-op straight into per-field columns.
        Fields fixed by the static instruction (op class, PC, access
        size, a conditional branch's target) are recorded as the index
        of the emitting schedule entry; the dynamic fields are recorded
        only for the uops that have them.  Dataflow follows explicit
        producer links: ``recent`` holds the last producers, ``chain_head``
        the newest value on the dependency chain and ``last_load`` the
        newest load.
        """
        if num_uops <= 0:
            raise ValueError("num_uops must be positive")
        if self._used:
            raise RuntimeError("a TraceGenerator produces one trace")
        self._used = True
        entries, statics = self._plan()
        n_entries = len(entries)
        profile = self.profile
        chain_bias = profile.chain_bias
        consumer_fraction = profile.load_consumer_fraction
        store_chain_fraction = profile.store_addr_chain_fraction
        footprint = profile.footprint
        random_ = self._rng.random
        choice = self._rng.choice
        randrange = self._rng.randrange
        record_store = self._tracker.record_raw_store
        find_dependence = self._tracker.find_dependence
        bypass_code = BYPASS_CODE_BY_VALUE
        cursor = [0] * sum(e[0] == _LOAD_STREAM for e in entries)

        recent: deque = deque(maxlen=_RECENT_WINDOW)
        chain_head = None
        last_load = None

        # Columns: the schedule index of every uop, then per-field values
        # of the uops that have them.
        entry_of: List[int] = []
        src_owner: List[int] = []
        src_flat: List[int] = []
        cond_seq: List[int] = []
        cond_taken: List[bool] = []
        ind_seq: List[int] = []
        ind_target: List[int] = []
        mem_seq: List[int] = []
        mem_address: List[int] = []
        mem_addr_src: List[int] = []
        dep_seq: List[int] = []
        dep_distance: List[int] = []
        dep_store: List[int] = []
        dep_bypass: List[int] = []

        seq = 0
        iteration = 0
        pos = 0
        while True:
            entry = entries[pos]
            entry_of.append(pos)
            pos += 1
            kind = entry[0]

            if kind == _COMPUTE:
                if recent:
                    if chain_head is not None and random_() < chain_bias:
                        first = chain_head
                    else:
                        first = choice(recent)
                    src_owner.append(seq)
                    src_flat.append(first)
                    second = None
                    if random_() < 0.5:
                        second = choice(recent)
                        if second != first:
                            src_owner.append(seq)
                            src_flat.append(second)
                    # Consumers of the most recent load model
                    # load-latency sensitivity.
                    if (last_load is not None and last_load != first
                            and last_load != second
                            and random_() < consumer_fraction):
                        src_owner.append(seq)
                        src_flat.append(last_load)
                recent.append(seq)
                chain_head = seq

            elif kind == _BRANCH:
                _, pattern, noise, bias, skip = entry
                if pattern is not None:
                    taken = pattern[iteration % len(pattern)]
                    if noise and random_() < noise:
                        taken = not taken
                else:
                    taken = random_() < bias
                if recent and random_() < 0.5:
                    src_owner.append(seq)
                    src_flat.append(choice(recent))
                cond_seq.append(seq)
                cond_taken.append(taken)
                if not taken:
                    pos += skip  # a guard skips its segment

            elif kind == _INDIRECT:
                ind_seq.append(seq)
                ind_target.append(entry[1].target(iteration, self._rng))

            elif kind == _STORE_PAIR or kind == _STORE_FILLER:
                size = entry[1]
                if kind == _STORE_PAIR:
                    _, _, pair, stride, force_chain = entry
                    address = pair.base_address + (
                        (iteration * stride) % pair.rotation) * SLOT_STRIDE
                    # Pair stores write values computed earlier (a spilled
                    # register, a field produced upstream): their data is
                    # ready well before younger loads could complete,
                    # which is what makes bypassing them profitable.
                    data_src = recent[0] if recent else None
                else:
                    _, _, address, force_chain = entry
                    data_src = None
                    if recent:
                        if chain_head is not None and random_() < chain_bias:
                            data_src = chain_head
                        else:
                            data_src = choice(recent)
                if data_src is not None:
                    src_owner.append(seq)
                    src_flat.append(data_src)
                # A fraction of stores compute their address from live
                # dataflow (pointer writes): their address resolves late,
                # giving MDP decisions real timing consequences.
                addr_src = -1
                if force_chain and chain_head is not None:
                    # A computed-address write: the address hangs off the
                    # live dataflow chain, so it resolves moderately late —
                    # waiting behind this store when it is not the actual
                    # producer (Store Sets' serialise-behind-last-fetched
                    # policy) costs real cycles.
                    addr_src = chain_head
                elif recent and random_() < store_chain_fraction:
                    if chain_head is not None and random_() < chain_bias:
                        addr_src = chain_head
                    else:
                        addr_src = choice(recent)
                mem_seq.append(seq)
                mem_address.append(address)
                mem_addr_src.append(addr_src)
                record_store(seq, address, size)

            else:  # a load
                size = entry[1]
                if kind == _LOAD_PAIR:
                    pair = entry[2]
                    address = (pair.base_address
                               + (iteration % pair.rotation) * SLOT_STRIDE
                               + pair.load_offset)
                else:
                    _, _, stream_random, stride, stream_start, slot = entry
                    if stream_random:
                        offset = randrange(max(footprint // 8, 1)) * 8
                    else:
                        offset = (cursor[slot] * stride) % footprint
                    cursor[slot] += 1
                    address = stream_start + offset
                distance, store, bypass = find_dependence(address, size, seq)
                if store is not None:
                    dep_seq.append(seq)
                    dep_distance.append(distance)
                    dep_store.append(store.seq)
                    dep_bypass.append(bypass_code[bypass._value_])
                addr_src = -1
                if kind == _LOAD_PAIR:
                    # Pair loads compute their address from live dataflow
                    # (pointer chases, index arithmetic): with probability
                    # chain_bias the address hangs off the current chain
                    # head, so the load issues late — exactly when
                    # obtaining its value early through SMB pays off (the
                    # perlbench2 effect of Sec. VI-A).
                    if recent:
                        if chain_head is not None and random_() < chain_bias:
                            addr_src = chain_head
                        else:
                            addr_src = choice(recent)
                elif recent and random_() < 0.3:
                    addr_src = choice(recent)
                mem_seq.append(seq)
                mem_address.append(address)
                mem_addr_src.append(addr_src)
                # Whether the load's value feeds the critical dataflow
                # chain is the profile's sensitivity knob: lbm-style
                # streaming kernels rarely chain on loaded values
                # (bypassing helps little) while perlbench-style
                # interpreters almost always do (Sec. VI-A).
                if random_() < consumer_fraction:
                    chain_head = seq
                recent.append(seq)
                last_load = seq

            seq += 1
            if seq == num_uops:
                break
            if pos == n_entries:
                pos = 0
                iteration += 1

        return ColumnarTrace(_columns(
            statics, num_uops, entry_of, src_owner, src_flat,
            (cond_seq, cond_taken), (ind_seq, ind_target),
            (mem_seq, mem_address, mem_addr_src),
            (dep_seq, dep_distance, dep_store, dep_bypass)))


def _columns(statics: List[StaticInst], n: int, entry_of, src_owner,
             src_flat, cond, indirect, memory, deps) -> TraceColumns:
    """Assemble the recorded fields into :class:`TraceColumns`."""
    op_of = np.array([OP_CODES[inst.op_class] for inst in statics],
                     dtype=np.int8)
    pc_of = np.array([inst.pc for inst in statics], dtype=np.int64)
    size_of = np.array([_static_size(inst) for inst in statics],
                       dtype=np.int32)
    index = np.array(entry_of, dtype=np.intp)
    op = op_of[index]
    pc = pc_of[index]

    src_start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(np.array(src_owner, dtype=np.intp),
                          minlength=n), out=src_start[1:])

    taken = op == OP_CODES[OpClass.BRANCH_INDIRECT]
    target = np.where(op == OP_CODES[OpClass.BRANCH_COND], pc + 0x20, 0)
    cond_seq, cond_taken = cond
    taken[cond_seq] = cond_taken
    ind_seq, ind_target = indirect
    target[ind_seq] = ind_target

    address = np.zeros(n, dtype=np.int64)
    addr_src = np.full(n, -1, dtype=np.int64)
    mem_seq, mem_address, mem_addr_src = memory
    address[mem_seq] = mem_address
    addr_src[mem_seq] = mem_addr_src
    size = size_of[index]

    store_distance = np.zeros(n, dtype=np.int32)
    dep_store_seq = np.full(n, -1, dtype=np.int64)
    bypass = np.full(n, BYPASS_CODE_BY_VALUE["none"], dtype=np.int8)
    dep_seq, dep_distance, dep_store, dep_bypass = deps
    store_distance[dep_seq] = dep_distance
    dep_store_seq[dep_seq] = dep_store
    bypass[dep_seq] = dep_bypass

    return TraceColumns.from_arrays(
        op=op, pc=pc, src_start=src_start, src_flat=src_flat,
        taken=taken, target=target, address=address, size=size,
        addr_src=addr_src, store_distance=store_distance,
        dep_store_seq=dep_store_seq, bypass=bypass)


def _static_size(inst: StaticInst) -> int:
    """Access size fixed by a static memory instruction (0 otherwise)."""
    if inst.kind is StaticKind.STORE_PAIR:
        return inst.pair.store_size
    if inst.kind is StaticKind.LOAD_PAIR:
        return inst.pair.load_size
    if inst.kind in (StaticKind.STORE_FILLER, StaticKind.LOAD_STREAM):
        return 8
    return 0


def generate_trace(
    benchmark: str,
    num_uops: int,
    program_seed: int = 0,
    trace_seed: int = 1,
    store_window: int = 114,
    instr_window: int = 512,
) -> ColumnarTrace:
    """Convenience one-call trace generation for a named suite benchmark.

    >>> trace = generate_trace("perlbench1", 10_000)
    >>> any(u.is_load and u.has_dependence for u in trace)
    True
    """
    profile = get_profile(benchmark)
    program = build_program(profile, seed=program_seed)
    generator = TraceGenerator(
        program, seed=trace_seed,
        store_window=store_window, instr_window=instr_window,
    )
    return generator.generate(num_uops)
