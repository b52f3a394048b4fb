"""Tests for overlap classification and the dependence tracker."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.trace.dependence import DependenceTracker, classify_overlap
from repro.trace.uop import BypassClass


class TestClassifyOverlap:
    """Fig. 1's taxonomy, case by case."""

    def test_direct_bypass(self):
        assert classify_overlap(0x100, 8, 0x100, 8) is BypassClass.DIRECT

    def test_no_offset_truncation(self):
        assert classify_overlap(0x100, 8, 0x100, 4) is BypassClass.NO_OFFSET

    def test_offset_contained(self):
        assert classify_overlap(0x100, 8, 0x104, 4) is BypassClass.OFFSET

    def test_partial_overlap_is_mdp_only(self):
        # Load extends past the end of the store.
        assert classify_overlap(0x100, 8, 0x106, 4) is BypassClass.MDP_ONLY

    def test_load_starts_before_store(self):
        assert classify_overlap(0x100, 8, 0x0FC, 8) is BypassClass.MDP_ONLY

    def test_load_larger_than_store_same_address(self):
        assert classify_overlap(0x100, 4, 0x100, 8) is BypassClass.MDP_ONLY

    def test_adjacent_no_overlap(self):
        assert classify_overlap(0x100, 8, 0x108, 8) is BypassClass.NONE
        assert classify_overlap(0x108, 8, 0x100, 8) is BypassClass.NONE

    def test_disjoint(self):
        assert classify_overlap(0x100, 8, 0x500, 8) is BypassClass.NONE

    def test_single_byte_overlap_counts(self):
        # "a dependence arises when the accesses overlap (even a single byte)"
        assert classify_overlap(0x100, 8, 0x107, 8) is BypassClass.MDP_ONLY

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            classify_overlap(0x100, 0, 0x100, 8)
        with pytest.raises(ValueError):
            classify_overlap(0x100, 8, 0x100, -1)

    @given(st.integers(min_value=0, max_value=1 << 20),
           st.integers(min_value=1, max_value=64),
           st.integers(min_value=0, max_value=1 << 20),
           st.integers(min_value=1, max_value=64))
    @settings(max_examples=200)
    def test_property_consistent_with_byte_sets(self, sa, ss, la, ls):
        store_bytes = set(range(sa, sa + ss))
        load_bytes = set(range(la, la + ls))
        cls = classify_overlap(sa, ss, la, ls)
        overlap = bool(store_bytes & load_bytes)
        assert cls.is_dependence == overlap
        if cls.is_bypassable:
            assert load_bytes <= store_bytes
        if overlap and not load_bytes <= store_bytes:
            assert cls is BypassClass.MDP_ONLY


class TestDependenceTracker:
    def test_no_stores_no_dependence(self):
        t = DependenceTracker()
        distance, store, cls = t.find_dependence(0x100, 8, load_seq=5)
        assert (distance, store, cls) == (0, None, BypassClass.NONE)

    def test_immediate_dependence_distance_one(self):
        t = DependenceTracker()
        t.record_raw_store(seq=0, address=0x100, size=8)
        distance, store, cls = t.find_dependence(0x100, 8, load_seq=1)
        assert distance == 1
        assert store.seq == 0
        assert cls is BypassClass.DIRECT

    def test_distance_counts_intervening_stores(self):
        t = DependenceTracker()
        t.record_raw_store(0, 0x100, 8)
        t.record_raw_store(1, 0x200, 8)
        t.record_raw_store(2, 0x300, 8)
        distance, store, _ = t.find_dependence(0x100, 8, load_seq=3)
        assert distance == 3
        assert store.seq == 0

    def test_youngest_overlapping_store_wins(self):
        t = DependenceTracker()
        t.record_raw_store(0, 0x100, 8)
        t.record_raw_store(1, 0x100, 8)
        distance, store, _ = t.find_dependence(0x100, 8, load_seq=2)
        assert store.seq == 1
        assert distance == 1

    def test_store_window_eviction(self):
        t = DependenceTracker(window=2)
        t.record_raw_store(0, 0x100, 8)
        t.record_raw_store(1, 0x200, 8)
        t.record_raw_store(2, 0x300, 8)
        # The store to 0x100 fell out of the 2-entry window.
        distance, store, cls = t.find_dependence(0x100, 8, load_seq=3)
        assert (distance, store, cls) == (0, None, BypassClass.NONE)

    def test_instruction_window_bound(self):
        t = DependenceTracker(window=100, instr_window=10)
        t.record_raw_store(0, 0x100, 8)
        # Within the instruction window: found.
        assert t.find_dependence(0x100, 8, load_seq=5)[0] == 1
        # Beyond it: the store has drained.
        assert t.find_dependence(0x100, 8, load_seq=50)[0] == 0

    def test_partial_overlap_classified(self):
        t = DependenceTracker()
        t.record_raw_store(0, 0x100, 8)
        _, _, cls = t.find_dependence(0x106, 4, load_seq=1)
        assert cls is BypassClass.MDP_ONLY

    def test_reset(self):
        t = DependenceTracker()
        t.record_raw_store(0, 0x100, 8)
        t.reset()
        assert t.store_count == 0
        assert t.find_dependence(0x100, 8, load_seq=1)[0] == 0

    def test_invalid_windows(self):
        with pytest.raises(ValueError):
            DependenceTracker(window=0)
        with pytest.raises(ValueError):
            DependenceTracker(instr_window=0)

    def test_store_count_monotonic(self):
        t = DependenceTracker(window=4)
        for i in range(10):
            t.record_raw_store(i, 0x100 + 16 * i, 8)
        assert t.store_count == 10

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=63),
                              st.sampled_from([4, 8])),
                    min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_property_distance_matches_naive_scan(self, stores):
        """Tracker agrees with a brute-force youngest-overlap scan."""
        window = 16
        t = DependenceTracker(window=window, instr_window=10_000)
        log = []
        for i, (slot, size) in enumerate(stores):
            addr = 0x1000 + slot * 8
            t.record_raw_store(i, addr, size)
            log.append((i, addr, size))
        load_addr, load_size = 0x1000 + stores[-1][0] * 8, 8
        distance, store, _ = t.find_dependence(load_addr, load_size,
                                               load_seq=len(stores))
        # Brute force over the window.
        expected = None
        for rank, (seq, addr, size) in enumerate(reversed(log[-window:])):
            if addr < load_addr + load_size and load_addr < addr + size:
                expected = (rank + 1, seq)
                break
        if expected is None:
            assert distance == 0
        else:
            assert (distance, store.seq) == expected


class LinearScanTracker:
    """Reference tracker: a reverse linear scan of the store window.

    The straightforward implementation the chunk-indexed
    :class:`DependenceTracker` must agree with exactly.
    """

    def __init__(self, window, instr_window):
        self.window = window
        self.instr_window = instr_window
        self.stores = []  # (seq, store number, address, size), oldest first
        self.count = 0

    def record(self, seq, address, size):
        self.stores.append((seq, self.count, address, size))
        self.count += 1
        del self.stores[:-self.window]

    def find(self, load_addr, load_size, load_seq):
        for seq, number, address, size in reversed(self.stores):
            if load_seq - seq > self.instr_window:
                break
            cls = classify_overlap(address, size, load_addr, load_size)
            if cls is not BypassClass.NONE:
                return self.count - number, seq, cls
        return 0, None, BypassClass.NONE


class TestChunkIndex:
    """Cases that exercise the 8-byte address-chunk index."""

    def test_store_spanning_two_chunks(self):
        t = DependenceTracker()
        t.record_raw_store(0, 0x104, 8)  # bytes 0x104-0x10b: chunks 0x20, 0x21
        distance, store, cls = t.find_dependence(0x108, 4, load_seq=1)
        assert (distance, store.seq, cls) == (1, 0, BypassClass.OFFSET)
        distance, store, cls = t.find_dependence(0x104, 4, load_seq=1)
        assert (distance, store.seq, cls) == (1, 0, BypassClass.NO_OFFSET)
        # Same first chunk, but no shared byte.
        assert t.find_dependence(0x100, 4, load_seq=1) == (
            0, None, BypassClass.NONE)

    def test_load_spanning_two_chunks(self):
        t = DependenceTracker()
        t.record_raw_store(0, 0x108, 4)  # second chunk of the load only
        distance, store, cls = t.find_dependence(0x104, 8, load_seq=1)
        assert (distance, store.seq, cls) == (1, 0, BypassClass.MDP_ONLY)

    def test_store_left_window_but_still_listed(self):
        t = DependenceTracker(window=2)
        t.record_raw_store(0, 0x100, 8)
        t.record_raw_store(1, 0x200, 8)
        t.record_raw_store(2, 0x300, 8)
        # Fewer stores than a sweep period: the evicted store is still
        # listed under its chunk, and the lookup must skip it.
        assert t.store_count < t.sweep_period
        assert [r.seq for r in t._chunks[0x100 >> 3]] == [0]
        assert t.find_dependence(0x100, 8, load_seq=3) == (
            0, None, BypassClass.NONE)
        assert not t._chunks[0x100 >> 3]  # pruned by the lookup

    def test_sweep_drops_evicted_stores(self):
        t = DependenceTracker(window=2)
        for seq in range(t.sweep_period):
            t.record_raw_store(seq, 0x1000 + 16 * seq, 8)
        listed = [r.seq for bucket in t._chunks.values() for r in bucket]
        assert sorted(listed) == [t.sweep_period - 2, t.sweep_period - 1]

    def test_instruction_window_cutoff(self):
        t = DependenceTracker(window=100, instr_window=10)
        t.record_raw_store(0, 0x100, 8)
        t.record_raw_store(20, 0x200, 8)
        # Exactly instr_window micro-ops back still counts as in flight.
        assert t.find_dependence(0x200, 8, load_seq=30)[0] == 1
        assert t.find_dependence(0x200, 8, load_seq=31)[0] == 0
        # An older overlapping store beyond the cutoff is never reached.
        assert t.find_dependence(0x100, 8, load_seq=25)[0] == 0

    @pytest.mark.parametrize("younger_first_chunk", [True, False])
    def test_youngest_overlap_across_chunks(self, younger_first_chunk):
        """Two chunks of one load hold different stores: the youngest
        wins, whichever chunk the lookup visits first."""
        t = DependenceTracker()
        low, high = (0x108, 0x100) if younger_first_chunk else (0x100, 0x108)
        t.record_raw_store(0, low, 8)
        t.record_raw_store(1, high, 8)
        distance, store, cls = t.find_dependence(0x104, 8, load_seq=2)
        assert (distance, store.seq) == (1, 1)
        assert cls is BypassClass.MDP_ONLY

    def test_rejects_non_positive_sizes(self):
        t = DependenceTracker()
        with pytest.raises(ValueError):
            t.record_raw_store(0, 0x100, 0)
        with pytest.raises(ValueError):
            t.find_dependence(0x100, 0, load_seq=1)

    @given(
        window=st.integers(min_value=1, max_value=24),
        instr_window=st.integers(min_value=1, max_value=80),
        events=st.lists(
            st.tuples(st.booleans(),                       # is a store
                      st.integers(min_value=0, max_value=31),   # slot
                      st.integers(min_value=0, max_value=7),    # offset
                      st.sampled_from([1, 2, 4, 8, 16]),        # size
                      st.integers(min_value=1, max_value=4)),   # seq gap
            min_size=1, max_size=200),
    )
    @settings(max_examples=300, deadline=None)
    def test_property_matches_linear_scan(self, window, instr_window,
                                          events):
        """Differential: the indexed tracker agrees with a reverse linear
        scan of the window on every load of a random access stream."""
        indexed = DependenceTracker(window=window, instr_window=instr_window)
        reference = LinearScanTracker(window, instr_window)
        seq = 0
        for is_store, slot, offset, size, gap in events:
            seq += gap
            address = 0x1000 + 8 * slot + offset
            if is_store:
                indexed.record_raw_store(seq, address, size)
                reference.record(seq, address, size)
                continue
            distance, store, cls = indexed.find_dependence(address, size, seq)
            got = (distance, store.seq if store is not None else None, cls)
            assert got == reference.find(address, size, seq)
