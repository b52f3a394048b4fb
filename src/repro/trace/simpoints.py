"""SimPoint-style interval selection for long traces.

The paper evaluates on "SimPoint intervals of 100 M instructions following
the guidelines of Gottschall et al." — representative slices chosen by
clustering interval fingerprints, so a few intervals stand in for a whole
benchmark.  This module implements the same pipeline for our synthetic
traces:

1. split the trace into fixed-length intervals;
2. fingerprint each interval with its **basic-block vector** (per-PC
   execution frequencies, the classic SimPoint feature);
3. cluster the vectors with k-means (k-means++ seeding, Lloyd iterations);
4. pick each cluster's medoid interval as its SimPoint, weighted by the
   cluster's share of the trace.

``estimate_weighted`` then reconstructs a whole-trace metric from per-
SimPoint measurements — useful when sweeping many predictors over traces
long enough that full simulation is wasteful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .uop import MicroOp

__all__ = [
    "Interval",
    "SimPoint",
    "split_intervals",
    "basic_block_vectors",
    "kmeans_labels",
    "select_simpoints",
    "rebase_interval",
    "estimate_weighted",
]


@dataclass(frozen=True)
class Interval:
    """One fixed-length slice of a trace."""

    index: int
    start: int  # first uop seq (inclusive)
    end: int    # last uop seq (exclusive)


@dataclass(frozen=True)
class SimPoint:
    """A representative interval and the trace share it stands for."""

    interval: Interval
    weight: float
    cluster_size: int


def split_intervals(trace: Sequence[MicroOp],
                    interval_length: int) -> List[Interval]:
    """Partition the trace into full intervals (a short tail is dropped,
    as SimPoint does)."""
    if interval_length <= 0:
        raise ValueError("interval length must be positive")
    count = len(trace) // interval_length
    return [
        Interval(index=i, start=i * interval_length,
                 end=(i + 1) * interval_length)
        for i in range(count)
    ]


def basic_block_vectors(trace: Sequence[MicroOp],
                        intervals: Sequence[Interval]) -> np.ndarray:
    """L1-normalised per-PC frequency vectors, one row per interval."""
    if not intervals:
        raise ValueError("no intervals to fingerprint")
    pc_index: Dict[int, int] = {}
    for uop in trace:
        if uop.pc not in pc_index:
            pc_index[uop.pc] = len(pc_index)
    vectors = np.zeros((len(intervals), len(pc_index)), dtype=np.float64)
    for interval in intervals:
        for uop in trace[interval.start:interval.end]:
            vectors[interval.index, pc_index[uop.pc]] += 1.0
    sums = vectors.sum(axis=1, keepdims=True)
    sums[sums == 0.0] = 1.0
    return vectors / sums


def _reseed_empty_clusters(vectors: np.ndarray, centers: np.ndarray,
                           labels: np.ndarray, k: int) -> np.ndarray:
    """Give every empty cluster a fresh centroid; returns updated labels.

    A cluster that empties during Lloyd iterations would otherwise keep a
    stale centroid — and, worse, ``select_simpoints`` would silently
    return fewer than k representatives.  Each empty cluster is re-seeded
    on the point farthest from its current centroid (the classic
    farthest-point repair), which is deterministic: ``argmax`` breaks
    ties on the lowest index.  As long as the data has at least k
    distinct rows, some assigned point sits strictly away from its
    centroid, so the repair always finds a non-degenerate seed.
    """
    for j in range(k):
        if np.any(labels == j):
            continue
        distances = ((vectors - centers[labels]) ** 2).sum(axis=1)
        farthest = int(np.argmax(distances))
        if distances[farthest] <= 0.0:
            continue  # fewer than k distinct points: nothing to steal
        centers[j] = vectors[farthest]
        labels[farthest] = j
    return labels


def kmeans_labels(vectors: np.ndarray, k: int, seed: int,
                  iterations: int = 50) -> np.ndarray:
    """Lloyd's k-means with k-means++ seeding; returns labels.

    Deterministic for a given ``(vectors, k, seed)``; empty clusters are
    re-seeded from the farthest point (see
    :func:`_reseed_empty_clusters`), so with at least k distinct rows
    every one of the k labels survives to the result.
    """
    rng = np.random.default_rng(seed)
    n = vectors.shape[0]
    # k-means++ seeding.
    centroids = [vectors[rng.integers(n)]]
    for _ in range(1, k):
        distances = np.min(
            [np.sum((vectors - c) ** 2, axis=1) for c in centroids], axis=0
        )
        total = distances.sum()
        if total <= 0:
            centroids.append(vectors[rng.integers(n)])
            continue
        centroids.append(vectors[rng.choice(n, p=distances / total)])
    centers = np.array(centroids)

    labels = np.zeros(n, dtype=np.int64)
    for _ in range(iterations):
        distances = ((vectors[:, None, :] - centers[None, :, :]) ** 2).sum(
            axis=2
        )
        new_labels = distances.argmin(axis=1)
        new_labels = _reseed_empty_clusters(vectors, centers, new_labels, k)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            members = vectors[labels == j]
            if len(members):
                centers[j] = members.mean(axis=0)
    return labels


#: Backwards-compatible alias (the fixed implementation).
_kmeans = kmeans_labels


def select_simpoints(
    trace: Sequence[MicroOp],
    interval_length: int,
    max_k: int = 6,
    seed: int = 0,
) -> List[SimPoint]:
    """Choose representative intervals covering the trace's phases.

    ``k`` is min(max_k, number of intervals); each cluster contributes its
    medoid (the member closest to the centroid) weighted by cluster share.
    Weights sum to 1 over the returned SimPoints.
    """
    intervals = split_intervals(trace, interval_length)
    if not intervals:
        raise ValueError(
            f"trace of {len(trace)} uops yields no {interval_length}-uop "
            "intervals"
        )
    vectors = basic_block_vectors(trace, intervals)
    k = min(max_k, len(intervals))
    labels = kmeans_labels(vectors, k, seed)

    simpoints: List[SimPoint] = []
    for j in range(k):
        member_ids = np.flatnonzero(labels == j)
        if len(member_ids) == 0:
            continue
        members = vectors[member_ids]
        centroid = members.mean(axis=0)
        medoid_pos = int(
            np.argmin(((members - centroid) ** 2).sum(axis=1))
        )
        interval = intervals[int(member_ids[medoid_pos])]
        simpoints.append(SimPoint(
            interval=interval,
            weight=len(member_ids) / len(intervals),
            cluster_size=len(member_ids),
        ))
    simpoints.sort(key=lambda s: s.interval.index)
    return simpoints


def rebase_interval(trace: Sequence[MicroOp],
                    interval: Interval,
                    offset: int = 0) -> List[MicroOp]:
    """Extract an interval as a standalone trace.

    Sequence numbers are renumbered from ``offset`` (0 by default) and all
    dataflow / dependence references to micro-ops before the interval are
    dropped — exactly the state a simulation warmed only within the slice
    would observe (values from before the slice are architectural state,
    not in-flight producers).  A non-zero ``offset`` places the slice
    after ``offset`` other micro-ops, so rebased slices can be stitched
    into one replay trace (e.g. a shared warmup prefix followed by a
    sampled region); in-slice references stay in-slice — they never reach
    into whatever precedes the offset.
    """
    from .uop import BypassClass

    if offset < 0:
        raise ValueError("offset must be non-negative")
    if interval.end > len(trace):
        raise IndexError(f"interval ends at {interval.end}, past the "
                         f"{len(trace)}-uop trace")
    start = interval.start
    delta = offset - start
    out: List[MicroOp] = []
    for uop in trace[interval.start:interval.end]:
        srcs = tuple(s + delta for s in uop.srcs if s >= start)
        addr_src = (
            uop.addr_src + delta
            if uop.addr_src is not None and uop.addr_src >= start else None
        )
        in_slice_dep = (
            uop.dep_store_seq is not None and uop.dep_store_seq >= start
        )
        out.append(MicroOp(
            seq=uop.seq + delta,
            pc=uop.pc,
            op=uop.op,
            srcs=srcs,
            addr_src=addr_src,
            taken=uop.taken,
            target=uop.target,
            address=uop.address,
            size=uop.size,
            store_distance=uop.store_distance if in_slice_dep else 0,
            dep_store_seq=(uop.dep_store_seq + delta) if in_slice_dep
            else None,
            bypass=uop.bypass if in_slice_dep else BypassClass.NONE,
        ))
    return out


def estimate_weighted(
    trace: Sequence[MicroOp],
    simpoints: Sequence[SimPoint],
    metric: Callable[[Sequence[MicroOp], int], float],
    warmup_intervals: int = 1,
) -> float:
    """Weighted-average a per-slice metric over the SimPoints.

    Each representative interval is re-based into a standalone trace (see
    :func:`rebase_interval`), preceded by up to ``warmup_intervals`` of the
    trace immediately before it.  ``metric(piece, measure_from)`` receives
    the combined slice and the index where measurement should begin —
    :meth:`repro.core.Pipeline.run` accepts exactly this pair, implementing
    the warmed-measurement discipline of SimPoint methodology (cold caches
    and predictors would otherwise bias every slice downward).
    """
    if not simpoints:
        raise ValueError("no simpoints")
    if warmup_intervals < 0:
        raise ValueError("warmup_intervals must be non-negative")
    total_weight = sum(s.weight for s in simpoints)
    if total_weight <= 0:
        raise ValueError("simpoint weights must be positive")
    acc = 0.0
    for simpoint in simpoints:
        interval = simpoint.interval
        length = interval.end - interval.start
        warmup = min(warmup_intervals * length, interval.start)
        extended = Interval(index=interval.index,
                            start=interval.start - warmup,
                            end=interval.end)
        piece = rebase_interval(trace, extended)
        acc += simpoint.weight * metric(piece, warmup)
    return acc / total_weight
