"""The traced repetition: the workload split into layer calls, plus probes.

Spans are recorded here, in the benchmark's own code, around calls into
each layer's public functions; nothing inside the program is
instrumented.  Two kinds of span exist:

* ``path`` spans reproduce the workload itself, one layer call at a
  time, inline.  Their sum is compared with the untraced wall time to
  state how much of it the layers account for (``bench.residual_pct``),
  and their results must equal the untraced repetition's results.
* ``probe`` spans call a layer the workload does not reach through this
  decomposition (the other timing engine, the branch predictor and
  memory hierarchy on their own, ...) on the workload's own traces, so
  that every per-layer metric is measured on every workload.

Spans are kept in memory and returned at the end with the metrics.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List

import workloads as wl
from repro.branch.tage import TAGEBranchPredictor
from repro.core.config import GOLDEN_COVE
from repro.experiments.parallel import execute_cells
from repro.experiments.result_cache import ResultCache, cell_key
from repro.experiments.runner import (default_cache, run_prediction_only,
                                      run_timing)
from repro.experiments.suite import make_predictor
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.warmup import WarmupIndex, memory_access_stream
from repro.sampling.reconstruct import run_sampled_timing
from repro.sampling.select import select_regions
from repro.trace.columns import TraceColumns
from repro.trace.generator import generate_trace
from repro.trace.uop import OpClass

ENGINES = ("scalar", "batched")
_PAGE_MIB = os.sysconf("SC_PAGE_SIZE") / 2**20


class Spans:
    """In-memory span recorder: name, start, end, parent, run id."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.records: List[Dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, kind: str, **attrs):
        record = {"id": len(self.records), "run": self.run_id,
                  "parent": self._stack[-1] if self._stack else None,
                  "name": name, "kind": kind, **attrs,
                  "start": time.perf_counter(), "end": None}
        self.records.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def seconds(self, name: str) -> float:
        return sum(r["end"] - r["start"] for r in self.records
                   if r["name"] == name)

    def has(self, name: str, kind: str) -> bool:
        return any(r["name"] == name and r["kind"] == kind
                   for r in self.records)


def clear_memos() -> None:
    """Forget generated traces and columns, as a fresh interpreter would."""
    default_cache().clear()
    TraceColumns.clear_memo()


def _resident_mib() -> float:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * _PAGE_MIB


class _Layers:
    """Per-layer counters the spans alone do not carry."""

    def __init__(self) -> None:
        self.generated_uops = 0
        self.resident_mib = 0.0
        self.timed_uops = {engine: 0 for engine in ENGINES}
        self.l1d_hits = 0
        self.l1d_accesses = 0
        self.sampled_uops = 0
        self.sampled_trace_uops = 0
        self.ipc_errors: List[float] = []
        self.ci_relatives: List[float] = []


def _generate(spans: Spans, layers: _Layers, bench: str, uops: int,
              seed: int, **windows):
    before = _resident_mib()
    with spans.span("trace.generate", "path", benchmark=bench):
        trace = generate_trace(bench, uops, trace_seed=seed, **windows)
    layers.resident_mib += _resident_mib() - before
    layers.generated_uops += len(trace)
    return trace


def _path_grid(spans: Spans, layers: _Layers, seed: int, cells,
               cache: ResultCache) -> Dict[str, object]:
    """fig7/fig8 inline: generate each trace, run each cell, store it."""
    with spans.span("experiments.cell_keys", "path"):
        keys = [cell_key(spec) for spec in cells]
    traces = {}
    results = []
    for spec, key in zip(cells, keys):
        trace = traces.get(spec.benchmark)
        if trace is None:
            trace = traces[spec.benchmark] = _generate(
                spans, layers, spec.benchmark, spec.num_uops, seed,
                store_window=spec.store_window,
                instr_window=spec.instr_window)
        if spec.mode == "timing":
            with spans.span(f"core.timing.{spec.engine}", "path",
                            predictor=spec.predictor):
                result = run_timing(trace, make_predictor(spec.predictor),
                                    config=spec.config, engine=spec.engine)
            layers.timed_uops[spec.engine] += len(trace)
        else:
            with spans.span(f"predictors.prediction_only.{spec.predictor}",
                            "path"):
                result = run_prediction_only(
                    trace, make_predictor(spec.predictor),
                    warmup=spec.warmup)
        with spans.span("experiments.cache_store", "path"):
            cache.store(key, result)
        results.append(result)
    return {"results": results, "traces": list(traces.values())}


def _probe_trace(spans: Spans, layers: _Layers, trace) -> None:
    """Every layer not already timed on the path, on one workload trace."""
    config = GOLDEN_COVE
    with spans.span("trace.columns", "probe"):
        TraceColumns.ensure(trace)

    for engine in ENGINES:
        if spans.has(f"core.timing.{engine}", "path"):
            continue
        for name in wl.FIG7_PREDICTORS:
            with spans.span(f"core.timing.{engine}", "probe",
                            predictor=name):
                stats = run_timing(trace, make_predictor(name),
                                   config=config, engine=engine)
            layers.timed_uops[engine] += len(trace)
            if name == wl.SAMPLING_PREDICTOR:
                full_ipc = stats.ipc  # both engines are bit-identical

    branch = TAGEBranchPredictor()
    with spans.span("branch.tage_replay", "probe"):
        for uop in trace:
            if uop.op is OpClass.BRANCH_COND:
                branch.predict_and_train(uop.pc, uop.taken)
            elif uop.op is OpClass.BRANCH_INDIRECT:
                branch.observe_indirect(uop.pc, uop.target)

    hierarchy = MemoryHierarchy(config.memory)
    with spans.span("memory.replay", "probe"):
        positions, addresses = memory_access_stream(trace)
        for position, address in zip(positions.tolist(), addresses.tolist()):
            uop = trace[position]
            if uop.is_load:
                hierarchy.load_latency(uop.pc, address)
            else:
                hierarchy.store_probe(address)
    layers.l1d_hits += hierarchy.l1d.stats.hits
    layers.l1d_accesses += hierarchy.l1d.stats.accesses

    for name in wl.FIG8_PREDICTORS:
        span = f"predictors.prediction_only.{name}"
        if spans.has(span, "path"):
            continue
        with spans.span(span, "probe"):
            run_prediction_only(trace, make_predictor(name),
                                warmup=len(trace) // 4)

    policy = wl.SAMPLING_POLICY
    with spans.span("sampling.select", "probe"):
        selection = select_regions(trace, policy)
    with spans.span("sampling.replay", "probe"):
        sampled = run_sampled_timing(
            trace, lambda: make_predictor(wl.SAMPLING_PREDICTOR), policy,
            config=config, engine=wl.SAMPLING_ENGINE, selection=selection)
    layers.sampled_uops += sampled.simulated_uops
    layers.sampled_trace_uops += len(trace)
    estimate = sampled.stats.ipc
    low, high = sampled.ipc_ci
    layers.ipc_errors.append(100.0 * abs(estimate - full_ipc) / full_ipc)
    layers.ci_relatives.append(100.0 * (high - low) / 2.0 / estimate)

    # Functional cache warmup at each selected region, as replay does it.
    with spans.span("memory.warmup_index", "probe"):
        index = WarmupIndex.from_trace(trace, config.memory.line_size)
    for region in selection.regions:
        start = max(0, region.start
                    - policy.warmup_intervals * policy.interval_length)
        with spans.span("memory.warm", "probe"):
            index.warm(MemoryHierarchy(config.memory), start)


def _probe_cache(spans: Spans, cells, results, directory: Path,
                 jobs: int) -> None:
    """Per-entry loads of what the path stored, then a warm rerun."""
    cache = ResultCache(directory)
    for key in (cell_key(spec) for spec in cells):
        with spans.span("experiments.cache_load", "probe"):
            if cache.load(key) is None:
                raise RuntimeError(f"cache entry {key} did not load back")
    warm = ResultCache(directory)
    with spans.span("experiments.warm_rerun", "probe"):
        rerun = execute_cells(cells, jobs=jobs, cache=warm)
    if warm.hits != len(cells) or wl.encode(rerun) != wl.encode(results):
        raise RuntimeError("warm rerun did not serve every cell from cache")


def traced_rep(workload: str, seed: int, work: Path) -> Dict[str, object]:
    """Run the traced repetition; returns spans, results and layer values."""
    spans = Spans(run_id=f"{workload}-{seed}-{os.getpid()}")
    layers = _Layers()
    cells = wl.cells_for(workload, seed)
    cache_dir = work / "traced-cache"
    with spans.span("workload", "path"):
        grid = _path_grid(spans, layers, seed, cells, ResultCache(cache_dir))
    path_seconds = spans.records[0]["end"] - spans.records[0]["start"]

    for trace in grid["traces"]:
        _probe_trace(spans, layers, trace)
    _probe_cache(spans, cells, grid["results"], cache_dir,
                 wl.jobs_for(workload))

    layer_path = sum(r["end"] - r["start"] for r in spans.records
                     if r["parent"] == 0 and r["kind"] == "path")
    return {
        "encoded": wl.encode(grid["results"]),
        "path_seconds": path_seconds,
        "layer_path_seconds": layer_path,
        "metrics": _metrics(spans, layers),
        "spans": spans.records,
    }


def _rate(uops: int, seconds: float) -> float:
    return uops / 1000.0 / seconds if seconds > 0 else 0.0


def _metrics(spans: Spans, layers: _Layers) -> Dict[str, float]:
    s = spans.seconds
    generate = s("trace.generate")
    metrics = {
        "trace.generate_s": generate,
        "trace.generate_kuops_per_s": _rate(layers.generated_uops, generate),
        "trace.resident_mib": layers.resident_mib,
        "trace.columns_s": s("trace.columns"),
        "branch.tage_replay_s": s("branch.tage_replay"),
        "memory.replay_s": s("memory.replay"),
        "memory.l1d_hit_ratio": layers.l1d_hits / max(layers.l1d_accesses, 1),
        "memory.warmup_index_s": s("memory.warmup_index"),
        "memory.warm_s": s("memory.warm"),
        "sampling.select_s": s("sampling.select"),
        "sampling.replay_s": s("sampling.replay"),
        "sampling.replay_kuops_per_s": _rate(layers.sampled_uops,
                                             s("sampling.replay")),
        "sampling.simulated_share": (layers.sampled_uops
                                     / max(layers.sampled_trace_uops, 1)),
        "sampling.ipc_error_pct": (sum(layers.ipc_errors)
                                   / len(layers.ipc_errors)),
        "sampling.ipc_ci_rel_pct": (sum(layers.ci_relatives)
                                    / len(layers.ci_relatives)),
        "experiments.cache_store_s": s("experiments.cache_store"),
        "experiments.cache_load_s": s("experiments.cache_load"),
        "experiments.warm_rerun_s": s("experiments.warm_rerun"),
    }
    for engine in ENGINES:
        seconds = s(f"core.timing.{engine}")
        metrics[f"core.timing_s.{engine}"] = seconds
        metrics[f"core.timing_kuops_per_s.{engine}"] = _rate(
            layers.timed_uops[engine], seconds)
    for name in wl.FIG8_PREDICTORS:
        metrics[f"predictors.prediction_only_s.{name}"] = s(
            f"predictors.prediction_only.{name}")
    return metrics
