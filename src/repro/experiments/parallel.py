"""Parallel suite execution: shard cells across processes, merge in order.

The evaluation grids (Figs. 7–15) are embarrassingly parallel: every
``(benchmark, predictor, config)`` cell is an independent, deterministic
simulation.  This module is the single execution engine behind
:func:`repro.experiments.suite.run_ipc_suite`,
:func:`~repro.experiments.suite.run_accuracy_suite` and the figure
generators:

* **Sharding** — each cell becomes one :class:`CellSpec` task submitted to
  an :class:`~repro.experiments.backends.ExecutorBackend` (``jobs > 1``)
  or computed inline (``jobs == 1``; the default, and always used for a
  single pending cell unless a timeout demands pool supervision).  The
  default backend is the local process pool
  (:class:`~repro.experiments.backends.LocalPoolBackend`);
  ``backend="host:port,..."`` instead dispatches cells to ``repro
  worker`` processes on other hosts over a leased, heartbeat-monitored
  TCP protocol (:class:`~repro.experiments.backends.WorkerBackend`).
* **Determinism** — results are merged positionally, keyed by the cell's
  position in the request, never by completion order.  Every cell builds a
  fresh predictor and regenerates its trace from fixed seeds, so the
  ``jobs=N`` grid is bit-identical to the serial one.
* **Fault tolerance** — a :class:`~repro.experiments.resilience.ResiliencePolicy`
  adds per-cell wall-clock timeouts (enforced via future deadlines),
  bounded retries with key-derived backoff jitter, recovery from worker
  death (``BrokenProcessPool`` → pool rebuild, with graceful degradation
  to inline serial execution after repeated breakages), and — under
  ``fail_fast=False`` — :class:`~repro.experiments.resilience.CellFailure`
  placeholders merged positionally so callers render partial grids.
* **Trace reuse** — each process keeps its own
  :class:`~repro.experiments.runner.TraceCache`, so a worker that computes
  several cells of the same benchmark generates the trace once.  The
  coordinator generates no trace before dispatch, so every pool worker
  regenerates each trace its cells touch: a ``jobs=2`` grid over three
  benchmarks generates each trace twice (docs/performance.md).
* **Result caching** — an optional on-disk
  :class:`~repro.experiments.result_cache.ResultCache` is consulted before
  any work is dispatched and populated afterwards, so a warm sweep
  performs zero simulations.
* **Journaling / resume** — an optional
  :class:`~repro.experiments.journal.RunJournal` records every dispatch
  and outcome (results included) to an append-only JSONL file;
  ``resume=<run-id>`` restores previously completed cells bit-identically
  and re-dispatches only failed/pending ones.

Worker-loss attribution
-----------------------
When a local pool worker dies, *every* in-flight future observes the same
``BrokenProcessPool`` — the culprit cell cannot be identified from the
wreckage.  The supervisor therefore charges no one: all in-flight cells
become *suspects* and are re-run one at a time in a fresh pool.  A suspect
whose solo run kills its worker is attributed with certainty and charged a
``worker-lost`` attempt (retries permitting); suspects that complete are
cleared.  Only ambiguous (multi-suspect) breakages count toward
``max_pool_rebuilds``; past that, the run degrades to inline serial
execution with a ``RuntimeWarning`` instead of aborting.

The distributed backend needs none of this: one TCP connection runs one
cell, so a dropped socket or expired lease identifies its cell with
certainty (``backend.attributable``) and costs exactly one requeue,
leaving the other workers' cells untouched
(``backend.isolates_failures``).  Only total capacity loss (every worker
endpoint unreachable) counts toward ``max_pool_rebuilds`` before the same
graceful degradation to inline serial execution.
"""

from __future__ import annotations

import sys
import time
import warnings
from concurrent.futures import CancelledError
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..core.config import CoreConfig
from ..core.engines import DEFAULT_ENGINE, TIMING_ENGINES
from ..obs.metrics import MetricsWriter
from ..predictors.configs import MASCOT_DEFAULT
from ..sampling.policy import SamplingPolicy
from .backends import (
    BackendBrokenError,
    ExecutorBackend,
    LeaseExpiredError,
    LocalPoolBackend,
    ResultCorruptError,
    WorkerBackend,
    WorkerLostError,
    lease_id,
    parse_endpoints,
)
from .cache_service import NetworkCacheClient, cache_url_from_env, is_cache_url
from .journal import JournalRun, JournalState, RunJournal
from .resilience import (
    DEFAULT_POLICY,
    CellFailure,
    CellTimeoutError,
    FailureKind,
    ResiliencePolicy,
    backoff_delay,
    cell_label,
    inline_execution,
    maybe_inject_fault,
)
from .result_cache import ResultCache, cell_key
from .runner import default_cache, run_prediction_only, run_timing

__all__ = ["BackendSpec", "CellSpec", "CacheSpec", "JournalSpec",
           "MetricsSpec", "ResumeSpec", "SettleCallback", "compute_cell",
           "execute_cells", "resolve_backend", "resolve_cache",
           "resolve_journal", "resolve_metrics"]

#: Accepted forms of the ``cache=`` parameter threaded through the suite
#: and figure APIs: ``None``/``False`` disable the disk cache, ``True``
#: selects the default directory ($REPRO_CACHE_DIR or ~/.cache/repro-mascot)
#: — or, when $REPRO_CACHE_URL is set, the cache server it names — a
#: ``tcp://host:port`` URL selects a ``repro cache-serve`` server
#: (:class:`~repro.experiments.cache_service.NetworkCacheClient`), a path
#: selects a local directory, and a ResultCache / NetworkCacheClient
#: instance is used as given.
CacheSpec = Union[None, bool, str, Path, ResultCache, NetworkCacheClient]

#: Per-cell settle callback for streaming consumers (``repro serve``):
#: called once per cell, in settle order (not positional order!), with
#: ``(position, spec, key, outcome, source)`` where ``outcome`` is the
#: result or a CellFailure and ``source`` is "journal" / "cache" /
#: "computed".  Never called for a cell whose failure propagates under
#: ``fail_fast``.
SettleCallback = Callable[[int, "CellSpec", Optional[str], object, str], None]

#: Accepted forms of the ``journal=`` parameter: ``None``/``False`` disable
#: journaling, ``True`` selects the default directory ($REPRO_JOURNAL_DIR
#: or <cache-dir>/journals), a path selects that directory, and a
#: RunJournal is used as given.
JournalSpec = Union[None, bool, str, Path, RunJournal]

#: Accepted forms of the ``resume=`` parameter: a run id, several run ids
#: (later ones win on conflicts), or a pre-loaded JournalState.
ResumeSpec = Union[None, str, Sequence[str], JournalState]

#: Accepted forms of the ``metrics=`` parameter: ``None`` disables metric
#: emission, a path appends JSONL records to that file, and a
#: MetricsWriter is used as given (and left open for the caller to close).
MetricsSpec = Union[None, str, Path, MetricsWriter]

#: Accepted forms of the ``backend=`` parameter: ``None``/``"local"``
#: keep the historical local process pool, a ``"host:port[,host:port]"``
#: string dispatches to ``repro worker`` endpoints, and an
#: ExecutorBackend instance is driven as given (and left open for the
#: caller to close).
BackendSpec = Union[None, str, ExecutorBackend]

#: Supervisor poll interval in seconds: the granularity of timeout
#: enforcement and retry re-dispatch.
_TICK = 0.05


@dataclass(frozen=True)
class CellSpec:
    """One schedulable unit of suite work.

    Frozen and built only from picklable value types so it can cross a
    process boundary and be content-addressed for the on-disk cache.
    """

    #: ``"timing"`` (full pipeline, returns PipelineStats) or
    #: ``"accuracy"`` (prediction-only replay, returns PredictionRunResult).
    mode: str
    benchmark: str
    num_uops: int
    #: Canonical predictor name from the suite registry.
    predictor: str
    #: Core to simulate; required for timing cells, unused for accuracy.
    config: Optional[CoreConfig] = None
    program_seed: int = 0
    trace_seed: int = 1
    store_window: int = 114
    instr_window: int = 512
    #: Accuracy mode only: micro-ops that train but are not measured.
    warmup: int = 0
    #: Accuracy mode only: F1-recording period in loads (Fig. 14).
    f1_period: Optional[int] = None
    #: Build the predictor with per-entry F1 tracking (MASCOT only).
    track_f1: bool = False
    #: Accuracy mode only: attach a TableTelemetry sink and return its
    #: counters in the result (Fig. 13, ``repro profile``).
    telemetry: bool = False
    #: Which pipeline implementation runs a timing cell (see
    #: :mod:`repro.core.engines`).  Accuracy cells carry it unused: it is
    #: left out of their cache key.
    engine: str = DEFAULT_ENGINE
    #: Sampled simulation: select representative regions under this
    #: policy, simulate only those, and reconstruct full-run metrics with
    #: confidence intervals (see :mod:`repro.sampling`).  None = full run.
    sampling: Optional[SamplingPolicy] = None

    def __post_init__(self) -> None:
        if self.mode not in ("timing", "accuracy"):
            raise ValueError(f"unknown cell mode {self.mode!r}")
        if self.mode == "timing" and self.config is None:
            raise ValueError("timing cells need a core config")
        if self.track_f1 and self.predictor != "mascot":
            raise ValueError("track_f1 is only supported for 'mascot'")
        if self.telemetry and self.mode != "accuracy":
            raise ValueError("telemetry cells must be accuracy mode")
        if self.engine not in TIMING_ENGINES:
            raise ValueError(f"unknown timing engine {self.engine!r}")
        if self.sampling is not None:
            if not isinstance(self.sampling, SamplingPolicy):
                raise ValueError("sampling must be a SamplingPolicy")
            if self.warmup or self.f1_period is not None:
                raise ValueError(
                    "sampling is incompatible with warmup/f1_period: "
                    "sampled warmup is governed by the policy's "
                    "warmup_intervals"
                )
            if self.telemetry or self.track_f1:
                raise ValueError(
                    "sampling cells cannot record telemetry or F1 "
                    "profiles: those describe one contiguous run"
                )
            if self.sampling.interval_length * 2 > self.num_uops:
                raise ValueError(
                    "sampling interval_length too long: the trace must "
                    "contain at least two full regions"
                )


def _build_predictor(spec: CellSpec):
    if spec.track_f1:
        # The registry builds plain predictors; F1 tracking is a
        # construction-time option of the default MASCOT (Fig. 14).
        from ..predictors.mascot import Mascot
        return Mascot(MASCOT_DEFAULT, track_f1=True)
    from .suite import make_predictor  # local import: suite imports us
    return make_predictor(spec.predictor)


def compute_cell(spec: CellSpec):
    """Run one cell to completion; the pure function the pool maps.

    Also the serial path and the spy-point for test instrumentation:
    every non-cached cell, parallel or not, goes through here.  The
    fault-injection hook fires first so tests and the CI fault job can
    make this call fail, crash or hang inside a real worker process.
    """
    maybe_inject_fault(spec)
    trace = default_cache().get(
        spec.benchmark, spec.num_uops,
        program_seed=spec.program_seed, trace_seed=spec.trace_seed,
        store_window=spec.store_window, instr_window=spec.instr_window,
    )
    if spec.sampling is not None:
        def factory():
            return _build_predictor(spec)

        if spec.mode == "timing":
            return run_timing(trace, None, config=spec.config,
                              engine=spec.engine, sampling=spec.sampling,
                              predictor_factory=factory)
        return run_prediction_only(trace, None, sampling=spec.sampling,
                                   predictor_factory=factory)
    predictor = _build_predictor(spec)
    if spec.mode == "timing":
        return run_timing(trace, predictor, config=spec.config,
                          engine=spec.engine)
    return run_prediction_only(trace, predictor,
                               f1_period=spec.f1_period, warmup=spec.warmup,
                               telemetry=spec.telemetry)


def resolve_cache(
    cache: CacheSpec,
) -> Optional[Union[ResultCache, NetworkCacheClient]]:
    """Normalise a ``cache=`` argument to a cache store or None.

    A local cache whose directory is not writable is degraded here, at
    resolve time, to read-only mode with a single ``RuntimeWarning`` —
    never by failing the first ``put`` mid-sweep.  Read-only mode still
    serves hits (a fully warm shared or CI-mounted cache performs zero
    simulations); only stores are skipped.

    A ``tcp://host:port`` URL (or ``cache=True`` with ``$REPRO_CACHE_URL``
    set) selects a ``repro cache-serve`` server instead.  An unreachable
    server gets the same treatment: one warning, and the client degrades
    to serving hits from the read-only *local* cache directory while
    skipping stores.  A server lost later, mid-sweep, is the client's
    business (reconnect with cooldown; failed RPCs are misses).
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        url = cache_url_from_env()
        store = NetworkCacheClient(url) if url else ResultCache()
    elif isinstance(cache, (ResultCache, NetworkCacheClient)):
        store = cache
    elif isinstance(cache, str) and is_cache_url(cache):
        store = NetworkCacheClient(cache)
    else:
        store = ResultCache(cache)
    error = store.probe_writable()
    if error is not None:
        store.read_only = True
        if isinstance(store, NetworkCacheClient):
            warnings.warn(
                f"cache server {store.url} unreachable ({error}); falling "
                f"back to read-only local cache {store.directory} — "
                "serving local hits, skipping stores",
                RuntimeWarning, stacklevel=2)
        else:
            warnings.warn(
                f"result cache read-only: {store.directory} is not "
                f"writable ({error}); serving existing entries, skipping "
                "stores", RuntimeWarning, stacklevel=2)
    return store


def resolve_journal(journal: JournalSpec) -> Optional[RunJournal]:
    """Normalise a ``journal=`` argument to a RunJournal or None."""
    if journal is None or journal is False:
        return None
    if journal is True:
        store = RunJournal()
    elif isinstance(journal, RunJournal):
        store = journal
    else:
        store = RunJournal(journal)
    error = store.probe_writable()
    if error is not None:
        warnings.warn(
            f"run journal disabled: {store.directory} is not writable "
            f"({error})", RuntimeWarning, stacklevel=2)
        return None
    return store


def resolve_metrics(metrics: MetricsSpec):
    """Normalise a ``metrics=`` argument to ``(writer, owned)``.

    ``owned`` is True when this call opened the writer (path form), in
    which case :func:`execute_cells` closes it when the sweep finishes; a
    caller-supplied MetricsWriter stays open so several sweeps can share
    one file.
    """
    if metrics is None or metrics is False:
        return None, False
    if isinstance(metrics, MetricsWriter):
        return metrics, False
    return MetricsWriter(metrics), True


def resolve_backend(backend: BackendSpec, policy: ResiliencePolicy):
    """Normalise a ``backend=`` argument to ``(backend, owned)``.

    ``None``/``"local"`` return ``(None, False)`` — the caller uses the
    historical inline/process-pool paths.  An endpoint string builds a
    :class:`~repro.experiments.backends.WorkerBackend` configured from
    the policy's lease knobs (``owned=True``: :func:`execute_cells`
    closes it); an ExecutorBackend instance is returned as given.
    """
    if backend is None or backend == "local":
        return None, False
    if isinstance(backend, ExecutorBackend):
        return backend, False
    return WorkerBackend(
        parse_endpoints(str(backend)),
        lease_timeout=policy.lease_timeout,
        heartbeat_interval=policy.heartbeat_interval,
    ), True


def _cell_record(spec: CellSpec, key: Optional[str], source: str,
                 attempts: int, duration: float, status: str = "ok",
                 kind: Optional[str] = None,
                 message: Optional[str] = None) -> Dict[str, object]:
    """One per-cell metrics record (JSONL row).

    ``engine`` names the timing engine of a timing cell and is None for
    an accuracy cell, which runs no timing model; ``sampled`` says
    whether the cell ran sampled simulation.
    """
    record: Dict[str, object] = {
        "event": "cell",
        "mode": spec.mode,
        "benchmark": spec.benchmark,
        "predictor": spec.predictor,
        "num_uops": spec.num_uops,
        "core": spec.config.name if spec.config is not None else None,
        "engine": spec.engine if spec.mode == "timing" else None,
        "sampled": spec.sampling is not None,
        "key": key,
        "source": source,
        "attempts": attempts,
        "duration_s": round(duration, 6),
        "status": status,
    }
    if kind is not None:
        record["failure_kind"] = kind
        record["failure_message"] = message
    return record


def _resolve_resume(resume: ResumeSpec,
                    journal_store: Optional[RunJournal],
                    journal: JournalSpec = None) -> Optional[JournalState]:
    """Load the resume state, honouring the journal directory.

    When journaling resolved to a live store, that store's directory is
    authoritative.  Otherwise (journaling disabled, or its directory not
    writable) the directory named by the original ``journal`` spec is
    still used for *loading*, so ``resume`` finds the run it came from.
    """
    if resume is None:
        return None
    if isinstance(resume, JournalState):
        return resume
    run_ids = [resume] if isinstance(resume, str) else list(resume)
    if journal_store is not None:
        loader = journal_store
    elif isinstance(journal, RunJournal):
        loader = journal
    elif isinstance(journal, (str, Path)):
        loader = RunJournal(journal)
    else:
        loader = RunJournal()
    return loader.load_many(run_ids)


@dataclass
class _Task:
    """Supervisor-side state of one pending cell."""

    position: int
    spec: CellSpec
    key: Optional[str]
    attempts: int = 0
    #: Earliest monotonic time this task may be (re)dispatched (backoff).
    ready_at: float = 0.0
    started_at: float = 0.0
    deadline: Optional[float] = None
    result: Optional[object] = None
    failure: Optional[CellFailure] = None

    @property
    def backoff_key(self) -> str:
        return self.key if self.key is not None else cell_label(self.spec)

    @property
    def done(self) -> bool:
        return self.result is not None or self.failure is not None


def execute_cells(
    cells: Sequence[CellSpec],
    jobs: int = 1,
    cache: CacheSpec = None,
    policy: Optional[ResiliencePolicy] = None,
    journal: JournalSpec = None,
    resume: ResumeSpec = None,
    metrics: MetricsSpec = None,
    backend: BackendSpec = None,
    settle: Optional[SettleCallback] = None,
) -> List[object]:
    """Execute every cell; returns results in the order cells were given.

    ``settle``, when given, is called once per cell *as it settles* (see
    :data:`SettleCallback`) — the streaming hook behind ``repro serve``.
    Cells resolved up front from the journal or cache settle first, in
    positional order; computed cells settle in completion order.

    Resume carries and cache hits are resolved up front; only misses are
    dispatched.  With ``jobs > 1`` (or a cell timeout, which requires pool
    supervision) the misses are supervised over the local process pool —
    module-level :func:`compute_cell` plus frozen specs keep the tasks
    picklable under every start method.  With ``backend=`` naming worker
    endpoints, misses are always supervised and dispatched over TCP under
    per-cell leases instead (``jobs`` is ignored; capacity is the number
    of reachable workers).  The merge is positional, so completion order
    (and therefore ``jobs`` or the backend) can never reorder or alter a
    grid.

    Under the default policy and backend, behaviour is identical to the
    historical engine: no timeout, no retries, the first failure
    propagates.  With ``policy.fail_fast=False`` a failed cell becomes a
    :class:`~repro.experiments.resilience.CellFailure` placeholder at its
    position and the rest of the grid completes.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    policy = policy if policy is not None else DEFAULT_POLICY
    remote, owns_backend = resolve_backend(backend, policy)
    store = resolve_cache(cache)
    # A network cache client this call constructed (URL/env spec) is
    # closed on the way out; a caller-supplied instance stays open.
    owns_store = not isinstance(cache, (ResultCache, NetworkCacheClient))
    journal_store = resolve_journal(journal)
    resume_state = _resolve_resume(resume, journal_store, journal)
    writer, owns_writer = resolve_metrics(metrics)

    emit = None
    if writer is not None:
        def emit(spec, key, source, attempts, duration, status="ok",
                 kind=None, message=None):
            writer.emit(_cell_record(spec, key, source, attempts, duration,
                                     status=status, kind=kind,
                                     message=message))

    keyed = (store is not None or journal_store is not None
             or resume_state is not None or policy.retries > 0)
    keys: Dict[CellSpec, str] = {}

    def key_of(spec: CellSpec) -> Optional[str]:
        if not keyed:
            return None
        return keys.setdefault(spec, cell_key(spec))

    results: List[Optional[object]] = [None] * len(cells)
    sources: List[Optional[str]] = [None] * len(cells)
    pending: List[int] = []
    for position, spec in enumerate(cells):
        key = key_of(spec)
        if resume_state is not None and key in resume_state.completed:
            results[position] = resume_state.completed[key]
            sources[position] = "journal"
            if store is not None and not store.contains(key):
                store.store(key, results[position])
            if emit is not None:
                emit(spec, key, "journal", 0, 0.0)
            if settle is not None:
                settle(position, spec, key, results[position], "journal")
            continue
        if store is not None:
            hit = store.load(key)
            if hit is not None:
                results[position] = hit
                sources[position] = "cache"
                if emit is not None:
                    emit(spec, key, "cache", 0, 0.0)
                if settle is not None:
                    settle(position, spec, key, hit, "cache")
                continue
        pending.append(position)

    run: Optional[JournalRun] = None
    if journal_store is not None:
        run = journal_store.begin([key_of(spec) for spec in cells])
        for position, result in enumerate(results):
            if result is not None:
                run.record_ok(keys[cells[position]], attempts=0,
                              duration=0.0, source=sources[position],
                              result=result)

    events = writer.emit if writer is not None else None

    def finalize(task: "_Task") -> None:
        """Merge one computed task as it settles: result slot, cache
        store, streaming callback.  Storing here (not after the whole
        wave) means a coordinator killed mid-grid has already persisted
        every settled cell, and ``settle`` consumers stream live."""
        if task.failure is not None:
            outcome: object = task.failure
        else:
            outcome = task.result
            if store is not None:
                store.store(task.key, task.result)
        results[task.position] = outcome
        sources[task.position] = "computed"
        if settle is not None:
            settle(task.position, task.spec, task.key, outcome, "computed")

    try:
        if pending:
            tasks = [_Task(position=i, spec=cells[i], key=key_of(cells[i]))
                     for i in pending]
            if remote is not None:
                _run_supervised(tasks, remote, policy, run, emit, events,
                                notify=finalize)
            else:
                use_pool = (policy.cell_timeout is not None
                            or (jobs > 1 and len(pending) > 1))
                if use_pool:
                    local = LocalPoolBackend(
                        max(1, min(jobs, len(pending))))
                    try:
                        _run_supervised(tasks, local, policy, run, emit,
                                        events, notify=finalize)
                    finally:
                        local.close()
                else:
                    for task in tasks:
                        _run_inline(task, policy, run, emit,
                                    notify=finalize)
            for task in tasks:
                if results[task.position] is None:  # defensive: a task
                    finalize(task)  # that somehow settled unnotified
    finally:
        if run is not None:
            run.finish()
            print(f"[repro] journal {run.run_id}: {run.ok} ok, "
                  f"{run.failed} failed -> {run.path}", file=sys.stderr)
        if writer is not None:
            failed = sum(1 for r in results if isinstance(r, CellFailure))
            record = {
                "event": "sweep",
                "cells": len(cells),
                "from_journal": sources.count("journal"),
                "cache_hits": sources.count("cache"),
                "cache_misses": (store.misses
                                 if store is not None else None),
                "computed": len(pending),
                "failed": failed,
                "jobs": jobs,
            }
            if store is not None:
                record["cache"] = dict(store.counters)
            if remote is not None:
                record["backend"] = dict(remote.counters)
                record["backend_workers"] = remote.workers
            writer.emit(record)
            if owns_writer:
                writer.close()
        if owns_backend and remote is not None:
            remote.close()
        if owns_store and isinstance(store, NetworkCacheClient):
            store.close()
    return results


# ------------------------------------------------------------ inline path

def _run_inline(task: _Task, policy: ResiliencePolicy,
                run: Optional[JournalRun], emit=None,
                notify: Optional[Callable[["_Task"], None]] = None) -> None:
    """Serial execution of one task with retries; no timeout enforcement.

    Used for ``jobs == 1`` and for degraded mode after repeated pool
    failures.  Injected crash/hang faults are downgraded to errors inside
    :func:`~repro.experiments.resilience.inline_execution` so they cannot
    kill or stall the supervising process; a *real* crash in inline mode
    necessarily takes the process down — that is the nature of inline.
    """
    while True:
        delay = task.ready_at - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        task.attempts += 1
        if run is not None:
            run.record_dispatch(task.key, task.attempts)
        start = time.monotonic()
        try:
            with inline_execution():
                task.result = compute_cell(task.spec)
        except Exception as error:
            if task.attempts <= policy.retries:
                task.ready_at = time.monotonic() + backoff_delay(
                    policy, task.backoff_key, task.attempts)
                continue
            message = f"{type(error).__name__}: {error}"
            if run is not None:
                run.record_fail(task.key, task.attempts,
                                FailureKind.ERROR.value, message)
            if emit is not None:
                emit(task.spec, task.key, "computed", task.attempts,
                     time.monotonic() - start, status="failed",
                     kind=FailureKind.ERROR.value, message=message)
            if policy.fail_fast:
                raise
            task.failure = CellFailure(spec=task.spec,
                                       kind=FailureKind.ERROR,
                                       attempts=task.attempts,
                                       message=message)
            if notify is not None:
                notify(task)
            return
        else:
            duration = time.monotonic() - start
            if run is not None:
                run.record_ok(task.key, task.attempts, duration,
                              "computed", task.result)
            if emit is not None:
                emit(task.spec, task.key, "computed", task.attempts,
                     duration)
            if notify is not None:
                notify(task)
            return


# -------------------------------------------------------- supervised path

def _run_supervised(tasks: List[_Task], backend: ExecutorBackend,
                    policy: ResiliencePolicy,
                    run: Optional[JournalRun], emit=None,
                    events: Optional[Callable[[Dict], None]] = None,
                    notify: Optional[Callable[[_Task], None]] = None) -> None:
    """Supervisor loop: deadlines, retries, substrate rebuilds, leases.

    Drives an :class:`~repro.experiments.backends.ExecutorBackend`; the
    backend's ``attributable`` / ``isolates_failures`` flags select
    between the local pool's suspect-probation protocol and the
    distributed backend's direct per-cell attribution (see the module
    docstring).  ``events``, when given, receives free-form metric
    records (requeues, lease lifecycle) beyond the per-cell ``emit``.
    """
    backend.connect_all()
    breakages = 0  # ambiguous pool losses / total capacity losses only
    degraded = False
    queue: List[_Task] = list(tasks)
    suspects: List[_Task] = []
    running: Dict[object, _Task] = {}

    def observe_lease(action: str, handle: object) -> None:
        """Journal lease renewals/expiries the backend reports."""
        task = running.get(handle)
        if task is None or run is None:
            return
        run.record_lease(action, task.key, getattr(handle, "lease", None),
                         backend.describe(handle))

    if backend.leased:
        backend.lease_observer = observe_lease

    def submit(task: _Task) -> bool:
        """Dispatch one task; False when the substrate turned out broken.

        Callers keep at most ``backend.workers`` tasks in flight, so a
        submitted task has an idle worker waiting and the deadline
        stamped here approximates actual execution start — a
        queued-but-not-running cell can never accrue timeout.
        """
        task.attempts += 1
        if run is not None:
            run.record_dispatch(task.key, task.attempts)
        task.started_at = time.monotonic()
        task.deadline = (task.started_at + policy.cell_timeout
                         if policy.cell_timeout is not None else None)
        lease = (lease_id(task.backoff_key, task.attempts)
                 if backend.leased else None)
        try:
            handle = backend.submit(compute_cell, task.spec, lease=lease)
        except BackendBrokenError:
            task.attempts -= 1
            return False
        running[handle] = task
        if backend.leased and run is not None:
            run.record_lease("grant", task.key, lease,
                             backend.describe(handle))
        return True

    def record_ok(task: _Task) -> None:
        duration = time.monotonic() - task.started_at
        if run is not None:
            run.record_ok(task.key, task.attempts, duration, "computed",
                          task.result)
        if emit is not None:
            emit(task.spec, task.key, "computed", task.attempts, duration)
        if notify is not None:
            notify(task)

    def settle(task: _Task, kind: FailureKind, message: str,
               error: Optional[BaseException]) -> None:
        """Retry with backoff, or finalise the failure (raise/placeholder)."""
        if task.attempts <= policy.retries:
            task.ready_at = time.monotonic() + backoff_delay(
                policy, task.backoff_key, task.attempts)
            probation = (kind is FailureKind.WORKER_LOST
                         and not backend.attributable)
            (suspects if probation else queue).append(task)
            if events is not None:
                events({"event": "requeue", "key": task.key,
                        "kind": kind.value, "attempt": task.attempts})
            return
        if run is not None:
            run.record_fail(task.key, task.attempts, kind.value, message)
        if emit is not None:
            emit(task.spec, task.key, "computed", task.attempts,
                 time.monotonic() - task.started_at, status="failed",
                 kind=kind.value, message=message)
        if policy.fail_fast:
            if kind is FailureKind.TIMEOUT:
                raise CellTimeoutError(f"{cell_label(task.spec)}: {message}")
            if isinstance(error, WorkerLostError) \
                    and error.original is not None:
                raise error.original  # the historical BrokenProcessPool
            if error is not None:
                raise error
            raise CellTimeoutError(message)  # unreachable; defensive
        task.failure = CellFailure(spec=task.spec, kind=kind,
                                   attempts=task.attempts, message=message)
        if notify is not None:
            notify(task)

    def requeue_unharvested(to_suspects: bool) -> None:
        """Pull every in-flight task back uncharged; harvest completions.

        Local backend only — used when the pool dies under the whole wave
        (→ probation) or is deliberately replaced after a timeout (→
        plain requeue): either way no failure was *attributed* to these
        tasks, so the dispatch attempt the doomed submit consumed is
        refunded.  A handle that completed with a genuine cell error
        before the pool died *is* attributable, so it is settled
        normally, never refunded.
        """
        for handle, task in list(running.items()):
            del running[handle]
            if backend.done(handle):
                try:
                    task.result = backend.result(handle)
                except (WorkerLostError, CancelledError):
                    pass  # collateral of the pool loss: refund below
                except Exception as error:
                    settle(task, FailureKind.ERROR,
                           f"{type(error).__name__}: {error}", error)
                    continue
                except BaseException:  # noqa: BLE001 — exotic worker death
                    pass  # not attributable to the cell: refund below
                else:
                    record_ok(task)
                    continue
            else:
                backend.forget(handle)
            task.attempts -= 1
            task.ready_at = 0.0
            (suspects if to_suspects else queue).append(task)

    def rebuild_or_degrade(counted: bool) -> None:
        """Replace the substrate; after repeated losses, go inline serial.

        ``counted`` breakages are the ones charged against
        ``max_pool_rebuilds``: ambiguous multi-suspect pool losses
        locally, total capacity loss (no reachable worker) remotely.
        Attributed solo-probe breakages and timeout replacements rebuild
        for free.
        """
        nonlocal breakages, degraded
        if counted:
            breakages += 1
        if counted and breakages > policy.max_pool_rebuilds:
            warnings.warn(
                f"worker pool failed {breakages} times; degrading to "
                "inline serial execution (timeouts no longer enforced)",
                RuntimeWarning, stacklevel=3)
            degraded = True
            backend.close()
            return
        backend.rebuild()

    try:
        while queue or suspects or running:
            if degraded:
                # Degraded serial mode: drain everything inline, in
                # positional order for determinism.
                leftovers = sorted(suspects + queue,
                                   key=lambda t: t.position)
                queue, suspects = [], []
                for task in leftovers:
                    _run_inline(task, policy, run, emit, notify=notify)
                continue

            if backend.workers == 0 and not running:
                # Total capacity loss (every worker endpoint down):
                # rebuild reconnects; repeated losses degrade to inline.
                rebuild_or_degrade(counted=True)
                continue

            now = time.monotonic()
            # --- dispatch ---------------------------------------------
            broken_on_submit = False
            if suspects:
                # Probation (local pool only): suspects run one at a
                # time, alone, so a worker loss is attributable with
                # certainty.
                if not running:
                    task = suspects[0]
                    if task.ready_at <= now:
                        suspects.pop(0)
                        broken_on_submit = not submit(task)
                        if broken_on_submit:
                            suspects.insert(0, task)
                    else:
                        time.sleep(min(task.ready_at - now, _TICK))
                        continue
            else:
                for task in [t for t in queue if t.ready_at <= now]:
                    if len(running) >= backend.workers:
                        break  # saturated: deadlines only start once a
                    queue.remove(task)  # worker is free (submit)
                    if not submit(task):
                        broken_on_submit = True
                        queue.insert(0, task)
                        break
            if broken_on_submit:
                if backend.isolates_failures and running:
                    # Dispatch capacity is gone but in-flight cells on
                    # other connections are unharmed: let them finish,
                    # retry dispatch next tick.
                    broken_on_submit = False
                else:
                    requeue_unharvested(to_suspects=True)
                    rebuild_or_degrade(counted=True)
                    continue

            if not running:
                waiting = queue + suspects
                if waiting:
                    soonest = min(t.ready_at for t in waiting)
                    time.sleep(
                        min(max(soonest - time.monotonic(), 0.0), 1.0)
                        + 0.001)
                continue

            # --- harvest ----------------------------------------------
            done = backend.wait(_TICK)
            broken = False
            solo = len(running) == 1
            for handle in done:
                task = running.pop(handle, None)
                if task is None:
                    continue  # forgotten (timed out) before settling
                try:
                    task.result = backend.result(handle)
                except WorkerLostError as error:
                    if backend.attributable:
                        # One connection ran one cell: charge it and
                        # requeue; the other workers are untouched.
                        settle(task, FailureKind.WORKER_LOST,
                               str(error), error)
                    elif solo:
                        # Unambiguous attribution: the suspect ran alone.
                        settle(task, FailureKind.WORKER_LOST,
                               "worker process died while running this "
                               "cell alone", error)
                        rebuild_or_degrade(counted=False)
                    else:
                        # Ambiguous: refund the attempt, send to probation.
                        broken = True
                        task.attempts -= 1
                        task.ready_at = 0.0
                        suspects.append(task)
                except LeaseExpiredError as error:
                    settle(task, FailureKind.LEASE_EXPIRED, str(error),
                           error)
                except ResultCorruptError as error:
                    settle(task, FailureKind.RESULT_CORRUPT, str(error),
                           error)
                except Exception as error:
                    settle(task, FailureKind.ERROR,
                           f"{type(error).__name__}: {error}", error)
                else:
                    record_ok(task)
            if broken:
                requeue_unharvested(to_suspects=True)
                suspects.sort(key=lambda t: t.position)
                rebuild_or_degrade(counted=True)
                continue

            # --- deadlines --------------------------------------------
            if policy.cell_timeout is not None and running:
                now = time.monotonic()
                expired = [(handle, task) for handle, task in running.items()
                           if task.deadline is not None
                           and now >= task.deadline]
                if expired:
                    for handle, task in expired:
                        del running[handle]
                        backend.forget(handle)
                        settle(task, FailureKind.TIMEOUT,
                               f"exceeded {policy.cell_timeout:.3g}s "
                               "wall-clock timeout", None)
                    if not backend.isolates_failures:
                        # A hung pool worker cannot be cancelled: replace
                        # the pool.  In-flight neighbours are innocent —
                        # plain requeue.  (The worker backend instead
                        # dropped just the hung connection in forget().)
                        requeue_unharvested(to_suspects=False)
                        rebuild_or_degrade(counted=False)
    finally:
        if backend.leased:
            backend.lease_observer = None
