"""One repetition of a workload, in a fresh interpreter.

Started by ``run.py`` with a scrubbed environment; prints one JSON object
as its last line of output.  Modes:

* ``setup``  — import, make the private cache directory, build the
  inputs, and stop where the workload call would start.
* ``timed``  — the cold workload call, timed.
* ``traced`` — the same call inline (``jobs=1``), untraced, then, with
  the in-process memos cleared, the traced run of ``traced.py``: the two
  are timed back to back, on the same host load.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import workloads as wl
from procmem import peak_kib


def _workload_call(cells, jobs: int, cache_dir: Path) -> dict:
    """The timed call: cold, with a private result cache and journal."""
    from repro.experiments.result_cache import ResultCache

    cache = ResultCache(cache_dir)
    start = time.perf_counter()
    results = wl.run_grid(cells, jobs, cache)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "encoded": wl.encode(results),
            "computed": cache.misses}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "timed", "traced"))
    args = parser.parse_args()

    cache_dir = args.work / "cache"
    cache_dir.mkdir(parents=True, exist_ok=True)
    cells = wl.cells_for(args.workload, args.seed)
    # The traced mode's untraced call runs inline, like its layer calls.
    jobs = 1 if args.mode == "traced" else wl.jobs_for(args.workload)
    report = {"call_start": time.monotonic(), "seed": args.seed,
              "cells": len(cells),
              "uops": sum(spec.num_uops for spec in cells), "jobs": jobs}
    if args.mode != "setup":
        report.update(_workload_call(cells, jobs, cache_dir))
    if args.mode == "traced":
        from traced import clear_memos, traced_rep

        clear_memos()
        report["traced"] = traced_rep(args.workload, args.seed, args.work)
    report["own_peak_kib"] = peak_kib("self")
    print(json.dumps(report))


if __name__ == "__main__":
    main()
