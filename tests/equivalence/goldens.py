"""Committed golden digests of generated traces and prediction-only results.

Two grids pin today's outputs so that faster implementations of trace
generation and of prediction-only replay can be proven byte-identical:

* **traces** — every profile in :func:`~repro.trace.profiles.suite_names`
  at :data:`TRACE_LENGTHS` uops and :data:`TRACE_SEEDS` trace seeds; one
  SHA-256 per trace over every :class:`~repro.trace.uop.MicroOp` field;
* **prediction-only** — every predictor in
  :data:`~repro.experiments.suite.PREDICTOR_FACTORIES` on every profile
  (``telemetry=True``, warmup :data:`PREDICTION_WARMUP`), F1-tracking
  MASCOT cells, and predictor instances reused across two consecutive
  runs; one SHA-256 per :meth:`PredictionRunResult.to_dict`.

The digests live next to this module (``golden_traces.json``,
``golden_prediction.json``).  Regenerate them only when a change is meant
to alter the outputs::

    PYTHONPATH=src python -m tests.equivalence.goldens
"""

from __future__ import annotations

import dataclasses
import enum
import json
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.common.hashing import stable_digest
from repro.experiments.runner import run_prediction_only
from repro.experiments.suite import PREDICTOR_FACTORIES, make_predictor
from repro.predictors.configs import MASCOT_DEFAULT
from repro.predictors.mascot import Mascot
from repro.trace.fixture_cache import cached_trace
from repro.trace.generator import generate_trace
from repro.trace.profiles import suite_names
from repro.trace.uop import MicroOp

HERE = Path(__file__).resolve().parent
TRACE_GOLDEN = HERE / "golden_traces.json"
PREDICTION_GOLDEN = HERE / "golden_prediction.json"

#: Trace grid: short length (tier 1) and long length (slow tier).
TRACE_LENGTHS = (5_000, 20_000)
TRACE_SEEDS = (1, 2, 3)

#: Prediction-only grid geometry.
PREDICTION_UOPS = 6_000
PREDICTION_WARMUP = 1_500
#: F1 period in committed loads: several periods per 6k-uop trace.
F1_PERIOD = 400
#: (first benchmark, second benchmark) of the reused-instance cells.
REUSE_BENCHMARKS = ("perlbench1", "mcf")

_MICROOP_FIELDS = tuple(f.name for f in dataclasses.fields(MicroOp))


def _plain(value):
    return value.name if isinstance(value, enum.Enum) else value


def trace_digest(trace: Sequence[MicroOp]) -> str:
    """SHA-256 over every field of every micro-op, in trace order."""
    return stable_digest([
        [_plain(getattr(uop, name)) for name in _MICROOP_FIELDS]
        for uop in trace
    ])


def trace_key(bench: str, num_uops: int, seed: int) -> str:
    return f"{bench}/{num_uops}/seed{seed}"


def trace_cells() -> List[Tuple[str, int, int]]:
    return [(bench, length, seed) for length in TRACE_LENGTHS
            for bench in suite_names() for seed in TRACE_SEEDS]


def compute_trace_digest(bench: str, num_uops: int, seed: int) -> str:
    return trace_digest(generate_trace(bench, num_uops, trace_seed=seed))


# -- prediction-only ---------------------------------------------------------

def _trace(bench: str):
    return cached_trace(bench, PREDICTION_UOPS)


def prediction_digest(predictor_name: str, bench: str) -> str:
    """Digest of one full-trace prediction-only cell with telemetry."""
    result = run_prediction_only(
        _trace(bench), make_predictor(predictor_name),
        warmup=PREDICTION_WARMUP, telemetry=True)
    return stable_digest(result.to_dict())


def f1_digest(bench: str) -> str:
    """Digest of an F1-tracking MASCOT cell (Fig. 14's configuration)."""
    result = run_prediction_only(
        _trace(bench), Mascot(MASCOT_DEFAULT, track_f1=True),
        f1_period=F1_PERIOD, warmup=PREDICTION_WARMUP, telemetry=True)
    return stable_digest(result.to_dict())


def reuse_digest(predictor_name: str) -> str:
    """Digest of two consecutive runs through one predictor instance.

    The second run starts from the first run's warm tables and history,
    so it exercises every session's handling of non-empty state.
    """
    predictor = make_predictor(predictor_name)
    first, second = REUSE_BENCHMARKS
    results = [
        run_prediction_only(_trace(bench), predictor,
                            warmup=PREDICTION_WARMUP, telemetry=True).to_dict()
        for bench in (first, second)
    ]
    return stable_digest(results)


def prediction_cells() -> List[Tuple[str, str]]:
    return [(name, bench) for bench in suite_names()
            for name in sorted(PREDICTOR_FACTORIES)]


def compute_prediction_goldens() -> Dict[str, Dict[str, str]]:
    return {
        "cells": {f"{name}/{bench}": prediction_digest(name, bench)
                  for name, bench in prediction_cells()},
        "f1": {bench: f1_digest(bench) for bench in suite_names()},
        "reuse": {name: reuse_digest(name)
                  for name in sorted(PREDICTOR_FACTORIES)},
    }


def load(path: Path) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _write(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def main() -> None:
    _write(TRACE_GOLDEN, {
        "lengths": list(TRACE_LENGTHS),
        "seeds": list(TRACE_SEEDS),
        "digests": {trace_key(*cell): compute_trace_digest(*cell)
                    for cell in trace_cells()},
    })
    _write(PREDICTION_GOLDEN, {
        "num_uops": PREDICTION_UOPS,
        "warmup": PREDICTION_WARMUP,
        "f1_period": F1_PERIOD,
        "reuse_benchmarks": list(REUSE_BENCHMARKS),
        **compute_prediction_goldens(),
    })


if __name__ == "__main__":
    main()
