"""The benchmark workloads, built from a seed and run cold.

Imported only inside a fresh repetition interpreter (see ``rep.py``), so
every call below starts from empty in-process memos.  The grids are built
through ``execute_cells`` exactly as ``run_ipc_suite`` /
``run_accuracy_suite`` build them for ``repro figure fig7`` / ``fig8``;
the only difference is the trace seed (see ``run.trace_seeds``).
"""

from __future__ import annotations

import inspect
from pathlib import Path
from typing import Dict, List, Sequence

from repro.common.hashing import stable_digest
from repro.core.config import GOLDEN_COVE
from repro.experiments.figures import fig7_ipc_full
from repro.experiments.parallel import CellSpec, execute_cells
from repro.experiments.result_cache import encode_result
from repro.sampling.policy import SamplingPolicy

WORKLOADS = ("fig7-cold", "fig8-cold")

#: The trace seed of the figure functions' cells (the ``CellSpec``
#: default), whose outputs ``golden.json`` pins.
DEFAULT_SEED = CellSpec.__dataclass_fields__["trace_seed"].default

#: Dependence-rich, pointer-chasing and streaming-FP benchmarks.
GRID_BENCHMARKS = ("perlbench1", "mcf", "lbm")
#: Trace length of the figure grids: half the CLI default of 40k, so one
#: run can repeat the cold grid many times at roughly the same layer
#: shares.
GRID_UOPS = 20_000
FIG7_PREDICTORS = ("perfect-mdp", "nosq", "phast", "mascot")
FIG7_JOBS = 2
FIG8_PREDICTORS = ("nosq", "phast", "mascot")

#: Sampled simulation as ``repro simulate --sampling --engine batched``
#: runs it, with 2.5k-uop regions so a grid trace holds eight; the traced
#: run probes the sampling layers with it.
SAMPLING_POLICY = SamplingPolicy(interval_length=2_500)
SAMPLING_PREDICTOR = "mascot"
SAMPLING_ENGINE = "batched"


def default_engine() -> str:
    """The engine ``repro figure fig7`` uses when none is named."""
    return inspect.signature(fig7_ipc_full).parameters["engine"].default


def fig7_cells(seed: int) -> List[CellSpec]:
    """The Fig. 7 grid as ``run_ipc_suite`` builds it (baseline first)."""
    config = GOLDEN_COVE
    return [
        CellSpec(mode="timing", benchmark=bench, num_uops=GRID_UOPS,
                 predictor=name, config=config, trace_seed=seed,
                 store_window=config.sb_size, instr_window=config.rob_size,
                 engine=default_engine())
        for bench in GRID_BENCHMARKS for name in FIG7_PREDICTORS
    ]


def fig8_cells(seed: int) -> List[CellSpec]:
    """The Fig. 8 grid as ``run_accuracy_suite`` builds it."""
    return [
        CellSpec(mode="accuracy", benchmark=bench, num_uops=GRID_UOPS,
                 predictor=name, warmup=GRID_UOPS // 4, trace_seed=seed)
        for bench in GRID_BENCHMARKS for name in FIG8_PREDICTORS
    ]


def cells_for(workload: str, seed: int) -> List[CellSpec]:
    return fig7_cells(seed) if workload == "fig7-cold" else fig8_cells(seed)


def jobs_for(workload: str) -> int:
    return FIG7_JOBS if workload == "fig7-cold" else 1


def run_grid(cells: Sequence[CellSpec], jobs: int, cache) -> List[object]:
    """The grid as ``repro figure`` runs it: cached and journaled."""
    return execute_cells(cells, jobs=jobs, cache=cache,
                         journal=Path(cache.directory) / "journals")


def encode(results: Sequence[object]) -> List[Dict]:
    """Results as the cache encodes them; the unit of output checking."""
    return [encode_result(result) for result in results]


def digest(encoded: Sequence[Dict]) -> str:
    return stable_digest(list(encoded))
