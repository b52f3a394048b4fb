"""Repository benchmark: figure grids computed from a cold cache.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig7-cold --seed 1 --seconds 55 --trace 0

Every repetition runs in a fresh interpreter with an empty private result
cache under ``.bench_build/``, and with the ``REPRO_*`` environment
removed, so it is a cold start.  ``--trace 0`` repeats the timed workload
for ``--seconds`` and reports the end-to-end metrics (medians over the
repetitions); ``--trace 1`` makes one timed and one traced repetition and
reports the per-layer metrics.  Every run checks the outputs:
repetitions of one input must agree, and the grids at the default seed
must match the committed digests in ``golden.json``; the digest check is
itself checked on a perturbed output.  The last line of standard output
is one JSON object; see README.md.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from procmem import TreePeak

HERE = Path(__file__).resolve().parent
MIN_REPS = 3
MAX_REPS = 25
SETUP_SAMPLES = 5
REP_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "kuops_per_s": "kuops/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "trace.generate_s": "s",
    "trace.generate_kuops_per_s": "kuops/s",
    "trace.resident_mib": "MiB",
    "trace.columns_s": "s",
    "core.timing_s.scalar": "s",
    "core.timing_s.batched": "s",
    "core.timing_kuops_per_s.scalar": "kuops/s",
    "core.timing_kuops_per_s.batched": "kuops/s",
    "branch.tage_replay_s": "s",
    "memory.replay_s": "s",
    "memory.l1d_hit_ratio": "ratio",
    "memory.warmup_index_s": "s",
    "memory.warm_s": "s",
    "predictors.prediction_only_s.nosq": "s",
    "predictors.prediction_only_s.phast": "s",
    "predictors.prediction_only_s.mascot": "s",
    "sampling.select_s": "s",
    "sampling.replay_s": "s",
    "sampling.replay_kuops_per_s": "kuops/s",
    "sampling.simulated_share": "ratio",
    "sampling.ipc_error_pct": "%",
    "sampling.ipc_ci_rel_pct": "%",
    "experiments.pool_efficiency": "ratio",
    "experiments.dispatch_overhead_s": "s",
    "experiments.cache_store_s": "s",
    "experiments.cache_load_s": "s",
    "experiments.warm_rerun_s": "s",
    "experiments.cell_failure_ratio": "ratio",
    "bench.tracing_overhead_pct": "%",
    "bench.residual_pct": "%",
}


class RepFailed(RuntimeError):
    """A repetition exited non-zero, timed out or printed no result."""


class Runner:
    """Spawns repetitions in fresh interpreters and collects their reports."""

    def __init__(self, root: Path, workload: str, work: Path) -> None:
        self.workload = workload
        self.work = work
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env.update({
            "PYTHONPATH": str(root / "src"),
            # Numeric libraries stay single-threaded: the pool's two
            # workers already occupy the cores the benchmark may use.
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        })
        self.count = 0

    def rep(self, mode: str, seed: int) -> Dict:
        self.count += 1
        work = self.work / f"rep{self.count}"
        command = [sys.executable, str(HERE / "rep.py"),
                   "--workload", self.workload, "--seed", str(seed),
                   "--work", str(work), "--mode", mode]
        # Any default-path lookup lands in the private directory too.
        env = dict(self.env, REPRO_CACHE_DIR=str(work / "cache"),
                   REPRO_JOURNAL_DIR=str(work / "cache" / "journals"))
        spawned = time.monotonic()
        process = subprocess.Popen(command, env=env,
                                   stdout=subprocess.PIPE,
                                   start_new_session=True, text=True)
        try:
            with TreePeak(process.pid) as peak:
                out, _ = process.communicate(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise RepFailed(f"{mode} repetition timed out")
        finally:
            _kill_group(process)
            shutil.rmtree(work, ignore_errors=True)
        lines = out.strip().splitlines()
        if process.returncode != 0 or not lines:
            raise RepFailed(f"{mode} repetition exited {process.returncode}")
        report = json.loads(lines[-1])
        report["setup_s"] = report["call_start"] - spawned
        report["peak_rss_mib"] = peak.total_mib(report["own_peak_kib"])
        return report


def _kill_group(process: subprocess.Popen) -> None:
    """Stop the repetition and anything it started, and reap it."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()


# -- output checks -----------------------------------------------------------

def digest(encoded: List[Dict]) -> str:
    from workloads import digest as output_digest

    return output_digest(encoded)


def perturbed(encoded: List[Dict]) -> List[Dict]:
    """The same outputs with one simulated number changed by one unit."""
    changed = copy.deepcopy(encoded)
    data = changed[0]["data"]
    if changed[0]["kind"] == "timing":
        data["cycles"] += 1
    else:
        data["accuracy"]["loads"] += 1
    return changed


def trace_seeds(seed: int, default_seed: int) -> List[int]:
    """The inputs of one run: the trace seeds its repetitions cycle over.

    The default seed, whose outputs ``golden.json`` pins, is timed in
    every run, so the check costs no extra repetition; the other inputs
    come from ``--seed``.  Several inputs per run make a run's median
    depend less on one trace's particular cost.
    """
    return [default_seed, 2 * seed + 2, 2 * seed + 3]


def check_outputs(runner: Runner, workload: str, reps: List[Dict],
                  golden: Dict) -> List[str]:
    """Every output check of one run; returns the failures found."""
    problems = []
    if any(r["computed"] != r["cells"] for r in reps):
        problems.append("a repetition served cells from a cache: not cold")
    digests: Dict[int, set] = {}
    for r in reps:
        digests.setdefault(r["seed"], set()).add(digest(r["encoded"]))
    if any(len(found) != 1 for found in digests.values()):
        problems.append("repetitions of one input disagree")
    reference = next((r for r in reps if r["seed"] == golden["seed"]), None)
    if reference is None:
        reference = runner.rep("timed", golden["seed"])
    wanted = golden["digests"][workload]
    if digest(reference["encoded"]) != wanted:
        problems.append(f"outputs at trace seed {golden['seed']} differ "
                        "from golden.json")
    if digest(perturbed(reference["encoded"])) == wanted:
        problems.append("self-test: a perturbed output passed the digest")
    return problems


# -- metrics -----------------------------------------------------------------

def _metric(name: str, value: float, units: Dict[str, str]) -> Dict:
    return {"value": float(value), "unit": units[name]}


def end_to_end(reps: List[Dict], setups: List[float]) -> Dict[str, Dict]:
    median = statistics.median
    values = {
        "wall_s": median(r["wall_s"] for r in reps),
        "kuops_per_s": median(r["uops"] / 1000.0 / r["wall_s"] for r in reps),
        "setup_s": median(setups),
        "peak_rss_mib": median(r["peak_rss_mib"] for r in reps),
    }
    return {name: _metric(name, values[name], END_TO_END)
            for name in END_TO_END}


def _layer_values(timed: Dict, traced: Dict) -> Dict[str, float]:
    """Layer values of one traced repetition, set against untraced walls.

    ``traced["wall_s"]`` is the untraced inline call made just before the
    traced layer calls in the same process; ``timed["wall_s"]`` is the
    workload as it is timed (through the pool for ``fig7-cold``).
    """
    spans = traced["traced"]
    values = dict(spans["metrics"])
    layer_path = spans["layer_path_seconds"]
    inline_wall = traced["wall_s"]
    grid_wall, jobs = timed["wall_s"], timed["jobs"]
    values["experiments.pool_efficiency"] = layer_path / (jobs * grid_wall)
    values["experiments.dispatch_overhead_s"] = grid_wall - layer_path / jobs
    values["bench.tracing_overhead_pct"] = (
        100.0 * (spans["path_seconds"] - inline_wall) / inline_wall)
    values["bench.residual_pct"] = (
        100.0 * (inline_wall - layer_path) / inline_wall)
    return values


def per_layer(timed: Dict, traced: List[Dict], failed: int,
              attempted: int) -> Dict[str, Dict]:
    """Each layer metric as the median over the traced repetitions."""
    rows = [_layer_values(timed, rep) for rep in traced]
    values = {name: statistics.median(row[name] for row in rows)
              for name in PER_LAYER if name in rows[0]}
    values["experiments.cell_failure_ratio"] = failed / attempted
    return {name: _metric(name, values[name], PER_LAYER)
            for name in PER_LAYER}


# -- driver --------------------------------------------------------------------

def _repeat(runner: Runner, mode: str, inputs: List[int], seconds: float,
            min_reps: int):
    """Repetitions cycling over ``inputs`` for ``seconds``.

    A repetition starts only if one more of average length still ends
    within ``seconds``.
    """
    started = time.monotonic()
    reps: List[Dict] = []
    failed_reps = 0
    while True:
        done = len(reps) + failed_reps
        elapsed = time.monotonic() - started
        if len(reps) >= min_reps and (
                elapsed * (done + 1) / done > seconds or done >= MAX_REPS):
            break
        seed = inputs[done % len(inputs)]
        try:
            reps.append(runner.rep(mode, seed))
        except RepFailed as error:
            # The grid fails fast, as `repro figure` does: a failed cell
            # fails its repetition, and every cell of it counts as failed.
            print(f"perfbench: {error}", file=sys.stderr)
            failed_reps += 1
            if failed_reps > MIN_REPS:
                raise
    return reps, failed_reps


def measure(runner: Runner, args, golden: Dict) -> Dict:
    inputs = trace_seeds(args.seed, golden["seed"])
    if args.trace:
        # One untraced and as many traced repetitions of a seeded input as
        # the time allows.
        started = time.monotonic()
        timed = runner.rep("timed", inputs[1])
        traced, failed_reps = _repeat(
            runner, "traced", inputs[1:2],
            args.seconds - (time.monotonic() - started), min_reps=1)
        reps = [timed] + traced
    else:
        reps, failed_reps = _repeat(runner, "timed", inputs, args.seconds,
                                    min_reps=MIN_REPS)
    cells = reps[0]["cells"]
    attempted = cells * (len(reps) + failed_reps)
    failed = cells * failed_reps
    problems = check_outputs(runner, args.workload, reps, golden)
    if failed:
        problems.append(f"{failed_reps} repetition(s) failed")
    if not args.trace:
        setups = [r["setup_s"] for r in reps]
        while len(setups) < SETUP_SAMPLES:
            setups.append(runner.rep("setup", inputs[1])["setup_s"])
        metrics = end_to_end(reps, setups)
    else:
        if any(digest(r["traced"]["encoded"]) != digest(r["encoded"])
               for r in traced):
            problems.append("traced layer calls computed different outputs")
        _save_spans(args, traced[-1]["traced"]["spans"])
        metrics = per_layer(timed, traced, failed, attempted)
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics, "problems": problems}


def _save_spans(args, spans: List[Dict]) -> None:
    out = Path(".bench_build") / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(spans, indent=1))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig7-cold", "fig8-cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A terminated run still stops its repetitions (see Runner.rep).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout of the repository "
              "(src/repro not found)", file=sys.stderr)
        return 2
    sys.path.insert(1, str(root / "src"))
    golden = json.loads((HERE / "golden.json").read_text())
    work = root / ".bench_build" / "perfbench" / f"run-{os.getpid()}"
    runner = Runner(root, args.workload, work)
    try:
        try:
            result = measure(runner, args, golden)
        except RepFailed as error:
            print(f"perfbench: {error}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in result.pop("problems"):
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:14.6f} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
