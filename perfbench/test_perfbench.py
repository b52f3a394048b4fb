"""Self-tests of the benchmark's checks, isolation and memory measurement.

Run from the root of the repository (about a minute)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from procmem import TreePeak  # noqa: E402

GOLDEN = json.loads((HERE / "golden.json").read_text())


@pytest.fixture
def runner(tmp_path):
    return lambda workload: run.Runner(ROOT, workload, tmp_path / "work")


@pytest.fixture(scope="module")
def fig8_rep(tmp_path_factory):
    """One real cold fig8-cold repetition at the default seed."""
    work = tmp_path_factory.mktemp("fig8")
    return run.Runner(ROOT, "fig8-cold", work).rep("timed", GOLDEN["seed"])


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["fig7-cold",
                                                      "fig8-cold"]


def test_checks_pass_on_real_output_and_fail_on_perturbed(runner, fig8_rep):
    check = run.check_outputs
    assert check(runner("fig8-cold"), "fig8-cold", [fig8_rep], GOLDEN) == []
    bad = dict(fig8_rep, encoded=run.perturbed(fig8_rep["encoded"]))
    problems = check(runner("fig8-cold"), "fig8-cold", [bad], GOLDEN)
    assert any("differ from golden" in p for p in problems)
    problems = check(runner("fig8-cold"), "fig8-cold", [fig8_rep, bad],
                     GOLDEN)
    assert "repetitions of one input disagree" in problems


def test_prepopulated_user_cache_leaves_every_cell_computed(
        runner, fig8_rep, tmp_path, monkeypatch):
    user_cache = tmp_path / "user-cache"
    code = textwrap.dedent(f"""
        import sys
        sys.path[:0] = [{str(HERE)!r}]
        import workloads as wl
        from repro.experiments.result_cache import ResultCache
        cache = ResultCache({str(user_cache)!r})
        wl.run_grid(wl.fig8_cells(wl.DEFAULT_SEED), 1, cache)
        assert cache.stores == 9, cache.stores
    """)
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    before = sorted(p.name for p in user_cache.iterdir())
    monkeypatch.setenv("REPRO_CACHE_DIR", str(user_cache))
    monkeypatch.setenv("REPRO_CACHE_URL", "tcp://127.0.0.1:9")
    monkeypatch.setenv("REPRO_FAULT_INJECT", "error=mcf/mascot")
    rep = runner("fig8-cold").rep("timed", GOLDEN["seed"])
    assert rep["computed"] == rep["cells"] == 9
    assert rep["encoded"] == fig8_rep["encoded"]
    assert sorted(p.name for p in user_cache.iterdir()) == before


def test_peak_memory_counts_a_pool_worker():
    code = textwrap.dedent("""
        import time
        from concurrent.futures import ProcessPoolExecutor

        def hold(mib):
            block = b"x" * (mib << 20)
            time.sleep(1.0)
            return len(block)

        if __name__ == "__main__":
            with ProcessPoolExecutor(1) as pool:
                assert pool.submit(hold, 256).result() == 256 << 20
    """)
    process = subprocess.Popen([sys.executable, "-c", code])
    with TreePeak(process.pid) as peak:
        assert process.wait(timeout=60) == 0
    assert peak.total_mib() >= 256
    assert len(peak.peaks) >= 2


def test_default_seed_grids_equal_the_figure_functions():
    from make_golden import golden

    assert golden() == GOLDEN


def test_benchmark_grid_equals_figure_grid_at_default_seed(runner):
    rep = runner("fig7-cold").rep("timed", GOLDEN["seed"])
    assert rep["computed"] == rep["cells"] == 12
    assert run.digest(rep["encoded"]) == GOLDEN["digests"]["fig7-cold"]


def test_a_run_times_the_default_seed_and_two_seeded_inputs():
    assert run.trace_seeds(4, GOLDEN["seed"]) == [GOLDEN["seed"], 10, 11]
    seeded = {s for n in range(100) for s in run.trace_seeds(n, 1)[1:]}
    assert GOLDEN["seed"] not in seeded and len(seeded) == 200


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig8-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
