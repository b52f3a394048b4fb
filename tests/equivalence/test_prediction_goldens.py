"""Prediction-only results are bit-identical to the committed goldens.

``golden_prediction.json`` pins :meth:`PredictionRunResult.to_dict` —
accuracy counts, per-table prediction counts, telemetry and F1 profiles —
for every predictor on every profile (see :mod:`tests.equivalence.goldens`).
Tier 1 runs a subset with every predictor at least once, every F1 and
reuse path, and the full grid runs behind the ``slow`` marker.
"""

from __future__ import annotations

import pytest

from repro.experiments.suite import PREDICTOR_FACTORIES
from repro.trace.profiles import suite_names

from .goldens import (F1_PERIOD, PREDICTION_GOLDEN, PREDICTION_UOPS,
                      PREDICTION_WARMUP, REUSE_BENCHMARKS, f1_digest, load,
                      prediction_cells, prediction_digest, reuse_digest)

GOLDEN = load(PREDICTION_GOLDEN)
PREDICTORS = sorted(PREDICTOR_FACTORIES)
BENCHMARKS = suite_names()

#: Tier-1 cells: every predictor once, each on a different profile.
FAST_CELLS = [(name, BENCHMARKS[(7 * i) % len(BENCHMARKS)])
              for i, name in enumerate(PREDICTORS)]
FAST_F1 = ("perlbench1", "lbm")
#: Tier-1 reuse cells: one predictor per session implementation (MASCOT,
#: PHAST, NoSQ, Store Sets) plus one that runs the generic session.
FAST_REUSE = ("mascot", "phast", "nosq", "store-sets", "idist+store-sets")


def test_golden_covers_the_grid():
    assert GOLDEN["num_uops"] == PREDICTION_UOPS
    assert GOLDEN["warmup"] == PREDICTION_WARMUP
    assert GOLDEN["f1_period"] == F1_PERIOD
    assert GOLDEN["reuse_benchmarks"] == list(REUSE_BENCHMARKS)
    assert sorted(GOLDEN["cells"]) == sorted(
        f"{name}/{bench}" for name, bench in prediction_cells())
    assert sorted(GOLDEN["f1"]) == sorted(BENCHMARKS)
    assert sorted(GOLDEN["reuse"]) == PREDICTORS


def test_fast_subset_covers_every_predictor():
    assert sorted(name for name, _ in FAST_CELLS) == PREDICTORS


@pytest.mark.parametrize("name,bench", FAST_CELLS)
def test_cell_matches_golden(name, bench):
    assert prediction_digest(name, bench) == GOLDEN["cells"][f"{name}/{bench}"]


@pytest.mark.parametrize("bench", FAST_F1)
def test_f1_cell_matches_golden(bench):
    assert f1_digest(bench) == GOLDEN["f1"][bench]


@pytest.mark.parametrize("name", FAST_REUSE)
def test_reused_instance_matches_golden(name):
    assert reuse_digest(name) == GOLDEN["reuse"][name]


@pytest.mark.slow
class TestFullGrid:
    """Every predictor on every profile, every F1 and reuse cell."""

    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_profile_against_full_zoo(self, bench):
        mismatched = [name for name in PREDICTORS
                      if prediction_digest(name, bench)
                      != GOLDEN["cells"][f"{name}/{bench}"]]
        assert not mismatched, (
            f"{bench}: prediction-only results differ from the golden "
            f"digest for {mismatched}"
        )

    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_f1_cell(self, bench):
        assert f1_digest(bench) == GOLDEN["f1"][bench]

    @pytest.mark.parametrize("name", PREDICTORS)
    def test_reused_instance(self, name):
        assert reuse_digest(name) == GOLDEN["reuse"][name]
