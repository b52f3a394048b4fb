"""Timing-engine registry: the engine names every timing path accepts.

``scalar`` is the reference event-at-a-time :class:`~repro.core.pipeline.Pipeline`;
``batched`` is the two-phase columnar
:class:`~repro.core.batched.BatchedPipeline`, proven bit-identical to it by
the golden equivalence tier (``tests/equivalence/``) on every
(predictor, core) pair a timing figure runs.  ``batched`` is the default
everywhere; ``scalar`` stays selectable as an independent cross-check.
"""

from __future__ import annotations

from .batched import BatchedPipeline
from .pipeline import Pipeline

__all__ = ["TIMING_ENGINES", "DEFAULT_ENGINE", "pipeline_class"]

_CLASSES = {"scalar": Pipeline, "batched": BatchedPipeline}

TIMING_ENGINES = tuple(_CLASSES)
DEFAULT_ENGINE = "batched"


def pipeline_class(engine: str):
    """The pipeline class implementing ``engine``."""
    try:
        return _CLASSES[engine]
    except KeyError:
        raise ValueError(
            f"unknown timing engine {engine!r}; known: "
            + ", ".join(TIMING_ENGINES)
        ) from None
