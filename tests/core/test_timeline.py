"""Tests for pipeline timeline capture and rendering."""

import pytest

from repro.core.batched import BatchedPipeline
from repro.core.pipeline import Pipeline
from repro.core.timeline import Timeline, UopTiming
from repro.experiments.suite import make_predictor
from repro.predictors.perfect import PerfectMDP

from tests.conftest import small_trace


def recorded_pipeline(n=4000):
    trace = small_trace("exchange2", n)
    pipeline = Pipeline(PerfectMDP(), record_timeline=True)
    pipeline.run(trace)
    return trace, pipeline


class TestUopTiming:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            UopTiming(seq=0, fetch=10, dispatch=5, issue=6, complete=7,
                      commit=8)
        with pytest.raises(ValueError):
            UopTiming(seq=0, fetch=1, dispatch=2, issue=3, complete=4,
                      commit=4)  # commit must be after complete

    def test_latency(self):
        t = UopTiming(seq=0, fetch=10, dispatch=20, issue=25, complete=30,
                      commit=31)
        assert t.latency == 21


class TestCapture:
    def test_disabled_by_default(self):
        trace = small_trace("exchange2", 2000)
        pipeline = Pipeline(PerfectMDP())
        pipeline.run(trace)
        with pytest.raises(RuntimeError):
            pipeline.timeline()

    def test_records_every_uop(self):
        trace, pipeline = recorded_pipeline(3000)
        timeline = pipeline.timeline(trace)
        assert len(timeline) == len(trace)

    def test_event_order_holds_for_all_uops(self):
        trace, pipeline = recorded_pipeline(4000)
        timeline = pipeline.timeline()
        for i in range(len(timeline)):
            t = timeline[i]
            assert t.fetch <= t.dispatch <= t.issue <= t.complete < t.commit

    def test_trace_length_mismatch_rejected(self):
        trace, pipeline = recorded_pipeline(2000)
        with pytest.raises(ValueError):
            pipeline.timeline(trace[:100])


class TestAnalysis:
    def test_mean_latency_positive(self):
        _, pipeline = recorded_pipeline(3000)
        assert pipeline.timeline().mean_latency() > 0

    def test_slowest_sorted(self):
        _, pipeline = recorded_pipeline(3000)
        slowest = pipeline.timeline().slowest(5)
        assert len(slowest) == 5
        latencies = [t.latency for t in slowest]
        assert latencies == sorted(latencies, reverse=True)

    def test_empty_timeline(self):
        assert Timeline([]).mean_latency() == 0.0


class TestRender:
    def test_renders_window(self):
        trace, pipeline = recorded_pipeline(3000)
        text = pipeline.timeline(trace).render(100, 110)
        lines = text.splitlines()
        assert len(lines) == 11  # header + 10 uops
        assert "|" in lines[1]
        assert "load" in text or "alu" in text

    def test_contains_stage_glyphs(self):
        _, pipeline = recorded_pipeline(3000)
        text = pipeline.timeline().render(0, 20)
        assert "F" in text and "C" in text

    def test_bad_window_rejected(self):
        _, pipeline = recorded_pipeline(1000)
        timeline = pipeline.timeline()
        with pytest.raises(ValueError):
            timeline.render(10, 10)
        with pytest.raises(ValueError):
            timeline.render(-1, 5)
        with pytest.raises(ValueError):
            timeline.render(0, 10_000_000)


class TestBatchedCapture:
    """The batched engine keeps whole-run issue/commit times only when it
    records a timeline; the recorded timeline must match the scalar one."""

    @pytest.mark.parametrize("measure_from", [0, 1000])
    def test_matches_scalar_timeline(self, measure_from):
        trace = small_trace("perlbench1", 4000)
        timelines = []
        for engine_cls in (Pipeline, BatchedPipeline):
            pipeline = engine_cls(make_predictor("mascot"),
                                  record_timeline=True)
            pipeline.run(trace, measure_from=measure_from)
            timeline = pipeline.timeline(trace)
            timelines.append([timeline[i] for i in range(len(timeline))])
        assert timelines[0] == timelines[1]

    def test_disabled_by_default(self):
        pipeline = BatchedPipeline(PerfectMDP())
        pipeline.run(small_trace("exchange2", 2000))
        with pytest.raises(RuntimeError):
            pipeline.timeline()

    def test_single_use(self):
        trace = small_trace("exchange2", 2000)
        pipeline = BatchedPipeline(PerfectMDP())
        pipeline.run(trace)
        with pytest.raises(RuntimeError):
            pipeline.run(trace)
