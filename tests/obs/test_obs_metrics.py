"""Metric primitives: fixed bounds, canonical snapshots, renderings."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro import obs
from repro.obs.metrics import (
    COUNT_BOUNDS,
    LATENCY_BOUNDS_S,
    Counter,
    Gauge,
    Histogram,
    Registry,
    merge_snapshots,
    render_prometheus,
    render_table,
)


class TestPrimitives:
    def test_counter_accumulates(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert c.snapshot() == 5

    def test_gauge_moves_both_ways(self):
        g = Gauge("depth")
        g.set(7)
        g.inc(2)
        g.dec()
        assert g.snapshot() == 8

    def test_histogram_buckets_and_stats(self):
        h = Histogram("lat", bounds=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.count == 4
        assert h.counts == [1, 1, 1, 1]  # one overflow bucket rides along
        assert h.min == 0.5 and h.max == 500.0
        assert h.mean == pytest.approx(138.875)

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(2.0, 1.0))

    def test_percentile_is_bucket_bound_clamped_to_max(self):
        h = Histogram("lat", bounds=(1.0, 10.0, 100.0))
        for v in (0.5, 0.6, 5.0, 42.0):
            h.observe(v)
        assert h.percentile(0.0) == 1.0  # first bucket's upper bound
        assert h.percentile(1.0) == 42.0  # clamped to observed max
        assert h.percentile(0.5) == 1.0  # rank 1.5 still in bucket 0
        assert h.percentile(0.75) == 10.0
        with pytest.raises(ValueError):
            h.percentile(50)  # quantiles are [0, 1], not percent

    def test_empty_histogram_snapshot_is_json_safe(self):
        snap = Histogram("lat").snapshot()
        assert snap["count"] == 0
        assert snap["min"] == 0.0 and snap["max"] == 0.0
        json.dumps(snap)  # no inf/nan leaks


class TestDeterministicShape:
    def test_bounds_are_fixed_constants(self):
        # The mergeability contract: bounds never derive from data.
        assert list(LATENCY_BOUNDS_S) == sorted(LATENCY_BOUNDS_S)
        assert list(COUNT_BOUNDS) == sorted(COUNT_BOUNDS)
        assert Histogram("a").bounds == LATENCY_BOUNDS_S

    def test_snapshot_sections_sorted_and_canonical(self):
        reg = Registry()
        reg.counter("z.last").inc()
        reg.counter("a.first").inc(2)
        reg.gauge("m.depth").set(3)
        reg.histogram("h.lat").observe(0.25)
        snap = reg.snapshot()
        assert list(snap) == ["counters", "gauges", "histograms", "spans"]
        assert list(snap["counters"]) == ["a.first", "z.last"]
        json.dumps(snap, sort_keys=True)

    def test_identical_streams_in_separate_processes_snapshot_identically(
        self,
    ):
        """Two processes observing the same values produce byte-equal
        snapshot JSON — the property that makes snapshots mergeable."""
        program = (
            "import json\n"
            "from repro.obs.metrics import Registry\n"
            "reg = Registry()\n"
            "h = reg.histogram('serve.verb.submit')\n"
            "for v in (1e-6, 3e-4, 0.02, 0.02, 7.5, 123.0):\n"
            "    h.observe(v)\n"
            "reg.counter('engine.steps').inc(17)\n"
            "print(json.dumps(reg.snapshot(), sort_keys=True))\n"
        )
        outputs = [
            subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for _ in range(2)
        ]
        assert outputs[0] == outputs[1]
        local = Registry()
        h = local.histogram("serve.verb.submit")
        for v in (1e-6, 3e-4, 0.02, 0.02, 7.5, 123.0):
            h.observe(v)
        local.counter("engine.steps").inc(17)
        assert json.dumps(local.snapshot(), sort_keys=True) == outputs[0].strip()

    def test_merge_snapshots_unions_sections(self):
        a = Registry()
        a.counter("only.a").inc()
        b = Registry()
        b.counter("only.b").inc(2)
        b.gauge("depth").set(5)
        merged = merge_snapshots(a.snapshot(), b.snapshot())
        assert merged["counters"] == {"only.a": 1, "only.b": 2}
        assert merged["gauges"] == {"depth": 5}


class TestRenderings:
    def _snapshot(self) -> dict:
        reg = Registry()
        reg.counter("engine.steps").inc(3)
        reg.gauge("serve.queue_depth").set(2)
        reg.histogram("serve.verb.submit", (0.1, 1.0)).observe(0.5)
        rec = obs.SpanRecorder(reg)
        rec.record("engine.step.observation", 0.25)
        return reg.snapshot()

    def test_table_lists_every_section(self):
        text = render_table(self._snapshot())
        for fragment in (
            "engine.steps",
            "serve.queue_depth",
            "serve.verb.submit",
            "engine.step.observation",
        ):
            assert fragment in text

    def test_prometheus_exposition(self):
        text = render_prometheus(self._snapshot())
        assert "# TYPE repro_engine_steps counter" in text
        assert "repro_engine_steps 3.0" in text
        assert "# TYPE repro_serve_queue_depth gauge" in text
        assert '# TYPE repro_serve_verb_submit histogram' in text
        assert 'repro_serve_verb_submit_bucket{le="+Inf"} 1' in text
        assert "repro_serve_verb_submit_count 1" in text
        assert "repro_engine_step_observation_span_seconds_count 1" in text

    def test_empty_snapshot_renders(self):
        assert render_table(Registry().snapshot()) == "(empty snapshot)"
        assert render_prometheus(Registry().snapshot()) == ""
