"""The process-global obs seam: enable/disable, spans, timers, events."""

from __future__ import annotations

import json

from repro import obs
from repro.obs.metrics import NULL_COUNTER, NULL_GAUGE, NULL_HISTOGRAM
from repro.obs.tracing import NULL_SPAN


class TestDisabledIsFree:
    def test_accessors_hand_out_shared_singletons(self):
        # Identity, not equality: the disabled hot path must not
        # allocate per call.
        assert obs.counter("engine.steps") is NULL_COUNTER
        assert obs.gauge("serve.queue_depth") is NULL_GAUGE
        assert obs.histogram("serve.verb.submit") is NULL_HISTOGRAM
        assert obs.span("engine.step.observation") is NULL_SPAN
        assert not obs.enabled()

    def test_null_operations_are_inert(self):
        obs.counter("a").inc(100)
        obs.gauge("b").set(9)
        obs.histogram("c").observe(1.0)
        with obs.span("d") as span:
            pass
        assert span.elapsed_s == 0.0
        obs.event("e", detail=1)  # no event log: swallowed
        assert obs.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "spans": {},
        }

    def test_null_span_is_reentrant(self):
        outer = obs.span("x")
        with outer:
            with obs.span("x"):
                pass

    def test_timer_measures_even_when_disabled(self):
        with obs.timed("cli.serve_sim") as timer:
            sum(range(1000))
        assert timer.elapsed_s > 0.0
        assert obs.snapshot()["spans"] == {}  # measured, not recorded


class TestEnabledRegistry:
    def test_enable_records_and_disable_reverts(self):
        obs.enable()
        assert obs.enabled()
        obs.counter("engine.steps").inc(3)
        with obs.span("engine.step.observation"):
            pass
        snap = obs.snapshot()
        assert snap["counters"] == {"engine.steps": 3}
        assert snap["spans"]["engine.step.observation"]["count"] == 1
        obs.disable()
        assert obs.counter("engine.steps") is NULL_COUNTER
        assert obs.snapshot()["counters"] == {}

    def test_env_flag_latches_on_first_use(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        obs.reset()
        assert obs.enabled()
        obs.counter("x").inc()
        assert obs.snapshot()["counters"] == {"x": 1}

    def test_spans_nest_and_aggregate_by_name(self):
        registry = obs.enable()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
            with obs.span("inner"):
                pass
        snap = registry.snapshot()
        assert snap["spans"]["outer"]["count"] == 1
        assert snap["spans"]["inner"]["count"] == 2
        assert (
            snap["spans"]["outer"]["total_s"]
            >= snap["spans"]["inner"]["total_s"]
        )

    def test_timer_records_when_enabled(self):
        obs.enable()
        with obs.timed("cli.serve_sim"):
            pass
        assert obs.snapshot()["spans"]["cli.serve_sim"]["count"] == 1


class TestEventLog:
    def test_obs_dir_env_implies_enable_and_writes_jsonl(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        obs.reset()
        assert obs.enabled()
        assert obs.events_dir() is not None
        obs.event("sweep.cell", variant="fp32", runs=2)
        obs.event("serve.migrate.out", session="s-1")
        obs.reset()  # closes + flushes the log
        events = list(obs.read_events(tmp_path))
        assert [e["event"] for e in events] == [
            "sweep.cell",
            "serve.migrate.out",
        ]
        assert events[0]["variant"] == "fp32"
        assert all("ts" in e for e in events)

    def test_events_are_canonical_json_lines(self, tmp_path):
        obs.enable(tmp_path)
        obs.event("a", zebra=1, alpha=2)
        obs.reset()
        (line,) = [
            line
            for path in tmp_path.glob("events-*.jsonl")
            for line in path.read_text().splitlines()
        ]
        assert line == json.dumps(json.loads(line), sort_keys=True)

    def test_malformed_lines_are_skipped(self, tmp_path):
        obs.enable(tmp_path)
        obs.event("good")
        obs.reset()
        (path,) = tmp_path.glob("events-*.jsonl")
        with path.open("a", encoding="utf-8") as handle:
            handle.write("{torn write\n")
        assert [e["event"] for e in obs.read_events(tmp_path)] == ["good"]


class TestLocalObs:
    def test_instances_do_not_cross_talk(self):
        a, b = obs.LocalObs(), obs.LocalObs()
        a.counter("serve.ticks").inc(5)
        b.counter("serve.ticks").inc(1)
        assert a.counter("serve.ticks").value == 5
        assert b.counter("serve.ticks").value == 1
        assert obs.snapshot()["counters"] == {}  # global untouched

    def test_always_on_regardless_of_global_state(self):
        local = obs.LocalObs()
        with local.span("serve.verb.submit") as span:
            pass
        assert local.snapshot()["spans"]["serve.verb.submit"]["count"] == 1
        assert span.elapsed_s >= 0.0
