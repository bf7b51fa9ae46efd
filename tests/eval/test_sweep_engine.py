"""Tests for the sweep engine: cell dispatch, field cache, process fan-out."""

import math
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from repro.common.errors import ConfigurationError, EvaluationError
from repro.core.config import MclConfig
from repro.dataset.recorder import RecordedSequence
from repro.eval.aggregate import SweepProtocol, run_sweep
from repro.eval.bench import compare_backends, write_backend_report
from repro.eval.sweep_engine import (
    DistanceFieldCache,
    SweepEngine,
    _cell_specs,
    _pool_tasks,
)
from repro.maps.distance_field import FieldKind
from repro.maps.maze import generate_maze
from repro.maps.planning import plan_tour, snap_to_clearance
from repro.vehicle.crazyflie import CrazyflieSimulator, SimConfig


#: Two short generated worlds; their .npz caches live in the session's
#: tmp data dir, so every scenario test after the first loads them.
SCENARIOS = ("corridor:2:flight_s=6.0", "office:1:flight_s=6.0")


@pytest.fixture(scope="module")
def mini_world():
    grid = generate_maze(size_m=3.0, cells=4, seed=5)
    stops = [
        snap_to_clearance(grid, point, 0.15)
        for point in [(0.4, 0.4), (2.6, 0.4), (2.6, 2.6), (1.5, 1.5)]
    ]
    route = plan_tour(grid, stops, clearance_m=0.15)
    sim = CrazyflieSimulator(grid, route, seed=11, config=SimConfig(max_duration_s=30))
    return grid, RecordedSequence.from_sim_steps("mini", sim.run())


@pytest.fixture
def inline_pool(monkeypatch):
    """Stand in for the process pool: run each task in process at submit.

    Returns the submitted tasks' arguments, ``(world, cells, backend)``,
    in submission order.  Worker caches start empty and are restored.
    """
    import repro.eval.sweep_engine as sweep_engine

    submitted = []

    class InlinePool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def submit(self, fn, *args):
            submitted.append(args)
            future = Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(sweep_engine, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(sweep_engine, "_WORKER_BACKENDS", {})
    monkeypatch.setattr(sweep_engine, "_WORKER_FIELD_CACHE", DistanceFieldCache())
    return submitted


def _marking_task(world, cells, backend):
    """Stand-in for a pool task: take 50 ms, then leave a file named by
    its world to show that it ran."""
    time.sleep(0.05)
    Path(world).touch()
    return [(index, []) for index, __, __ in cells]


def _cell_signatures(result):
    signatures = {}
    for key, cell in result.cells.items():
        signatures[key] = [
            (
                run.sequence_name,
                run.seed,
                run.update_count,
                None if math.isnan(run.metrics.ate_mean_m) else run.metrics.ate_mean_m,
            )
            for run in sorted(cell.runs, key=lambda r: (r.sequence_name, r.seed))
        ]
    return signatures


def _assert_fanout_matches_inline(backend, grid, sequence):
    protocol = SweepProtocol(sequence_count=1, seeds=(0, 1))
    inline = SweepEngine(backend=backend, jobs=1).run(
        grid, [sequence], ["fp32"], [64, 128], protocol=protocol
    )
    fanned = SweepEngine(backend=backend, jobs=2).run(
        grid, [sequence], ["fp32"], [64, 128], protocol=protocol
    )
    assert _cell_signatures(inline) == _cell_signatures(fanned)


def _assert_scenario_fanout_matches_inline(scenarios, backend):
    # Scenario sweeps fan out at (scenario, cell) granularity; the
    # reassembled per-scenario results must match the sequential path
    # run for run (mirrors _assert_fanout_matches_inline).
    protocol = SweepProtocol(sequence_count=1, seeds=(0, 1))
    inline = SweepEngine(backend=backend, jobs=1).run_scenarios(
        scenarios, ["fp32"], [16, 32], protocol=protocol
    )
    fanned = SweepEngine(backend=backend, jobs=2).run_scenarios(
        scenarios, ["fp32"], [16, 32], protocol=protocol
    )
    assert list(inline) == list(fanned)  # same scenarios, same order
    for scenario_id in inline:
        assert _cell_signatures(inline[scenario_id]) == _cell_signatures(
            fanned[scenario_id]
        )


class TestDistanceFieldCache:
    def test_identical_content_shares_one_field(self, mini_world):
        grid, __ = mini_world
        twin = generate_maze(size_m=3.0, cells=4, seed=5)  # equal content
        cache = DistanceFieldCache()
        first = cache.get(grid, 1.5, FieldKind.FLOAT32)
        second = cache.get(twin, 1.5, FieldKind.FLOAT32)
        assert first is second
        assert cache.misses == 1
        assert cache.hits == 1
        assert len(cache) == 1

    def test_distinct_keys_build_distinct_fields(self, mini_world):
        grid, __ = mini_world
        cache = DistanceFieldCache()
        a = cache.get(grid, 1.5, FieldKind.FLOAT32)
        b = cache.get(grid, 1.5, FieldKind.QUANTIZED_U8)
        c = cache.get(grid, 2.0, FieldKind.FLOAT32)
        assert len({id(a), id(b), id(c)}) == 3
        assert cache.misses == 3


class TestSweepEngine:
    def test_backends_produce_identical_sweeps(self, mini_world):
        grid, sequence = mini_world
        protocol = SweepProtocol(sequence_count=1, seeds=(0, 1, 2))
        results = {}
        for backend in ("reference", "fast"):
            engine = SweepEngine(backend=backend)
            results[backend] = engine.run(
                grid, [sequence], ["fp32", "fp16qm"], [64, 128], protocol=protocol
            )
        assert _cell_signatures(results["reference"]) == _cell_signatures(
            results["fast"]
        )

    def test_field_cache_shared_across_cells(self, mini_world):
        grid, sequence = mini_world
        engine = SweepEngine(backend="fast")
        protocol = SweepProtocol(sequence_count=1, seeds=(0,))
        engine.run(grid, [sequence], ["fp32", "fp32qm", "fp16qm"], [64, 128],
                   protocol=protocol)
        # Three variants over two counts need exactly two field kinds.
        assert len(engine.field_cache) == 2
        assert engine.field_cache.misses == 2

    def test_process_fanout_matches_inline(self, mini_world):
        _assert_fanout_matches_inline("fast", *mini_world)

    def test_process_fanout_matches_inline_on_fast(self, mini_world, fast_backend):
        # The instance holds the C provider's cffi library, which cannot
        # be pickled: only its name may cross the pool.
        _assert_fanout_matches_inline(fast_backend, *mini_world)

    def test_scenario_fanout_matches_inline(self):
        _assert_scenario_fanout_matches_inline(SCENARIOS, "fast")

    def test_scenario_fanout_matches_inline_on_fast(self, fast_backend):
        _assert_scenario_fanout_matches_inline(SCENARIOS, fast_backend)

    def test_scenario_fanout_pickles_in_memory_worlds(self):
        # An in-memory Scenario rides next to a registry id in one pool;
        # with only in-memory Scenarios every world is pickled into its
        # tasks.
        from repro.scenarios.registry import build_scenario

        corridor, office = (build_scenario(spec) for spec in SCENARIOS)
        _assert_scenario_fanout_matches_inline([SCENARIOS[0], office], "fast")
        _assert_scenario_fanout_matches_inline([corridor, office], "fast")

    def test_worker_task_resolves_one_backend_per_process(self, monkeypatch):
        # A scenario task resolves the backend once, loads the scenario
        # once and builds each distinct field once; a later task in the
        # same worker reuses the backend and the fields.
        import repro.eval.sweep_engine as sweep_engine
        import repro.scenarios.registry as registry
        from repro.engine.backend import get_backend

        resolved, loaded = [], []
        build_scenario = registry.build_scenario

        def resolve(name):
            resolved.append(get_backend(name))
            return resolved[-1]

        def load(spec, cache=True):
            loaded.append(spec)
            return build_scenario(spec, cache=cache)

        monkeypatch.setattr(sweep_engine, "get_backend", resolve)
        monkeypatch.setattr(registry, "build_scenario", load)
        monkeypatch.setattr(sweep_engine, "_WORKER_BACKENDS", {})
        monkeypatch.setattr(sweep_engine, "_WORKER_FIELD_CACHE", DistanceFieldCache())
        cells = _cell_specs(MclConfig(), ["fp32", "fp16qm"], [16, 32])
        task = [(index, (0,), cell) for index, cell in enumerate(cells)]
        world = SCENARIOS[0]
        results = sweep_engine._run_task(world, task, "fast")
        assert [index for index, __ in results] == [0, 1, 2, 3]
        assert all(len(runs) == 1 for __, runs in results)
        assert (len(resolved), loaded) == (1, [world])
        assert sweep_engine._WORKER_FIELD_CACHE.misses == 2  # two field kinds
        sweep_engine._run_task(world, task[2:], "fast")
        assert (len(resolved), loaded) == (1, [world, world])
        assert sweep_engine._WORKER_FIELD_CACHE.misses == 2

    def test_one_job_holds_one_scenario_at_a_time(self, monkeypatch):
        # jobs=1 loads each scenario in its own task: once the backend
        # keeps one replay plan, the first flight is gone before the
        # third scenario loads.
        import gc
        import weakref

        import repro.engine.batched as batched
        import repro.scenarios.registry as registry

        monkeypatch.setattr(batched, "_PLAN_CACHE_LIMIT", 1)
        build_scenario = registry.build_scenario
        flights, alive = [], []

        def track_flight(spec, cache=True):
            gc.collect()
            alive.append([flight() is not None for flight in flights])
            scenario = build_scenario(spec, cache=cache)
            flights.append(weakref.ref(scenario.sequence))
            return scenario

        monkeypatch.setattr(registry, "build_scenario", track_flight)
        results = SweepEngine(backend="fast").run_scenarios(
            SCENARIOS + ("corridor:3:flight_s=6.0",),
            ["fp32"],
            [16],
            protocol=SweepProtocol(sequence_count=1, seeds=(0,)),
        )
        assert len(results) == len(flights) == 3
        assert alive[2][0] is False

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_each_scenario_is_one_pool_task(self, inline_pool, jobs):
        # Each scenario's cells are one task, in grid order, and the
        # results equal jobs=1.  Three scenarios are three tasks at
        # jobs=3; at jobs=2 the third one, which whole tasks would leave
        # to one worker, splits into one half per worker.
        scenarios = SCENARIOS + ("corridor:3:flight_s=6.0",)
        protocol = SweepProtocol(sequence_count=1, seeds=(0,))
        grid = (["fp32", "fp16qm"], [16, 32])
        fanned = SweepEngine(backend="fast", jobs=jobs).run_scenarios(
            scenarios, *grid, protocol=protocol
        )
        cells = [("fp32", 16), ("fp32", 32), ("fp16qm", 16), ("fp16qm", 32)]
        tasks = [(world, cells) for world in scenarios]
        if jobs == 2:
            tasks[2:] = [(scenarios[2], cells[:2]), (scenarios[2], cells[2:])]
        assert [
            (world, [(cell.variant, cell.particle_count) for __, __, cell in part])
            for world, part, __ in inline_pool
        ] == tasks
        inline = SweepEngine(backend="fast").run_scenarios(
            scenarios, *grid, protocol=protocol
        )
        assert {key: _cell_signatures(value) for key, value in fanned.items()} == {
            key: _cell_signatures(value) for key, value in inline.items()
        }

    def test_pool_tasks_split_the_tail_into_contiguous_chunks(self, mini_world):
        cells = _cell_specs(MclConfig(), ["fp32", "fp16qm"], [16, 32])

        def shape(worlds, jobs):
            units = [(world, (0,), cell) for world in worlds for cell in cells]
            return [
                (world if isinstance(world, str) else "memory", [i for i, __, __ in part])
                for world, part in _pool_tasks(units, jobs)
            ]

        def whole(worlds):
            return [(world, list(range(4 * n, 4 * n + 4))) for n, world in enumerate(worlds)]

        # A multiple of jobs: one task per scenario.
        assert shape(list("abcd"), 2) == whole("abcd")
        assert shape(list("abc"), 3) == whole("abc")
        # The last ids % jobs scenarios split so their tasks are a
        # multiple of jobs: 2 halves, 4 quarters, 6 thirds.
        assert shape(["a"], 2) == [("a", [0, 1]), ("a", [2, 3])]
        assert shape(list("abc"), 2) == whole("ab") + [("c", [8, 9]), ("c", [10, 11])]
        assert shape(list("abcde"), 4) == whole("abcd") + [
            ("e", [index]) for index in range(16, 20)
        ]
        assert shape(["a", "b"], 3) == [
            ("a", [0]), ("a", [1]), ("a", [2, 3]), ("b", [4]), ("b", [5]), ("b", [6, 7])
        ]
        # At most one chunk per cell.
        assert shape(["a"], 8) == [("a", [index]) for index in range(4)]
        # In-memory worlds keep one task per cell, beside scenario tasks.
        assert shape([mini_world, "a"], 1) == [
            ("memory", [0]), ("memory", [1]), ("memory", [2]), ("memory", [3]),
            ("a", [4, 5, 6, 7]),
        ]

    def test_closing_early_cancels_queued_tasks(self, tmp_path, monkeypatch):
        # A consumer that stops after the first result (run_campaign's
        # closing() when a put raises, or Ctrl-C) must not wait for every
        # queued task: only those a worker already took still run.
        import repro.eval.sweep_engine as sweep_engine

        monkeypatch.setattr(sweep_engine, "_run_task", _marking_task)
        worlds = [str(tmp_path / f"task-{index:02d}") for index in range(48)]
        results = sweep_engine.fan_out(
            [(world, (0,), None) for world in worlds], "reference", jobs=2
        )
        next(results)
        results.close()
        ran = len(list(tmp_path.iterdir()))
        assert 1 <= ran < len(worlds) // 2

    def test_unresolvable_backend_instance_rejected_before_fanout(
        self, mini_world, monkeypatch
    ):
        import repro.eval.sweep_engine as sweep_engine
        from repro.engine.backend import get_backend

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool started for an unresolvable backend")

        monkeypatch.setattr(sweep_engine, "ProcessPoolExecutor", no_pool)
        backend = get_backend("fast")
        backend.name = "quantum"
        grid, sequence = mini_world
        with pytest.raises(ConfigurationError, match="quantum"):
            SweepEngine(backend=backend, jobs=2).run(grid, [sequence], ["fp32"], [16])

    def test_scenario_sweep_dedupes_specs(self):
        protocol = SweepProtocol(sequence_count=1, seeds=(0,))
        results = SweepEngine(backend="fast").run_scenarios(
            ["corridor:2:flight_s=6.0", "corridor:2:flight_s=6.0"],
            ["fp32"],
            [16],
            protocol=protocol,
        )
        assert list(results) == ["corridor:2:flight_s=6.0"]

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepEngine(jobs=0)

    def test_unknown_backend_rejected_eagerly(self):
        with pytest.raises(ConfigurationError):
            SweepEngine(backend="quantum")

    def test_progress_messages_per_run(self, mini_world):
        grid, sequence = mini_world
        messages = []
        run_sweep(
            grid,
            [sequence],
            ["fp32"],
            [64],
            protocol=SweepProtocol(sequence_count=1, seeds=(0, 1)),
            progress=messages.append,
            backend="fast",
        )
        assert len(messages) == 2
        assert all("fp32 N=64" in message for message in messages)

    def test_empty_sequences_rejected(self, mini_world):
        grid, __ = mini_world
        with pytest.raises(EvaluationError):
            SweepEngine().run(grid, [], ["fp32"], [64])


class TestCompareBackends:
    def test_report_structure_and_equivalence(self, mini_world, tmp_path):
        grid, sequence = mini_world
        report = compare_backends(
            grid,
            [sequence],
            variants=["fp32"],
            particle_counts=[64],
            protocol=SweepProtocol(sequence_count=1, seeds=(0, 1)),
        )
        assert report["equivalent"] is True
        # The default comparison is reference, plus fast where its C
        # kernels load; the report names the provider either way.
        assert set(report["timings"]) == set(report["backends"])
        assert report["provider"] in ("c", "reference")
        fast = report["provider"] == "c"
        assert report["backends"] == (["reference", "fast"] if fast else ["reference"])
        assert report["timings"]["reference"]["total_s"] > 0
        assert ("fast" in report["speedup_vs_reference"]) == fast
        assert report["cpu_count"] >= 1

        path = write_backend_report(report, tmp_path / "BENCH_backends.json")
        assert path.exists()
        import json

        loaded = json.loads(path.read_text())
        assert loaded["backends"] == report["backends"]

    def test_explicit_backend_selection(self, mini_world):
        grid, sequence = mini_world
        report = compare_backends(
            grid,
            [sequence],
            variants=["fp32"],
            particle_counts=[64],
            protocol=SweepProtocol(sequence_count=1, seeds=(0,)),
            backends=("reference", "fast"),
            jobs=1,
        )
        assert report["backends"] == ["reference", "fast"]
        assert set(report["timings"]) == {"reference", "fast"}
        assert "parallel" not in report

    def test_ablated_r_max_uses_its_own_field(self, mini_world):
        # The bench must resolve distance fields per cell (kind, r_max),
        # like SweepEngine.run — an r_max-ablated spec executed against
        # the base config's truncation would silently change results
        # while still reporting "equivalent" (both backends sharing the
        # same wrong field).
        grid, sequence = mini_world
        spec = "fp32+r_max=0.5"
        protocol = SweepProtocol(sequence_count=1, seeds=(0,))
        report = compare_backends(
            grid, [sequence], variants=[spec], particle_counts=[64],
            protocol=protocol,
        )
        assert report["equivalent"] is True

        sweep = SweepEngine(backend="reference").run(
            grid, [sequence], [spec], [64], protocol=protocol
        )
        run = sweep.cells[(spec, 64)].runs[0]
        from repro.eval.bench import _run_signature

        # Re-derive the bench's cell result the way compare_backends
        # does and pin it to the sweep engine's.
        from repro.engine.backend import get_backend
        from repro.eval.sweep_engine import _cell_specs, _execute_cell

        cell = _cell_specs(MclConfig(), [spec], [64])[0]
        assert cell.config.r_max == 0.5
        field = DistanceFieldCache().get(grid, cell.config.r_max, cell.field_kind)
        bench_run = _execute_cell(
            grid, [sequence], protocol.seeds, cell, field,
            get_backend("reference"),
        )[0]
        assert _run_signature(bench_run) == _run_signature(run)
