"""Backend equivalence: the stacked engine must match the reference.

The contract under test is strict: for matching seeds, the stacked
``fast`` backend (its C stages) produces **bitwise identical** per-run
estimate traces, error traces and metrics to running the reference
backend sequentially — for
every precision variant, for stacked runs over *different* sequences
(per-run gating masks), and for partial resampling (per-run wheel
offsets).  Exact equality is deliberate: particle filters amplify
one-ulp weight differences into divergent resampling decisions, so any
tolerance would eventually hide real nonequivalence.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro import obs
from repro.common.errors import ConfigurationError
from repro.core.config import MclConfig
from repro.dataset.recorder import RecordedSequence
from repro.engine import available_backends, get_backend
from repro.engine.backend import DEFAULT_BACKEND, RunSpec, StepWork
from repro.engine.replay import ReplayPlan, ReplayStep
from repro.engine.reference import ReferenceBackend
from repro.maps.distance_field import DistanceField
from repro.maps.maze import generate_maze
from repro.maps.planning import plan_tour, snap_to_clearance
from repro.vehicle.crazyflie import CrazyflieSimulator, SimConfig


def _fly(grid, stops, sim_seed, duration_s, name):
    route = plan_tour(
        grid,
        [snap_to_clearance(grid, point, 0.15) for point in stops],
        clearance_m=0.15,
    )
    sim = CrazyflieSimulator(
        grid, route, seed=sim_seed, config=SimConfig(max_duration_s=duration_s)
    )
    return RecordedSequence.from_sim_steps(name, sim.run())


@pytest.fixture(scope="module")
def mini_world():
    """A small maze plus two flights of *different* lengths.

    Distinct sequences in one batch exercise the per-run gating masks:
    runs fire at different instants and one trace ends early.
    """
    grid = generate_maze(size_m=3.0, cells=4, seed=5)
    long_flight = _fly(
        grid, [(0.4, 0.4), (2.6, 0.4), (2.6, 2.6), (0.4, 2.6)], 11, 40, "mini-long"
    )
    short_flight = _fly(grid, [(2.6, 2.6), (0.4, 0.4), (1.5, 1.5)], 13, 20, "mini-short")
    assert len(long_flight) != len(short_flight)
    return grid, long_flight, short_flight


def _assert_traces_identical(reference, stacked):
    assert len(reference) == len(stacked)
    for ref, bat in zip(reference, stacked):
        assert ref.update_count == bat.update_count
        np.testing.assert_array_equal(ref.timestamps, bat.timestamps)
        np.testing.assert_array_equal(ref.position_errors, bat.position_errors)
        np.testing.assert_array_equal(ref.yaw_errors, bat.yaw_errors)
        np.testing.assert_array_equal(ref.estimate_trace, bat.estimate_trace)


def _assert_shadows_exact(stack):
    """Bitwise: ``shadow == stored.astype(float64)``, ``cos64/sin64 ==
    np.cos/sin(theta64)``."""
    pairs = [
        (stack.x64, stack.x.astype(np.float64)),
        (stack.y64, stack.y.astype(np.float64)),
        (stack.theta64, stack.theta.astype(np.float64)),
        (stack.w64, stack.weights.astype(np.float64)),
        (stack.cos64, np.cos(stack.theta64)),
        (stack.sin64, np.sin(stack.theta64)),
    ]
    for shadow, expected in pairs:
        np.testing.assert_array_equal(shadow.view(np.uint64), expected.view(np.uint64))


def _row_bytes(stack, row):
    """Every byte of one stack row's state: stored arrays, shadows,
    estimate, update count and RNG position."""
    arrays = (
        stack.x,
        stack.y,
        stack.theta,
        stack.weights,
        stack.x64,
        stack.y64,
        stack.theta64,
        stack.w64,
        stack.cos64,
        stack.sin64,
    )
    return (
        [array[row].tobytes() for array in arrays],
        stack.estimate_array(row).tobytes(),
        stack.updates(row),
        stack.rngs[row].bit_generator.state,
    )


#: Work items of the row-addressing test, each item's rows and whether
#: its steps carry beams, with the id suffix of each set: sparse and
#: unsorted rows (bare variant ids), a contiguous unsorted block, a
#: contiguous ascending block, and an item without beams before one
#: with them.
ROW_SETS = [
    ("", [([5, 0, 3], True)]),
    ("-contiguous-unsorted", [([2, 0, 1], True)]),
    ("-contiguous-ascending", [([3, 4, 5], True)]),
    ("-split-one-blind", [([4, 1], False), ([2, 5], True)]),
]


def _metrics_signature(result):
    metrics = result.metrics
    return (
        metrics.converged,
        metrics.convergence_time_s,
        metrics.success,
        None if math.isnan(metrics.ate_mean_m) else metrics.ate_mean_m,
        None if math.isnan(metrics.yaw_mean_rad) else metrics.yaw_mean_rad,
    )


class _StackEquivalence:
    """One suite for the stacked backend on its C stages:
    bitwise-identical traces and metrics to sequential reference runs.

    The subclasses below pin :attr:`backend_name` — ``fast`` and
    ``batched``, its older name — so the stack built under either name
    runs every test here.
    """

    backend_name: str

    @pytest.fixture
    def backend(self, fast_backend):
        if self.backend_name == "fast":
            return fast_backend
        return get_backend(self.backend_name)

    @pytest.mark.parametrize("variant", ["fp32", "fp321tof", "fp32qm", "fp16qm"])
    def test_r6_stacked_runs_match_sequential_reference(
        self, mini_world, backend, variant
    ):
        """R=6 stacked runs (2 sequences x 3 seeds) == 6 sequential runs."""
        grid, long_flight, short_flight = mini_world
        config = MclConfig(particle_count=128).with_variant(variant)
        field = DistanceField.build_for_mode(grid, config.r_max, config.precision)
        specs = [
            RunSpec(sequence, seed)
            for sequence in (long_flight, short_flight)
            for seed in (0, 1, 2)
        ]
        reference = ReferenceBackend().execute(grid, specs, config, field)
        stacked = backend.execute(grid, specs, config, field)
        _assert_traces_identical(reference, stacked)

    def test_metrics_identical_through_runner(self, mini_world, backend):
        """The evaluated RunResult metrics agree exactly, run by run."""
        from repro.eval.runner import run_localization_batch

        grid, long_flight, short_flight = mini_world
        config = MclConfig(particle_count=128).with_variant("fp16qm")
        field = DistanceField.build_for_mode(grid, config.r_max, config.precision)
        specs = [
            RunSpec(sequence, seed)
            for sequence in (long_flight, short_flight)
            for seed in (0, 1, 2)
        ]
        reference = run_localization_batch(grid, specs, config, field, "reference")
        stacked = run_localization_batch(grid, specs, config, field, backend)
        assert [_metrics_signature(r) for r in reference] == [
            _metrics_signature(s) for s in stacked
        ]

    def test_partial_resampling_row_offsets(self, mini_world, backend):
        """ESS-gated resampling fires per run — rows resample independently."""
        grid, long_flight, short_flight = mini_world
        config = dataclasses.replace(
            MclConfig(particle_count=128), resample_ess_fraction=0.5
        )
        field = DistanceField.build_for_mode(grid, config.r_max, config.precision)
        specs = [
            RunSpec(sequence, seed)
            for sequence in (long_flight, short_flight)
            for seed in (0, 1, 2)
        ]
        reference = ReferenceBackend().execute(grid, specs, config, field)
        stacked = backend.execute(grid, specs, config, field)
        _assert_traces_identical(reference, stacked)

    def test_plan_cache_reused_across_cells(self, mini_world, backend):
        """One backend instance re-serves plans to later cells unchanged."""
        grid, long_flight, __ = mini_world
        field = None
        results = []
        for count in (64, 128):
            config = MclConfig(particle_count=count)
            field = DistanceField.build_for_mode(grid, config.r_max, config.precision)
            results.append(
                backend.execute(grid, [RunSpec(long_flight, 0)], config, field)
            )
        assert len(backend._plans) == 1  # same sequence + signature -> one plan
        reference = ReferenceBackend().execute(
            grid, [RunSpec(long_flight, 0)], MclConfig(particle_count=128), field
        )
        _assert_traces_identical(reference, results[-1])

    @pytest.mark.parametrize("variant", ["fp32", "fp16qm"])
    def test_shadow_invariant(self, mini_world, backend, variant):
        """Every write keeps the float64 and trig shadows exact: after
        ``init_row``, a resampling ``step``, ``import_row`` and
        ``ensure_capacity``."""
        grid, long_flight, __ = mini_world
        # ESS <= N, so every observed row resamples at fraction 1.0.
        config = dataclasses.replace(
            MclConfig(particle_count=64).with_variant(variant),
            resample_ess_fraction=1.0,
        )
        field = DistanceField.build_for_mode(grid, config.r_max, config.precision)
        stack = backend.open_stack(config, 2)
        for row, seed in enumerate((0, 1)):
            stack.init_row(row, grid, RunSpec(long_flight, seed))
        _assert_shadows_exact(stack)

        plan = backend.plan(long_flight, config)
        step = next(s for s in plan.steps if s.fires and s.beams is not None)
        stack.step([StepWork(rows=[0, 1], step=step, field=field)])
        uniform = np.asarray(1.0 / config.particle_count, dtype=stack.dtype)
        assert (stack.weights == uniform).all(), "the step must resample"
        _assert_shadows_exact(stack)

        stack.import_row(1, stack.export_row(0))
        _assert_shadows_exact(stack)

        stack.ensure_capacity(5)
        _assert_shadows_exact(stack)

    @pytest.mark.parametrize(
        "variant, items",
        [
            pytest.param(variant, items, id=variant + suffix)
            for suffix, items in ROW_SETS
            for variant in ("fp32", "fp16qm")
        ],
    )
    def test_unsorted_sparse_rows_match_rows_stepped_alone(
        self, mini_world, backend, variant, items
    ):
        """Steps over some rows of a 6-row stack leave each of those rows
        with the bytes of that row stepped alone, and the other rows
        untouched: neither row order, nor the gaps between rows, nor a
        block of rows addressed as one slice, nor a work item without
        beams before one with them reaches any row's state.  ``items``
        lists each work item's rows and whether its steps carry beams."""
        grid, long_flight, __ = mini_world
        # At half the ESS the rows resample on different steps.
        config = dataclasses.replace(
            MclConfig(particle_count=64).with_variant(variant),
            resample_ess_fraction=0.5,
        )
        field = DistanceField.build_for_mode(grid, config.r_max, config.precision)
        steps = [step for step in backend.plan(long_flight, config).steps if step.fires]
        steps = steps[:12]

        def stepped(items, seeds):
            stack = backend.open_stack(config, len(seeds))
            for row, seed in enumerate(seeds):
                stack.init_row(row, grid, RunSpec(long_flight, seed))
            for step in steps:
                blind = ReplayStep(fires=True, pending=step.pending)
                stack.step(
                    [
                        StepWork(rows=rows, step=step if beams else blind, field=field)
                        for rows, beams in items
                    ]
                )
            return stack

        packed = stepped(items, range(6))
        for rows, beams in items:
            for row in rows:
                alone = stepped([([0], beams)], [row])
                assert _row_bytes(packed, row) == _row_bytes(alone, 0), row
        untouched = stepped([], range(6))
        listed = {row for rows, _ in items for row in rows}
        for row in set(range(6)) - listed:
            assert _row_bytes(packed, row) == _row_bytes(untouched, row), row

    def test_rows_outside_the_stack_are_rejected(self, mini_world, backend):
        """The C stages index the stack unchecked, so a step naming a row
        the stack does not have must fail before any stage runs; so must a
        step listing a row twice (in one work item or across two), which
        would be stepped twice but counted once."""
        grid, long_flight, __ = mini_world
        config = MclConfig(particle_count=64)
        field = DistanceField.build_for_mode(grid, config.r_max, config.precision)
        step = next(s for s in backend.plan(long_flight, config).steps if s.fires)
        stack = backend.open_stack(config, 2)
        for row in range(2):
            stack.init_row(row, grid, RunSpec(long_flight, row))
        before = [_row_bytes(stack, row) for row in range(2)]
        for items in ([[0, 2]], [[-1]], [[0, 0]], [[1], [0, 1]]):
            with pytest.raises(IndexError):
                stack.step(
                    [StepWork(rows=rows, step=step, field=field) for rows in items]
                )
        assert [_row_bytes(stack, row) for row in range(2)] == before

    def test_degenerate_weights_take_the_scalar_pose(self, mini_world, backend):
        """A row whose weights sum to zero (restored so) gets, after a step
        without beams, the estimate of the reference stack: the C pose
        stage flags the row and the scalar kernel's unweighted mean
        stands in."""
        grid, long_flight, __ = mini_world
        config = MclConfig(particle_count=64)
        step = next(s for s in ReplayPlan(long_flight, config).steps if s.fires)
        blind = ReplayStep(fires=True, pending=step.pending)
        source = ReferenceBackend().open_stack(config, 1)
        source.init_row(0, grid, RunSpec(long_flight, 0))
        snapshot = source.export_row(0)
        zero = np.zeros_like(snapshot.weights)
        snapshot = dataclasses.replace(snapshot, weights=zero)
        estimates = []
        for executor in (ReferenceBackend(), backend):
            stack = executor.open_stack(config, 2)
            stack.import_row(1, snapshot)
            stack.step([StepWork(rows=[1], step=blind, field=None)])
            estimates.append(stack.estimate_array(1).tobytes())
        assert estimates[0] == estimates[1]

    @staticmethod
    def _step_one_field_and_one_plan(executors, grid, flight):
        """Each executor's trace of two rows stepped through ``flight``'s
        fired steps, all on one field and one plan."""
        config = MclConfig(particle_count=64)
        field = DistanceField.build_for_mode(grid, config.r_max, config.precision)
        steps = [step for step in ReplayPlan(flight, config).steps if step.fires]
        traces = []
        for executor in executors:
            stack = executor.open_stack(config, 2)
            for row in range(2):
                stack.init_row(row, grid, RunSpec(flight, row))
            trace = []
            for step in steps:
                stack.step([StepWork(rows=[1, 0], step=step, field=field)])
                trace.append(stack.estimates.copy())
            traces.append(np.array(trace))
            assert field.c_tables is not None
        return traces

    def test_two_backends_step_one_field_and_one_plan(self, mini_world, backend):
        """Two ``fast`` backends, each on its own C provider over the
        process's one load of the library (one cffi FFI), step the same
        distance field and the same replay steps one after the other and
        give equal traces.  The field and the steps keep the C-wrapped
        tables and end points of the first backend that used them, and
        every later backend must take them, as two sweep engines sharing
        one field cache do."""
        grid, long_flight, __ = mini_world
        other = get_backend(self.backend_name)
        assert other.provider is not backend.provider
        assert other.provider._ffi is backend.provider._ffi
        assert other.provider._lib is backend.provider._lib
        first, second = self._step_one_field_and_one_plan((backend, other), grid, long_flight)
        np.testing.assert_array_equal(first, second)

    def test_a_library_on_another_ffi_steps_one_field_and_one_plan(
        self, mini_world, backend, tmp_path, monkeypatch
    ):
        """A backend built in another cache (so another library, loaded
        through another FFI, as a library built by another compiler is)
        takes the tables and end points the first backend's FFI wrapped,
        and gives its traces."""
        grid, long_flight, __ = mini_world
        monkeypatch.setenv("REPRO_FAST_CACHE", str(tmp_path / "other"))
        other = get_backend(self.backend_name)
        assert other.provider._ffi is not backend.provider._ffi
        assert other.provider._lib is not backend.provider._lib
        first, second = self._step_one_field_and_one_plan((backend, other), grid, long_flight)
        np.testing.assert_array_equal(first, second)


class TestBatchedEquivalence(_StackEquivalence):
    backend_name = "batched"


class TestFastEquivalence(_StackEquivalence):
    backend_name = "fast"


class TestProviderResolution:
    """How the default backend resolves: the C stages where cffi and a
    compiler are present, the reference backend where either is missing,
    and a configuration error where a present compiler fails."""

    @pytest.fixture
    def events(self, tmp_path, monkeypatch):
        """A fresh cache and telemetry registry logging to a fresh directory."""
        monkeypatch.setenv("REPRO_FAST_CACHE", str(tmp_path / "cache"))
        obs.reset()
        obs.enable(tmp_path / "events")
        yield tmp_path / "events"
        obs.reset()

    def _assert_reference_fallback(self, mini_world, events, missing):
        grid, long_flight, __ = mini_world
        backend = get_backend(DEFAULT_BACKEND)
        assert isinstance(backend, ReferenceBackend)
        config = MclConfig(particle_count=64)
        field = DistanceField.build_for_mode(grid, config.r_max, config.precision)
        specs = [RunSpec(long_flight, seed) for seed in (0, 1)]
        _assert_traces_identical(
            ReferenceBackend().execute(grid, specs, config, field),
            backend.execute(grid, specs, config, field),
        )
        assert "engine.provider.c" not in obs.snapshot()["counters"]
        fallbacks = [
            event
            for event in obs.read_events(events)
            if event["event"] == "engine.provider_fallback"
        ]
        assert [event["missing"] for event in fallbacks] == [missing]

    def test_missing_cffi_falls_back_to_reference(self, mini_world, events, monkeypatch):
        """Without cffi the default backend is the reference backend, with
        the same bits, and the fallback records why."""
        import builtins

        real_import = builtins.__import__

        def no_cffi(name, *args, **kwargs):
            if name == "cffi" or name.startswith("cffi."):
                raise ImportError("cffi intentionally unavailable")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", no_cffi)
        self._assert_reference_fallback(mini_world, events, "cffi")

    def test_missing_compiler_falls_back_to_reference(
        self, mini_world, events, tmp_path, monkeypatch
    ):
        """No compiler on PATH and no library cached for it: the same
        fallback, naming the compiler."""
        pytest.importorskip("cffi")
        monkeypatch.setenv("PATH", str(tmp_path))
        monkeypatch.setenv("CC", "repro-no-such-cc")
        self._assert_reference_fallback(mini_world, events, "repro-no-such-cc")

    @pytest.mark.parametrize("path", ["_bitgen_header", "_npyrandom_archive"])
    def test_missing_numpy_random_file_falls_back_to_reference(
        self, mini_world, events, tmp_path, monkeypatch, path
    ):
        """Without numpy's ``bitgen.h`` or ``libnpyrandom.a`` the library
        cannot be built: a missing dependency, not a broken build, so the
        same fallback, naming the missing file."""
        pytest.importorskip("cffi")
        from repro.engine import fast_c

        missing = tmp_path / "no-numpy-random" / getattr(fast_c, path)().name
        monkeypatch.setattr(fast_c, path, lambda: missing)
        self._assert_reference_fallback(mini_world, events, str(missing))

    def test_failing_compiler_is_configuration_error(
        self, events, request, monkeypatch
    ):
        """A compiler that exists but fails is a broken build, not an
        absent toolchain: no silent fallback, and no skip either."""
        pytest.importorskip("cffi")
        monkeypatch.setenv("CC", "false")
        with pytest.raises(ConfigurationError, match="failed to build"):
            get_backend("fast")
        assert "engine.provider.c" not in obs.snapshot()["counters"]
        with pytest.raises(ConfigurationError, match="failed to build"):
            try:
                request.getfixturevalue("fast_backend")
            except pytest.skip.Exception:
                pytest.fail("the fast_backend fixture skipped a broken build")

    def test_every_default_site_is_fast(self, monkeypatch):
        """Every entry point defaults to ``fast``."""
        import argparse
        import importlib.util
        import inspect
        from pathlib import Path

        from repro.cli import build_parser
        from repro.eval.aggregate import run_sweep
        from repro.eval.campaign import run_campaign
        from repro.eval.sweep_engine import SweepEngine
        from repro.serve.manager import SessionManager
        from repro.serve.online import OnlineServer
        from repro.serve.scheduler import StepScheduler

        assert DEFAULT_BACKEND == "fast"
        assert SweepEngine.__dataclass_fields__["backend"].default == "fast"
        for site in (run_sweep, run_campaign, StepScheduler, SessionManager, OnlineServer):
            default = inspect.signature(site).parameters["backend"].default
            assert default == "fast", site.__name__

        def backend_defaults(parser, path=()):
            for action in parser._actions:
                if action.dest == "backend":
                    yield " ".join(path), action.default
                if isinstance(action, argparse._SubParsersAction):
                    for name, child in action.choices.items():
                        yield from backend_defaults(child, path + (name,))

        defaults = dict(backend_defaults(build_parser()))
        # ``run`` replays one flight through the scalar oracle by design.
        assert defaults.pop("run") == "reference"
        assert defaults and set(defaults.values()) == {"fast"}, defaults

        conftest = Path(__file__).resolve().parents[2] / "benchmarks" / "conftest.py"
        spec = importlib.util.spec_from_file_location("_bench_conftest", conftest)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert module.current_backend() == "fast"


class TestScenarioEquivalence:
    """The contract extends to generated scenario worlds, not just the
    canonical maze: every scenario family must replay bitwise-identically
    through both backends (scenario sweeps depend on it)."""

    @pytest.fixture(scope="class")
    def scenarios(self):
        from repro.scenarios import ScenarioSpec, build_scenario

        return {
            family: build_scenario(ScenarioSpec.of(family, 1, flight_s=8.0))
            for family in ("office", "hall")
        }

    @pytest.mark.parametrize("family", ["office", "hall"])
    def test_scenario_stacks_match_sequential_reference(
        self, scenarios, family, fast_backend
    ):
        scenario = scenarios[family]
        config = MclConfig(particle_count=96)
        field = DistanceField.build_for_mode(
            scenario.grid, config.r_max, config.precision
        )
        specs = [RunSpec(scenario.sequence, seed) for seed in (0, 1, 2)]
        reference = ReferenceBackend().execute(scenario.grid, specs, config, field)
        stacked = fast_backend.execute(scenario.grid, specs, config, field)
        _assert_traces_identical(reference, stacked)

    def test_mixed_scenario_sequences_in_one_stack(self, scenarios, fast_backend):
        """Two different scenario flights stacked in one batch still match
        (per-run gating masks over sequences from *different* worlds is
        invalid — each batch shares one grid — so stack per-world)."""
        scenario = scenarios["office"]
        config = MclConfig(particle_count=96).with_variant("fp16qm")
        field = DistanceField.build_for_mode(
            scenario.grid, config.r_max, config.precision
        )
        specs = [RunSpec(scenario.sequence, seed) for seed in (3, 4)]
        reference = ReferenceBackend().execute(scenario.grid, specs, config, field)
        stacked = fast_backend.execute(scenario.grid, specs, config, field)
        _assert_traces_identical(reference, stacked)


class TestReplayPlan:
    def test_gating_trace_matches_sequence(self, mini_world):
        grid, long_flight, __ = mini_world
        config = MclConfig(particle_count=8)
        plan = ReplayPlan(long_flight, config)
        assert len(plan.steps) == len(long_flight)
        assert not plan.steps[0].fires  # zero pending motion cannot gate
        fired = [step for step in plan.steps if step.fires]
        assert fired, "a real flight must trigger updates"
        for step in fired:
            assert step.pending is not None

    def test_signature_separates_gating_configs(self):
        base = MclConfig()
        wide = dataclasses.replace(base, d_xy=0.5)
        assert ReplayPlan.signature(base) != ReplayPlan.signature(wide)
        assert ReplayPlan.signature(base) == ReplayPlan.signature(
            dataclasses.replace(base, particle_count=7)
        )


class TestBackendRegistry:
    def test_builtin_backends_listed(self):
        # "fast" always *lists* (construction may still raise
        # ConfigurationError when cffi or a C compiler is missing).
        assert available_backends() == ("batched", "fast", "reference")

    def test_get_backend_resolves_names(self):
        assert get_backend("reference").name == "reference"

    def test_batched_and_fast_build_the_same_class(self):
        """``batched`` is an older name of ``fast``: one factory, one
        class (the stacked backend, or ``reference`` on the fallback)."""
        assert type(get_backend("batched")) is type(get_backend("fast"))

    def test_get_backend_passthrough(self):
        backend = ReferenceBackend()
        assert get_backend(backend) is backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            get_backend("tpu")

    def test_empty_specs_are_trivial(self, mini_world, fast_backend):
        grid, __, __ = mini_world
        assert fast_backend.execute(grid, [], MclConfig(particle_count=8)) == []

    def test_field_resolution_mismatch_rejected(self, mini_world, fast_backend):
        grid, long_flight, __ = mini_world
        other = generate_maze(size_m=3.0, cells=4, seed=5)
        field = DistanceField.build(other, r_max=1.5)
        field.resolution = field.resolution * 2  # force a mismatch
        with pytest.raises(ConfigurationError):
            fast_backend.execute(
                grid, [RunSpec(long_flight, 0)], MclConfig(particle_count=8), field
            )
