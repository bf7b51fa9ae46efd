"""Micro-benchmarks of the numpy MCL kernels (host-side timings).

Complementary to the GAP9 latency model: these measure the *Python
implementation's* per-step cost with pytest-benchmark so regressions in
the vectorized kernels are caught.  Absolute numbers are host-dependent
and not comparable to Table I — the structure (observation dominating,
resampling cheap) is.

Each kernel's timing summary is also written to
``results/BENCH_kernels.json`` so CI can archive per-commit numbers.

``test_update_stages`` measures the ``fast`` backend's own update: a
one-row stack stepped over the fired steps of committed sequence 0 at
N in {64, 256, 1024} with telemetry on.  Each ``engine.step.*`` span
(the Table I stages of :class:`repro.soc.perf.MclStep`) is reported in
ns per particle-update, next to
:meth:`repro.soc.perf.Gap9PerfModel.step_time_per_particle_ns`, with
the rest of the step (the Python around the four stage spans) as
``outside_stages``.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.common.geometry import Pose2D
from repro.common.rng import make_rng
from repro.core.config import MclConfig
from repro.core.motion import apply_motion_model
from repro.core.observation import apply_observation_model, extract_beams
from repro.core.particles import ParticleSet
from repro.core.pose_estimate import estimate_pose
from repro.core.resampling import (
    draw_wheel_offset,
    parallel_systematic_resample,
    systematic_resample,
)
from repro.dataset.sequences import load_sequence
from repro.engine.backend import RunSpec, StepWork
from repro.maps.distance_field import DistanceField
from repro.maps.edt import euclidean_distance_field
from repro.maps.maze import build_drone_maze_world, main_drone_maze
from repro.sensors.tof import TofSensor, TofSensorSpec

N_PARTICLES = 4096

#: Particle counts of the per-stage breakdown, and its timed passes (the
#: best pass of each stage is reported).
STAGE_PARTICLE_COUNTS = (64, 256, 1024)
STAGE_PASSES = 5

#: Per-kernel timing summaries collected by :func:`_record`, flushed to
#: ``results/BENCH_kernels.json`` when the module finishes.
_RESULTS: dict[str, dict] = {}
#: The per-stage breakdown of :func:`test_update_stages`, flushed with them.
_STAGES: dict[str, dict] = {}


def _record(benchmark, name: str) -> None:
    """Stash one kernel's pytest-benchmark stats for the JSON report."""
    meta = getattr(benchmark, "stats", None)
    stats = getattr(meta, "stats", None)
    if stats is None:  # --benchmark-disable runs
        return
    _RESULTS[name] = {
        "mean_s": stats.mean,
        "min_s": stats.min,
        "stddev_s": stats.stddev,
        "rounds": len(stats.data),
    }


@pytest.fixture(scope="module", autouse=True)
def _kernel_report():
    yield
    if not _RESULTS and not _STAGES:
        return
    from repro.viz.export import results_directory

    path = results_directory() / "BENCH_kernels.json"
    payload = {"n_particles": N_PARTICLES, "kernels": dict(sorted(_RESULTS.items()))}
    if _STAGES:
        payload["update_stages"] = _STAGES
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"\nkernel report: {path}")


@pytest.fixture(scope="module")
def world():
    return build_drone_maze_world()


@pytest.fixture(scope="module")
def field(world):
    return DistanceField.build(world.grid, 1.5)


@pytest.fixture(scope="module")
def populated_particles(world):
    particles = ParticleSet(N_PARTICLES)
    particles.init_uniform(world.grid, make_rng(0, "bench"))
    return particles


@pytest.fixture(scope="module")
def beam_bundle(world):
    pose = Pose2D(world.main.origin_x + 2.0, world.main.origin_y + 0.5, 0.3)
    spec = TofSensorSpec(interference_prob=0.0, edge_row_dropout_prob=0.0)
    frame = TofSensor(spec, "tof-front", make_rng(1, "bench")).measure(
        world.grid, pose, 0.0
    )
    return extract_beams([frame], MclConfig(particle_count=N_PARTICLES))


def test_kernel_observation(benchmark, populated_particles, beam_bundle, field):
    config = MclConfig(particle_count=N_PARTICLES)

    def run():
        apply_observation_model(populated_particles, beam_bundle, field, config)

    benchmark(run)
    _record(benchmark, "observation")


def test_kernel_motion(benchmark, populated_particles):
    config = MclConfig(particle_count=N_PARTICLES)
    rng = make_rng(2, "bench")
    increment = Pose2D(0.1, 0.0, 0.05)

    def run():
        apply_motion_model(populated_particles, increment, config, rng)

    benchmark(run)
    _record(benchmark, "motion")


def test_kernel_resampling_serial(benchmark):
    rng = make_rng(3, "bench")
    weights = rng.random(N_PARTICLES) + 1e-9
    u0 = draw_wheel_offset(rng, N_PARTICLES)
    benchmark(lambda: systematic_resample(weights, u0))
    _record(benchmark, "resampling_serial")


def test_kernel_resampling_parallel_wheel(benchmark):
    rng = make_rng(4, "bench")
    weights = rng.random(N_PARTICLES) + 1e-9
    u0 = draw_wheel_offset(rng, N_PARTICLES)
    benchmark(lambda: parallel_systematic_resample(weights, u0, 8))
    _record(benchmark, "resampling_parallel_wheel")


def test_kernel_pose_estimate(benchmark, populated_particles):
    benchmark(lambda: estimate_pose(populated_particles))
    _record(benchmark, "pose_estimate")


def test_kernel_edt_build(benchmark):
    grid = main_drone_maze()
    benchmark.pedantic(
        lambda: euclidean_distance_field(grid, r_max=1.5), rounds=3, iterations=1
    )
    _record(benchmark, "edt_build")


def test_kernel_particle_gather(benchmark, populated_particles):
    rng = make_rng(5, "bench")
    indices = rng.integers(0, N_PARTICLES, size=N_PARTICLES)

    def run():
        populated_particles.swap_from_indices(indices)

    benchmark(run)
    _record(benchmark, "particle_gather")


def test_update_stages(world):
    """Where a ``fast`` update goes: each stage span's best pass over
    sequence 0's fired steps, in ns per particle-update, beside the GAP9
    model's time for that stage."""
    from repro import obs
    from repro.engine import get_backend
    from repro.soc.perf import PIPELINE_OVERHEAD_NS, Gap9PerfModel, MclStep

    backend = get_backend("fast")
    if backend.name != "fast":
        pytest.skip("the fast backend fell back to reference (no cffi or C compiler)")
    sequence = load_sequence(0, world)
    model = Gap9PerfModel()
    by_count = {}
    for count in STAGE_PARTICLE_COUNTS:
        config = MclConfig(particle_count=count)
        field = DistanceField.build_for_mode(world.grid, config.r_max, config.precision)
        work = [
            [StepWork(rows=[0], step=step, field=field)]
            for step in backend.plan(sequence, config).steps
            if step.fires
        ]
        stack = backend.open_stack(config, 1)
        stages = {step.value: float("inf") for step in MclStep}
        outside = float("inf")
        for attempt in range(STAGE_PASSES + 1):  # the first pass is a warm-up
            stack.init_row(0, world.grid, RunSpec(sequence, 0))
            obs.reset()
            obs.enable()
            try:
                started = time.perf_counter()
                for items in work:
                    stack.step(items)
                wall = time.perf_counter() - started
                spans = obs.snapshot()["spans"]
            finally:
                obs.reset()
            if not attempt:
                continue
            scale = 1e9 / (len(work) * count)
            inside = 0.0
            for name in stages:
                total = spans[f"engine.step.{name}"]["total_s"]
                stages[name] = min(stages[name], total * scale)
                inside += total
            outside = min(outside, (wall - inside) * scale)
        by_count[f"n{count}"] = {
            "updates": len(work),
            "host_ns": {**stages, "outside_stages": outside},
            "gap9_ns": {
                **{
                    step.value: model.step_time_per_particle_ns(step, count)
                    for step in MclStep
                },
                "pipeline_overhead": PIPELINE_OVERHEAD_NS / count,
            },
        }
    _STAGES.update(
        {
            "sequence": sequence.name,
            "rows": 1,
            "passes": STAGE_PASSES,
            "provider": backend.provider_name,
            "cpu_count": os.cpu_count() or 1,
            "ns_per_particle_update": by_count,
        }
    )
    assert all(
        value > 0 for entry in by_count.values() for value in entry["host_ns"].values()
    )
