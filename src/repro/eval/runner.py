"""Run MCL configurations over recorded sequences via a filter backend.

This module is the thin evaluation shim over the
:class:`~repro.engine.backend.FilterBackend` seam: it turns (sequence,
seed) pairs into :class:`~repro.engine.backend.RunSpec` batches, hands
them to the selected backend — ``reference`` replays one scalar filter
per run, ``fast`` advances all runs as ``(R, N)`` stacks — and
reduces the returned traces to the paper's metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.errors import EvaluationError
from ..core.config import MclConfig
from ..dataset.recorder import RecordedSequence
from ..engine.backend import FilterBackend, RunSpec, RunTrace, get_backend
from ..maps.distance_field import DistanceField
from ..maps.occupancy import OccupancyGrid
from .metrics import RunMetrics, evaluate_run


@dataclass
class RunResult:
    """Full error trace plus reduced metrics of one localization run."""

    sequence_name: str
    variant: str
    particle_count: int
    seed: int
    timestamps: np.ndarray
    position_errors: np.ndarray
    yaw_errors: np.ndarray
    estimate_trace: np.ndarray  # (T, 3) estimated pose per frame
    metrics: RunMetrics
    update_count: int


def trace_to_result(
    spec: RunSpec, config: MclConfig, trace: RunTrace
) -> RunResult:
    """Reduce one backend trace into the paper's metrics."""
    metrics = evaluate_run(
        trace.timestamps, trace.position_errors, trace.yaw_errors
    )
    return RunResult(
        sequence_name=spec.sequence.name,
        variant=config.variant_label,
        particle_count=config.particle_count,
        seed=spec.seed,
        timestamps=trace.timestamps,
        position_errors=trace.position_errors,
        yaw_errors=trace.yaw_errors,
        estimate_trace=trace.estimate_trace,
        metrics=metrics,
        update_count=trace.update_count,
    )


def run_localization_batch(
    grid: OccupancyGrid,
    specs: list[RunSpec],
    config: MclConfig,
    field: DistanceField | None = None,
    backend: str | FilterBackend = "reference",
) -> list[RunResult]:
    """Execute a batch of runs through one backend and evaluate each.

    All specs share (grid, config, field); results come back in spec
    order.  This is the entry point sweeps dispatch whole cells through.
    """
    for spec in specs:
        if len(spec.sequence) < 2:
            raise EvaluationError(
                f"sequence {spec.sequence.name} is too short to evaluate"
            )
    executor = get_backend(backend)
    traces = executor.execute(grid, specs, config, field=field)
    return [
        trace_to_result(spec, config, trace)
        for spec, trace in zip(specs, traces)
    ]


def run_localization(
    grid: OccupancyGrid,
    sequence: RecordedSequence,
    config: MclConfig,
    seed: int,
    field: DistanceField | None = None,
    backend: str | FilterBackend = "reference",
) -> RunResult:
    """Replay ``sequence`` through a fresh filter and evaluate it.

    ``field`` lets sweeps share one prebuilt distance field per precision
    kind instead of recomputing the EDT for every run.  The run follows
    the paper's global-localization protocol (uniform init over free
    space).  ``backend`` selects the executing :class:`FilterBackend`;
    every backend produces identical results, so the choice is purely
    about throughput.
    """
    spec = RunSpec(sequence=sequence, seed=seed)
    return run_localization_batch(grid, [spec], config, field, backend)[0]
