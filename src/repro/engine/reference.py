"""The reference backend: one scalar filter per run.

This is the original evaluation inner loop, bit-for-bit: each
:class:`RunSpec` replays its sequence through a fresh
:class:`~repro.core.mcl.MonteCarloLocalization`, feeding odometry
increments and ToF frames and recording the estimate-vs-mocap errors at
every frame instant.  It is the ground truth the stacked ``fast``
backend is tested against, and what ``fast`` resolves to on a host
without cffi or a C compiler.

:class:`ReferenceStack` is the backend's step-level entry point
(:class:`~repro.engine.backend.SessionStack`): one scalar
:class:`~repro.core.particles.ParticleSet` per row, advanced through
:func:`~repro.core.mcl.fire_update`, the update
``MonteCarloLocalization.process`` runs.  It exists so
the serve layer can multiplex sessions over *either* backend — and so
fleet traces can be pinned against the scalar loop step by step.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..common.errors import ConfigurationError
from ..common.rng import make_rng
from ..core.config import MclConfig
from ..core.mcl import MonteCarloLocalization, fire_update
from ..core.particles import ParticleSet
from ..core.pose_estimate import estimate_pose, pose_error
from ..core.snapshot import FilterStateSnapshot
from ..dataset.recorder import RecordedSequence
from ..maps.distance_field import DistanceField
from ..maps.occupancy import OccupancyGrid
from .backend import RunSpec, RunTrace, StepWork


class ReferenceStack:
    """Scalar step-level stack: one :class:`ParticleSet` per row.

    Each packed :meth:`step` runs :func:`~repro.core.mcl.fire_update`
    per row, the update ``MonteCarloLocalization.process`` runs once its
    gate fires, then the pose estimate, with the gating and beam
    extraction already resolved by the caller's replay step.  Per-row results are trivially independent
    of the packing — there is no cross-row arithmetic at all.
    """

    def __init__(self, config: MclConfig, rows: int = 0) -> None:
        self.config = config
        self.count = config.particle_count
        self._particles: list[ParticleSet | None] = []
        self._rngs: list[np.random.Generator | None] = []
        self._updates: list[int] = []
        # Each row's estimate [x, y, theta].
        self._estimates: list[np.ndarray | None] = []
        self.ensure_capacity(rows)

    # ------------------------------------------------------------------
    # Row management
    # ------------------------------------------------------------------
    def ensure_capacity(self, rows: int) -> None:
        added = rows - len(self._particles)
        if added <= 0:
            return
        self._particles.extend([None] * added)
        self._rngs.extend([None] * added)
        self._updates.extend([0] * added)
        self._estimates.extend([None] * added)

    def init_row(self, row: int, grid: OccupancyGrid, spec: RunSpec) -> None:
        """(Re)initialize ``row`` exactly like a fresh reference filter."""
        rng = make_rng(spec.seed, "mcl")
        particles = ParticleSet(self.count, self.config.precision)
        particles.init_uniform(grid, rng)
        self._particles[row] = particles
        self._rngs[row] = rng
        self._updates[row] = 0
        self._estimates[row] = estimate_pose(particles).pose.as_array()

    def _row(self, row: int) -> tuple[ParticleSet, np.random.Generator]:
        particles = self._particles[row]
        rng = self._rngs[row]
        if particles is None or rng is None:
            raise ConfigurationError(f"stack row {row} was never initialized")
        return particles, rng

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self, work: Sequence[StepWork]) -> None:
        for item in work:
            for row in item.rows:
                self._step_row(row, item)

    def _step_row(self, row: int, item: StepWork) -> None:
        particles, rng = self._row(row)
        step = item.step
        assert step.pending is not None  # packed steps always fired
        fire_update(particles, rng, step.pending, step.beams, item.field, self.config)
        self._estimates[row] = estimate_pose(particles).pose.as_array()
        self._updates[row] += 1

    # ------------------------------------------------------------------
    # Queries and state capture
    # ------------------------------------------------------------------
    def estimate_array(self, row: int) -> np.ndarray:
        array = self._estimates[row]
        if array is None:
            raise ConfigurationError(f"stack row {row} was never initialized")
        return array.copy()

    def updates(self, row: int) -> int:
        return self._updates[row]

    def export_row(self, row: int) -> FilterStateSnapshot:
        particles, rng = self._row(row)
        return FilterStateSnapshot.capture(
            particles.x,
            particles.y,
            particles.theta,
            particles.weights,
            rng,
            self._updates[row],
            self.estimate_array(row),
        )

    def import_row(self, row: int, snapshot: FilterStateSnapshot) -> None:
        particles = self._particles[row]
        if particles is None:
            particles = ParticleSet(self.count, self.config.precision)
            self._particles[row] = particles
        snapshot.check_compatible(
            self.count, self.config.precision.particle_dtype
        )
        snapshot.check_no_pending()
        particles.x[:] = snapshot.x
        particles.y[:] = snapshot.y
        particles.theta[:] = snapshot.theta
        particles.weights[:] = snapshot.weights
        self._rngs[row] = snapshot.make_rng()
        self._updates[row] = int(snapshot.update_count)
        self._estimates[row] = snapshot.estimate_pose().as_array()


class ReferenceBackend:
    """Sequential executor: runs specs one by one through the scalar filter."""

    name = "reference"

    def execute(
        self,
        grid: OccupancyGrid,
        specs: Sequence[RunSpec],
        config: MclConfig,
        field: DistanceField | None = None,
    ) -> list[RunTrace]:
        return [self._run_one(grid, spec, config, field) for spec in specs]

    def open_stack(self, config: MclConfig, rows: int = 0) -> ReferenceStack:
        """Open the step-level entry point: one scalar filter per row."""
        return ReferenceStack(config, rows)

    def _run_one(
        self,
        grid: OccupancyGrid,
        spec: RunSpec,
        config: MclConfig,
        field: DistanceField | None,
    ) -> RunTrace:
        sequence: RecordedSequence = spec.sequence
        mcl = MonteCarloLocalization(grid, config, seed=spec.seed, field=field)

        timestamps = []
        position_errors = []
        yaw_errors = []
        estimates = []

        previous_odometry = sequence.odometry_pose(0)
        for index, step in enumerate(sequence.steps()):
            if index > 0:
                increment = previous_odometry.between(step.odometry)
                previous_odometry = step.odometry
                mcl.add_odometry(increment)
            # Offer every observation instant — including frame 0 — and
            # let the movement gate decide whether an update fires.
            mcl.process(step.frames)
            estimate = mcl.estimate.pose
            err_pos, err_yaw = pose_error(estimate, step.ground_truth)
            timestamps.append(step.timestamp)
            position_errors.append(err_pos)
            yaw_errors.append(err_yaw)
            estimates.append(estimate.as_array())

        return RunTrace(
            timestamps=np.array(timestamps),
            position_errors=np.array(position_errors),
            yaw_errors=np.array(yaw_errors),
            estimate_trace=np.stack(estimates),
            update_count=mcl.update_count,
        )
