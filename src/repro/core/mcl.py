"""Monte Carlo localization: the paper's full filter loop (Sec. III-C).

The filter wires together the four steps of Fig. 3 — motion model,
observation model, resampling, pose computation — with the paper's
asynchronous update policy:

* odometry increments are **accumulated** as they arrive;
* when accumulated motion exceeds ``d_xy`` or ``d_theta`` *and* a new ToF
  observation is available, one full update fires: the motion model
  samples the accumulated increment with ``sigma_odom`` noise, the
  observation model re-weights against the distance field, the population
  is (wheel-)resampled and the weighted-average pose recomputed;
* without sufficient motion, observations are ignored ("we only consider
  new observations if the drone moves more than d_xy or rotates more than
  d_theta") — the belief is not sharpened by redundant data while
  hovering.

Precision variants: the distance field is stored per the configured mode
(fp32 or quantized uint8), particle state/weights in fp32 or fp16; all
arithmetic policies live in the step implementations, this class only
selects storage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.errors import ConfigurationError
from ..common.geometry import Pose2D
from ..common.rng import make_rng
from ..maps.distance_field import DistanceField
from ..maps.occupancy import OccupancyGrid
from ..sensors.tof import TofFrame
from .config import MclConfig
from .motion import apply_motion_model
from .observation import BeamBundle, apply_observation_model, extract_beams
from .particles import ParticleSet
from .pose_estimate import PoseEstimate, estimate_pose
from .resampling import draw_wheel_offset, systematic_resample
from .snapshot import FilterStateSnapshot


@dataclass
class McUpdateReport:
    """What happened during one ``process`` call (for logging/analysis)."""

    motion_applied: bool = False
    observation_applied: bool = False
    resampled: bool = False
    beam_count: int = 0


def fire_update(
    particles: ParticleSet,
    rng: np.random.Generator,
    pending: Pose2D,
    beams: BeamBundle | None,
    field: DistanceField,
    config: MclConfig,
) -> McUpdateReport:
    """One fired update: motion, observation, then the ESS-gated wheel resample.

    What :meth:`MonteCarloLocalization.process` runs once the movement
    gate fires, and what the reference backend's stack runs per row.
    ``pending`` is the accumulated odometry; ``beams=None`` means no
    usable beams, as a replay step stores it.  The caller recomputes the
    pose estimate.
    """
    apply_motion_model(particles, pending, config, rng)
    report = McUpdateReport(motion_applied=True)
    if beams is not None:
        report.beam_count = beams.beam_count
        report.observation_applied = apply_observation_model(
            particles, beams, field, config
        )

    if report.observation_applied:
        ess = particles.effective_sample_size()
        threshold = config.resample_ess_fraction * particles.count
        if ess <= threshold:
            u0 = draw_wheel_offset(rng, particles.count)
            # Weights are normalized by the observation model; the
            # fast path skips the redundant renormalizing divide.
            indices = systematic_resample(
                particles.weights.astype(np.float64), u0, normalized=True
            )
            particles.swap_from_indices(indices)
            report.resampled = True
    return report


class MonteCarloLocalization:
    """The on-board localization filter, faithful to the paper's design."""

    def __init__(
        self,
        grid: OccupancyGrid,
        config: MclConfig | None = None,
        seed: int = 0,
        field: DistanceField | None = None,
    ) -> None:
        self.grid = grid
        self.config = config or MclConfig()
        self._rng = make_rng(seed, "mcl")
        if field is None:
            field = DistanceField.build_for_mode(
                grid, self.config.r_max, self.config.precision
            )
        if abs(field.resolution - grid.resolution) > 1e-12:
            raise ConfigurationError(
                "distance field resolution does not match the occupancy grid"
            )
        self.field = field
        self.particles = ParticleSet(self.config.particle_count, self.config.precision)
        self.particles.init_uniform(grid, self._rng)
        self._pending = Pose2D.identity()
        self._estimate = estimate_pose(self.particles)
        self.update_count = 0

    # ------------------------------------------------------------------
    # Initialization modes
    # ------------------------------------------------------------------
    def reset_uniform(self) -> None:
        """Restart global localization (uniform over free space)."""
        self.particles.init_uniform(self.grid, self._rng)
        self._pending = Pose2D.identity()
        self._estimate = estimate_pose(self.particles)
        self.update_count = 0

    def reset_at(self, pose: Pose2D, sigma_xy: float = 0.3, sigma_theta: float = 0.2) -> None:
        """Restart in pose-tracking mode around a known pose."""
        self.particles.init_gaussian(
            pose.x, pose.y, pose.theta, sigma_xy, sigma_theta, self._rng
        )
        self._pending = Pose2D.identity()
        self._estimate = estimate_pose(self.particles)
        self.update_count = 0

    # ------------------------------------------------------------------
    # Filter loop
    # ------------------------------------------------------------------
    @property
    def estimate(self) -> PoseEstimate:
        """The most recent weighted-average pose estimate."""
        return self._estimate

    @property
    def pending_motion(self) -> Pose2D:
        """Odometry accumulated since the last fired update."""
        return self._pending

    def add_odometry(self, increment: Pose2D) -> None:
        """Accumulate one body-frame odometry increment (u_t component)."""
        self._pending = self._pending.compose(increment)

    def process(self, frames: list[TofFrame]) -> McUpdateReport:
        """Offer one observation instant to the filter.

        Fires a full update only when the accumulated motion passes the
        movement thresholds; otherwise this is a cheap no-op, exactly like
        the on-board gating.
        """
        if not self.config.movement_trigger(
            self._pending.x, self._pending.y, self._pending.theta
        ):
            return McUpdateReport()

        report = fire_update(
            self.particles,
            self._rng,
            self._pending,
            extract_beams(frames, self.config),
            self.field,
            self.config,
        )
        self._pending = Pose2D.identity()
        self._estimate = estimate_pose(self.particles)
        self.update_count += 1
        return report

    def step(self, increment: Pose2D, frames: list[TofFrame]) -> McUpdateReport:
        """Convenience: add odometry then process the observation."""
        self.add_odometry(increment)
        return self.process(frames)

    # ------------------------------------------------------------------
    # State snapshot / restore (exact-continuation serialization)
    # ------------------------------------------------------------------
    def export_state(self) -> FilterStateSnapshot:
        """Capture the filter's complete dynamic state.

        The snapshot pins the particle population at storage precision,
        the RNG stream position, the pending odometry and the update
        counter — restoring it (here or in another process) continues
        the filter **bit-for-bit**: same draws, same resampling
        decisions, same estimates.
        """
        return FilterStateSnapshot.capture(
            self.particles.x,
            self.particles.y,
            self.particles.theta,
            self.particles.weights,
            self._rng,
            self.update_count,
            self._estimate.pose.as_array(),
            pending=self._pending,
        )

    def restore_state(self, snapshot: FilterStateSnapshot) -> None:
        """Resume exactly from an :meth:`export_state` snapshot.

        The snapshot must match this filter's particle count and
        precision (state is copied verbatim, never cast).  The estimate
        is recomputed from the restored population — a pure function of
        state, so it lands on the captured value.
        """
        snapshot.check_compatible(
            self.particles.count, self.config.precision.particle_dtype
        )
        self.particles.x[:] = snapshot.x
        self.particles.y[:] = snapshot.y
        self.particles.theta[:] = snapshot.theta
        self.particles.weights[:] = snapshot.weights
        self._rng = snapshot.make_rng()
        self.update_count = int(snapshot.update_count)
        self._pending = Pose2D(
            float(snapshot.pending[0]),
            float(snapshot.pending[1]),
            float(snapshot.pending[2]),
        )
        self._estimate = estimate_pose(self.particles)

    # ------------------------------------------------------------------
    # Memory accounting (feeds the Fig. 9 capacity model)
    # ------------------------------------------------------------------
    def memory_bytes(self) -> dict[str, int]:
        """Bytes used by particles, occupancy and the distance field."""
        return {
            "particles": self.particles.memory_bytes(),
            "occupancy": self.grid.memory_bytes(),
            "distance_field": self.field.memory_bytes(),
        }
