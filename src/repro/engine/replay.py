"""Replay plans: the seed-invariant skeleton of a sequence replay.

Replaying a recorded (or generated) flight through the filter has two
kinds of work: the *seed-dependent* particle math, and everything that
is a pure function of the sequence plus the gating/beam configuration —
odometry accumulation, the movement-trigger trace, frame
materialization, beam extraction, ground-truth poses.  A
:class:`ReplayPlan` precomputes the latter once, operation-for-operation
identical to the reference loop, so it can be shared by every seed of
every sweep cell (stacked backend) and by every live session replaying
that sequence (serve layer).

This module is backend-neutral on purpose: the plan describes *what the
filter will be offered at each instant*, not how any executor advances
its particles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..common.geometry import Pose2D, wrap_angle
from ..core.config import MclConfig
from ..core.observation import BeamBundle, extract_beams
from ..core.pose_estimate import pose_errors
from ..dataset.recorder import RecordedSequence
from .backend import RunTrace


@dataclass
class ReplayStep:
    """What one observation instant of a sequence holds for the filter.

    ``fires`` is the movement-gate decision (identical for every run of
    the sequence — the gate reads odometry only); when it fires,
    ``pending`` is the accumulated body-frame motion the update consumes
    and ``beams``/``end_x``/``end_y`` the preprocessed observation.
    ``c_ends`` is the end points as the ``fast`` backend's C
    observation stage takes them, wrapped on its first use of the step
    (:class:`repro.engine.fast_c.StackKernels`) and kept as long as the
    step.
    """

    fires: bool
    pending: Pose2D | None = None
    beams: BeamBundle | None = None
    end_x: np.ndarray | None = None
    end_y: np.ndarray | None = None
    c_ends: tuple | None = field(default=None, repr=False, compare=False)


class ReplayPlan:
    """Everything about replaying one sequence that no seed changes.

    Replicates the reference loop's odometry accumulation and movement
    gating operation-for-operation, and hoists frame materialization,
    beam extraction and ground-truth pose construction out of the
    per-run (and per-cell) hot path.  It is also the one place that
    turns a run's estimates into its :class:`RunTrace` (:meth:`trace`),
    for the offline driver and for serve sessions alike.
    """

    def __init__(self, sequence: RecordedSequence, config: MclConfig) -> None:
        self.sequence = sequence  # strong ref keeps the cache key stable
        self.length = len(sequence)
        self.timestamps = [float(t) for t in sequence.timestamps]
        #: The ground-truth poses as ``(length, 3)`` rows ``[x, y, theta]``,
        #: the yaw wrapped as :class:`Pose2D` wraps it.
        self.truth = np.array(sequence.ground_truth, dtype=np.float64)
        self.truth[:, 2] = wrap_angle(self.truth[:, 2])
        self.steps: list[ReplayStep] = []

        pending = Pose2D.identity()
        previous = sequence.odometry_pose(0)
        for t in range(self.length):
            if t > 0:
                odometry = sequence.odometry_pose(t)
                pending = pending.compose(previous.between(odometry))
                previous = odometry
            if not config.movement_trigger(pending.x, pending.y, pending.theta):
                self.steps.append(ReplayStep(fires=False))
                continue
            timestamp = self.timestamps[t]
            frames = [track.frame(t, timestamp) for track in sequence.tracks]
            beams = extract_beams(frames, config)
            step = ReplayStep(fires=True, pending=pending)
            if beams.beam_count:
                step.beams = beams
                step.end_x, step.end_y = beams.endpoints_body()
            self.steps.append(step)
            pending = Pose2D.identity()
        #: The frames whose gate fires, in time order.
        self.firing = [t for t, step in enumerate(self.steps) if step.fires]

    def trace(self, estimates: np.ndarray, update_count: int) -> RunTrace:
        """The trace of a run whose estimates at the plan's first T frames
        are the ``(T, 3)`` rows of ``estimates``, which the trace holds as
        its ``estimate_trace`` (not a copy).

        The errors are derived in one pass against :attr:`truth`
        (:func:`~repro.core.pose_estimate.pose_errors`, the bits of the
        per-frame ``pose_error`` of the reference loop).
        """
        frames = len(estimates)
        position_errors, yaw_errors = pose_errors(estimates, self.truth[:frames])
        return RunTrace(
            timestamps=np.array(self.timestamps[:frames]),
            position_errors=position_errors,
            yaw_errors=yaw_errors,
            estimate_trace=estimates,
            update_count=int(update_count),
        )

    @staticmethod
    def signature(config: MclConfig) -> tuple:
        """The config facets a plan depends on (gating + beam filtering)."""
        return (
            config.d_xy,
            config.d_theta,
            config.use_rear_sensor,
            config.beam_rows,
            config.max_beam_range_m,
        )
