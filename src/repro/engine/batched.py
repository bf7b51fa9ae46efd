"""The stacked backend (``fast``): R independent runs stepped as ``(R, N)`` stacks.

The sweep protocol replays the same filter configuration over many
(sequence, seed) pairs.  The reference backend walks them one at a time,
so every numpy kernel is dispatched R times per observation instant and
every sequence is re-replayed (frames materialized, beams re-extracted)
once per seed.  This backend instead keeps all R particle populations in
``(R, N)`` arrays and advances them together:

* **firing frames only** — the driver steps only the frames where some
  run's gate fires (:attr:`~repro.engine.replay.ReplayPlan.firing`),
  and each step touches only the rows whose gate fired (runs of
  different sequences fire at different instants);
* **cached replay plans** — the parts of a run that depend only on the
  sequence and the gating/beam configuration (odometry accumulation,
  trigger trace, frame materialization, beam extraction, ground-truth
  poses) are computed once per (sequence, config signature) and shared
  by every seed of every sweep cell that replays that sequence — see
  :mod:`repro.engine.replay`;
* **one compiled observation pass per work item** — the beam transform,
  EDT lookup and beam reduction run fused over blocks of particle lanes
  in every row of the item, with no ``(R', N, K)`` temporaries;
* **per-run resampling via row-wise wheel offsets** — each run draws its
  own ``u0`` from its own RNG stream and gathers its own row.

The row-wise step math itself lives in :class:`ParticleStack` — the
backend's :class:`~repro.engine.backend.SessionStack` implementation —
so the offline run loop here and the serve layer's online session
multiplexer execute the *same code*: every kernel invocation follows the
bitwise-reproducibility contract of :mod:`repro.engine.kernels`, and
each run's RNG stream sees exactly the same draws in the same order as
under the reference backend, so per-run traces and metrics are
**identical** to R sequential reference runs — asserted by
``tests/engine/test_backends.py`` (offline) and ``tests/serve/``
(online fleets).

The float64 shadow state
------------------------
Next to the storage-precision arrays the stack keeps float64 shadows
``x64/y64/theta64/w64`` with the invariant ``shadow ==
stored.astype(float64)`` after every write, and two trig shadows with
``cos64/sin64 == np.cos/sin(theta64)``.  A shadow pays one widening per
*write* instead of one per stage read; the trig shadows are evaluated
once after each yaw write and *gathered* (exact) through resampling, so
the three stages that need yaw trig per step (motion compose, beam
transform, estimate) share one evaluation.

Estimates and records
---------------------
A row's weighted-mean estimate is kept as a row of
:attr:`ParticleStack.estimates`, ``(R, 3)`` float64 ``[x, y, theta]``
with ``theta`` wrapped as :class:`~repro.common.geometry.Pose2D` wraps
it; :meth:`ParticleStack.estimate_array` answers a copy of one row.  The
offline driver copies the ``(runs, 3)`` estimates after each firing
frame into one array; a frame's estimates are those of the last firing
frame up to it (one gather over the cumulative count of firing frames).
At the end each run's estimates become its trace through
:meth:`~repro.engine.replay.ReplayPlan.trace`, which derives the errors
in one pass against the plan's ground truth, as it does for a serve
session's estimates.

Compiled kernels
----------------
The stack runs every filter stage in C, through the
:class:`~repro.engine.fast_c.CProvider` it is handed, at float32 and
float16 storage alike: an update is four library calls, one per stage
of the paper's Table I (:class:`repro.soc.perf.MclStep`).  The motion
call draws each row's odometry noise and composes, wraps and stores the
poses; the observation call (one per work item) computes the beam
transform -> EDT gather -> tree reduction and the likelihood exponent;
the resampling call updates the weights, takes the ESS and runs the
wheel, the gathers and the uniform reset; the pose call reduces the
estimates.  Each call loops in C over the rows it touches.  The stack
binds its arrays, its rows' bit generators and per-call buffers into one
C context once (:class:`~repro.engine.fast_c.StackKernels`): it writes
them only in place, and :meth:`ParticleStack.ensure_capacity`, the one
place that reallocates them, binds them again.  A step writes its rows
and increments into the buffers; where its rows fill one block of the
stack it addresses them as a slice, else by index.  Each row draws
from its own numpy bit generator, through numpy's compiled samplers.
It stays bitwise because only IEEE-exact arithmetic is evaluated by the
library's own C: transcendentals (``sin``/``cos``/``exp``) are always
evaluated by numpy, three whole-block calls per update, and passed in;
every reduction follows the deterministic tree spec; and the wheel
replicates the sequential scan of
:func:`repro.engine.kernels.systematic_resample`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .. import obs
from ..common.errors import ConfigurationError
from ..common.geometry import wrap_angle
from ..common.rng import make_rng
from ..core.config import MclConfig
from ..core.snapshot import FilterStateSnapshot
from ..dataset.recorder import RecordedSequence
from ..maps.distance_field import DistanceField
from ..maps.occupancy import OccupancyGrid
from . import kernels
from .backend import (
    COUNTER_GATE_TRIGGERS,
    COUNTER_PLAN_HITS,
    COUNTER_PLAN_MISSES,
    COUNTER_PROVIDER_C,
    COUNTER_RESAMPLE_SKIPS,
    COUNTER_RESAMPLES,
    COUNTER_STEPS,
    RunSpec,
    RunTrace,
    SPAN_MOTION,
    SPAN_OBSERVATION,
    SPAN_POSE_COMPUTATION,
    SPAN_RESAMPLING,
    StepWork,
)
from .replay import ReplayPlan, ReplayStep

if TYPE_CHECKING:
    from .fast_c import CProvider, StackKernels

__all__ = [
    "BatchedBackend",
    "ParticleStack",
    "ReplayPlan",
    "ReplayStep",
]

#: Replay plans one backend instance keeps; the oldest insertion is
#: evicted first.  Each plan holds its sequence, so this also bounds how
#: many flights a long-lived backend (a campaign's, a pool worker's)
#: keeps alive.  A sweep needs one plan per (sequence, gating signature)
#: it replays; the paper protocol's six sequences fit well within it.
_PLAN_CACHE_LIMIT = 16


class ParticleStack:
    """``(R, N)`` particle populations with row-deterministic step ops.

    This is the stacked backend's :class:`SessionStack`: the one
    implementation of the stacked motion / observation / resampling /
    estimation math, shared by the offline :class:`_RunBatch` driver and
    the serve layer's online scheduler.  Rows are independent filter
    populations under one shared :class:`MclConfig`; every operation
    that crosses rows is per-row deterministic (elementwise stages on
    the stack, order-sensitive reductions along each row), so a row's
    evolution never depends on which rows it was packed with.

    ``provider`` runs the stages: the compiled C library.
    """

    def __init__(
        self, config: MclConfig, rows: int = 0, *, provider: CProvider
    ) -> None:
        self.config = config
        self.count = config.particle_count
        self.dtype = config.precision.particle_dtype
        self.provider = provider
        # The C stages over the current arrays, bound by ensure_capacity.
        self._kernels: StackKernels | None = None

        self.rows = 0
        self.x = np.zeros((0, self.count), dtype=self.dtype)
        self.y = np.zeros((0, self.count), dtype=self.dtype)
        self.theta = np.zeros((0, self.count), dtype=self.dtype)
        self.weights = np.zeros((0, self.count), dtype=self.dtype)
        self.x64 = np.zeros((0, self.count))
        self.y64 = np.zeros((0, self.count))
        self.theta64 = np.zeros((0, self.count))
        self.w64 = np.zeros((0, self.count))
        self.cos64 = np.zeros((0, self.count))
        self.sin64 = np.zeros((0, self.count))
        self.update_count = np.zeros(0, dtype=np.int64)
        self.rngs: list[np.random.Generator | None] = []
        # Each row's bit generator address (0: none), which the C draws read.
        self.bitgens = np.zeros(0, dtype=np.uintp)
        # Each row's estimate [x, y, theta].
        self.estimates = np.zeros((0, 3))
        self.ensure_capacity(rows)

    # ------------------------------------------------------------------
    # Row management
    # ------------------------------------------------------------------
    def ensure_capacity(self, rows: int) -> None:
        """Grow to at least ``rows`` rows (existing rows untouched).

        The only place the stack arrays are rebound: every other write is
        in place, so the C stages' pointers, wrapped here, stay valid.
        """
        if rows <= self.rows:
            return

        def grow(array: np.ndarray) -> np.ndarray:
            wide = np.zeros((rows, array.shape[1]), dtype=array.dtype)
            wide[: self.rows] = array
            return wide

        self.x = grow(self.x)
        self.y = grow(self.y)
        self.theta = grow(self.theta)
        self.weights = grow(self.weights)
        self.x64 = grow(self.x64)
        self.y64 = grow(self.y64)
        self.theta64 = grow(self.theta64)
        self.w64 = grow(self.w64)
        self.sin64 = grow(self.sin64)
        self.cos64 = grow(self.cos64)
        self.estimates = grow(self.estimates)
        # Fresh rows hold theta64 == 0: cos(0) == 1 keeps the trig
        # invariant exact even before init_row touches them.
        self.cos64[self.rows :] = 1.0
        added = rows - self.rows
        self.update_count = np.concatenate(
            [self.update_count, np.zeros(added, dtype=np.int64)]
        )
        self.bitgens = np.concatenate([self.bitgens, np.zeros(added, dtype=np.uintp)])
        self.rngs.extend([None] * added)
        self.rows = rows
        self._kernels = self.provider.bind(self)

    def init_row(self, row: int, grid: OccupancyGrid, spec: RunSpec) -> None:
        """(Re)initialize ``row`` exactly like a fresh reference filter.

        Replicates ``MonteCarloLocalization.__init__`` draw for draw: a
        uniform population over free space.
        """
        rng = make_rng(spec.seed, "mcl")
        self._set_rng(row, rng)
        n = self.count
        x, y = grid.sample_free_points(n, rng)
        theta = rng.uniform(-np.pi, np.pi, size=n)
        self._store(row, x, y, theta, np.full(n, 1.0 / n))
        self.update_count[row] = 0
        self._kernels.rows[0] = row
        self._refresh_estimates([row], slice(row, row + 1))

    # ------------------------------------------------------------------
    # State capture (snapshot / restore, serve-layer migration)
    # ------------------------------------------------------------------
    def export_row(self, row: int) -> FilterStateSnapshot:
        """Capture one row's complete dynamic state."""
        rng = self.rngs[row]
        if rng is None:
            raise ConfigurationError(f"stack row {row} was never initialized")
        return FilterStateSnapshot.capture(
            self.x[row],
            self.y[row],
            self.theta[row],
            self.weights[row],
            rng,
            int(self.update_count[row]),
            self.estimates[row],
        )

    def import_row(self, row: int, snapshot: FilterStateSnapshot) -> None:
        """Resume ``row`` exactly from a snapshot (verbatim, never cast).

        The estimate is taken from the snapshot rather than recomputed,
        so the restored row reports bit-identical poses from the first
        post-restore frame on.  Snapshots carrying pending odometry (a
        scalar filter captured mid-accumulation) are rejected — a row
        has nowhere to keep that motion, and dropping it would diverge
        silently.
        """
        snapshot.check_compatible(self.count, np.dtype(self.dtype))
        snapshot.check_no_pending()
        self.x[row] = snapshot.x
        self.y[row] = snapshot.y
        self.theta[row] = snapshot.theta
        self.weights[row] = snapshot.weights
        self._sync_shadows(row)
        self._set_rng(row, snapshot.make_rng())
        self.update_count[row] = int(snapshot.update_count)
        self.estimates[row] = snapshot.estimate

    def _set_rng(self, row: int, rng: np.random.Generator) -> None:
        """Give ``row`` its generator; the C draws use its bit generator."""
        self.rngs[row] = rng
        self.bitgens[row] = rng.bit_generator.ctypes.bit_generator.value

    # ------------------------------------------------------------------
    # Row queries
    # ------------------------------------------------------------------
    def estimate_array(self, row: int) -> np.ndarray:
        if self.rngs[row] is None:
            raise ConfigurationError(f"stack row {row} was never initialized")
        return self.estimates[row].copy()

    def updates(self, row: int) -> int:
        return int(self.update_count[row])

    # ------------------------------------------------------------------
    # One packed filter update
    # ------------------------------------------------------------------
    def step(self, work: Sequence[StepWork]) -> None:
        """Fire one gated update for every row listed across ``work``.

        Packing contract: rows of one work item share that item's replay
        step (motion increment + beams) and distance field; the motion,
        resampling and pose stages stack across *all* listed rows (the
        resampling stage: all that observed), the observation stage runs
        per work item.  Per-row results are independent of the packing
        (see class docstring), so callers may group rows however
        throughput dictates.  A row outside the stack, or listed twice,
        raises :class:`IndexError`, and a row that was never initialized
        :class:`ConfigurationError`, before any row is drawn or written.
        """
        listed: list[int] = []
        scored = 0
        for item in work:
            listed += item.rows
            if item.step.beams is not None:
                scored += len(item.rows)
        count = len(listed)
        if not count:
            return
        # The C stages index the arrays unchecked, and a row listed twice
        # would be stepped twice.
        low, high = min(listed), max(listed)
        if low < 0 or high >= self.rows:
            raise IndexError(f"step rows outside the stack's {self.rows} rows")
        if len(set(listed)) < count:
            raise IndexError("a step lists a stack row twice")
        stages = self._kernels
        stages.rows[:count] = listed
        at = 0
        for item in work:
            size = len(item.rows)
            increment = item.step.pending
            stages.pending[at : at + size] = (increment.x, increment.y, increment.theta)
            at += size
        # Rows that fill one block of the stack are addressed as a slice.
        # The estimates are written in listed order: through the slice
        # only where that order ascends.
        block = in_order = stages.rows[:count]
        if high - low + 1 == count:
            block = slice(low, high + 1)
            if listed == list(range(low, high + 1)):
                in_order = block
        # Stage spans + gate counters (no-ops when telemetry is off);
        # timing reads never feed back into the numeric state below.
        obs.counter(COUNTER_STEPS).inc()
        obs.counter(COUNTER_GATE_TRIGGERS).inc(count)
        with obs.span(SPAN_MOTION):
            stages.motion(count)
            # The posterior yaw's trig, the step's one trig evaluation
            # (stacked trig equals per-row trig bit for bit:
            # tests/engine/test_stacked_trig.py).
            theta = self.theta64[block]
            if isinstance(block, slice):
                np.cos(theta, out=self.cos64[block])
                np.sin(theta, out=self.sin64[block])
            else:
                self.cos64[block] = np.cos(theta)
                self.sin64[block] = np.sin(theta)
        if scored:
            with obs.span(SPAN_OBSERVATION):
                at = filled = 0
                for item in work:
                    size = len(item.rows)
                    if item.step.beams is not None:
                        stages.observation(size, at, filled, item.step, item.field)
                        filled += size
                    at += size
            # The weight update is resampling's: it needs numpy's exp first.
            with obs.span(SPAN_RESAMPLING):
                like = stages.like[:scored]
                np.exp(like, out=like)
                resampled = stages.resampling(scored)
            obs.counter(COUNTER_RESAMPLES).inc(resampled)
            obs.counter(COUNTER_RESAMPLE_SKIPS).inc(scored - resampled)
        with obs.span(SPAN_POSE_COMPUTATION):
            self._refresh_estimates(listed, in_order)

    # ------------------------------------------------------------------
    # State storage and pose estimates
    # ------------------------------------------------------------------
    def _store(
        self,
        rows,
        x: np.ndarray,
        y: np.ndarray,
        theta: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> None:
        """Write float64 state back at storage precision (= ``set_state``)."""
        self.x[rows] = np.asarray(x).astype(self.dtype)
        self.y[rows] = np.asarray(y).astype(self.dtype)
        self.theta[rows] = wrap_angle(np.asarray(theta, dtype=np.float64)).astype(
            self.dtype
        )
        if weights is not None:
            self.weights[rows] = np.asarray(weights).astype(self.dtype)
        self._sync_shadows(rows, weights=weights is not None)

    def _sync_shadows(self, rows, weights: bool = True) -> None:
        """Re-establish ``shadow == stored.astype(float64)`` on ``rows``."""
        self.x64[rows] = self.x[rows]
        self.y64[rows] = self.y[rows]
        theta64 = self.theta[rows].astype(np.float64)
        self.theta64[rows] = theta64
        self.cos64[rows] = np.cos(theta64)
        self.sin64[rows] = np.sin(theta64)
        if weights:
            self.w64[rows] = self.weights[rows]

    def _refresh_estimates(self, listed: list[int], in_order) -> None:
        """Recompute the weighted-mean poses of the ``listed`` rows, which
        the kernels' ``rows`` buffer holds in that order, and write them
        to ``estimates[in_order]`` (an index of those rows in that order).

        Each row's pose is bitwise identical to
        :func:`repro.engine.kernels.weighted_mean_pose` on that run
        alone: the C stage reads the shadows and reduces along each row
        through the deterministic tree.  A row with degenerate weights
        (rare) takes the scalar kernel.  Every row is stored as
        ``Pose2D(x, y, theta).as_array()`` would store it, in one
        assignment.
        """
        stages = self._kernels
        sums = stages.pose(len(listed)).tolist()
        estimates = []
        for row, (total, mean_x, mean_y, sin_sum, cos_sum) in zip(listed, sums):
            if math.isnan(total):  # degenerate weights (rare)
                _, mean_x, mean_y, mean_theta = kernels.weighted_mean_pose(
                    self.x64[row], self.y64[row], self.theta64[row], self.weights[row]
                )
            else:
                mean_theta = _circular_mean(sin_sum, cos_sum, total)
            estimates.append((mean_x, mean_y, wrap_angle(mean_theta)))
        self.estimates[in_order] = estimates


def _circular_mean(sin_sum: float, cos_sum: float, total: float) -> float:
    """The tail of :func:`repro.engine.kernels._circular_mean_det`.

    Takes the det-tree sums of the normalized weights and of their dots
    with sin/cos of yaw; the guard and ``atan2`` replicate the scalar
    helper exactly.  Callers handle non-positive or non-finite totals,
    so ``total > 0`` holds here.
    """
    eps = 1e-9 * max(1.0, total)
    if abs(sin_sum) < eps and abs(cos_sum) < eps:
        return 0.0
    return math.atan2(sin_sum / total, cos_sum / total)


class BatchedBackend:
    """Stacked executor advancing all runs of a batch simultaneously on
    the compiled :class:`~repro.engine.fast_c.CProvider`.

    Registered as ``fast`` (and under the older name ``batched``).
    """

    name = "fast"

    def __init__(self, provider: CProvider) -> None:
        self.provider = provider
        self._plans: dict[tuple, ReplayPlan] = {}
        obs.counter(COUNTER_PROVIDER_C).inc()

    @property
    def provider_name(self) -> str:
        """Which kernels the stages run on: ``"c"``."""
        return self.provider.name

    def execute(
        self,
        grid: OccupancyGrid,
        specs: Sequence[RunSpec],
        config: MclConfig,
        field: DistanceField | None = None,
    ) -> list[RunTrace]:
        if not specs:
            return []
        if field is None:
            field = DistanceField.build_for_mode(grid, config.r_max, config.precision)
        if abs(field.resolution - grid.resolution) > 1e-12:
            raise ConfigurationError(
                "distance field resolution does not match the occupancy grid"
            )
        stack = self.open_stack(config, len(specs))
        batch = _RunBatch(grid, list(specs), config, field, stack, self.plan)
        return batch.run()

    def open_stack(self, config: MclConfig, rows: int = 0) -> ParticleStack:
        """Open the step-level entry point: a stacked session container."""
        return ParticleStack(config, rows, provider=self.provider)

    def plan(self, sequence: RecordedSequence, config: MclConfig) -> ReplayPlan:
        """Build (or reuse) the replay plan of one sequence.

        Keyed by object identity plus the gating/beam signature; the plan
        holds a strong reference to its sequence, which keeps ``id``
        stable while the plan is cached.  At most
        :data:`_PLAN_CACHE_LIMIT` plans are kept.
        """
        key = (id(sequence), ReplayPlan.signature(config))
        plan = self._plans.get(key)
        if plan is None or plan.sequence is not sequence:
            obs.counter(COUNTER_PLAN_MISSES).inc()
            plan = ReplayPlan(sequence, config)
            while len(self._plans) >= _PLAN_CACHE_LIMIT:
                self._plans.pop(next(iter(self._plans)))
            self._plans[key] = plan
        else:
            obs.counter(COUNTER_PLAN_HITS).inc()
        return plan


class _SequenceGroup:
    """Runs of one batch that replay the same recorded sequence."""

    def __init__(self, plan: ReplayPlan, run_indices: list[int]) -> None:
        self.plan = plan
        self.runs = run_indices
        self.length = plan.length


class _RunBatch:
    """Offline driver: a fixed run set swept over its shared horizon.

    Owns the batch layout (grouping runs by sequence, per-instant gate
    masks, trace recording); all particle math is delegated to one
    injected :class:`ParticleStack` holding every run as a row.
    """

    def __init__(
        self,
        grid: OccupancyGrid,
        specs: list[RunSpec],
        config: MclConfig,
        field: DistanceField,
        stack: ParticleStack,
        plan_for,
    ) -> None:
        self.specs = specs
        self.field = field
        self.stack = stack
        stack.ensure_capacity(len(specs))

        # Group runs by the sequence they replay; the replay plan (gating
        # trace, beams, ground truth) is shared within a group and — via
        # the backend's cache — across sweep cells.
        groups: dict[int, _SequenceGroup] = {}
        for run, spec in enumerate(specs):
            key = id(spec.sequence)
            if key not in groups:
                groups[key] = _SequenceGroup(plan_for(spec.sequence, config), [])
            groups[key].runs.append(run)
        self.groups = list(groups.values())

        for run, spec in enumerate(specs):
            self.stack.init_row(run, grid, spec)

    def run(self) -> list[RunTrace]:
        """Step every run to its sequence's end, then build the traces.

        Steps only the frames where some group's gate fires
        (:attr:`ReplayPlan.firing`), in time order, and copies the
        ``(runs, 3)`` estimates after each into one array; every frame
        then reads the estimates of the last firing frame up to it, and
        each run's errors are derived in one pass at the end.
        """
        runs = len(self.specs)
        horizon = max(group.length for group in self.groups)
        # Each firing frame's work items, in group order.
        schedule: dict[int, list[StepWork]] = {}
        for group in self.groups:
            steps = group.plan.steps
            for t in group.plan.firing:
                schedule.setdefault(t, []).append(
                    StepWork(rows=group.runs, step=steps[t], field=self.field)
                )
        fired = sorted(schedule)
        # recorded[i]: the estimates after the i-th firing frame (0: none).
        recorded = np.empty((len(fired) + 1, runs, 3))
        recorded[0] = self.stack.estimates[:runs]
        for index, t in enumerate(fired, 1):
            self.stack.step(schedule[t])
            recorded[index] = self.stack.estimates[:runs]
        firing = np.zeros(horizon, dtype=bool)
        firing[fired] = True
        frames = np.cumsum(firing)

        traces: list[RunTrace] = [None] * runs
        for group in self.groups:
            plan = group.plan
            for run in group.runs:
                estimates = recorded[frames[: plan.length], run]
                traces[run] = plan.trace(estimates, self.stack.updates(run))
        return traces
