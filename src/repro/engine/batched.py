"""The batched backend: R independent runs stepped as ``(R, N)`` stacks.

The sweep protocol replays the same filter configuration over many
(sequence, seed) pairs.  The reference backend walks them one at a time,
so every numpy kernel is dispatched R times per observation instant and
every sequence is re-replayed (frames materialized, beams re-extracted)
once per seed.  This backend instead keeps all R particle populations in
``(R, N)`` arrays and advances them together:

* **per-run movement gating via boolean masks** — each step only
  touches the rows whose gate fired (runs of different sequences fire
  at different instants);
* **cached replay plans** — the parts of a run that depend only on the
  sequence and the gating/beam configuration (odometry accumulation,
  trigger trace, frame materialization, beam extraction, ground-truth
  poses) are computed once per (sequence, config signature) and shared
  by every seed of every sweep cell that replays that sequence — see
  :mod:`repro.engine.replay`;
* **one vectorized observation pass** — the beam transform, EDT lookup
  and log-likelihood reduction run on ``(R', N, K)`` stacks (chunked to
  bound temporary memory);
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

Compiled kernels
----------------
The ``fast`` backend is this backend handed a
:class:`~repro.engine.fast_c.CProvider`.  The stack then runs the beam
transform -> EDT gather -> tree reduction (no ``(R, N, K)``
temporaries), the ESS, the resampling wheel and gathers, and the
estimate reductions as C stages.  The motion compose + store and the
weight update run in C too, at every storage dtype the loaded library
stores (:attr:`~repro.engine.fast_c.CProvider.storage_dtypes`): float32
always, float16 where the compiler has ``_Float16``; without it, fp16qm
runs those two stages in numpy.  Each stage is one call over the
int64 list of rows it touches (the beam pass: one per work item), and
the rows are looped in C.  The stack wraps its arrays for C once
(:class:`~repro.engine.fast_c.StackKernels`): it writes them only in
place, and :meth:`ParticleStack.ensure_capacity`, the one place that
reallocates them, wraps them again.  The per-row RNG draws stay in
numpy, one stream per row.  It stays bitwise because only IEEE-exact
arithmetic crosses into compiled code: transcendentals
(``sin``/``cos``/``exp``) are always evaluated by numpy and passed in,
every reduction follows the deterministic tree spec, and the wheel
replicates the sequential scan of
:func:`repro.engine.kernels.systematic_resample`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .. import obs
from ..common.errors import ConfigurationError
from ..common.geometry import Pose2D, wrap_angle
from ..common.rng import make_rng
from ..common.scratch import Scratch
from ..core.config import MclConfig
from ..core.pose_estimate import pose_error
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
    COUNTER_PROVIDER_NUMPY,
    COUNTER_RESAMPLE_SKIPS,
    COUNTER_RESAMPLES,
    COUNTER_STEPS,
    RunSpec,
    RunTrace,
    SPAN_ESTIMATE,
    SPAN_GATHER,
    SPAN_MOTION,
    SPAN_RESAMPLE,
    SPAN_WEIGHT,
    StepWork,
)
from .replay import ReplayPlan, ReplayStep

if TYPE_CHECKING:
    from .fast_c import CProvider, StackKernels

__all__ = [
    "OBS_CHUNK_ELEMENTS",
    "BatchedBackend",
    "ParticleStack",
    "ReplayPlan",
    "ReplayStep",
]

#: Upper bound on elements of one (R', N, K) observation temporary; row
#: chunks are sized so R' * N * K stays below this.  Tuned so a chunk's
#: float64 intermediates (~0.5 MB each) stay cache-resident — stacking
#: more rows per numpy call saves dispatch overhead only while the
#: working set still fits near the core; beyond that the batched pass
#: runs slower per element than the reference's one-run tiles.
OBS_CHUNK_ELEMENTS = 1 << 16

#: Replay plans one backend instance keeps; the oldest insertion is
#: evicted first.  Each plan holds its sequence, so this also bounds how
#: many flights a long-lived backend (a campaign's, a pool worker's)
#: keeps alive.  A sweep needs one plan per (sequence, gating signature)
#: it replays; the paper protocol's six sequences fit well within it.
_PLAN_CACHE_LIMIT = 16


class ParticleStack:
    """``(R, N)`` particle populations with row-deterministic step ops.

    This is the batched backend's :class:`SessionStack`: the one
    implementation of the stacked motion / observation / resampling /
    estimation math, shared by the offline :class:`_RunBatch` driver and
    the serve layer's online scheduler.  Rows are independent filter
    populations under one shared :class:`MclConfig`; every operation
    that crosses rows is per-row deterministic (elementwise stages on
    the stack, order-sensitive reductions along each row), so a row's
    evolution never depends on which rows it was packed with.

    ``provider`` (the C provider, or ``None`` for numpy stages) only
    changes how fast the stages run, never a bit of their results.
    """

    def __init__(
        self, config: MclConfig, rows: int = 0, provider: CProvider | None = None
    ) -> None:
        self.config = config
        self.count = config.particle_count
        self.dtype = config.precision.particle_dtype
        self.provider = provider
        # The motion and weight-update C stages store the dtypes the
        # loaded library was built for (float32, and float16 where the
        # compiler has _Float16); any other runs those two in numpy.
        self._fused = provider is not None and self.dtype in provider.storage_dtypes
        # The C stages over the current arrays, bound by ensure_capacity.
        self._kernels: StackKernels | None = None
        # The numpy observation stage's (R', N, K) temporaries, kept
        # across steps (see repro.common.scratch).
        self._scratch = Scratch()

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
        self.estimates: list[Pose2D] = []
        self.estimate_arrays: list[np.ndarray | None] = []
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
        # Fresh rows hold theta64 == 0: cos(0) == 1 keeps the trig
        # invariant exact even before init_row touches them.
        self.cos64[self.rows :] = 1.0
        self.update_count = np.concatenate(
            [self.update_count, np.zeros(rows - self.rows, dtype=np.int64)]
        )
        added = rows - self.rows
        self.rngs.extend([None] * added)
        self.estimates.extend([Pose2D.identity()] * added)
        self.estimate_arrays.extend([None] * added)
        self.rows = rows
        if self.provider is not None:
            self._kernels = self.provider.bind(self)

    def init_row(self, row: int, grid: OccupancyGrid, spec: RunSpec) -> None:
        """(Re)initialize ``row`` exactly like a fresh reference filter.

        Replicates ``MonteCarloLocalization.__init__`` (plus the
        optional ``reset_at`` tracking init) draw for draw: the
        global-localization init always runs first — the reference
        filter draws it in its constructor — so the RNG stream advances
        identically even under tracking init.
        """
        rng = make_rng(spec.seed, "mcl")
        self.rngs[row] = rng
        n = self.count
        uniform = np.full(n, 1.0 / n)
        x, y = grid.sample_free_points(n, rng)
        theta = rng.uniform(-np.pi, np.pi, size=n)
        self._store(row, x, y, theta, uniform)
        if spec.tracking_init:
            start = spec.sequence.ground_truth_pose(0)
            x = rng.normal(start.x, spec.tracking_sigma_xy, size=n)
            y = rng.normal(start.y, spec.tracking_sigma_xy, size=n)
            theta = rng.normal(start.theta, spec.tracking_sigma_theta, size=n)
            self._store(row, x, y, theta, uniform)
        self.update_count[row] = 0
        self._refresh_estimate(row)

    # ------------------------------------------------------------------
    # State capture (snapshot / restore, serve-layer migration)
    # ------------------------------------------------------------------
    def export_row(self, row: int) -> FilterStateSnapshot:
        """Capture one row's complete dynamic state."""
        rng = self.rngs[row]
        estimate = self.estimate_arrays[row]
        if rng is None or estimate is None:
            raise ConfigurationError(f"stack row {row} was never initialized")
        return FilterStateSnapshot.capture(
            self.x[row],
            self.y[row],
            self.theta[row],
            self.weights[row],
            rng,
            int(self.update_count[row]),
            estimate,
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
        self.rngs[row] = snapshot.make_rng()
        self.update_count[row] = int(snapshot.update_count)
        self.estimates[row] = snapshot.estimate_pose()
        self.estimate_arrays[row] = snapshot.estimate.copy()

    # ------------------------------------------------------------------
    # Row queries
    # ------------------------------------------------------------------
    def estimate(self, row: int) -> Pose2D:
        return self.estimates[row]

    def estimate_array(self, row: int) -> np.ndarray:
        array = self.estimate_arrays[row]
        if array is None:
            raise ConfigurationError(f"stack row {row} was never initialized")
        return array

    def updates(self, row: int) -> int:
        return int(self.update_count[row])

    # ------------------------------------------------------------------
    # One packed filter update
    # ------------------------------------------------------------------
    def step(self, work: Sequence[StepWork]) -> None:
        """Fire one gated update for every row listed across ``work``.

        Packing contract: rows of one work item share that item's replay
        step (motion increment + beams) and distance field; the motion,
        ESS and estimate stages stack across *all* listed rows, the
        observation stage runs per work item.  Per-row results are
        independent of the packing (see class docstring), so callers may
        group rows however throughput dictates.
        """
        triggered_list: list[int] = []
        for item in work:
            triggered_list.extend(item.rows)
        if not triggered_list:
            return
        # The C stages index the arrays unchecked.
        if min(triggered_list) < 0 or max(triggered_list) >= self.rows:
            raise IndexError(f"step rows outside the stack's {self.rows} rows")
        triggered = np.array(triggered_list, dtype=np.int64)
        # Stage spans + gate counters (no-ops when telemetry is off);
        # timing reads never feed back into the numeric state below.
        obs.counter(COUNTER_STEPS).inc()
        obs.counter(COUNTER_GATE_TRIGGERS).inc(len(triggered_list))
        with obs.span(SPAN_MOTION):
            self._motion_update(triggered, work)
        observed = self._observation_update(work)
        if observed.size:
            with obs.span(SPAN_RESAMPLE):
                self._resample(observed)
        with obs.span(SPAN_ESTIMATE):
            self._refresh_estimates(triggered)
        self.update_count[triggered] += 1

    def _motion_update(
        self, triggered: np.ndarray, work: Sequence[StepWork]
    ) -> None:
        config = self.config
        n = self.count
        dx = np.empty((len(triggered), n))
        dy = np.empty((len(triggered), n))
        dtheta = np.empty((len(triggered), n))
        i = 0
        for item in work:
            pending = item.step.pending
            assert pending is not None  # packed steps always fired
            for row in item.rows:
                noise_x, noise_y, noise_theta = kernels.sample_motion_noise(
                    self.rngs[row], n, config.sigma_odom_xy, config.sigma_odom_theta
                )
                np.add(pending.x, noise_x, out=dx[i])
                np.add(pending.y, noise_y, out=dy[i])
                np.add(pending.theta, noise_theta, out=dtheta[i])
                i += 1
        self._compose_store(triggered, dx, dy, dtheta)

    def _compose_store(
        self, rows: np.ndarray, dx: np.ndarray, dy: np.ndarray, dtheta: np.ndarray
    ) -> None:
        """Apply ``(len(rows), N)`` noisy body-frame increments to ``rows``
        and store the poses (:func:`kernels.compose_increment`, then
        :meth:`_store`)."""
        if self._fused:
            # Fused compose + wrap + store + shadow refresh, fed the prior
            # yaw trig from the shadows; the posterior yaw's trig is the
            # step's single trig evaluation (stacked trig equals per-row
            # trig bit for bit: tests/engine/test_stacked_trig.py).
            self._kernels.compose_store(rows, dx, dy, dtheta)
            theta = self.theta64[rows]
            self.cos64[rows] = np.cos(theta)
            self.sin64[rows] = np.sin(theta)
            return
        new_x, new_y, new_theta = kernels.compose_increment(
            self.x64[rows],
            self.y64[rows],
            self.theta64[rows],
            dx,
            dy,
            dtheta,
            cos_t=self.cos64[rows],
            sin_t=self.sin64[rows],
        )
        self._store(rows, new_x, new_y, new_theta)

    def _observation_update(self, work: Sequence[StepWork]) -> np.ndarray:
        """Re-weight packed rows; returns the rows that saw usable beams."""
        config = self.config
        observed: list[int] = []
        for item in work:
            step = item.step
            if step.beams is None:
                continue
            for chunk in self._row_chunks(item.rows, step.beams.beam_count):
                with obs.span(SPAN_GATHER):
                    log_lik = self._beam_squared_sums(chunk, step, item.field)
                with obs.span(SPAN_WEIGHT):
                    # The tail of kernels.beam_log_likelihoods, then
                    # kernels.posterior_log_weights split at its exp.
                    np.negative(log_lik, out=log_lik)
                    log_lik /= 2.0 * config.sigma_obs**2
                    like = kernels.likelihood_ratios(log_lik, config.beam_replication)
                    self._update_weights(chunk, like)
            observed.extend(item.rows)
        return np.array(observed, dtype=np.int64)

    def _update_weights(self, rows: np.ndarray, like: np.ndarray) -> None:
        """Posterior weights of ``rows`` from ``(len(rows), N)`` likelihood
        ratios: prior multiply, storage cast, normalize, shadow refresh."""
        if self._fused:
            self._kernels.update_weights(rows, like)
            return
        stored = (self.w64[rows] * like).astype(self.dtype)
        kernels.normalize_weights(stored, self.dtype)
        self.weights[rows] = stored
        self.w64[rows] = stored.astype(np.float64)

    def _beam_squared_sums(
        self, rows: np.ndarray, step: ReplayStep, field: DistanceField
    ) -> np.ndarray:
        if self._kernels is not None:
            return self._kernels.beam_squared_sums(rows, step.end_x, step.end_y, field)
        return kernels.beam_squared_sums(
            self.x64[rows],
            self.y64[rows],
            self.cos64[rows],
            self.sin64[rows],
            step.end_x,
            step.end_y,
            field,
            scratch=self._scratch,
        )

    def _row_chunks(self, rows: list[int], beam_count: int):
        """Split rows so one (R', N, K) float64 temporary stays bounded.

        The C beam stage makes no such temporary and takes every row.
        """
        if self._kernels is not None:
            yield np.array(rows, dtype=np.int64)
            return
        per_row = self.count * max(beam_count, 1)
        chunk_rows = max(1, OBS_CHUNK_ELEMENTS // per_row)
        for start in range(0, len(rows), chunk_rows):
            yield np.array(rows[start : start + chunk_rows], dtype=np.int64)

    def _resample(self, observed: np.ndarray) -> None:
        threshold = self.config.resample_ess_fraction * self.count
        if self._kernels is None:
            ess = kernels.effective_sample_size(self.w64[observed])
        else:
            ess = self._kernels.ess(observed)
        resampled = observed[ess <= threshold]
        if resampled.size:
            # One wheel offset per row, each from the row's own stream.
            u0 = [
                kernels.draw_wheel_offset(self.rngs[run], self.count)
                for run in resampled.tolist()
            ]
            if self._kernels is not None:
                # Wheel + gather of the three stored rows and their five
                # shadows, every row in one call.
                self._kernels.resample(resampled, np.array(u0))
            else:
                for run, offset in zip(resampled.tolist(), u0):
                    indices = kernels.systematic_resample(
                        self.w64[run], offset, validate=False, normalized=True
                    )
                    # Gathers of exact shadows stay exact.
                    for array in (
                        self.x,
                        self.y,
                        self.theta,
                        self.x64,
                        self.y64,
                        self.theta64,
                        self.cos64,
                        self.sin64,
                    ):
                        array[run] = array[run][indices]
            uniform = np.asarray(1.0 / self.count, dtype=self.dtype)
            self.weights[resampled] = uniform
            self.w64[resampled] = uniform  # the stored value, widened
        obs.counter(COUNTER_RESAMPLES).inc(len(resampled))
        obs.counter(COUNTER_RESAMPLE_SKIPS).inc(len(observed) - len(resampled))

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

    def _refresh_estimates(self, triggered: np.ndarray) -> None:
        """Recompute the weighted-mean poses of all triggered rows.

        Each row's pose is bitwise identical to
        :func:`repro.engine.kernels.weighted_mean_pose` on that run
        alone: the elementwise stages read the shadows, and every
        reduction runs along a row through the deterministic tree, which
        does not depend on how many rows are stacked.
        """
        if self._kernels is not None:
            sums = self._kernels.estimate(triggered)
            for run, (total, mean_x, mean_y, sin_sum, cos_sum) in zip(
                triggered.tolist(), sums.tolist()
            ):
                if math.isnan(total):  # degenerate weights (rare)
                    self._refresh_estimate(run)
                else:
                    mean_theta = _circular_mean(sin_sum, cos_sum, total)
                    self._set_estimate(run, Pose2D(mean_x, mean_y, mean_theta))
            return
        w64 = self.w64[triggered]
        totals = np.asarray(kernels.det_sum(w64))
        if not ((totals > 0) & np.isfinite(totals)).all():
            for run in triggered.tolist():  # rare: the scalar kernel
                self._refresh_estimate(run)
            return
        w64 /= totals[:, None]
        sums = kernels.det_sum(w64)
        mean_x = kernels.det_dot(w64, self.x64[triggered])
        mean_y = kernels.det_dot(w64, self.y64[triggered])
        sin_sums = kernels.det_dot(w64, self.sin64[triggered])
        cos_sums = kernels.det_dot(w64, self.cos64[triggered])
        for i, run in enumerate(triggered.tolist()):
            mean_theta = _circular_mean(
                float(sin_sums[i]), float(cos_sums[i]), float(sums[i])
            )
            estimate = Pose2D(float(mean_x[i]), float(mean_y[i]), mean_theta)
            self._set_estimate(run, estimate)

    def _refresh_estimate(self, row: int) -> None:
        """Recompute one row's weighted-mean pose with the scalar kernel."""
        _, mean_x, mean_y, mean_theta = kernels.weighted_mean_pose(
            self.x64[row], self.y64[row], self.theta64[row], self.weights[row]
        )
        self._set_estimate(row, Pose2D(mean_x, mean_y, mean_theta))

    def _set_estimate(self, row: int, estimate: Pose2D) -> None:
        self.estimates[row] = estimate
        self.estimate_arrays[row] = estimate.as_array()


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
    """Vectorized executor advancing all runs of a batch simultaneously.

    Registered twice: as ``batched`` with numpy stages, and as ``fast``
    handed the compiled :class:`~repro.engine.fast_c.CProvider`.
    """

    def __init__(self, provider: CProvider | None = None) -> None:
        self.provider = provider
        self.name = "batched" if provider is None else "fast"
        self._plans: dict[tuple, ReplayPlan] = {}
        obs.counter(
            COUNTER_PROVIDER_NUMPY if provider is None else COUNTER_PROVIDER_C
        ).inc()

    @property
    def provider_name(self) -> str:
        """Which kernels the stages run on: ``"c"`` or ``"numpy"``."""
        return "numpy" if self.provider is None else self.provider.name

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
        return ParticleStack(config, rows, self.provider)

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
        runs = len(self.specs)
        timestamps: list[list[float]] = [[] for _ in range(runs)]
        position_errors: list[list[float]] = [[] for _ in range(runs)]
        yaw_errors: list[list[float]] = [[] for _ in range(runs)]
        estimate_rows: list[list[np.ndarray]] = [[] for _ in range(runs)]

        horizon = max(group.length for group in self.groups)
        for t in range(horizon):
            work = [
                StepWork(rows=group.runs, step=group.plan.steps[t], field=self.field)
                for group in self.groups
                if t < group.length and group.plan.steps[t].fires
            ]
            self.stack.step(work)
            self._record(
                t, timestamps, position_errors, yaw_errors, estimate_rows
            )

        traces = []
        for run in range(runs):
            traces.append(
                RunTrace(
                    timestamps=np.array(timestamps[run]),
                    position_errors=np.array(position_errors[run]),
                    yaw_errors=np.array(yaw_errors[run]),
                    estimate_trace=np.stack(estimate_rows[run]),
                    update_count=self.stack.updates(run),
                )
            )
        return traces

    def _record(
        self,
        t: int,
        timestamps: list[list[float]],
        position_errors: list[list[float]],
        yaw_errors: list[list[float]],
        estimate_rows: list[list[np.ndarray]],
    ) -> None:
        for group in self.groups:
            if t >= group.length:
                continue
            plan = group.plan
            timestamp = plan.timestamps[t]
            ground_truth = plan.ground_truth[t]
            for run in group.runs:
                err_pos, err_yaw = pose_error(self.stack.estimate(run), ground_truth)
                timestamps[run].append(timestamp)
                position_errors[run].append(err_pos)
                yaw_errors[run].append(err_yaw)
                estimate_rows[run].append(self.stack.estimate_array(run))
