"""The session manager: the serving layer's one front door.

A :class:`SessionManager` owns many concurrent
:class:`~repro.serve.session.FilterSession`s — an arbitrary mix of
scenarios, filter configurations (config specs
``variant[+key=value...]``, so ablated and default-parameter filters
serve side by side), particle counts and seeds — and serves them
through a deterministic :class:`~repro.serve.scheduler.StepScheduler`
over shared stacked backend calls, cohorted by
``(config fingerprint, N)``.  The lifecycle verbs:

* :meth:`create` / :meth:`create_fleet` — open sessions (worlds and
  distance fields resolved through per-manager caches; replay plans
  shared per (scenario, gating signature));
* :meth:`submit` + :meth:`flush` — queue observation frames per session,
  then execute everything queued in packed scheduler ticks (the serving
  analogue of a request queue + batcher);
* :meth:`query` — live progress, estimate and metrics-so-far;
* :meth:`snapshot` / :meth:`restore` — byte-stable full-state
  serialization: a restored session continues **bit-for-bit**;
* :meth:`close` — retire a session, returning its trace + metrics.

Equivalence contract: a fully served session's trace and metrics are
bitwise identical to the same (scenario, variant, N, seed) executed
alone through the reference backend, regardless of fleet composition,
flush sizes, or backend choice (``tests/serve/``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..common.errors import ConfigurationError, EvaluationError
from ..common.geometry import Pose2D
from ..engine.backend import DEFAULT_BACKEND, RunSpec
from ..engine.replay import ReplayPlan
from ..eval.metrics import AggregateMetrics
from ..eval.sweep_engine import DistanceFieldCache
from ..maps.distance_field import FieldKind
from ..scenarios.base import Scenario
from ..scenarios.fleet import FleetSpec
from ..scenarios.registry import build_scenario
from .scheduler import StepScheduler
from .session import (
    FilterSession,
    SessionResult,
    SessionSpec,
    SessionStatus,
    snapshot_from_bytes,
    snapshot_to_bytes,
)

#: Bounds on what a manager caches per distinct world: loaded scenarios
#: and replay plans (EDTs are bounded by :class:`DistanceFieldCache`
#: itself — a serving process is long-lived by design, so every keyed
#: cache must evict).  Oldest insertion goes first; live sessions hold
#: their own references, so eviction only affects future creates.
_SCENARIO_CACHE_LIMIT = 32
_PLAN_CACHE_LIMIT = 64  # ~2 gating signatures per cached scenario


@dataclass
class FlushReport:
    """What one :meth:`SessionManager.flush` call did."""

    ticks: int
    frames: int
    updates: int


class SessionManager:
    """Multiplexes live localization sessions over one filter backend.

    Every session's config spec is materialized over the paper
    defaults, so a snapshot's spec names the whole filter config and a
    :meth:`restore` continues under the same filter on any manager.
    """

    def __init__(self, backend: str = DEFAULT_BACKEND) -> None:
        self.scheduler = StepScheduler(backend)
        self._sessions: dict[str, FilterSession] = {}
        self._scenarios: dict[str, Scenario] = {}
        self._plans: dict[tuple, ReplayPlan] = {}
        self._field_cache = DistanceFieldCache()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._sessions)

    def session_ids(self) -> list[str]:
        """Active session ids in scheduler (lexicographic) order."""
        return sorted(self._sessions)

    def _session(self, session_id: str) -> FilterSession:
        session = self._sessions.get(session_id)
        if session is None:
            raise EvaluationError(f"unknown session {session_id!r}")
        return session

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def create(self, spec: SessionSpec) -> str:
        """Open one session; returns its id.

        Creation is transactional: if row initialization fails after the
        scheduler admitted the session, the row (and a cohort grown just
        for it) is evicted before the error propagates, leaving the
        manager exactly as if the call had never been made.
        """
        if spec.session_id in self._sessions:
            raise ConfigurationError(
                f"session {spec.session_id!r} already exists"
            )
        session = self._materialize(spec)
        self.scheduler.admit(session)
        try:
            stack = self.scheduler.stack(session)
            stack.init_row(
                session.row,
                session.scenario.grid,
                RunSpec(sequence=session.scenario.sequence, seed=spec.seed),
            )
        except BaseException:
            self.scheduler.evict(session)
            raise
        self._sessions[spec.session_id] = session
        return spec.session_id

    def create_fleet(self, fleet: "FleetSpec | str") -> list[str]:
        """Open one session per fleet declaration; returns their ids.

        Atomic: if any declaration fails, the sessions already created
        by this call are closed again before the error propagates —
        a fleet either comes up whole or not at all.  Sessions that
        existed before the call are never touched.
        """
        if isinstance(fleet, str):
            fleet = FleetSpec.parse(fleet)
        created: list[str] = []
        try:
            for decl in fleet.declarations():
                created.append(self.create(SessionSpec.from_declaration(decl)))
        except BaseException:
            for session_id in reversed(created):
                self.close(session_id)
            raise
        return created

    def close(self, session_id: str) -> SessionResult:
        """Retire a session, returning the trace served so far."""
        session = self._session(session_id)
        stack = self.scheduler.stack(session)
        trace = session.trace(stack.updates(session.row))
        result = SessionResult(
            spec=session.spec, trace=trace, metrics=session.metrics(trace)
        )
        self.scheduler.evict(session)
        del self._sessions[session_id]
        return result

    def discard(self, session_id: str) -> None:
        """Drop a session without building its result.

        The migration commit path: once the target has accepted the
        snapshot, the source copy is forgotten — its trace travelled
        inside the blob, so nothing is lost.
        """
        session = self._session(session_id)
        self.scheduler.evict(session)
        del self._sessions[session_id]

    def _materialize(self, spec: SessionSpec) -> FilterSession:
        """Resolve a spec's world, config, field and replay plan."""
        scenario = self._scenarios.get(spec.scenario)
        if scenario is None:
            obs.counter("serve.scenario_cache.misses").inc()
            scenario = build_scenario(spec.scenario)
            while len(self._scenarios) >= _SCENARIO_CACHE_LIMIT:
                self._scenarios.pop(next(iter(self._scenarios)))
            self._scenarios[spec.scenario] = scenario
        else:
            obs.counter("serve.scenario_cache.hits").inc()
        config = spec.config()
        field = self._field_cache.get(
            scenario.grid, config.r_max, FieldKind.for_mode(config.precision)
        )
        plan_key = (spec.scenario, ReplayPlan.signature(config))
        plan = self._plans.get(plan_key)
        if plan is None:
            obs.counter("serve.plan_cache.misses").inc()
            plan = ReplayPlan(scenario.sequence, config)
            while len(self._plans) >= _PLAN_CACHE_LIMIT:
                self._plans.pop(next(iter(self._plans)))
            self._plans[plan_key] = plan
        else:
            obs.counter("serve.plan_cache.hits").inc()
        return FilterSession(spec, scenario, config, plan, field)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def submit(self, session_id: str, frames: int = 1) -> int:
        """Queue up to ``frames`` observation frames for one session.

        Queues never extend past the session's sequence; returns how
        many frames are now queued.
        """
        if frames < 0:
            raise ConfigurationError(f"frames must be >= 0, got {frames}")
        session = self._session(session_id)
        if session.draining:
            raise EvaluationError(
                f"session {session_id!r} is draining (migration in "
                "flight); new frames are not admitted"
            )
        session.queued = min(session.queued + frames, session.remaining)
        return session.queued

    def submit_all(self, frames: int = 1) -> None:
        """Queue ``frames`` for every active, unfinished, non-draining
        session."""
        for session_id in self.session_ids():
            if not self._sessions[session_id].draining:
                self.submit(session_id, frames)

    def queued(self, session_id: str) -> int:
        """Frames currently queued (accepted, unserved) for one session."""
        return self._session(session_id).queued

    def pending_frames(self) -> int:
        """Total frames queued across all sessions (the ingest backlog)."""
        return sum(session.queued for session in self._sessions.values())

    def servable_frames(self) -> int:
        """Queued frames :meth:`flush` is allowed to serve right now —
        the backlog minus frozen (draining) sessions' queues."""
        return sum(
            session.queued
            for session in self._sessions.values()
            if not session.draining
        )

    # ------------------------------------------------------------------
    # Drain / resume (the migration freeze)
    # ------------------------------------------------------------------
    def drain(self, session_id: str) -> int:
        """Freeze one session for handoff; returns its queued backlog.

        A draining session admits no new frames (:meth:`submit` raises)
        and is skipped by :meth:`flush`, so its filter state holds at the
        current frame boundary and its queued count stays exactly what
        the migration ships.  Idempotent.
        """
        session = self._session(session_id)
        session.draining = True
        return session.queued

    def resume(self, session_id: str) -> int:
        """Unfreeze a drained session (migration rollback); returns its
        queued backlog, which is servable again.  Idempotent."""
        session = self._session(session_id)
        session.draining = False
        return session.queued

    def is_draining(self, session_id: str) -> bool:
        return self._session(session_id).draining

    def flush(self, max_ticks: int | None = None) -> FlushReport:
        """Serve queued frames in packed scheduler ticks.

        Each tick advances every session with queued work by one frame;
        ticks repeat until all queues drain (or ``max_ticks`` ticks ran
        — the online server serves tick-by-tick so new submissions can
        coalesce into the next packed call).  Sessions at different
        replay positions and of different cohorts interleave freely —
        packing is the scheduler's deterministic function of ids.
        """
        ticks = frames = updates = 0
        while max_ticks is None or ticks < max_ticks:
            pending = [
                s
                for s in self._sessions.values()
                if s.queued > 0 and not s.draining
            ]
            if not pending:
                break
            updates += self.scheduler.tick(pending)
            for session in pending:
                session.queued -= 1
            frames += len(pending)
            ticks += 1
        return FlushReport(ticks=ticks, frames=frames, updates=updates)

    def run_to_completion(self, frames_per_flush: int = 16) -> int:
        """Serve every session to the end of its sequence.

        Frames are queued in ``frames_per_flush`` slices (as a real
        ingest loop would) purely for pacing — slicing cannot change
        results.  Returns the total number of frames served.
        """
        if frames_per_flush < 1:
            raise ConfigurationError(
                f"frames_per_flush must be >= 1, got {frames_per_flush}"
            )
        total = 0
        while any(
            not s.done and not s.draining for s in self._sessions.values()
        ):
            self.submit_all(frames_per_flush)
            total += self.flush().frames
        return total

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, session_id: str) -> SessionStatus:
        """Progress, live estimate and metrics-so-far of one session."""
        session = self._session(session_id)
        stack = self.scheduler.stack(session)
        return SessionStatus(
            session_id=session.spec.session_id,
            scenario=session.spec.scenario,
            variant=session.spec.variant,
            particle_count=session.spec.particle_count,
            seed=session.spec.seed,
            cursor=session.cursor,
            frames_total=session.frames_total,
            queued=session.queued,
            update_count=stack.updates(session.row),
            done=session.done,
            estimate=Pose2D(*stack.estimate_array(session.row).tolist()),
            metrics=session.metrics(),
        )

    def cohort_occupancy(self) -> dict[tuple[str, int], dict]:
        """Scheduler row usage per ``(fingerprint, N)`` cohort, plus the
        session ids packed into each — the placement-policy view (and
        what the ``stats`` verb publishes), so callers can assert packing
        without reaching into scheduler internals."""
        occupancy: dict[tuple[str, int], dict] = {
            key: dict(entry, sessions=[])
            for key, entry in self.scheduler.occupancy().items()
        }
        for session_id in self.session_ids():
            cohort_key = self._sessions[session_id].cohort_key
            occupancy[cohort_key]["sessions"].append(session_id)
        return occupancy

    def fleet_metrics(self) -> AggregateMetrics:
        """Aggregate metrics over every active session with frames served."""
        aggregate = AggregateMetrics()
        for session_id in self.session_ids():
            metrics = self._sessions[session_id].metrics()
            if metrics is not None:
                aggregate.add(metrics)
        return aggregate

    # ------------------------------------------------------------------
    # Snapshot / restore (migration and exact replay)
    # ------------------------------------------------------------------
    def snapshot(self, session_id: str) -> bytes:
        """Serialize one session completely (byte-stable)."""
        session = self._session(session_id)
        stack = self.scheduler.stack(session)
        return snapshot_to_bytes(session, stack.export_row(session.row))

    def restore(self, data: bytes, session_id: str | None = None) -> str:
        """Recreate a session from snapshot bytes; returns its id.

        The restored session continues bit-for-bit: filter state, RNG
        position, cursor and trace all resume exactly.  ``session_id``
        optionally renames it (results are id-independent).  The blob's
        estimates must cover its cursor, and its other ``trace_*`` arrays
        must be what this manager's replay plan derives from them.
        """
        spec, cursor, state, trace = snapshot_from_bytes(data, session_id)
        if spec.session_id in self._sessions:
            raise ConfigurationError(
                f"session {spec.session_id!r} already exists"
            )
        session = self._materialize(spec)
        if cursor > session.plan.length:
            raise EvaluationError(
                f"snapshot cursor {cursor} exceeds sequence length "
                f"{session.plan.length} — scenario definition drifted"
            )
        estimates = trace["trace_estimates"]
        if estimates.dtype != np.float64 or estimates.shape != (cursor, 3):
            raise ConfigurationError(
                f"snapshot trace_estimates is {estimates.dtype} "
                f"{estimates.shape}, expected float64 ({cursor}, 3)"
            )
        derived = session.plan.trace(estimates, state.update_count)
        for name in ("timestamps", "position_errors", "yaw_errors"):
            stored, expected = trace[f"trace_{name}"], getattr(derived, name)
            if (stored.dtype, stored.shape, stored.tobytes()) != (
                expected.dtype, expected.shape, expected.tobytes()
            ):
                raise EvaluationError(
                    f"snapshot trace_{name} is not what the replay plan "
                    "derives from its estimates — scenario definition drifted"
                )
        self.scheduler.admit(session)
        try:
            self.scheduler.stack(session).import_row(session.row, state)
        except BaseException:
            # Same transactionality as create: a snapshot that fails to
            # import (dtype/shape drift, truncated state) must not leak
            # the admitted scheduler row or its grown cohort stack.
            self.scheduler.evict(session)
            raise
        session.cursor = cursor
        session.estimates[:cursor] = estimates
        self._sessions[spec.session_id] = session
        return spec.session_id
