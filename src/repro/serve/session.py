"""Live localization sessions: one filter served per simulated drone.

A :class:`FilterSession` is one client of the serving layer: a filter
replaying one scenario under one (config spec, N, seed), advanced one
observation frame at a time.  Its particle state lives as a *row* in a
shared :class:`~repro.engine.backend.SessionStack` owned by the
scheduler's cohort for its ``(config fingerprint, N)`` — the session's
:attr:`~FilterSession.cohort_key`, computed from the materialized
config; the session itself owns
everything per-client — the replay cursor, the pending-frame queue, and
the estimate served at each frame so far.  Its trace is derived from
those estimates by its replay plan
(:meth:`~repro.engine.replay.ReplayPlan.trace`), as the offline driver
derives a run's.

The trace of a fully stepped session is **bitwise identical**
to the :class:`~repro.engine.backend.RunTrace` of the same
(sequence, seed) executed alone through the reference backend — that is
the serve layer's extension of the engine's equivalence contract, and
``tests/serve/test_fleet_equivalence.py`` asserts it for mixed fleets.

Snapshots (:func:`snapshot_to_bytes` / :func:`snapshot_from_bytes`)
serialize a session completely — filter state, cursor, trace — as one
byte-stable ``.npz`` blob: the same session state always produces the
same bytes, and a restored session continues bit-for-bit, enabling
migration between managers/hosts and exact replay.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass

import numpy as np

from ..common.errors import ConfigurationError
from ..common.geometry import Pose2D
from ..core.config import ConfigSpec, MclConfig
from ..core.snapshot import SNAPSHOT_VERSION, FilterStateSnapshot
from ..engine.backend import RunTrace
from ..engine.replay import ReplayPlan
from ..eval.metrics import RunMetrics, evaluate_partial_run
from ..scenarios.base import Scenario
from ..scenarios.fleet import FleetSessionDecl
from ..scenarios.registry import canonical_scenario_id


@dataclass(frozen=True)
class SessionSpec:
    """The declaration of one serving session.

    ``scenario`` is normalized to its canonical id on construction, so
    two spellings of the same world declare the same session workload.
    ``variant`` is a config spec (``variant[+key=value...]``), likewise
    normalized — one fleet can mix paper variants and ablated filters.
    """

    session_id: str
    scenario: str
    variant: str = "fp32"
    particle_count: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.session_id:
            raise ConfigurationError("session needs a non-empty id")
        object.__setattr__(
            self, "scenario", canonical_scenario_id(self.scenario)
        )
        object.__setattr__(self, "variant", ConfigSpec.parse(self.variant).id)
        if self.particle_count < 1:
            raise ConfigurationError(
                f"particle count must be >= 1, got {self.particle_count}"
            )
        object.__setattr__(self, "particle_count", int(self.particle_count))
        object.__setattr__(self, "seed", int(self.seed))

    @staticmethod
    def from_declaration(decl: FleetSessionDecl) -> "SessionSpec":
        return SessionSpec(
            session_id=decl.session_id,
            scenario=decl.scenario,
            variant=decl.variant,
            particle_count=decl.particle_count,
            seed=decl.seed,
        )

    def config(self, base: MclConfig | None = None) -> MclConfig:
        """The full filter config this session runs under.

        Specs materialize over the paper defaults; only
        ``perfbench/workloads/serve_fleet.py`` passes ``base``, and it
        passes those defaults.
        """
        return ConfigSpec.parse(self.variant).config(
            base=base, particle_count=self.particle_count
        )


@dataclass
class SessionStatus:
    """A live snapshot of one session's progress (``manager.query``)."""

    session_id: str
    scenario: str
    variant: str
    particle_count: int
    seed: int
    cursor: int
    frames_total: int
    queued: int
    update_count: int
    done: bool
    estimate: Pose2D
    metrics: RunMetrics | None


@dataclass
class SessionResult:
    """What closing a session returns: its full trace plus metrics.

    ``trace``/``metrics`` cover the frames actually served; for a
    completely stepped session they equal the offline evaluation of the
    same (sequence, seed) bit for bit.
    """

    spec: SessionSpec
    trace: RunTrace
    metrics: RunMetrics | None


class FilterSession:
    """Mutable serving state of one session (scheduler-internal).

    The session references — but does not own — its stack row; the
    scheduler assigns and recycles rows as sessions come and go.
    """

    def __init__(
        self,
        spec: SessionSpec,
        scenario: Scenario,
        config: MclConfig,
        plan: ReplayPlan,
        field,
    ) -> None:
        self.spec = spec
        self.scenario = scenario
        self.config = config
        self.plan = plan
        self.field = field
        # Cohort identity of the *materialized* config: sessions sharing
        # this key share one stack, so it must pin every numeric facet —
        # the fingerprint does (N fixes the array shapes).
        self.cohort_key = (config.fingerprint(), config.particle_count)
        self.row = -1  # assigned by the scheduler
        self.cursor = 0
        self.queued = 0
        # A draining session (migration in flight) admits no new frames
        # and is skipped by flush ticks: its queued backlog is frozen at
        # the value the handoff ships, and the filter state stays at the
        # exact frame boundary the snapshot captured.
        self.draining = False
        # The estimate [x, y, theta] served at each frame; rows below the
        # cursor are filled.
        self.estimates = np.empty((plan.length, 3))

    @property
    def frames_total(self) -> int:
        return self.plan.length

    @property
    def done(self) -> bool:
        return self.cursor >= self.plan.length

    @property
    def remaining(self) -> int:
        return self.plan.length - self.cursor

    def record(self, estimate: np.ndarray) -> None:
        """Keep the current frame's estimate ``[x, y, theta]`` and advance."""
        self.estimates[self.cursor] = estimate
        self.cursor += 1

    def trace(self, update_count: int) -> RunTrace:
        """The trace served so far, in backend ``RunTrace`` form."""
        return self.plan.trace(self.estimates[: self.cursor], update_count)

    def metrics(self, trace: RunTrace | None = None) -> RunMetrics | None:
        """Paper metrics of the trace so far (None before any frame);
        ``trace`` is that trace when the caller has derived it already."""
        if trace is None:
            trace = self.trace(0)  # the metrics read no update count
        return evaluate_partial_run(
            trace.timestamps, trace.position_errors, trace.yaw_errors
        )


# ----------------------------------------------------------------------
# Snapshot serialization (byte-stable .npz blobs)
# ----------------------------------------------------------------------
def snapshot_to_bytes(
    session: FilterSession, state: FilterStateSnapshot
) -> bytes:
    """Serialize a session + its filter state as one byte-stable blob.

    The payload is written with sorted keys through
    ``np.savez_compressed`` (fixed zip timestamps), so identical session
    state always yields identical bytes — snapshots can themselves be
    content-addressed, diffed, and byte-verified after migration.  The
    ``trace_*`` arrays are the session's trace, derived here from its
    estimates.
    """
    meta = {
        "format": SNAPSHOT_VERSION,
        "kind": "serve-session",
        "session_id": session.spec.session_id,
        "scenario": session.spec.scenario,
        "variant": session.spec.variant,
        "particle_count": session.spec.particle_count,
        "seed": session.spec.seed,
        "cursor": session.cursor,
    }
    payload = state.to_payload(prefix="state_")
    payload["serve_meta"] = np.array(json.dumps(meta, sort_keys=True))
    trace = session.trace(state.update_count)
    payload["trace_timestamps"] = trace.timestamps
    payload["trace_position_errors"] = trace.position_errors
    payload["trace_yaw_errors"] = trace.yaw_errors
    payload["trace_estimates"] = trace.estimate_trace
    buffer = io.BytesIO()
    np.savez_compressed(
        buffer, **{key: payload[key] for key in sorted(payload)}
    )
    return buffer.getvalue()


def snapshot_from_bytes(
    data: bytes, session_id: str | None = None
) -> tuple[SessionSpec, int, FilterStateSnapshot, dict[str, np.ndarray]]:
    """Parse a snapshot blob back into its parts.

    Returns ``(spec, cursor, filter_state, trace_arrays)``;
    ``session_id`` optionally renames the restored session (state and
    results are id-independent — only scheduler packing order changes).
    """
    try:
        archive = np.load(io.BytesIO(data))
    except Exception as exc:  # zipfile.BadZipFile, ValueError, OSError
        raise ConfigurationError(
            "snapshot bytes are not a readable npz archive"
        ) from exc
    with archive:
        try:
            meta = json.loads(str(archive["serve_meta"]))
        except KeyError as exc:
            raise ConfigurationError(
                "not a serve-session snapshot (missing serve_meta)"
            ) from exc
        if meta.get("kind") != "serve-session":
            raise ConfigurationError(
                f"unexpected snapshot kind {meta.get('kind')!r}"
            )
        if meta.get("format") != SNAPSHOT_VERSION:
            raise ConfigurationError(
                f"snapshot format {meta.get('format')!r} is not supported "
                f"(expected {SNAPSHOT_VERSION})"
            )
        spec = SessionSpec(
            session_id=session_id or meta["session_id"],
            scenario=meta["scenario"],
            variant=meta["variant"],
            particle_count=meta["particle_count"],
            seed=meta["seed"],
        )
        state = FilterStateSnapshot.from_payload(archive, prefix="state_")
        try:
            trace = {
                key: np.array(archive[key])
                for key in (
                    "trace_timestamps",
                    "trace_position_errors",
                    "trace_yaw_errors",
                    "trace_estimates",
                )
            }
        except KeyError as exc:
            raise ConfigurationError(
                f"snapshot trace is incomplete: {exc.args[0]}"
            ) from exc
    return spec, int(meta["cursor"]), state, trace
