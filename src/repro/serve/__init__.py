"""Fleet serving: multiplexed online localization sessions.

This package turns the filter into a *service*: a
:class:`SessionManager` owns many concurrent :class:`FilterSession`s —
one per simulated drone, mixing scenarios, precision variants, particle
counts and seeds — and a deterministic :class:`StepScheduler` packs
their pending observation steps into shared ``(R, N)``-stacked backend
calls, so fleet throughput inherits the stacked backend's small-N win
instead of paying one scalar filter loop per drone.

Sessions support create / step (submit + flush) / query / close plus
byte-stable snapshot / restore; every session's trace is **bitwise
identical** to the same (scenario, variant, N, seed) run stepped alone
through the reference backend.  See ``docs/serving.md``.

The network edge lives in :mod:`repro.serve.online`
(:class:`OnlineServer` / :class:`OnlineClient`, the asyncio gateway with
per-session ordering, coalesced ticking, admission control and
backpressure) over the wire protocol of :mod:`repro.serve.protocol`.
Live sessions move *between* servers through the drain/handoff verbs
and the fleet-level :class:`MigrationCoordinator` of
:mod:`repro.serve.migrate` — migration is bitwise-invisible to the
migrated session's trace.
"""

from .manager import FlushReport, SessionManager
from .migrate import MigrationCoordinator, Move, MoveResult, Peer
from .online import AdmissionPolicy, OnlineClient, OnlineServer
from .protocol import PROTOCOL_VERSION, ErrorCode, OnlineError, ProtocolError
from .scheduler import StepScheduler
from .session import (
    FilterSession,
    SessionResult,
    SessionSpec,
    SessionStatus,
    snapshot_from_bytes,
    snapshot_to_bytes,
)

__all__ = [
    "AdmissionPolicy",
    "ErrorCode",
    "FilterSession",
    "FlushReport",
    "MigrationCoordinator",
    "Move",
    "MoveResult",
    "OnlineClient",
    "OnlineError",
    "OnlineServer",
    "PROTOCOL_VERSION",
    "Peer",
    "ProtocolError",
    "SessionManager",
    "SessionResult",
    "SessionSpec",
    "SessionStatus",
    "StepScheduler",
    "snapshot_from_bytes",
    "snapshot_to_bytes",
]
