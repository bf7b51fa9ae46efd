"""The online gateway: an asyncio network edge over ``SessionManager``.

:class:`OnlineServer` turns the in-process serving library into a
long-lived network service speaking the length-prefixed JSON protocol of
:mod:`repro.serve.protocol` (create / create_fleet / submit / flush /
query / snapshot / restore / close / stats).  Three properties define
the server, each load-bearing for the "millions of users" axis:

**Per-session request ordering.**  All state mutation happens on one
event loop — there are no threads — and each connection's requests are
processed strictly in arrival order.  A session's verbs therefore apply
in the order its client sent them; interleaving across *different*
sessions is unconstrained (and is where the throughput comes from).

**Coalesced ticking.**  ``submit`` only *queues* frames; a single
background step task drains all queues through
``SessionManager.flush(max_ticks=1)``, yielding to the event loop
between ticks.  Frames submitted by any number of connections while a
tick executes coalesce into the *next* packed tick, so the scheduler's
``(fingerprint, N)`` cohort batching — the ~4x multiplexing win —
survives heavy mixed traffic instead of degrading to one tiny stacked
call per request.  ``flush`` (and ``submit`` with ``wait=true``) is a
barrier: it resolves once the named sessions' queues are empty.

**Admission control and backpressure.**  ``max_sessions`` bounds live
sessions (``create`` / ``create_fleet`` / ``restore`` beyond it are
rejected with the structured code ``admission_rejected``; a fleet is
admitted whole or not at all).  ``max_pending_frames`` bounds the
accepted-but-unserved ingest backlog: submissions that would exceed it
are rejected with ``overloaded`` and the client retries after draining —
the server's memory and tick latency stay bounded no matter how fast
clients push.  Below both sits transport backpressure: frames are read
one at a time per connection and responses are written with ``drain()``.

**Live migration.**  A session can move between servers without its
client observing anything but a short blackout: ``drain`` freezes a
session at its current frame boundary (new submissions answer the
structured code ``draining``; its queued backlog is held, not served),
``migrate`` ships the byte-stable snapshot plus the frozen queue count
to a peer server's ``accept`` verb (admission-checked, cohort-aware —
the restored session joins the target's ``(fingerprint, N)`` cohort
stack), and on success the source forgets its copy.  If the target
rejects the handoff or dies mid-``accept``, the source rolls back —
``resume`` unfreezes the session and it keeps serving locally, so a
failed migration is invisible in the trace.  Fleet-level policy
(evict-by-load, rebalance-to-cohort) lives in
:class:`repro.serve.migrate.MigrationCoordinator`.

Everything served through the socket keeps the serve layer's bitwise
contract: a session's trace returned by ``close`` decodes to arrays
bit-for-bit identical to the same (scenario, variant, N, seed) executed
alone through the reference backend (asserted end-to-end in
``tests/serve/test_online.py`` and ``benchmarks/bench_serve_online.py``);
a *migrated* session's trace is byte-identical to its uninterrupted solo
run, including under injected handoff faults
(``tests/serve/test_migration.py``, ``tests/serve/test_migration_chaos.py``,
``benchmarks/bench_migrate.py``).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from .. import obs
from ..common.errors import ConfigurationError, EvaluationError, ReproError
from ..engine.backend import DEFAULT_BACKEND, RunTrace
from ..eval.metrics import RunMetrics
from ..scenarios.fleet import FleetSpec
from .manager import SessionManager
from .protocol import (
    PROTOCOL_VERSION,
    ErrorCode,
    OnlineError,
    ProtocolError,
    blob_from_json,
    blob_to_json,
    parse_address,
    read_frame,
    trace_from_json,
    trace_to_json,
    write_frame,
)
from .session import SessionSpec, SessionStatus


@dataclass(frozen=True)
class AdmissionPolicy:
    """What the gateway lets in before structured rejection kicks in."""

    #: Live-session cap; ``create``/``create_fleet``/``restore`` past it
    #: answer ``admission_rejected``.
    max_sessions: int = 1024
    #: Cap on frames accepted but not yet served (the ingest backlog);
    #: ``submit`` past it answers ``overloaded``.
    max_pending_frames: int = 65536

    def __post_init__(self) -> None:
        if self.max_sessions < 1:
            raise ConfigurationError(
                f"max_sessions must be >= 1, got {self.max_sessions}"
            )
        if self.max_pending_frames < 1:
            raise ConfigurationError(
                "max_pending_frames must be >= 1, got "
                f"{self.max_pending_frames}"
            )


def _metrics_to_json(metrics: RunMetrics | None) -> dict | None:
    if metrics is None:
        return None
    return {
        "converged": bool(metrics.converged),
        "convergence_time_s": (
            None
            if metrics.convergence_time_s is None
            else float(metrics.convergence_time_s)
        ),
        "success": bool(metrics.success),
        "ate_mean_m": float(metrics.ate_mean_m),
        "ate_rmse_m": float(metrics.ate_rmse_m),
        "ate_max_m": float(metrics.ate_max_m),
        "yaw_mean_rad": float(metrics.yaw_mean_rad),
    }


def _status_to_json(status: SessionStatus) -> dict:
    return {
        "session_id": status.session_id,
        "scenario": status.scenario,
        "variant": status.variant,
        "particle_count": status.particle_count,
        "seed": status.seed,
        "cursor": status.cursor,
        "frames_total": status.frames_total,
        "queued": status.queued,
        "update_count": status.update_count,
        "done": status.done,
        "estimate": [status.estimate.x, status.estimate.y, status.estimate.theta],
        "metrics": _metrics_to_json(status.metrics),
    }


class OnlineServer:
    """Asyncio session gateway; one instance builds and owns one ``SessionManager``."""

    def __init__(
        self,
        backend: str = DEFAULT_BACKEND,
        policy: AdmissionPolicy | None = None,
        peers: "list[tuple[str, int] | str] | None" = None,
        handoff_timeout_s: float = 10.0,
    ) -> None:
        self.manager = SessionManager(backend)
        self.policy = policy or AdmissionPolicy()
        #: Known peer servers; the ``migrate`` verb accepts ``"peer": i``
        #: as an index into this list instead of an explicit address.
        self.peers: list[tuple[str, int]] = [
            parse_address(peer) if isinstance(peer, str) else (peer[0], int(peer[1]))
            for peer in (peers or [])
        ]
        #: Cap on each network leg of one handoff (connect, accept
        #: round-trip); an unresponsive target rolls the migration back.
        self.handoff_timeout_s = handoff_timeout_s
        self._server: asyncio.AbstractServer | None = None
        self._step_task: asyncio.Task | None = None
        self._work = asyncio.Event()
        self._tick_waiters: list[asyncio.Future] = []
        self._migrating: set[str] = set()
        # Per-server telemetry registry (always on — these counters
        # predate the obs subsystem and the `stats` verb's wire format
        # is pinned by tests).  A private registry, not the process
        # global one, so several servers in one process never cross-talk.
        self.obs = obs.LocalObs()
        for key in self._STAT_KEYS:
            self.obs.counter("serve." + key)

    #: The legacy ``stats`` dict keys, in their historical order; the
    #: ``stats`` verb's wire format is the flat projection of these.
    _STAT_KEYS = (
        "ticks",
        "frames_served",
        "updates",
        "connections",
        "requests",
        "rejected_admission",
        "rejected_overload",
        "protocol_errors",
        "drains",
        "migrations_out",
        "migrations_in",
        "migrations_failed",
    )

    @property
    def stats(self) -> dict:
        """The legacy counter view, now a projection of the obs registry.

        Same keys, same int values as the ad-hoc dict this replaced —
        callers (benchmarks, the ``stats`` verb) are unchanged.
        """
        return {
            key: int(self.obs.counter("serve." + key).value)
            for key in self._STAT_KEYS
        }

    def _count(self, key: str, amount: int = 1) -> None:
        self.obs.counter("serve." + key).inc(amount)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start serving; ``port=0`` picks a free port."""
        self._server = await asyncio.start_server(
            self._handle_connection, host=host, port=port
        )
        self._step_task = asyncio.ensure_future(self._step_loop())

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — useful with ``port=0``."""
        if self._server is None or not self._server.sockets:
            raise EvaluationError("server is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def serve_forever(self) -> None:
        if self._server is None:
            raise EvaluationError("server is not started")
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, cancel the step loop, release waiters."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._step_task is not None:
            self._step_task.cancel()
            try:
                await self._step_task
            except asyncio.CancelledError:
                pass
            self._step_task = None
        self._resolve_tick_waiters()

    async def __aenter__(self) -> "OnlineServer":
        if self._server is None:
            await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # The step loop (coalesced ticking)
    # ------------------------------------------------------------------
    async def _step_loop(self) -> None:
        while True:
            await self._work.wait()
            self._work.clear()
            # Draining sessions' frozen queues are excluded: they are
            # not servable here, so looping on them would busy-spin.
            while self.manager.servable_frames() > 0:
                report = self.manager.flush(max_ticks=1)
                self._count("ticks", report.ticks)
                self._count("frames_served", report.frames)
                self._count("updates", report.updates)
                # Tick packing efficiency (frames coalesced per packed
                # tick) and the post-tick ingest backlog.
                if report.ticks:
                    self.obs.histogram(
                        "serve.tick.frames", obs.COUNT_BOUNDS
                    ).observe(report.frames)
                self.obs.gauge("serve.queue_depth").set(
                    self.manager.pending_frames()
                )
                self._resolve_tick_waiters()
                # Yield so connections can ingest new submissions; those
                # frames join the *next* packed tick.
                await asyncio.sleep(0)
            self._resolve_tick_waiters()

    def _resolve_tick_waiters(self) -> None:
        waiters, self._tick_waiters = self._tick_waiters, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)

    def _kick(self) -> None:
        self._work.set()

    async def _wait_drained(self, session_ids: list[str]) -> None:
        """Resolve when every named session's queue is empty.

        Sessions that are draining (or have migrated away) count as
        drained: their frozen frames will be served by the target server
        after handoff, and waiting on them here would deadlock the
        barrier against the migration.
        """

        def pending() -> bool:
            return any(
                sid in self.manager._sessions
                and self.manager._sessions[sid].queued > 0
                and not self.manager._sessions[sid].draining
                for sid in session_ids
            )

        while pending():
            waiter: asyncio.Future = asyncio.get_running_loop().create_future()
            self._tick_waiters.append(waiter)
            await waiter

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._count("connections")
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except ProtocolError as exc:
                    # Framing is broken — answer once and hang up; the
                    # sessions this connection touched are server-side
                    # state and keep serving.
                    self._count("protocol_errors")
                    await self._safe_error(
                        writer, ErrorCode.BAD_REQUEST, str(exc)
                    )
                    break
                if request is None:
                    break  # clean EOF (or reset) — sessions live on
                response = await self._dispatch(request)
                try:
                    await write_frame(writer, response)
                except (ConnectionResetError, BrokenPipeError):
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _safe_error(
        self, writer: asyncio.StreamWriter, code: str, message: str
    ) -> None:
        try:
            await write_frame(
                writer,
                {"ok": False, "error": {"code": code, "message": message}},
            )
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def _dispatch(self, request: dict) -> dict:
        self._count("requests")
        op = request.get("op")
        handler = self._HANDLERS.get(op)
        if handler is None:
            return _error(
                ErrorCode.BAD_REQUEST,
                f"unknown op {op!r}; expected one of: "
                + ", ".join(sorted(self._HANDLERS)),
            )
        version = request.get("v", PROTOCOL_VERSION)
        if version != PROTOCOL_VERSION:
            return _error(
                ErrorCode.BAD_REQUEST,
                f"protocol version {version!r} is not supported "
                f"(server speaks {PROTOCOL_VERSION})",
            )
        # Per-verb latency: a span (count/total/min/max) plus a fixed-
        # bound histogram, both under the same name.  The span measures
        # the full handler, error paths included — rejections are real
        # latency a client observed.
        span = self.obs.span("serve.verb." + op)
        with span:
            try:
                response = await handler(self, request)
            except _Rejection as exc:
                response = _error(exc.code, str(exc))
            except ConfigurationError as exc:
                response = _error(ErrorCode.CONFIGURATION, str(exc))
            except EvaluationError as exc:
                response = _error(ErrorCode.EVALUATION, str(exc))
            except ReproError as exc:
                response = _error(ErrorCode.BAD_REQUEST, str(exc))
            except Exception as exc:  # noqa: BLE001 — one request, not the server
                response = _error(
                    ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}"
                )
        self.obs.histogram("serve.verb." + op).observe(span.elapsed_s)
        return response

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _admit_sessions(self, new_sessions: int) -> None:
        if len(self.manager) + new_sessions > self.policy.max_sessions:
            self._count("rejected_admission")
            raise _Rejection(
                ErrorCode.ADMISSION_REJECTED,
                f"admitting {new_sessions} session(s) would exceed the "
                f"cap of {self.policy.max_sessions} "
                f"({len(self.manager)} live)",
            )

    def _admit_frames(self, new_frames: int) -> None:
        backlog = self.manager.pending_frames()
        if backlog + new_frames > self.policy.max_pending_frames:
            self._count("rejected_overload")
            raise _Rejection(
                ErrorCode.OVERLOADED,
                f"submitting {new_frames} frame(s) would exceed the "
                f"ingest bound of {self.policy.max_pending_frames} "
                f"({backlog} queued); drain with flush and retry",
            )

    # ------------------------------------------------------------------
    # Op handlers
    # ------------------------------------------------------------------
    async def _op_create(self, request: dict) -> dict:
        spec = SessionSpec(
            session_id=_require(request, "session_id", str),
            scenario=_require(request, "scenario", str),
            variant=request.get("variant", "fp32"),
            particle_count=request.get("particle_count", 64),
            seed=request.get("seed", 0),
        )
        self._admit_sessions(1)
        return _ok(session_id=self.manager.create(spec))

    async def _op_create_fleet(self, request: dict) -> dict:
        fleet = FleetSpec.parse(_require(request, "fleet", str))
        self._admit_sessions(len(fleet))
        return _ok(session_ids=self.manager.create_fleet(fleet))

    async def _op_submit(self, request: dict) -> dict:
        session_ids = _session_list(request)
        frames = request.get("frames", 1)
        if not isinstance(frames, int) or frames < 0:
            raise _Rejection(
                ErrorCode.BAD_REQUEST, f"frames must be an int >= 0, got {frames!r}"
            )
        for sid in session_ids:  # validate before mutating anything
            self.manager._session(sid)
            if self.manager.is_draining(sid):
                raise _Rejection(
                    ErrorCode.DRAINING,
                    f"session {sid!r} is draining (migration in flight); "
                    "retry after the handoff settles",
                )
        self._admit_frames(frames * len(session_ids))
        queued = {sid: self.manager.submit(sid, frames) for sid in session_ids}
        self._kick()
        if request.get("wait", False):
            await self._wait_drained(session_ids)
        return _ok(queued=queued, pending=self.manager.pending_frames())

    async def _op_flush(self, request: dict) -> dict:
        session_ids = (
            _session_list(request)
            if ("session" in request or "sessions" in request)
            else self.manager.session_ids()
        )
        self._kick()
        await self._wait_drained(session_ids)
        return _ok(
            ticks=int(self.obs.counter("serve.ticks").value),
            frames_served=int(self.obs.counter("serve.frames_served").value),
            pending=self.manager.pending_frames(),
        )

    async def _op_query(self, request: dict) -> dict:
        status = self.manager.query(_require(request, "session", str))
        return _ok(status=_status_to_json(status))

    async def _op_snapshot(self, request: dict) -> dict:
        session_id = _require(request, "session", str)
        self._guard_migrating(session_id)
        blob = self.manager.snapshot(session_id)
        return _ok(snapshot=blob_to_json(blob))

    async def _op_restore(self, request: dict) -> dict:
        blob = blob_from_json(_require(request, "snapshot", str))
        session_id = request.get("session_id")
        self._admit_sessions(1)
        return _ok(session_id=self.manager.restore(blob, session_id))

    async def _op_close(self, request: dict) -> dict:
        session_id = _require(request, "session", str)
        self._guard_migrating(session_id)
        result = self.manager.close(session_id)
        return _ok(
            session_id=result.spec.session_id,
            scenario=result.spec.scenario,
            variant=result.spec.variant,
            particle_count=result.spec.particle_count,
            seed=result.spec.seed,
            trace=trace_to_json(result.trace),
            metrics=_metrics_to_json(result.metrics),
        )

    async def _op_stats(self, _request: dict) -> dict:
        return _ok(
            protocol=PROTOCOL_VERSION,
            sessions=len(self.manager),
            pending_frames=self.manager.pending_frames(),
            cohorts=self.manager.scheduler.cohort_count(),
            cohort_occupancy={
                f"{fingerprint}/{particles}": entry
                for (fingerprint, particles), entry in sorted(
                    self.manager.cohort_occupancy().items()
                )
            },
            peers=[f"{host}:{port}" for host, port in self.peers],
            max_sessions=self.policy.max_sessions,
            max_pending_frames=self.policy.max_pending_frames,
            **self.stats,
        )

    async def _op_metrics(self, request: dict) -> dict:
        """Full telemetry snapshot: this server's registry merged over
        the process-global one (engine/sweep instrumentation, when
        enabled).  ``format="prom"`` returns the Prometheus text
        exposition instead of the canonical JSON sections."""
        fmt = request.get("format", "json")
        snap = obs.merge_snapshots(obs.snapshot(), self.obs.snapshot())
        if fmt == "prom":
            return _ok(format="prom", exposition=obs.render_prometheus(snap))
        if fmt != "json":
            raise _Rejection(
                ErrorCode.BAD_REQUEST,
                f"unknown metrics format {fmt!r}; expected 'json' or 'prom'",
            )
        return _ok(format="json", metrics=snap)

    # ------------------------------------------------------------------
    # Migration (drain / handoff / rollback)
    # ------------------------------------------------------------------
    def _guard_migrating(self, session_id: str) -> None:
        """Reject state-changing verbs racing an in-flight handoff."""
        if session_id in self._migrating:
            raise _Rejection(
                ErrorCode.DRAINING,
                f"session {session_id!r} has a migration in flight; "
                "retry after it settles",
            )

    def _resolve_target(self, request: dict) -> tuple[str, int]:
        if "target" in request:
            return parse_address(_require(request, "target", str))
        peer = request.get("peer")
        if isinstance(peer, int) and 0 <= peer < len(self.peers):
            return self.peers[peer]
        raise _Rejection(
            ErrorCode.BAD_REQUEST,
            "migrate needs 'target' (\"host:port\") or 'peer' (an index "
            f"into the {len(self.peers)} configured peer(s)), got "
            f"peer={peer!r}",
        )

    async def _op_drain(self, request: dict) -> dict:
        session_id = _require(request, "session", str)
        self._guard_migrating(session_id)
        queued = self.manager.drain(session_id)
        self._count("drains")
        return _ok(
            session_id=session_id,
            draining=True,
            queued=queued,
            cursor=self.manager._session(session_id).cursor,
        )

    async def _op_resume(self, request: dict) -> dict:
        session_id = _require(request, "session", str)
        self._guard_migrating(session_id)
        queued = self.manager.resume(session_id)
        self._kick()  # the frozen backlog is servable again
        return _ok(session_id=session_id, draining=False, queued=queued)

    async def _op_accept(self, request: dict) -> dict:
        """Target side of a handoff: restore the blob, requeue frames.

        Exactly the admission rules of ``create`` + ``submit`` apply —
        a target at capacity answers ``admission_rejected`` and the
        source rolls back.  The restored session joins this manager's
        ``(fingerprint, N)`` cohort stack, so rebalancing preserves the
        batching win by construction.
        """
        blob = blob_from_json(_require(request, "snapshot", str))
        queued = request.get("queued", 0)
        if not isinstance(queued, int) or queued < 0:
            raise _Rejection(
                ErrorCode.BAD_REQUEST,
                f"queued must be an int >= 0, got {queued!r}",
            )
        self._admit_sessions(1)
        self._admit_frames(queued)
        with self.obs.span("serve.migrate.accept"):
            session_id = self.manager.restore(blob, request.get("session_id"))
            if queued:
                self.manager.submit(session_id, queued)
                self._kick()
        self._count("migrations_in")
        obs.event("serve.migrate.in", session=session_id, queued=queued)
        return _ok(
            session_id=session_id, queued=self.manager.queued(session_id)
        )

    async def _op_migrate(self, request: dict) -> dict:
        """Source side of a handoff: drain, ship, redirect — or roll back.

        The session is frozen at its current frame boundary, its
        snapshot plus frozen queue count shipped to the target's
        ``accept``.  Only a positive acknowledgement commits (the source
        forgets its copy); *any* other outcome — structured rejection,
        connection refused, target dying mid-``accept``, timeout — rolls
        back, leaving the session serving here exactly as if the call
        had never been made.  An ambiguous outcome (timeout after the
        accept frame was sent) also rolls back: the source stays
        authoritative, and a duplicate on the target is harmless because
        traces are deterministic — close it.
        """
        session_id = _require(request, "session", str)
        session = self.manager._session(session_id)
        host, port = self._resolve_target(request)
        self._guard_migrating(session_id)
        self._migrating.add(session_id)
        try:
            # The source-side blackout span covers drain through commit
            # (or rollback) — the window in which this server will not
            # admit frames for the session.
            with self.obs.span("serve.migrate.blackout"):
                with self.obs.span("serve.migrate.drain"):
                    queued = self.manager.drain(session_id)
                    self._count("drains")
                    cursor = session.cursor
                    blob = self.manager.snapshot(session_id)
                handoff = self.obs.span("serve.migrate.handoff")
                try:
                    with handoff:
                        reader, writer = await asyncio.wait_for(
                            asyncio.open_connection(host, port),
                            timeout=self.handoff_timeout_s,
                        )
                        client = OnlineClient(reader, writer)
                        try:
                            response = await asyncio.wait_for(
                                client.request(
                                    "accept",
                                    snapshot=blob_to_json(blob),
                                    queued=queued,
                                    session_id=session_id,
                                ),
                                timeout=self.handoff_timeout_s,
                            )
                        finally:
                            await client.close()
                except OnlineError as exc:
                    self._rollback(session_id)
                    raise _Rejection(
                        ErrorCode.MIGRATION_FAILED,
                        f"target {host}:{port} rejected the handoff "
                        f"([{exc.code}] {exc}); session {session_id!r} "
                        "rolled back and keeps serving here",
                    )
                except (ProtocolError, OSError, asyncio.TimeoutError) as exc:
                    self._rollback(session_id)
                    raise _Rejection(
                        ErrorCode.MIGRATION_FAILED,
                        f"target {host}:{port} died mid-handoff "
                        f"({type(exc).__name__}: {exc}); session "
                        f"{session_id!r} rolled back and keeps serving here",
                    )
                # Committed on the target: forget the source copy and
                # wake any barrier waiting on this session's (now
                # remote) queue.
                self.manager.discard(session_id)
                self._kick()
                self._count("migrations_out")
            obs.event(
                "serve.migrate.out",
                session=session_id,
                target=f"{host}:{port}",
                queued=queued,
            )
            return _ok(
                session_id=response.get("session_id", session_id),
                target=f"{host}:{port}",
                cursor=cursor,
                queued=queued,
            )
        finally:
            self._migrating.discard(session_id)

    def _rollback(self, session_id: str) -> None:
        self._count("migrations_failed")
        obs.event("serve.migrate.rollback", session=session_id)
        self.manager.resume(session_id)
        self._kick()

    _HANDLERS = {
        "create": _op_create,
        "create_fleet": _op_create_fleet,
        "submit": _op_submit,
        "flush": _op_flush,
        "query": _op_query,
        "snapshot": _op_snapshot,
        "restore": _op_restore,
        "close": _op_close,
        "stats": _op_stats,
        "metrics": _op_metrics,
        "drain": _op_drain,
        "resume": _op_resume,
        "migrate": _op_migrate,
        "accept": _op_accept,
    }


class _Rejection(ReproError):
    """Internal: a structured rejection with a protocol error code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def _ok(**fields) -> dict:
    return {"ok": True, **fields}


def _error(code: str, message: str) -> dict:
    return {"ok": False, "error": {"code": code, "message": message}}


def _require(request: dict, key: str, kind: type) -> object:
    value = request.get(key)
    if not isinstance(value, kind):
        raise _Rejection(
            ErrorCode.BAD_REQUEST,
            f"request field {key!r} must be a {kind.__name__}, "
            f"got {type(value).__name__}",
        )
    return value


def _session_list(request: dict) -> list[str]:
    if "session" in request:
        return [_require(request, "session", str)]
    sessions = request.get("sessions")
    if (
        not isinstance(sessions, list)
        or not sessions
        or not all(isinstance(sid, str) for sid in sessions)
    ):
        raise _Rejection(
            ErrorCode.BAD_REQUEST,
            "request needs 'session' (str) or 'sessions' (non-empty "
            "list of str)",
        )
    return sessions


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
@dataclass
class ClosedSession:
    """What ``OnlineClient.close_session`` returns, decoded."""

    spec: SessionSpec
    trace: RunTrace
    metrics: dict | None


class OnlineClient:
    """Asyncio client of one :class:`OnlineServer` connection.

    One client = one ordered request stream: every call sends one frame
    and awaits its response, so a session driven by one client sees its
    verbs applied in call order (the server's per-connection guarantee).
    Server-side rejections raise :class:`~repro.serve.protocol.OnlineError`
    carrying the structured code.
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(cls, host: str, port: int) -> "OnlineClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def request(self, op: str, **params) -> dict:
        await write_frame(self._writer, {"op": op, **params})
        response = await read_frame(self._reader)
        if response is None:
            raise ProtocolError("server closed the connection mid-request")
        if not response.get("ok", False):
            error = response.get("error") or {}
            raise OnlineError(
                error.get("code", ErrorCode.INTERNAL),
                error.get("message", "unspecified server error"),
            )
        return response

    async def create(self, spec: SessionSpec) -> str:
        response = await self.request(
            "create",
            session_id=spec.session_id,
            scenario=spec.scenario,
            variant=spec.variant,
            particle_count=spec.particle_count,
            seed=spec.seed,
        )
        return response["session_id"]

    async def create_fleet(self, fleet: "FleetSpec | str") -> list[str]:
        spec = fleet if isinstance(fleet, str) else fleet.id
        response = await self.request("create_fleet", fleet=spec)
        return response["session_ids"]

    async def submit(
        self,
        sessions: "str | list[str]",
        frames: int = 1,
        wait: bool = False,
    ) -> dict:
        params: dict = {"frames": frames, "wait": wait}
        if isinstance(sessions, str):
            params["session"] = sessions
        else:
            params["sessions"] = sessions
        return await self.request("submit", **params)

    async def submit_with_retry(
        self,
        sessions: "str | list[str]",
        frames: int = 1,
        wait: bool = False,
        attempts: int = 8,
        base_delay_s: float = 0.05,
        max_delay_s: float = 1.0,
        retry_codes: tuple = (ErrorCode.OVERLOADED,),
    ) -> dict:
        """``submit`` with bounded retry on transient backpressure.

        ``overloaded`` means the ingest bound would be exceeded and
        *nothing was queued* — the correct response is to let the step
        loop drain and retry, not to raise through a fleet driver.  The
        backoff schedule is deterministic (no jitter, so fleet runs
        replay identically): ``base_delay_s * 2**attempt`` capped at
        ``max_delay_s``, for at most ``attempts`` submissions.  Any
        other code — and ``retry_codes`` exhaustion — raises the
        underlying :class:`OnlineError`.
        """
        if attempts < 1:
            raise ConfigurationError(f"attempts must be >= 1, got {attempts}")
        delay_s = base_delay_s
        for attempt in range(attempts):
            try:
                return await self.submit(sessions, frames, wait)
            except OnlineError as exc:
                if exc.code not in retry_codes or attempt == attempts - 1:
                    raise
            await asyncio.sleep(min(delay_s, max_delay_s))
            delay_s *= 2.0
        raise AssertionError("unreachable")  # pragma: no cover

    async def flush(self, sessions: "list[str] | None" = None) -> dict:
        if sessions is None:
            return await self.request("flush")
        return await self.request("flush", sessions=sessions)

    async def query(self, session_id: str) -> dict:
        return (await self.request("query", session=session_id))["status"]

    async def snapshot(self, session_id: str) -> bytes:
        response = await self.request("snapshot", session=session_id)
        return blob_from_json(response["snapshot"])

    async def restore(
        self, blob: bytes, session_id: "str | None" = None
    ) -> str:
        params: dict = {"snapshot": blob_to_json(blob)}
        if session_id is not None:
            params["session_id"] = session_id
        return (await self.request("restore", **params))["session_id"]

    async def drain(self, session_id: str) -> dict:
        return await self.request("drain", session=session_id)

    async def resume(self, session_id: str) -> dict:
        return await self.request("resume", session=session_id)

    async def migrate(
        self,
        session_id: str,
        target: "str | None" = None,
        peer: "int | None" = None,
    ) -> dict:
        """Move one session to ``target`` (``"host:port"``) or the
        source server's configured ``peer`` index; returns the redirect
        (``target``, ``cursor``, ``queued``).  Raises ``OnlineError``
        with code ``migration_failed`` if the handoff rolled back."""
        params: dict = {"session": session_id}
        if target is not None:
            params["target"] = target
        if peer is not None:
            params["peer"] = peer
        return await self.request("migrate", **params)

    async def accept(
        self,
        blob: bytes,
        queued: int = 0,
        session_id: "str | None" = None,
    ) -> str:
        params: dict = {"snapshot": blob_to_json(blob), "queued": queued}
        if session_id is not None:
            params["session_id"] = session_id
        return (await self.request("accept", **params))["session_id"]

    async def close_session(self, session_id: str) -> ClosedSession:
        response = await self.request("close", session=session_id)
        return ClosedSession(
            spec=SessionSpec(
                session_id=response["session_id"],
                scenario=response["scenario"],
                variant=response["variant"],
                particle_count=response["particle_count"],
                seed=response["seed"],
            ),
            trace=trace_from_json(response["trace"]),
            metrics=response["metrics"],
        )

    async def stats(self) -> dict:
        return await self.request("stats")

    async def metrics(self, format: str | None = None) -> dict:
        if format is None:
            return await self.request("metrics")
        return await self.request("metrics", format=format)

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def __aenter__(self) -> "OnlineClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


# ----------------------------------------------------------------------
# Fleet driver (CLI demo + benchmark harness)
# ----------------------------------------------------------------------
@dataclass
class FleetDriveReport:
    """What :func:`drive_fleet` measured over one served fleet."""

    #: Closed sessions by id (full traces, decoded from the wire).
    results: dict
    #: Fixed-bound histogram of per-(connection, round) step-barrier
    #: latency — each observation is the wall time from submitting one
    #: frame per owned session to all of them being served.  Bounded
    #: memory regardless of drive length (was an unbounded list).
    step_latency: "obs.Histogram"
    #: Serving wall clock: first submit to last queue drained.
    serve_s: float
    #: Server-side counters at the end of the drive.
    stats: dict


async def drive_fleet(
    host: str,
    port: int,
    fleet: "FleetSpec | str",
    connections: int = 4,
    frames_per_round: int = 1,
) -> FleetDriveReport:
    """Serve one fleet to completion through the socket gateway.

    Opens ``connections`` client connections, partitions the fleet's
    sessions round-robin across them, and has every connection submit
    ``frames_per_round`` frames per owned session with ``wait=true`` —
    a step barrier per connection per round, timed individually.
    Connections run concurrently and unsynchronized, so the server sees
    heavy mixed traffic at staggered replay positions and its tick
    coalescing is what keeps the cohort batching intact.
    """
    control = await OnlineClient.connect(host, port)
    session_ids = await control.create_fleet(
        fleet if isinstance(fleet, str) else fleet.id
    )
    connections = max(1, min(connections, len(session_ids)))
    groups: list[list[str]] = [[] for _ in range(connections)]
    remaining: dict[str, int] = {}
    for index, sid in enumerate(session_ids):
        groups[index % connections].append(sid)
        status = await control.query(sid)
        remaining[sid] = status["frames_total"]

    step_latency = obs.Histogram(
        "serve.client.step_barrier", obs.LATENCY_BOUNDS_S
    )

    async def run_group(owned: list[str]) -> None:
        async with await OnlineClient.connect(host, port) as client:
            while any(remaining[sid] > 0 for sid in owned):
                live = [sid for sid in owned if remaining[sid] > 0]
                # Bounded retry-after-drain: transient `overloaded`
                # rejections (the ingest bound) drain and resolve rather
                # than aborting the drive.
                with obs.timed("serve.client.step_barrier") as barrier:
                    await client.submit_with_retry(
                        live, frames=frames_per_round, wait=True
                    )
                step_latency.observe(barrier.elapsed_s)
                for sid in live:
                    remaining[sid] -= min(frames_per_round, remaining[sid])

    with obs.timed("serve.client.drive_fleet") as drive_timer:
        await asyncio.gather(*(run_group(group) for group in groups if group))
    serve_s = drive_timer.elapsed_s

    results = {sid: await control.close_session(sid) for sid in session_ids}
    stats = await control.stats()
    await control.close()
    return FleetDriveReport(
        results=results,
        step_latency=step_latency,
        serve_s=serve_s,
        stats=stats,
    )
