"""Telemetry has zero bitwise footprint, asserted at every layer.

The whole subsystem is worthless if flipping it on can move a number:
an instrumented fleet would no longer be comparable to an
uninstrumented paper run.  These tests execute the same workloads with
telemetry fully enabled (registry + spans + JSONL events) and disabled,
and require exact byte equality of every trace array — engine sweep
cells, a mixed fleet served through the socket gateway, and a live
migration between two gateways.
"""

from __future__ import annotations

import asyncio
import hashlib

import numpy as np
import pytest

from repro import obs
from repro.eval.aggregate import SweepProtocol
from repro.eval.sweep_engine import SweepEngine
from repro.scenarios import build_scenario
from repro.serve import MigrationCoordinator, OnlineClient, OnlineServer, Peer
from repro.serve.online import drive_fleet
from repro.soc.perf import MclStep

SCENARIO_SPEC = "maze:0:cells=5+flight_s=25.0+size_m=3.0"
FLEET = (
    "office:1:flight_s=8@fp32@64*2,"
    "office:1:flight_s=8@fp16qm@96~2"
)


def _digest(array) -> str:
    return hashlib.sha256(np.asarray(array).tobytes()).hexdigest()


def _cell_digests() -> list[tuple]:
    scenario = build_scenario(SCENARIO_SPEC)
    engine = SweepEngine(backend="fast")
    result = engine.run(
        scenario.grid,
        [scenario.sequence],
        ["fp32"],
        [64],
        protocol=SweepProtocol(sequence_count=1, seeds=(0, 1)),
    )
    cell = result.cells[("fp32", 64)]
    return [
        (
            run.seed,
            run.update_count,
            _digest(run.timestamps),
            _digest(run.position_errors),
            _digest(run.yaw_errors),
            _digest(run.estimate_trace),
        )
        for run in cell.runs
    ]


def _trace_digests(report) -> dict:
    return {
        sid: (
            closed.trace.update_count,
            _digest(closed.trace.timestamps),
            _digest(closed.trace.position_errors),
            _digest(closed.trace.yaw_errors),
            _digest(closed.trace.estimate_trace),
        )
        for sid, closed in sorted(report.results.items())
    }


def _serve_fleet_digests() -> dict:
    async def serve():
        async with OnlineServer() as server:
            host, port = server.address
            return await drive_fleet(
                host, port, FLEET, connections=2, frames_per_round=5
            )

    return _trace_digests(asyncio.run(serve()))


def _migrated_digests() -> tuple:
    """Serve a fleet on A, rebalance half to B mid-flight, finish."""

    async def scenario():
        async with OnlineServer() as a, OnlineServer() as b:
            client = await OnlineClient.connect(*a.address)
            ids = await client.create_fleet(FLEET)
            await client.submit(ids, frames=10, wait=True)
            coordinator = MigrationCoordinator(
                [Peer(*a.address), Peer(*b.address)]
            )
            moves = await coordinator.rebalance()
            assert moves and all(m.ok for m in moves)
            # Finish every session where it now lives and digest it.
            digests = {}
            for server in (a, b):
                c = await OnlineClient.connect(*server.address)
                stats = await c.stats()
                for cohort in stats["cohort_occupancy"].values():
                    for sid in cohort["sessions"]:
                        status = await c.query(sid)
                        pending = (
                            status["frames_total"] - status["cursor"]
                        )
                        if pending:
                            await c.submit(sid, frames=pending, wait=True)
                        closed = await c.close_session(sid)
                        digests[sid] = (
                            closed.trace.update_count,
                            _digest(closed.trace.timestamps),
                            _digest(closed.trace.position_errors),
                            _digest(closed.trace.estimate_trace),
                        )
                await c.close()
            await client.close()
            return digests, [m.blackout_s for m in moves]

    return asyncio.run(scenario())


class TestEngineInvariance:
    def test_sweep_cell_identical_with_telemetry_on(self, tmp_path):
        obs.disable()
        baseline = _cell_digests()
        obs.enable(tmp_path)
        instrumented = _cell_digests()
        snap = obs.snapshot()
        assert instrumented == baseline
        # The instrumentation actually fired while staying invisible.
        assert snap["counters"]["engine.steps"] > 0
        assert snap["counters"]["sweep.cells"] == 1
        # One span per stage of the paper's Table I, each of which fired.
        for stage in MclStep:
            assert snap["spans"][f"engine.step.{stage.value}"]["count"] > 0, stage
        assert any(tmp_path.glob("events-*.jsonl"))


class TestServeInvariance:
    def test_fleet_through_socket_identical_with_telemetry_on(self):
        obs.disable()
        baseline = _serve_fleet_digests()
        obs.enable()
        instrumented = _serve_fleet_digests()
        snap = obs.snapshot()
        assert instrumented == baseline
        assert snap["counters"]["serve.sched.ticks"] > 0
        assert snap["spans"]["serve.sched.tick"]["count"] > 0
        assert snap["spans"]["serve.client.step_barrier"]["count"] > 0


class TestMigrationInvariance:
    def test_migration_identical_with_telemetry_on(self):
        obs.disable()
        baseline, _ = _migrated_digests()
        obs.enable()
        instrumented, blackouts = _migrated_digests()
        assert instrumented == baseline
        assert all(b > 0.0 for b in blackouts)
        snap = obs.snapshot()
        assert snap["counters"]["migrate.moves_ok"] >= 1
        assert snap["spans"]["migrate.blackout"]["count"] >= 1
