"""Live migration is bitwise-invisible: a session that moves between
servers produces the trace of its uninterrupted solo run, bit for bit.

Every test runs two (or more) real ``OnlineServer`` instances on
loopback TCP ports inside one event loop and moves sessions between
them with the ``drain`` / ``migrate`` / ``accept`` verbs — through
``OnlineClient``, or through the fleet-level ``MigrationCoordinator``.
Bitwise equality is asserted the same way as the backend-equivalence
suites: exact array equality, no tolerances, because a particle filter
amplifies 1-ulp drift into divergent resampling.
"""

import asyncio

import numpy as np
import pytest

from repro.core.config import ConfigSpec
from repro.engine.backend import RunSpec
from repro.engine.reference import ReferenceBackend
from repro.maps.distance_field import DistanceField
from repro.scenarios import build_scenario
from repro.serve import (
    ErrorCode,
    MigrationCoordinator,
    Move,
    OnlineClient,
    OnlineError,
    OnlineServer,
    Peer,
)

#: The acceptance mix: two config fingerprints (default fp32 and a
#: sigma-ablated fp32), both precision families, two particle counts.
MIXED_FLEET = (
    "office:1:flight_s=8@fp32@64*2,"
    "corridor:1:flight_s=8@fp16qm@96*2~2,"
    "office:1:flight_s=8@fp32+sigma_obs=1.0@64*4~4"
)


def run(coro):
    return asyncio.run(coro)


def solo_reference_trace(scenario_id, variant, particles, seed):
    """The same (scenario, config spec, N, seed) executed alone."""
    scenario = build_scenario(scenario_id)
    config = ConfigSpec.parse(variant).config(particle_count=particles)
    field = DistanceField.build_for_mode(
        scenario.grid, config.r_max, config.precision
    )
    return ReferenceBackend().execute(
        scenario.grid, [RunSpec(scenario.sequence, seed)], config, field
    )[0]


def assert_traces_equal(served, solo):
    assert served.update_count == solo.update_count
    np.testing.assert_array_equal(served.timestamps, solo.timestamps)
    np.testing.assert_array_equal(served.position_errors, solo.position_errors)
    np.testing.assert_array_equal(served.yaw_errors, solo.yaw_errors)
    np.testing.assert_array_equal(served.estimate_trace, solo.estimate_trace)


def assert_closed_matches_solo(closed):
    solo = solo_reference_trace(
        closed.spec.scenario,
        closed.spec.variant,
        closed.spec.particle_count,
        closed.spec.seed,
    )
    assert_traces_equal(closed.trace, solo)


async def finish_and_close(client, session_id):
    """Serve a session's remaining frames and return it closed."""
    status = await client.query(session_id)
    remaining = status["frames_total"] - status["cursor"]
    if remaining:
        await client.submit(session_id, frames=remaining, wait=True)
    return await client.close_session(session_id)


class TestMigrationBitwise:
    def test_mixed_fleet_migrates_bitwise(self):
        """Every session of the mixed fleet (two fingerprints, fp32 +
        fp16qm, N=64 + N=96) moves to another server mid-flight and
        finishes there with its exact solo trace."""

        async def serve():
            async with OnlineServer() as a, OnlineServer() as b:
                a_client = await OnlineClient.connect(*a.address)
                b_client = await OnlineClient.connect(*b.address)
                async with a_client, b_client:
                    sids = await a_client.create_fleet(MIXED_FLEET)
                    assert len(sids) == 8
                    # Stagger replay positions so handoffs happen at
                    # different frame boundaries per session.
                    for offset, sid in enumerate(sids):
                        await a_client.submit(sid, frames=3 + offset, wait=True)
                    target = "%s:%d" % b.address
                    for sid in sids:
                        redirect = await a_client.migrate(sid, target=target)
                        assert redirect["target"] == target
                    closed = [await finish_and_close(b_client, s) for s in sids]
                    return closed, a.stats, b.stats

        closed, a_stats, b_stats = run(serve())
        for session in closed:
            assert_closed_matches_solo(session)
        assert a_stats["migrations_out"] == 8
        assert a_stats["drains"] == 8
        assert a_stats["migrations_failed"] == 0
        assert b_stats["migrations_in"] == 8

    @pytest.mark.parametrize(
        "source_backend,target_backend",
        [("batched", "reference"), ("reference", "fast")],
    )
    def test_migration_across_backends_is_bitwise(
        self, source_backend, target_backend
    ):
        """A handoff between servers running *different* backends is
        still invisible — backend equivalence composes with migration."""

        async def serve():
            async with (
                OnlineServer(backend=source_backend) as a,
                OnlineServer(backend=target_backend) as b,
            ):
                a_client = await OnlineClient.connect(*a.address)
                b_client = await OnlineClient.connect(*b.address)
                async with a_client, b_client:
                    sids = await a_client.create_fleet(
                        "office:1:flight_s=8@fp32@64~5,"
                        "office:1:flight_s=8@fp16qm@96~7"
                    )
                    await a_client.submit(sids, frames=11, wait=True)
                    for sid in sids:
                        await a_client.migrate(sid, target="%s:%d" % b.address)
                    return [await finish_and_close(b_client, s) for s in sids]

        for session in run(serve()):
            assert_closed_matches_solo(session)

    @pytest.mark.usefixtures("fast_backend")
    def test_migration_between_fast_and_reference_servers(self):
        async def serve():
            async with (
                OnlineServer(backend="fast") as a,
                OnlineServer(backend="reference") as b,
            ):
                a_client = await OnlineClient.connect(*a.address)
                b_client = await OnlineClient.connect(*b.address)
                async with a_client, b_client:
                    (sid,) = await a_client.create_fleet(
                        "office:1:flight_s=8@fp32@64"
                    )
                    await a_client.submit(sid, frames=17, wait=True)
                    await a_client.migrate(sid, target="%s:%d" % b.address)
                    return await finish_and_close(b_client, sid)

        assert_closed_matches_solo(run(serve()))

    def test_still_queued_frames_survive_the_handoff(self):
        """Frames accepted by the source but not yet served ship with
        the snapshot and are served by the target — none lost, none
        served twice."""

        async def serve():
            async with OnlineServer() as a, OnlineServer() as b:
                a_client = await OnlineClient.connect(*a.address)
                b_client = await OnlineClient.connect(*b.address)
                async with a_client, b_client:
                    (sid,) = await a_client.create_fleet(
                        "office:1:flight_s=8@fp32@64"
                    )
                    await a_client.submit(sid, frames=10, wait=True)
                    # Queue frames directly on the manager: without the
                    # server's kick the step loop never wakes, so they
                    # are deterministically still queued at migrate time.
                    a.manager.submit(sid, 5)
                    redirect = await a_client.migrate(
                        sid, target="%s:%d" % b.address
                    )
                    assert redirect["queued"] == 5
                    assert redirect["cursor"] == 10
                    await b_client.flush([sid])
                    status = await b_client.query(sid)
                    # The shipped backlog was served on the target.
                    assert status["cursor"] == 15
                    return await finish_and_close(b_client, sid)

        assert_closed_matches_solo(run(serve()))

    def test_ping_pong_migration_is_bitwise(self):
        """A session bounced A -> B -> A at different frame boundaries
        still closes with its solo trace on the final server."""

        async def serve():
            async with OnlineServer() as a, OnlineServer() as b:
                a_client = await OnlineClient.connect(*a.address)
                b_client = await OnlineClient.connect(*b.address)
                async with a_client, b_client:
                    (sid,) = await a_client.create_fleet(
                        "corridor:1:flight_s=8@fp16qm@64"
                    )
                    await a_client.submit(sid, frames=4, wait=True)
                    await a_client.migrate(sid, target="%s:%d" % b.address)
                    await b_client.submit(sid, frames=9, wait=True)
                    await b_client.migrate(sid, target="%s:%d" % a.address)
                    return await finish_and_close(a_client, sid)

        assert_closed_matches_solo(run(serve()))

    def test_peer_index_migration(self):
        """``migrate`` with ``peer=i`` resolves against the server's
        configured peer list (the --peer wiring)."""

        async def serve():
            async with OnlineServer() as b:
                peers = ["%s:%d" % b.address]
                async with OnlineServer(peers=peers) as a:
                    a_client = await OnlineClient.connect(*a.address)
                    b_client = await OnlineClient.connect(*b.address)
                    async with a_client, b_client:
                        (sid,) = await a_client.create_fleet(
                            "office:1:flight_s=8@fp32@64"
                        )
                        await a_client.submit(sid, frames=6, wait=True)
                        redirect = await a_client.migrate(sid, peer=0)
                        assert redirect["target"] == peers[0]
                        return await finish_and_close(b_client, sid)

        assert_closed_matches_solo(run(serve()))


class TestDrainSemantics:
    def test_draining_session_rejects_submissions_with_code(self):
        async def serve():
            async with OnlineServer() as server:
                async with await OnlineClient.connect(*server.address) as c:
                    sids = await c.create_fleet("office:1:flight_s=8@fp32@64*2")
                    await c.submit(sids, frames=5, wait=True)
                    await c.drain(sids[0])
                    with pytest.raises(OnlineError) as excinfo:
                        await c.submit(sids[0], frames=1)
                    # The other session is untouched by the drain.
                    await c.submit(sids[1], frames=1, wait=True)
                    resumed = await c.resume(sids[0])
                    closed = await finish_and_close(c, sids[0])
                    return excinfo.value, resumed, closed

        error, resumed, closed = run(serve())
        assert error.code == ErrorCode.DRAINING
        assert resumed["draining"] is False
        assert_closed_matches_solo(closed)

    def test_drain_is_idempotent_and_freezes_the_queue(self):
        async def serve():
            async with OnlineServer() as server:
                async with await OnlineClient.connect(*server.address) as c:
                    (sid,) = await c.create_fleet("office:1:flight_s=8@fp32@64")
                    await c.submit(sid, frames=8, wait=True)
                    server.manager.submit(sid, 3)
                    first = await c.drain(sid)
                    second = await c.drain(sid)
                    status = await c.query(sid)
                    return first, second, status

        first, second, status = run(serve())
        assert first["queued"] == second["queued"] == 3
        assert first["cursor"] == second["cursor"] == 8
        # Frozen: the queued frames were not served while draining.
        assert status["cursor"] == 8

    def test_migrating_unknown_session_is_an_evaluation_error(self):
        async def serve():
            async with OnlineServer() as a, OnlineServer() as b:
                async with await OnlineClient.connect(*a.address) as c:
                    with pytest.raises(OnlineError) as excinfo:
                        await c.migrate("ghost", target="%s:%d" % b.address)
                    return excinfo.value

        assert run(serve()).code == ErrorCode.EVALUATION


class TestCoordinator:
    def test_plan_rebalance_is_deterministic_and_balanced(self):
        a, b, c = Peer("h", 1), Peer("h", 2), Peer("h", 3)
        occupancy = {
            a: {"f1/64": ["s0", "s1", "s2", "s3"], "f2/96": ["s4", "s5"]},
            b: {"f2/96": ["s6"]},
            c: {},
        }
        moves = MigrationCoordinator.plan_rebalance(occupancy)
        assert moves == MigrationCoordinator.plan_rebalance(occupancy)
        loads = {a: 6, b: 1, c: 0}
        for move in moves:
            loads[move.source] -= 1
            loads[move.target] += 1
        assert sorted(loads.values()) == [2, 2, 3]
        assert len(moves) == 3
        # Cohort affinity: when b (which already hosts f2/96) receives,
        # it is given one of a's f2 sessions, growing the existing
        # stack instead of splitting f1 across three peers.
        b_received = {m.session_id for m in moves if m.target == b}
        assert b_received and b_received <= {"s4", "s5"}

    def test_plan_rebalance_balanced_fleet_plans_nothing(self):
        a, b = Peer("h", 1), Peer("h", 2)
        occupancy = {a: {"f/64": ["s0"]}, b: {"f/64": ["s1"]}}
        assert MigrationCoordinator.plan_rebalance(occupancy) == []

    def test_plan_evict_empties_the_source(self):
        a, b, c = Peer("h", 1), Peer("h", 2), Peer("h", 3)
        occupancy = {
            a: {"f1/64": ["s0", "s1"], "f2/96": ["s2"]},
            b: {"f1/64": ["s3"]},
            c: {"f2/96": ["s4", "s5", "s6"]},
        }
        moves = MigrationCoordinator.plan_evict(occupancy, a)
        assert {m.session_id for m in moves} == {"s0", "s1", "s2"}
        assert all(m.source == a for m in moves)
        by_session = {m.session_id: m.target for m in moves}
        # Affinity first: f1 sessions land on b (hosts f1), the f2
        # session goes to c (hosts f2) despite c's higher load.
        assert by_session["s0"] == b
        assert by_session["s1"] == b
        assert by_session["s2"] == c
        kept = MigrationCoordinator.plan_evict(occupancy, a, max_sessions=2)
        assert len(kept) == 1

    def test_coordinator_rebalance_round_trip_is_bitwise(self):
        """A live rebalance over three servers: plans deterministically,
        executes with rollback-safe handoffs, and every session still
        closes with its solo trace wherever it landed."""

        async def serve():
            async with (
                OnlineServer() as a,
                OnlineServer() as b,
                OnlineServer() as c,
            ):
                addresses = ["%s:%d" % s.address for s in (a, b, c)]
                async with await OnlineClient.connect(*a.address) as seed:
                    sids = await seed.create_fleet(MIXED_FLEET)
                    await seed.submit(sids, frames=5, wait=True)
                coordinator = MigrationCoordinator(
                    addresses, handoff_timeout_s=10.0
                )
                results = await coordinator.rebalance()
                occupancy = coordinator.occupancy_of(
                    await coordinator.fleet_stats()
                )
                loads = {
                    peer.id: sum(len(s) for s in cohorts.values())
                    for peer, cohorts in occupancy.items()
                }
                closed = []
                for server in (a, b, c):
                    async with await OnlineClient.connect(
                        *server.address
                    ) as client:
                        for sid in server.manager.session_ids():
                            closed.append(await finish_and_close(client, sid))
                return results, loads, closed

        results, loads, closed = run(serve())
        assert all(r.ok for r in results)
        assert all(r.blackout_s >= 0.0 for r in results)
        assert sorted(loads.values()) == [2, 3, 3]
        assert len(closed) == 8
        for session in closed:
            assert_closed_matches_solo(session)

    def test_execute_reports_failed_moves_without_raising(self):
        """A move whose source does not exist is recorded ok=False and
        the rest of the batch still executes."""

        async def serve():
            async with OnlineServer() as a, OnlineServer() as b:
                a_peer = Peer(*a.address)
                b_peer = Peer(*b.address)
                async with await OnlineClient.connect(*a.address) as c:
                    (sid,) = await c.create_fleet("office:1:flight_s=8@fp32@64")
                    await c.submit(sid, frames=3, wait=True)
                coordinator = MigrationCoordinator(
                    [a_peer, b_peer], handoff_timeout_s=5.0
                )
                results = await coordinator.execute(
                    [
                        Move("ghost", a_peer, b_peer),
                        Move(sid, a_peer, b_peer),
                    ]
                )
                return results, b.manager.session_ids()

        results, on_target = run(serve())
        assert [r.ok for r in results] == [False, True]
        assert results[0].error is not None
        assert len(on_target) == 1
