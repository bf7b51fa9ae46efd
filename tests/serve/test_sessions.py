"""Session lifecycle, scheduler packing determinism, and fleet helpers."""

from dataclasses import astuple

import numpy as np
import pytest

from repro.common.errors import ConfigurationError, EvaluationError
from repro.common.geometry import Pose2D
from repro.scenarios import FleetSpec
from repro.serve import SessionManager, SessionSpec
from repro.serve.scheduler import StepScheduler

SCENARIO = "office:1:flight_s=8"


def make_spec(session_id="s0", **overrides):
    defaults = dict(
        session_id=session_id,
        scenario=SCENARIO,
        variant="fp32",
        particle_count=64,
        seed=0,
    )
    defaults.update(overrides)
    return SessionSpec(**defaults)


class TestSessionLifecycle:
    def test_create_query_close(self):
        manager = SessionManager()
        manager.create(make_spec())
        status = manager.query("s0")
        assert status.cursor == 0
        assert status.frames_total > 0
        assert not status.done
        assert status.update_count == 0
        assert status.metrics is None  # no frames served yet
        result = manager.close("s0")
        assert len(result.trace.timestamps) == 0
        assert result.metrics is None
        assert len(manager) == 0

    def test_duplicate_session_id_rejected(self):
        manager = SessionManager()
        manager.create(make_spec())
        with pytest.raises(ConfigurationError):
            manager.create(make_spec())

    def test_unknown_session_rejected(self):
        manager = SessionManager()
        with pytest.raises(EvaluationError):
            manager.query("ghost")
        with pytest.raises(EvaluationError):
            manager.submit("ghost", 1)
        with pytest.raises(EvaluationError):
            manager.close("ghost")

    def test_submit_clamps_to_sequence_end(self):
        manager = SessionManager()
        manager.create(make_spec())
        total = manager.query("s0").frames_total
        assert manager.submit("s0", total + 999) == total
        report = manager.flush()
        assert report.frames == total
        status = manager.query("s0")
        assert status.done
        assert status.cursor == total
        # Stepping a finished session is a no-op.
        assert manager.submit("s0", 5) == 0
        assert manager.flush().frames == 0

    def test_partial_close_returns_prefix_trace(self):
        manager = SessionManager()
        manager.create(make_spec())
        manager.submit("s0", 25)
        manager.flush()
        result = manager.close("s0")
        assert len(result.trace.timestamps) == 25

    def test_row_recycling_after_close(self):
        """A new session reuses the closed session's stack row and still
        starts from a fresh, seed-exact state."""
        manager = SessionManager()
        manager.create(make_spec("a", seed=0))
        manager.submit("a", 30)
        manager.flush()
        first = manager.close("a")
        manager.create(make_spec("b", seed=0))
        manager.submit("b", 30)
        manager.flush()
        second = manager.close("b")
        np.testing.assert_array_equal(
            first.trace.estimate_trace, second.trace.estimate_trace
        )

    def test_mixed_cohorts_in_one_manager(self):
        manager = SessionManager()
        manager.create(make_spec("a", variant="fp32", particle_count=64))
        manager.create(make_spec("b", variant="fp16qm", particle_count=96, seed=1))
        manager.submit_all(10)
        report = manager.flush()
        assert report.frames == 20
        assert manager.query("a").cursor == 10
        assert manager.query("b").cursor == 10

    def test_fleet_metrics_aggregates_served_sessions(self):
        manager = SessionManager()
        manager.create_fleet(f"{SCENARIO}@fp32@64*2")
        manager.run_to_completion()
        aggregate = manager.fleet_metrics()
        assert aggregate.run_count == 2

    @pytest.mark.parametrize("frames", [0, 17, 40])
    def test_live_estimate(self, frames):
        """``query().estimate`` is the same on both backends, and after k
        frames it is the closed trace's k-th estimate."""
        live = {}
        for backend in ("fast", "reference"):
            manager = SessionManager(backend=backend)
            manager.create(make_spec("a", seed=3))
            manager.submit("a", frames)
            manager.flush()
            estimate = manager.query("a").estimate
            trace = manager.close("a").trace
            if frames:
                assert estimate == Pose2D(*trace.estimate_trace[frames - 1])
            live[backend] = [value.hex() for value in astuple(estimate)]
        assert live["fast"] == live["reference"]


class TestSchedulerDeterminism:
    def test_plan_tick_is_sorted_by_session_id(self):
        manager = SessionManager()
        for sid in ("c", "a", "b"):  # creation order deliberately unsorted
            manager.create(make_spec(sid, seed=ord(sid)))
        sessions = list(manager._sessions.values())
        # Move everyone somewhere past frame 0 so gates can fire.
        manager.submit_all(5)
        manager.flush()
        ordered, packing = StepScheduler.plan_tick(sessions)
        assert [s.spec.session_id for s in ordered] == ["a", "b", "c"]
        for groups in packing.values():
            flat = [s.spec.session_id for group in groups for s in group]
            assert flat == sorted(flat)

    def test_packing_groups_by_cohort_and_scenario_cursor(self):
        manager = SessionManager()
        manager.create(make_spec("a", seed=0))
        manager.create(make_spec("b", seed=1))
        manager.create(make_spec("c", variant="fp16qm", seed=2))
        manager.submit_all(6)
        manager.flush()
        sessions = list(manager._sessions.values())
        _, packing = StepScheduler.plan_tick(sessions)
        if packing:  # keys are (variant, N) cohorts, sorted
            assert list(packing) == sorted(packing)
            for groups in packing.values():
                for group in groups:
                    cursors = {s.cursor for s in group}
                    scenarios = {s.spec.scenario for s in group}
                    assert len(cursors) == 1 and len(scenarios) == 1

    def test_backend_choice_is_invisible(self):
        results = {}
        for backend in ("fast", "reference"):
            manager = SessionManager(backend=backend)
            manager.create(make_spec("a", seed=3))
            manager.run_to_completion(frames_per_flush=11)
            results[backend] = manager.close("a")
        np.testing.assert_array_equal(
            results["fast"].trace.estimate_trace,
            results["reference"].trace.estimate_trace,
        )
        np.testing.assert_array_equal(
            results["fast"].trace.position_errors,
            results["reference"].trace.position_errors,
        )


class TestFleetSpecs:
    def test_parse_roundtrip(self):
        fleet = FleetSpec.parse(
            "office:1@fp32@64*4,maze:2:cells=5@fp16qm@128*2~10,corridor:3"
        )
        assert FleetSpec.parse(fleet.id) == fleet
        assert len(fleet) == 7
        assert fleet.scenarios() == ["office:1", "maze:2:cells=5", "corridor:3"]

    def test_declarations_are_deterministic_and_ordered(self):
        fleet = FleetSpec.parse("office:1@fp32@64*3~5")
        declarations = fleet.declarations()
        assert [d.seed for d in declarations] == [5, 6, 7]
        ids = [d.session_id for d in declarations]
        assert ids == sorted(ids)  # packing order == declaration order
        assert fleet.declarations() == declarations

    def test_mixed_fleet_helper(self):
        fleet = FleetSpec.mixed(
            ["maze", "office", "corridor", "degraded"],
            scenario_seed=2,
            particle_count=96,
            replicas=2,
            flight_s=8.0,
        )
        assert len(fleet) == 8
        declarations = fleet.declarations()
        seeds = [d.seed for d in declarations]
        assert len(set(seeds)) == 8  # no seed collisions across families
        assert all(d.particle_count == 96 for d in declarations)
        assert {d.scenario.split(":")[0] for d in declarations} == {
            "maze", "office", "corridor", "degraded",
        }

    def test_bad_members_rejected(self):
        for bad in ("", "office@nope", "office@fp32@0", "office*0", "office~x",
                    "office@fp32@64@9@9", "office@fp32+warp=9@64"):
            with pytest.raises(ConfigurationError):
                FleetSpec.parse(bad)

    def test_config_spec_members(self):
        # One fleet can mix paper variants and ablated filters; config
        # specs canonicalize inside the member (aliases resolve, no-op
        # overrides drop) and the fleet id round-trips.
        fleet = FleetSpec.parse(
            "office:1@fp32@64*2,office:1@fp32+sigma=0.15@64*2~2"
        )
        assert FleetSpec.parse(fleet.id) == fleet
        assert [member.variant for member in fleet.members] == [
            "fp32", "fp32+sigma_obs=0.15",
        ]
        declarations = fleet.declarations()
        assert len(declarations) == 4
        assert declarations[2].variant == "fp32+sigma_obs=0.15"
        assert (
            FleetSpec.parse("office:1@fp32+sigma_obs=2.0@64").members[0].variant
            == "fp32"
        )

    def test_create_fleet_accepts_spec_strings(self):
        manager = SessionManager()
        ids = manager.create_fleet(f"{SCENARIO}@fp32@64*2")
        assert len(ids) == 2
        assert manager.session_ids() == sorted(ids)
