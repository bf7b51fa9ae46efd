"""Fleet-vs-solo equivalence: serving must not change a single bit.

The serve layer's contract extends the engine's backend equivalence to
online execution: every session of a mixed fleet — arbitrary scenario /
variant / N / seed composition, arbitrary flush pacing, either backend —
must produce traces and metrics **bitwise identical** to the same
(scenario, variant, N, seed) run stepped alone through the reference
backend.  Exact equality for the same reason as the backend tests:
particle filters amplify 1-ulp differences into divergent resampling,
so tolerances would hide real nonequivalence.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.config import MclConfig
from repro.engine.backend import RunSpec
from repro.engine.reference import ReferenceBackend
from repro.maps.distance_field import DistanceField
from repro.scenarios import build_scenario
from repro.serve import SessionManager, SessionSpec

#: A ≥8-session fleet mixing four families, two variants and two
#: particle counts (the acceptance-criteria composition).
FLEET = [
    ("000.maze", "maze:1:flight_s=8", "fp32", 64, 0),
    ("001.maze", "maze:1:flight_s=8", "fp32", 64, 1),
    ("002.office", "office:1:flight_s=8", "fp16qm", 96, 2),
    ("003.office", "office:1:flight_s=8", "fp16qm", 96, 3),
    ("004.corridor", "corridor:1:flight_s=8", "fp32", 96, 4),
    ("005.corridor", "corridor:1:flight_s=8", "fp16qm", 64, 5),
    ("006.degraded", "degraded:1:flight_s=8", "fp32", 64, 6),
    ("007.degraded", "degraded:1:flight_s=8", "fp16qm", 64, 7),
]


def fleet_specs():
    return [
        SessionSpec(session_id=sid, scenario=scenario, variant=variant,
                    particle_count=count, seed=seed)
        for sid, scenario, variant, count, seed in FLEET
    ]


@pytest.fixture(scope="module")
def solo_traces():
    """Each fleet member stepped alone through the reference backend."""
    traces = {}
    fields = {}
    for spec in fleet_specs():
        scenario = build_scenario(spec.scenario)
        config = MclConfig(particle_count=spec.particle_count).with_variant(
            spec.variant
        )
        field_key = (spec.scenario, config.precision)
        if field_key not in fields:
            fields[field_key] = DistanceField.build_for_mode(
                scenario.grid, config.r_max, config.precision
            )
        traces[spec.session_id] = ReferenceBackend().execute(
            scenario.grid,
            [RunSpec(scenario.sequence, spec.seed)],
            config,
            fields[field_key],
        )[0]
    return traces


def assert_trace_equal(served, solo):
    assert served.update_count == solo.update_count
    np.testing.assert_array_equal(served.timestamps, solo.timestamps)
    np.testing.assert_array_equal(served.position_errors, solo.position_errors)
    np.testing.assert_array_equal(served.yaw_errors, solo.yaw_errors)
    np.testing.assert_array_equal(served.estimate_trace, solo.estimate_trace)


def metrics_signature(metrics):
    import math

    return (
        metrics.converged,
        metrics.convergence_time_s,
        metrics.success,
        None if math.isnan(metrics.ate_mean_m) else metrics.ate_mean_m,
        None if math.isnan(metrics.yaw_mean_rad) else metrics.yaw_mean_rad,
    )


class TestFleetEquivalence:
    @pytest.mark.parametrize("backend", ["batched", "reference"])
    def test_mixed_fleet_matches_solo_reference(self, solo_traces, backend):
        """8 mixed sessions served together == 8 solo reference runs."""
        manager = SessionManager(backend=backend)
        for spec in fleet_specs():
            manager.create(spec)
        manager.run_to_completion(frames_per_flush=16)
        for spec in fleet_specs():
            result = manager.close(spec.session_id)
            assert_trace_equal(result.trace, solo_traces[spec.session_id])

    @pytest.mark.usefixtures("fast_backend")
    def test_fast_backend_fleet_matches_solo_reference(self, solo_traces):
        """The ``fast`` backend on its C stages serves the same mixed
        fleet bit-for-bit."""
        manager = SessionManager(backend="fast")
        for spec in fleet_specs():
            manager.create(spec)
        manager.run_to_completion(frames_per_flush=16)
        for spec in fleet_specs():
            result = manager.close(spec.session_id)
            assert_trace_equal(result.trace, solo_traces[spec.session_id])

    @pytest.mark.parametrize("backend", ["batched", "fast", "reference"])
    def test_irregular_flush_pacing_is_invisible(self, solo_traces, backend, request):
        """Ragged per-session queues (sessions at wildly different replay
        positions, packed with whoever happens to be pending) cannot
        change any session's numbers."""
        if backend == "fast":
            request.getfixturevalue("fast_backend")
        manager = SessionManager(backend=backend)
        specs = fleet_specs()
        for spec in specs:
            manager.create(spec)
        # Stagger: session i gets (7 * (i + 1)) frames per round.
        round_index = 0
        while any(
            not manager.query(spec.session_id).done for spec in specs
        ):
            for i, spec in enumerate(specs):
                manager.submit(spec.session_id, 7 * (i + 1))
            manager.flush()
            round_index += 1
            assert round_index < 1000, "fleet failed to drain"
        for spec in specs:
            result = manager.close(spec.session_id)
            assert_trace_equal(result.trace, solo_traces[spec.session_id])

    @pytest.mark.usefixtures("fast_backend")
    def test_fast_fleet_created_in_waves(self, solo_traces):
        """Sessions admitted after others have ticked grow their cohort's
        stack between steps, and a session closed mid-flight hands its
        row to a later one.  The C stages must follow both: a stale array
        pointer would corrupt memory without raising."""
        specs = {spec.session_id: spec for spec in fleet_specs()}
        quitter = dataclasses.replace(specs["006.degraded"], session_id="zzz.quitter")
        manager = SessionManager(backend="fast")

        def admit(*session_ids):
            for sid in session_ids:
                manager.create(specs[sid])

        def serve(frames):
            for sid in manager.session_ids():
                manager.submit(sid, frames)
            manager.flush()

        admit("000.maze", "002.office", "005.corridor")
        manager.create(quitter)  # shares the fp32/64 cohort with 000.maze
        serve(10)
        partial = manager.close(quitter.session_id).trace
        solo = solo_traces["006.degraded"]
        frames = len(partial.timestamps)
        assert frames == 10
        np.testing.assert_array_equal(partial.timestamps, solo.timestamps[:frames])
        np.testing.assert_array_equal(
            partial.estimate_trace, solo.estimate_trace[:frames]
        )

        before = manager.scheduler.occupancy()
        admit("001.maze", "006.degraded", "003.office", "004.corridor")
        after = manager.scheduler.occupancy()
        grown = [
            key
            for key in before
            if after[key]["rows_allocated"] > before[key]["rows_allocated"]
        ]
        reused = [
            key
            for key in before
            if before[key]["rows_free"] and not after[key]["rows_free"]
        ]
        assert grown and reused
        serve(15)
        admit("007.degraded")  # grows the fp16qm/64 cohort after 25 frames
        manager.run_to_completion(frames_per_flush=11)
        for sid in specs:
            assert_trace_equal(manager.close(sid).trace, solo_traces[sid])

    def test_metrics_match_offline_evaluation(self, solo_traces):
        """Served metrics equal the offline evaluation of the solo run."""
        from repro.eval.metrics import evaluate_run

        manager = SessionManager(backend="fast")
        for spec in fleet_specs():
            manager.create(spec)
        manager.run_to_completion()
        for spec in fleet_specs():
            result = manager.close(spec.session_id)
            solo = solo_traces[spec.session_id]
            expected = evaluate_run(
                solo.timestamps, solo.position_errors, solo.yaw_errors
            )
            assert result.metrics is not None
            assert metrics_signature(result.metrics) == metrics_signature(expected)

    def test_ablated_fleet_matches_solo_reference(self):
        """A fleet mixing two config fingerprints (default fp32 and a
        sigma-ablated fp32) on one world — each session must equal its
        solo reference run executed under the same materialized config,
        and the ablated sessions must land in their own cohort."""
        from repro.core.config import ConfigSpec

        members = [
            ("000.default", "fp32", 0),
            ("001.default", "fp32", 1),
            ("002.ablated", "fp32+sigma_obs=1.0", 0),
            ("003.ablated", "fp32+sigma_obs=1.0", 1),
        ]
        scenario_id = "maze:1:flight_s=8"
        scenario = build_scenario(scenario_id)
        manager = SessionManager(backend="fast")
        for sid, variant, seed in members:
            manager.create(
                SessionSpec(
                    session_id=sid, scenario=scenario_id, variant=variant,
                    particle_count=64, seed=seed,
                )
            )
        assert len(manager.scheduler._cohorts) == 2  # two fingerprints
        manager.run_to_completion(frames_per_flush=13)
        for sid, variant, seed in members:
            config = ConfigSpec.parse(variant).config(particle_count=64)
            field = DistanceField.build_for_mode(
                scenario.grid, config.r_max, config.precision
            )
            solo = ReferenceBackend().execute(
                scenario.grid,
                [RunSpec(scenario.sequence, seed)],
                config,
                field,
            )[0]
            assert_trace_equal(manager.close(sid).trace, solo)

    def test_session_ids_do_not_affect_results(self, solo_traces):
        """Renaming sessions permutes the packing order, not the numbers."""
        manager = SessionManager(backend="fast")
        renamed = {}
        for spec in fleet_specs():
            flipped = SessionSpec(
                session_id=f"zz-{999 - int(spec.session_id[:3]):03d}",
                scenario=spec.scenario,
                variant=spec.variant,
                particle_count=spec.particle_count,
                seed=spec.seed,
            )
            renamed[flipped.session_id] = spec.session_id
            manager.create(flipped)
        manager.run_to_completion(frames_per_flush=9)
        for flipped_id, original_id in renamed.items():
            result = manager.close(flipped_id)
            assert_trace_equal(result.trace, solo_traces[original_id])
