"""Snapshot/restore: byte-stable serialization, bit-exact continuation.

Three properties, each across the fp32 and quantized (fp16qm) variants:

* **byte round-trip** — snapshot -> restore -> snapshot reproduces the
  exact bytes (snapshots are content-addressable);
* **exact continuation** — restore-then-step equals the uninterrupted
  run bit for bit (trace, estimates, update counts), including across
  managers and backends (migration);
* the same contract holds for the scalar filter's
  ``export_state``/``restore_state`` (the ``core``-level primitive the
  serve snapshots build on).
"""

import io

import numpy as np
import pytest

from repro.common.errors import ConfigurationError, EvaluationError
from repro.common.geometry import Pose2D
from repro.core.config import MclConfig
from repro.core.mcl import MonteCarloLocalization
from repro.core.snapshot import FilterStateSnapshot, pack_rng_state, unpack_rng_state
from repro.common.rng import make_rng
from repro.scenarios import build_scenario
from repro.serve import SessionManager, SessionSpec, snapshot_from_bytes

SCENARIO = "office:1:flight_s=8"
TRACE_KEYS = (
    "trace_timestamps", "trace_position_errors", "trace_yaw_errors", "trace_estimates",
)


def make_spec(variant, session_id="snap", seed=4):
    return SessionSpec(
        session_id=session_id,
        scenario=SCENARIO,
        variant=variant,
        particle_count=64,
        seed=seed,
    )


class TestRngState:
    def test_pack_unpack_continues_stream(self):
        rng = make_rng(7, "mcl")
        rng.normal(size=33)  # advance, leaving a cached uint32 likely
        packed = pack_rng_state(rng)
        clone = unpack_rng_state(packed)
        np.testing.assert_array_equal(rng.normal(size=16), clone.normal(size=16))
        np.testing.assert_array_equal(
            rng.integers(0, 1 << 62, size=8), clone.integers(0, 1 << 62, size=8)
        )

    def test_pack_rejects_other_bit_generators(self):
        rng = np.random.Generator(np.random.MT19937(0))
        with pytest.raises(ConfigurationError):
            pack_rng_state(rng)


@pytest.mark.parametrize("variant", ["fp32", "fp16qm", "fp32+sigma=1.0"])
class TestServeSnapshots:
    def test_snapshot_round_trip_is_byte_stable(self, variant):
        manager = SessionManager()
        manager.create(make_spec(variant))
        manager.submit("snap", 40)
        manager.flush()
        blob = manager.snapshot("snap")
        assert manager.snapshot("snap") == blob  # capture is pure

        other = SessionManager()
        other.restore(blob)
        assert other.snapshot("snap") == blob  # restore -> snapshot exact

    def test_restore_then_step_equals_uninterrupted(self, variant):
        uninterrupted = SessionManager()
        uninterrupted.create(make_spec(variant))
        mid = 40
        uninterrupted.submit("snap", mid)
        uninterrupted.flush()
        blob = uninterrupted.snapshot("snap")
        uninterrupted.run_to_completion()
        full = uninterrupted.close("snap")

        resumed_manager = SessionManager()
        resumed_manager.restore(blob)
        resumed_manager.run_to_completion(frames_per_flush=13)
        resumed = resumed_manager.close("snap")

        assert resumed.trace.update_count == full.trace.update_count
        np.testing.assert_array_equal(
            resumed.trace.timestamps, full.trace.timestamps
        )
        np.testing.assert_array_equal(
            resumed.trace.position_errors, full.trace.position_errors
        )
        np.testing.assert_array_equal(
            resumed.trace.yaw_errors, full.trace.yaw_errors
        )
        np.testing.assert_array_equal(
            resumed.trace.estimate_trace, full.trace.estimate_trace
        )

    def test_restore_into_other_backend_is_exact(self, variant):
        """Migration across backends: fast snapshot, reference resume."""
        source = SessionManager(backend="fast")
        source.create(make_spec(variant))
        source.submit("snap", 30)
        source.flush()
        blob = source.snapshot("snap")
        source.run_to_completion()
        full = source.close("snap")

        target = SessionManager(backend="reference")
        target.restore(blob)
        target.run_to_completion()
        migrated = target.close("snap")
        np.testing.assert_array_equal(
            migrated.trace.estimate_trace, full.trace.estimate_trace
        )

    def test_restore_under_new_id_keeps_results(self, variant):
        manager = SessionManager()
        manager.create(make_spec(variant))
        manager.submit("snap", 20)
        manager.flush()
        blob = manager.snapshot("snap")
        renamed = manager.restore(blob, session_id="zz.migrated")
        assert renamed == "zz.migrated"
        manager.run_to_completion()
        original = manager.close("snap")
        migrated = manager.close("zz.migrated")
        np.testing.assert_array_equal(
            original.trace.estimate_trace, migrated.trace.estimate_trace
        )


class TestSnapshotValidation:
    def test_restore_existing_id_rejected(self):
        manager = SessionManager()
        manager.create(make_spec("fp32"))
        blob = manager.snapshot("snap")
        with pytest.raises(ConfigurationError):
            manager.restore(blob)

    def test_garbage_bytes_rejected(self):
        import zipfile

        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w"):
            pass
        with pytest.raises((ConfigurationError, Exception)):
            snapshot_from_bytes(buffer.getvalue())

    def test_snapshot_carries_trace_prefix(self):
        manager = SessionManager()
        manager.create(make_spec("fp32"))
        manager.submit("snap", 12)
        manager.flush()
        _, cursor, state, trace = snapshot_from_bytes(manager.snapshot("snap"))
        assert cursor == 12
        assert trace["trace_timestamps"].shape == (12,)
        assert trace["trace_estimates"].shape == (12, 3)
        assert state.x.shape == (64,)

    @pytest.mark.parametrize(
        "edits, error",
        [
            # Every trace array cut to 5 of the cursor's 12 rows.
            ({key: lambda a: a[:5] for key in TRACE_KEYS}, ConfigurationError),
            # 3 estimate rows beside 12 timestamps and errors.
            ({"trace_estimates": lambda a: a[:3]}, ConfigurationError),
            # Yaw errors one ulp off what the plan derives: the world drifted.
            ({"trace_yaw_errors": lambda a: np.nextafter(a, np.inf)}, EvaluationError),
            # No yaw errors at all (an edit that returns None drops the member).
            ({"trace_yaw_errors": lambda a: None}, ConfigurationError),
        ],
        ids=["cut-to-5", "3-estimates", "drifted-errors", "no-yaw-errors"],
    )
    def test_restore_rejects_a_trace_that_disagrees(self, edits, error):
        """A blob's trace must be whole, cover its cursor and equal what
        the replay plan derives from its estimates; a rejected restore
        admits no row."""
        manager = SessionManager()
        manager.create(make_spec("fp32"))
        manager.submit("snap", 12)
        manager.flush()
        with np.load(io.BytesIO(manager.snapshot("snap"))) as archive:
            payload = {key: archive[key] for key in archive.files}
        for key, edit in edits.items():
            payload[key] = edit(payload[key])
        buffer = io.BytesIO()
        np.savez_compressed(
            buffer, **{key: value for key, value in payload.items() if value is not None}
        )

        target = SessionManager()
        with pytest.raises(error):
            target.restore(buffer.getvalue())
        assert len(target) == 0
        assert target.scheduler.cohort_count() == 0


@pytest.mark.parametrize("variant", ["fp32", "fp16qm"])
class TestScalarFilterSnapshot:
    def test_export_restore_continues_bitwise(self, variant):
        scenario = build_scenario(SCENARIO)
        config = MclConfig(particle_count=64).with_variant(variant)

        # Replay via the recorded steps API directly (the reference loop).
        steps = list(scenario.sequence.steps())
        mcl = MonteCarloLocalization(scenario.grid, config, seed=9)
        previous = steps[0].odometry
        mid = 60
        for index, step in enumerate(steps[:mid]):
            if index > 0:
                mcl.add_odometry(previous.between(step.odometry))
            previous = step.odometry
            mcl.process(step.frames)
        snapshot = mcl.export_state()

        # Continue the original...
        final = []
        previous_cont = previous
        for step in steps[mid:]:
            mcl.add_odometry(previous_cont.between(step.odometry))
            previous_cont = step.odometry
            mcl.process(step.frames)
            final.append(mcl.estimate.pose.as_array())

        # ...and a restored twin.
        twin = MonteCarloLocalization(scenario.grid, config, seed=12345)
        twin.restore_state(snapshot)
        twin_final = []
        previous_twin = previous
        for step in steps[mid:]:
            twin.add_odometry(previous_twin.between(step.odometry))
            previous_twin = step.odometry
            twin.process(step.frames)
            twin_final.append(twin.estimate.pose.as_array())

        np.testing.assert_array_equal(np.stack(final), np.stack(twin_final))
        assert twin.update_count == mcl.update_count

    def test_stack_import_rejects_pending_odometry(self, variant):
        """A scalar snapshot taken mid-accumulation cannot enter a stack
        row — the ungated motion has nowhere to live and silently
        dropping it would diverge from the scalar continuation."""
        from repro.engine.backend import RunSpec, get_backend
        from repro.engine.reference import ReferenceStack

        scenario = build_scenario(SCENARIO)
        config = MclConfig(particle_count=64).with_variant(variant)
        mcl = MonteCarloLocalization(scenario.grid, config, seed=1)
        mcl.add_odometry(Pose2D(0.05, 0.0, 0.0))  # below the gate: pending
        snapshot = mcl.export_state()
        stacked = get_backend("fast").open_stack(config, 1)
        for stack in (stacked, ReferenceStack(config, 1)):
            stack.init_row(0, scenario.grid, RunSpec(scenario.sequence, 1))
            with pytest.raises(ConfigurationError, match="pending odometry"):
                stack.import_row(0, snapshot)

    def test_restore_rejects_mismatched_shape(self, variant):
        scenario = build_scenario(SCENARIO)
        config = MclConfig(particle_count=64).with_variant(variant)
        mcl = MonteCarloLocalization(scenario.grid, config, seed=0)
        snapshot = mcl.export_state()
        other = MonteCarloLocalization(
            scenario.grid, MclConfig(particle_count=128).with_variant(variant), seed=0
        )
        with pytest.raises(ConfigurationError):
            other.restore_state(snapshot)

    def test_payload_round_trip(self, variant):
        scenario = build_scenario(SCENARIO)
        config = MclConfig(particle_count=64).with_variant(variant)
        mcl = MonteCarloLocalization(scenario.grid, config, seed=2)
        snapshot = mcl.export_state()
        payload = snapshot.to_payload()
        rebuilt = FilterStateSnapshot.from_payload(payload)
        np.testing.assert_array_equal(rebuilt.x, snapshot.x)
        np.testing.assert_array_equal(rebuilt.weights, snapshot.weights)
        np.testing.assert_array_equal(rebuilt.rng, snapshot.rng)
        assert rebuilt.update_count == snapshot.update_count
        assert isinstance(rebuilt.estimate_pose(), Pose2D)
