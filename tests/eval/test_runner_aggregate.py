"""Tests for the evaluation runner and sweep orchestration.

These use a miniature world and short synthetic flights so the full
protocol machinery is exercised in seconds; the real paper-scale numbers
come from the benchmark harness.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import EvaluationError
from repro.core.config import MclConfig
from repro.dataset.recorder import RecordedSequence
from repro.eval.aggregate import RunningCellStats, SweepProtocol, run_sweep
from repro.eval.runner import run_localization
from repro.maps.maze import generate_maze
from repro.maps.planning import plan_tour, snap_to_clearance
from repro.vehicle.crazyflie import CrazyflieSimulator, SimConfig


@pytest.fixture(scope="module")
def mini_world():
    # A miniature procedural maze: corridors constrain the beams the same
    # way the paper's drone maze does, just at 9 m² scale.  Hand-made
    # shelf-wall layouts tend to be rotationally near-symmetric (making
    # global localization a coin flip); the backtracker maze is not.
    grid = generate_maze(size_m=3.0, cells=4, seed=5)
    stops = [
        snap_to_clearance(grid, point, 0.15)
        for point in [(0.4, 0.4), (2.6, 0.4), (2.6, 2.6), (0.4, 2.6), (1.5, 1.5)]
    ]
    route = plan_tour(grid, stops, clearance_m=0.15)
    sim = CrazyflieSimulator(grid, route, seed=11, config=SimConfig(max_duration_s=60))
    sequence = RecordedSequence.from_sim_steps("mini", sim.run())
    return grid, sequence


class TestRunLocalization:
    def test_produces_aligned_traces(self, mini_world):
        grid, sequence = mini_world
        config = MclConfig(particle_count=512)
        result = run_localization(grid, sequence, config, seed=0)
        assert result.timestamps.shape == result.position_errors.shape
        assert result.estimate_trace.shape == (len(sequence), 3)
        assert result.update_count > 0
        assert result.variant == "fp32"
        assert result.particle_count == 512

    def test_deterministic(self, mini_world):
        grid, sequence = mini_world
        config = MclConfig(particle_count=256)
        a = run_localization(grid, sequence, config, seed=3)
        b = run_localization(grid, sequence, config, seed=3)
        np.testing.assert_allclose(a.position_errors, b.position_errors)

    def test_seeds_differ(self, mini_world):
        grid, sequence = mini_world
        config = MclConfig(particle_count=256)
        a = run_localization(grid, sequence, config, seed=4)
        b = run_localization(grid, sequence, config, seed=5)
        assert not np.allclose(a.position_errors, b.position_errors)

    def test_short_sequence_rejected(self, mini_world):
        grid, sequence = mini_world
        truncated = RecordedSequence(
            name="short",
            timestamps=sequence.timestamps[:1],
            ground_truth=sequence.ground_truth[:1],
            odometry=sequence.odometry[:1],
            tracks=[
                type(t)(
                    sensor_name=t.sensor_name,
                    ranges_m=t.ranges_m[:1],
                    status=t.status[:1],
                    azimuths=t.azimuths,
                    mount_x=t.mount_x,
                    mount_y=t.mount_y,
                )
                for t in sequence.tracks
            ],
        )
        with pytest.raises(EvaluationError):
            run_localization(grid, truncated, MclConfig(particle_count=64), seed=0)


class TestProtocol:
    def test_env_quick(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        protocol = SweepProtocol.from_env()
        assert protocol.sequence_count == 3
        assert len(protocol.seeds) == 2

    def test_env_paper(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        protocol = SweepProtocol.from_env()
        assert protocol.sequence_count == 6
        assert len(protocol.seeds) == 6

    def test_env_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "huge")
        with pytest.raises(EvaluationError):
            SweepProtocol.from_env()


class TestRunSweep:
    def test_small_sweep_structure(self, mini_world):
        grid, sequence = mini_world
        protocol = SweepProtocol(sequence_count=1, seeds=(0, 1))
        messages = []
        result = run_sweep(
            grid,
            [sequence],
            variants=["fp32", "fp16qm"],
            particle_counts=[128, 512],
            protocol=protocol,
            progress=messages.append,
        )
        assert len(result.cells) == 4
        for (variant, count), cell in result.cells.items():
            assert cell.aggregate.run_count == 2  # 1 sequence x 2 seeds
            assert variant in ("fp32", "fp16qm")
            assert count in (128, 512)
        assert len(messages) == 8

    def test_series_accessors(self, mini_world):
        grid, sequence = mini_world
        protocol = SweepProtocol(sequence_count=1, seeds=(0,))
        result = run_sweep(
            grid, [sequence], ["fp32"], [128, 512], protocol=protocol
        )
        ate = result.ate_series("fp32", [128, 512])
        success = result.success_series("fp32", [128, 512])
        assert len(ate) == 2
        assert len(success) == 2
        assert all(0.0 <= s <= 100.0 for s in success)
        times = result.convergence_times("fp32", 128)
        assert len(times) == 1

    def test_empty_sequences_rejected(self, mini_world):
        grid, __ = mini_world
        with pytest.raises(EvaluationError):
            run_sweep(grid, [], ["fp32"], [64])


@st.composite
def cell_aggregates(draw) -> dict:
    """A stored cell's ``aggregate`` block, ATEs spread over decades."""
    runs = draw(st.integers(1, 12))
    converged = draw(st.integers(0, runs))
    successes = draw(st.integers(0, converged))
    return {
        "runs": runs,
        "converged": converged,
        "success_rate": successes / runs,
        "mean_ate_m": draw(st.floats(1e-6, 1e3)) if converged else None,
    }


class TestRunningCellStats:
    @staticmethod
    def fold(aggregates: list[dict]) -> RunningCellStats:
        stats = RunningCellStats()
        for aggregate in aggregates:
            stats.add(aggregate)
        return stats

    @settings(max_examples=80, deadline=None)
    @given(
        cells=st.lists(cell_aggregates(), min_size=1, max_size=40),
        data=st.data(),
    )
    def test_totals_are_exact_in_any_order(self, cells, data):
        shuffled = data.draw(st.permutations(cells))
        forward, permuted = self.fold(cells), self.fold(shuffled)
        runs = sum(cell["runs"] for cell in cells)
        success = math.fsum(cell["success_rate"] * cell["runs"] for cell in cells)
        assert forward.success_rate == permuted.success_rate == success / runs
        timed = [cell for cell in cells if cell["mean_ate_m"] is not None]
        weight = sum(cell["converged"] for cell in timed)
        ate = math.fsum(cell["mean_ate_m"] * cell["converged"] for cell in timed)
        expected = ate / weight if weight else None
        assert forward.mean_ate_m == permuted.mean_ate_m == expected
        assert (forward.cells, forward.runs) == (len(cells), runs)

    def test_empty_fold_has_no_rates(self):
        stats = RunningCellStats()
        assert stats.success_rate is None and stats.mean_ate_m is None
