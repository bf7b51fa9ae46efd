"""Scenario subsystem tests: registry, spec grammar, determinism.

The load-bearing properties are the deterministic-generation contract
(same spec -> byte-identical ``.npz``; different seeds -> different
worlds) and tour safety (every planned waypoint keeps the flight
clearance), because the sweep engine and the golden-trace harness both
assume scenarios are pure functions of their spec.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.maps.planning import clearance_map
from repro.scenarios import (
    Scenario,
    ScenarioSpec,
    available_families,
    build_scenario,
    get_family,
    scenario_cache_path,
)
from repro.scenarios.base import SCENARIO_CLEARANCE_M

#: Short flights keep the suite fast; determinism is length-independent.
FAST = {"flight_s": 8.0}
ALL_FAMILIES = ("maze", "office", "corridor", "hall", "degraded")


@pytest.fixture(scope="module")
def generated():
    """One cached scenario per family (module-shared, fast flights)."""
    return {
        family: build_scenario(ScenarioSpec.of(family, 1, **FAST))
        for family in ALL_FAMILIES
    }


class TestSpec:
    def test_parse_full_grammar(self):
        spec = ScenarioSpec.parse("maze:3:cells=7+braid=0.2+label=x")
        assert spec.family == "maze"
        assert spec.seed == 3
        assert spec.param_dict == {"cells": 7, "braid": 0.2, "label": "x"}

    def test_parse_defaults(self):
        assert ScenarioSpec.parse("office") == ScenarioSpec("office")
        assert ScenarioSpec.parse("office:5") == ScenarioSpec("office", 5)

    def test_id_roundtrip(self):
        spec = ScenarioSpec.of("hall", 9, boxes=4, size_m=5.0)
        assert ScenarioSpec.parse(spec.id) == spec

    def test_params_canonical_order(self):
        a = ScenarioSpec("maze", 0, (("b", 1), ("a", 2)))
        b = ScenarioSpec("maze", 0, (("a", 2), ("b", 1)))
        assert a == b
        assert a.cache_stem == b.cache_stem

    def test_rejects_malformed(self):
        for bad in ("", ":3", "maze:x", "maze:1:braid", "maze:1:a=1:extra"):
            with pytest.raises(ConfigurationError):
                ScenarioSpec.parse(bad)

    def test_cache_stem_distinguishes_params(self):
        plain = ScenarioSpec.of("maze", 1)
        tweaked = ScenarioSpec.of("maze", 1, cells=7)
        assert plain.cache_stem != tweaked.cache_stem

    def test_string_values_canonicalize_like_the_grammar(self):
        # "7" and 7 must name the same scenario, or a spec would not
        # round-trip through the id stored in its cached .npz.
        assert ScenarioSpec.of("maze", 1, cells="7") == ScenarioSpec.of(
            "maze", 1, cells=7
        )
        spec = ScenarioSpec.of("maze", 1, label="7")
        assert ScenarioSpec.parse(spec.id) == spec

    def test_duplicate_keys_last_wins(self):
        assert ScenarioSpec.parse("maze:1:a=1+a=2").param_dict == {"a": 2}
        # Mixed types under one key must not crash the canonical sort.
        assert ScenarioSpec.parse("maze:1:a=1+a=x").param_dict == {"a": "x"}

    def test_rejects_non_scalar_values(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec.of("maze", 1, cells=[5])
        with pytest.raises(ConfigurationError):
            ScenarioSpec.of("maze", 1, cells=True)


class TestRegistry:
    def test_at_least_four_families(self):
        assert len(available_families()) >= 4

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError):
            get_family("warehouse")
        with pytest.raises(ConfigurationError):
            build_scenario("warehouse:1")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigurationError):
            build_scenario("maze:1:wormholes=3", cache=False)

    def test_degraded_cannot_nest(self):
        with pytest.raises(ConfigurationError):
            build_scenario("degraded:1:base=degraded", cache=False)

    def test_hall_rejects_unplaceable_box_count(self):
        # The spec must describe the generated world: an impossible box
        # count fails loudly instead of silently placing fewer.
        with pytest.raises(ConfigurationError):
            build_scenario("hall:1:boxes=50", cache=False)

    def test_every_family_lists_flight_s(self):
        for name in available_families():
            assert "flight_s" in dict(get_family(name).defaults)


class TestAtomicCacheWrites:
    """The ``.npz`` cache publishes via tmp+rename: a reader (or a
    concurrently spawning serve session / jobs>1 worker) can never
    observe a torn cache file, and a crashed generator leaves the final
    path untouched."""

    def test_generation_leaves_no_scratch_files(self):
        spec = ScenarioSpec.of("office", 3, flight_s=6.0)
        path = scenario_cache_path(spec)
        path.unlink(missing_ok=True)
        build_scenario(spec)
        assert path.exists()
        assert list(path.parent.glob("*.tmp")) == []

    def test_interrupted_write_publishes_nothing(self, monkeypatch):
        from repro.scenarios.base import Scenario

        spec = ScenarioSpec.of("office", 4, flight_s=6.0)
        path = scenario_cache_path(spec)
        path.unlink(missing_ok=True)

        def explode(self, handle):
            handle.write(b"partial bytes that must never be published")
            raise RuntimeError("simulated crash mid-serialization")

        monkeypatch.setattr(Scenario, "save_npz", explode)
        with pytest.raises(RuntimeError, match="simulated crash"):
            build_scenario(spec)
        assert not path.exists()  # no torn file at the final path
        assert list(path.parent.glob("*.tmp")) == []  # scratch cleaned up

    def test_concurrent_style_republish_is_byte_identical(self):
        spec = ScenarioSpec.of("office", 3, flight_s=6.0)
        path = scenario_cache_path(spec)
        build_scenario(spec)
        first = path.read_bytes()
        path.unlink()
        build_scenario(spec)  # a "racing" regenerator republishing
        assert path.read_bytes() == first


class TestDeterminism:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_regeneration_is_byte_identical(self, family):
        spec = ScenarioSpec.of(family, 1, **FAST)
        path = scenario_cache_path(spec)
        build_scenario(spec)
        first = hashlib.sha256(path.read_bytes()).hexdigest()
        path.unlink()
        build_scenario(spec)
        second = hashlib.sha256(path.read_bytes()).hexdigest()
        assert first == second

    @pytest.mark.parametrize("family", ("maze", "office", "corridor", "hall"))
    def test_different_seeds_differ(self, family, generated):
        other = build_scenario(ScenarioSpec.of(family, 2, **FAST))
        assert not np.array_equal(generated[family].grid.cells, other.grid.cells)

    def test_cache_roundtrip_preserves_scenario(self, generated):
        scenario = generated["office"]
        loaded = Scenario.load_npz(scenario_cache_path(scenario.spec))
        assert loaded.spec == scenario.spec
        np.testing.assert_array_equal(loaded.grid.cells, scenario.grid.cells)
        np.testing.assert_array_equal(loaded.tour, scenario.tour)
        np.testing.assert_array_equal(
            loaded.sequence.odometry, scenario.sequence.odometry
        )
        for mine, theirs in zip(scenario.sequence.tracks, loaded.sequence.tracks):
            np.testing.assert_array_equal(mine.ranges_m, theirs.ranges_m)


class TestTourSafety:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_tour_keeps_clearance(self, family, generated):
        scenario = generated[family]
        safe = clearance_map(scenario.grid, SCENARIO_CLEARANCE_M)
        rows, cols = scenario.grid.world_to_grid(
            scenario.tour[:, 0], scenario.tour[:, 1]
        )
        assert bool(np.all(scenario.grid.in_bounds(rows, cols)))
        assert bool(np.all(safe[rows, cols])), (
            f"{family} tour leaves the {SCENARIO_CLEARANCE_M} m clearance"
        )

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_flight_starts_on_tour(self, family, generated):
        scenario = generated[family]
        start = scenario.sequence.ground_truth[0]
        assert np.hypot(
            start[0] - scenario.tour[0, 0], start[1] - scenario.tour[0, 1]
        ) < 0.05


class TestSweepIntegration:
    def test_run_scenarios_accepts_spec_strings(self, generated):
        from repro.eval.aggregate import SweepProtocol
        from repro.eval.sweep_engine import SweepEngine

        engine = SweepEngine(backend="fast")
        results = engine.run_scenarios(
            [generated["maze"], f"corridor:1:flight_s={FAST['flight_s']}"],
            variants=["fp32"],
            particle_counts=[32],
            protocol=SweepProtocol(sequence_count=1, seeds=(0,)),
        )
        assert list(results) == [
            generated["maze"].spec.id,
            f"corridor:1:flight_s={FAST['flight_s']}",
        ]
        for sweep in results.values():
            assert sweep.cells[("fp32", 32)].aggregate.run_count == 1
        # The engine's keyed cache holds one distance field per distinct
        # scenario world — the reuse seam scenario sweeps rely on.
        assert len(engine.field_cache) == 2
        assert engine.field_cache.misses == 2
