"""Tests for the campaign layer: spec expansion, resume, determinism."""

import hashlib
import json
import shutil
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.common.errors import ConfigurationError, EvaluationError
from repro.core.config import ConfigSpec, MclConfig
from repro.eval import campaign
from repro.eval.campaign import (
    CampaignCell,
    CampaignSpec,
    aggregate_report,
    campaign_status,
    cell_payload,
    load_campaign,
    merge_campaign_stores,
    pivot_report,
    run_campaign,
    shard_cells,
)
from repro.eval.metrics import RunMetrics
from repro.eval.store import CampaignStore, canonical_json_bytes
from repro.scenarios.base import ScenarioSpec

#: Deliberately tiny: two worlds, one variant, two cells per world, short
#: flights.  Scenario generation is cached in the session tmp data dir,
#: so every test after the first reuses the .npz instead of re-simulating.
SCENARIOS = ("corridor:2:flight_s=6.0", "office:1:flight_s=6.0")
VARIANTS = ("fp32",)
COUNTS = (16, 32)
SEEDS = (0, 1)


def tiny_spec(name: str = "tiny") -> CampaignSpec:
    return CampaignSpec(
        name=name,
        scenarios=SCENARIOS,
        variants=VARIANTS,
        particle_counts=COUNTS,
        seeds=SEEDS,
    )


def one_scenario_spec() -> CampaignSpec:
    """One world, two field kinds: fewer scenarios than two workers."""
    return CampaignSpec(
        name="one",
        scenarios=SCENARIOS[:1],
        variants=("fp32", "fp16qm"),
        particle_counts=COUNTS,
        seeds=SEEDS,
    )


@pytest.fixture
def telemetry():
    """A fresh, enabled telemetry registry for one test."""
    obs.reset()
    obs.enable()
    yield
    obs.reset()


def store_bytes(store: CampaignStore, spec: CampaignSpec) -> dict[str, bytes]:
    """Every stored cell's bytes by key; the store must hold all of ``spec``."""
    cells = dict(store.iter_cell_bytes())
    assert set(cells) == {cell.key for cell in spec.cells()}
    return cells


class TestCampaignSpec:
    def test_scenarios_normalized_and_deduped(self):
        spec = CampaignSpec(
            name="c",
            scenarios=("office", "office:0", "maze:1:braid=0.2+cells=5"),
            variants=("fp32",),
            particle_counts=(16,),
            seeds=(0,),
        )
        assert spec.scenarios == ("office:0", "maze:1:braid=0.2+cells=5")

    def test_all_axes_deduped(self):
        spec = CampaignSpec(
            name="c",
            scenarios=("office:0",),
            variants=("fp32", "fp32"),
            particle_counts=(16, 16, 32),
            seeds=(0, 0, 1),
        )
        assert spec.variants == ("fp32",)
        assert spec.particle_counts == (16, 32)
        assert spec.seeds == (0, 1)
        assert len(spec.cells()) == 2

    def test_validation_errors(self):
        good = dict(
            name="c",
            scenarios=("office:0",),
            variants=("fp32",),
            particle_counts=(16,),
            seeds=(0,),
        )
        for overrides in (
            {"name": ""},
            {"scenarios": ()},
            {"scenarios": ("warehouse:1",)},
            {"variants": ()},
            {"variants": ("fp64",)},
            {"particle_counts": ()},
            {"particle_counts": (0,)},
            {"seeds": ()},
        ):
            with pytest.raises(ConfigurationError):
                CampaignSpec(**{**good, **overrides})

    def test_cells_scenario_major_deterministic(self):
        cells = tiny_spec().cells()
        assert [(c.scenario, c.variant, c.particle_count) for c in cells] == [
            (scenario, variant, count)
            for scenario in tiny_spec().scenarios
            for variant in VARIANTS
            for count in COUNTS
        ]
        assert len({cell.key for cell in cells}) == len(cells)

    def test_cell_keys_independent_of_spec_spelling(self):
        a = CampaignSpec(
            name="c", scenarios=("office",), variants=("fp32",),
            particle_counts=(16,), seeds=(0,),
        )
        b = CampaignSpec(
            name="c", scenarios=("office:0",), variants=("fp32",),
            particle_counts=(16,), seeds=(0,),
        )
        assert [cell.key for cell in a.cells()] == [cell.key for cell in b.cells()]

    def test_cell_keys_depend_on_seed_protocol(self):
        a = tiny_spec().cells()[0]
        b = CampaignSpec(
            name="c", scenarios=SCENARIOS, variants=VARIANTS,
            particle_counts=COUNTS, seeds=(0, 1, 2),
        ).cells()[0]
        assert a.key != b.key

    def test_manifest_roundtrip(self):
        spec = tiny_spec()
        assert CampaignSpec.from_manifest(spec.to_manifest()) == spec

    def test_variant_validation_routes_through_config_parser(self):
        good = dict(
            name="c", scenarios=("office:0",), variants=("fp32",),
            particle_counts=(16,), seeds=(0,),
        )
        # Ablated specs are valid variants now...
        spec = CampaignSpec(**{**good, "variants": ("fp32+sigma=0.5",)})
        assert spec.variants == ("fp32+sigma_obs=0.5",)
        # ...and bad specs get the parser's real error, not a
        # PAPER_VARIANTS membership check.
        for bad in ("fp64", "fp32+warp=9", "fp32+sigma=fast"):
            with pytest.raises(ConfigurationError):
                CampaignSpec(**{**good, "variants": (bad,)})

    def test_variant_spellings_collapse_to_one_cell(self):
        spec = CampaignSpec(
            name="c", scenarios=("office:0",),
            variants=("fp32+sigma=0.5", "fp32+sigma_obs=0.5", "fp32+sigma_obs=2.0", "fp32"),
            particle_counts=(16,), seeds=(0,),
        )
        assert spec.variants == ("fp32+sigma_obs=0.5", "fp32")

    def test_default_variant_cells_keep_legacy_keys(self):
        # Pre-config-axis key algorithm, reproduced verbatim: content
        # digest over {scenario, variant, particle_count, seeds}, encoded
        # by the stdlib as the store did then, and a
        # `<stem>-<variant>-n<N>-<digest>` filename.  Pure paper
        # variants at default params must still produce exactly this,
        # or existing stores would re-execute everything on resume.
        cell = CampaignCell("office:1", "fp32", 64, (0, 1))
        identity = {
            "scenario": "office:1",
            "variant": "fp32",
            "particle_count": 64,
            "seeds": [0, 1],
        }
        encoded = json.dumps(identity, sort_keys=True, indent=2) + "\n"
        digest = hashlib.sha256(encoded.encode()).hexdigest()[:12]
        stem = ScenarioSpec.parse("office:1").cache_stem
        assert cell.key == f"{stem}-fp32-n64-{digest}"

    def test_ablated_cells_fold_in_the_fingerprint(self):
        cell = CampaignCell("office:1", "fp32+sigma_obs=0.5", 64, (0, 1))
        fingerprint = ConfigSpec.parse("fp32+sigma_obs=0.5").fingerprint()
        assert fingerprint in cell.key
        assert cell.key != CampaignCell("office:1", "fp32", 64, (0, 1)).key

    @pytest.mark.parametrize(
        "cell, key",
        [
            (
                CampaignCell("office:1", "fp32+sigma_obs=0.5", 64, (0, 1)),
                "office-s1-fp32-fe1f4b7b9c42-n64-ef8b84903d9c",
            ),
            # Non-canonical spelling (alias, unsorted overrides and rows),
            # a tuple override and a parameterised scenario stem.
            (
                CampaignCell(
                    "maze:7:cells=9",
                    "fp16qm+sigma=1.0+beam_rows=5/2/3/4",
                    1024,
                    (3, 9),
                ),
                "maze-s7-1a882d7965-fp16qm-aecc26a80bdc-n1024-e2a43de3b636",
            ),
            (
                CampaignCell("corridor:2", "fp32qm", 256, (4,)),
                "corridor-s2-fp32qm-n256-49b5087ccaa2",
            ),
        ],
    )
    def test_keys_pinned_byte_for_byte(self, cell, key):
        # Literal keys: stores on disk name their cells by them, so no
        # change to how a key part is derived may move a byte.
        assert cell.key == key

    def test_shard_cells_partition_round_robin(self):
        spec = tiny_spec()
        cells = spec.cells()
        shards = shard_cells(spec, 3)
        # Disjoint, exhaustive, deterministic round-robin.
        flat = sorted(
            (cell.key for shard in shards for cell in shard)
        )
        assert flat == sorted(cell.key for cell in cells)
        for index, shard in enumerate(shards):
            assert [cell.key for cell in shard] == [
                cell.key for cell in cells[index::3]
            ]
        with pytest.raises(ConfigurationError):
            shard_cells(spec, 0)


class TestRunCampaign:
    @pytest.fixture(scope="class")
    def fresh(self, tmp_path_factory):
        """One executed campaign shared by the read-only assertions."""
        root = tmp_path_factory.mktemp("campaign") / "fresh"
        store = CampaignStore("tiny", root=root)
        summary = run_campaign(tiny_spec(), store=store)
        return store, summary

    def test_fresh_run_stores_every_cell(self, fresh):
        store, summary = fresh
        assert summary.executed == summary.total_cells == len(tiny_spec().cells())
        assert summary.skipped == 0
        assert store.completed_keys() == {c.key for c in tiny_spec().cells()}

    def test_cell_payload_shape(self, fresh):
        store, __ = fresh
        key, payload = next(store.stream_cells())
        assert set(payload) == {"cell", "runs", "aggregate"}
        assert len(payload["runs"]) == len(SEEDS)
        run = payload["runs"][0]
        assert set(run) == {"sequence", "seed", "update_count", "metrics"}
        assert payload["aggregate"]["runs"] == len(SEEDS)

    def test_resume_skips_exactly_the_completed_keys(
        self, fresh, tmp_path, write_cell_files
    ):
        store, __ = fresh
        partial = CampaignStore("tiny", root=tmp_path / "partial")
        baseline = store_bytes(store, tiny_spec())
        # Copy all but two cells, then resume: exactly those two execute.
        missing = sorted(baseline)[:2]
        partial.write_manifest(tiny_spec().to_manifest())
        write_cell_files(
            partial,
            {key: data for key, data in baseline.items() if key not in missing},
        )
        summary = run_campaign(tiny_spec(), store=partial, resume=True)
        assert summary.executed == 2
        assert summary.skipped == summary.total_cells - 2
        # fresh vs resumed: identical
        assert store_bytes(partial, tiny_spec()) == baseline

    def test_resume_reexecutes_torn_cells(self, fresh, tmp_path, write_cell_files):
        store, __ = fresh
        broken = CampaignStore("tiny", root=tmp_path / "broken")
        baseline = store_bytes(store, tiny_spec())
        broken.write_manifest(tiny_spec().to_manifest())
        cells = dict(baseline)
        torn = sorted(cells)[0]
        cells[torn] = cells[torn][: len(cells[torn]) // 2]  # a torn write
        write_cell_files(broken, cells)
        summary = run_campaign(tiny_spec(), store=broken, resume=True)
        assert summary.executed == 1
        assert summary.recovered_files  # the torn file was swept first
        assert store_bytes(broken, tiny_spec()) == baseline

    def test_complete_resume_builds_no_backend(
        self, fresh, tmp_path, monkeypatch, write_cell_files
    ):
        """Resuming a complete store never resolves the backend (for
        ``fast`` that would compile the C kernels for nothing)."""
        import repro.eval.sweep_engine as sweep_engine

        store, __ = fresh
        complete = CampaignStore("tiny", root=tmp_path / "complete")
        complete.write_manifest(tiny_spec().to_manifest())
        write_cell_files(complete, store_bytes(store, tiny_spec()))

        def no_backend(name):
            raise AssertionError(f"backend {name!r} resolved with no cell pending")

        monkeypatch.setattr(sweep_engine, "get_backend", no_backend)
        summary = run_campaign(tiny_spec(), backend="fast", store=complete, resume=True)
        assert summary.executed == 0
        assert summary.skipped == summary.total_cells

    def test_backend_keeps_a_bounded_number_of_flights(self, tmp_path, monkeypatch):
        """Each replay plan holds its flight, so the backend a campaign
        resolves must evict plans, or every flight stays alive."""
        import gc
        import weakref

        import repro.engine.batched as batched
        import repro.eval.sweep_engine as sweep_engine
        import repro.scenarios.registry as registry

        monkeypatch.setattr(batched, "_PLAN_CACHE_LIMIT", 2)
        get_backend = sweep_engine.get_backend
        build_scenario = registry.build_scenario
        backends, flights = [], []

        def keep_backend(name):
            backends.append(get_backend(name))
            return backends[-1]

        def track_flight(spec, cache=True):
            scenario = build_scenario(spec, cache=cache)
            flights.append(weakref.ref(scenario.sequence))
            return scenario

        spec = CampaignSpec(
            name="plans", scenarios=SCENARIOS + ("corridor:3:flight_s=6.0",),
            variants=VARIANTS, particle_counts=(16,), seeds=(0,),
        )
        monkeypatch.setattr(sweep_engine, "get_backend", keep_backend)
        monkeypatch.setattr(registry, "build_scenario", track_flight)
        run_campaign(spec, backend="fast", store=CampaignStore("plans", root=tmp_path))
        gc.collect()
        assert len(backends) == 1 and len(flights) == 3
        assert flights[0]() is None  # its plan was evicted
        if backends[0].name == "fast":  # reference keeps no plans
            assert flights[2]() is not None  # still planned by the live backend

    def test_one_job_keeps_a_bounded_number_of_fields(self, tmp_path, monkeypatch):
        """A jobs=1 campaign's field cache is bounded like a pool
        worker's, so a campaign over many worlds does not keep every
        distance field it builds alive."""
        import gc
        import weakref

        import repro.eval.sweep_engine as sweep_engine
        from repro.maps.distance_field import DistanceField

        monkeypatch.setattr(sweep_engine, "_FIELD_CACHE_LIMIT", 1)
        build = DistanceField.build
        fields, alive = [], []

        def track_field(*args, **kwargs):
            gc.collect()
            alive.append(sum(ref() is not None for ref in fields))
            field = build(*args, **kwargs)
            fields.append(weakref.ref(field))
            return field

        spec = CampaignSpec(
            name="fields", scenarios=SCENARIOS + ("corridor:3:flight_s=6.0",),
            variants=VARIANTS, particle_counts=(16,), seeds=(0,),
        )
        monkeypatch.setattr(DistanceField, "build", staticmethod(track_field))
        run_campaign(spec, store=CampaignStore("fields", root=tmp_path))
        assert len(fields) == 3  # one per world
        assert alive == [0, 0, 0]  # each world's field went with its world

    def test_jobs_fanout_byte_identical(self, fresh, tmp_path):
        store, __ = fresh
        fanned = CampaignStore("tiny", root=tmp_path / "jobs2")
        run_campaign(tiny_spec(), store=fanned, jobs=2)
        assert store_bytes(fanned, tiny_spec()) == store_bytes(store, tiny_spec())

    def test_one_scenario_splits_into_one_task_per_worker(self, tmp_path, telemetry):
        spec = one_scenario_spec()
        single = CampaignStore("one", root=tmp_path / "jobs1")
        run_campaign(spec, store=single)
        fanned = CampaignStore("one", root=tmp_path / "jobs2")
        run_campaign(spec, store=fanned, jobs=2)
        snapshot = obs.snapshot()
        assert snapshot["counters"]["sweep.tasks"] == 2
        assert snapshot["spans"]["sweep.fan_out"]["count"] == 1
        assert store_bytes(fanned, spec) == store_bytes(single, spec)

    @pytest.mark.parametrize("spec", [tiny_spec(), one_scenario_spec()], ids=["two", "one"])
    def test_cold_registry_fanout_byte_identical(self, spec, tmp_path, monkeypatch):
        # Workers generate and publish every scenario themselves; with one
        # scenario, both chunks generate it at once.
        single = CampaignStore(spec.name, root=tmp_path / "jobs1")
        run_campaign(spec, store=single)
        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path / "cold"))
        fanned = CampaignStore(spec.name, root=tmp_path / "jobs2")
        run_campaign(spec, store=fanned, jobs=2)
        published = sorted((tmp_path / "cold" / "scenarios").iterdir())
        assert [path.suffix for path in published] == [".npz"] * len(spec.scenarios)
        assert store_bytes(fanned, spec) == store_bytes(single, spec)

    def test_backends_byte_identical(self, fresh, tmp_path):
        store, __ = fresh
        reference = CampaignStore("tiny", root=tmp_path / "reference")
        run_campaign(tiny_spec(), store=reference, backend="reference")
        assert store_bytes(reference, tiny_spec()) == store_bytes(
            store, tiny_spec()
        )

    def test_manifest_mismatch_rejected(self, fresh):
        store, __ = fresh
        other = CampaignSpec(
            name="tiny", scenarios=SCENARIOS, variants=VARIANTS,
            particle_counts=COUNTS, seeds=(7,),
        )
        with pytest.raises(EvaluationError):
            run_campaign(other, store=store, resume=True)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            run_campaign(tiny_spec(), jobs=0)

    def test_status_and_report(self, fresh):
        store, __ = fresh
        status = campaign_status("tiny", store=store)
        assert status["completed"] == status["total"] == len(tiny_spec().cells())
        assert set(status["scenarios"]) == set(tiny_spec().scenarios)

        assert load_campaign("tiny", store=store) == tiny_spec()

        report = aggregate_report("tiny", store=store)
        assert set(report) == set(tiny_spec().scenarios)
        for cells in report.values():
            assert set(cells) == {
                (variant, count) for variant in VARIANTS for count in COUNTS
            }
            for aggregate in cells.values():
                assert aggregate["runs"] == len(SEEDS)

    def test_reports_skip_payloads_that_are_not_objects(self, fresh, tmp_path):
        # Merged bytes need only parse as JSON: an array or a number is a
        # malformed cell, which both reports skip.
        store, __ = fresh
        stray = CampaignStore("tiny", root=tmp_path / "stray")
        stray.write_manifest(tiny_spec().to_manifest())
        with stray:
            for key, data in store.iter_cell_bytes():
                stray.put_cell_bytes(key, data)
            stray.put_cell_bytes("stray-array", b"[1, 2]\n")
            stray.put_cell_bytes("stray-number", b"7\n")
        assert aggregate_report("tiny", store=stray) == aggregate_report(
            "tiny", store=store
        )
        assert pivot_report("tiny", "sigma", store=stray) == pivot_report(
            "tiny", "sigma", store=store
        )

    def test_reports_skip_a_payload_without_an_aggregate(
        self, fresh, tmp_path, telemetry
    ):
        # A stray whose cell block names a grid cell but that carries no
        # aggregate is malformed, wherever it sits in storage order.
        store, __ = fresh
        cells = dict(store.iter_cell_bytes())
        identity = json.loads(next(iter(cells.values())))["cell"]
        stray_bytes = json.dumps({"cell": identity}).encode() + b"\n"
        stray = CampaignStore("tiny", root=tmp_path / "stray")
        stray.write_manifest(tiny_spec().to_manifest())
        with stray:
            stray.put_cell_bytes("stray", stray_bytes)
            for key, data in cells.items():
                stray.put_cell_bytes(key, data)
        assert aggregate_report("tiny", store=stray) == aggregate_report(
            "tiny", store=store
        )
        assert pivot_report("tiny", "sigma", store=stray) == pivot_report(
            "tiny", "sigma", store=store
        )
        snapshot = obs.snapshot()
        assert snapshot["counters"]["campaign.report_stray"] == 2
        assert snapshot["spans"]["campaign.report"]["count"] == 2
        assert snapshot["spans"]["campaign.pivot"]["count"] == 2

    @pytest.mark.parametrize(
        "malform",
        [
            lambda data: canonical_json_bytes(
                {
                    name: value
                    for name, value in json.loads(data).items()
                    if name != "aggregate"
                }
            ),
            lambda data: b"[1, 2]\n",
            lambda data: b"7\n",
        ],
        ids=["no-aggregate", "array", "number"],
    )
    def test_reports_count_a_malformed_grid_payload(
        self, fresh, tmp_path, telemetry, malform
    ):
        # Under its own grid key, a payload with no canonical aggregate
        # member is malformed: both reports leave the cell out.
        store, __ = fresh
        cells = dict(store.iter_cell_bytes())
        key = sorted(cells)[0]
        damaged = CampaignStore("tiny", root=tmp_path / "damaged")
        kept = CampaignStore("tiny", root=tmp_path / "kept")
        for target in (damaged, kept):
            target.write_manifest(tiny_spec().to_manifest())
        with damaged, kept:
            damaged.put_cell_bytes(key, malform(cells[key]))
            for stored, data in cells.items():
                if stored != key:
                    damaged.put_cell_bytes(stored, data)
                    kept.put_cell_bytes(stored, data)
        report = aggregate_report("tiny", store=damaged)
        assert sum(map(len, report.values())) == len(cells) - 1
        assert report == aggregate_report("tiny", store=kept)
        assert pivot_report("tiny", "sigma", store=damaged) == pivot_report(
            "tiny", "sigma", store=kept
        )
        counters = obs.snapshot()["counters"]
        assert counters["campaign.report_malformed"] == 2
        assert "campaign.report_stray" not in counters

    @pytest.mark.parametrize(
        "member, reported", [("runs", True), ("aggregate", False)]
    )
    def test_damage_in_place_drops_a_cell_only_outside_its_runs(
        self, fresh, tmp_path, member, reported
    ):
        # A sealed record damaged in place keeps its size, so its sidecar
        # stays trusted and resume counts the cell as complete.  Reports
        # decode only the aggregate and cell members: damage inside the
        # runs leaves the cell reported, damage in the aggregate drops it.
        store, __ = fresh
        damaged = CampaignStore("tiny", root=tmp_path / "damaged")
        shutil.copytree(store.root, damaged.root)
        (segment,) = damaged.segments_dir.glob("seg-*.seg")
        spans = json.loads(segment.with_name(segment.name + ".idx.json").read_bytes())
        key, (offset, length) = next(iter(spans["records"].items()))
        blob = bytearray(segment.read_bytes())
        opener = f'\n  "{member}": '.encode()
        position = offset + blob[offset : offset + length].index(opener) + len(opener)
        blob[position : position + 1] = b"#"
        segment.write_bytes(bytes(blob))

        assert damaged.completed_keys() == store.completed_keys()
        kept = CampaignStore("tiny", root=tmp_path / "kept")
        kept.write_manifest(tiny_spec().to_manifest())
        with kept:
            for stored, data in store.iter_cell_bytes():
                if reported or stored != key:
                    kept.put_cell_bytes(stored, data)
        report = aggregate_report("tiny", store=damaged)
        expected_cells = len(tiny_spec().cells()) - (0 if reported else 1)
        assert sum(map(len, report.values())) == expected_cells
        assert report == aggregate_report("tiny", store=kept)
        assert pivot_report("tiny", "sigma", store=damaged) == pivot_report(
            "tiny", "sigma", store=kept
        )

    def test_report_without_cells_raises(self, tmp_path):
        empty = CampaignStore("tiny", root=tmp_path / "empty")
        empty.write_manifest(tiny_spec().to_manifest())
        with pytest.raises(EvaluationError):
            aggregate_report("tiny", store=empty)


#: The acceptance-criteria ablation grid: three sigma values over two
#: scenario families (reusing the session-cached tiny worlds).
ABLATION_VARIANTS = (
    "fp32+sigma_obs=1.0",
    "fp32",  # sigma_obs=2.0, the paper default
    "fp32+sigma_obs=4.0",
)


def ablation_spec(name: str = "ablation") -> CampaignSpec:
    return CampaignSpec(
        name=name,
        scenarios=SCENARIOS,
        variants=ABLATION_VARIANTS,
        particle_counts=(16,),
        seeds=(0,),
    )


class TestAblationCampaign:
    """An ablation campaign runs, resumes, shards and merges byte-stably."""

    @pytest.fixture(scope="class")
    def fresh(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("ablation") / "fresh"
        store = CampaignStore("ablation", root=root)
        summary = run_campaign(ablation_spec(), store=store)
        return store, summary

    def test_all_cells_execute_with_distinct_keys(self, fresh):
        store, summary = fresh
        cells = ablation_spec().cells()
        assert summary.executed == len(cells) == 6  # 2 scenarios x 3 sigmas
        assert store.completed_keys() == {cell.key for cell in cells}

    def test_resume_skips_everything_byte_identically(self, fresh):
        store, __ = fresh
        before = store_bytes(store, ablation_spec())
        summary = run_campaign(ablation_spec(), store=store, resume=True)
        assert summary.executed == 0
        assert summary.skipped == summary.total_cells
        assert store_bytes(store, ablation_spec()) == before

    def test_backends_byte_identical(self, fresh, tmp_path):
        store, __ = fresh
        reference = CampaignStore("ablation", root=tmp_path / "reference")
        run_campaign(ablation_spec(), store=reference, backend="reference")
        assert store_bytes(reference, ablation_spec()) == store_bytes(
            store, ablation_spec()
        )

    def test_default_sigma_cell_shares_bytes_with_plain_variant_campaign(
        self, fresh, tmp_path
    ):
        # The fp32 cells of the ablation campaign are the same content
        # keys (and bytes) a variants-only campaign produces: ablation
        # axes cannot fork the identity of the default configuration.
        store, __ = fresh
        plain = CampaignStore("plain", root=tmp_path / "plain")
        plain_spec = CampaignSpec(
            name="plain", scenarios=SCENARIOS, variants=("fp32",),
            particle_counts=(16,), seeds=(0,),
        )
        run_campaign(plain_spec, store=plain)
        ablation_bytes = store_bytes(store, ablation_spec())
        for key, data in store_bytes(plain, plain_spec).items():
            assert ablation_bytes[key] == data

    def test_sharded_run_merges_back_byte_identically(self, fresh, tmp_path):
        store, __ = fresh
        spec = ablation_spec()
        shards = 2
        shard_stores = []
        for index in range(shards):
            shard_store = CampaignStore(
                "ablation", root=tmp_path / f"shard{index}"
            )
            summary = run_campaign(
                spec, store=shard_store, shard=(index, shards)
            )
            assert summary.total_cells == len(shard_cells(spec, shards)[index])
            assert shard_store.completed_keys() == {
                cell.key for cell in shard_cells(spec, shards)[index]
            }
            shard_stores.append(shard_store)
        merged = CampaignStore("ablation", root=tmp_path / "merged")
        for shard_store in shard_stores:
            merge_campaign_stores(merged, shard_store)
        assert store_bytes(merged, spec) == store_bytes(store, spec)

    def test_invalid_shard_index_rejected(self):
        with pytest.raises(ConfigurationError):
            run_campaign(ablation_spec(), shard=(2, 2))


class TestKeyDerivationCost:
    """Resume and status derive each fingerprint once per distinct spec.

    A finished grid of synthetic cells (keys derived exactly as a run
    would) stands in for an executed campaign: a complete resume builds
    no scenario, so only key derivation and the index read run.
    """

    SPEC = CampaignSpec(
        name="keys",
        scenarios=("office:1", "corridor:2", "maze:7"),
        variants=("fp32", "fp32+sigma=1.0", "fp16qm+sigma=1.0"),
        particle_counts=(16, 32),
        seeds=(0, 1),
    )

    @pytest.fixture
    def finished(self, tmp_path):
        store = CampaignStore("keys", root=tmp_path / "keys")
        store.write_manifest(self.SPEC.to_manifest())
        with store:
            for cell in self.SPEC.cells():
                store.put_cell(cell.key, cell_payload(cell, []))
        return store

    @pytest.fixture
    def fingerprint_calls(self, monkeypatch):
        calls = []
        original = MclConfig.fingerprint

        def counting(config):
            calls.append(config)
            return original(config)

        monkeypatch.setattr(MclConfig, "fingerprint", counting)
        return calls

    def test_resume_and_status_fingerprint_each_ablated_spec_once(
        self, finished, fingerprint_calls
    ):
        ablated = sum(
            not ConfigSpec.parse(variant).is_default
            for variant in self.SPEC.variants
        )
        assert ablated == 2
        cells = len(self.SPEC.cells())

        def resume():
            summary = run_campaign(self.SPEC, store=finished, resume=True)
            assert (summary.executed, summary.skipped) == (0, cells)

        def status():
            assert campaign_status("keys", store=finished)["completed"] == cells

        for query in (resume, status):
            campaign._variant_key_parts.cache_clear()
            campaign._scenario_stem.cache_clear()
            fingerprint_calls.clear()
            query()
            assert len(fingerprint_calls) <= ablated, query.__name__

    @pytest.fixture
    def identity_encodings(self, monkeypatch):
        """Every identity the campaign module encodes to derive keys."""
        calls = []
        original = campaign.canonical_json_bytes

        def counting(payload):
            calls.append(payload)
            return original(payload)

        monkeypatch.setattr(campaign, "canonical_json_bytes", counting)
        return calls

    def test_queries_encode_one_identity_per_variant_and_count(
        self, finished, identity_encodings
    ):
        templates = len(self.SPEC.variants) * len(self.SPEC.particle_counts)
        cells = len(self.SPEC.cells())
        assert (templates, cells) == (6, 18)

        def resume():
            summary = run_campaign(self.SPEC, store=finished, resume=True)
            assert (summary.executed, summary.skipped) == (0, cells)

        def status():
            assert campaign_status("keys", store=finished)["completed"] == cells

        def reports():
            report = aggregate_report("keys", store=finished)
            assert sum(map(len, report.values())) == cells
            pivot_report("keys", "sigma", store=finished)

        for query in (resume, status, reports):
            campaign._identity_template.cache_clear()
            identity_encodings.clear()
            query()
            assert len(identity_encodings) <= templates, query.__name__

    @pytest.mark.parametrize("spec", [SPEC, tiny_spec()], ids=["ablated", "tiny"])
    def test_keyed_cells_are_the_cells_keys_in_order(self, spec):
        assert list(spec.keyed_cells().items()) == [
            (cell.key, (cell.scenario, cell.variant, cell.particle_count))
            for cell in spec.cells()
        ]


#: Scenario ids over any code point: quotes, backslashes, control
#: characters, non-ASCII text and lone surrogates.
_ANY_TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
_ODD_IDS = st.sampled_from(['"', "\\", '\\"', "\x00\n\x1f", "é 漢 😀", "\ud800", ""])


class TestKeyTemplate:
    """Keys through the identity template equal the canonical encoding."""

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(
        scenario=st.one_of(_ANY_TEXT, _ODD_IDS),
        variant=st.sampled_from(
            ("fp32", "fp16qm", "fp32+sigma=1.0", "fp16qm+sigma=1.0+beam_rows=5/2/3/4")
        ),
        count=st.integers(min_value=1, max_value=1 << 20),
        seeds=st.lists(
            st.integers(min_value=-(2**40), max_value=2**40),
            min_size=1,
            max_size=4,
            unique=True,
        ).map(tuple),
    )
    def test_template_and_walk_match_the_identity_encoding(
        self, scenario, variant, count, seeds
    ):
        spec_id, label, fingerprint = campaign._variant_key_parts(variant)
        identity = {
            "scenario": scenario,
            "variant": spec_id,
            "particle_count": count,
            "seeds": list(seeds),
        }
        if fingerprint is not None:
            identity["config_fingerprint"] = fingerprint
        encoded = canonical_json_bytes(identity)
        infix, head, tail = campaign._identity_template(variant, count, seeds)
        escaped = json.encoder.encode_basestring_ascii(scenario).encode()
        assert head + escaped + tail == encoded
        expected = f"stem-{label}-n{count}-" + hashlib.sha256(encoded).hexdigest()[:12]
        # Any code point is no registry scenario id: stand in for its
        # stem and its canonical spelling, which the digest never reads.
        with mock.patch.object(
            campaign, "_scenario_stem", lambda scenario: "stem"
        ), mock.patch.object(campaign, "canonical_scenario_id", lambda scenario: scenario):
            spec = CampaignSpec(
                name="k",
                scenarios=(scenario,),
                variants=(variant,),
                particle_counts=(count,),
                seeds=seeds,
            )
            assert CampaignCell(scenario, variant, count, seeds).key == expected
            assert spec.keyed_cells() == {
                expected: (scenario, spec.variants[0], count)
            }


def synthetic_payload(cell: CampaignCell, ate: float) -> dict:
    """``cell_payload`` of one converged run with mean ATE ``ate``: no
    filter runs, no scenario generation (a key needs only the id)."""
    metrics = RunMetrics(
        converged=True,
        convergence_time_s=1.0,
        success=True,
        ate_mean_m=ate,
        ate_rmse_m=ate,
        ate_max_m=ate,
        yaw_mean_rad=0.0,
    )
    run = SimpleNamespace(
        sequence_name=cell.scenario,
        seed=cell.seeds[0],
        update_count=1,
        metrics=metrics,
    )
    return cell_payload(cell, [run])


def report_json(report: dict) -> bytes:
    """A report's canonical bytes, its tuple row keys stringified."""
    return canonical_json_bytes(
        {
            scenario: {repr(row): value for row, value in rows.items()}
            for scenario, rows in report.items()
        }
    )


#: Two cells of one maze world: fp32 and a sigma ablation of it.
STRAY_SPEC = CampaignSpec(
    name="stray",
    scenarios=("maze:1",),
    variants=("fp32", "fp32+sigma=1.0"),
    particle_counts=(64,),
    seeds=(0,),
)

#: Synthetic cells over two worlds, a sigma pivot and two counts; each
#: variant's pivot row and column, written out independently.
PROPERTY_SPEC = CampaignSpec(
    name="property",
    scenarios=("maze:1", "office:2"),
    variants=("fp32", "fp32+sigma=1.0", "fp16qm+sigma=4.0"),
    particle_counts=(16, 64),
    seeds=(0, 1),
)
PIVOT_CELLS = {
    "fp32": ("fp32", "2.0"),
    "fp32+sigma_obs=1.0": ("fp32", "1.0"),
    "fp16qm+sigma_obs=4.0": ("fp16qm", "4.0"),
}
PROPERTY_CELLS = [
    (cell.key, synthetic_payload(cell, 0.01 * (index + 1)))
    for index, cell in enumerate(PROPERTY_SPEC.cells())
]


def reports_of(cells: list[tuple[str, dict]], root: Path) -> tuple[dict, dict]:
    """Both reports of a store holding ``cells`` put in that order."""
    store = CampaignStore(PROPERTY_SPEC.name, root=root)
    store.write_manifest(PROPERTY_SPEC.to_manifest())
    with store:
        for key, payload in cells:
            store.put_cell(key, payload)
    return (
        aggregate_report(PROPERTY_SPEC.name, store=store),
        pivot_report(PROPERTY_SPEC.name, "sigma", store=store),
    )


class TestReportsFollowKeys:
    """A report is a function of the grid's stored cells, keyed by key."""

    @pytest.mark.parametrize("stray_first", [False, True], ids=["after", "before"])
    def test_a_stray_naming_a_grid_cell_changes_no_report(
        self, tmp_path, telemetry, stray_first
    ):
        # A payload under an off-grid key that claims the fp32 cell used
        # to replace its aggregate in one report or the other, by order.
        fp32, ablated = STRAY_SPEC.cells()
        real = [(cell.key, synthetic_payload(cell, 0.1)) for cell in (fp32, ablated)]
        stray = ("maze-s1-fp32-n64-stray", synthetic_payload(fp32, 0.9))
        puts = [stray, *real] if stray_first else [*real, stray]
        store = CampaignStore("stray", root=tmp_path)
        store.write_manifest(STRAY_SPEC.to_manifest())
        with store:
            for key, payload in puts:
                store.put_cell(key, payload)
        report = aggregate_report("stray", store=store)
        pivot = pivot_report("stray", "sigma", store=store)
        assert report["maze:1"][("fp32", 64)]["mean_ate_m"] == 0.1
        assert pivot["maze:1"][("fp32", 64)]["2.0"]["mean_ate_m"] == 0.1
        assert pivot["maze:1"][("fp32", 64)]["1.0"]["mean_ate_m"] == 0.1
        assert obs.snapshot()["counters"]["campaign.report_stray"] == 2

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_order_shards_merges_and_strays_leave_reports_unchanged(self, data):
        claims = data.draw(
            st.lists(st.integers(0, len(PROPERTY_CELLS) - 1), max_size=3)
        )
        strays = [
            (f"stray-{number}", synthetic_payload(PROPERTY_SPEC.cells()[claim], 9.0))
            for number, claim in enumerate(claims)
        ]
        puts = data.draw(st.permutations(PROPERTY_CELLS + strays))
        shard_of = data.draw(
            st.lists(st.integers(0, 1), min_size=len(puts), max_size=len(puts))
        )
        first = data.draw(st.integers(0, 1))
        with tempfile.TemporaryDirectory() as scratch:
            root = Path(scratch)
            expected = reports_of(PROPERTY_CELLS, root / "clean")
            shards = []
            for index in range(2):
                shard = CampaignStore(PROPERTY_SPEC.name, root=root / f"shard{index}")
                shard.write_manifest(PROPERTY_SPEC.to_manifest())
                with shard:
                    for (key, payload), owner in zip(puts, shard_of):
                        if owner == index:
                            shard.put_cell(key, payload)
                shards.append(shard)
            merged = CampaignStore(PROPERTY_SPEC.name, root=root / "merged")
            merge_campaign_stores(merged, shards[first])
            merge_campaign_stores(merged, shards[1 - first])
            report, pivot = (
                aggregate_report(PROPERTY_SPEC.name, store=merged),
                pivot_report(PROPERTY_SPEC.name, "sigma", store=merged),
            )
        assert report_json(report) == report_json(expected[0])
        assert report_json(pivot) == report_json(expected[1])
        assert sum(map(len, report.values())) == len(PROPERTY_CELLS)
        for scenario, rows in report.items():
            for (variant, count), aggregate in rows.items():
                base, value = PIVOT_CELLS[variant]
                assert pivot[scenario][(base, count)][value] == aggregate
