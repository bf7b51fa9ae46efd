"""Campaign-layer benchmark: fresh run, resume, and store determinism.

Times three things about the campaign layer on one small scenario grid:

1. **fresh** — a cold campaign run (scenario generation amortized by the
   registry cache, every cell executed and streamed to the store),
2. **resume** — re-running the completed campaign with ``resume=True``
   (must skip every cell by content key; near-instant),
3. **reference** — the same campaign under the ``reference`` backend
   into a second store.

The fresh run and the resume use the default backend
(``REPRO_BACKEND``).  It then asserts the store-level determinism
contract: the resume touched nothing, and the ``reference`` store is
**byte-identical** to the default backend's, cell by cell.

Results go to ``results/BENCH_campaign.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from conftest import current_backend, current_scale

from repro.eval.campaign import CampaignSpec, run_campaign
from repro.eval.store import CampaignStore
from repro.viz.export import results_directory
from repro.viz.tables import format_table

SCENARIOS = ("corridor:2", "office:1", "hall:1")
VARIANTS = ("fp32", "fp16qm")


def campaign_grid() -> tuple[tuple[int, ...], tuple[int, ...], float]:
    """(particle counts, seeds, flight seconds) for the current scale."""
    if current_scale() == "smoke":
        return (32,), (0,), 10.0
    if current_scale() == "paper":
        return (64, 256), (0, 1, 2, 3, 4, 5), 60.0
    return (32, 64), (0, 1), 20.0


def test_campaign_layer(benchmark, tmp_path):
    counts, seeds, flight_s = campaign_grid()
    scenarios = tuple(f"{spec}:flight_s={flight_s}" for spec in SCENARIOS)

    def spec(name: str) -> CampaignSpec:
        return CampaignSpec(
            name=name,
            scenarios=scenarios,
            variants=VARIANTS,
            particle_counts=counts,
            seeds=seeds,
        )

    def run() -> dict:
        store = CampaignStore("bench", root=tmp_path / "default")
        reference_store = CampaignStore("bench", root=tmp_path / "reference")

        start = time.perf_counter()
        fresh = run_campaign(spec("bench"), backend=current_backend(), store=store)
        fresh_s = time.perf_counter() - start

        start = time.perf_counter()
        resumed = run_campaign(
            spec("bench"), backend=current_backend(), store=store, resume=True
        )
        resume_s = time.perf_counter() - start

        start = time.perf_counter()
        run_campaign(spec("bench"), backend="reference", store=reference_store)
        reference_s = time.perf_counter() - start

        cells = dict(store.iter_cell_bytes())
        every_cell = set(cells) == {cell.key for cell in spec("bench").cells()}

        return {
            "grid": {
                "scenarios": list(scenarios),
                "variants": list(VARIANTS),
                "particle_counts": list(counts),
                "seeds": list(seeds),
            },
            "cells": fresh.total_cells,
            "fresh_s": fresh_s,
            "resume_s": resume_s,
            "reference_s": reference_s,
            "resume_skipped": resumed.skipped,
            "resume_executed": resumed.executed,
            "stores_identical": every_cell
            and cells == dict(reference_store.iter_cell_bytes()),
        }

    report = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print(
        format_table(
            ["phase", "seconds", "cells"],
            [
                [
                    f"fresh ({current_backend()})",
                    f"{report['fresh_s']:.2f}",
                    report["cells"],
                ],
                [
                    "resume (all cached)",
                    f"{report['resume_s']:.2f}",
                    f"{report['resume_skipped']} skipped",
                ],
                ["fresh (reference)", f"{report['reference_s']:.2f}", report["cells"]],
            ],
            title="Campaign layer — fresh vs resume vs reference backend",
            footnote=(
                "fresh includes one-time scenario generation (cached for the "
                "later phases); reference/default stores byte-identical: "
                f"{report['stores_identical']}"
            ),
        )
    )

    path = results_directory() / "BENCH_campaign.json"
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"report: {path}")

    assert report["resume_executed"] == 0, "resume re-ran completed cells"
    assert report["resume_skipped"] == report["cells"]
    assert report["stores_identical"], "backend broke store determinism"
    assert report["resume_s"] < report["fresh_s"]
