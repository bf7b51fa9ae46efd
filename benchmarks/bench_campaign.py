"""Campaign-layer benchmark: fresh run, process fan-out, resume, determinism.

Times the campaign layer on one small scenario grid:

1. **generate** — building the grid's scenarios through the registry
   (generation on a cold cache, ``.npz`` loads on a warm one), so that
   every later phase runs on a warm registry;
2. **fresh** — a campaign run at ``jobs=1`` into an empty store (every
   cell executed and streamed to the store);
3. **jobs=2** — the same campaign through the process pool into another
   empty store.  Fresh and jobs=2 runs alternate for ``ROUNDS`` rounds
   and the medians are reported with their ratio (jobs=1 over jobs=2);
4. **resume** — re-running the completed campaign with ``resume=True``
   (must skip every cell by content key; near-instant);
5. **reference** — the same campaign under the ``reference`` backend
   into a last store.

The fresh, jobs=2 and resume runs use the default backend
(``REPRO_BACKEND``).  It then asserts the store-level determinism
contract: the resume touched nothing, every jobs=2 store is
**byte-identical** to the jobs=1 store, and so is the ``reference``
store, cell by cell.

Results go to ``results/BENCH_campaign.json``, with the host's CPU count
and the provider the default backend resolved to.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

from conftest import current_backend, current_scale

from repro.eval.bench import default_provider
from repro.eval.campaign import CampaignSpec, run_campaign
from repro.eval.store import CampaignStore
from repro.scenarios.registry import build_scenarios
from repro.viz.export import results_directory
from repro.viz.tables import format_table

SCENARIOS = ("corridor:2", "office:1", "hall:1")
VARIANTS = ("fp32", "fp16qm")
JOBS = 2
#: Alternating jobs=1 / jobs=2 rounds; their medians damp run-to-run jitter.
ROUNDS = 5


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
    spec = CampaignSpec(
        name="bench",
        scenarios=scenarios,
        variants=VARIANTS,
        particle_counts=counts,
        seeds=seeds,
    )

    def timed(root: Path, **options) -> tuple[float, CampaignStore]:
        store = CampaignStore("bench", root=root)
        start = time.perf_counter()
        run_campaign(spec, store=store, **options)
        return time.perf_counter() - start, store

    def run() -> dict:
        start = time.perf_counter()
        build_scenarios(list(scenarios))
        generate_s = time.perf_counter() - start

        fresh, fanned = [], []
        for index in range(ROUNDS):
            fresh.append(timed(tmp_path / f"jobs1-{index}", backend=current_backend()))
            fanned.append(
                timed(
                    tmp_path / f"jobs{JOBS}-{index}",
                    backend=current_backend(),
                    jobs=JOBS,
                )
            )
        store = fresh[0][1]

        start = time.perf_counter()
        resumed = run_campaign(spec, backend=current_backend(), store=store, resume=True)
        resume_s = time.perf_counter() - start

        reference_s, reference_store = timed(tmp_path / "reference", backend="reference")

        cells = dict(store.iter_cell_bytes())
        every_cell = set(cells) == {cell.key for cell in spec.cells()}
        fresh_s = statistics.median(seconds for seconds, __ in fresh)
        fanned_s = statistics.median(seconds for seconds, __ in fanned)

        return {
            "grid": {
                "scenarios": list(scenarios),
                "variants": list(VARIANTS),
                "particle_counts": list(counts),
                "seeds": list(seeds),
            },
            "cells": len(cells),
            "backend": current_backend(),
            "provider": default_provider(),
            "cpu_count": os.cpu_count(),
            "rounds": ROUNDS,
            "generate_s": generate_s,
            "fresh_s": fresh_s,
            "fresh_s_samples": [seconds for seconds, __ in fresh],
            f"jobs{JOBS}_s": fanned_s,
            f"jobs{JOBS}_s_samples": [seconds for seconds, __ in fanned],
            f"jobs{JOBS}_speedup": fresh_s / fanned_s,
            "resume_s": resume_s,
            "reference_s": reference_s,
            "resume_skipped": resumed.skipped,
            "resume_executed": resumed.executed,
            "jobs_stores_identical": every_cell
            and all(
                dict(other.iter_cell_bytes()) == cells
                for __, other in fresh[1:] + fanned
            ),
            "stores_identical": every_cell
            and cells == dict(reference_store.iter_cell_bytes()),
        }

    report = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print(
        format_table(
            ["phase", "seconds", "cells"],
            [
                ["generate (registry)", f"{report['generate_s']:.2f}", "-"],
                [
                    f"fresh jobs=1 ({current_backend()})",
                    f"{report['fresh_s']:.2f}",
                    report["cells"],
                ],
                [
                    f"fresh jobs={JOBS} ({current_backend()})",
                    f"{report[f'jobs{JOBS}_s']:.2f}",
                    report["cells"],
                ],
                [
                    "resume (all cached)",
                    f"{report['resume_s']:.2f}",
                    f"{report['resume_skipped']} skipped",
                ],
                ["fresh (reference)", f"{report['reference_s']:.2f}", report["cells"]],
            ],
            title="Campaign layer — fresh vs fan-out vs resume vs reference backend",
            footnote=(
                f"medians of {ROUNDS} alternating rounds; jobs={JOBS} speedup "
                f"{report[f'jobs{JOBS}_speedup']:.2f}x on {report['cpu_count']} "
                f"CPUs; jobs=1/jobs={JOBS} stores byte-identical: "
                f"{report['jobs_stores_identical']}; reference/default stores "
                f"byte-identical: {report['stores_identical']}"
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
    assert report["jobs_stores_identical"], "process fan-out broke store determinism"
    assert report["stores_identical"], "backend broke store determinism"
    assert report["resume_s"] < report["fresh_s"]
