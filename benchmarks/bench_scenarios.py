"""Per-family scenario benchmark: generation cost, accuracy, throughput.

For every built-in scenario family this bench

1. times the full deterministic generation pipeline (layout -> plan ->
   simulate -> record),
2. sweeps the generated scenario's (fp32, N) cells through the
   reference and the default backend (``REPRO_BACKEND``), timing each,
   and
3. asserts the backends produced identical per-run metrics (generated
   scenarios are first-class citizens of the bitwise-equivalence
   contract).

Results go to ``results/BENCH_scenarios.json``: the host's
``cpu_count``, and per family the generation seconds, per-backend sweep
seconds, and the default backend's accuracy (mean ATE / success rate
per cell).
"""

from __future__ import annotations

import json
import math
import os
import time

from conftest import current_backend, current_scale

from repro.common.rng import PAPER_SEEDS
from repro.eval.aggregate import SweepProtocol
from repro.eval.bench import _run_signature
from repro.eval.sweep_engine import DistanceFieldCache, SweepEngine
from repro.scenarios import ScenarioSpec, available_families, build_scenario
from repro.viz.export import results_directory
from repro.viz.tables import format_table

PARTICLE_COUNTS = [64, 256]
VARIANTS = ["fp32"]


def scenario_protocol() -> SweepProtocol:
    seeds = {"smoke": (0,), "paper": PAPER_SEEDS}.get(
        current_scale(), PAPER_SEEDS[:2]
    )
    return SweepProtocol(sequence_count=1, seeds=tuple(seeds))


def scenario_flight_s() -> float:
    return {"smoke": 20.0, "paper": 80.0}.get(current_scale(), 40.0)


def test_scenario_families(benchmark):
    protocol = scenario_protocol()
    flight_s = scenario_flight_s()
    specs = [
        ScenarioSpec.of(family, 0, flight_s=flight_s)
        for family in available_families()
    ]

    def run() -> dict:
        field_cache = DistanceFieldCache()
        report: dict = {
            "protocol": {
                "seeds": list(protocol.seeds),
                "flight_s": flight_s,
                "variants": VARIANTS,
                "particle_counts": PARTICLE_COUNTS,
            },
            "cpu_count": os.cpu_count() or 1,
            "families": {},
        }
        for spec in specs:
            start = time.perf_counter()
            scenario = build_scenario(spec, cache=False)
            generation_s = time.perf_counter() - start

            timings: dict[str, float] = {}
            sweeps = {}
            signatures = {}
            for backend in ("reference", current_backend()):
                engine = SweepEngine(backend=backend, field_cache=field_cache)
                start = time.perf_counter()
                result = engine.run(
                    scenario.grid,
                    [scenario.sequence],
                    VARIANTS,
                    PARTICLE_COUNTS,
                    protocol=protocol,
                )
                timings[backend] = time.perf_counter() - start
                sweeps[backend] = result
                signatures[backend] = [
                    _run_signature(run_result)
                    for cell in result.cells.values()
                    for run_result in cell.runs
                ]

            cells = {}
            for (variant, count), cell in sweeps[current_backend()].cells.items():
                ate = cell.aggregate.mean_ate_m
                cells[f"{variant}/N={count}"] = {
                    "ate_m": None if math.isnan(ate) else ate,
                    "success_rate": cell.aggregate.success_rate,
                    "runs": cell.aggregate.run_count,
                }
            report["families"][spec.family] = {
                "spec": spec.id,
                "frames": len(scenario.sequence),
                "generation_s": generation_s,
                "sweep_s": timings,
                "equivalent": signatures["reference"] == signatures[current_backend()],
                "cells": cells,
            }
        return report

    report = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for family, entry in report["families"].items():
        ref_s = entry["sweep_s"]["reference"]
        backend_s = entry["sweep_s"][current_backend()]
        accuracy = entry["cells"].get("fp32/N=256", {})
        ate = accuracy.get("ate_m")
        rows.append(
            [
                family,
                f"{entry['generation_s']:.2f}s",
                f"{ref_s:.2f}s",
                f"{backend_s:.2f}s",
                "n/a" if ate is None else f"{ate:.3f}",
                f"{100 * accuracy.get('success_rate', 0.0):.0f}%",
                "yes" if entry["equivalent"] else "NO",
            ]
        )
    print()
    print(
        format_table(
            [
                "family",
                "generate",
                "ref sweep",
                f"{current_backend()} sweep",
                "ate@256",
                "succ@256",
                "bitwise",
            ],
            rows,
            title=(
                f"Scenario families — {len(report['protocol']['seeds'])} seeds, "
                f"{report['protocol']['flight_s']:.0f} s flights"
            ),
            footnote="sweep cells: fp32 x N in {64, 256}; one core",
        )
    )

    path = results_directory() / "BENCH_scenarios.json"
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"report: {path}")

    for family, entry in report["families"].items():
        assert entry["equivalent"], f"backends disagreed on scenario {family}"
