"""Ablation grid benchmark: sigma x r_max as first-class config specs.

The paper's accuracy results are ablations over the filter's
configuration; this bench exercises the config-identity axis end to end:
a sigma_obs x r_max grid expands into config specs
(``variant[+key=value...]``), sweeps through the engine as ordinary
cells, and lands in ``results/BENCH_ablation.json`` keyed by canonical
spec id and config fingerprint.

Beyond timing, it asserts the identity invariants the grid relies on:

* every (sigma, r_max) combination has a distinct fingerprint
  (injectivity over the grid),
* the paper-default combination canonicalizes to the bare variant and
  reproduces the default fingerprint (legacy identity preserved),
* the reference and the default backend agree run-for-run on one
  ablated cell (the bitwise contract covers ablations, not just paper
  variants).
"""

from __future__ import annotations

import json
import math
import time

from conftest import current_backend, current_scale

from repro.core.config import ConfigSpec, MclConfig
from repro.eval.aggregate import SweepProtocol
from repro.eval.sweep_engine import SweepEngine
from repro.viz.export import results_directory
from repro.viz.tables import format_matrix

VARIANT = "fp32"
SCENARIO = "corridor:2"


def ablation_grid() -> tuple[tuple[float, ...], tuple[float, ...], int, SweepProtocol, float]:
    """(sigmas, r_maxes, N, protocol, flight seconds) per scale."""
    if current_scale() == "smoke":
        return (1.0, 2.0), (1.5,), 32, SweepProtocol(1, (0,)), 10.0
    if current_scale() == "paper":
        return (
            (0.5, 1.0, 2.0, 4.0),
            (1.0, 1.5, 2.0),
            256,
            SweepProtocol(1, (0, 1, 2, 3)),
            60.0,
        )
    return (1.0, 2.0, 4.0), (1.0, 1.5), 64, SweepProtocol(1, (0, 1)), 20.0


def test_ablation_grid(benchmark):
    sigmas, r_maxes, count, protocol, flight_s = ablation_grid()
    scenario = f"{SCENARIO}:flight_s={flight_s}"
    specs = [
        ConfigSpec.parse(VARIANT).with_override("sigma", sigma).with_override(
            "r_max", r_max
        )
        for sigma in sigmas
        for r_max in r_maxes
    ]
    variants = [spec.id for spec in specs]

    def run() -> dict:
        engine = SweepEngine(backend=current_backend())
        start = time.perf_counter()
        results = engine.run_scenarios(
            [scenario], variants, [count], protocol=protocol
        )
        elapsed = time.perf_counter() - start
        result = results[next(iter(results))]
        cells = {}
        for spec in specs:
            cell = result.cells[(spec.id, count)]
            cells[spec.id] = {
                "fingerprint": spec.fingerprint(),
                "runs": cell.aggregate.run_count,
                "success_rate": cell.aggregate.success_rate,
                "mean_ate_m": (
                    None
                    if math.isnan(cell.aggregate.mean_ate_m)
                    else cell.aggregate.mean_ate_m
                ),
            }
        return {
            "scenario": scenario,
            "variant": VARIANT,
            "particle_count": count,
            "seeds": list(protocol.seeds),
            "sigma_obs": list(sigmas),
            "r_max": list(r_maxes),
            "backend": current_backend(),
            "sweep_s": elapsed,
            "cells": cells,
        }

    report = benchmark.pedantic(run, rounds=1, iterations=1)

    # Identity invariants of the grid.
    fingerprints = [cell["fingerprint"] for cell in report["cells"].values()]
    assert len(set(fingerprints)) == len(specs), "fingerprint collision in grid"
    default_spec = ConfigSpec.parse(VARIANT).with_override(
        "sigma", MclConfig().sigma_obs
    ).with_override("r_max", MclConfig().r_max)
    if default_spec.id in report["cells"]:
        assert default_spec.id == VARIANT
        assert report["cells"][VARIANT]["fingerprint"] == MclConfig().fingerprint()

    # One ablated cell must agree across backends run-for-run.
    probe = specs[0]
    engines = {
        name: SweepEngine(backend=name) for name in ("reference", current_backend())
    }
    probes = {
        name: engine.run_scenarios(
            [report["scenario"]], [probe.id], [report["particle_count"]],
            protocol=SweepProtocol(1, (protocol.seeds[0],)),
        )
        for name, engine in engines.items()
    }

    def signature(results):
        cell = results[next(iter(results))].cells[(probe.id, report["particle_count"])]
        return [
            (run.seed, run.update_count, run.position_errors.tobytes())
            for run in cell.runs
        ]

    assert signature(probes["reference"]) == signature(probes[current_backend()])

    print()
    cells = {}
    for sigma in sigmas:
        for r_max in r_maxes:
            spec = ConfigSpec.parse(VARIANT).with_override(
                "sigma", sigma
            ).with_override("r_max", r_max)
            entry = report["cells"][spec.id]
            ate = entry["mean_ate_m"]
            cells[(f"sigma={sigma}", f"r_max={r_max}")] = (
                "n/a" if ate is None else f"{ate:.3f}"
            )
    print(
        format_matrix(
            "sigma_obs",
            [f"sigma={sigma}" for sigma in sigmas],
            [f"r_max={r}" for r in r_maxes],
            cells,
            title=(
                f"Ablation grid ATE (m) — {report['scenario']}, "
                f"{VARIANT}/N={report['particle_count']}"
            ),
            footnote=(
                f"{len(specs)} config specs, {report['sweep_s']:.2f}s sweep, "
                f"backend={report['backend']}; all fingerprints distinct"
            ),
        )
    )

    path = results_directory() / "BENCH_ablation.json"
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"report: {path}")
