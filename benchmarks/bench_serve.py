"""Serving-layer benchmark: multiplexed fleets vs per-session stepping.

Measures online fleet throughput as fleet size grows: R concurrent
small-N sessions (the serving regime — mixed office/corridor worlds,
fp32/N=64) served

1. **multiplexed** — one ``SessionManager`` stepping all R sessions
   through the scheduler's packed ``(R, N)``-stacked calls on the
   default backend (``REPRO_BACKEND``, else ``fast``);
2. **sequential** — the same R (scenario, seed) runs stepped one at a
   time through the reference backend, i.e. one scalar filter loop per
   drone (what serving would cost without the stacking).

Both modes produce bitwise-identical traces (asserted), so the timings
compare pure execution strategy.  Scenario generation and EDT
construction are excluded from both timings — they are one-time,
cached costs shared by any strategy.

Results go to ``results/BENCH_serve.json``, with the backend, the
provider it resolved to and the host's ``cpu_count``.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from conftest import current_backend, current_scale

from repro.core.config import MclConfig
from repro.engine.backend import RunSpec, get_backend
from repro.engine.reference import ReferenceBackend
from repro.maps.distance_field import DistanceField
from repro.scenarios import build_scenario
from repro.serve import SessionManager, SessionSpec
from repro.viz.export import results_directory
from repro.viz.tables import format_table

FAMILIES = ("office", "corridor")
VARIANT = "fp32"
PARTICLES = 64


def serve_protocol() -> tuple[tuple[int, ...], float]:
    """(fleet sizes, flight seconds) for the current scale."""
    if current_scale() == "smoke":
        return (1, 4), 10.0
    if current_scale() == "paper":
        return (1, 2, 4, 8, 16, 32), 30.0
    return (1, 2, 4, 8, 16), 20.0


def _fleet_specs(size: int, flight_s: float) -> list[SessionSpec]:
    """R sessions alternating between the two families, seeds 0..R-1."""
    return [
        SessionSpec(
            session_id=f"{seed:03d}.{FAMILIES[seed % len(FAMILIES)]}",
            scenario=f"{FAMILIES[seed % len(FAMILIES)]}:1:flight_s={flight_s}",
            variant=VARIANT,
            particle_count=PARTICLES,
            seed=seed,
        )
        for seed in range(size)
    ]


def _traces_equal(a, b) -> bool:
    return (
        a.update_count == b.update_count
        and np.array_equal(a.timestamps, b.timestamps)
        and np.array_equal(a.position_errors, b.position_errors)
        and np.array_equal(a.yaw_errors, b.yaw_errors)
        and np.array_equal(a.estimate_trace, b.estimate_trace)
    )


def test_serve_throughput(benchmark):
    sizes, flight_s = serve_protocol()
    config = MclConfig(particle_count=PARTICLES).with_variant(VARIANT)

    # One-time costs shared by both strategies: generated worlds + EDTs.
    scenarios = {
        family: build_scenario(f"{family}:1:flight_s={flight_s}")
        for family in FAMILIES
    }
    fields = {
        family: DistanceField.build_for_mode(
            scenario.grid, config.r_max, config.precision
        )
        for family, scenario in scenarios.items()
    }

    backend_name = current_backend()
    provider = getattr(get_backend(backend_name), "provider_name", None)

    def run() -> dict:
        report: dict = {
            "protocol": {
                "families": list(FAMILIES),
                "variant": VARIANT,
                "particle_count": PARTICLES,
                "flight_s": flight_s,
            },
            "backend": backend_name,
            "provider": provider,
            "cpu_count": os.cpu_count(),
            "fleets": [],
            "equivalent": True,
        }
        for size in sizes:
            specs = _fleet_specs(size, flight_s)

            manager = SessionManager(backend=backend_name)
            for spec in specs:
                manager.create(spec)
            start = time.perf_counter()
            frames = manager.run_to_completion(frames_per_flush=32)
            multiplexed_s = time.perf_counter() - start
            served = {
                spec.session_id: manager.close(spec.session_id) for spec in specs
            }

            backend = ReferenceBackend()
            start = time.perf_counter()
            solo = {}
            for spec in specs:
                family = FAMILIES[spec.seed % len(FAMILIES)]
                solo[spec.session_id] = backend.execute(
                    scenarios[family].grid,
                    [RunSpec(scenarios[family].sequence, spec.seed)],
                    config,
                    fields[family],
                )[0]
            sequential_s = time.perf_counter() - start

            equivalent = all(
                _traces_equal(served[sid].trace, solo[sid]) for sid in solo
            )
            report["equivalent"] &= equivalent
            report["fleets"].append(
                {
                    "sessions": size,
                    "frames": frames,
                    "multiplexed_s": multiplexed_s,
                    "sequential_s": sequential_s,
                    "speedup": sequential_s / multiplexed_s,
                    "multiplexed_sessions_per_s": size / multiplexed_s,
                    "sequential_sessions_per_s": size / sequential_s,
                    "equivalent": equivalent,
                }
            )
        return report

    report = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    rows = [
        [
            entry["sessions"],
            f"{entry['multiplexed_s']:.2f}s",
            f"{entry['sequential_s']:.2f}s",
            f"{entry['speedup']:.2f}x",
            f"{entry['multiplexed_sessions_per_s']:.2f}",
        ]
        for entry in report["fleets"]
    ]
    print(
        format_table(
            ["fleet", "multiplexed", "sequential", "speedup", "sessions/s"],
            rows,
            title=(
                f"Online serving — fleet multiplexing vs per-session stepping "
                f"({VARIANT}/N={PARTICLES}, {backend_name} on {provider})"
            ),
            footnote=(
                "identical traces both ways: "
                f"{report['equivalent']} (bitwise, asserted)"
            ),
        )
    )

    path = results_directory() / "BENCH_serve.json"
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"report: {path}")

    assert report["equivalent"], "serving broke the bitwise contract"
    largest = report["fleets"][-1]
    assert largest["sessions"] == 1 or largest["speedup"] > 1.0, (
        "multiplexed serving no faster than per-session stepping at "
        f"fleet size {largest['sessions']}"
    )
