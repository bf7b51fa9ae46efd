"""Backend throughput comparison: reference vs fast timing.

:func:`compare_backends` runs the same sweep grid through each backend,
times every (variant, N) cell, checks that the backends agreed run-by-run
(they must — every backend is bitwise-equivalent), and reduces
everything into one JSON-serializable report.  The ``bench-backends``
CLI command and ``benchmarks/bench_backends.py`` both build on it.

The ``fast`` backend joins the comparison wherever its C kernels load
(:func:`default_bench_backends` probes for them); the report also
records the ``provider`` the default backend resolved to, ``cpu_count``
and — on multi-core hosts — one process-parallel sweep timing row, so
throughput numbers from different machines stay interpretable.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

from .. import obs
from ..common.errors import EvaluationError
from ..engine.backend import DEFAULT_BACKEND, get_backend
from ..dataset.recorder import RecordedSequence
from ..maps.occupancy import OccupancyGrid
from ..viz.export import results_directory
from .aggregate import SweepProtocol
from .runner import RunResult
from .sweep_engine import DistanceFieldCache, SweepEngine, _cell_specs, _execute_cell

#: Default grid of the backend bench: the dual- and reduced-precision
#: variants over the lower half of the paper's particle sweep, where
#: evaluation throughput (not raw FLOPs) dominates the wall-clock.
DEFAULT_VARIANTS = ("fp32", "fp16qm")
DEFAULT_PARTICLE_COUNTS = (64, 256, 1024)


def default_provider() -> str:
    """The kernels the default backend runs here: ``"c"``, or
    ``"reference"`` where it fell back to the reference backend."""
    backend = get_backend(DEFAULT_BACKEND)
    return getattr(backend, "provider_name", backend.name)


def default_bench_backends() -> tuple[str, ...]:
    """The backends the bench compares: ``fast`` only where its C kernels load.

    Without them ``fast`` resolves to ``reference``, so timing it again
    would compare a backend with itself.
    """
    return ("reference", "fast") if default_provider() == "c" else ("reference",)


def _run_signature(run: RunResult) -> tuple:
    """What two equivalent backends must agree on, run by run.

    NaN metrics (non-converged runs) are mapped to ``None`` so the
    signatures stay comparable — NaN never equals NaN.
    """

    def _value(x: float) -> float | None:
        return None if math.isnan(x) else x

    return (
        run.sequence_name,
        run.seed,
        run.update_count,
        run.metrics.converged,
        run.metrics.success,
        _value(run.metrics.ate_mean_m),
        _value(run.metrics.yaw_mean_rad),
    )


def compare_backends(
    grid: OccupancyGrid,
    sequences: list[RecordedSequence],
    variants: list[str] | None = None,
    particle_counts: list[int] | None = None,
    protocol: SweepProtocol | None = None,
    backends: tuple[str, ...] | None = None,
    progress=None,
    jobs: int | None = None,
) -> dict:
    """Time the same sweep under every backend and report speedups.

    Distance fields are prebuilt through one shared cache, and each
    backend runs its first cell once untimed before the timed cells, so
    the timing isolates filter execution; the report's ``"equivalent"`` flag
    records whether all backends produced identical per-run metrics.
    ``backends=None`` compares every constructible backend
    (:func:`default_bench_backends`).  ``jobs=None`` additionally times
    one process-parallel sweep of the last backend when the host has
    more than one core (pass ``jobs=1`` to disable, or an explicit
    worker count to force it).
    """
    if backends is None:
        backends = default_bench_backends()
    if not backends:
        raise EvaluationError("need at least one backend to time")
    variants = list(variants or DEFAULT_VARIANTS)
    particle_counts = list(particle_counts or DEFAULT_PARTICLE_COUNTS)
    protocol = protocol or SweepProtocol.from_env()
    used_sequences = sequences[: protocol.sequence_count]
    if not used_sequences:
        raise EvaluationError("backend bench needs at least one sequence")

    cache = DistanceFieldCache()
    cells = _cell_specs(variants, particle_counts)
    # Keyed like SweepEngine.run: r_max-ablated config specs need their
    # own EDT truncation, not the default config's.
    fields = {
        (cell.field_kind, cell.config.r_max): cache.get(
            grid, cell.config.r_max, cell.field_kind
        )
        for cell in cells
    }

    runs_per_cell = len(used_sequences) * len(protocol.seeds)
    timings: dict[str, dict] = {}
    signatures: dict[str, list[tuple]] = {}
    for backend in backends:
        # One executor instance per backend, shared across cells — the
        # fast backend's replay-plan cache then works exactly as it does
        # under SweepEngine.
        executor = get_backend(backend)

        def execute(cell):
            return _execute_cell(
                grid,
                used_sequences,
                protocol.seeds,
                cell,
                fields[(cell.field_kind, cell.config.r_max)],
                executor,
            )

        # Run the first cell once, untimed: it pays the executor's one-time
        # set-up (the fast backend's replay plans of every sequence),
        # which would otherwise count in that cell's time.
        execute(cells[0])
        if progress is not None:
            progress(
                f"{backend}: {cells[0].variant} N={cells[0].particle_count} "
                "warm-up (untimed)"
            )
        cell_seconds: dict[str, float] = {}
        backend_signatures: list[tuple] = []
        total = 0.0
        for cell in cells:
            with obs.timed("bench.backend_cell") as cell_timer:
                runs = execute(cell)
            elapsed = cell_timer.elapsed_s
            total += elapsed
            cell_seconds[f"{cell.variant}/N={cell.particle_count}"] = elapsed
            backend_signatures.extend(_run_signature(run) for run in runs)
            if progress is not None:
                progress(
                    f"{backend}: {cell.variant} N={cell.particle_count} "
                    f"({runs_per_cell} runs) {elapsed:.2f}s"
                )
        timings[backend] = {"total_s": total, "cells_s": cell_seconds}
        signatures[backend] = backend_signatures

    baseline = backends[0]
    first = signatures[baseline]
    equivalent = all(signatures[b] == first for b in backends[1:])
    cpu_count = os.cpu_count() or 1
    report = {
        "protocol": {
            "sequences": [s.name for s in used_sequences],
            "seeds": list(protocol.seeds),
            "runs_per_cell": runs_per_cell,
        },
        "variants": variants,
        "particle_counts": particle_counts,
        "backends": list(backends),
        "provider": default_provider(),
        "cpu_count": cpu_count,
        "timings": timings,
        "equivalent": equivalent,
        "speedup_vs_" + baseline: {
            b: timings[baseline]["total_s"] / max(timings[b]["total_s"], 1e-12)
            for b in backends[1:]
        },
    }

    # Process fan-out row: one multi-worker sweep of the last (fastest)
    # backend, recorded only where the host can actually parallelize.
    # The per-run results are bitwise-pinned, so this is a pure
    # throughput data point.
    if jobs is None:
        jobs = min(cpu_count, 4) if cpu_count > 1 else 1
    if jobs > 1:
        parallel_backend = backends[-1]
        engine = SweepEngine(backend=parallel_backend, jobs=jobs)
        with obs.timed("bench.parallel_sweep") as sweep_timer:
            engine.run(
                grid,
                used_sequences,
                variants,
                particle_counts,
                protocol=protocol,
            )
        elapsed = sweep_timer.elapsed_s
        report["parallel"] = {
            "backend": parallel_backend,
            "jobs": jobs,
            "total_s": elapsed,
        }
        if progress is not None:
            progress(f"{parallel_backend}@jobs={jobs}: {elapsed:.2f}s")
    return report


def write_backend_report(report: dict, path: str | Path | None = None) -> Path:
    """Write the comparison report to ``results/BENCH_backends.json``."""
    if path is None:
        path = results_directory() / "BENCH_backends.json"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path
