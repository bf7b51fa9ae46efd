"""Backend throughput: reference vs batched vs fast on the Fig. 6/7 grid.

Times the same sweep cells under the sequential ``reference`` backend,
the ``(R, N)``-stacked ``batched`` backend and — when its C kernels
load — the ``fast`` backend, verifies they produced
identical per-run metrics, prints the per-cell table, and writes the
machine-readable report to ``results/BENCH_backends.json``.

The cell grid covers the lower half of the paper's particle sweep with
the full 6-seed repetition (``REPRO_BACKEND_COUNTS`` / ``REPRO_SCALE``
override it).  Expected shape on one core:

* small N (64): evaluation throughput is dispatch/replay bound — the
  batched backend amortizes beam extraction, frame materialization and
  kernel dispatch over all seeds and wins >= 3x; the fast backend
  inherits that run loop, so it must never regress against batched;
* large N (>= 1024): the per-element EDT/transform math dominates.  The
  batched backend converges to the reference wall-clock there (both are
  wide-numpy bound), while the fast backend's C stages — no
  ``(R, N, K)`` temporaries, one vectorized transform+gather+tree pass
  per row, all rows in one call — must beat the reference >= 5x at
  fp32/N=1024.

The report also records the ``provider`` the default backend resolved
to (``c``, or ``numpy`` on a host without cffi or a C compiler),
``cpu_count`` and, on multi-core hosts, one process-parallel
(``jobs > 1``) sweep timing row for the fastest backend.
"""

from __future__ import annotations

import os

from conftest import current_scale

from repro.common.rng import PAPER_SEEDS
from repro.eval.aggregate import SweepProtocol
from repro.eval.bench import compare_backends, default_bench_backends, write_backend_report
from repro.viz.tables import format_table

DEFAULT_COUNTS = [64, 256, 1024]
#: fp32qm and fp16qm share the uint8 map, so their ratio isolates the
#: particle storage width (float32 against float16).
VARIANTS = ["fp32", "fp32qm", "fp16qm"]

#: The tentpole throughput bar: the fused backend against the reference
#: scalar loop on the biggest dual-precision cell of the default grid.
FAST_SPEEDUP_CELL = "fp32/N=1024"
FAST_SPEEDUP_MIN = 5.0


def bench_counts() -> list[int]:
    raw = os.environ.get("REPRO_BACKEND_COUNTS")
    if raw:
        return [int(part) for part in raw.split(",") if part.strip()]
    if current_scale() == "smoke":
        return [64, 256]
    return list(DEFAULT_COUNTS)


def bench_protocol() -> SweepProtocol:
    """Multi-seed protocol: the batching dimension of a sweep cell.

    Always repeats over the paper's six seeds (that is what a cell's
    ``(R, N)`` stack is made of); the sequence count follows the scale.
    """
    sequence_count = {"smoke": 1, "paper": 6}.get(current_scale(), 3)
    return SweepProtocol(sequence_count=sequence_count, seeds=PAPER_SEEDS)


def test_backend_throughput(benchmark, world, sequences):
    counts = bench_counts()
    protocol = bench_protocol()
    backends = default_bench_backends()

    def compare():
        return compare_backends(
            world.grid,
            sequences,
            variants=VARIANTS,
            particle_counts=counts,
            protocol=protocol,
            backends=backends,
        )

    report = benchmark.pedantic(compare, rounds=1, iterations=1)

    cells = report["timings"]["reference"]["cells_s"]
    rows = []
    for cell in cells:
        ref_s = cells[cell]
        row = [cell, f"{ref_s:.2f}s"]
        for backend in backends[1:]:
            b_s = report["timings"][backend]["cells_s"][cell]
            row.append(f"{b_s:.2f}s")
            row.append(f"{ref_s / b_s:.2f}x")
        rows.append(row)
    ref_total = report["timings"]["reference"]["total_s"]
    total_row = ["total", f"{ref_total:.2f}s"]
    for backend in backends[1:]:
        b_total = report["timings"][backend]["total_s"]
        total_row.append(f"{b_total:.2f}s")
        total_row.append(f"{ref_total / b_total:.2f}x")
    rows.append(total_row)

    header = ["cell", "reference"]
    for backend in backends[1:]:
        header.extend([backend, "speedup"])
    parallel = report.get("parallel")
    footnote = (
        f"identical per-run metrics asserted; {report['cpu_count']} core(s); "
        f"provider {report['provider']}"
    )
    if parallel:
        footnote += (
            f"; {parallel['backend']}@jobs={parallel['jobs']}: "
            f"{parallel['total_s']:.2f}s"
        )
    print()
    print(
        format_table(
            header,
            rows,
            title=(
                f"Backend sweep timing — {len(protocol.seeds)} seeds x "
                f"{protocol.sequence_count} sequences per cell"
            ),
            footnote=footnote,
        )
    )
    path = write_backend_report(report)
    print(f"report: {path}")

    # The backends must agree run-for-run — this is the hard guarantee
    # that makes the throughput comparison meaningful at all.
    assert report["equivalent"], "backends disagreed on per-run metrics"

    # Throughput shape: the smallest-N cells are evaluation-bound and the
    # batched engine must win decisively there; overall it must never be
    # slower.  (Margins are loose: shared-machine timing jitter.)
    smallest = min(counts)
    small_cells = [c for c in cells if c.endswith(f"N={smallest}")]
    bat_total = report["timings"]["batched"]["total_s"]
    for cell in small_cells:
        ratio = cells[cell] / report["timings"]["batched"]["cells_s"][cell]
        assert ratio > 1.5, f"batched should clearly win {cell}, got {ratio:.2f}x"
    assert bat_total < ref_total * 1.05, "batched must not lose overall"

    if "fast" not in backends:
        return

    # The fused backend inherits the batched run loop, so its small-N
    # dispatch cost must stay within noise of batched (no regression
    # beyond 5%)...
    for cell in small_cells:
        fast_s = report["timings"]["fast"]["cells_s"][cell]
        bat_s = report["timings"]["batched"]["cells_s"][cell]
        assert fast_s < bat_s * 1.05, (
            f"fast regressed vs batched on {cell}: {fast_s:.2f}s vs {bat_s:.2f}s"
        )
    # ...and the big dual-precision cell is where the fused kernels must
    # earn their keep against the reference loop.
    if FAST_SPEEDUP_CELL in cells:
        speedup = cells[FAST_SPEEDUP_CELL] / report["timings"]["fast"]["cells_s"][
            FAST_SPEEDUP_CELL
        ]
        assert speedup >= FAST_SPEEDUP_MIN, (
            f"fast must beat reference >= {FAST_SPEEDUP_MIN:.0f}x on "
            f"{FAST_SPEEDUP_CELL}, got {speedup:.2f}x"
        )
