"""Store benchmark: packed segments vs legacy cell files at campaign scale.

Builds the *same* synthetic campaign (cell payload bytes a pure function
of the cell key, exactly as real campaigns guarantee) twice: through
``put_cell_bytes`` into packed segments, the store's one write path, and
as legacy ``cells/<key>.json`` files, the layout stores written before
segments still hold.  Then it measures the three operations segments
exist for:

1. **resume scan** — ``completed_keys()`` on a cold store: a directory
   walk with per-file JSON validation (legacy cells) vs sealed-segment
   index sidecar reads (packed),
2. **streaming report** — every cell's leading ``aggregate`` and
   ``cell`` members decoded by :func:`~repro.eval.store.leading_members`,
   as ``campaign report`` decodes them, and the aggregates folded by
   :class:`~repro.eval.aggregate.RunningCellStats`; both layouts must
   report identical ``success_rate`` and ``mean_ate_m`` floats,
3. **byte equivalence** — every cell read back from both layouts must be
   byte-identical (the contract ``campaign compact`` and merges of
   legacy stores rest on).

Every measured phase runs in its own subprocess so the reported peak
RSS (``ru_maxrss``) belongs to that phase alone; the streaming report is
additionally run against a 10x smaller packed store to check that its
memory is flat in cell count, not proportional to it.

Scale: ``smoke`` = 2 000 cells, ``quick`` = 20 000, ``paper`` = 100 000.
Results go to ``results/BENCH_store.json``.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

SCENARIO_SLOTS = 40


def synthetic_key(index: int) -> str:
    return (
        f"s{index % SCENARIO_SLOTS:03d}_fp32_N={64 << (index % 3)}"
        f"_seed={index // SCENARIO_SLOTS}"
    )


def synthetic_payload_bytes(index: int) -> bytes:
    """Deterministic cell bytes shaped like a real campaign payload."""
    from repro.eval.store import canonical_json_bytes

    key = synthetic_key(index)
    digest = hashlib.sha256(key.encode("ascii")).hexdigest()
    runs = 4
    converged = int(digest[:2], 16) % (runs + 1)
    payload = {
        "cell": {
            "scenario": f"s{index % SCENARIO_SLOTS:03d}",
            "variant": "fp32",
            "particle_count": 64 << (index % 3),
            "seed": index // SCENARIO_SLOTS,
        },
        "aggregate": {
            "runs": runs,
            "converged": converged,
            "success_rate": converged / runs,
            "mean_ate_m": (int(digest[2:6], 16) % 1000) / 1000.0
            if converged
            else None,
        },
        "digest": digest,
    }
    return canonical_json_bytes(payload)


# --------------------------------------------------------------------------
# Subprocess phases: each prints one JSON line with its own timings + RSS.
# --------------------------------------------------------------------------


def _phase_write_legacy(root: Path, cells: int) -> dict:
    """Lay out legacy cell files (setup only: nothing writes them any more)."""
    from repro.eval.store import CampaignStore

    store = CampaignStore("bench", root=root)
    store.cells_dir.mkdir(parents=True, exist_ok=True)
    elapsed = _timed()
    for index in range(cells):
        store.cell_path(synthetic_key(index)).write_bytes(
            synthetic_payload_bytes(index)
        )
    return {"seconds": elapsed(), "cells": cells}


def _phase_write_packed(root: Path, cells: int) -> dict:
    from repro.eval.store import CampaignStore

    store = CampaignStore("bench", root=root)
    elapsed = _timed()
    with store:
        for index in range(cells):
            store.put_cell_bytes(synthetic_key(index), synthetic_payload_bytes(index))
    return {"seconds": elapsed(), "cells": cells}


def _phase_scan(root: Path, cells: int) -> dict:
    """Cold resume scan: what ``run_campaign(resume=True)`` pays first."""
    from repro.eval.store import CampaignStore

    elapsed = _timed()
    keys = CampaignStore("bench", root=root).completed_keys()
    return {"seconds": elapsed(), "keys": len(keys)}


def _phase_report(root: Path, cells: int) -> dict:
    """Streaming fold over every cell's aggregate, decoded as ``campaign
    report`` decodes it; a malformed cell is left out of ``cells``."""
    from repro.eval.aggregate import RunningCellStats
    from repro.eval.store import CampaignStore, leading_members

    stats = RunningCellStats()
    elapsed = _timed()
    for __, data in CampaignStore("bench", root=root).iter_cell_bytes():
        members = leading_members(data, ("aggregate", "cell"))
        if members is not None:
            stats.add(members[0])
    return {
        "seconds": elapsed(),
        "cells": stats.cells,
        "success_rate": stats.success_rate,
        "mean_ate_m": stats.mean_ate_m,
    }


def _phase_verify(roots: list[Path], cells: int) -> dict:
    """Byte equivalence: both layouts answer every key identically."""
    from repro.eval.store import CampaignStore

    elapsed = _timed()
    first = dict(CampaignStore("bench", root=roots[0]).iter_cell_bytes())
    second = dict(CampaignStore("bench", root=roots[1]).iter_cell_bytes())
    return {
        "seconds": elapsed(),
        "equivalent": first == second and len(first) == cells,
    }


def _timed():
    import time

    start = time.perf_counter()
    return lambda: time.perf_counter() - start


PHASES = {
    "write-legacy": _phase_write_legacy,
    "write-packed": _phase_write_packed,
    "scan": _phase_scan,
    "report": _phase_report,
}


def _run_phase(phase: str, roots: list[Path], cells: int) -> dict:
    """Execute one phase in a fresh subprocess and parse its JSON line."""
    command = [sys.executable, __file__, phase, str(cells)]
    command += [str(root) for root in roots]
    result = subprocess.run(command, capture_output=True, text=True, check=True)
    return json.loads(result.stdout.strip().splitlines()[-1])


def _main() -> None:
    phase, cells = sys.argv[1], int(sys.argv[2])
    roots = [Path(arg) for arg in sys.argv[3:]]
    if phase == "verify":
        report = _phase_verify(roots, cells)
    else:
        report = PHASES[phase](roots[0], cells)
    import resource

    report["ru_maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(report))


# --------------------------------------------------------------------------
# The benchmark proper.
# --------------------------------------------------------------------------


def store_cells() -> int:
    from conftest import current_scale

    if current_scale() == "smoke":
        return 2_000
    if current_scale() == "paper":
        return 100_000
    return 20_000


def test_store_layouts(benchmark, tmp_path):
    from conftest import current_scale

    from repro.viz.export import results_directory
    from repro.viz.tables import format_table

    cells = store_cells()
    small = max(cells // 10, 100)
    legacy_root = tmp_path / "legacy"
    packed_root = tmp_path / "packed"
    small_root = tmp_path / "packed-small"

    def run() -> dict:
        report: dict = {"scale": current_scale(), "cells": cells}
        report["write_legacy"] = _run_phase("write-legacy", [legacy_root], cells)
        report["write_packed"] = _run_phase("write-packed", [packed_root], cells)
        report["write_packed_small"] = _run_phase(
            "write-packed", [small_root], small
        )
        report["scan_legacy"] = _run_phase("scan", [legacy_root], cells)
        report["scan_packed"] = _run_phase("scan", [packed_root], cells)
        report["report_legacy"] = _run_phase("report", [legacy_root], cells)
        report["report_packed"] = _run_phase("report", [packed_root], cells)
        report["report_packed_small"] = _run_phase("report", [small_root], small)
        report["verify"] = _run_phase("verify", [legacy_root, packed_root], cells)
        report["scan_speedup"] = (
            report["scan_legacy"]["seconds"] / report["scan_packed"]["seconds"]
        )
        report["report_rss_ratio_10x_cells"] = (
            report["report_packed"]["ru_maxrss_kb"]
            / report["report_packed_small"]["ru_maxrss_kb"]
        )
        return report

    report = benchmark.pedantic(run, rounds=1, iterations=1)

    def row(name: str, block: dict) -> list:
        return [
            name,
            f"{block['seconds']:.3f}",
            f"{block['ru_maxrss_kb'] / 1024:.1f}",
        ]

    print()
    print(
        format_table(
            ["phase", "seconds", "peak MiB"],
            [
                row(f"write, packed ({cells} cells)", report["write_packed"]),
                row("resume scan, legacy cells", report["scan_legacy"]),
                row("resume scan, packed", report["scan_packed"]),
                row("report, legacy cells", report["report_legacy"]),
                row("report, packed", report["report_packed"]),
                row(f"report, packed ({small} cells)", report["report_packed_small"]),
            ],
            title="Campaign store — packed write, cold resume scan, streaming report",
            footnote=(
                f"scan speedup {report['scan_speedup']:.1f}x; legacy/packed "
                f"byte equivalence: {report['verify']['equivalent']}; each "
                "phase is its own subprocess (RSS is per-phase)"
            ),
        )
    )

    path = results_directory() / "BENCH_store.json"
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"report: {path}")

    assert report["verify"]["equivalent"], "layouts disagree on cell bytes"
    assert report["scan_legacy"]["keys"] == cells
    assert report["scan_packed"]["keys"] == cells
    assert report["report_packed"]["cells"] == cells
    # The fold's sums are exact, so the two layouts' different cell
    # orders (sorted file names vs append order) give identical totals.
    for total in ("success_rate", "mean_ate_m"):
        assert report["report_legacy"][total] == report["report_packed"][total], (
            f"report {total} differs between layouts: "
            f"{report['report_legacy'][total]!r} vs "
            f"{report['report_packed'][total]!r}"
        )
    # The index must beat the validating directory scan by a wide margin
    # (>=10x at report scale; the floor is looser at smoke scale where
    # both sides are milliseconds).
    floor = 3.0 if current_scale() == "smoke" else 10.0
    assert report["scan_speedup"] >= floor, (
        f"packed resume scan only {report['scan_speedup']:.1f}x faster"
    )
    # Streaming report memory is flat in cell count: 10x the cells must
    # not come anywhere near 10x the peak RSS.
    assert report["report_rss_ratio_10x_cells"] < 2.0, (
        f"report RSS grew {report['report_rss_ratio_10x_cells']:.2f}x "
        "across a 10x cell-count increase"
    )


if __name__ == "__main__":
    _main()
