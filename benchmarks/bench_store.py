"""Store benchmark: packed segments at campaign scale, and the legacy fold.

Builds a synthetic campaign (cell payload bytes a pure function of the
cell key, exactly as real campaigns guarantee, shaped like
``cell_payload``'s: a four-run cell of about 1.8 kB) through
``put_cell_bytes`` into packed segments, the store's one layout, and
measures:

1. **packed write** — the append path at scale,
2. **resume scan** — ``completed_keys()`` on a cold store: one index
   sidecar read per sealed segment,
3. **streaming report** — every cell's leading ``aggregate`` member
   decoded by :func:`~repro.eval.store.leading_members`, as ``campaign
   report`` decodes it (skipping the ``cell`` and ``runs``), and the
   aggregates folded by :class:`~repro.eval.aggregate.RunningCellStats`,
4. **legacy fold** — the same cells laid out as ``cells/<key>.json``
   files, the layout stores written before segments hold, then folded
   into segments by ``recover()`` (what ``campaign compact`` and the
   first ``campaign run`` on such a store do),
5. **byte equivalence** — every cell of the folded store must be
   byte-identical to the packed store's (the contract the fold rests on).

Every measured phase runs in its own subprocess so the reported peak
RSS (``ru_maxrss``) belongs to that phase alone; the streaming report is
additionally run against a 10x smaller packed store to check that its
memory is flat in cell count, not proportional to it.

Scale: ``smoke`` = 2 000 cells, ``quick`` = 20 000, ``paper`` = 100 000.
Results go to ``results/BENCH_store.json``, with the host's CPU count.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SCENARIO_SLOTS = 40
RUNS = 4

#: The report's totals over the paper-scale cells, which the aggregates
#: (drawn from each key's digest) fix.
PAPER_TOTALS = {"success_rate": 0.49926, "mean_ate_m": 0.4970667387733846}


def synthetic_key(index: int) -> str:
    """Shaped like a content key (``-n<N>-<12 hex digits>``), as every
    legacy cell file is named: the fold takes no other file for a cell."""
    return f"s{index % SCENARIO_SLOTS:03d}-fp32-n{64 << (index % 3)}-{index:012x}"


def _identity(index: int) -> str:
    """The string a cell's bytes are drawn from (it fixes PAPER_TOTALS)."""
    return (
        f"s{index % SCENARIO_SLOTS:03d}_fp32_N={64 << (index % 3)}"
        f"_seed={index // SCENARIO_SLOTS}"
    )


def synthetic_payload_bytes(index: int) -> bytes:
    """Deterministic cell bytes shaped like ``cell_payload``'s."""
    from repro.eval.store import canonical_json_bytes

    digest = hashlib.sha256(_identity(index).encode("ascii")).hexdigest()
    converged = int(digest[:2], 16) % (RUNS + 1)
    mean_ate = (int(digest[2:6], 16) % 1000) / 1000.0 if converged else None

    def fraction(run: int, slot: int) -> float:
        start = 6 + 8 * ((4 * run + slot) % 7)
        return int(digest[start : start + 8], 16) / 2**32

    runs = [
        {
            "sequence": f"s{index % SCENARIO_SLOTS:03d}",
            "seed": run,
            "update_count": 400 + int(digest[6 + run], 16),
            "metrics": {
                "converged": run < converged,
                "convergence_time_s": 20.0 * fraction(run, 0)
                if run < converged
                else None,
                "success": run < converged,
                "ate_mean_m": mean_ate if run < converged else None,
                "ate_rmse_m": fraction(run, 1) if run < converged else None,
                "ate_max_m": 2.0 * fraction(run, 2),
                "yaw_mean_rad": fraction(run, 3),
            },
        }
        for run in range(RUNS)
    ]
    payload = {
        "cell": {
            "scenario": f"s{index % SCENARIO_SLOTS:03d}",
            "variant": "fp32",
            "particle_count": 64 << (index % 3),
            "seeds": list(range(RUNS)),
        },
        "runs": runs,
        "aggregate": {
            "runs": RUNS,
            "converged": converged,
            "success_rate": converged / RUNS,
            "mean_ate_m": mean_ate,
        },
    }
    return canonical_json_bytes(payload)


# --------------------------------------------------------------------------
# Subprocess phases: each prints one JSON line with its own timings + RSS.
# --------------------------------------------------------------------------


def _phase_write_legacy(root: Path, cells: int) -> dict:
    """Lay out legacy cell files (setup only: nothing writes them any more)."""
    from repro.eval.store import CampaignStore

    cells_dir = CampaignStore("bench", root=root).cells_dir
    cells_dir.mkdir(parents=True, exist_ok=True)
    elapsed = _timed()
    for index in range(cells):
        (cells_dir / f"{synthetic_key(index)}.json").write_bytes(
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
        members = leading_members(data, ("aggregate",))
        if members is not None:
            stats.add(members[0])
    return {
        "seconds": elapsed(),
        "cells": stats.cells,
        "success_rate": stats.success_rate,
        "mean_ate_m": stats.mean_ate_m,
    }


def _phase_fold(root: Path, cells: int) -> dict:
    """``recover()`` folding every legacy cell file into segments."""
    from repro.eval.store import CampaignStore

    store = CampaignStore("bench", root=root)
    elapsed = _timed()
    with store:
        folded = store.recover()
    return {
        "seconds": elapsed(),
        "folded": len(folded),
        "cell_files_left": len(list(store.cells_dir.glob("*.json"))),
    }


def _phase_verify(roots: list[Path], cells: int) -> dict:
    """Byte equivalence: the folded store (``roots[1]``) holds each key
    once, with the bytes the packed store (``roots[0]``) holds."""
    from repro.eval.store import CampaignStore

    elapsed = _timed()
    packed = CampaignStore("bench", root=roots[0])
    keys: set[str] = set()
    records = matched = 0
    for key, data in CampaignStore("bench", root=roots[1]).iter_cell_bytes():
        keys.add(key)
        records += 1
        matched += packed.get_cell_bytes(key) == data
    return {
        "seconds": elapsed(),
        "equivalent": len(keys) == records == matched == cells
        and len(packed.completed_keys()) == cells,
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
    "fold": _phase_fold,
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
    packed_root = tmp_path / "packed"
    small_root = tmp_path / "packed-small"
    legacy_root = tmp_path / "legacy"

    def run() -> dict:
        report: dict = {
            "scale": current_scale(),
            "cells": cells,
            "cpu_count": os.cpu_count(),
        }
        report["write_packed"] = _run_phase("write-packed", [packed_root], cells)
        report["write_packed_small"] = _run_phase(
            "write-packed", [small_root], small
        )
        report["scan_packed"] = _run_phase("scan", [packed_root], cells)
        report["report_packed"] = _run_phase("report", [packed_root], cells)
        report["report_packed_small"] = _run_phase("report", [small_root], small)
        report["write_legacy"] = _run_phase("write-legacy", [legacy_root], cells)
        report["fold"] = _run_phase("fold", [legacy_root], cells)
        report["verify"] = _run_phase("verify", [packed_root, legacy_root], cells)
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
                row("resume scan, packed", report["scan_packed"]),
                row("report, packed", report["report_packed"]),
                row(f"report, packed ({small} cells)", report["report_packed_small"]),
                row("lay out legacy cell files", report["write_legacy"]),
                row("fold legacy files (recover)", report["fold"]),
                row("verify folded vs packed", report["verify"]),
            ],
            title="Campaign store — packed write, resume scan, report, legacy fold",
            footnote=(
                f"folded/packed byte equivalence: "
                f"{report['verify']['equivalent']}; each phase is its own "
                f"subprocess (RSS is per-phase); {report['cpu_count']} CPU(s)"
            ),
        )
    )

    path = results_directory() / "BENCH_store.json"
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"report: {path}")

    assert report["scan_packed"]["keys"] == cells
    assert report["report_packed"]["cells"] == cells
    assert report["fold"]["folded"] == cells
    assert report["fold"]["cell_files_left"] == 0
    assert report["verify"]["equivalent"], "the fold changed cell bytes"
    if current_scale() == "paper":
        for total, expected in PAPER_TOTALS.items():
            assert report["report_packed"][total] == expected, (
                f"report {total} {report['report_packed'][total]!r}, "
                f"expected {expected!r}"
            )
    # Streaming report memory is flat in cell count: 10x the cells must
    # not come anywhere near 10x the peak RSS.
    assert report["report_rss_ratio_10x_cells"] < 2.0, (
        f"report RSS grew {report['report_rss_ratio_10x_cells']:.2f}x "
        "across a 10x cell-count increase"
    )


if __name__ == "__main__":
    _main()
