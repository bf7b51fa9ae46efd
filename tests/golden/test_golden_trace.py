"""Golden-trace regression: sweep cells pinned bit-for-bit.

Each golden JSON snapshots the complete observable output of one
fp32/N=64 sweep cell over a generated scenario: every scalar metric as
an exact float (``float.hex``) and every per-frame trace array as a
SHA-256 of its raw bytes.  Every backend must keep reproducing it
exactly — a refactor that drifts any resampling decision, weight, or
trace sample by one ulp fails loudly here instead of silently shifting
published numbers.

Two cells are pinned: the default fp32 configuration, and one *ablated*
config spec (``fp32+sigma_obs=1.0``) so the config-override path —
spec parsing, override application, fingerprinted identity — is held to
the same bit-for-bit standard as the paper variants.

To intentionally re-baseline after a *deliberate* numerical change:

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/golden -q

and commit the rewritten JSON alongside the change that explains it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

import pytest

from repro.eval.aggregate import SweepProtocol
from repro.eval.sweep_engine import SweepEngine
from repro.scenarios import build_scenario

#: The pinned world: a generated maze scenario, N=64, two seeds.
SCENARIO_SPEC = "maze:0:cells=5+flight_s=25.0+size_m=3.0"
PARTICLE_COUNT = 64
PROTOCOL = SweepProtocol(sequence_count=1, seeds=(0, 1))

#: Pinned cells: golden file name -> config spec.
GOLDEN_CELLS = {
    "golden_fp32_n64.json": "fp32",
    "golden_fp32_sigma1_n64.json": "fp32+sigma_obs=1.0",
}


def _hex(value: float | None) -> str:
    if value is None:
        return "none"
    if math.isnan(value):
        return "nan"
    return float(value).hex()


def _digest(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def _cell_snapshot(backend: str, variant: str) -> dict:
    scenario = build_scenario(SCENARIO_SPEC)
    engine = SweepEngine(backend=backend)
    result = engine.run(
        scenario.grid,
        [scenario.sequence],
        [variant],
        [PARTICLE_COUNT],
        protocol=PROTOCOL,
    )
    cell = result.cells[(variant, PARTICLE_COUNT)]
    runs = []
    for run in cell.runs:
        metrics = run.metrics
        runs.append(
            {
                "sequence": run.sequence_name,
                "seed": run.seed,
                "update_count": run.update_count,
                "converged": metrics.converged,
                "success": metrics.success,
                "convergence_time_s": _hex(metrics.convergence_time_s),
                "ate_mean_m": _hex(metrics.ate_mean_m),
                "ate_rmse_m": _hex(metrics.ate_rmse_m),
                "ate_max_m": _hex(metrics.ate_max_m),
                "yaw_mean_rad": _hex(metrics.yaw_mean_rad),
                "sha256": {
                    "timestamps": _digest(run.timestamps),
                    "position_errors": _digest(run.position_errors),
                    "yaw_errors": _digest(run.yaw_errors),
                    "estimate_trace": _digest(run.estimate_trace),
                },
            }
        )
    return {
        "scenario": SCENARIO_SPEC,
        "variant": variant,
        "particle_count": PARTICLE_COUNT,
        "seeds": list(PROTOCOL.seeds),
        "runs": runs,
    }


@pytest.mark.parametrize("golden_name", sorted(GOLDEN_CELLS))
@pytest.mark.parametrize("backend", ["reference", "batched", "fast"])
def test_golden_cell_reproduces_bit_for_bit(request, backend, golden_name):
    variant = GOLDEN_CELLS[golden_name]
    golden_path = Path(__file__).parent / golden_name
    if backend == "fast":
        request.getfixturevalue("fast_backend")  # skips without cffi or cc
    snapshot = _cell_snapshot(backend, variant)
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        golden_path.write_text(json.dumps(snapshot, indent=2) + "\n")
        pytest.skip(f"golden snapshot rewritten by {backend}")
    assert golden_path.exists(), (
        "golden snapshot missing; regenerate with REPRO_UPDATE_GOLDEN=1"
    )
    golden = json.loads(golden_path.read_text())
    assert snapshot == golden, (
        f"{backend} backend drifted from the golden {variant}/N=64 cell; if "
        "the numerical change is intentional, re-baseline with "
        "REPRO_UPDATE_GOLDEN=1 and justify it in the commit"
    )
