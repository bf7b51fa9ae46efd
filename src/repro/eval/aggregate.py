"""Sweep orchestration: the paper's full evaluation protocol.

The paper evaluates each configuration over **6 sequences x 6 random
seeds** (Sec. IV-B).  :func:`run_sweep` executes that protocol for any set
of variants and particle counts, sharing one distance field per precision
kind, and reduces everything into the per-(variant, N) series that Fig. 6
(ATE), Fig. 7 (success rate) and Fig. 8 (convergence probability) plot.

Because a full paper-scale sweep is hours of pure-Python compute, the
protocol scale is controlled by ``REPRO_SCALE``:

* ``quick`` (default): 3 sequences x 2 seeds — same qualitative shape,
  minutes of runtime;
* ``paper``: the full 6 x 6 protocol.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from ..common.errors import EvaluationError
from ..common.rng import PAPER_SEEDS
from ..dataset.recorder import RecordedSequence
from ..engine.backend import DEFAULT_BACKEND
from ..maps.occupancy import OccupancyGrid
from .metrics import AggregateMetrics
from .runner import RunResult


@dataclass(frozen=True)
class SweepProtocol:
    """How many sequences and seeds a sweep covers."""

    sequence_count: int
    seeds: tuple[int, ...]

    @staticmethod
    def from_env() -> "SweepProtocol":
        """Resolve the protocol from the ``REPRO_SCALE`` env variable."""
        scale = os.environ.get("REPRO_SCALE", "quick").lower()
        if scale == "paper":
            return SweepProtocol(sequence_count=6, seeds=PAPER_SEEDS)
        if scale == "quick":
            return SweepProtocol(sequence_count=3, seeds=PAPER_SEEDS[:2])
        raise EvaluationError(
            f"REPRO_SCALE must be 'quick' or 'paper', got {scale!r}"
        )


@dataclass
class SweepCell:
    """Aggregated outcome of one (variant, particle count) cell."""

    variant: str
    particle_count: int
    aggregate: AggregateMetrics = field(default_factory=AggregateMetrics)
    runs: list[RunResult] = field(default_factory=list)

    def add(self, result: RunResult) -> None:
        self.runs.append(result)
        self.aggregate.add(result.metrics)


@dataclass
class SweepResult:
    """All cells of a sweep, indexed by (variant, particle count)."""

    cells: dict[tuple[str, int], SweepCell] = field(default_factory=dict)

    def cell(self, variant: str, particle_count: int) -> SweepCell:
        key = (variant, particle_count)
        if key not in self.cells:
            self.cells[key] = SweepCell(variant, particle_count)
        return self.cells[key]

    def ate_series(self, variant: str, particle_counts: list[int]) -> list[float]:
        """Fig. 6 series: mean ATE per particle count."""
        return [
            self.cells[(variant, n)].aggregate.mean_ate_m for n in particle_counts
        ]

    def success_series(self, variant: str, particle_counts: list[int]) -> list[float]:
        """Fig. 7 series: success rate (percent) per particle count."""
        return [
            100.0 * self.cells[(variant, n)].aggregate.success_rate
            for n in particle_counts
        ]

    def convergence_times(self, variant: str, particle_count: int) -> list[float | None]:
        """Fig. 8 input: convergence instants of every run in a cell."""
        return self.cells[(variant, particle_count)].aggregate.convergence_times


def _fsum_add(partials: list[float], value: float) -> None:
    """Add ``value`` to Shewchuk's non-overlapping partials, in place.

    ``math.fsum(partials)`` is then the correctly rounded sum of every
    value added, whatever their order; the list stays a few entries long
    (it cannot outgrow the float exponent range), not one per value.
    """
    count = 0
    for partial in partials:
        if abs(value) < abs(partial):
            value, partial = partial, value
        high = value + partial
        low = partial - (high - value)
        if low:
            partials[count] = low
            count += 1
        value = high
    partials[count:] = [value]


@dataclass
class RunningCellStats:
    """O(1)-memory streaming fold over stored cell aggregates.

    Consumes the ``aggregate`` block of campaign cell payloads one at a
    time (see :func:`repro.eval.campaign.cell_payload`) and maintains
    campaign-level totals without holding any cell: this is what lets
    ``campaign report`` summarize a 10^5-cell packed store in memory
    bounded by one segment.  Means are weighted by run count, matching
    what a batch recomputation over all runs would produce.  The two
    weighted sums are exact (Shewchuk partials, as in :func:`math.fsum`),
    so the totals do not depend on the order cells arrive in: store
    layout, append order, job count or merge order.
    """

    cells: int = 0
    runs: int = 0
    converged: int = 0
    success_partials: list[float] = field(default_factory=list)
    ate_weight: int = 0
    ate_partials: list[float] = field(default_factory=list)

    def add(self, aggregate: dict) -> None:
        runs = int(aggregate.get("runs") or 0)
        self.cells += 1
        self.runs += runs
        converged = int(aggregate.get("converged") or 0)
        self.converged += converged
        success_rate = aggregate.get("success_rate")
        if success_rate is not None:
            _fsum_add(self.success_partials, float(success_rate) * runs)
        mean_ate = aggregate.get("mean_ate_m")
        if mean_ate is not None:
            # mean_ate_m averages the *converged* runs of the cell.
            self.ate_weight += converged
            _fsum_add(self.ate_partials, float(mean_ate) * converged)

    @property
    def success_rate(self) -> float | None:
        if not self.runs:
            return None
        return math.fsum(self.success_partials) / self.runs

    @property
    def mean_ate_m(self) -> float | None:
        if not self.ate_weight:
            return None
        return math.fsum(self.ate_partials) / self.ate_weight


def run_sweep(
    grid: OccupancyGrid,
    sequences: list[RecordedSequence],
    variants: list[str],
    particle_counts: list[int],
    protocol: SweepProtocol | None = None,
    progress=None,
    backend: str = DEFAULT_BACKEND,
    jobs: int = 1,
) -> SweepResult:
    """Execute the full evaluation protocol.

    Delegates to :class:`~repro.eval.sweep_engine.SweepEngine`: each
    (config, N) cell's sequences-x-seeds runs are dispatched as one
    batch through the selected filter backend, with distance fields
    shared via a keyed cache.  ``variants`` entries are config specs
    (``variant[+key=value...]``, see
    :class:`repro.core.config.ConfigSpec`), so ablations sweep exactly
    like paper variants.  All backends produce identical results;
    ``backend``/``jobs`` only select the execution strategy.

    ``progress`` is an optional callable receiving a one-line status
    string per completed run (for long sweeps under pytest-benchmark).
    """
    from .sweep_engine import SweepEngine  # local import: avoids a cycle

    engine = SweepEngine(backend=backend, jobs=jobs)
    return engine.run(
        grid,
        sequences,
        variants,
        particle_counts,
        protocol=protocol,
        progress=progress,
    )
