"""Batched multi-run sweep engine: cells dispatched through a backend.

The paper's results are all *sweeps* — configurations x particle counts
x seeds x sequences.  :class:`SweepEngine` executes that grid as
**cells** (one (config, N) combination = R = sequences x seeds runs).
The configuration axis speaks the config-spec grammar
(``variant[+key=value...]``, :class:`repro.core.config.ConfigSpec`), so
ablations over sigma / r_max / trigger thresholds sweep exactly like the
four paper variants.  Three levers the per-run loop in older revisions
lacked:

* **backend dispatch** — a whole cell goes to one
  :class:`~repro.engine.backend.FilterBackend` call, so the ``batched``
  backend can advance all R runs as ``(R, N)`` stacks;
* **keyed distance-field cache** — cells are grouped by
  (map, r_max, precision kind) and each distinct EDT is built exactly
  once per engine, shared across variants and particle counts;
* **process fan-out** — ``jobs > 1`` spreads independent cells over a
  process pool (cells are embarrassingly parallel; results are
  reassembled in deterministic cell order).  Scenario sweeps fan out at
  **scenario x cell** granularity: every (scenario, variant, N) unit is
  an independent task, and each worker process keeps its own keyed
  distance-field cache alive across tasks so an EDT is built at most
  once per worker no matter how many cells share it.

Every backend is bitwise-equivalent, so cell results do not depend on
the backend or the job count — only wall-clock does.  That invariant is
what the campaign layer (:mod:`repro.eval.campaign`) builds on: a cell's
stored result is a pure function of its content key, regardless of how
(or how often) it was executed.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field

from .. import obs
from ..common.errors import ConfigurationError, EvaluationError
from ..core.config import ConfigSpec, MclConfig
from ..dataset.recorder import RecordedSequence
from ..engine.backend import DEFAULT_BACKEND, FilterBackend, RunSpec, get_backend
from ..maps.distance_field import DistanceField, FieldKind
from ..maps.occupancy import OccupancyGrid
from .aggregate import SweepProtocol, SweepResult
from .runner import RunResult, run_localization_batch


class DistanceFieldCache:
    """Distance fields keyed by (map content, r_max, storage kind).

    The EDT is by far the most expensive precomputation of a sweep; this
    cache guarantees each distinct (map, truncation, kind) triple is
    computed once and shared by reference across every cell that needs
    it.  Keys fingerprint the grid *content*, so two identical maps in
    different objects still share one field.

    ``limit`` bounds how many fields are retained (oldest insertion
    evicted first); ``None`` keeps everything — right for single-map
    sweeps, while long-lived fan-out workers crossing hundreds of
    generated worlds should bound it.
    """

    def __init__(self, limit: int | None = None) -> None:
        self._fields: dict[tuple, DistanceField] = {}
        self.limit = limit
        self.hits = 0
        self.misses = 0

    @staticmethod
    def grid_key(grid: OccupancyGrid) -> tuple:
        digest = hashlib.sha256(grid.cells.tobytes()).hexdigest()
        return (
            digest,
            grid.cells.shape,
            float(grid.resolution),
            float(grid.origin_x),
            float(grid.origin_y),
        )

    def get(self, grid: OccupancyGrid, r_max: float, kind: FieldKind) -> DistanceField:
        key = (self.grid_key(grid), float(r_max), kind.value)
        if key not in self._fields:
            self.misses += 1
            obs.counter("sweep.edt_cache.misses").inc()
            if self.limit is not None:
                while len(self._fields) >= self.limit:
                    self._fields.pop(next(iter(self._fields)))
            with obs.span("sweep.edt_build"):
                self._fields[key] = DistanceField.build(grid, r_max, kind)
        else:
            self.hits += 1
            obs.counter("sweep.edt_cache.hits").inc()
        return self._fields[key]

    def __len__(self) -> int:
        return len(self._fields)


@dataclass(frozen=True)
class SweepCellSpec:
    """One unit of sweep work: a (config, particle count) cell.

    ``variant`` is the cell's canonical config-spec id (a bare paper
    variant like ``"fp32"``, or an ablated spec such as
    ``"fp32+sigma_obs=0.15"``) — the string results are keyed by.  The
    materialized ``config`` carries the full identity; its
    :attr:`fingerprint` is what campaign keys and serve cohorts fold in.
    """

    variant: str
    particle_count: int
    config: MclConfig

    @property
    def field_kind(self) -> FieldKind:
        return FieldKind.for_mode(self.config.precision)

    @property
    def fingerprint(self) -> str:
        return self.config.fingerprint()


def _cell_specs(
    base_config: MclConfig, variants: list[str], particle_counts: list[int]
) -> list[SweepCellSpec]:
    """The sweep grid in deterministic (config-spec-major) cell order.

    ``variants`` entries are config specs (``variant[+key=value...]``)
    parsed through the one grammar in :class:`repro.core.config.ConfigSpec`;
    cells are keyed by the canonical spec id, so any accepted spelling of
    a configuration lands in the same cell.
    """
    cells = []
    for variant in variants:
        spec = ConfigSpec.parse(variant)
        for count in particle_counts:
            config = spec.config(base=base_config, particle_count=count)
            cells.append(SweepCellSpec(spec.id, count, config))
    return cells


def _execute_cell(
    grid: OccupancyGrid,
    sequences: list[RecordedSequence],
    seeds: tuple[int, ...],
    cell: SweepCellSpec,
    fld: DistanceField,
    backend: str | FilterBackend,
) -> list[RunResult]:
    """Run one cell's R = sequences x seeds runs through the backend.

    Module-level so a process pool can dispatch it by qualified name.
    """
    specs = [
        RunSpec(sequence=sequence, seed=seed)
        for sequence in sequences
        for seed in seeds
    ]
    with obs.span("sweep.cell"):
        runs = run_localization_batch(grid, specs, cell.config, fld, backend)
    obs.counter("sweep.cells").inc()
    obs.counter("sweep.runs").inc(len(specs))
    obs.event(
        "sweep.cell",
        variant=cell.variant,
        particle_count=cell.particle_count,
        runs=len(specs),
    )
    return runs


def drain_futures(pending: dict, on_done) -> None:
    """Drain a ``{future: context}`` map as completions arrive.

    Calls ``on_done(context, result)`` per finished future.  Shared by
    every process fan-out in the evaluation stack (cell sweeps, scenario
    sweeps, campaigns) so completion-handling behaves identically
    everywhere; a failed task raises out of the loop with the remaining
    futures left to the pool's shutdown handling.
    """
    while pending:
        done, _ = wait(pending, return_when=FIRST_COMPLETED)
        for future in done:
            on_done(pending.pop(future), future.result())


#: Per-worker-process caches for scenario-level fan-out.  Worker
#: processes persist across pool tasks, so every EDT, resolved backend
#: instance (with its replay-plan cache) and loaded scenario a worker
#: needs is built once and reused by all later (scenario, cell) tasks
#: that land on the same worker.
#: Scenarios (grid + recorded flight) and distance fields are the large
#: per-worker cache entries; both caches are bounded so campaigns over
#: hundreds of worlds don't grow worker memory without limit.  LRU-ish:
#: oldest insertion is evicted first, which matches the scenario-major
#: task order (a worker rarely revisits a scenario after its cells
#: finish).
_WORKER_SCENARIO_LIMIT = 16

_WORKER_FIELD_CACHE = DistanceFieldCache(limit=2 * _WORKER_SCENARIO_LIMIT)
_WORKER_BACKENDS: dict[str, FilterBackend] = {}
_WORKER_SCENARIOS: dict = {}


def _worker_backend(backend: str | FilterBackend) -> FilterBackend:
    """Resolve a backend name through the per-process instance cache.

    Resolving once per process (not once per task) is what lets the
    batched backend's per-sequence replay-plan cache serve every cell a
    worker executes, mirroring ``SweepEngine.__post_init__``.
    """
    if not isinstance(backend, str):
        return backend
    if backend not in _WORKER_BACKENDS:
        _WORKER_BACKENDS[backend] = get_backend(backend)
    return _WORKER_BACKENDS[backend]


def _execute_scenario_cell(
    grid: OccupancyGrid,
    sequences: list[RecordedSequence],
    seeds: tuple[int, ...],
    cell: SweepCellSpec,
    backend: str | FilterBackend,
) -> list[RunResult]:
    """One (scenario, cell) fan-out unit: resolve the field, run the cell.

    Unlike :func:`_execute_cell`, the distance field is *not* shipped
    with the task — it is resolved from the per-process
    :data:`_WORKER_FIELD_CACHE`, keyed by map content, so parallel
    scenario sweeps neither pickle EDTs per task nor rebuild them per
    cell.  This is the pool-worker path only; sequential (``jobs=1``)
    execution goes through the engine's own ``field_cache`` instead.
    """
    fld = _WORKER_FIELD_CACHE.get(grid, cell.config.r_max, cell.field_kind)
    return _execute_cell(grid, sequences, seeds, cell, fld, _worker_backend(backend))


def _execute_scenario_cell_by_id(
    scenario_id: str,
    seeds: tuple[int, ...],
    cell: SweepCellSpec,
    backend: str | FilterBackend,
) -> list[RunResult]:
    """Like :func:`_execute_scenario_cell`, but shipping only the id.

    The task carries a scenario *id* instead of pickled grid/sequence
    arrays; the worker loads the byte-stable ``.npz`` from the registry
    cache on first touch and keeps it in :data:`_WORKER_SCENARIOS`
    (bounded to :data:`_WORKER_SCENARIO_LIMIT` entries) for every later
    cell of the same scenario.  Callers must have generated the scenario
    (``cache=True``) before fan-out, so workers only ever read the cache
    and never race to generate.
    """
    scenario = _WORKER_SCENARIOS.get(scenario_id)
    if scenario is None:
        from ..scenarios.registry import build_scenario

        scenario = build_scenario(scenario_id, cache=True)
        while len(_WORKER_SCENARIOS) >= _WORKER_SCENARIO_LIMIT:
            _WORKER_SCENARIOS.pop(next(iter(_WORKER_SCENARIOS)))
        _WORKER_SCENARIOS[scenario_id] = scenario
    return _execute_scenario_cell(
        scenario.grid, [scenario.sequence], seeds, cell, backend
    )


def _warm_scenario_cache(scenario_id: str) -> str:
    """Pool task: generate one scenario into the byte-stable ``.npz`` cache.

    The campaign cold-start chains this ahead of the scenario's cell
    tasks (generation itself runs on the pool, in parallel across
    scenarios, instead of serially in the parent).  Exactly one warm
    task is submitted per scenario, so cache generation never races; the
    warmed world also lands in this worker's :data:`_WORKER_SCENARIOS`
    since the worker is likely to execute some of the scenario's cells.
    Returns the id so the completion handler knows what became ready.
    """
    from ..scenarios.registry import build_scenario

    scenario = build_scenario(scenario_id, cache=True)
    while len(_WORKER_SCENARIOS) >= _WORKER_SCENARIO_LIMIT:
        _WORKER_SCENARIOS.pop(next(iter(_WORKER_SCENARIOS)))
    _WORKER_SCENARIOS[scenario_id] = scenario
    return scenario_id


@dataclass
class SweepEngine:
    """Executes sweep grids cell-by-cell through a filter backend.

    ``backend`` names the :class:`FilterBackend` every cell is dispatched
    through (``"fast"`` by default — bitwise-equivalent to
    ``"reference"`` and several times faster on multi-run cells).
    ``jobs`` > 1 fans independent cells out across worker processes.
    The ``field_cache`` may be shared between engines to reuse EDTs
    across sweeps of the same map.
    """

    backend: str | FilterBackend = DEFAULT_BACKEND
    jobs: int = 1
    field_cache: DistanceFieldCache = field(default_factory=DistanceFieldCache)

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        # Resolve once and reuse the instance for in-process execution:
        # this is what lets the batched backend's replay-plan cache serve
        # every cell of a sweep (also fails fast on unknown names).
        self._executor = get_backend(self.backend)

    def run(
        self,
        grid: OccupancyGrid,
        sequences: list[RecordedSequence],
        variants: list[str],
        particle_counts: list[int],
        protocol: SweepProtocol | None = None,
        base_config: MclConfig | None = None,
        progress=None,
    ) -> SweepResult:
        """Execute the full evaluation protocol over the sweep grid.

        ``progress`` is an optional callable receiving a one-line status
        string per completed run.  With ``jobs > 1`` the cell completion
        order (and therefore message order) is nondeterministic, but the
        assembled :class:`SweepResult` is identical.
        """
        protocol = protocol or SweepProtocol.from_env()
        base_config = base_config or MclConfig()
        if not sequences:
            raise EvaluationError("sweep needs at least one sequence")
        used_sequences = sequences[: protocol.sequence_count]
        cells = _cell_specs(base_config, variants, particle_counts)

        # Resolve every cell's field up front through the keyed cache:
        # cells sharing (kind, r_max) share one EDT, and r_max-ablated
        # cells get their own truncation instead of the base config's.
        fields = {
            (cell.field_kind, cell.config.r_max): self.field_cache.get(
                grid, cell.config.r_max, cell.field_kind
            )
            for cell in cells
        }

        result = SweepResult()
        for cell in cells:  # pre-create cells in deterministic order
            result.cell(cell.variant, cell.particle_count)

        def collect(cell: SweepCellSpec, runs: list[RunResult]) -> None:
            target = result.cell(cell.variant, cell.particle_count)
            for run in runs:
                target.add(run)
                if progress is not None:
                    metrics = run.metrics
                    progress(
                        f"{cell.variant} N={cell.particle_count} "
                        f"{run.sequence_name} seed={run.seed}: "
                        f"success={metrics.success} ate={metrics.ate_mean_m:.3f}"
                    )

        if self.jobs == 1:
            for cell in cells:
                collect(
                    cell,
                    _execute_cell(
                        grid,
                        used_sequences,
                        protocol.seeds,
                        cell,
                        fields[(cell.field_kind, cell.config.r_max)],
                        self._executor,
                    ),
                )
            return result

        with ProcessPoolExecutor(max_workers=self.jobs) as pool:
            pending = {
                pool.submit(
                    _execute_cell,
                    grid,
                    used_sequences,
                    protocol.seeds,
                    cell,
                    fields[(cell.field_kind, cell.config.r_max)],
                    self.backend,
                ): cell
                for cell in cells
            }
            drain_futures(pending, collect)
        return result

    def run_scenarios(
        self,
        scenarios: list,
        variants: list[str],
        particle_counts: list[int],
        protocol: SweepProtocol | None = None,
        base_config: MclConfig | None = None,
        progress=None,
        cache: bool = True,
    ) -> dict[str, SweepResult]:
        """Sweep over generated scenarios as an additional cell axis.

        ``scenarios`` may mix :class:`~repro.scenarios.base.Scenario`
        instances, :class:`~repro.scenarios.base.ScenarioSpec` objects
        and spec strings (``family[:seed[:k=v+k=v]]``); specs are
        resolved through the scenario registry (``cache`` controls its
        ``.npz`` cache).  Each scenario contributes its own world and
        recorded flight, swept over the full (variant, N) grid with the
        protocol's seeds; the engine's keyed distance-field cache is
        shared across scenarios, so repeated sweeps of the same worlds
        never rebuild an EDT.  Returns one :class:`SweepResult` per
        distinct scenario, keyed by the canonical spec id, in input
        order; duplicate specs are swept once.

        With ``jobs > 1`` the fan-out unit is **scenario x cell**: every
        (scenario, variant, N) triple is an independent pool task, so a
        sweep spanning dozens of generated worlds saturates the pool
        even when each world contributes only a few cells.  Worker
        processes keep their own keyed distance-field cache across
        tasks.  Results are reassembled in deterministic order and are
        bitwise identical to the sequential sweep.

        Example::

            engine = SweepEngine(backend="batched", jobs=4)
            results = engine.run_scenarios(
                ["office:3", "maze:1:cells=7", "hall:7"],
                variants=["fp32", "fp16qm"],
                particle_counts=[64, 256],
            )
            ate = results["office:3"].ate_series("fp32", [64, 256])
        """
        from ..scenarios.base import Scenario
        from ..scenarios.registry import build_scenario

        if not scenarios:
            raise EvaluationError("scenario sweep needs at least one scenario")
        unique: dict[str, Scenario] = {}
        cached_ids: set[str] = set()  # resolvable from the .npz cache
        for item in scenarios:
            if isinstance(item, Scenario):
                scenario = item
            else:
                scenario = build_scenario(item, cache=cache)
                if cache:
                    cached_ids.add(scenario.spec.id)
            unique.setdefault(scenario.spec.id, scenario)

        if self.jobs == 1:
            return {
                scenario_id: self.run(
                    scenario.grid,
                    [scenario.sequence],
                    variants,
                    particle_counts,
                    protocol=protocol,
                    base_config=base_config,
                    progress=progress,
                )
                for scenario_id, scenario in unique.items()
            }

        protocol = protocol or SweepProtocol.from_env()
        base_config = base_config or MclConfig()
        cells = _cell_specs(base_config, variants, particle_counts)
        results: dict[str, SweepResult] = {}
        for scenario_id in unique:  # deterministic input-order layout
            results[scenario_id] = SweepResult()
            for cell in cells:
                results[scenario_id].cell(cell.variant, cell.particle_count)
        if protocol.sequence_count < 1:
            # Each scenario contributes one sequence; a protocol that
            # uses zero of them yields empty cells — same as the
            # sequential path, which slices sequences[:0] in run().
            return results

        def collect(
            scenario_id: str, cell: SweepCellSpec, runs: list[RunResult]
        ) -> None:
            target = results[scenario_id].cell(cell.variant, cell.particle_count)
            for run in runs:
                target.add(run)
                if progress is not None:
                    progress(
                        f"{scenario_id} {cell.variant} N={cell.particle_count} "
                        f"seed={run.seed}: success={run.metrics.success}"
                    )

        def submit(pool, scenario_id: str, cell: SweepCellSpec):
            # Registry-cached scenarios ship as ids (workers reload the
            # byte-stable .npz once per process); raw in-memory Scenario
            # instances and cache=False resolutions have no cache file
            # to read back, so they are pickled per task — the price of
            # asking for no cache writes.
            if scenario_id in cached_ids:
                return pool.submit(
                    _execute_scenario_cell_by_id,
                    scenario_id,
                    protocol.seeds,
                    cell,
                    self.backend,
                )
            scenario = unique[scenario_id]
            return pool.submit(
                _execute_scenario_cell,
                scenario.grid,
                [scenario.sequence],
                protocol.seeds,
                cell,
                self.backend,
            )

        with ProcessPoolExecutor(max_workers=self.jobs) as pool:
            pending = {
                submit(pool, scenario_id, cell): (scenario_id, cell)
                for scenario_id in unique
                for cell in cells
            }
            drain_futures(
                pending, lambda context, runs: collect(*context, runs)
            )
        return results
