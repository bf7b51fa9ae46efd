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
  :class:`~repro.engine.backend.FilterBackend` call, so the ``fast``
  backend can advance all R runs as ``(R, N)`` stacks;
* **keyed distance-field cache** — cells are grouped by
  (map, r_max, precision kind) and each distinct field is built once per
  engine (which keeps the 32 newest), shared across variants and
  particle counts; every kind of one (map, r_max) converts one EDT;
* **one cell loop** — cell sweeps, scenario sweeps and campaigns all
  hand :func:`fan_out` (world, seeds, cell) units, where a world is a
  registry scenario id or an in-memory ``(grid, sequences)`` pair.  A
  scenario id's cells are one task, which loads (or generates) the
  scenario once and builds each distinct field once; an in-memory
  world's cells are one task each.  ``jobs=1`` runs the tasks in this
  process, in order; ``jobs > 1`` spreads them over a process pool
  (results are reassembled in deterministic cell order), where the last
  ``scenarios % jobs`` scenarios split into chunks that all workers
  share.  Both run a task through one loop, :func:`_run_cells`.

Every backend is bitwise-equivalent, so cell results do not depend on
the backend or the job count — only wall-clock does.  That invariant is
what the campaign layer (:mod:`repro.eval.campaign`) builds on: a cell's
stored result is a pure function of its content key, regardless of how
(or how often) it was executed.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..common.errors import ConfigurationError, EvaluationError
from ..core.config import ConfigSpec, MclConfig
from ..dataset.recorder import RecordedSequence
from ..engine.backend import (
    DEFAULT_BACKEND,
    FilterBackend,
    RunSpec,
    available_backends,
    get_backend,
)
from ..maps.distance_field import DistanceField, FieldKind
from ..maps.occupancy import OccupancyGrid
from .aggregate import SweepProtocol, SweepResult
from .runner import RunResult, run_localization_batch


#: Fields a :class:`DistanceFieldCache` keeps, oldest evicted first: an
#: engine's, a pool worker's and a session manager's cache all outlive
#: one world, and a sweep over hundreds of worlds stays bounded.  It
#: bounds the metric EDTs the cache keeps as well.
_FIELD_CACHE_LIMIT = 32


def _make_room(store: dict) -> None:
    """Evict the oldest entries of ``store`` until one more fits the limit."""
    while len(store) >= _FIELD_CACHE_LIMIT:
        store.pop(next(iter(store)))


class DistanceFieldCache:
    """Distance fields keyed by (map content, r_max, storage kind).

    Each distinct (map, truncation, kind) triple is computed once and
    shared by reference across every cell that needs it.  Keys
    fingerprint the grid *content*, so two identical maps in different
    objects still share one field.  Every kind is a conversion of one
    float64 metric EDT, which the cache keeps per (map, r_max)
    (``DistanceField.build``'s ``metrics``), so the kinds of one
    (map, r_max) cost one transform.  At most :data:`_FIELD_CACHE_LIMIT`
    fields and as many metric EDTs are kept, oldest insertion evicted
    first.
    """

    def __init__(self) -> None:
        self._fields: dict[tuple, DistanceField] = {}
        self._metrics: dict[tuple, dict[float, np.ndarray]] = {}
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
            _make_room(self._fields)
            if key[:2] not in self._metrics:
                _make_room(self._metrics)
            metrics = self._metrics.setdefault(key[:2], {})
            with obs.span("sweep.edt_build"):
                self._fields[key] = DistanceField.build(grid, r_max, kind, metrics)
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


def _cell_specs(variants: list[str], particle_counts: list[int]) -> list[SweepCellSpec]:
    """The sweep grid in deterministic (config-spec-major) cell order.

    ``variants`` entries are config specs (``variant[+key=value...]``)
    parsed through the one grammar in :class:`repro.core.config.ConfigSpec`
    and materialized over the paper defaults; cells are keyed by the
    canonical spec id, so any accepted spelling of a configuration lands
    in the same cell.
    """
    cells = []
    for variant in variants:
        spec = ConfigSpec.parse(variant)
        for count in particle_counts:
            config = spec.config(particle_count=count)
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

    The one cell executor: :func:`_run_cells` calls it at every job
    count, and :func:`repro.eval.bench.compare_backends` directly.
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


#: A fan-out world: a registry scenario id, which a task loads from its
#: byte-stable ``.npz`` cache, or an in-memory ``(grid, sequences)`` pair,
#: which a pool pickles into every task that runs on it.
World = str | tuple[OccupancyGrid, list[RecordedSequence]]

#: One task's cells: ``(index into the units, seeds, cell)`` in order.
TaskCells = list[tuple[int, tuple[int, ...], SweepCellSpec]]

#: Per-worker-process caches: a worker runs several tasks of one pool, so
#: it resolves each backend once (keeping its replay-plan cache) and
#: shares fields between an in-memory world's per-cell tasks or the
#: chunks of one scenario.
_WORKER_FIELD_CACHE = DistanceFieldCache()
_WORKER_BACKENDS: dict[str, FilterBackend] = {}


def _worker_backend(name: str) -> FilterBackend:
    """Resolve a backend name through the per-process instance cache.

    Resolving once per process (not once per task) is what lets the
    stacked backend's per-sequence replay-plan cache serve every cell a
    worker executes, mirroring ``SweepEngine.__post_init__``.
    """
    if name not in _WORKER_BACKENDS:
        _WORKER_BACKENDS[name] = get_backend(name)
    return _WORKER_BACKENDS[name]


def _run_cells(
    world: World,
    cells: TaskCells,
    executor: FilterBackend,
    field_cache: DistanceFieldCache,
) -> list[tuple[int, list[RunResult]]]:
    """Run one task's ``cells`` in order on one world.

    The one cell loop: :func:`fan_out` runs it in process at ``jobs=1``,
    pool workers through :func:`_run_task`.  A scenario id is loaded
    (generated on a cold registry) once per task; an in-memory world is
    used as it comes.  Returns ``(index, runs)`` per cell.
    """
    if isinstance(world, str):
        from ..scenarios.registry import build_scenario

        scenario = build_scenario(world, cache=True)
        world = (scenario.grid, [scenario.sequence])
    grid, sequences = world
    results = []
    for index, seeds, cell in cells:
        fld = field_cache.get(grid, cell.config.r_max, cell.field_kind)
        runs = _execute_cell(grid, sequences, seeds, cell, fld, executor)
        results.append((index, runs))
    return results


def _run_task(
    world: World, cells: TaskCells, backend: str
) -> list[tuple[int, list[RunResult]]]:
    """The pool's one worker task: :func:`_run_cells` on the worker's caches.

    Fields come from :data:`_WORKER_FIELD_CACHE` and the backend from
    :func:`_worker_backend`; an in-memory world arrives pickled.
    """
    return _run_cells(world, cells, _worker_backend(backend), _WORKER_FIELD_CACHE)


def _pool_tasks(
    units: list[tuple[World, tuple[int, ...], SweepCellSpec]], jobs: int
) -> list[tuple[World, TaskCells]]:
    """Group units into tasks, in the order of their first unit.

    One task per scenario id, except the last ``ids % jobs`` ids (the
    tail that whole tasks would leave some workers without): each of
    those splits into ``jobs // gcd(tail, jobs)`` contiguous chunks of
    its cells (at most one per cell), so the tail's tasks are a multiple
    of ``jobs``.  One task per unit on an in-memory world.
    """
    groups: dict[str | int, tuple[World, TaskCells]] = {}
    for index, (world, seeds, cell) in enumerate(units):
        key = world if isinstance(world, str) else index
        groups.setdefault(key, (world, []))[1].append((index, seeds, cell))
    ids = [key for key in groups if isinstance(key, str)]
    tail = ids[len(ids) - len(ids) % jobs :]
    chunks = jobs // math.gcd(len(tail), jobs)
    tasks = []
    for key, (world, cells) in groups.items():
        parts = min(chunks, len(cells)) if key in tail else 1
        bounds = [len(cells) * part // parts for part in range(parts + 1)]
        tasks += [(world, cells[a:b]) for a, b in zip(bounds, bounds[1:])]
    return tasks


def fan_out(
    units: list[tuple[World, tuple[int, ...], SweepCellSpec]],
    backend: str | FilterBackend,
    jobs: int,
    field_cache: DistanceFieldCache | None = None,
) -> Iterator[tuple[int, list[RunResult]]]:
    """Run (world, seeds, cell) units as tasks: in process, or on ``jobs`` workers.

    Yields ``(index into units, runs)`` for every unit, a task's cells
    together when it completes.  A registry scenario id's cells are one
    task (:func:`_pool_tasks`), which loads or generates the scenario
    once and builds each distinct field once; each unit on an in-memory
    world is a task of its own.  No units build no backend.

    ``jobs=1`` runs the tasks in order in this process, through the loop
    a pool worker runs (:func:`_run_cells`), with ``backend`` resolved
    once and fields from ``field_cache``, or else from a fresh cache of
    its own.  ``jobs > 1`` runs them on a process pool,
    in completion order; only that counts in ``sweep.tasks`` and the
    ``sweep.fan_out`` span.  The last ``ids % jobs`` ids split into
    contiguous chunks that every worker shares, rather than leave some
    idle for a scenario's time; two workers may then generate one cold
    scenario at once, which the registry's tmp+rename publish makes
    safe.  When a task raises, or the consumer stops early and closes
    the generator (as ``run_campaign`` does when a put raises), the pool
    cancels every queued task and waits only for those already handed
    to its workers.

    Tasks carry the backend's name, never an instance: the ``fast``
    backend holds a cffi library, which cannot be pickled.  Workers
    resolve the name once per process.  When the pool forks (the start
    method of this process's default context), this process resolves
    the name first, so its workers inherit the C kernels loaded.  Under
    spawn or forkserver no worker would inherit them, so each loads them
    once itself and this process loads nothing.  An instance whose
    ``name`` is not a registered backend raises
    :class:`ConfigurationError` before any task is submitted.
    """
    if not units:
        return
    tasks = _pool_tasks(units, jobs)
    if jobs == 1:
        executor = get_backend(backend)
        if field_cache is None:
            field_cache = DistanceFieldCache()
        for task in tasks:
            yield from _run_cells(*task, executor, field_cache)
        return
    name = backend if isinstance(backend, str) else backend.name
    if name not in available_backends():
        raise ConfigurationError(
            f"backend {name!r} cannot cross the process pool: workers "
            f"resolve backends by name, one of {', '.join(available_backends())}"
        )
    context = multiprocessing.get_context()
    if context.get_start_method() == "fork":
        get_backend(name)  # loaded once here, inherited by every worker
    with obs.span("sweep.fan_out"), ProcessPoolExecutor(
        max_workers=jobs, mp_context=context
    ) as pool:
        try:
            futures = [pool.submit(_run_task, *task, name) for task in tasks]
            obs.counter("sweep.tasks").inc(len(futures))
            for future in as_completed(futures):
                yield from future.result()
        finally:  # a consumer that stops early waits for no queued task
            pool.shutdown(cancel_futures=True)


@dataclass
class SweepEngine:
    """Executes sweep grids cell-by-cell through a filter backend.

    ``backend`` names the :class:`FilterBackend` every cell is dispatched
    through (``"fast"`` by default — bitwise-equivalent to
    ``"reference"`` and several times faster on multi-run cells).
    Every job count runs the cells through :func:`fan_out`, ``jobs`` > 1
    across worker processes.  The ``field_cache`` serves in-process
    (``jobs=1``) execution and may be shared between engines to reuse
    EDTs across sweeps of the same map; pool workers keep their own.
    Like every :class:`DistanceFieldCache` it keeps at most
    :data:`_FIELD_CACHE_LIMIT` fields.  Every spec is materialized over
    the paper defaults, so a cell's spec id names its whole config.
    """

    backend: str | FilterBackend = DEFAULT_BACKEND
    jobs: int = 1
    field_cache: DistanceFieldCache = field(default_factory=DistanceFieldCache)

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        # Resolve once and reuse the instance for in-process execution:
        # this is what lets the stacked backend's replay-plan cache serve
        # every cell of a sweep (also fails fast on unknown names).
        self._executor = get_backend(self.backend)

    def run(
        self,
        grid: OccupancyGrid,
        sequences: list[RecordedSequence],
        variants: list[str],
        particle_counts: list[int],
        protocol: SweepProtocol | None = None,
        progress=None,
    ) -> SweepResult:
        """Execute the full evaluation protocol over the sweep grid.

        ``progress`` is an optional callable receiving a one-line status
        string per completed run.  With ``jobs > 1`` the cell completion
        order (and therefore message order) is nondeterministic, but the
        assembled :class:`SweepResult` is identical.
        """
        protocol = protocol or SweepProtocol.from_env()
        if not sequences:
            raise EvaluationError("sweep needs at least one sequence")
        used_sequences = sequences[: protocol.sequence_count]
        cells = _cell_specs(variants, particle_counts)

        result = SweepResult()
        for cell in cells:  # pre-create cells in deterministic order
            result.cell(cell.variant, cell.particle_count)
        units = [((grid, used_sequences), protocol.seeds, cell) for cell in cells]
        for index, runs in fan_out(units, self._executor, self.jobs, self.field_cache):
            cell = cells[index]
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
        return result

    def run_scenarios(
        self,
        scenarios: list,
        variants: list[str],
        particle_counts: list[int],
        protocol: SweepProtocol | None = None,
        progress=None,
    ) -> dict[str, SweepResult]:
        """Sweep over generated scenarios as an additional cell axis.

        ``scenarios`` may mix :class:`~repro.scenarios.base.Scenario`
        instances, :class:`~repro.scenarios.base.ScenarioSpec` objects
        and spec strings (``family[:seed[:k=v+k=v]]``); specs are
        resolved through the scenario registry and its ``.npz`` cache.
        Each scenario contributes its own world and recorded flight,
        swept over the full (variant, N) grid with the protocol's seeds.
        Returns one :class:`SweepResult` per distinct scenario, keyed by
        the canonical spec id, in input order; duplicate specs are swept
        once.

        Every (scenario, variant, N) triple is a :func:`fan_out` unit.
        Specs go as scenario ids, and each id's cells are one task that
        loads or generates the scenario once and builds each field once:
        ``jobs=1`` holds one scenario at a time, and on a pool the
        workers, not the parent, generate them.  An in-memory
        :class:`~repro.scenarios.base.Scenario` has no ``.npz`` to read
        back, so its world is one task per cell.  At ``jobs=1`` the
        engine's field cache serves every scenario.  Results are bitwise
        identical at every job count.

        Example::

            engine = SweepEngine(backend="fast", jobs=4)
            results = engine.run_scenarios(
                ["office:3", "maze:1:cells=7", "hall:7"],
                variants=["fp32", "fp16qm"],
                particle_counts=[64, 256],
            )
            ate = results["office:3"].ate_series("fp32", [64, 256])
        """
        from ..scenarios.base import Scenario
        from ..scenarios.registry import canonical_scenario_id

        if not scenarios:
            raise EvaluationError("scenario sweep needs at least one scenario")
        unique: dict[str, World] = {}  # distinct ids, in input order
        for item in scenarios:
            if isinstance(item, Scenario):
                unique.setdefault(item.spec.id, (item.grid, [item.sequence]))
            else:  # a task loads or generates it
                scenario_id = canonical_scenario_id(item)
                unique.setdefault(scenario_id, scenario_id)
        protocol = protocol or SweepProtocol.from_env()
        cells = _cell_specs(variants, particle_counts)
        results: dict[str, SweepResult] = {}
        for scenario_id in unique:  # deterministic input-order layout
            results[scenario_id] = SweepResult()
            for cell in cells:
                results[scenario_id].cell(cell.variant, cell.particle_count)
        if protocol.sequence_count < 1:
            # Each scenario contributes one sequence; a protocol that
            # uses zero of them yields empty cells, as run() does.
            return results

        targets = [(scenario_id, cell) for scenario_id in unique for cell in cells]
        units = [(unique[key], protocol.seeds, cell) for key, cell in targets]
        for index, runs in fan_out(units, self._executor, self.jobs, self.field_cache):
            scenario_id, cell = targets[index]
            target = results[scenario_id].cell(cell.variant, cell.particle_count)
            for run in runs:
                target.add(run)
                if progress is not None:
                    progress(
                        f"{scenario_id} {cell.variant} N={cell.particle_count} "
                        f"seed={run.seed}: success={run.metrics.success}"
                    )
        return results
