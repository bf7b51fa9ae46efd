"""The ``FilterBackend`` seam: pluggable executors for localization runs.

A backend executes a *batch* of independent localization runs — each one
a (sequence, seed) pair replayed through a fresh filter — against one
shared (grid, config, distance field) context, and returns one
:class:`RunTrace` per run.  Everything above this seam (metrics, sweep
orchestration, campaigns, CLI, benchmarks) is backend-agnostic;
everything below it is free to reorganize the arithmetic, subject to one
invariant:

**The bitwise-equivalence contract.**  Every backend must produce
*bit-for-bit identical* per-run traces and metrics for matching
(sequence, seed) inputs — asserted with exact array equality in
``tests/engine/test_backends.py``, never with tolerances (particle
filters amplify 1-ulp weight differences into divergent resampling
decisions, so "close" is untestable).  Conforming implementations
(a) run every order-sensitive reduction along the last axis through the
deterministic tree of :mod:`repro.engine.reductions` (``det_sum`` et
al. — an explicit, documented order that compiled backends replicate
with a plain loop; BLAS matmul/einsum reductions are not order-safe),
(b) consume each run's ``make_rng(seed, "mcl")`` stream in the
reference draw order, and (c) reassociate only IEEE-commutative
operations.  See docs/architecture.md for the full rules.  The contract
is what makes backend choice and process fan-out pure throughput
decisions, and what lets the campaign result store be content-addressed.

Two backends ship today:

* ``reference`` — the original scalar-per-run loop
  (:class:`~repro.engine.reference.ReferenceBackend`), one
  :class:`~repro.core.mcl.MonteCarloLocalization` per run: the oracle;
* ``fast`` — the default: :class:`~repro.engine.batched.BatchedBackend`,
  which stacks all R runs' particle populations into ``(R, N)`` arrays
  and advances them through the compiled stages of
  :class:`~repro.engine.fast_c.CProvider`.  Without cffi, numpy's
  random header and archive, or a C compiler and a cached library, it
  resolves to ``reference`` instead: the same bits, slower.  ``batched`` is an older name for ``fast``.

Further backends plug in by registering a new name — and must either
keep the contract or register under a name that signals the difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from .. import obs
from ..common.errors import ConfigurationError

if TYPE_CHECKING:  # imports kept lazy to avoid core <-> engine cycles
    from ..core.config import MclConfig
    from ..core.snapshot import FilterStateSnapshot
    from ..dataset.recorder import RecordedSequence
    from ..maps.distance_field import DistanceField
    from ..maps.occupancy import OccupancyGrid
    from .replay import ReplayStep


@dataclass(frozen=True)
class RunSpec:
    """One localization run: a recorded sequence replayed under a seed.

    Every run follows the paper's global-localization protocol: the
    filter starts uniform over free space.
    """

    sequence: "RecordedSequence"
    seed: int


@dataclass
class RunTrace:
    """Raw per-frame output of one run, before metric reduction.

    ``estimate_trace`` is the ``(T, 3)`` estimated pose per frame
    instant; the error arrays are aligned with ``timestamps``.
    """

    timestamps: np.ndarray
    position_errors: np.ndarray
    yaw_errors: np.ndarray
    estimate_trace: np.ndarray
    update_count: int


@dataclass
class StepWork:
    """One packed observation update: rows that share one replay step.

    The serve scheduler (and the stacked backend's own run loop) hand a
    :class:`SessionStack` a list of these per step call: every listed row
    fires its movement gate now, consuming the same accumulated motion
    and — when ``step.beams`` is set — the same preprocessed observation
    scored against ``field``.  Rows of different work items in one call
    may belong to different sequences, worlds and distance fields; they
    only share the stack's ``(config, N)``.
    """

    rows: list[int]
    step: "ReplayStep"
    field: "DistanceField"


@runtime_checkable
class SessionStack(Protocol):
    """The step-level entry point of a backend: rows advanced on demand.

    Where :meth:`FilterBackend.execute` runs whole (sequence, seed)
    replays, a session stack exposes the same filter math one
    observation instant at a time, over an open-ended set of *rows* —
    one row per live filter population.  Rows are created
    (:meth:`init_row`), stepped in packed groups (:meth:`step`),
    asked for their current estimate (:meth:`estimate_array`, the one
    estimate query), snapshotted and restored (:meth:`export_row` /
    :meth:`import_row`) independently; all rows share one
    :class:`MclConfig` (and therefore one particle count and storage
    precision).  A stack keeps no per-frame record: a caller that wants
    a trace keeps the estimates it asked for and derives the rest
    through :meth:`~repro.engine.replay.ReplayPlan.trace`.

    The bitwise-equivalence contract extends to stacks: every row's
    state after any step schedule must be bit-for-bit identical to the
    same (sequence, seed) replay advanced alone through the reference
    loop — regardless of which rows were packed together.  Conforming
    implementations keep all cross-row operations per-row deterministic
    (last-axis reductions, row-wise RNG streams), so packing is a pure
    throughput decision.
    """

    config: "MclConfig"

    def ensure_capacity(self, rows: int) -> None:
        """Grow the stack to hold at least ``rows`` rows."""
        ...

    def init_row(self, row: int, grid: "OccupancyGrid", spec: RunSpec) -> None:
        """(Re)initialize one row exactly like a fresh reference filter."""
        ...

    def step(self, work: Sequence[StepWork]) -> None:
        """Fire one gated update for every row listed across ``work``
        (each row listed once)."""
        ...

    def estimate_array(self, row: int) -> np.ndarray:
        """The row's current weighted-mean pose estimate, ``[x, y, theta]``,
        as a ``(3,)`` float64 array of the caller's own."""
        ...

    def updates(self, row: int) -> int:
        """How many gated updates the row has fired."""
        ...

    def export_row(self, row: int) -> "FilterStateSnapshot":
        """Capture the row's complete dynamic state."""
        ...

    def import_row(self, row: int, snapshot: "FilterStateSnapshot") -> None:
        """Resume the row exactly from an exported snapshot."""
        ...


@runtime_checkable
class FilterBackend(Protocol):
    """Executes batches of localization runs behind a common interface."""

    name: str

    def execute(
        self,
        grid: "OccupancyGrid",
        specs: Sequence[RunSpec],
        config: "MclConfig",
        field: "DistanceField | None" = None,
    ) -> list[RunTrace]:
        """Run every spec and return traces in spec order."""
        ...

    def open_stack(self, config: "MclConfig", rows: int = 0) -> SessionStack:
        """Open a step-level :class:`SessionStack` under ``config``."""
        ...


# ----------------------------------------------------------------------
# Telemetry names
# ----------------------------------------------------------------------
# The engine layer's span and counter names live here, on the seam, so
# every stack reports under one catalog (docs/observability.md).
# Instrumentation goes through :mod:`repro.obs` accessors only — when
# telemetry is disabled they return shared no-op singletons, and nothing
# here may ever touch RNG or numeric state (the bitwise contract above
# extends to telemetry: traces with spans active are bit-identical to
# spans off).
# The stage spans are the four stages of the paper's Table I, named by
# the ``repro.soc.perf.MclStep`` values.
SPAN_MOTION = "engine.step.motion"
SPAN_OBSERVATION = "engine.step.observation"
SPAN_RESAMPLING = "engine.step.resampling"
SPAN_POSE_COMPUTATION = "engine.step.pose_computation"
COUNTER_STEPS = "engine.steps"
COUNTER_GATE_TRIGGERS = "engine.gate_triggers"
COUNTER_RESAMPLES = "engine.resamples"
COUNTER_RESAMPLE_SKIPS = "engine.resample_skips"
COUNTER_PLAN_HITS = "engine.replay_plan.hits"
COUNTER_PLAN_MISSES = "engine.replay_plan.misses"
COUNTER_PROVIDER_C = "engine.provider.c"
EVENT_PROVIDER_FALLBACK = "engine.provider_fallback"

#: The backend every entry point runs unless told otherwise.
DEFAULT_BACKEND = "fast"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_FACTORIES: dict[str, Callable[[], FilterBackend]] = {}


def register_backend(name: str, factory: Callable[[], FilterBackend]) -> None:
    """Register a backend factory under a CLI-selectable name."""
    _FACTORIES[name] = factory


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`get_backend` (and the ``--backend`` flag)."""
    _ensure_builtin_backends()
    return tuple(sorted(_FACTORIES))


def get_backend(backend: "str | FilterBackend") -> FilterBackend:
    """Resolve a backend name (or pass an instance through)."""
    if not isinstance(backend, str):
        return backend
    _ensure_builtin_backends()
    if backend not in _FACTORIES:
        valid = ", ".join(sorted(_FACTORIES))
        raise ConfigurationError(
            f"unknown filter backend {backend!r}; expected one of: {valid}"
        )
    return _FACTORIES[backend]()


def _ensure_builtin_backends() -> None:
    """Register the built-in backends on first use (lazily: the concrete
    implementations import ``core`` modules, which themselves import the
    engine kernels)."""
    if "reference" in _FACTORIES and "batched" in _FACTORIES and "fast" in _FACTORIES:
        return
    from .reference import ReferenceBackend

    _FACTORIES.setdefault("reference", ReferenceBackend)
    _FACTORIES.setdefault("fast", _fast_backend)
    # The stacked backend's older name, kept for callers that still pass it.
    _FACTORIES.setdefault("batched", _fast_backend)


def _fast_backend() -> FilterBackend:
    """The stacked backend on the compiled C provider.

    ``fast`` always registers, so listings and CLI choices do not depend
    on the host.  Building it loads the C kernels, compiling them once
    per cache.  The provider is resolved here, when the backend is
    built, and not at the first step: a compile spawned from an
    already-grown process would be charged that process's peak memory.
    When cffi, numpy's random header or archive, or the compiler is
    missing it returns the ``reference`` backend (the same bits) and
    records the fallback, naming what is missing; any other build
    failure raises :class:`ConfigurationError`.
    """
    from .batched import BatchedBackend
    from .fast_c import CProvider, MissingDependency
    from .reference import ReferenceBackend

    try:
        provider = CProvider()
    except MissingDependency as exc:
        obs.event(EVENT_PROVIDER_FALLBACK, missing=exc.name, reason=str(exc))
        return ReferenceBackend()
    except Exception as exc:  # noqa: BLE001 - reported as a configuration error
        raise ConfigurationError(
            f"the fast backend's C kernels failed to build: {exc}"
        ) from exc
    return BatchedBackend(provider)
