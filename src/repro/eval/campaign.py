"""Resumable, scenario-parallel sweep campaigns over the result store.

A *campaign* is a declarative grid — scenarios x config specs x particle
counts, evaluated under a fixed seed protocol — executed as independent
**cells** and streamed into an append-only
:class:`~repro.eval.store.CampaignStore` as each cell finishes.  This is
the layer that turns the in-memory, all-or-nothing
:class:`~repro.eval.sweep_engine.SweepEngine` sweep into something that
survives at paper-study scale:

* **declarative expansion** — :class:`CampaignSpec` names the axes; the
  cell list (and each cell's stable content key) is derived from it, so
  two processes given the same spec always agree on the work queue.  The
  variant axis speaks the config-spec grammar
  (:class:`repro.core.config.ConfigSpec`): ablated configurations fold
  their fingerprint into the content key, while pure paper variants at
  default parameters keep the legacy key — old stores resume byte-exactly;
* **scenario-parallel execution** — cells run through the sweep
  engine's one cell loop (:func:`~repro.eval.sweep_engine.fan_out`),
  in process or over a process pool: a scenario's cells are one task
  that loads or generates the scenario once and builds each field once
  (on a pool, the last ``scenarios % jobs`` split into chunks for every
  worker);
* **resumability** — a killed campaign restarts with ``resume=True`` and
  re-executes exactly the cells that are missing or torn; the
  final store is **byte-identical** to an uninterrupted run;
* **queryability** — :func:`campaign_status`, :func:`aggregate_report`
  and :func:`pivot_report` answer progress and accuracy questions from
  the store alone, with no recomputation.  They walk the spec's grid
  once (:meth:`CampaignSpec.keyed_cells`) and take each stored cell's
  identity from the key it is stored under, never from its payload: a
  key outside the grid is a stray, whatever its payload claims.

Determinism contract: a cell's stored bytes are a pure function of its
content key.  The filter backends are bitwise-equivalent, run order
inside a cell is fixed (sequence-major, then seed), and serialization is
canonical JSON — so ``jobs=1`` vs ``jobs=N``, fresh vs resumed, and
``reference`` vs ``fast`` all write identical stores (asserted in
``tests/eval/test_campaign.py``).
"""

from __future__ import annotations

import hashlib
from contextlib import closing
from dataclasses import dataclass
from functools import cached_property, lru_cache
from json.encoder import encode_basestring_ascii as _escape
from typing import Iterator

from .. import obs
from ..common.atomics import atomic_create
from ..common.errors import ConfigurationError, EvaluationError
from ..core.config import (
    CONFIG_OVERRIDE_ALIASES,
    CONFIG_OVERRIDE_FIELDS,
    TUPLE_OVERRIDE_FIELDS,
    ConfigSpec,
    MclConfig,
    format_override_value,
)
from ..scenarios.base import ScenarioSpec
from ..scenarios.registry import canonical_scenario_id
from .runner import RunResult
from ..engine.backend import DEFAULT_BACKEND
from .store import CampaignStore, canonical_json_bytes, leading_members
from .sweep_engine import SweepCellSpec, fan_out

# Nothing here calls these two since every job count runs through
# ``fan_out``, but perfbench/layers.py wraps both by this module's path.
from ..scenarios.registry import build_scenario  # noqa: F401
from .sweep_engine import _execute_cell  # noqa: F401


@lru_cache(maxsize=4096)
def _parse_spec(variant: str) -> ConfigSpec:
    """Memoized config-spec parse.

    Parsing (which eagerly materializes and validates a config) is pure,
    and a campaign repeats each variant in many cells, so one cache
    entry per distinct spec turns every later parse into a dict hit.
    Key derivation memoizes one step further, in
    :func:`_variant_key_parts`.
    """
    return ConfigSpec.parse(variant)


@lru_cache(maxsize=4096)
def _variant_key_parts(variant: str) -> tuple[str, str, str | None]:
    """``(canonical spec id, filename label, fingerprint or None)``.

    The variant's share of :attr:`CampaignCell.key`.  The fingerprint
    materializes and hashes a config, and a grid repeats each spec in
    every (scenario, N) cell, so it is computed once per distinct
    variant string per process; pure paper variants carry none.
    """
    spec = _parse_spec(variant)
    if spec.is_default:
        return spec.id, spec.variant, None
    fingerprint = spec.fingerprint()
    return spec.id, f"{spec.variant}-{fingerprint}", fingerprint


@lru_cache(maxsize=4096)
def _identity_template(
    variant: str, particle_count: int, seeds: tuple[int, ...]
) -> tuple[str, bytes, bytes]:
    """``(infix, head, tail)``: every part of a cell key but the scenario's.

    A cell's identity dict is encoded by :func:`canonical_json_bytes`
    with an empty scenario, and the bytes are split around that empty
    string, so ``head + escaped scenario id + tail`` are the identity's
    canonical bytes for any scenario (the encoder writes a string
    through the same ``json.encoder`` escaper).  ``infix`` is the
    filename's ``-<label>-n<N>-``.  A grid repeats each (variant, N) in
    every scenario, so this runs once per distinct value per process.
    """
    spec_id, label, fingerprint = _variant_key_parts(variant)
    identity = {
        "scenario": "",
        "variant": spec_id,
        "particle_count": particle_count,
        "seeds": list(seeds),
    }
    if fingerprint is not None:
        identity["config_fingerprint"] = fingerprint
    encoded = canonical_json_bytes(identity)
    slot = encoded.index(b'"scenario": ""') + len(b'"scenario": ')
    return f"-{label}-n{particle_count}-", encoded[:slot], encoded[slot + 2 :]


@lru_cache(maxsize=4096)
def _scenario_stem(scenario: str) -> str:
    """The scenario's share of :attr:`CampaignCell.key` (its cache stem)."""
    return ScenarioSpec.parse(scenario).cache_stem


def _content_key(
    stem: str, escaped: bytes, template: tuple[str, bytes, bytes]
) -> str:
    """A cell key from its scenario's stem and escaped id and its template."""
    infix, head, tail = template
    return stem + infix + hashlib.sha256(head + escaped + tail).hexdigest()[:12]


@dataclass(frozen=True)
class CampaignCell:
    """One unit of campaign work: (scenario, config, N) under the seeds.

    ``variant`` is a canonical config-spec id (bare paper variant or
    ablated spec, see :class:`repro.core.config.ConfigSpec`).  The
    :attr:`key` is the cell's *content key* — a stable digest of
    everything that determines the cell's numbers.  Execution details
    (backend, job count, host) are deliberately excluded: they cannot
    change results under the bitwise-equivalence contract, so they must
    not change the key either.
    """

    scenario: str
    variant: str
    particle_count: int
    seeds: tuple[int, ...]

    @cached_property
    def key(self) -> str:
        """Content key; folds the config fingerprint in for ablations.

        Pure paper variants at default parameters keep the exact key
        (identity dict *and* filename) the pre-config-axis store used,
        so existing campaign stores resume with zero recomputation;
        ablated configs add the config fingerprint to both.  The digest
        hashes the identity's canonical bytes: the (variant, N, seeds)
        template (:func:`_identity_template`) with the escaped scenario
        id in its slot, the formula :meth:`CampaignSpec.keyed_cells`
        walks a whole grid with.  Cached per cell instance too (the
        digest is pure).
        """
        return _content_key(
            _scenario_stem(self.scenario),
            _escape(self.scenario).encode(),
            _identity_template(self.variant, self.particle_count, self.seeds),
        )

    def sweep_cell(self, base_config: MclConfig) -> SweepCellSpec:
        spec = _parse_spec(self.variant)
        config = spec.config(base=base_config, particle_count=self.particle_count)
        return SweepCellSpec(spec.id, self.particle_count, config)


@dataclass(frozen=True)
class CampaignSpec:
    """The declarative description of a campaign (also its manifest).

    ``scenarios`` are canonical spec ids (any accepted spelling is
    normalized on construction); ``seeds`` is the filter-seed protocol
    every cell repeats.  The spec deliberately contains *no* execution
    options — backend and job count are chosen per invocation and leave
    no trace in the results.
    """

    name: str
    scenarios: tuple[str, ...]
    variants: tuple[str, ...]
    particle_counts: tuple[int, ...]
    seeds: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("campaign needs a name")
        if not self.scenarios:
            raise ConfigurationError("campaign needs at least one scenario")
        if not self.variants:
            raise ConfigurationError("campaign needs at least one variant")
        if not self.particle_counts or any(
            count < 1 for count in self.particle_counts
        ):
            raise ConfigurationError("particle counts must be >= 1")
        if not self.seeds:
            raise ConfigurationError("campaign needs at least one seed")
        # Normalize and dedupe every axis (input order preserved), so
        # repeated values can never expand into duplicate cells sharing
        # one content key.  Variants route through the shared config-spec
        # parser — the one place that validates paper variants, ablation
        # keys and values alike — and canonicalize to spec ids, so two
        # spellings of one configuration can never become two cells.
        canonical = dict.fromkeys(
            canonical_scenario_id(scenario) for scenario in self.scenarios
        )
        object.__setattr__(self, "scenarios", tuple(canonical))
        object.__setattr__(
            self,
            "variants",
            tuple(
                dict.fromkeys(
                    ConfigSpec.parse(variant).id for variant in self.variants
                )
            ),
        )
        object.__setattr__(
            self,
            "particle_counts",
            tuple(dict.fromkeys(int(c) for c in self.particle_counts)),
        )
        object.__setattr__(
            self, "seeds", tuple(dict.fromkeys(int(s) for s in self.seeds))
        )

    def cells(self) -> list[CampaignCell]:
        """The work queue in deterministic scenario-major order."""
        return [
            CampaignCell(scenario, variant, count, self.seeds)
            for scenario in self.scenarios
            for variant in self.variants
            for count in self.particle_counts
        ]

    def keyed_cells(self) -> dict[str, tuple[str, str, int]]:
        """``{key: (scenario, variant, N)}`` for every cell, in :meth:`cells` order.

        The one grid walk that resume, shards, status and both reports
        go through.  Each key equals its :class:`CampaignCell`'s
        :attr:`~CampaignCell.key`, by the same formula, but the
        scenario's stem and escaped id are computed once per scenario
        and each (variant, N) template is looked up once per walk, so a
        cell costs one digest.  Every call derives every key again.
        """
        templates = [
            (variant, count, _identity_template(variant, count, self.seeds))
            for variant in self.variants
            for count in self.particle_counts
        ]
        keyed: dict[str, tuple[str, str, int]] = {}
        for scenario in self.scenarios:
            stem = _scenario_stem(scenario)
            escaped = _escape(scenario).encode()
            for variant, count, template in templates:
                key = _content_key(stem, escaped, template)
                keyed[key] = (scenario, variant, count)
        return keyed

    def to_manifest(self) -> dict:
        return {
            "name": self.name,
            "scenarios": list(self.scenarios),
            "variants": list(self.variants),
            "particle_counts": list(self.particle_counts),
            "seeds": list(self.seeds),
        }

    @staticmethod
    def from_manifest(manifest: dict) -> "CampaignSpec":
        return CampaignSpec(
            name=manifest["name"],
            scenarios=tuple(manifest["scenarios"]),
            variants=tuple(manifest["variants"]),
            particle_counts=tuple(manifest["particle_counts"]),
            seeds=tuple(manifest["seeds"]),
        )


def _run_payload(run: RunResult) -> dict:
    metrics = run.metrics
    return {
        "sequence": run.sequence_name,
        "seed": run.seed,
        "update_count": run.update_count,
        "metrics": {
            "converged": metrics.converged,
            "convergence_time_s": metrics.convergence_time_s,
            "success": metrics.success,
            "ate_mean_m": metrics.ate_mean_m,
            "ate_rmse_m": metrics.ate_rmse_m,
            "ate_max_m": metrics.ate_max_m,
            "yaw_mean_rad": metrics.yaw_mean_rad,
        },
    }


def cell_payload(cell: CampaignCell, runs: list[RunResult]) -> dict:
    """Reduce one cell's runs to the stored (canonical) payload.

    Only deterministic quantities enter the payload — metrics, counts,
    and the cell identity.  No wall-clock, no host information: the
    bytes must be a pure function of the cell key.
    """
    converged_ates = [
        r.metrics.ate_mean_m for r in runs if r.metrics.converged
    ]
    aggregate = {
        "runs": len(runs),
        "converged": sum(1 for r in runs if r.metrics.converged),
        "success_rate": (
            sum(1 for r in runs if r.metrics.success) / len(runs) if runs else None
        ),
        "mean_ate_m": (
            sum(converged_ates) / len(converged_ates) if converged_ates else None
        ),
    }
    # NaN metrics (non-converged runs) are mapped to null at the store's
    # canonical-JSON layer; no pre-sanitization needed here.
    return {
        "cell": {
            "scenario": cell.scenario,
            "variant": cell.variant,
            "particle_count": cell.particle_count,
            "seeds": list(cell.seeds),
        },
        "runs": [_run_payload(run) for run in runs],
        "aggregate": aggregate,
    }


@dataclass
class CampaignRunSummary:
    """What one ``run_campaign`` invocation did to the store."""

    name: str
    total_cells: int
    executed: int
    skipped: int
    recovered_files: list[str]
    store_root: str


def shard_cells(
    spec: CampaignSpec, shards: int
) -> list[list[CampaignCell]]:
    """Deterministically split a spec's cell list across ``shards`` hosts.

    Round-robin over the deterministic cell order (shard ``i`` takes
    cells ``i, i + shards, ...``), so every host given the same spec and
    shard count agrees on the full assignment without coordination, and
    the shard workloads stay balanced even though the grid is
    scenario-major.  The union of all shards is exactly ``spec.cells()``
    and the shards are disjoint; completed shard stores merge back with
    :func:`merge_campaign_stores` (they share the spec's manifest).
    """
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    cells = spec.cells()
    return [cells[index::shards] for index in range(shards)]


def run_campaign(
    spec: CampaignSpec,
    backend: str = DEFAULT_BACKEND,
    jobs: int = 1,
    resume: bool = False,
    store: CampaignStore | None = None,
    progress=None,
    shard: tuple[int, int] | None = None,
) -> CampaignRunSummary:
    """Execute a campaign, streaming each finished cell into the store.

    With ``resume=True``, cells already stored (and parseable) are
    skipped by content key — only the missing remainder is executed,
    and the completed store is byte-identical to an uninterrupted run.
    Without ``resume``, every cell is recomputed and verified against
    any bytes already stored (a mismatch raises — it would mean the
    determinism contract broke).  The keys come from one walk of the
    grid (:meth:`CampaignSpec.keyed_cells`), and a :class:`CampaignCell`
    is built only for a cell that runs.

    The pending cells go to :func:`~repro.eval.sweep_engine.fan_out` at
    every job count, and a complete resume hands it none, so it builds
    no backend.  A scenario's pending cells are one task, which names
    only the scenario *id*: the task loads the registry's byte-stable
    ``.npz`` (generating it on a cold registry) and builds each distance
    field once.  ``jobs=1`` runs the tasks in this process, in grid
    order.  ``jobs > 1`` runs them on a process pool (the last
    ``scenarios % jobs`` scenarios split into chunks that every worker
    shares), and the parent builds no backend.  A scenario's cells reach
    the store when its task returns, in completion order (content
    addressing makes the order irrelevant), so an interrupted ``jobs=N``
    run loses at most N scenarios' unfinished cells, which
    ``resume=True`` recomputes.

    ``shard=(index, count)`` executes only shard ``index`` of the
    :func:`shard_cells` split (multi-host scale-out): every shard writes
    the full-spec manifest, so the per-host stores merge back with
    :func:`merge_campaign_stores` into a store byte-identical to a
    single-host run.

    Cell configurations come from the spec's variant axis — canonical
    config specs materialized over the paper-default
    :class:`~repro.core.config.MclConfig` — so a cell's content key
    (which folds in the config fingerprint for ablated specs) fully
    determines its numbers.

    Cells are appended to the store's packed segments.  The run holds
    the store's single-writer lock from start to end (a store with a
    live writer raises :class:`EvaluationError` before anything runs)
    and starts with :meth:`CampaignStore.recover`, which also folds an
    older store's legacy cell files into segments.  Even with
    ``jobs > 1`` every write funnels through this parent process.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    cells = list(spec.keyed_cells().items())
    if shard is not None:
        index, count = shard
        if not 0 <= index < count:
            raise ConfigurationError(
                f"shard index must be in [0, {count}), got {index}"
            )
        cells = cells[index::count]  # the shard_cells split
    if store is None:
        store = CampaignStore(spec.name)
    base_config = MclConfig()

    def finish(key: str, cell: CampaignCell, runs: list[RunResult]) -> None:
        with obs.span("campaign.cell_store"):
            store.put_cell(key, cell_payload(cell, runs))
        obs.counter("campaign.cells_executed").inc()
        obs.event(
            "campaign.cell",
            campaign=spec.name,
            key=key,
            scenario=cell.scenario,
            variant=cell.variant,
            particle_count=cell.particle_count,
        )
        if progress is not None:
            done = sum(1 for r in runs if r.metrics.success)
            progress(
                f"{cell.scenario} {cell.variant} N={cell.particle_count}: "
                f"{done}/{len(runs)} successful runs -> {key}"
            )

    with store:  # close() seals the active segment and releases the lock
        recovered = store.recover()
        store.write_manifest(spec.to_manifest())
        completed = store.completed_keys() if resume else set()
        pending = [
            (key, CampaignCell(*identity, spec.seeds))
            for key, identity in cells
            if key not in completed
        ]
        skipped = len(cells) - len(pending)
        if progress is not None and skipped:
            progress(f"resume: {skipped}/{len(cells)} cells already stored")
        obs.counter("campaign.cells_skipped").inc(skipped)
        # Forked workers share the lock's file description; closing the
        # generator shuts a pool down before the lock is released, on
        # error paths too.
        units = [
            (cell.scenario, cell.seeds, cell.sweep_cell(base_config))
            for _, cell in pending
        ]
        with closing(fan_out(units, backend, jobs)) as finished:
            for index, runs in finished:
                finish(*pending[index], runs)

    return CampaignRunSummary(
        name=spec.name,
        total_cells=len(cells),
        executed=len(pending),
        skipped=skipped,
        recovered_files=recovered,
        store_root=str(store.root),
    )


@dataclass
class MergeSummary:
    """What one :func:`merge_campaign_stores` call did."""

    dest: str
    source: str
    copied: int
    verified: int
    skipped_invalid: int
    total_source_cells: int


def merge_campaign_stores(
    dest: CampaignStore, source: CampaignStore
) -> MergeSummary:
    """Union ``source``'s cells into ``dest`` (multi-host scale-out).

    The intended workflow: shard one campaign's cell list across
    machines (same spec, disjoint or overlapping subsets), then merge
    the resulting stores.  Because cell bytes are a pure function of the
    cell key, collisions are verified byte-for-byte — equal bytes are
    counted as ``verified``, a mismatch raises (it means the equivalence
    contract broke on one host, and silently preferring either side
    would hide that).  The manifests must agree byte-for-byte too; a
    destination without a manifest (fresh name) adopts the source's, so
    merging into a new name is a store copy.

    Cells are copied as raw bytes — never re-encoded — so a merged store
    is byte-identical to one produced by a single host.  Source records
    that no longer parse (damaged in place) are skipped and counted.

    The source streams its cells via
    :meth:`CampaignStore.iter_cell_bytes`; a source that still holds
    legacy cell files is refused before anything is written (fold it
    with ``repro campaign compact``).  The destination takes its
    single-writer lock, runs :meth:`~CampaignStore.recover` (which folds
    its own legacy cell files), appends the copies to its segments and
    releases the lock when the merge returns.
    """
    source_manifest = source.manifest_path
    if not source_manifest.exists():
        raise EvaluationError(
            f"source campaign {source.name!r} has no manifest under "
            f"{source.root}"
        )
    cells = source.iter_cell_bytes()
    manifest_bytes = source_manifest.read_bytes()
    # Adopt-or-verify, race-safely: exactly one concurrent merger can
    # publish a fresh destination manifest; every other path (including
    # losing that race) must match the published bytes before copying
    # any cells, or two campaign specs could silently mix in one store.
    if dest.manifest_path.exists() or not atomic_create(
        dest.manifest_path, manifest_bytes
    ):
        if dest.manifest_path.read_bytes() != manifest_bytes:
            raise EvaluationError(
                f"campaign manifests differ between {dest.name!r} and "
                f"{source.name!r} — only shards of one campaign spec can "
                "be merged"
            )

    copied = verified = skipped = 0
    total = 0
    with dest:  # close() seals the segment the merge appended
        dest.recover()
        for key, data in cells:
            total += 1
            existed = dest.get_cell_bytes(key) is not None
            try:
                dest.put_cell_bytes(key, data)
            except EvaluationError:
                if source.get_cell(key) is None:  # a damaged source record
                    skipped += 1
                    continue
                raise
            if existed:
                verified += 1
            else:
                copied += 1
    return MergeSummary(
        dest=dest.name,
        source=source.name,
        copied=copied,
        verified=verified,
        skipped_invalid=skipped,
        total_source_cells=total,
    )


def load_campaign(name: str, store: CampaignStore | None = None) -> CampaignSpec:
    """Reconstruct a campaign's spec from its stored manifest."""
    if store is None:
        store = CampaignStore(name)
    return CampaignSpec.from_manifest(store.read_manifest())


def campaign_status(name: str, store: CampaignStore | None = None) -> dict:
    """Progress of a campaign: completed vs expected cells, by scenario.

    One pass: the store answers :meth:`~CampaignStore.completed_keys`
    from its segment index (O(segments) sidecar reads), and the expected
    grid is walked once (:meth:`CampaignSpec.keyed_cells`), deriving
    every key: one digest per cell, with each scenario's stem and each
    (variant, N) identity template computed once per distinct value.
    """
    if store is None:
        store = CampaignStore(name)
    spec = load_campaign(name, store)
    with obs.span("campaign.status"):
        completed = store.completed_keys()
        keyed = spec.keyed_cells()
        by_scenario = {
            scenario: {"done": 0, "total": 0} for scenario in spec.scenarios
        }
        done = 0
        for key, (scenario, _, _) in keyed.items():
            entry = by_scenario[scenario]
            entry["total"] += 1
            if key in completed:
                entry["done"] += 1
                done += 1
    return {
        "name": name,
        "total": len(keyed),
        "completed": done,
        "scenarios": by_scenario,
        "store_root": str(store.root),
    }


#: The one member a report reads, the first of every stored cell.
_REPORTED_MEMBERS = ("aggregate",)


def _reported_cells(
    store: CampaignStore, spec: CampaignSpec
) -> Iterator[tuple[str, str, int, object]]:
    """``(scenario, variant, N, aggregate)`` of each reported stored cell.

    Walks :meth:`~CampaignStore.iter_cell_bytes` in storage order
    against the grid's :meth:`CampaignSpec.keyed_cells`: a cell's
    identity is the one its key was derived from, so a payload cannot
    speak for another cell.  A stored key outside the grid is a
    stray, skipped and counted in ``campaign.report_stray``.  Of a grid
    cell's payload only the leading ``aggregate`` member is decoded
    (:func:`~repro.eval.store.leading_members`); a payload without it in
    the canonical layout is malformed, skipped and counted in
    ``campaign.report_malformed``.  The ``cell`` and ``runs`` members
    after it are neither decoded nor validated.
    """
    keyed = spec.keyed_cells()
    for key, data in store.iter_cell_bytes():
        identity = keyed.get(key)
        if identity is None:
            obs.counter("campaign.report_stray").inc()
            continue
        members = leading_members(data, _REPORTED_MEMBERS)
        if members is None:
            obs.counter("campaign.report_malformed").inc()
            continue
        yield (*identity, members[0])


def aggregate_report(
    name: str, store: CampaignStore | None = None
) -> dict[str, dict[tuple[str, int], dict]]:
    """Aggregate stored cells: scenario -> (variant, N) -> summary dict.

    Reads only the store (no recomputation), in **one streaming pass**:
    the manifest's grid is walked once into ``{key: (scenario, variant,
    N)}`` and the store is scanned sequentially against it (memory
    bounded by one packed segment), instead of randomly probed per
    expected key.  Each cell's identity comes from its key, and only
    each payload's leading ``aggregate`` member is decoded
    (:func:`_reported_cells`); a malformed payload is skipped, and
    damage after that member goes unseen.  Cells not yet executed are
    simply absent; stray keys outside the campaign grid are skipped and
    counted.  Raises if the campaign has no completed cells.
    """
    if store is None:
        store = CampaignStore(name)
    spec = load_campaign(name, store)
    report: dict[str, dict[tuple[str, int], dict]] = {
        scenario: {} for scenario in spec.scenarios
    }
    found = 0
    with obs.span("campaign.report"):
        for scenario, variant, count, aggregate in _reported_cells(store, spec):
            found += 1
            report[scenario][(variant, count)] = aggregate
    if not found:
        raise EvaluationError(
            f"campaign {name!r} has no completed cells to report"
        )
    return report


def pivot_report(
    name: str, pivot: str, store: CampaignStore | None = None
) -> dict[str, dict[tuple[str, int], dict[str, dict]]]:
    """Pivot stored cells by one config override's value.

    Returns ``scenario -> (base_spec_id, N) -> {value: aggregate}``:
    each cell's variant is parsed back through the config grammar, the
    ``pivot`` override (alias-resolved) is factored out of the spec, and
    the remaining *base* spec becomes the row while the override's value
    — the spec's explicit value, or the paper default when the base spec
    doesn't override it — becomes the column, rendered in the grammar's
    own spelling (``0.5``, ``2/3``).  This turns an ablation campaign
    (``--ablate sigma=...``) into the table the paper's sensitivity
    figures plot, keyed off the same fingerprint machinery that keys the
    cells.  Streaming and single-pass, taking each cell's identity from
    its key and decoding only each payload's ``aggregate`` member, like
    :func:`aggregate_report`.
    """
    if store is None:
        store = CampaignStore(name)
    field = CONFIG_OVERRIDE_ALIASES.get(pivot, pivot)
    if field not in CONFIG_OVERRIDE_FIELDS + TUPLE_OVERRIDE_FIELDS:
        valid = ", ".join(
            sorted(
                (
                    *CONFIG_OVERRIDE_FIELDS,
                    *TUPLE_OVERRIDE_FIELDS,
                    *CONFIG_OVERRIDE_ALIASES,
                )
            )
        )
        raise ConfigurationError(
            f"unknown pivot key {pivot!r}; expected one of: {valid}"
        )
    spec = load_campaign(name, store)
    report: dict[str, dict[tuple[str, int], dict[str, dict]]] = {
        scenario: {} for scenario in spec.scenarios
    }
    splits: dict[str, tuple[str, str]] = {}
    found = 0
    with obs.span("campaign.pivot"):
        for scenario, variant, count, aggregate in _reported_cells(store, spec):
            if variant not in splits:  # a handful of variants, many cells
                config_spec = _parse_spec(variant)
                base = ConfigSpec(
                    config_spec.variant,
                    tuple(
                        (key, value)
                        for key, value in config_spec.overrides
                        if key != field
                    ),
                )
                splits[variant] = (
                    base.id,
                    format_override_value(getattr(config_spec.config(), field)),
                )
            base_id, value = splits[variant]
            row = report[scenario].setdefault((base_id, count), {})
            if value in row:
                continue  # duplicate spelling cannot happen post-canonicalization
            row[value] = aggregate
            found += 1
    if not found:
        raise EvaluationError(
            f"campaign {name!r} has no completed cells to report"
        )
    return report
