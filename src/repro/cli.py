"""Command-line interface: ``python -m repro`` / the ``repro`` script.

Subcommands:

* ``info``            — library, paper and platform-model summary
* ``show-map``        — render the combined evaluation world as ASCII
* ``generate-data``   — build and cache the six evaluation sequences
* ``scenarios``       — list scenario families / generate scenario files
* ``run``             — localize one sequence with one configuration
* ``sweep``           — run an evaluation sweep through the sweep engine
  (``--scenarios`` sweeps generated worlds instead of the canonical
  maze; ``--ablate`` expands config-override axes)
* ``campaign``        — resumable scenario-parallel sweep campaigns over
  the on-disk result store (``run`` / ``status`` / ``report`` / ``list``
  / ``merge`` / ``shard``)
* ``serve-sim``       — replay a simulated drone fleet through the
  online serving layer (multiplexed sessions, aggregate + per-session
  metrics)
* ``serve-online``    — run the asyncio session gateway (length-prefixed
  JSON protocol over TCP: per-session ordering, coalesced ticking,
  admission control, backpressure, drain/handoff migration verbs);
  ``--peer`` names fellow servers for ``migrate``-by-index, ``--replay
  FLEET`` drives a loopback demo fleet through the socket instead of
  serving forever
* ``migrate``         — move live sessions between running gateways:
  explicit session moves, whole-peer eviction (``--evict``) or a
  fleet-wide cohort-aware rebalance (``--rebalance``), each handoff
  bitwise-invisible to the migrated session's trace
* ``bench-backends``  — time the reference and fast backends on one
  sweep (``fast`` joins wherever its C kernels load)
* ``perf``            — print the Table I / Table II model predictions
* ``obs``             — inspect telemetry: ``obs report`` renders a
  metrics/span snapshot (live registry, snapshot file, or a running
  gateway's ``metrics`` verb) as a table, JSON or Prometheus text
* ``docs-cli``        — emit the generated CLI reference (docs/cli.md)

The global ``--obs`` / ``--obs-dir DIR`` flags enable the telemetry
registry (and the JSONL event log) for any command — equivalent to the
``REPRO_OBS`` / ``REPRO_OBS_DIR`` environment variables, and guaranteed
not to change any numeric result (see ``docs/observability.md``).

Commands that execute the filter accept ``--backend
{reference,batched,fast}`` to pick the
:class:`~repro.engine.backend.FilterBackend` (``batched`` is an older name
for ``fast``); all backends produce bitwise-identical results, so the flag
only affects throughput.  ``fast``, the default outside ``run``, compiles
its C kernels on first use; without cffi, numpy's ``libnpyrandom.a`` or
a C compiler it runs the ``reference`` backend, and a compiler that fails is a configuration
error.  Every
``--variant``/``--variants`` flag speaks the config-spec grammar
``variant[+key=value...]`` (:class:`~repro.core.config.ConfigSpec`), so
paper variants and ablated configurations are interchangeable.

The full reference is generated from this parser tree into
``docs/cli.md`` (kept in sync by a CI drift check), so every flag
documented there is guaranteed to exist.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__, obs
from .common.errors import ConfigurationError, EvaluationError
from .core.config import (
    PAPER_PARTICLE_COUNTS,
    PAPER_VARIANTS,
    ConfigSpec,
)
from .dataset.sequences import SEQUENCE_SCRIPTS, load_all_sequences, load_sequence
from .engine.backend import DEFAULT_BACKEND, available_backends
from .eval.aggregate import RunningCellStats, SweepProtocol
from .eval.bench import compare_backends, write_backend_report
from .eval.campaign import (
    CampaignSpec,
    aggregate_report,
    campaign_status,
    merge_campaign_stores,
    pivot_report,
    run_campaign,
)
from .eval.runner import run_localization
from .eval.store import CampaignStore, list_campaigns
from .eval.sweep_engine import SweepEngine
from .maps.maze import build_drone_maze_world
from .scenarios import (
    FleetSpec,
    ScenarioSpec,
    available_families,
    build_scenario,
    get_family,
    scenario_cache_path,
)
from .soc.gap9 import GAP9
from .soc.perf import Gap9PerfModel, MclStep
from .soc.power import Gap9PowerModel
from .viz.tables import format_matrix, format_table


def _cmd_info(_args: argparse.Namespace) -> int:
    world = build_drone_maze_world()
    print(f"repro {__version__} — nano-UAV multizone-ToF Monte Carlo localization")
    print('Reproduction of: "Fully On-board Low-Power Localization with')
    print(' Multizone Time-of-Flight Sensors on Nano-UAVs" (DATE 2023)')
    print()
    print(f"Evaluation world : {world.grid.structured_area_m2():.2f} m2 structured")
    print(f"Map resolution   : {world.grid.resolution} m/cell")
    print(f"Sequences        : {len(SEQUENCE_SCRIPTS)}")
    print(f"Paper variants   : {', '.join(PAPER_VARIANTS)}")
    print(f"Particle sweeps  : {PAPER_PARTICLE_COUNTS}")
    print(
        f"GAP9             : {GAP9.cluster_worker_cores}+1 cluster cores, "
        f"{GAP9.l1_bytes // 1024} kB L1, {GAP9.l2_bytes // 1024} kB L2, "
        f"{GAP9.max_frequency_hz / 1e6:.0f} MHz"
    )
    return 0


def _cmd_show_map(args: argparse.Namespace) -> int:
    world = build_drone_maze_world(seed=args.seed)
    print(world.grid.to_ascii())
    return 0


def _cmd_generate_data(_args: argparse.Namespace) -> int:
    sequences = load_all_sequences()
    for sequence in sequences:
        print(
            f"{sequence.name:24s} frames={len(sequence):5d} "
            f"duration={sequence.duration_s:5.1f} s"
        )
    return 0


def _cmd_scenarios_list(_args: argparse.Namespace) -> int:
    rows = []
    for name in available_families():
        family = get_family(name)
        defaults = ", ".join(f"{k}={v}" for k, v in family.defaults)
        rows.append([name, family.description, defaults or "-"])
    print(
        format_table(
            ["family", "description", "parameters (defaults)"],
            rows,
            title=f"Scenario families ({len(rows)} registered)",
            footnote="spec grammar: family[:seed[:name=value+name=value]]",
        )
    )
    return 0


def _cmd_scenarios_generate(args: argparse.Namespace) -> int:
    for raw in args.specs:
        spec = ScenarioSpec.parse(raw)
        scenario = build_scenario(spec, cache=not args.no_cache)
        sequence = scenario.sequence
        where = "(not cached)" if args.no_cache else str(scenario_cache_path(spec))
        print(
            f"{spec.id:32s} frames={len(sequence):5d} "
            f"duration={sequence.duration_s:5.1f} s "
            f"grid={scenario.grid.rows}x{scenario.grid.cols} {where}"
        )
    return 0


def _parse_scenarios(raw: str) -> list[ScenarioSpec]:
    try:
        specs = [ScenarioSpec.parse(part) for part in raw.split(",") if part.strip()]
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not specs:
        raise argparse.ArgumentTypeError("need at least one scenario spec")
    for spec in specs:
        if spec.family not in available_families():
            raise argparse.ArgumentTypeError(
                f"unknown scenario family {spec.family!r}; "
                f"expected from {available_families()}"
            )
    return specs


def _cmd_run(args: argparse.Namespace) -> int:
    world = build_drone_maze_world()
    sequence = load_sequence(args.sequence, world)
    config = ConfigSpec.parse(args.variant).config(particle_count=args.particles)
    result = run_localization(
        world.grid, sequence, config, seed=args.seed, backend=args.backend
    )
    metrics = result.metrics
    print(f"sequence   : {sequence.name} ({sequence.duration_s:.1f} s)")
    print(f"variant    : {config.variant_label}, N={config.particle_count}, seed={args.seed}")
    print(f"backend    : {args.backend}")
    print(f"updates    : {result.update_count}")
    print(f"converged  : {metrics.converged}")
    if metrics.converged:
        print(f"conv. time : {metrics.convergence_time_s:.1f} s")
        print(f"ATE mean   : {metrics.ate_mean_m:.3f} m  (rmse {metrics.ate_rmse_m:.3f}, max {metrics.ate_max_m:.3f})")
        print(f"yaw mean   : {math.degrees(metrics.yaw_mean_rad):.1f} deg")
        print(f"success    : {metrics.success}")
    return 0


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_particles(raw: str) -> list[int]:
    counts = [_positive_int(part) for part in raw.split(",") if part.strip()]
    if not counts:
        raise argparse.ArgumentTypeError("need at least one particle count")
    return counts


def _parse_config_spec(raw: str) -> str:
    """Validate one ``variant[+key=value...]`` spec; return its canonical id."""
    try:
        return ConfigSpec.parse(raw).id
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_variants(raw: str) -> list[str]:
    variants = [
        _parse_config_spec(part) for part in raw.split(",") if part.strip()
    ]
    if not variants:
        raise argparse.ArgumentTypeError("need at least one config spec")
    return list(dict.fromkeys(variants))


def _parse_ablate(raw: str) -> tuple[str, list[str]]:
    """Parse one ``--ablate key=v1,v2,...`` axis.

    Key and value validation is delegated to :class:`ConfigSpec` (the
    one config grammar), so ``--ablate`` accepts exactly the overrides
    every other config-spec surface accepts — numeric values for the
    float fields, ``/``-separated rows for ``beam_rows``
    (``--ablate beam_rows=2/3,2/3/4/5``).
    """
    key, sep, values_text = raw.partition("=")
    key = key.strip()
    if not sep or not key:
        raise argparse.ArgumentTypeError(
            f"--ablate expects key=v1,v2,..., got {raw!r}"
        )
    values = [part.strip() for part in values_text.split(",") if part.strip()]
    try:
        for value in values:
            ConfigSpec("fp32", ((key, value),))
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not values:
        raise argparse.ArgumentTypeError(f"--ablate {key}= needs at least one value")
    return key, values


def _expand_ablations(
    variants: list[str], ablations: list[tuple[str, list[str]]] | None
) -> list[str]:
    """Cross every base config spec with every ``--ablate`` axis.

    Each axis multiplies the spec list: two base variants ablated over
    three sigmas and two r_max values become 12 config specs.  Duplicate
    canonical ids (e.g. an ablation value equal to the paper default of
    a variant already listed) collapse.
    """
    specs = [ConfigSpec.parse(variant) for variant in variants]
    for key, values in ablations or ():
        specs = [
            spec.with_override(key, value) for spec in specs for value in values
        ]
    return list(dict.fromkeys(spec.id for spec in specs))


def _print_rate_tables(
    row_header: str,
    rows: list[str],
    columns: list[str],
    cells: dict[tuple[str, str], tuple[float | None, float | None]],
    ate_title: str,
    success_title: str,
    footnote: str = "",
) -> None:
    """Print the ATE and success-rate matrices of a sweep or campaign.

    ``cells`` maps ``(row, column)`` to ``(mean ATE in m, success rate in
    [0, 1])``; a ``None`` or NaN value prints as n/a.
    """
    ate_cells: dict[tuple[str, str], str] = {}
    success_cells: dict[tuple[str, str], str] = {}
    for cell, (ate, rate) in cells.items():
        if ate is not None and not math.isnan(ate):
            ate_cells[cell] = f"{ate:.3f}"
        if rate is not None:
            success_cells[cell] = f"{100 * rate:.0f}%"
    ate_table = format_matrix(
        row_header, rows, columns, ate_cells, title=ate_title, footnote=footnote
    )
    success_table = format_matrix(
        row_header, rows, columns, success_cells, title=success_title
    )
    print(ate_table)
    print()
    print(success_table)


def _print_sweep_tables(result, variants, particles, title_suffix, footnote) -> None:
    cells = {}
    for variant in variants:
        for count in particles:
            aggregate = result.cells[(variant, count)].aggregate
            cells[(variant, str(count))] = (
                aggregate.mean_ate_m,
                aggregate.success_rate,
            )
    runs = next(iter(result.cells.values())).aggregate.run_count
    _print_rate_tables(
        "variant",
        list(variants),
        [str(count) for count in particles],
        cells,
        f"ATE (m) vs particle number{title_suffix}  [{runs} runs/cell]",
        f"success rate vs particle number{title_suffix}",
        footnote,
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        variants = _expand_ablations(args.variants, args.ablate)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    engine = SweepEngine(backend=args.backend, jobs=args.jobs)
    progress = print if args.verbose else None
    footnote = f"backend={args.backend} jobs={args.jobs}"
    if args.scenarios:
        results = engine.run_scenarios(
            args.scenarios,
            variants=variants,
            particle_counts=args.particles,
            progress=progress,
        )
        for index, (scenario_id, result) in enumerate(results.items()):
            if index:
                print()
            _print_sweep_tables(
                result, variants, args.particles,
                f"  — {scenario_id}", footnote,
            )
        return 0
    world = build_drone_maze_world()
    sequences = load_all_sequences(world)
    result = engine.run(
        world.grid,
        sequences,
        variants=variants,
        particle_counts=args.particles,
        progress=progress,
    )
    _print_sweep_tables(result, variants, args.particles, "", footnote)
    return 0


def _parse_seeds(raw: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"seeds must be integers: {exc}") from exc
    if not seeds:
        raise argparse.ArgumentTypeError("need at least one seed")
    return seeds


def _campaign_spec_from_args(args: argparse.Namespace) -> CampaignSpec:
    """Build the declarative campaign spec shared by ``run`` and ``shard``."""
    seeds = args.seeds if args.seeds is not None else SweepProtocol.from_env().seeds
    return CampaignSpec(
        name=args.name,
        scenarios=tuple(spec.id for spec in args.scenarios),
        variants=tuple(_expand_ablations(args.variants, args.ablate)),
        particle_counts=tuple(args.particles),
        seeds=seeds,
    )


def _file_names(files: list[str], shown: int = 8) -> str:
    """The first ``shown`` names, then a count: a folded legacy store can
    name a file per cell."""
    more = f" and {len(files) - shown} more" if len(files) > shown else ""
    return ", ".join(files[:shown]) + more


def _print_campaign_summary(summary) -> None:
    print(
        f"campaign {summary.name!r}: {summary.executed} cells executed, "
        f"{summary.skipped} skipped (already stored), "
        f"{summary.total_cells} total"
    )
    if summary.recovered_files:
        print(
            "recovered partial files and folded legacy cell files: "
            + _file_names(summary.recovered_files)
        )
    print(f"store: {summary.store_root}")


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    try:
        spec = _campaign_spec_from_args(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = run_campaign(
        spec,
        backend=args.backend,
        jobs=args.jobs,
        resume=args.resume,
        progress=print if args.verbose else None,
    )
    _print_campaign_summary(summary)
    return 0


def _cmd_campaign_shard(args: argparse.Namespace) -> int:
    from .eval.campaign import shard_cells

    try:
        spec = _campaign_spec_from_args(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.index is not None and not 0 <= args.index < args.shards:
        print(
            f"error: --index must be in [0, {args.shards}), got {args.index}",
            file=sys.stderr,
        )
        return 2
    shards = shard_cells(spec, args.shards)
    if args.index is None:
        rows = [
            [
                index,
                len(cells),
                f"repro campaign shard {spec.name} ... --shards "
                f"{args.shards} --index {index}",
            ]
            for index, cells in enumerate(shards)
        ]
        print(
            format_table(
                ["shard", "cells", "run with"],
                rows,
                title=(
                    f"campaign {spec.name!r}: {len(spec.cells())} cells "
                    f"over {args.shards} shards (round-robin)"
                ),
                footnote=(
                    "each shard writes the full-spec manifest; merge the "
                    f"stores back with: repro campaign merge {spec.name} "
                    f"{spec.name}-shard<i>"
                ),
            )
        )
        return 0
    store = CampaignStore(f"{spec.name}-shard{args.index}")
    summary = run_campaign(
        spec,
        backend=args.backend,
        jobs=args.jobs,
        resume=args.resume,
        store=store,
        progress=print if args.verbose else None,
        shard=(args.index, args.shards),
    )
    _print_campaign_summary(summary)
    print(
        f"merge back with: repro campaign merge {spec.name} "
        f"{spec.name}-shard{args.index}"
    )
    return 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    status = campaign_status(args.name)
    rows = [
        [scenario, f"{entry['done']}/{entry['total']}"]
        for scenario, entry in status["scenarios"].items()
    ]
    print(
        format_table(
            ["scenario", "cells done"],
            rows,
            title=(
                f"campaign {status['name']!r}: "
                f"{status['completed']}/{status['total']} cells completed"
            ),
            footnote=f"store: {status['store_root']}",
        )
    )
    return 0


def _pivot_column_order(values: set[str]) -> list[str]:
    """Sort pivot columns numerically when possible, lexically otherwise."""

    def sort_key(value: str):
        try:
            return (0, float(value), value)
        except ValueError:
            return (1, 0.0, value)

    return sorted(values, key=sort_key)


def _cmd_campaign_pivot_report(args: argparse.Namespace) -> int:
    report = pivot_report(args.name, args.pivot)
    printed = False
    for scenario, rows in report.items():
        if not rows:
            continue
        if printed:
            print()
        printed = True
        _print_rate_tables(
            "config",
            [f"{base} N={count}" for base, count in sorted(rows.keys())],
            _pivot_column_order(
                {value for cells in rows.values() for value in cells}
            ),
            {
                (f"{base} N={count}", value): (
                    aggregate["mean_ate_m"],
                    aggregate["success_rate"],
                )
                for (base, count), cells in rows.items()
                for value, aggregate in cells.items()
            },
            f"ATE (m) vs {args.pivot} — {scenario}",
            f"success rate vs {args.pivot} — {scenario}",
        )
    return 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    from .eval.campaign import load_campaign

    if args.pivot:
        return _cmd_campaign_pivot_report(args)
    spec = load_campaign(args.name)
    report = aggregate_report(args.name)
    overall = RunningCellStats()
    printed = False
    for scenario in spec.scenarios:
        cells = report[scenario]
        if not cells:
            continue
        if printed:
            print()
        printed = True
        for aggregate in cells.values():
            overall.add(aggregate)
        runs = max(aggregate["runs"] for aggregate in cells.values())
        _print_rate_tables(
            "variant",
            list(spec.variants),
            [str(count) for count in spec.particle_counts],
            {
                (variant, str(count)): (
                    aggregate["mean_ate_m"],
                    aggregate["success_rate"],
                )
                for (variant, count), aggregate in cells.items()
            },
            f"ATE (m) vs particle number — {scenario}  [{runs} runs/cell]",
            f"success rate vs particle number — {scenario}",
        )
    if printed:
        rate = overall.success_rate
        ate = overall.mean_ate_m
        print()
        print(
            f"overall: {overall.cells} cells, {overall.runs} runs, "
            + (f"{100 * rate:.0f}% success" if rate is not None else "no runs")
            + (f", mean ATE {ate:.3f} m" if ate is not None else "")
        )
    return 0


def _cmd_campaign_compact(args: argparse.Namespace) -> int:
    store = CampaignStore(args.name)
    if not store.exists():
        print(f"error: campaign {args.name!r} not found", file=sys.stderr)
        return 2
    with store:
        files = store.recover()
    print(
        f"compacted campaign {args.name!r}: {len(files)} files folded into "
        "segments, removed or repaired"
        + (f": {_file_names(files)}" if files else "")
    )
    return 0


def _cmd_campaign_merge(args: argparse.Namespace) -> int:
    summary = merge_campaign_stores(
        CampaignStore(args.dest), CampaignStore(args.source)
    )
    print(
        f"merged campaign {summary.source!r} into {summary.dest!r}: "
        f"{summary.copied} cells copied, {summary.verified} byte-verified "
        f"collisions, {summary.skipped_invalid} torn source files skipped "
        f"({summary.total_source_cells} source cells)"
    )
    return 0


def _parse_fleet(raw: str) -> FleetSpec:
    try:
        return FleetSpec.parse(raw)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _cmd_serve_sim(args: argparse.Namespace) -> int:
    from .serve import SessionManager

    manager = SessionManager(backend=args.backend)
    session_ids = manager.create_fleet(args.fleet)
    with obs.timed("cli.serve_sim") as serve_timer:
        frames = manager.run_to_completion(
            frames_per_flush=args.frames_per_flush
        )
    elapsed = serve_timer.elapsed_s

    rows = []
    successes = 0
    for session_id in session_ids:
        result = manager.close(session_id)
        metrics = result.metrics
        converged = metrics is not None and metrics.converged
        success = metrics is not None and metrics.success
        successes += 1 if success else 0
        rows.append(
            [
                session_id,
                result.spec.variant,
                result.spec.particle_count,
                len(result.trace.timestamps),
                result.trace.update_count,
                "yes" if converged else "no",
                f"{metrics.ate_mean_m:.3f}" if converged else "-",
                "yes" if success else "no",
            ]
        )
        if args.verbose:
            print(f"closed {session_id}")
    print(
        format_table(
            ["session", "variant", "N", "frames", "updates", "conv", "ate m", "ok"],
            rows,
            title=f"Fleet serving — {len(rows)} sessions, backend={args.backend}",
            footnote="each session is bitwise-identical to its solo reference run",
        )
    )
    print()
    print(
        f"aggregate: {successes}/{len(rows)} sessions successful, "
        f"{frames} frames served in {elapsed:.2f}s "
        f"({frames / elapsed:.0f} frames/s, "
        f"{len(rows) / elapsed:.2f} sessions/s)"
    )
    return 0


def _cmd_serve_online(args: argparse.Namespace) -> int:
    import asyncio

    import numpy as np

    from .serve import AdmissionPolicy, OnlineServer
    from .serve.online import drive_fleet

    policy = AdmissionPolicy(
        max_sessions=args.max_sessions,
        max_pending_frames=args.max_pending_frames,
    )

    async def serve() -> int:
        server = OnlineServer(
            backend=args.backend,
            policy=policy,
            peers=args.peer,
            handoff_timeout_s=args.handoff_timeout,
        )
        await server.start(host=args.host, port=args.port)
        host, port = server.address
        if args.replay is None:
            peers = (
                f", peers={','.join(args.peer)}" if args.peer else ""
            )
            print(
                f"serve-online listening on {host}:{port} "
                f"(backend={args.backend}, max_sessions={policy.max_sessions}, "
                f"max_pending_frames={policy.max_pending_frames}{peers}) "
                "— Ctrl-C stops"
            )
            try:
                await server.serve_forever()
            except asyncio.CancelledError:
                pass
            finally:
                await server.stop()
            return 0

        try:
            report = await drive_fleet(
                host,
                port,
                args.replay,
                connections=args.connections,
                frames_per_round=args.frames_per_round,
            )
        finally:
            await server.stop()

        rows = []
        successes = 0
        for session_id in sorted(report.results):
            closed = report.results[session_id]
            metrics = closed.metrics or {}
            converged = bool(metrics.get("converged"))
            success = bool(metrics.get("success"))
            successes += 1 if success else 0
            rows.append(
                [
                    session_id,
                    closed.spec.variant,
                    closed.spec.particle_count,
                    len(closed.trace.timestamps),
                    closed.trace.update_count,
                    "yes" if converged else "no",
                    f"{metrics['ate_mean_m']:.3f}" if converged else "-",
                    "yes" if success else "no",
                ]
            )
        print(
            format_table(
                ["session", "variant", "N", "frames", "updates", "conv", "ate m", "ok"],
                rows,
                title=(
                    f"Online gateway replay — {len(rows)} sessions over "
                    f"{args.connections} connection(s), backend={args.backend}"
                ),
                footnote="every trace travelled the socket bit-exactly",
            )
        )
        latency = report.step_latency
        frames = report.stats["frames_served"]
        print()
        print(
            f"aggregate: {successes}/{len(rows)} sessions successful, "
            f"{frames} frames in {report.serve_s:.2f}s "
            f"({frames / report.serve_s:.0f} frames/s, "
            f"{len(rows) / report.serve_s:.2f} sessions/s); "
            f"step latency p50 {1e3 * latency.percentile(0.50):.2f} ms, "
            f"p99 {1e3 * latency.percentile(0.99):.2f} ms over "
            f"{latency.count} barriers; "
            f"{report.stats['ticks']} ticks, {report.stats['updates']} updates"
        )
        return 0

    return asyncio.run(serve())


def _cmd_migrate(args: argparse.Namespace) -> int:
    import asyncio

    from .serve.migrate import MigrationCoordinator, Move, Peer

    if args.rebalance and args.evict:
        print("migrate: --rebalance and --evict are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.evict and not args.source:
        print("migrate: --evict needs --source HOST:PORT", file=sys.stderr)
        return 2
    if not (args.rebalance or args.evict) and not (
        args.source and args.target
    ):
        print(
            "migrate: name an operation — --rebalance, --evict --source S, "
            "or --source S --target T [--session ID ...]",
            file=sys.stderr,
        )
        return 2

    peers = [Peer.parse(p) for p in args.peers]
    for named in (args.source, args.target):
        if named is not None and Peer.parse(named) not in peers:
            peers.append(Peer.parse(named))
    if len(peers) < 2:
        print(
            "migrate: a fleet needs >= 2 peers (--peers HOST:PORT,HOST:PORT)",
            file=sys.stderr,
        )
        return 2

    async def run() -> int:
        coordinator = MigrationCoordinator(
            peers, handoff_timeout_s=args.handoff_timeout
        )
        occupancy = coordinator.occupancy_of(await coordinator.fleet_stats())
        if args.rebalance:
            moves = coordinator.plan_rebalance(occupancy)
            operation = f"rebalance across {len(peers)} peers"
        elif args.evict:
            source = Peer.parse(args.source)
            moves = coordinator.plan_evict(occupancy, source, args.keep)
            operation = f"evict {source.id} down to {args.keep} sessions"
        else:
            source, target = Peer.parse(args.source), Peer.parse(args.target)
            sessions = args.session or sorted(
                sid
                for cohort in occupancy.get(source, {}).values()
                for sid in cohort
            )
            moves = [Move(sid, source, target) for sid in sessions]
            operation = f"move {len(moves)} session(s) {source.id} -> {target.id}"

        if not moves:
            print(f"{operation}: fleet already satisfies the plan, no moves")
            return 0
        if args.plan:
            rows = [[m.session_id, m.source.id, m.target.id] for m in moves]
            print(
                format_table(
                    ["session", "source", "target"],
                    rows,
                    title=f"Planned (not executed): {operation}",
                    footnote="re-run without --plan to execute",
                )
            )
            return 0

        results = await coordinator.execute(moves)
        rows = [
            [
                r.move.session_id,
                r.move.source.id,
                r.move.target.id,
                "ok" if r.ok else "FAILED",
                f"{1e3 * r.blackout_s:.1f}",
                r.error or "-",
            ]
            for r in results
        ]
        failures = sum(1 for r in results if not r.ok)
        blackouts = sorted(r.blackout_s for r in results if r.ok)
        footnote = "each handoff is bitwise-invisible to the session's trace"
        if blackouts:
            mid = blackouts[len(blackouts) // 2]
            footnote = (
                f"blackout p50 {1e3 * mid:.1f} ms, "
                f"max {1e3 * blackouts[-1]:.1f} ms; " + footnote
            )
        print(
            format_table(
                ["session", "source", "target", "status", "blackout ms", "error"],
                rows,
                title=f"Executed: {operation}",
                footnote=footnote,
            )
        )
        if failures:
            print(
                f"{failures}/{len(results)} handoffs failed and rolled back "
                "(sessions keep serving on their source)",
                file=sys.stderr,
            )
            return 1
        return 0

    return asyncio.run(run())


def _cmd_campaign_list(_args: argparse.Namespace) -> int:
    names = list_campaigns()
    if not names:
        print("no campaigns stored")
        return 0
    rows = []
    for name in names:
        try:
            status = campaign_status(name)
        except EvaluationError as exc:  # legacy cells/ files to fold
            rows.append([name, str(exc)])
            continue
        rows.append([name, f"{status['completed']}/{status['total']}"])
    print(format_table(["campaign", "cells done"], rows))
    return 0


# ----------------------------------------------------------------------
# Generated CLI reference (docs/cli.md)
# ----------------------------------------------------------------------
def _action_invocation(action: argparse.Action) -> str:
    if not action.option_strings:
        return f"`{action.metavar or action.dest}`"
    invocation = ", ".join(f"`{opt}`" for opt in action.option_strings)
    if action.nargs != 0:
        invocation += f" `{action.metavar or action.dest.upper()}`"
    return invocation


def _action_rows(parser: argparse.ArgumentParser) -> list[str]:
    lines = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction) or isinstance(
            action, argparse._HelpAction
        ):
            continue
        notes = []
        if action.choices is not None:
            notes.append(
                "one of " + ", ".join(f"`{choice}`" for choice in action.choices)
            )
        if (
            action.option_strings
            and action.nargs != 0
            and action.default is not None
            and action.default is not argparse.SUPPRESS
        ):
            notes.append(f"default `{action.default}`")
        help_text = (action.help or "").strip()
        detail = " — ".join(part for part in [help_text, "; ".join(notes)] if part)
        lines.append(f"- {_action_invocation(action)}" + (f": {detail}" if detail else ""))
    return lines


def _subcommand_actions(
    parser: argparse.ArgumentParser,
) -> list[tuple[str, argparse.ArgumentParser]]:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return list(action.choices.items())
    return []


def render_cli_markdown(parser: argparse.ArgumentParser | None = None) -> str:
    """Render the full parser tree as deterministic markdown.

    This is the single source of ``docs/cli.md``: the renderer walks the
    argparse actions directly (never ``format_help``, whose line wrapping
    depends on the terminal width), so the output is byte-stable and CI
    can diff it against the committed file to catch drift.
    """
    parser = parser or build_parser()
    lines = [
        "# `repro` command-line reference",
        "",
        "<!-- Generated by `python -m repro docs-cli`. Do not edit by hand:",
        "     CI fails when this file drifts from the parser in cli.py. -->",
        "",
        parser.description or "",
        "",
        "Every command is invoked as `PYTHONPATH=src python -m repro <command>`.",
        "",
        "## Global options",
        "",
    ]
    lines.extend(_action_rows(parser))
    def describe(heading: str, sub: argparse.ArgumentParser) -> None:
        lines.extend(["", heading])
        if sub.description:
            lines.extend(["", sub.description])
        rows = _action_rows(sub)
        if rows:
            lines.append("")
            lines.extend(rows)
        elif not _subcommand_actions(sub):
            lines.extend(["", "(no options)"])

    for name, sub in _subcommand_actions(parser):
        describe(f"## `repro {name}`", sub)
        for nested_name, nested_sub in _subcommand_actions(sub):
            describe(f"### `repro {name} {nested_name}`", nested_sub)
    return "\n".join(lines).rstrip() + "\n"


def _cmd_docs_cli(_args: argparse.Namespace) -> int:
    sys.stdout.write(render_cli_markdown())
    return 0


def _cmd_bench_backends(args: argparse.Namespace) -> int:
    world = build_drone_maze_world()
    sequences = load_all_sequences(world)
    report = compare_backends(
        world.grid,
        sequences,
        variants=args.variants,
        particle_counts=args.particles,
        progress=print if args.verbose else None,
        jobs=args.jobs,
    )
    rows = []
    for cell in report["timings"][report["backends"][0]]["cells_s"]:
        rows.append(
            [cell]
            + [f"{report['timings'][b]['cells_s'][cell]:.2f}s" for b in report["backends"]]
        )
    rows.append(
        ["total"]
        + [f"{report['timings'][b]['total_s']:.2f}s" for b in report["backends"]]
    )
    footnote = (
        f"equivalent results: {report['equivalent']}; "
        f"{report['cpu_count']} core(s); provider {report['provider']}"
    )
    parallel = report.get("parallel")
    if parallel:
        footnote += (
            f"; {parallel['backend']}@jobs={parallel['jobs']}: "
            f"{parallel['total_s']:.2f}s"
        )
    print(
        format_table(
            ["cell"] + list(report["backends"]),
            rows,
            title="Backend sweep timing (lower is better)",
            footnote=footnote,
        )
    )
    baseline = report["backends"][0]
    for backend, speedup in report[f"speedup_vs_{baseline}"].items():
        print(f"speedup {backend} vs {baseline}: {speedup:.2f}x")
    path = write_backend_report(report, args.json)
    print(f"report written to {path}")
    return 0


def _cmd_perf(_args: argparse.Namespace) -> int:
    model = Gap9PerfModel()
    rows = []
    for count in PAPER_PARTICLE_COUNTS:
        row: list[object] = [count]
        for step in MclStep:
            one = model.step_time_per_particle_ns(step, count, 1)
            eight = model.step_time_per_particle_ns(step, count, 8)
            row.append(f"{one:.0f}/{eight:.0f}")
        row.append(f"{model.total_speedup(count):.2f}x")
        rows.append(row)
    print(
        format_table(
            ["N", "observation", "motion", "resampling", "pose comp.", "speedup"],
            rows,
            title="Per-particle execution time ns (1 core / 8 cores), GAP9@400MHz",
            footnote="particles stored in L2 beyond 1024 (paper Table I)",
        )
    )
    print()
    power = Gap9PowerModel()
    op_rows = []
    for freq, count in ((400e6, 1024), (12e6, 1024), (400e6, 16384), (200e6, 16384)):
        op = power.operating_point(freq, count)
        op_rows.append(
            [
                f"{op['frequency_mhz']:.0f} MHz",
                count,
                f"{op['avg_power_mw']:.0f} mW",
                f"{op['execution_time_ms']:.3f} ms",
            ]
        )
    print(
        format_table(
            ["clock", "particles", "avg power", "execution time"],
            op_rows,
            title="MCL operating points (paper Table II)",
        )
    )
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    import json

    if args.connect:
        import asyncio

        from .serve.online import OnlineClient
        from .serve.protocol import parse_address

        host, port = parse_address(args.connect)

        async def fetch() -> dict:
            async with await OnlineClient.connect(host, port) as client:
                return await client.metrics()

        snapshot = asyncio.run(fetch())["metrics"]
    elif args.snapshot:
        with open(args.snapshot, encoding="utf-8") as handle:
            snapshot = json.load(handle)
    else:
        snapshot = obs.snapshot()

    if args.format == "json":
        print(json.dumps(snapshot, sort_keys=True, indent=2))
    elif args.format == "prom":
        sys.stdout.write(obs.render_prometheus(snapshot))
    else:
        print(obs.render_table(snapshot))

    if args.events:
        counts: dict[str, int] = {}
        for entry in obs.read_events(args.events):
            name = entry.get("event", "?")
            counts[name] = counts.get(name, 0) + 1
        print()
        if not counts:
            print(f"(no events under {args.events})")
        else:
            print(f"events under {args.events}:")
            width = max(len(k) for k in counts)
            for name in sorted(counts):
                print(f"  {name:<{width}}  {counts[name]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Nano-UAV multizone-ToF Monte Carlo localization (DATE 2023 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--obs",
        action="store_true",
        help="enable in-process telemetry (metrics + spans) for this command",
    )
    parser.add_argument(
        "--obs-dir",
        default=None,
        metavar="DIR",
        help="enable telemetry and write JSONL event logs under DIR "
        "(implies --obs)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="library and platform summary").set_defaults(
        func=_cmd_info
    )

    show = sub.add_parser("show-map", help="render the evaluation world")
    show.add_argument("--seed", type=int, default=7, help="world layout seed")
    show.set_defaults(func=_cmd_show_map)

    sub.add_parser(
        "generate-data", help="build and cache the six evaluation sequences"
    ).set_defaults(func=_cmd_generate_data)

    scenarios = sub.add_parser(
        "scenarios", help="list scenario families / generate scenario files"
    )
    scenarios_sub = scenarios.add_subparsers(dest="scenarios_command", required=True)
    scenarios_sub.add_parser(
        "list", help="show the registered scenario families"
    ).set_defaults(func=_cmd_scenarios_list)
    generate = scenarios_sub.add_parser(
        "generate", help="generate (and cache) scenarios from spec strings"
    )
    generate.add_argument(
        "specs",
        nargs="+",
        metavar="SPEC",
        help="scenario specs, e.g. office:3 or maze:1:cells=7+braid=0.2",
    )
    generate.add_argument(
        "--no-cache",
        action="store_true",
        help="generate without writing the data-directory cache",
    )
    generate.set_defaults(func=_cmd_scenarios_generate)

    run = sub.add_parser("run", help="localize one sequence")
    run.add_argument("--sequence", type=int, default=0, help="sequence index 0-5")
    run.add_argument(
        "--variant",
        type=_parse_config_spec,
        default="fp32",
        help=(
            "config spec variant[+key=value...], e.g. fp32 or "
            "fp16qm+sigma=0.15+r_max=2.0"
        ),
    )
    run.add_argument("--particles", type=int, default=4096)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--backend",
        choices=list(available_backends()),
        default="reference",
        help="filter backend (identical results, different throughput)",
    )
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser(
        "sweep", help="run an evaluation sweep through the sweep engine"
    )
    sweep.add_argument(
        "--variants",
        type=_parse_variants,
        default=list(PAPER_VARIANTS),
        help=(
            "comma-separated config specs (variant[+key=value...]), "
            "e.g. fp32,fp16qm+sigma=0.15"
        ),
    )
    sweep.add_argument(
        "--ablate",
        type=_parse_ablate,
        action="append",
        metavar="KEY=V1,V2,...",
        help=(
            "expand every --variants entry over these override values "
            "(repeatable; axes multiply), e.g. --ablate sigma=1.0,2.0,4.0 "
            "--ablate r_max=1.0,1.5"
        ),
    )
    sweep.add_argument(
        "--particles",
        type=_parse_particles,
        default=list(PAPER_PARTICLE_COUNTS),
        help="comma-separated particle counts",
    )
    sweep.add_argument(
        "--scenarios",
        type=_parse_scenarios,
        default=None,
        metavar="SPEC[,SPEC...]",
        help=(
            "sweep generated scenarios instead of the canonical maze "
            "sequences, e.g. office:3,maze:1:cells=7"
        ),
    )
    sweep.add_argument(
        "--backend",
        choices=list(available_backends()),
        default=DEFAULT_BACKEND,
        help="filter backend executing each sweep cell",
    )
    sweep.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes for cell fan-out",
    )
    sweep.add_argument(
        "--verbose", action="store_true", help="print one line per completed run"
    )
    sweep.set_defaults(func=_cmd_sweep)

    campaign = sub.add_parser(
        "campaign",
        help="resumable scenario-parallel sweep campaigns (run/status/report/list)",
        description=(
            "Campaigns execute a declarative scenario x variant x particle-count "
            "grid as independent cells, streaming each finished cell into an "
            "append-only store under REPRO_RESULTS_DIR/campaigns/<name>/. "
            "Interrupted campaigns resume with --resume, skipping completed "
            "cells by content key; the finished store is byte-identical either way."
        ),
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    def add_campaign_grid_args(parser_: argparse.ArgumentParser) -> None:
        """Grid + execution flags shared by ``campaign run`` and ``shard``."""
        parser_.add_argument("name", help="campaign name (store directory name)")
        parser_.add_argument(
            "--scenarios",
            type=_parse_scenarios,
            required=True,
            metavar="SPEC[,SPEC...]",
            help="comma-separated scenario specs, e.g. office:3,maze:1:cells=7",
        )
        parser_.add_argument(
            "--variants",
            type=_parse_variants,
            default=list(PAPER_VARIANTS),
            help=(
                "comma-separated config specs (variant[+key=value...]), "
                "e.g. fp32,fp32+sigma=1.0"
            ),
        )
        parser_.add_argument(
            "--ablate",
            type=_parse_ablate,
            action="append",
            metavar="KEY=V1,V2,...",
            help=(
                "expand every --variants entry over these override values "
                "(repeatable; axes multiply)"
            ),
        )
        parser_.add_argument(
            "--particles",
            type=_parse_particles,
            default=list(PAPER_PARTICLE_COUNTS),
            help="comma-separated particle counts",
        )
        parser_.add_argument(
            "--seeds",
            type=_parse_seeds,
            default=None,
            help="comma-separated filter seeds (default: the REPRO_SCALE protocol seeds)",
        )
        parser_.add_argument(
            "--backend",
            choices=list(available_backends()),
            default=DEFAULT_BACKEND,
            help="filter backend executing each cell",
        )
        parser_.add_argument(
            "--jobs",
            type=_positive_int,
            default=1,
            help="worker processes for (scenario, cell) fan-out",
        )
        parser_.add_argument(
            "--resume",
            action="store_true",
            help="skip cells already completed in the store (by content key)",
        )
        parser_.add_argument(
            "--verbose", action="store_true", help="print one line per completed cell"
        )

    campaign_run = campaign_sub.add_parser(
        "run",
        help="execute (or resume) a campaign into the result store",
        description=(
            "Expand the campaign grid, execute the cells not yet stored, and "
            "stream each result into the campaign's store. Results never depend "
            "on --backend or --jobs (bitwise-equivalence contract)."
        ),
    )
    add_campaign_grid_args(campaign_run)
    campaign_run.set_defaults(func=_cmd_campaign_run)

    campaign_shard = campaign_sub.add_parser(
        "shard",
        help="split a campaign's cell list across hosts (round-robin)",
        description=(
            "Deterministically split the campaign grid into --shards "
            "round-robin cell lists. Without --index, print the shard "
            "assignment; with --index i, execute only shard i into the "
            "store <name>-shard<i> (carrying the full-spec manifest), so "
            "completed shard stores union back byte-identically with "
            "'repro campaign merge <name> <name>-shard<i>'."
        ),
    )
    add_campaign_grid_args(campaign_shard)
    campaign_shard.add_argument(
        "--shards",
        type=_positive_int,
        required=True,
        help="total number of shards the cell list is split into",
    )
    campaign_shard.add_argument(
        "--index",
        type=int,
        default=None,
        help="execute this shard (0-based); omit to just print the split",
    )
    campaign_shard.set_defaults(func=_cmd_campaign_shard)

    campaign_status_parser = campaign_sub.add_parser(
        "status", help="show completed vs expected cells of a campaign"
    )
    campaign_status_parser.add_argument("name", help="campaign name")
    campaign_status_parser.set_defaults(func=_cmd_campaign_status)

    campaign_report = campaign_sub.add_parser(
        "report",
        help="render aggregate ATE / success tables from the store",
        description=(
            "Stream the store once and render per-scenario ATE and success "
            "tables (variant rows x particle-count columns). With --pivot, "
            "rows become base config specs and columns the pivoted "
            "override's values — the shape of an ablation study."
        ),
    )
    campaign_report.add_argument("name", help="campaign name")
    campaign_report.add_argument(
        "--pivot",
        default=None,
        metavar="KEY",
        help=(
            "pivot the tables by this config override (e.g. sigma, r_max, "
            "beam_rows): columns are the override's values across the "
            "stored cells"
        ),
    )
    campaign_report.set_defaults(func=_cmd_campaign_report)

    campaign_compact = campaign_sub.add_parser(
        "compact",
        help="fold a legacy store's cell files into packed segments",
        description=(
            "Fold the one-file-per-cell layout of stores written before "
            "packed segments became the only write path into indexed "
            "segment files, and repair what a dead writer left. Every cell "
            "file is byte-verified back out of the segments before any is "
            "removed (torn ones are just removed), so interrupting at any "
            "point leaves the cell files authoritative. 'campaign run' and "
            "'campaign merge' (on its destination) do this first; 'status', "
            "'report' and a merge source refuse an unfolded store. Takes "
            "the store's single-writer lock, so it refuses a store that a "
            "run is writing."
        ),
    )
    campaign_compact.add_argument("name", help="campaign name")
    campaign_compact.set_defaults(func=_cmd_campaign_compact)

    campaign_sub.add_parser(
        "list", help="list stored campaigns and their progress"
    ).set_defaults(func=_cmd_campaign_list)

    campaign_merge = campaign_sub.add_parser(
        "merge",
        help="union one campaign store into another (multi-host scale-out)",
        description=(
            "Copy the source campaign's cell files into the destination "
            "store. Both stores must carry byte-identical manifests (shards "
            "of one campaign spec); colliding cells are verified "
            "byte-for-byte — equal bytes are fine, a mismatch errors. A "
            "destination name without a store adopts the source manifest."
        ),
    )
    campaign_merge.add_argument("dest", help="destination campaign name")
    campaign_merge.add_argument("source", help="source campaign name")
    campaign_merge.set_defaults(func=_cmd_campaign_merge)

    serve = sub.add_parser(
        "serve-sim",
        help="replay a simulated drone fleet through the serving layer",
        description=(
            "Open one live localization session per fleet member and serve "
            "them to completion through the multiplexing scheduler: pending "
            "per-session steps are packed into shared (R, N)-stacked backend "
            "calls, so mixed fleets of small-N filters run at batched-sweep "
            "throughput. Reports aggregate and per-session metrics; every "
            "session's trace is bitwise-identical to the same (scenario, "
            "variant, N, seed) stepped alone through the reference backend."
        ),
    )
    serve.add_argument(
        "--fleet",
        type=_parse_fleet,
        required=True,
        metavar="MEMBER[,MEMBER...]",
        help=(
            "fleet spec: scenario[@config[@particles]][*replicas][~seed0] "
            "groups (config = variant[+key=value...]), e.g. "
            "office:1@fp32@64*4,corridor:2@fp16qm+sigma=0.15@128*2~10"
        ),
    )
    serve.add_argument(
        "--backend",
        choices=list(available_backends()),
        default=DEFAULT_BACKEND,
        help="filter backend stepping the fleet (identical results)",
    )
    serve.add_argument(
        "--frames-per-flush",
        type=_positive_int,
        default=16,
        help="observation frames each session queues per scheduler flush",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="print one line per closed session"
    )
    serve.set_defaults(func=_cmd_serve_sim)

    online = sub.add_parser(
        "serve-online",
        help="run the asyncio session gateway (length-prefixed JSON over TCP)",
        description=(
            "Serve live localization sessions over a TCP socket: a "
            "length-prefixed JSON protocol (create / create_fleet / submit / "
            "flush / query / snapshot / restore / close / stats) with "
            "per-session request ordering, frames coalesced into packed "
            "scheduler ticks, admission control (--max-sessions) and ingest "
            "backpressure (--max-pending-frames). Every served trace stays "
            "bitwise identical to its solo reference run, end to end through "
            "the socket. Live sessions can be handed to other gateways "
            "through the drain / migrate / accept verbs (see `repro "
            "migrate`); --peer names fellow servers so clients can say "
            "migrate-to-peer-i without knowing addresses. Without --replay "
            "the server runs until interrupted; with --replay FLEET it "
            "drives the fleet through a loopback client and reports "
            "throughput, step latency and per-session metrics."
        ),
    )
    online.add_argument(
        "--host", default="127.0.0.1", help="interface to bind"
    )
    online.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (0 picks a free port and prints it)",
    )
    online.add_argument(
        "--backend",
        choices=list(available_backends()),
        default=DEFAULT_BACKEND,
        help="filter backend stepping the sessions (identical results)",
    )
    online.add_argument(
        "--max-sessions",
        type=_positive_int,
        default=1024,
        help="admission control: live-session cap",
    )
    online.add_argument(
        "--max-pending-frames",
        type=_positive_int,
        default=65536,
        help="backpressure: cap on accepted-but-unserved frames",
    )
    online.add_argument(
        "--peer",
        action="append",
        default=[],
        metavar="HOST:PORT",
        help=(
            "fellow gateway for migration (repeatable); the migrate verb "
            "accepts peer indexes into this list"
        ),
    )
    online.add_argument(
        "--handoff-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help=(
            "cap on each network leg of one outgoing handoff; an "
            "unresponsive target rolls the migration back"
        ),
    )
    online.add_argument(
        "--replay",
        type=_parse_fleet,
        default=None,
        metavar="MEMBER[,MEMBER...]",
        help=(
            "loopback demo: serve this fleet spec through the socket and "
            "exit (same grammar as serve-sim --fleet)"
        ),
    )
    online.add_argument(
        "--connections",
        type=_positive_int,
        default=4,
        help="client connections driving a --replay fleet",
    )
    online.add_argument(
        "--frames-per-round",
        type=_positive_int,
        default=1,
        help="frames each session submits per --replay step barrier",
    )
    online.set_defaults(func=_cmd_serve_online)

    migrate = sub.add_parser(
        "migrate",
        help="move live sessions between running serve-online gateways",
        description=(
            "Live session migration between running serve-online gateways: "
            "each handoff drains the session at a frame boundary, ships its "
            "byte-stable snapshot plus frozen queue to the target's accept "
            "verb, and rolls back onto the source if the target rejects or "
            "dies — bitwise-invisible to the session's trace either way. "
            "Three operations: explicit moves (--source + --target, "
            "optionally --session ID per session, otherwise everything on "
            "the source), whole-peer eviction (--evict --source, shedding "
            "down to --keep sessions across --peers), and a fleet-wide "
            "cohort-aware rebalance (--rebalance over --peers). Plans are "
            "deterministic functions of observed fleet occupancy; --plan "
            "prints the moves without executing them."
        ),
    )
    migrate.add_argument(
        "--peers",
        type=lambda text: [p for p in text.split(",") if p],
        default=[],
        metavar="HOST:PORT,...",
        help="the gateway fleet to observe and move sessions across",
    )
    migrate.add_argument(
        "--source", default=None, metavar="HOST:PORT",
        help="gateway sessions move away from",
    )
    migrate.add_argument(
        "--target", default=None, metavar="HOST:PORT",
        help="gateway explicit moves land on",
    )
    migrate.add_argument(
        "--session",
        action="append",
        default=[],
        metavar="ID",
        help="session to move explicitly (repeatable; default: all on --source)",
    )
    migrate.add_argument(
        "--rebalance",
        action="store_true",
        help="equalize session counts across --peers, cohort-aware",
    )
    migrate.add_argument(
        "--evict",
        action="store_true",
        help="move sessions off --source onto the rest of --peers",
    )
    migrate.add_argument(
        "--keep",
        type=int,
        default=0,
        metavar="N",
        help="sessions --evict leaves on the source (default 0: empty it)",
    )
    migrate.add_argument(
        "--plan",
        action="store_true",
        help="print the planned moves without executing any handoff",
    )
    migrate.add_argument(
        "--handoff-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-handoff cap; a timed-out handoff rolls back on the source",
    )
    migrate.set_defaults(func=_cmd_migrate)

    bench = sub.add_parser(
        "bench-backends",
        help="time reference vs fast (where its C kernels load)",
    )
    bench.add_argument("--variants", type=_parse_variants, default=None)
    bench.add_argument("--particles", type=_parse_particles, default=None)
    bench.add_argument(
        "--json", default=None, help="report path (default results/BENCH_backends.json)"
    )
    bench.add_argument(
        "--verbose", action="store_true", help="print per-cell timings as they finish"
    )
    bench.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=(
            "workers for the extra process-parallel timing row "
            "(default: auto on multi-core hosts, 1 disables)"
        ),
    )
    bench.set_defaults(func=_cmd_bench_backends)

    sub.add_parser("perf", help="print Table I / II model predictions").set_defaults(
        func=_cmd_perf
    )

    obs_parser = sub.add_parser(
        "obs", help="inspect telemetry (metrics, spans, event logs)"
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report",
        help="render a telemetry snapshot as a table, JSON or Prometheus text",
    )
    obs_report.add_argument(
        "--snapshot",
        default=None,
        metavar="FILE",
        help="read a canonical snapshot JSON file instead of the live registry",
    )
    obs_report.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="fetch the snapshot from a running gateway's `metrics` verb",
    )
    obs_report.add_argument(
        "--events",
        default=None,
        metavar="DIR",
        help="additionally summarize the JSONL event logs under DIR",
    )
    obs_report.add_argument(
        "--format",
        choices=("table", "json", "prom"),
        default="table",
        help="output rendering (default: table)",
    )
    obs_report.set_defaults(func=_cmd_obs_report)

    # Hidden (no help string): emits the generated CLI reference; CI diffs
    # its output against docs/cli.md to catch documentation drift.
    docs_cli = sub.add_parser(
        "docs-cli",
        description="write the generated markdown CLI reference to stdout",
    )
    docs_cli.set_defaults(func=_cmd_docs_cli)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.obs_dir:
        obs.enable(args.obs_dir)
    elif args.obs:
        obs.enable()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
