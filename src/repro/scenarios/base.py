"""Scenario primitives: specs, generated scenarios, and the family base.

A *scenario* is a complete synthetic workload for the localizer — an
occupancy world, a clearance-safe waypoint tour through it, and the
:class:`~repro.dataset.recorder.RecordedSequence` produced by flying that
tour on the simulated Crazyflie.  Scenarios extend the paper's single
physical maze (six recorded flights) to arbitrarily many procedurally
generated worlds, the direction pursued by the floor-plan follow-up work
(Zimmerman et al., arXiv:2310.12536).

Everything is keyed by a :class:`ScenarioSpec` — ``(family, seed,
params)`` — and generation is a pure function of that key: all
randomness flows through :func:`repro.common.rng.make_rng` streams
derived from the spec seed, no wall clock or global RNG is consulted,
and ``np.savez_compressed`` writes fixed zip timestamps.  Regenerating a
scenario from the same spec therefore produces a **byte-identical**
``.npz``, which makes generated scenarios first-class citizens of the
engine's bitwise backend-equivalence contract.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..common.errors import ConfigurationError
from ..dataset.recorder import RecordedSequence
from ..maps.occupancy import OccupancyGrid
from ..maps.planning import plan_snapped_tour
from ..vehicle.crazyflie import CrazyflieSimulator, SimConfig

#: Planner clearance used for all scenario tours, metres (matches the
#: canonical sequences in :mod:`repro.dataset.sequences`).
SCENARIO_CLEARANCE_M = 0.15

#: Parameter value types allowed in a spec (JSON- and filename-safe).
ParamValue = int | float | str


def _coerce_param(raw: str) -> ParamValue:
    """Parse a CLI parameter value: int if possible, then float, else str."""
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


@dataclass(frozen=True)
class ScenarioSpec:
    """The deterministic key of one scenario: ``(family, seed, params)``.

    ``params`` is a canonically sorted tuple of ``(name, value)`` pairs
    overriding the family defaults; two specs with the same content
    compare (and hash, and cache) equal regardless of construction order.
    """

    family: str
    seed: int = 0
    params: tuple[tuple[str, ParamValue], ...] = ()

    def __post_init__(self) -> None:
        if not self.family:
            raise ConfigurationError("scenario spec needs a family name")
        # Canonicalize: last value wins per key, string values coerce the
        # same way the CLI grammar does (so "7" and 7 name one scenario
        # and a spec round-trips exactly through its id).
        canonical: dict[str, ParamValue] = {}
        for key, value in self.params:
            if isinstance(value, str):
                value = _coerce_param(value)
            elif isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigurationError(
                    f"scenario parameter {key!r} must be int, float or str, "
                    f"got {type(value).__name__}"
                )
            canonical[str(key)] = value
        object.__setattr__(self, "params", tuple(sorted(canonical.items())))
        object.__setattr__(self, "seed", int(self.seed))

    @staticmethod
    def of(family: str, seed: int = 0, **params: ParamValue) -> "ScenarioSpec":
        """Convenience constructor from keyword parameters."""
        return ScenarioSpec(family, seed, tuple(params.items()))

    @staticmethod
    def parse(text: str) -> "ScenarioSpec":
        """Parse the CLI grammar ``family[:seed[:k=v+k=v...]]``.

        Examples: ``office``, ``maze:3``, ``maze:3:cells=7+braid=0.2``.
        """
        parts = text.strip().split(":")
        if not parts or not parts[0]:
            raise ConfigurationError(f"empty scenario spec in {text!r}")
        family = parts[0]
        seed = 0
        params: list[tuple[str, ParamValue]] = []
        if len(parts) > 1 and parts[1]:
            try:
                seed = int(parts[1])
            except ValueError as exc:
                raise ConfigurationError(
                    f"scenario seed must be an integer, got {parts[1]!r}"
                ) from exc
        if len(parts) > 2 and parts[2]:
            for item in parts[2].split("+"):
                if "=" not in item:
                    raise ConfigurationError(
                        f"scenario parameter {item!r} must look like name=value"
                    )
                key, raw = item.split("=", 1)
                params.append((key.strip(), _coerce_param(raw.strip())))
        if len(parts) > 3:
            raise ConfigurationError(f"malformed scenario spec {text!r}")
        return ScenarioSpec(family, seed, tuple(params))

    @property
    def param_dict(self) -> dict[str, ParamValue]:
        return dict(self.params)

    @property
    def id(self) -> str:
        """Canonical human-readable identifier (also the parse grammar)."""
        base = f"{self.family}:{self.seed}"
        if self.params:
            base += ":" + "+".join(f"{k}={v}" for k, v in self.params)
        return base

    @property
    def cache_stem(self) -> str:
        """Filesystem-safe cache filename stem.

        Parameter overrides are folded into a short content hash so stems
        stay bounded while remaining unique per canonical spec.
        """
        stem = f"{self.family}-s{self.seed}"
        if self.params:
            digest = hashlib.sha256(
                json.dumps(self.params, sort_keys=True).encode("utf-8")
            ).hexdigest()[:10]
            stem += f"-{digest}"
        return stem


@dataclass
class Scenario:
    """One fully generated scenario: world + tour + recorded flight."""

    spec: ScenarioSpec
    grid: OccupancyGrid
    tour: np.ndarray  # (K, 2) planned waypoints in world coordinates
    sequence: RecordedSequence

    # ------------------------------------------------------------------
    # Serialization — one .npz bundling map, tour and flight
    # ------------------------------------------------------------------
    def save_npz(self, path) -> None:
        """Write the scenario to a single compressed ``.npz`` archive.

        ``path`` may be a filesystem path or an open binary file object
        (the registry streams through an atomic tmp+rename writer).  The
        sequence payload is embedded under its native keys (see
        :meth:`RecordedSequence.to_npz_payload`); scenario-level arrays
        use a ``scenario_`` prefix.  Writing is deterministic: identical
        scenarios serialize to byte-identical files.
        """
        payload = self.sequence.to_npz_payload()
        payload["scenario_id"] = np.array(self.spec.id)
        payload["scenario_cells"] = self.grid.cells
        payload["scenario_resolution"] = np.float64(self.grid.resolution)
        payload["scenario_origin"] = np.array(
            [self.grid.origin_x, self.grid.origin_y], dtype=np.float64
        )
        payload["scenario_tour"] = np.asarray(self.tour, dtype=np.float64)
        if isinstance(path, (str, Path)):
            path = Path(path)
        np.savez_compressed(path, **payload)

    @staticmethod
    def load_npz(path: str | Path) -> "Scenario":
        """Load a scenario written by :meth:`save_npz`."""
        path = Path(path)
        if not path.exists():
            raise ConfigurationError(f"scenario file not found: {path}")
        with np.load(path) as data:
            origin = data["scenario_origin"]
            return Scenario(
                spec=ScenarioSpec.parse(str(data["scenario_id"])),
                grid=OccupancyGrid(
                    cells=data["scenario_cells"],
                    resolution=float(data["scenario_resolution"]),
                    origin_x=float(origin[0]),
                    origin_y=float(origin[1]),
                ),
                tour=data["scenario_tour"],
                sequence=RecordedSequence.from_npz_payload(data),
            )


@dataclass(frozen=True)
class ScenarioFamily:
    """A parameterized recipe producing scenarios from ``(seed, params)``.

    Concrete families subclass and implement :meth:`layout` (world +
    tour stops); :meth:`generate` then runs the shared deterministic
    pipeline: snap stops to clearance, plan the tour, fly it on the
    simulated platform, and record the flight.  Families that transform
    a finished scenario (e.g. sensor degradation) override
    :meth:`generate` instead.
    """

    name: str = ""
    description: str = ""
    defaults: tuple[tuple[str, ParamValue], ...] = field(default=())

    def resolve_params(self, spec: ScenarioSpec) -> dict[str, ParamValue]:
        """Merge spec overrides into the family defaults (validated)."""
        merged = dict(self.defaults)
        merged.setdefault("flight_s", 60.0)
        for key, value in spec.params:
            if key not in merged:
                known = ", ".join(sorted(merged))
                raise ConfigurationError(
                    f"unknown parameter {key!r} for scenario family "
                    f"{self.name!r}; expected one of: {known}"
                )
            merged[key] = value
        return merged

    def layout(
        self, seed: int, params: dict[str, ParamValue]
    ) -> tuple[OccupancyGrid, list[tuple[float, float]]]:
        """Build the world and the raw tour stops for one seed."""
        raise NotImplementedError

    def generate(self, spec: ScenarioSpec) -> Scenario:
        """Run the full deterministic pipeline for ``spec``."""
        params = self.resolve_params(spec)
        grid, stops = self.layout(spec.seed, params)
        route = plan_snapped_tour(grid, stops, SCENARIO_CLEARANCE_M)
        simulator = CrazyflieSimulator(
            grid,
            route,
            seed=spec.seed,
            config=SimConfig(max_duration_s=float(params["flight_s"])),
        )
        sequence = RecordedSequence.from_sim_steps(spec.id, simulator.run())
        return Scenario(
            spec=spec,
            grid=grid,
            tour=np.asarray(route, dtype=np.float64),
            sequence=sequence,
        )
