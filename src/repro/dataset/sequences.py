"""The six canonical evaluation sequences (paper Sec. IV-A).

The paper records six flights through the physical drone maze.  Here each
sequence is a scripted waypoint tour through the main maze of the combined
world — six distinct routes with distinct simulation seeds, covering the
corridor system from different directions so that localization sees varied
viewpoints.

Sequences are generated on demand and cached as ``.npz`` under the data
directory (``REPRO_DATA_DIR`` env var, default ``<cwd>/data/sequences``).
Each is a 50-70 s flight (760-1 050 frames) that takes about 0.3 s to
regenerate on a 2-vCPU host: the 100 Hz flight loop, then one ray-casting
pass per sensor.  The committed files are the reference bytes of the six
flights; ``tests/dataset/test_sequences.py`` regenerates each and compares.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..common.errors import DatasetError
from ..common.paths import data_root
from ..maps.maze import DroneWorld, build_drone_maze_world
from ..maps.planning import plan_snapped_tour
from ..vehicle.crazyflie import CrazyflieSimulator, SimConfig
from .recorder import RecordedSequence

#: Planner clearance used for all scripted routes, metres.
ROUTE_CLEARANCE_M = 0.15

#: Cap on the simulated flight duration per sequence, seconds.
MAX_FLIGHT_S = 110.0


@dataclass(frozen=True)
class SequenceScript:
    """Recipe for one canonical sequence."""

    name: str
    #: Stops in main-maze local coordinates (metres from the maze corner).
    stops: tuple[tuple[float, float], ...]
    #: Seed of the platform simulation (sensors, drift).
    sim_seed: int


#: Six routes sweeping the maze from different directions.  Coordinates
#: are in main-maze local frame; all are snapped to clearance-valid cells
#: before planning, so small imprecision is harmless.
SEQUENCE_SCRIPTS: tuple[SequenceScript, ...] = (
    SequenceScript(
        "seq0-serpentine-up",
        ((0.5, 0.5), (3.5, 0.5), (3.5, 1.6), (0.6, 1.6), (0.5, 2.5), (2.85, 2.5),
         (2.85, 3.5), (0.6, 3.5), (2.5, 3.5), (2.85, 2.6), (0.6, 2.5), (0.5, 1.6),
         (2.0, 1.6)),
        sim_seed=100,
    ),
    SequenceScript(
        "seq1-serpentine-down",
        ((0.6, 3.5), (2.85, 3.5), (2.85, 2.5), (0.5, 2.5), (0.6, 1.6), (3.5, 1.6),
         (3.5, 0.5), (0.5, 0.5), (2.0, 0.5), (3.4, 0.8), (3.5, 1.6), (1.5, 1.6)),
        sim_seed=101,
    ),
    SequenceScript(
        "seq2-lower-loop",
        ((1.5, 0.5), (3.5, 0.5), (3.5, 1.6), (1.8, 1.6), (1.8, 0.5), (0.5, 0.5),
         (0.5, 1.6), (2.2, 1.6)),
        sim_seed=102,
    ),
    SequenceScript(
        "seq3-upper-loop",
        ((3.5, 3.5), (2.85, 3.5), (2.85, 2.5), (3.6, 2.5), (3.6, 3.4), (2.0, 3.4),
         (2.0, 2.4), (1.0, 2.4), (0.5, 2.5), (0.5, 3.4), (1.2, 3.4), (2.85, 3.0),
         (3.5, 2.5), (2.0, 2.4)),
        sim_seed=103,
    ),
    SequenceScript(
        "seq4-cross-maze",
        ((0.5, 0.5), (0.5, 1.6), (3.5, 1.6), (3.5, 2.5), (2.85, 3.4), (1.0, 3.4),
         (0.5, 2.5), (1.8, 2.5)),
        sim_seed=104,
    ),
    SequenceScript(
        "seq5-revisit",
        ((2.2, 0.5), (0.5, 0.5), (0.5, 1.6), (2.0, 1.6), (2.0, 0.6), (3.4, 0.6),
         (3.5, 1.6), (1.0, 1.6), (0.5, 2.5), (2.5, 2.5)),
        sim_seed=105,
    ),
)


def data_directory() -> Path:
    """Directory holding cached sequence files."""
    return data_root() / "sequences"


def generate_sequence(
    script: SequenceScript, world: DroneWorld | None = None
) -> RecordedSequence:
    """Fly one scripted route and record it (no caching)."""
    world = world or build_drone_maze_world()
    main = world.main
    stops_world = [(main.origin_x + x, main.origin_y + y) for x, y in script.stops]
    route = plan_snapped_tour(world.grid, stops_world, ROUTE_CLEARANCE_M)
    simulator = CrazyflieSimulator(
        world.grid,
        route,
        seed=script.sim_seed,
        config=SimConfig(max_duration_s=MAX_FLIGHT_S),
    )
    steps = simulator.run()
    return RecordedSequence.from_sim_steps(script.name, steps)


def load_sequence(
    index: int,
    world: DroneWorld | None = None,
    cache: bool = True,
) -> RecordedSequence:
    """Load (or generate and cache) one of the six canonical sequences."""
    if not 0 <= index < len(SEQUENCE_SCRIPTS):
        raise DatasetError(
            f"sequence index must be 0..{len(SEQUENCE_SCRIPTS) - 1}, got {index}"
        )
    script = SEQUENCE_SCRIPTS[index]
    cache_path = data_directory() / f"{script.name}.npz"
    if cache and cache_path.exists():
        return RecordedSequence.load_npz(cache_path)
    sequence = generate_sequence(script, world)
    if cache:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        sequence.save_npz(cache_path)
    return sequence


def load_all_sequences(
    world: DroneWorld | None = None, cache: bool = True
) -> list[RecordedSequence]:
    """Load all six canonical sequences (generating missing ones)."""
    world = world or build_drone_maze_world()
    return [
        load_sequence(index, world, cache) for index in range(len(SEQUENCE_SCRIPTS))
    ]
