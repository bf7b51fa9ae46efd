"""Exploration demo: the paper's future-work loop, closed in simulation.

"Future works will extend the proposed system to applications such as
path planning and exploration" (paper Sec. V).  This demo runs that loop
in the main drone maze:

  while frontiers remain:
    1. select the nearest reachable frontier in the *mapped-so-far* grid,
    2. fly there with the waypoint controller (ground-truth pose — the
       localization accuracy budget is covered by the MCL experiments),
    3. integrate the multizone-ToF frames into the log-odds map.

It reports coverage over iterations and the final agreement between the
explored map and the ground-truth maze.

Run with:  python examples/exploration_demo.py
"""

import math

from repro.common.geometry import Pose2D
from repro.common.rng import make_rng
from repro.mapping import GridMapper, MapperConfig, map_agreement, select_goal
from repro.maps import main_drone_maze
from repro.sensors.tof import TofSensor, TofSensorSpec
from repro.vehicle import CrazyflieSimulator, SimConfig


def main() -> None:
    truth_grid = main_drone_maze()
    mapper = GridMapper(MapperConfig(width_m=4.0, height_m=4.0))
    sensor = TofSensor(
        TofSensorSpec(interference_prob=0.01, edge_row_dropout_prob=0.02),
        "tof-front",
        make_rng(0, "explore"),
    )

    def panoramic_scan(at_xy: tuple[float, float]) -> None:
        """Yaw in place, integrating frames — the scan behaviour a real
        exploration policy performs at every reached goal."""
        poses = [
            Pose2D(at_xy[0], at_xy[1], i * math.pi / 6) for i in range(12) for _ in range(2)
        ]
        frames = sensor.measure_flight(truth_grid, poses, [0.0] * len(poses))
        for frame, pose in zip(frames, poses):
            mapper.integrate_frame(frame, pose)

    # Seed the map with a panoramic scan from the start position.
    position = (0.5, 0.5)
    panoramic_scan(position)

    print("iter | goal            | route | coverage | agreement")
    visited: list[tuple[float, float]] = []
    for iteration in range(40):
        known = mapper.to_occupancy_grid()
        goal = select_goal(
            known,
            position,
            clearance_m=0.10,
            min_cluster_size=2,
            exclude_near=visited,
        )
        if goal is None and visited:
            # All remaining frontiers were blacklisted: give stale ones a
            # second chance from the (new) current position.
            visited.clear()
            goal = select_goal(known, position, clearance_m=0.10, min_cluster_size=2)
        if goal is None:
            print(f"{iteration:4d} | exploration complete (no reachable frontier)")
            break
        visited.append(goal.target_xy)

        # Fly the planned route on the true maze, scanning along the way.
        sim = CrazyflieSimulator(
            truth_grid,
            goal.route if len(goal.route) >= 2 else [position, goal.target_xy],
            seed=iteration,
            config=SimConfig(max_duration_s=30),
        )
        steps = sim.run()
        poses = [step.ground_truth for step in steps]
        frames = sensor.measure_flight(truth_grid, poses, [step.timestamp for step in steps])
        for frame, pose in zip(frames, poses):
            mapper.integrate_frame(frame, pose)
        position = (steps[-1].ground_truth.x, steps[-1].ground_truth.y)
        panoramic_scan(position)

        agreement = map_agreement(mapper.to_occupancy_grid(), truth_grid)
        print(
            f"{iteration:4d} | ({goal.target_xy[0]:.2f},{goal.target_xy[1]:.2f}) "
            f"| {len(goal.route):5d} | {mapper.coverage_fraction():7.1%} "
            f"| {agreement:8.1%}"
        )

    final = map_agreement(mapper.to_occupancy_grid(), truth_grid)
    print(f"\nfinal map agreement with ground truth: {final:.1%}")
    print("\nexplored map ('#' wall, '.' free, ' ' unknown):")
    art = mapper.to_occupancy_grid().to_ascii().splitlines()
    for line in art[::2]:
        print(line[::2])


if __name__ == "__main__":
    main()
