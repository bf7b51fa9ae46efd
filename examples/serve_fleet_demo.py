"""Serve a mixed drone fleet online: create, step, query, migrate, close.

Demonstrates the serving layer end to end:

1. declare a mixed-family fleet in one string and open one live
   localization session per drone;
2. stream observation frames in slices (submit + flush), the scheduler
   packing every pending session into shared stacked backend calls;
3. query a session mid-flight (cursor, live estimate, metrics so far);
4. snapshot it, migrate the bytes into a *second* manager, and let both
   copies finish — their traces match bit for bit;
5. close everything and print the per-session outcomes.

Run with::

    PYTHONPATH=src python examples/serve_fleet_demo.py
"""

from __future__ import annotations

import numpy as np

from repro.serve import SessionManager

FLEET = "office:1:flight_s=12@fp32@64*2,corridor:2:flight_s=12@fp16qm@96*2~2"


def main() -> None:
    manager = SessionManager()
    session_ids = manager.create_fleet(FLEET)
    print(f"fleet open: {len(session_ids)} sessions")

    # Stream the first 40 frames in 8-frame slices.
    for _ in range(5):
        manager.submit_all(8)
        report = manager.flush()
        print(
            f"flush: {report.frames} frames in {report.ticks} ticks, "
            f"{report.updates} gated updates"
        )

    probe = session_ids[0]
    status = manager.query(probe)
    print(
        f"\n{probe}: frame {status.cursor}/{status.frames_total}, "
        f"{status.update_count} updates, estimate=({status.estimate.x:.2f}, "
        f"{status.estimate.y:.2f}, {status.estimate.theta:.2f})"
    )

    # Snapshot the probe session and migrate it to a second manager.
    blob = manager.snapshot(probe)
    print(f"snapshot: {len(blob)} bytes (byte-stable, content-addressable)")
    migrated = SessionManager()
    migrated.restore(blob)

    # Finish both copies; migration must be invisible.
    manager.run_to_completion()
    migrated.run_to_completion()
    original = manager.close(probe)
    twin = migrated.close(probe)
    identical = np.array_equal(
        original.trace.estimate_trace, twin.trace.estimate_trace
    )
    print(f"migrated copy bitwise-identical: {identical}")

    for session_id in session_ids[1:]:
        result = manager.close(session_id)
        metrics = result.metrics
        outcome = (
            f"ate={metrics.ate_mean_m:.3f} m"
            if metrics is not None and metrics.converged
            else "did not converge"
        )
        print(f"{session_id}: {result.trace.update_count} updates, {outcome}")


if __name__ == "__main__":
    main()
