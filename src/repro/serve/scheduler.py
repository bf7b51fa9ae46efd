"""The step scheduler: deterministic packing of session steps.

Every scheduler *tick* advances a set of pending sessions by one
observation frame each.  Sessions whose movement gate fires are packed
into shared stacked-kernel calls so a fleet of small-N filters pays one
kernel call per stage instead of one per drone — the same
amortization that makes the stacked backend ~3x faster than the scalar
loop on small-N sweep cells, now applied to *live, heterogeneous*
sessions at arbitrary replay positions.

**Packing is a pure function of session ids and specs.**  Within a
tick:

1. sessions are ordered by ``session_id`` (lexicographic);
2. firing sessions group into **cohorts** by ``(config fingerprint, N)``
   — the facets that fix the stack's array shapes and its full numeric
   config, so one fleet can mix ablated and default-parameter filters —
   processed in sorted cohort-key order;
3. inside a cohort, sessions sharing ``(scenario, cursor)`` — and hence
   the identical replay step and distance field — form one
   :class:`~repro.engine.backend.StepWork` item, in first-session order.

Because every stack operation is per-row deterministic (see
:class:`~repro.engine.backend.SessionStack`), the packing cannot change
any session's numbers — it is pinned anyway so that a fleet's execution
schedule is reproducible from its declaration, which keeps scheduling
regressions observable and wall-clock comparisons meaningful.

Rows are recycled: closing a session frees its row for the next session
of the same cohort (lowest free row first — again deterministic), and a
cohort whose last row is released is retired entirely — its stacked
arrays are dropped, so a long-lived manager serving a churning mix of
configurations never accumulates dead stacks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .. import obs
from ..core.config import MclConfig
from ..engine.backend import (
    DEFAULT_BACKEND,
    FilterBackend,
    SessionStack,
    StepWork,
    get_backend,
)
from .session import FilterSession


@dataclass
class _Cohort:
    """One (config fingerprint, N) stack plus its row bookkeeping.

    ``free_rows`` is a min-heap, so recycling always hands out the
    lowest free row without re-sorting the pool on every assignment.
    """

    config: MclConfig
    stack: SessionStack
    rows_used: int = 0
    free_rows: list[int] = field(default_factory=list)

    def assign_row(self) -> int:
        """Lowest free row, growing the stack when none is available."""
        if self.free_rows:
            return heapq.heappop(self.free_rows)
        row = self.rows_used
        self.rows_used += 1
        self.stack.ensure_capacity(self.rows_used)
        return row

    def release_row(self, row: int) -> None:
        heapq.heappush(self.free_rows, row)

    @property
    def active_rows(self) -> int:
        """Rows currently owned by live sessions."""
        return self.rows_used - len(self.free_rows)


class StepScheduler:
    """Packs pending per-session steps into shared stacked calls."""

    def __init__(self, backend: "str | FilterBackend" = DEFAULT_BACKEND) -> None:
        self.backend = get_backend(backend)
        self._cohorts: dict[tuple[str, int], _Cohort] = {}

    # ------------------------------------------------------------------
    # Cohort/row management
    # ------------------------------------------------------------------
    def cohort(self, key: tuple[str, int], config: MclConfig) -> _Cohort:
        entry = self._cohorts.get(key)
        if entry is None:
            entry = _Cohort(config=config, stack=self.backend.open_stack(config))
            self._cohorts[key] = entry
        return entry

    def admit(self, session: FilterSession) -> None:
        """Assign the session a stack row (state not yet initialized)."""
        entry = self.cohort(session.cohort_key, session.config)
        session.row = entry.assign_row()

    def evict(self, session: FilterSession) -> None:
        """Return the session's row to its cohort's free pool.

        A cohort whose last active row is released is retired with its
        stacked arrays: under a churning mix of configurations the
        cohort map stays proportional to the *live* fleet, not to every
        ``(fingerprint, N)`` ever served.
        """
        if session.row >= 0:
            cohort = self._cohorts[session.cohort_key]
            cohort.release_row(session.row)
            session.row = -1
            if cohort.active_rows == 0:
                del self._cohorts[session.cohort_key]

    def cohort_count(self) -> int:
        """How many live (fingerprint, N) cohort stacks exist right now."""
        return len(self._cohorts)

    def occupancy(self) -> dict[tuple[str, int], dict[str, int]]:
        """Per-cohort row usage, keyed by ``(fingerprint, N)``.

        ``rows_allocated`` is the stack's grown capacity, ``rows_active``
        the rows owned by live sessions, ``rows_free`` the recyclable
        remainder — enough for placement policy (and tests) to reason
        about packing without reaching into the cohort map.
        """
        return {
            key: {
                "rows_allocated": cohort.rows_used,
                "rows_active": cohort.active_rows,
                "rows_free": len(cohort.free_rows),
            }
            for key, cohort in sorted(self._cohorts.items())
        }

    def stack(self, session: FilterSession) -> SessionStack:
        return self._cohorts[session.cohort_key].stack

    # ------------------------------------------------------------------
    # Ticking
    # ------------------------------------------------------------------
    @staticmethod
    def plan_tick(
        sessions: list[FilterSession],
    ) -> tuple[list[FilterSession], dict[tuple[str, int], list[list[FilterSession]]]]:
        """The tick's deterministic packing, without executing it.

        Returns ``(ordered_sessions, packing)`` where ``packing`` maps
        each cohort key (sorted consumption order) to its work groups —
        lists of firing sessions sharing one ``(scenario, cursor)``.
        Pure function of the sessions' ids, specs and cursors; exposed
        separately so tests can pin the schedule itself.
        """
        ordered = sorted(sessions, key=lambda s: s.spec.session_id)
        packing: dict[tuple[str, int], dict[tuple[str, int], list[FilterSession]]] = {}
        for session in ordered:
            if session.done:
                continue
            if not session.plan.steps[session.cursor].fires:
                continue
            groups = packing.setdefault(session.cohort_key, {})
            groups.setdefault(
                (session.spec.scenario, session.cursor), []
            ).append(session)
        return ordered, {
            key: list(groups.values()) for key, groups in sorted(packing.items())
        }

    def tick(self, sessions: list[FilterSession]) -> int:
        """Advance every given session by exactly one frame.

        Firing sessions are stepped through their cohort stacks in the
        packed order; every session (firing or not) then records its
        current estimate and moves its cursor.
        Returns the number of gated updates executed.
        """
        with obs.span("serve.sched.tick"):
            ordered, packing = self.plan_tick(sessions)
            fired = 0
            stack_calls = 0
            for key, groups in packing.items():
                stack = self._cohorts[key].stack
                work = [
                    StepWork(
                        rows=[s.row for s in group],
                        step=group[0].plan.steps[group[0].cursor],
                        field=group[0].field,
                    )
                    for group in groups
                ]
                stack.step(work)
                stack_calls += len(work)
                fired += sum(len(item.rows) for item in work)
            for session in ordered:
                if session.done:
                    continue
                stack = self._cohorts[session.cohort_key].stack
                session.record(stack.estimate_array(session.row))
        obs.counter("serve.sched.ticks").inc()
        obs.counter("serve.sched.fired").inc(fired)
        obs.counter("serve.sched.stack_calls").inc(stack_calls)
        if fired:
            # Packing efficiency: gated updates per stacked kernel call.
            obs.histogram("serve.sched.rows_per_call", obs.COUNT_BOUNDS).observe(
                fired / stack_calls
            )
        return fired
