"""Incremental stepping of one engine run: the online scheduling API.

An :class:`EngineSession` exposes the engine's event loop one arrival at
a time instead of replaying a whole trace.  It is the substrate of the
always-on scheduler service (:mod:`repro.service`) and the proof
obligation behind it: a session fed a workload's jobs in trace order
produces a :meth:`~repro.simulator.results.SimulationResult.digest`
bit-identical to the batch :meth:`Engine.run` -- the batch path *is*
``open()`` + :meth:`replay` + :meth:`drain` (see ``Engine.run``).

Why the ordering is exact
-------------------------

The batch engine pops events in ``(time, kind, seq)`` order where
arrivals carry kind ``ARRIVAL`` and dynamic events (finish, evict,
start) never do.  An arrival therefore never ties with a dynamic event
on ``(time, kind)``, so interleaving a *stream* of time-ordered arrivals
against the dynamic-event heap -- pop every heap event whose
``(time, kind)`` sorts before ``(arrival, ARRIVAL)``, then handle the
arrival -- reproduces the batch pop order exactly, without knowing the
number of arrivals up front.  Sequence numbers only break ties *within*
one stream, and both streams preserve their internal order.

Clock semantics
---------------

``submit(job)`` advances the session clock (:attr:`now`) to the job's
arrival minute; ``advance_to(t)`` asserts that no arrival before ``t``
is coming, letting finishes and evictions up to ``t`` fire.  Both leave
``START`` events *at* the boundary minute pending, because an arrival at
that same minute must be handled first (kind order: finish < evict <
arrival < start).  ``drain()`` runs the loop dry and builds the result.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.simulator.engine import _EventKind
from repro.simulator.results import SimulationResult
from repro.workload.job import Job

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.simulator.engine import Engine, _RunState

__all__ = ["EngineSession"]

#: Arrival kind as a plain int, compared against heap keys in the loops.
_ARRIVAL = int(_EventKind.ARRIVAL)


class EngineSession:
    """One engine run, advanced arrival-by-arrival.

    Created by :meth:`Engine.open`; never constructed directly.  The
    session owns the engine's event loop from open to drain: callers
    feed time-ordered arrivals with :meth:`submit` (or batches with
    :meth:`replay`), optionally let simulated time pass with
    :meth:`advance_to`, and finish with :meth:`drain`, which returns the
    same :class:`SimulationResult` a batch run would.
    """

    __slots__ = ("_engine", "_handlers", "_watermark", "_submitted", "_result")

    def __init__(self, engine: "Engine") -> None:
        self._engine = engine
        self._handlers = (
            engine._on_finish,
            engine._on_evict,
            engine._on_arrival,
            engine._on_start,
        )
        self._watermark = 0
        self._submitted = 0
        self._result: SimulationResult | None = None

    # ------------------------------------------------------------------
    # Read-only state
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """The session clock: no arrival before this minute may be submitted."""
        return self._watermark

    @property
    def jobs_submitted(self) -> int:
        """Arrivals fed into the engine so far."""
        return self._submitted

    @property
    def drained(self) -> bool:
        """Whether :meth:`drain` has run (the session is finished)."""
        return self._result is not None

    @property
    def pending_events(self) -> int:
        """Dynamic events (finishes, evictions, starts) not yet processed."""
        return len(self._engine._heap)

    @property
    def runs(self) -> "Sequence[_RunState]":
        """Engine-internal run states, one per submitted job (read-only)."""
        return self._engine._runs

    @property
    def finished(self) -> "Sequence[_RunState]":
        """Run states in the order the event loop finished them (read-only).

        Append-only: a reader that remembers its position folds only the
        jobs finished since its previous read.
        """
        return self._engine._finished

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def _require_open(self) -> None:
        if self._result is not None:
            raise SimulationError("session already drained; open a new engine")

    def _advance_before(self, minute: int) -> None:
        """Process every dynamic event ordered before an arrival at ``minute``."""
        engine = self._engine
        heap = engine._heap
        injector = engine._fault_injector
        handlers = self._handlers
        while heap and (heap[0][0], heap[0][1]) < (minute, _ARRIVAL):
            time, kind, _, payload = heapq.heappop(heap)
            if injector is not None and 0 <= injector.next_time <= time:
                injector.fire(engine, time)
            handlers[kind](time, payload)

    def submit(self, job: Job) -> "_RunState":
        """Feed one arrival; returns the job's engine-internal run state.

        The arrival must be at or after :attr:`now` (submissions are
        time-ordered; ties are processed in submission order, matching
        the trace's canonical (arrival, job_id) sort when replaying).
        The returned ``_RunState`` is live engine state -- callers may
        *read* it (``started`` / ``finished`` / ``finish`` / ``usage``)
        to observe the job's progress, never mutate it.
        """
        self._require_open()
        if job.arrival < self._watermark:
            raise SimulationError(
                f"job {job.job_id} arrives at minute {job.arrival}, before the "
                f"session clock {self._watermark}; submissions must be time-ordered"
            )
        engine = self._engine
        self._advance_before(job.arrival)
        injector = engine._fault_injector
        if injector is not None and 0 <= injector.next_time <= job.arrival:
            injector.fire(engine, job.arrival)
        self._watermark = job.arrival
        run_index = len(engine._runs)
        engine._on_arrival(job.arrival, job)
        self._submitted += 1
        return engine._runs[run_index]

    def replay(self, jobs: Sequence[Job]) -> None:
        """Submit a time-ordered batch of arrivals through the merged loop.

        Equivalent to ``for job in jobs: self.submit(job)`` but with the
        per-submission overhead hoisted out of the loop -- this is the
        batch ``Engine.run`` hot path.  Same-minute cohorts drain
        back-to-back through the fast branch without re-checking the
        heap shape between them.
        """
        self._require_open()
        engine = self._engine
        heap = engine._heap
        injector = engine._fault_injector
        handlers = self._handlers
        on_arrival = engine._on_arrival
        watermark = self._watermark
        num_jobs = len(jobs)
        index = 0
        while True:
            if index < num_jobs:
                job = jobs[index]
                arrival = job.arrival
                # Kinds never tie (dynamic events are never ARRIVAL), so
                # the 2-tuple comparison fully decides the merge order.
                if not heap or (arrival, _ARRIVAL) < (heap[0][0], heap[0][1]):
                    if arrival < watermark:
                        raise SimulationError(
                            f"job {job.job_id} arrives at minute {arrival}, "
                            f"before the session clock {watermark}; "
                            "submissions must be time-ordered"
                        )
                    if injector is not None and 0 <= injector.next_time <= arrival:
                        injector.fire(engine, arrival)
                    watermark = arrival
                    index += 1
                    on_arrival(arrival, job)
                    continue
            if not heap or index >= num_jobs:
                break
            time, kind, _, payload = heapq.heappop(heap)
            if injector is not None and 0 <= injector.next_time <= time:
                injector.fire(engine, time)
            handlers[kind](time, payload)
        self._watermark = watermark
        self._submitted += num_jobs

    def advance_to(self, minute: int) -> None:
        """Let simulated time pass: assert no arrival before ``minute``.

        Processes every finish/eviction/start ordered before a
        hypothetical arrival at ``minute`` and moves :attr:`now` there.
        Advancing backwards is an error; advancing to :attr:`now` is a
        no-op.
        """
        self._require_open()
        if minute < self._watermark:
            raise SimulationError(
                f"cannot advance to minute {minute}: session clock already at "
                f"{self._watermark}"
            )
        self._advance_before(minute)
        self._watermark = minute

    def drain(self) -> SimulationResult:
        """Run the event loop dry and build the result (idempotent).

        After drain the session is closed: further submissions raise,
        and repeated calls return the same result object.
        """
        if self._result is not None:
            return self._result
        engine = self._engine
        heap = engine._heap
        injector = engine._fault_injector
        handlers = self._handlers
        watermark = self._watermark
        while heap:
            time, kind, _, payload = heapq.heappop(heap)
            if injector is not None and 0 <= injector.next_time <= time:
                injector.fire(engine, time)
            handlers[kind](time, payload)
            if time > watermark:
                watermark = time
        self._watermark = watermark
        self._result = engine._finish_run()
        return self._result

    @property
    def result(self) -> SimulationResult:
        """The drained result; raises if :meth:`drain` has not run yet."""
        if self._result is None:
            raise SimulationError("session not drained yet")
        return self._result
