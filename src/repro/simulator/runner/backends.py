"""Execution substrates for the sweep runner.

A :class:`SweepBackend` is the seam between *what* a sweep runs
(picklable :class:`~repro.simulator.runner.spec.SimulationSpec` values)
and *where* attempts execute.  The backend contract is deliberately
small -- ``open`` / ``submit`` / ``poll`` / ``cancel`` / ``shutdown`` --
so the recovery semantics layered on top (retries with backoff, timeout
charging, failure reports, partial results) live once, in the
backend-agnostic dispatch loop of
:mod:`repro.simulator.runner.execute`, and both backends inherit them.

:data:`BACKENDS` holds the two backends by name:

* ``serial`` -- in-process execution, one attempt per poll.  No process
  isolation: a spec that hangs or kills the process takes the caller
  with it, so it cannot enforce per-execution timeouts.
* ``pool`` -- the fault-tolerant ``ProcessPoolExecutor`` loop.  Crash
  recovery respawns broken pools; an ambiguous crash re-runs the
  in-flight suspects one at a time ("solo isolation", surfaced to the
  dispatch loop as exclusive requeues) so only the spec that actually
  crashes is charged.

The conformance suite (``tests/simulator/test_backends.py``) certifies
every name in :data:`BACKENDS` against the same digest/accounting/
recovery assertions -- see ``docs/sweeps.md``.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.obs.events import PoolRespawned
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.simulator.results import SimulationResult
from repro.simulator.runner.spec import SimulationSpec

__all__ = [
    "AttemptOutcome",
    "BackendContext",
    "SweepBackend",
    "SerialBackend",
    "PoolBackend",
    "WorkerCrash",
    "BACKENDS",
    "resolve_backend_name",
    "execution_count",
]


#: In-process count of simulations actually executed (cache hits and
#: work done in worker processes do not increment it here).
_EXECUTIONS = 0


def execution_count() -> int:
    """How many simulations this process has executed via the runner.

    A warm-cache ``run_many`` leaves this unchanged -- the invariant the
    cache-hit tests assert.
    """
    return _EXECUTIONS


def _execute(spec: SimulationSpec) -> SimulationResult:
    """Run one spec in-process, counting the execution."""
    global _EXECUTIONS
    _EXECUTIONS += 1
    return spec.run()


def _execute_timed(spec: SimulationSpec) -> tuple[SimulationResult, float]:
    """Run one spec, returning the result and its wall seconds."""
    started = time.perf_counter()
    result = _execute(spec)
    return result, time.perf_counter() - started


def _execute_indexed(
    item: tuple[int, SimulationSpec]
) -> tuple[int, SimulationResult, float]:
    """Pool-worker entry point (module-level so it pickles)."""
    token, spec = item
    result, wall_seconds = _execute_timed(spec)
    return token, result, wall_seconds


class WorkerCrash(RuntimeError):
    """A worker process died while running a spec.

    Raised synthetically by a backend on behalf of the dead worker;
    retryable like any non-:class:`~repro.errors.ReproError` failure.
    """


@dataclass(frozen=True)
class AttemptOutcome:
    """What happened to one submitted execution attempt.

    Exactly one of three shapes: a completion (``result`` set), a
    charged failure (``error`` set), or an uncharged requeue
    (``requeue`` true -- the attempt was an innocent casualty of backend
    recovery, e.g. it shared a pool with a crashing spec, and must be
    resubmitted without burning a retry).  ``exclusive`` on a requeue
    asks the dispatch loop to re-run the attempt with nothing else in
    flight, so a repeat crash unambiguously names its culprit.
    """

    token: int
    result: SimulationResult | None = None
    error: BaseException | None = None
    wall_seconds: float = 0.0
    requeue: bool = False
    exclusive: bool = False


@dataclass
class BackendContext:
    """Everything a backend may need at :meth:`SweepBackend.open` time.

    ``workers`` is the parallelism the sweep resolved (already capped at
    the number of distinct specs).
    """

    workers: int
    tracer: Tracer = NULL_TRACER


class SweepBackend:
    """Abstract execution substrate for sweep attempts.

    Lifecycle: one ``open`` -> any number of ``submit`` / ``poll`` /
    ``cancel`` rounds -> one ``shutdown`` (always called, even on
    error).  Submissions are identified by an integer ``token`` chosen
    by the dispatch loop; a token is in flight from ``submit`` until an
    :class:`AttemptOutcome` for it is returned from ``poll`` or it is
    confirmed cancelled by ``cancel``.  Backends never retry and never
    interpret errors -- they report one outcome per attempt and leave
    charging to the dispatch loop.
    """

    #: Whether :meth:`cancel` can abandon a running attempt -- required
    #: to enforce per-execution timeouts.
    supports_timeout = False

    def __init__(self) -> None:
        #: Pool/worker teardowns performed for recovery (stats fodder).
        self.respawns = 0

    def open(self, context: BackendContext) -> None:
        """Acquire execution resources (worker processes)."""
        raise NotImplementedError

    def capacity(self) -> int | None:
        """How many additional submissions to accept now (None: any)."""
        raise NotImplementedError

    def submit(self, token: int, spec: SimulationSpec) -> None:
        """Start one execution attempt of ``spec`` under ``token``."""
        raise NotImplementedError

    def poll(self, timeout: float | None) -> list[AttemptOutcome]:
        """Outcomes that landed, blocking up to ``timeout`` seconds.

        ``None`` blocks until at least one outcome is available (the
        dispatch loop only passes ``None`` while work is in flight).
        May return an empty list on timeout expiry.
        """
        raise NotImplementedError

    def cancel(self, tokens: set[int]) -> set[int]:
        """Best-effort abandonment of in-flight attempts.

        Returns the subset actually cancelled (the dispatch loop
        charges those a timeout).  A token whose attempt already
        finished is *not* cancelled -- its real outcome arrives from the
        next ``poll``.  Innocent attempts a backend had to abandon as
        collateral are requeued via ``poll`` outcomes, uncharged.
        """
        return set()

    def shutdown(self) -> None:
        """Release all resources; in-flight attempts may be abandoned."""
        raise NotImplementedError


class SerialBackend(SweepBackend):
    """In-process execution: one attempt per poll, in submission order.

    No process isolation and no timeout support; what it offers is
    determinism (the :func:`execution_count` hook observes every
    execution) and zero fork overhead.  Backoff waits never block it:
    the dispatch loop keeps feeding other pending specs while a retry
    waits out its gate.
    """

    supports_timeout = False

    def __init__(self) -> None:
        super().__init__()
        self._queue: deque[tuple[int, SimulationSpec]] = deque()

    def open(self, context: BackendContext) -> None:
        """Nothing to acquire: attempts run in the calling process."""

    def capacity(self) -> int | None:
        """Unbounded: submissions just queue in order."""
        return None

    def submit(self, token: int, spec: SimulationSpec) -> None:
        """Append the attempt to the in-process FIFO."""
        self._queue.append((token, spec))

    def poll(self, timeout: float | None) -> list[AttemptOutcome]:
        """Execute the oldest queued attempt synchronously."""
        if not self._queue:
            if timeout:
                time.sleep(timeout)
            return []
        token, spec = self._queue.popleft()
        try:
            result, wall_seconds = _execute_timed(spec)
        except Exception as error:  # noqa: BLE001 -- charged, never silent
            return [AttemptOutcome(token=token, error=error)]
        return [AttemptOutcome(token=token, result=result, wall_seconds=wall_seconds)]

    def shutdown(self) -> None:
        """Drop anything still queued."""
        self._queue.clear()


class PoolBackend(SweepBackend):
    """The fault-tolerant ``ProcessPoolExecutor`` substrate.

    Keeps at most ``workers`` futures in flight (so every submitted
    future has a worker and submit time approximates start time, which
    the per-execution deadline is measured from), recovers from broken
    pools by respawning, and names crash culprits via solo isolation:
    when a pool break leaves more than one suspect, each is requeued
    *exclusive* so the dispatch loop re-runs them one at a time and only
    the spec that crashes alone is charged.
    """

    supports_timeout = True

    def __init__(self) -> None:
        super().__init__()
        self._executor: ProcessPoolExecutor | None = None
        self._inflight: dict[Future, int] = {}
        self._buffered: list[AttemptOutcome] = []
        self._workers = 1
        self._tracer: Tracer = NULL_TRACER

    def open(self, context: BackendContext) -> None:
        """Spawn the worker pool."""
        self._workers = context.workers
        self._tracer = context.tracer
        self._executor = ProcessPoolExecutor(max_workers=self._workers)

    def capacity(self) -> int | None:
        """Free worker slots (submissions are windowed to the pool)."""
        return max(0, self._workers - len(self._inflight))

    def submit(self, token: int, spec: SimulationSpec) -> None:
        """Submit one attempt; a pool found broken here is respawned.

        A break surfacing at submit time (a worker died after all its
        futures resolved) loses nothing in flight, so the attempt is
        requeued uncharged rather than treated as a crash suspect.
        """
        assert self._executor is not None
        try:
            future = self._executor.submit(_execute_indexed, (token, spec))
        except BrokenExecutor:
            self._respawn(reason="broken")
            self._buffered.append(AttemptOutcome(token=token, requeue=True))
            return
        self._inflight[future] = token

    def poll(self, timeout: float | None) -> list[AttemptOutcome]:
        """Harvest finished futures; recover from a broken pool."""
        outcomes = self._buffered
        self._buffered = []
        if not self._inflight:
            return outcomes
        done, _ = wait(set(self._inflight), timeout=timeout, return_when=FIRST_COMPLETED)
        suspects: list[int] = []
        broken = False
        for future in done:
            token = self._inflight.pop(future)
            try:
                _token, result, wall_seconds = future.result()
            except BrokenExecutor:
                broken = True
                suspects.append(token)
            except Exception as error:  # noqa: BLE001 -- charged, never silent
                outcomes.append(AttemptOutcome(token=token, error=error))
            else:
                outcomes.append(
                    AttemptOutcome(token=token, result=result, wall_seconds=wall_seconds)
                )
        if not broken:
            return outcomes
        # Everything still in flight rode the same dead pool: requeue it
        # alongside the futures that already surfaced the break.
        suspects.extend(self._inflight.values())
        self._inflight.clear()
        self._respawn(reason="broken")
        if len(suspects) == 1:
            # Alone in the pool: the crash is unambiguously its doing.
            outcomes.append(
                AttemptOutcome(token=suspects[0], error=WorkerCrash("worker process died"))
            )
        else:
            outcomes.extend(
                AttemptOutcome(token=token, requeue=True, exclusive=True)
                for token in suspects
            )
        return outcomes

    def cancel(self, tokens: set[int]) -> set[int]:
        """Abandon the pool holding the expired attempts.

        A hung worker cannot be cancelled individually, so the whole
        pool is torn down.  Attempts whose futures already finished are
        spared (their real outcomes are buffered); innocent in-flight
        attempts are requeued uncharged.
        """
        expired: set[int] = set()
        for future, token in list(self._inflight.items()):
            if token in tokens and not future.done():
                expired.add(token)
                del self._inflight[future]
        if not expired:
            return set()
        for future, token in self._inflight.items():
            if future.done():
                try:
                    _token, result, wall_seconds = future.result()
                except BrokenExecutor:
                    self._buffered.append(AttemptOutcome(token=token, requeue=True))
                except Exception as error:  # noqa: BLE001 -- charged, never silent
                    self._buffered.append(AttemptOutcome(token=token, error=error))
                else:
                    self._buffered.append(
                        AttemptOutcome(
                            token=token, result=result, wall_seconds=wall_seconds
                        )
                    )
            else:
                self._buffered.append(AttemptOutcome(token=token, requeue=True))
        self._inflight.clear()
        self._respawn(reason="timeout")
        return expired

    def shutdown(self) -> None:
        """Tear the pool down without joining workers that may hang."""
        if self._executor is not None:
            _abandon_pool(self._executor)
            self._executor = None
        self._inflight.clear()

    def _respawn(self, reason: str) -> None:
        """Abandon the current pool and stand up a fresh one."""
        assert self._executor is not None
        _abandon_pool(self._executor)
        self.respawns += 1
        if self._tracer.enabled:
            self._tracer.emit(PoolRespawned(reason=reason, respawns=self.respawns))
        self._executor = ProcessPoolExecutor(max_workers=self._workers)


def _abandon_pool(executor: ProcessPoolExecutor) -> None:
    """Tear down a pool without joining workers that may never exit.

    ``shutdown(wait=False)`` alone would leave a hung worker alive (and
    interpreter exit would join it); terminating the worker processes is
    the only way to reclaim them.  ``_processes`` is executor-internal,
    so absence is tolerated.
    """
    executor.shutdown(wait=False, cancel_futures=True)
    processes = getattr(executor, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except (OSError, ValueError):  # already dead / closed
            pass


#: Backend name -> class: the values ``run_many(backend=...)``,
#: ``$REPRO_BACKEND`` and the campaign CLI's ``--backend`` accept.
BACKENDS: dict[str, type[SweepBackend]] = {
    "serial": SerialBackend,
    "pool": PoolBackend,
}


def resolve_backend_name(
    backend: str | None = None,
    jobs: int = 1,
    timeout: float | None = None,
    environ=None,
) -> str:
    """The backend a sweep should use.

    Resolution order: the explicit argument, else ``$REPRO_BACKEND``,
    else the historical heuristic -- ``serial`` for ``jobs == 1`` with
    no timeout (deterministic in-process execution), ``pool`` otherwise
    (only a separate process can be abandoned mid-execution, and even a
    single-spec batch gets crash isolation under ``jobs > 1``).
    """
    if backend is None:
        env = os.environ if environ is None else environ
        backend = env.get("REPRO_BACKEND", "") or None
    if backend is None:
        backend = "serial" if (jobs == 1 and timeout is None) else "pool"
    if backend not in BACKENDS:
        known = ", ".join(sorted(BACKENDS))
        raise ConfigError(f"unknown sweep backend {backend!r} (known: {known})")
    return backend
