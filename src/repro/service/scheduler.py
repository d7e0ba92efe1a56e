"""The always-on scheduler: admission control, backpressure, stepping.

:class:`SchedulerService` wraps one :class:`~repro.simulator.session.
EngineSession` behind an asyncio front door.  All engine stepping
happens on a single worker task consuming a command queue, so the
engine -- which is single-threaded by design -- never sees concurrent
mutation; concurrency lives entirely in the transport.

Flow of one submission::

    client --> admission control --> command queue --> worker --> engine
               (sync, rejects       (bounded: the      (session.submit)
                bad requests)        backpressure
                                     limit)

Admission control rejects structurally bad requests *before* they cost
anything: unknown queues, over-long or over-wide jobs, arrivals in the
simulated past or beyond the service horizon, duplicate ids, capacity
caps.  Backpressure bounds the number of admitted-but-unprocessed
submissions at ``ServiceConfig.max_pending``; past the bound, ``submit``
either waits (optionally with a timeout) or rejects immediately.

Cancellation is only possible while a job is still in the command queue:
once the worker hands an arrival to the engine the decision is made and
the simulation's determinism guarantee forbids unwinding it.
"""

from __future__ import annotations

import asyncio
from array import array
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from repro.errors import ReproError
from repro.obs.events import (
    ServiceClockAdvanced,
    ServiceDrained,
    ServiceJobAdmitted,
    ServiceJobCancelled,
    ServiceJobRejected,
    ServiceStarted,
    ServiceStopped,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.service.config import ServiceConfig
from repro.simulator.results import SimulationResult
from repro.workload.job import Job

__all__ = ["AdmissionError", "JobView", "SchedulerService"]


class AdmissionError(ReproError):
    """A submission (or control request) the service refuses.

    ``reason`` is a stable machine-readable code; ``status`` the HTTP
    status the API layer maps it to (422 validation, 409 conflict,
    404 unknown, 429 capacity, 503 backpressure).
    """

    def __init__(self, reason: str, message: str, status: int = 422):
        super().__init__(message)
        self.reason = reason
        self.status = status


@dataclass
class JobView:
    """The service's record of one admitted job.

    ``run`` is the engine-internal run state, set once the worker hands
    the arrival to the engine; until then the job is cancellable.
    """

    job: Job
    cancelled: bool = False
    run: Any = None  # _RunState once the engine has seen the arrival

    @property
    def state(self) -> str:
        """Lifecycle state: queued -> waiting -> running -> finished."""
        if self.cancelled:
            return "cancelled"
        if self.run is None:
            return "queued"
        if self.run.finished:
            return "finished"
        if self.run.started:
            return "running"
        return "waiting"


@dataclass
class _Command:
    kind: str  # "submit" | "advance" | "drain"
    future: asyncio.Future
    job_id: int = -1
    job: Job | None = None
    minute: int = 0


_STOP = object()


def _finish_order(run: Any) -> tuple[int, int]:
    return run.finish, run.job.job_id


class _Ledger:
    """Finished jobs in ``(finish, job_id)`` order, each valued once.

    :meth:`fold` values only the runs the session finished since the
    previous fold, with the engine's own accounting kernel
    (:meth:`Engine.account`), and adds them to running totals.  Storage
    is columnar -- run states plus packed finish, carbon, energy and
    cost columns -- so a read builds row dicts only for its page.
    """

    def __init__(self) -> None:
        self.runs: list[Any] = []
        self.finish = array("q")
        self.carbon_g = array("d")
        self.energy_kwh = array("d")
        self.cost_usd = array("d")
        self.folded = 0  # prefix of the session's finished list seen so far
        self.totals = dict.fromkeys(
            ("jobs", "carbon_g", "energy_kwh", "cost_usd", "waiting_minutes"), 0.0
        )

    def fold(self, engine: Any, finished: Sequence[Any]) -> None:
        batch = finished[self.folded :]
        if not batch:
            return
        self.folded += len(batch)
        _, run_totals = engine.account(batch)
        entries = sorted(zip(batch, run_totals), key=lambda entry: _finish_order(entry[0]))
        totals = self.totals
        for run, (carbon_g, energy_kwh, cost_usd, _) in entries:
            totals["jobs"] += 1
            totals["carbon_g"] += carbon_g
            totals["energy_kwh"] += energy_kwh
            totals["cost_usd"] += cost_usd
            totals["waiting_minutes"] += run.finish - run.job.arrival - run.job.length
        columns = (self.finish, self.carbon_g, self.energy_kwh, self.cost_usd)
        if self.runs and _finish_order(entries[0][0]) < _finish_order(self.runs[-1]):
            # The batch sorts before the tail (a finish at an already
            # read minute): merge it in and rebuild the columns.
            kept = zip(self.runs, zip(self.carbon_g, self.energy_kwh, self.cost_usd))
            entries = sorted([*kept, *entries], key=lambda entry: _finish_order(entry[0]))
            self.runs.clear()
            for column in columns:
                del column[:]
        self.runs.extend(run for run, _ in entries)
        self.finish.extend(run.finish for run, _ in entries)
        for position, column in enumerate(columns[1:]):
            column.extend(values[position] for _, values in entries)

    def select(self, queue: str | None, since: int | None) -> Sequence[int]:
        """Ledger positions of the rows matching the filters, in order."""
        start = bisect_left(self.finish, since) if since is not None else 0
        positions = range(start, len(self.runs))
        if queue is None:
            return positions
        runs = self.runs
        return [index for index in positions if runs[index].job.queue == queue]

    def row(self, index: int, detail: bool) -> dict[str, Any]:
        run = self.runs[index]
        job = run.job
        row: dict[str, Any] = {
            "job_id": job.job_id,
            "queue": job.queue,
            "arrival": job.arrival,
            "finish": run.finish,
            "waiting_minutes": run.finish - job.arrival - job.length,
        }
        if detail:
            row["carbon_g"] = self.carbon_g[index]
            row["energy_kwh"] = self.energy_kwh[index]
            row["cost_usd"] = self.cost_usd[index]
            row["evictions"] = run.evictions
        return row


class SchedulerService:
    """One always-on scheduler over one engine session.

    Lifecycle: construct, :meth:`start`, serve (submit / advance /
    cancel / accounting), :meth:`drain` for the authoritative result,
    :meth:`stop`.  All methods must be called from the event loop that
    ran :meth:`start`.
    """

    def __init__(self, config: ServiceConfig, tracer: Tracer | None = None):
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._engine = None
        self._session = None
        self._commands: asyncio.Queue[Any] | None = None
        self._worker: asyncio.Task[None] | None = None
        self._paused: asyncio.Event | None = None
        self._slot_free: asyncio.Event | None = None
        self._pending_submissions = 0
        self._views: dict[int, JobView] = {}
        self._auto_id = 0
        self._arrival_cursor = 0
        self._admitted = 0
        self._rejected = 0
        self._cancelled = 0
        self._result: SimulationResult | None = None
        # The drained result's digest, hashed once at drain: the event, the
        # drain payload and every post-drain accounting read carry it.
        self._digest: str | None = None
        self._ledger = _Ledger()
        self.state = "created"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Open the engine session and start the worker task."""
        if self.state != "created":
            raise AdmissionError(
                "bad_state", f"cannot start a {self.state} service", 409
            )
        self._engine = self.config.engine(tracer=self.tracer)
        self._session = self._engine.open()
        self._commands = asyncio.Queue()
        self._paused = asyncio.Event()
        self._paused.set()
        self._slot_free = asyncio.Event()
        self._slot_free.set()
        self._worker = asyncio.create_task(self._run(), name="repro-service-worker")
        self.state = "running"
        self.tracer.emit(
            ServiceStarted(
                policy=self._engine.policy.name,
                region=self._engine.carbon.name,
                reserved_cpus=self.config.reserved_cpus,
                max_pending=self.config.max_pending,
                horizon=self.config.horizon_minutes,
            )
        )

    async def stop(self) -> None:
        """Stop the worker and close the service (idempotent).

        Stopping does not drain: an undrained stop discards in-flight
        simulation state.  Call :meth:`drain` first for the result.
        """
        if self.state == "stopped":
            return
        if self._worker is not None:
            assert self._commands is not None
            self._commands.put_nowait(_STOP)
            self.resume()  # a paused worker must still see the sentinel
            await self._worker
            self._worker = None
        self.tracer.emit(
            ServiceStopped(
                jobs_submitted=self._admitted,
                jobs_rejected=self._rejected,
                drained=self._result is not None,
            )
        )
        self.state = "stopped"

    def pause(self) -> None:
        """Suspend the worker between commands (maintenance / tests).

        Admission and enqueueing continue; engine stepping stops, so
        the command queue fills and backpressure becomes observable.
        """
        if self._paused is not None:
            self._paused.clear()

    def resume(self) -> None:
        """Resume a paused worker."""
        if self._paused is not None:
            self._paused.set()

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        assert self._commands is not None and self._paused is not None
        while True:
            command = await self._commands.get()
            if command is _STOP:
                break
            if not self._paused.is_set():
                await self._paused.wait()
            try:
                payload = self._handle(command)
            except Exception as exc:
                if not command.future.done():
                    command.future.set_exception(exc)
            else:
                if not command.future.done():
                    command.future.set_result(payload)
            finally:
                if command.kind == "submit":
                    self._pending_submissions -= 1
                    assert self._slot_free is not None
                    self._slot_free.set()

    def _handle(self, command: _Command) -> dict[str, Any]:
        session = self._session
        assert session is not None
        if command.kind == "submit":
            view = self._views[command.job_id]
            if view.cancelled:
                return self._job_payload(view)
            assert command.job is not None
            view.run = session.submit(command.job)
            return self._job_payload(view)
        if command.kind == "advance":
            before = session.now
            session.advance_to(command.minute)
            self.tracer.emit(
                ServiceClockAdvanced(
                    time=session.now,
                    from_time=before,
                    pending=session.pending_events,
                )
            )
            return {
                "now": session.now,
                "from": before,
                "pending_events": session.pending_events,
            }
        if command.kind == "drain":
            if self._result is None:
                result = session.drain()
                self._result = result
                self._digest = result.digest()
                self.tracer.emit(
                    ServiceDrained(
                        time=session.now,
                        jobs=result.total_jobs,
                        carbon_g=result.total_carbon_g,
                        cost_usd=result.total_cost,
                        digest=self._digest,
                    )
                )
            self.state = "drained"
            return self._drain_payload()
        raise AdmissionError("bad_command", f"unknown command {command.kind!r}", 500)

    def _drain_payload(self) -> dict[str, Any]:
        assert self._result is not None and self._session is not None
        return {
            "now": self._session.now,
            "jobs": self._result.total_jobs,
            "digest": self._digest,
            "summary": self._result.summary(),
        }

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    def _reject(
        self, reason: str, message: str, status: int, job_id: int = -1
    ) -> AdmissionError:
        self._rejected += 1
        self.tracer.emit(
            ServiceJobRejected(
                time=self._now(), job_id=job_id, reason=reason, status=status
            )
        )
        return AdmissionError(reason, message, status)

    def _now(self) -> int:
        return self._session.now if self._session is not None else 0

    def _admit(
        self,
        length: int,
        cpus: int,
        queue: str,
        arrival: int | None,
        job_id: int | None,
    ) -> Job:
        """Validate one submission and mint its :class:`Job` (sync).

        Raises :class:`AdmissionError` with a stable reason code; on
        success the arrival cursor and id counter have advanced and the
        returned job is ready to enqueue.
        """
        if self.state != "running":
            raise self._reject(
                "not_running", f"service is {self.state}, not accepting jobs", 409
            )
        if self._admitted >= self.config.max_jobs:
            raise self._reject(
                "capacity",
                f"service accepted its maximum of {self.config.max_jobs} jobs",
                429,
            )
        if not isinstance(length, int) or length < 1:
            raise self._reject("bad_length", "length must be a positive integer", 422)
        if not isinstance(cpus, int) or cpus < 1:
            raise self._reject("bad_cpus", "cpus must be a positive integer", 422)
        if cpus > self.config.max_cpus:
            raise self._reject(
                "too_wide",
                f"cpus {cpus} exceeds the per-job limit {self.config.max_cpus}",
                422,
            )
        queues = self._engine.queues if self._engine is not None else None
        assert queues is not None
        if queue:
            routed = next((q for q in queues if q.name == queue), None)
            if routed is None:
                known = ", ".join(q.name for q in queues)
                raise self._reject(
                    "unknown_queue", f"unknown queue {queue!r}; queues: {known}", 422
                )
            if length > routed.max_length:
                raise self._reject(
                    "too_long",
                    f"length {length} exceeds queue {queue!r} bound "
                    f"{routed.max_length}",
                    422,
                )
        else:
            if length > queues.longest.max_length:
                raise self._reject(
                    "too_long",
                    f"length {length} exceeds the longest queue bound "
                    f"{queues.longest.max_length}",
                    422,
                )
            routed = queues.queue_for_length(length)
        cursor = max(self._arrival_cursor, self._now())
        if arrival is None:
            arrival = cursor
        elif arrival < cursor:
            raise self._reject(
                "arrival_past",
                f"arrival {arrival} is before the service clock {cursor}",
                409,
            )
        if arrival > self.config.horizon_minutes:
            raise self._reject(
                "beyond_horizon",
                f"arrival {arrival} is past the service horizon "
                f"{self.config.horizon_minutes}",
                422,
            )
        if job_id is None:
            while self._auto_id in self._views:
                self._auto_id += 1
            job_id = self._auto_id
            self._auto_id += 1
        elif job_id in self._views:
            raise self._reject(
                "duplicate_id", f"job id {job_id} already submitted", 409, job_id
            )
        self._arrival_cursor = arrival
        return Job(
            job_id=job_id, arrival=arrival, length=length, cpus=cpus, queue=routed.name
        )

    async def _acquire_slot(self) -> None:
        assert self._slot_free is not None
        while self._pending_submissions >= self.config.max_pending:
            self._slot_free.clear()
            await self._slot_free.wait()

    # ------------------------------------------------------------------
    # Public API (one method per endpoint)
    # ------------------------------------------------------------------
    async def submit(
        self,
        length: int,
        cpus: int = 1,
        queue: str = "",
        arrival: int | None = None,
        job_id: int | None = None,
        wait: bool = True,
        timeout: float | None = None,
    ) -> dict[str, Any]:
        """Admit one job and return its scheduling outcome.

        Backpressure first: with ``wait`` (the default) the call blocks
        until the command queue has room, up to ``timeout`` seconds;
        without it a full queue rejects immediately.  Then admission
        control, then the worker round-trip -- the returned payload
        includes the policy's planned start.
        """
        if wait:
            try:
                await asyncio.wait_for(self._acquire_slot(), timeout)
            except asyncio.TimeoutError:  # noqa: UP041  (builtin alias only on 3.11+)
                raise self._reject(
                    "queue_full",
                    f"command queue held {self.config.max_pending} submissions "
                    f"for {timeout}s",
                    503,
                ) from None
        elif self._pending_submissions >= self.config.max_pending:
            raise self._reject(
                "queue_full",
                f"command queue full ({self.config.max_pending} submissions pending)",
                503,
            )
        # No await between admission and enqueue: the slot acquired
        # above cannot be stolen, and the arrival cursor cannot move.
        job = self._admit(length, cpus, queue, arrival, job_id)
        self._pending_submissions += 1
        self._admitted += 1
        view = JobView(job=job)
        self._views[job.job_id] = view
        self.tracer.emit(
            ServiceJobAdmitted(
                time=job.arrival,
                job_id=job.job_id,
                queue=job.queue,
                cpus=job.cpus,
                length=job.length,
            )
        )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        assert self._commands is not None
        self._commands.put_nowait(
            _Command(kind="submit", future=future, job_id=job.job_id, job=job)
        )
        return await future

    def status(self, job_id: int) -> dict[str, Any]:
        """One job's current state and scheduling outcome."""
        view = self._views.get(job_id)
        if view is None:
            raise AdmissionError("unknown_job", f"unknown job id {job_id}", 404)
        return self._job_payload(view)

    def jobs(self, state: str | None = None, limit: int = 100) -> dict[str, Any]:
        """List jobs in submission order, optionally filtered by state."""
        views = list(self._views.values())
        if state is not None:
            views = [view for view in views if view.state == state]
        total = len(views)
        return {
            "total": total,
            "jobs": [self._job_payload(view) for view in views[:limit]],
        }

    def cancel(self, job_id: int) -> dict[str, Any]:
        """Cancel a still-queued job (idempotent for cancelled jobs).

        Jobs the engine has scheduled are immutable history -- the
        decision is part of the deterministic simulation -- so only
        jobs still in the command queue can be cancelled (409 after).
        """
        view = self._views.get(job_id)
        if view is None:
            raise AdmissionError("unknown_job", f"unknown job id {job_id}", 404)
        if view.cancelled:
            return self._job_payload(view)
        if view.run is not None:
            raise AdmissionError(
                "already_scheduled",
                f"job {job_id} is {view.state}; only queued jobs can be cancelled",
                409,
            )
        view.cancelled = True
        self._cancelled += 1
        self.tracer.emit(ServiceJobCancelled(time=self._now(), job_id=job_id))
        return self._job_payload(view)

    async def advance_to(self, minute: int) -> dict[str, Any]:
        """Let simulated time pass to ``minute`` (fires due events)."""
        if self.state != "running":
            raise AdmissionError(
                "not_running", f"service is {self.state}", 409
            )
        if minute < self._now():
            raise AdmissionError(
                "time_travel",
                f"cannot advance to {minute}: clock already at {self._now()}",
                409,
            )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        assert self._commands is not None
        self._commands.put_nowait(_Command(kind="advance", future=future, minute=minute))
        return await future

    async def drain(self) -> dict[str, Any]:
        """Run the session dry and build the authoritative result.

        After drain the service stops admitting; accounting switches to
        the drained :class:`SimulationResult`, whose digest is the
        batch-equivalence guarantee (see ``docs/service.md``).
        """
        if self.state == "drained":
            return self._drain_payload()
        if self.state != "running":
            raise AdmissionError("not_running", f"service is {self.state}", 409)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        assert self._commands is not None
        self._commands.put_nowait(_Command(kind="drain", future=future))
        return await future

    @property
    def result(self) -> SimulationResult | None:
        """The drained result, or ``None`` before :meth:`drain`."""
        return self._result

    # ------------------------------------------------------------------
    # Read models
    # ------------------------------------------------------------------
    def _job_payload(self, view: JobView) -> dict[str, Any]:
        job = view.job
        payload: dict[str, Any] = {
            "job_id": job.job_id,
            "queue": job.queue,
            "arrival": job.arrival,
            "length": job.length,
            "cpus": job.cpus,
            "state": view.state,
        }
        run = view.run
        if run is not None:
            payload["planned_start"] = run.decision.start_time
            payload["use_spot"] = run.decision.use_spot
            payload["first_start"] = run.first_start
            payload["finish"] = run.finish
            payload["evictions"] = run.evictions
            if run.finished and run.finish is not None:
                payload["waiting_minutes"] = run.finish - job.arrival - job.length
        return payload

    def _totals(self) -> dict[str, float]:
        """Fold newly finished jobs into the ledger; return the totals.

        After drain the carbon, energy and cost totals are the
        authoritative result's (summed in record order).
        """
        if self._session is not None:
            self._ledger.fold(self._engine, self._session.finished)
        totals = dict(self._ledger.totals)
        if self._result is not None:
            totals["carbon_g"] = self._result.total_carbon_g
            totals["energy_kwh"] = self._result.total_energy_kwh
            totals["cost_usd"] = self._result.metered_cost
        return totals

    def accounting(
        self,
        queue: str | None = None,
        since: int | None = None,
        limit: int = 100,
        detail: bool = False,
    ) -> dict[str, Any]:
        """Read-only accounting over finished jobs, in (finish, job_id) order.

        Rows come from the ledger, whose values equal the finished jobs'
        :class:`JobRecord` fields bit for bit, before drain and after;
        after drain the payload also carries the accounting ``digest``.
        Filters: ``queue`` (exact name), ``since`` (finish minute >=
        since), ``limit`` rows; ``detail`` adds the carbon/energy/cost
        columns.
        """
        totals = self._totals()
        selected = self._ledger.select(queue, since)
        payload: dict[str, Any] = {
            "drained": self._result is not None,
            "now": self._now(),
            "totals": totals,
            "total_rows": len(selected),
            "jobs": [self._ledger.row(index, detail) for index in selected[:limit]],
        }
        if self._result is not None:
            payload["digest"] = self._digest
        return payload

    def metrics(self) -> dict[str, Any]:
        """Live metrics snapshot (``MetricsRegistry.snapshot`` shape)."""
        registry = MetricsRegistry()
        registry.counter("service.jobs_admitted", self._admitted)
        registry.counter("service.jobs_rejected", self._rejected)
        registry.counter("service.jobs_cancelled", self._cancelled)
        states = {"queued": 0, "waiting": 0, "running": 0, "finished": 0, "cancelled": 0}
        for view in self._views.values():
            states[view.state] += 1
        for name, count in states.items():
            registry.gauge(f"service.jobs_{name}", float(count))
        registry.gauge("service.clock_minute", float(self._now()))
        registry.gauge("service.pending_submissions", float(self._pending_submissions))
        session = self._session
        registry.gauge(
            "service.pending_events",
            float(session.pending_events) if session is not None else 0.0,
        )
        totals = self._totals()
        registry.gauge("service.carbon_g", totals["carbon_g"])
        registry.gauge("service.energy_kwh", totals["energy_kwh"])
        registry.gauge("service.cost_usd", totals["cost_usd"])
        finished_jobs = totals["jobs"]
        registry.gauge(
            "service.mean_wait_minutes",
            totals["waiting_minutes"] / finished_jobs if finished_jobs else 0.0,
        )
        return registry.snapshot()

    def health(self) -> dict[str, Any]:
        """Liveness payload: state, clock, config identity."""
        return {
            "state": self.state,
            "now": self._now(),
            "policy": self.config.policy,
            "region": self.config.region,
            "jobs_admitted": self._admitted,
            "jobs_rejected": self._rejected,
            "pending_submissions": self._pending_submissions,
            "horizon": self.config.horizon_minutes,
        }
