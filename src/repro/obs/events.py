"""Typed trace events: the vocabulary of the telemetry contract.

Every event is a frozen dataclass with JSON-native fields; a trace is a
stream of events serialized one-per-line (JSONL) by
:class:`repro.obs.tracer.JsonlTracer`.  The wire form of an event is its
field dict plus a ``"type"`` discriminator, so
``event_from_dict(event.to_dict())`` round-trips exactly -- the schema
test relies on it.

Field conventions (details and a worked example per event live in
``docs/observability.md``):

* ``time`` -- integer simulation minute (never wall-clock);
* ``option`` -- lowercase purchase-option name (``"reserved"``,
  ``"on_demand"``, ``"spot"``);
* carbon intensities are in g/kWh, energy in kWh, carbon masses in
  grams, costs in USD, electricity prices in the price series' native
  $/MWh.

This module is dependency-free by design (stdlib only): the tracer can
be imported anywhere -- engine, policies, runner -- without cycles.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, ClassVar

__all__ = [
    "Event",
    "EVENT_TYPES",
    "event_from_dict",
    "RunMeta",
    "JobArrival",
    "PolicyDecision",
    "CandidateWindow",
    "JobStart",
    "JobEvict",
    "JobFinish",
    "IntervalAccount",
    "MetricsSnapshot",
    "SweepSubmitted",
    "SweepCompleted",
    "SpecRetried",
    "SpecFailed",
    "PoolRespawned",
    "BackendOpened",
    "BackendClosed",
    "CampaignCreated",
    "CampaignResumed",
    "CampaignCompleted",
    "FederationRouted",
    "FederationCompleted",
    "ScalingPlanned",
    "ServiceStarted",
    "ServiceJobAdmitted",
    "ServiceJobRejected",
    "ServiceJobCancelled",
    "ServiceClockAdvanced",
    "ServiceDrained",
    "ServiceStopped",
]


@dataclass(frozen=True)
class Event:
    """Base class for all trace events.

    Subclasses set the class attribute ``type`` (the wire
    discriminator) and register themselves in :data:`EVENT_TYPES` via
    the :func:`_register` decorator.
    """

    type: ClassVar[str] = "event"

    def to_dict(self) -> dict[str, Any]:
        """The JSON-serializable wire form: fields plus ``"type"``."""
        payload: dict[str, Any] = {"type": self.type}
        payload.update(dataclasses.asdict(self))
        return payload


#: Wire discriminator -> event class, for parsing traces back.
EVENT_TYPES: dict[str, type[Event]] = {}


def _register(event_class: type[Event]) -> type[Event]:
    """Class decorator adding an event type to :data:`EVENT_TYPES`."""
    EVENT_TYPES[event_class.type] = event_class
    return event_class


def event_from_dict(payload: dict[str, Any]) -> Event:
    """Rebuild a typed event from its wire form.

    Raises ``KeyError`` for an unknown ``"type"`` and ``TypeError`` for
    missing or unexpected fields -- strict on purpose, so the schema
    round-trip test catches contract drift.
    """
    fields = dict(payload)
    event_class = EVENT_TYPES[fields.pop("type")]
    return event_class(**fields)


@_register
@dataclass(frozen=True)
class RunMeta(Event):
    """Header event identifying one simulation run.

    Emitted once, first, by the engine; ``summarize`` groups decision
    counts under the ``policy`` named here.
    """

    type: ClassVar[str] = "run_meta"

    policy: str
    workload: str
    region: str
    reserved_cpus: int
    horizon: int


@_register
@dataclass(frozen=True)
class JobArrival(Event):
    """A job entered the system at its trace arrival minute."""

    type: ClassVar[str] = "job_arrival"

    time: int
    job_id: int
    queue: str
    cpus: int
    length: int


@_register
@dataclass(frozen=True)
class PolicyDecision(Event):
    """The policy's scheduling decision for one job, with its inputs.

    ``arrival_ci_g_per_kwh`` / ``start_ci_g_per_kwh`` are the true
    hourly carbon intensity at the arrival minute and at the chosen
    start minute; ``start_price_usd_per_mwh`` is the electricity price
    at the chosen start when a price series is configured, else
    ``None``.  ``memoized`` marks decisions served from the engine's
    decision memo rather than a fresh ``Policy.decide`` call.
    """

    type: ClassVar[str] = "policy_decision"

    time: int
    job_id: int
    policy: str
    start_time: int
    use_spot: bool
    reserved_pickup: bool
    num_segments: int
    memoized: bool
    arrival_ci_g_per_kwh: float
    start_ci_g_per_kwh: float
    start_price_usd_per_mwh: float | None = None


@_register
@dataclass(frozen=True)
class CandidateWindow(Event):
    """One candidate-start search performed by a window policy.

    Emitted by :meth:`SchedulingContext.candidate_starts`: the search
    ranged over ``num_candidates`` start minutes in ``[time, latest]``
    for a job expected to hold its window for ``hold_minutes``.
    """

    type: ClassVar[str] = "candidate_window"

    time: int
    latest: int
    num_candidates: int
    hold_minutes: int


@_register
@dataclass(frozen=True)
class JobStart(Event):
    """One allocation began executing (initial start, restart, segment).

    ``attempt`` counts spot allocations made for the job so far (0 for
    non-spot allocations before any spot attempt); ``duration`` is the
    planned wall minutes of this allocation, including checkpoint
    overhead on spot.
    """

    type: ClassVar[str] = "job_start"

    time: int
    job_id: int
    option: str
    duration: int
    attempt: int


@_register
@dataclass(frozen=True)
class JobEvict(Event):
    """A spot revocation hit a running allocation.

    ``lost_cpu_minutes`` and ``preserved_minutes`` are this eviction's
    alone (cpu-minutes of progress lost; minutes saved by checkpoints);
    ``evictions`` is the job's cumulative eviction count.
    """

    type: ClassVar[str] = "job_evict"

    time: int
    job_id: int
    lost_cpu_minutes: float
    preserved_minutes: int
    evictions: int


@_register
@dataclass(frozen=True)
class JobFinish(Event):
    """A job completed all of its work."""

    type: ClassVar[str] = "job_finish"

    time: int
    job_id: int
    waiting_minutes: int
    evictions: int


@_register
@dataclass(frozen=True)
class IntervalAccount(Event):
    """Accounting snapshot of one closed usage interval.

    The metered values are exactly the engine's vectorized per-interval
    accounting (``Engine.account``): carbon from the true
    trace, energy from the cluster energy model, cost at the option's
    hourly rate (0 for reserved).  Boot-overhead surcharges are per-job,
    not per-interval, and appear only in ``JobRecord``.
    """

    type: ClassVar[str] = "interval_account"

    job_id: int
    start: int
    end: int
    cpus: int
    option: str
    carbon_g: float
    energy_kwh: float
    cost_usd: float


@_register
@dataclass(frozen=True)
class MetricsSnapshot(Event):
    """A metrics-registry snapshot (see :mod:`repro.obs.metrics`).

    ``scope`` names the emitting component (``"engine"``, ``"runner"``);
    ``metrics`` is the ``MetricsRegistry.snapshot()`` mapping.
    """

    type: ClassVar[str] = "metrics_snapshot"

    scope: str
    metrics: dict[str, Any]


@_register
@dataclass(frozen=True)
class SweepSubmitted(Event):
    """A ``run_many`` batch was planned: how much work remains after
    cache hits and in-batch deduplication."""

    type: ClassVar[str] = "sweep_submitted"

    total: int
    executed: int
    cache_hits: int
    deduplicated: int
    jobs: int


@_register
@dataclass(frozen=True)
class SweepCompleted(Event):
    """A ``run_many`` batch finished; ``wall_seconds`` is the whole
    batch's wall time including cache lookups."""

    type: ClassVar[str] = "sweep_completed"

    total: int
    executed: int
    cache_hits: int
    deduplicated: int
    jobs: int
    wall_seconds: float


@_register
@dataclass(frozen=True)
class SpecRetried(Event):
    """One spec's execution attempt failed and will be retried.

    ``attempt`` is the attempt that just failed (1-based);
    ``delay_seconds`` the backoff before the next attempt;
    ``error_type`` the exception class name (``"TimeoutError"`` for a
    deadline expiry, ``"WorkerCrash"`` for a pool-breaking death).
    """

    type: ClassVar[str] = "spec_retried"

    index: int
    digest_prefix: str
    attempt: int
    error_type: str
    delay_seconds: float


@_register
@dataclass(frozen=True)
class SpecFailed(Event):
    """One spec exhausted its attempts (or hit a fail-fast error).

    Mirrors one entry of the batch's ``RunStats.failures`` report;
    ``attempts`` counts executions actually charged to the spec.
    """

    type: ClassVar[str] = "spec_failed"

    index: int
    digest_prefix: str
    error_type: str
    message: str
    attempts: int


@_register
@dataclass(frozen=True)
class PoolRespawned(Event):
    """The worker pool was torn down and respawned mid-batch.

    ``reason`` is ``"broken"`` (a worker died, breaking the pool) or
    ``"timeout"`` (a hung worker was abandoned); ``respawns`` is the
    batch's cumulative respawn count.
    """

    type: ClassVar[str] = "pool_respawned"

    reason: str
    respawns: int


@_register
@dataclass(frozen=True)
class BackendOpened(Event):
    """A sweep backend acquired its execution resources.

    Emitted by ``run_many`` once per batch that dispatches work;
    ``backend`` is the backend name (``"serial"`` or ``"pool"``) and
    ``workers`` the parallelism it was opened with (already capped at
    the distinct-spec count).
    """

    type: ClassVar[str] = "runner.backend.opened"

    backend: str
    workers: int


@_register
@dataclass(frozen=True)
class BackendClosed(Event):
    """A sweep backend released its resources at the end of a batch.

    ``executed`` counts the attempts that completed with a result;
    ``respawns`` the worker/pool replacements recovery performed.
    """

    type: ClassVar[str] = "runner.backend.closed"

    backend: str
    executed: int
    respawns: int


@_register
@dataclass(frozen=True)
class CampaignCreated(Event):
    """A campaign directory was initialized from a spec list.

    ``total`` counts submitted specs, ``distinct`` unique digests --
    the campaign executes each distinct digest once and aliases the
    rest (the same in-batch dedup contract as ``run_many``).
    """

    type: ClassVar[str] = "campaign.created"

    name: str
    total: int
    distinct: int


@_register
@dataclass(frozen=True)
class CampaignResumed(Event):
    """A campaign run started from its journal.

    ``completed`` is the number of distinct digests already journaled
    complete (with readable result files); ``remaining`` the distinct
    digests still to execute.  A fresh campaign emits this with
    ``completed=0``.
    """

    type: ClassVar[str] = "campaign.resumed"

    name: str
    completed: int
    remaining: int


@_register
@dataclass(frozen=True)
class CampaignCompleted(Event):
    """A campaign run finished (not necessarily the whole campaign).

    ``executed`` counts the distinct digests this run dispatched,
    ``failed`` those that exhausted recovery, and ``remaining`` the
    distinct digests still incomplete afterwards (nonzero when the run
    was limited or failures remain).
    """

    type: ClassVar[str] = "campaign.completed"

    name: str
    executed: int
    failed: int
    remaining: int


@_register
@dataclass(frozen=True)
class FederationRouted(Event):
    """A federated run finished routing jobs to regions.

    Emitted once per federated simulation, after the selector placed
    every job and before any region's engine ran.  ``migrated`` counts
    off-home placements; ``migration_minutes`` is the per-job staging
    delay those placements paid (0 when dropped by the
    ``migration-drop`` fault).
    """

    type: ClassVar[str] = "federation.routed"

    selector: str
    home: str
    regions: int
    jobs: int
    migrated: int
    migration_minutes: int


@_register
@dataclass(frozen=True)
class FederationCompleted(Event):
    """A federated run finished every region's engine and merged
    the accounting.

    ``carbon_kg`` / ``cost_usd`` are the federation totals (sums over
    regions); ``jobs`` counts executed records across all regions.
    """

    type: ClassVar[str] = "federation.completed"

    selector: str
    policy: str
    regions: int
    jobs: int
    migrated: int
    carbon_kg: float
    cost_usd: float


@_register
@dataclass(frozen=True)
class ScalingPlanned(Event):
    """A malleable-job scaling plan was computed.

    ``speedup`` and ``mode`` are the declarative tags of
    :class:`repro.scaling.spec.ScalingSpec` rendered as strings (e.g.
    ``"amdahl:0.9"``, ``"greedy"`` or ``"fixed:4"``); ``peak_cpus`` and
    ``cpu_minutes`` summarize the allocation shape.
    """

    type: ClassVar[str] = "scaling.planned"

    speedup: str
    mode: str
    work: float
    deadline: int
    peak_cpus: int
    cpu_minutes: float
    carbon_g: float
    energy_kwh: float


@_register
@dataclass(frozen=True)
class ServiceStarted(Event):
    """The scheduler service opened its engine session and began
    accepting submissions.

    ``policy`` / ``region`` identify the configured engine;
    ``max_pending`` is the bounded command-queue size (the backpressure
    limit) and ``horizon`` the last admissible arrival minute.
    """

    type: ClassVar[str] = "service.started"

    policy: str
    region: str
    reserved_cpus: int
    max_pending: int
    horizon: int


@_register
@dataclass(frozen=True)
class ServiceJobAdmitted(Event):
    """A submission passed admission control and was enqueued.

    ``time`` is the arrival minute assigned to the job (the service
    clock if the client did not pin one); ``queue`` the routed queue.
    """

    type: ClassVar[str] = "service.job_admitted"

    time: int
    job_id: int
    queue: str
    cpus: int
    length: int


@_register
@dataclass(frozen=True)
class ServiceJobRejected(Event):
    """A submission failed admission control or hit backpressure.

    ``reason`` is a stable machine-readable code (for example
    ``"queue_full"``, ``"too_long"``, ``"arrival_past"``); ``status``
    the HTTP status the API maps it to.  ``job_id`` is -1 when the
    submission was rejected before an id could be assigned.
    """

    type: ClassVar[str] = "service.job_rejected"

    time: int
    job_id: int
    reason: str
    status: int


@_register
@dataclass(frozen=True)
class ServiceJobCancelled(Event):
    """A queued job was cancelled before the engine scheduled it.

    Only jobs still waiting in the command queue are cancellable; the
    engine never sees them, so accounting is untouched.
    """

    type: ClassVar[str] = "service.job_cancelled"

    time: int
    job_id: int


@_register
@dataclass(frozen=True)
class ServiceClockAdvanced(Event):
    """The service clock moved forward without an arrival.

    ``pending`` is the number of dynamic events (finishes, evictions,
    starts) still outstanding after advancing from ``from_time`` to
    ``time``.
    """

    type: ClassVar[str] = "service.clock_advanced"

    time: int
    from_time: int
    pending: int


@_register
@dataclass(frozen=True)
class ServiceDrained(Event):
    """The session was drained: the event loop ran dry and the
    authoritative :class:`~repro.simulator.results.SimulationResult`
    was built.  ``digest`` is its accounting digest -- the value the
    batch-equivalence guarantee is stated over.
    """

    type: ClassVar[str] = "service.drained"

    time: int
    jobs: int
    carbon_g: float
    cost_usd: float
    digest: str


@_register
@dataclass(frozen=True)
class ServiceStopped(Event):
    """The service shut down; ``drained`` records whether the session
    was drained first (an undrained stop discards in-flight state)."""

    type: ClassVar[str] = "service.stopped"

    jobs_submitted: int
    jobs_rejected: int
    drained: bool
