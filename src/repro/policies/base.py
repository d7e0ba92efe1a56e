"""Policy interface shared by all GAIA scheduling policies.

A policy sees a job **only at its arrival** and returns a
:class:`Decision`: either a single start time (uninterruptible execution,
the GAIA model) or an explicit list of execution segments (suspend-resume
baselines such as Wait Awhile and Ecovisor).  The decision may also mark
the job as eligible for *work-conserving reserved pickup* (RES-First) or
as preferring *spot* capacity (Spot-First).

Knowledge discipline: policies receive the job's queue (bounding its
length and waiting time) and may use the queue's historical average
length, but must not read ``job.length`` unless the class explicitly sets
``requires_job_length = True`` (only Wait Awhile does, mirroring the
paper's Table 1).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.carbon.forecast import Forecaster
from repro.errors import SchedulingError
from repro.obs.events import CandidateWindow
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.units import MINUTES_PER_HOUR
from repro.workload.job import Job, JobQueue, QueueSet

__all__ = ["Decision", "SchedulingContext", "Policy", "validate_decision"]


@dataclass(frozen=True)
class Decision:
    """A policy's scheduling decision for one job.

    Attributes
    ----------
    start_time:
        Minute at which execution (first) begins; must lie within
        ``[arrival, arrival + W]`` for the job's queue.
    segments:
        Explicit ``(start, end)`` execution intervals for suspend-resume
        policies; their total duration must equal the job's true length.
        ``None`` means contiguous execution of the whole job from
        ``start_time``.
    use_spot:
        Prefer a spot instance for the initial execution.
    reserved_pickup:
        Work-conserving flag: the job may start *early* (before
        ``start_time``) whenever a reserved instance frees up.
    """

    start_time: int
    segments: tuple[tuple[int, int], ...] | None = None
    use_spot: bool = False
    reserved_pickup: bool = False


@dataclass
class SchedulingContext:
    """Everything a policy may consult when deciding.

    Attributes
    ----------
    forecaster:
        The Carbon Information Service view (perfect by default).
    queues:
        The cluster's queue configuration (bounds and averages).
    carbon_horizon:
        Last minute covered by the CI data; candidate windows are clipped
        so planned executions stay inside it.
    granularity:
        Spacing in minutes between candidate start times considered by
        window-optimizing policies.  1 is exact; the default 5 is within
        a fraction of a percent of exact at a fifth of the cost (see the
        granularity ablation benchmark).
    """

    forecaster: Forecaster
    queues: QueueSet
    carbon_horizon: int = field(default=0)
    granularity: int = 5
    #: Optional online length estimator; when set it supersedes the
    #: queues' static historical averages (see workload.estimation).
    estimator: object | None = None
    #: Optional Forecaster over an electricity-price series, consumed by
    #: the price-aware policies (paper Section 7).
    price_forecaster: Forecaster | None = None
    #: Observability sink shared with the engine (``docs/observability.md``);
    #: the no-op null tracer by default, so emission sites cost one
    #: attribute check when tracing is off.
    tracer: Tracer = NULL_TRACER

    def __post_init__(self) -> None:
        if self.carbon_horizon <= 0:
            self.carbon_horizon = self.forecaster.horizon_minutes
        if self.granularity <= 0:
            raise SchedulingError("candidate granularity must be positive")

    def queue_of(self, job: Job) -> JobQueue:
        """The queue the job was submitted to."""
        if job.queue:
            return self.queues[job.queue]
        return self.queues.queue_for_length(job.length)

    def length_estimate(self, queue: JobQueue) -> float:
        """The scheduler's current length estimate for a queue's jobs.

        Prefers the online estimator when configured, then the queue's
        static historical average, then the queue bound.
        """
        if self.estimator is not None:
            return self.estimator.estimate(queue.name)
        return queue.length_estimate()

    def candidate_starts(self, arrival: int, max_wait: int, hold: int) -> np.ndarray:
        """Candidate start minutes in ``[arrival, arrival + max_wait]``.

        ``hold`` is how long the job is expected to occupy its start
        window; candidates whose window would overrun the CI horizon are
        dropped (the job must be *plannable* within known carbon data).
        The arrival itself is always a candidate.
        """
        latest = min(arrival + max_wait, self.carbon_horizon - hold)
        if latest <= arrival:
            candidates = np.array([arrival], dtype=np.int64)
        else:
            candidates = np.arange(arrival, latest + 1, self.granularity, dtype=np.int64)
            if candidates[-1] != latest:
                candidates = np.append(candidates, latest)
        if self.tracer.enabled:
            self.tracer.emit(
                CandidateWindow(
                    time=arrival,
                    latest=max(latest, arrival),
                    num_candidates=len(candidates),
                    hold_minutes=hold,
                )
            )
        return candidates


class Policy(ABC):
    """Base class for scheduling policies.

    Class attributes mirror the paper's Table 1: whether the policy knows
    job lengths, is carbon-aware, and is performance-aware.
    """

    #: Human-readable policy name used in reports and the registry.
    name: str = "policy"
    #: True only for policies that read the job's exact length.
    requires_job_length: bool = False
    #: Whether the policy consults carbon-intensity forecasts.
    carbon_aware: bool = False
    #: Whether the policy weighs carbon savings against waiting time.
    performance_aware: bool = False
    #: Knowledge of job length: "none", "average", or "exact" (Table 1).
    length_knowledge: str = "none"
    #: True when :meth:`decide` is a pure function of the (arrival, queue,
    #: cpus, length-estimate) tuple given a fixed context — i.e. the policy
    #: keeps no per-run mutable state.  The engine memoizes decisions for
    #: stateless policies unless an online length estimator is set.
    stateless: bool = True

    @abstractmethod
    def decide(self, job: Job, ctx: SchedulingContext) -> Decision:
        """Return the scheduling decision for ``job`` at its arrival."""

    def decide_many(
        self, jobs: Sequence[Job], ctx: SchedulingContext
    ) -> list[Decision]:
        """Batched :meth:`decide`: entry ``i`` is ``decide(jobs[i], ctx)``.

        The equality is **bit for bit** -- the engine precomputes a
        run's decisions through this hook and the simulation digest must
        not move.  The default loops over :meth:`decide`; policies with
        an array form of their rule override it (the window policies in
        :mod:`repro.policies.scoring`).

        Batched scoring may bypass ``SchedulingContext.candidate_starts``
        and therefore emit no per-job ``CandidateWindow`` trace events;
        the engine only batches when tracing is disabled.
        """
        return [self.decide(job, ctx) for job in jobs]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


def validate_decision(job: Job, decision: Decision, ctx: SchedulingContext) -> None:
    """Raise :class:`SchedulingError` if a decision violates the contract.

    Checks: start not before arrival; start within the queue's maximum
    waiting time; segments (if any) ordered, disjoint, starting at
    ``start_time`` and summing to the job's exact length.
    """
    queue = ctx.queue_of(job)
    if decision.start_time < job.arrival:
        raise SchedulingError(
            f"job {job.job_id}: start {decision.start_time} before arrival {job.arrival}"
        )
    # +granularity of one hour of tolerance: a clipped window may push the
    # start to the last feasible slot boundary just past W.
    if decision.start_time > job.arrival + queue.max_wait + MINUTES_PER_HOUR:
        raise SchedulingError(
            f"job {job.job_id}: start {decision.start_time} exceeds waiting bound "
            f"{job.arrival + queue.max_wait}"
        )
    if decision.segments is None:
        return
    segments = decision.segments
    if not segments:
        raise SchedulingError(f"job {job.job_id}: empty segment plan")
    if segments[0][0] != decision.start_time:
        raise SchedulingError(
            f"job {job.job_id}: first segment starts at {segments[0][0]}, "
            f"not at start_time {decision.start_time}"
        )
    total = 0
    previous_end = None
    for start, end in segments:
        if end <= start:
            raise SchedulingError(f"job {job.job_id}: empty segment ({start}, {end})")
        if previous_end is not None and start < previous_end:
            raise SchedulingError(f"job {job.job_id}: overlapping segments")
        total += end - start
        previous_end = end
    if total != job.length:
        raise SchedulingError(
            f"job {job.job_id}: segments cover {total} minutes, "
            f"job length is {job.length}"
        )
