"""The GAIA-Simulator discrete-event engine.

Replays a workload trace against a carbon-intensity trace under a
scheduling policy and the cluster's purchase-option configuration,
producing a :class:`~repro.simulator.results.SimulationResult`.

Event semantics (all timestamps are integer minutes):

* ``FINISH``/segment-end events run before anything else at the same
  minute so freed reserved capacity is immediately reusable.
* ``EVICT`` (spot revocation) runs next: the job loses all progress and
  restarts at once on reserved-if-free, else on-demand (paper 4.2.4).
* ``ARRIVAL`` asks the policy for a decision; work-conserving jobs
  (``reserved_pickup``) start immediately if reserved capacity fits,
  otherwise they join a pending queue that drains first-fit in arrival
  order whenever reserved capacity frees up.
* ``START`` fires at the policy's planned start time; a job that was
  already picked up by a reserved instance ignores it.

At any (re)start the resource manager prefers a reserved instance when
the job is not spot-bound and capacity fits -- "the resource manager
follows the schedule and uses reserved instances when available"
(paper Section 4.1).
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from enum import IntEnum
from typing import TYPE_CHECKING

import numpy as np

from repro.carbon.forecast import Forecaster, PerfectForecaster
from repro.carbon.trace import CarbonIntensityTrace
from repro.cluster.capacity import ReservedPool
from repro.cluster.energy import DEFAULT_ENERGY, EnergyModel
from repro.cluster.pricing import DEFAULT_PRICING, PricingModel, PurchaseOption
from repro.cluster.spot import CheckpointConfig, EvictionModel, NoEvictions
from repro.errors import SimulationError
from repro.obs.events import (
    IntervalAccount,
    JobArrival,
    JobEvict,
    JobFinish,
    JobStart,
    MetricsSnapshot,
    PolicyDecision,
    RunMeta,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.policies.base import Decision, Policy, SchedulingContext, validate_decision
from repro.simulator.results import _OPTION_CODES, _OPTIONS, SimulationResult, UsageInterval
from repro.units import MINUTES_PER_HOUR
from repro.workload.job import Job, QueueSet
from repro.workload.trace import WorkloadTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.simulator.session import EngineSession

__all__ = ["Engine"]

#: Usage intervals as columns in run order: the per-run interval count,
#: then each interval's start, end, cpus and purchase-option code.
_Intervals = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]
_INTERVAL_COLUMNS = ("usage_count", "usage_start", "usage_end", "usage_cpus", "usage_option")
#: Per-interval carbon, energy, metered cost and boot-overhead carbon.
_IntervalValues = tuple[list[float], list[float], list[float], list[float]]
#: Per-run totals, as columns in this order.
_RunTotals = tuple[list[float], list[float], list[float], list[float]]
_RUN_TOTALS = ("carbon_g", "energy_kwh", "usage_cost", "provisioning_cpu_minutes")


class _EventKind(IntEnum):
    """Tie-break order for events at the same minute."""

    FINISH = 0
    EVICT = 1
    ARRIVAL = 2
    START = 3


@dataclass(slots=True)
class _RunState:
    """Mutable execution state of one job inside the engine."""

    job: Job
    decision: Decision
    started: bool = False
    finished: bool = False
    segments: tuple[tuple[int, int], ...] | None = None
    segment_index: int = 0
    current_start: int | None = None
    current_option: PurchaseOption | None = None
    first_start: int | None = None
    usage: list[UsageInterval] = field(default_factory=list)
    evictions: int = 0
    lost_cpu_minutes: float = 0.0
    finish: int | None = None
    spot_rng: object = None  # per-job RNG, persistent across allocations
    completed_work: int = 0  # minutes preserved by checkpoints
    spot_attempts: int = 0
    checkpoint_overhead_minutes: float = 0.0  # cpu-minutes spent checkpointing
    pending_overhead: int = 0  # wall overhead of the open allocation


def _batched_hook_consistent(policy: Policy) -> bool:
    """Whether ``policy.decide_many`` can stand in for its ``decide``.

    ``decide_many`` promises bit-identical decisions to ``decide``, but
    the promise is made by the class that defines *both*.  A subclass
    overriding only ``decide`` inherits a ``decide_many`` that speaks
    for the ancestor's behaviour, not the override's -- batching it
    would silently ignore the override.  Sound iff the class providing
    ``decide_many`` sits at or below the class providing ``decide`` in
    the MRO.
    """
    cls = type(policy)
    decide_owner = next(c for c in cls.__mro__ if "decide" in c.__dict__)
    many_owner = next(c for c in cls.__mro__ if "decide_many" in c.__dict__)
    return issubclass(many_owner, decide_owner)


class Engine:
    """One-shot simulator: construct, :meth:`run`, read the result.

    For incremental (online) stepping, :meth:`open` returns an
    :class:`~repro.simulator.session.EngineSession` that advances the
    event loop one arrival at a time; the batch :meth:`run` is itself
    expressed as open + replay + drain, so the two paths cannot drift.
    """

    def __init__(
        self,
        workload: WorkloadTrace,
        carbon: CarbonIntensityTrace,
        policy: Policy,
        queues: QueueSet,
        reserved_cpus: int = 0,
        pricing: PricingModel = DEFAULT_PRICING,
        energy: EnergyModel = DEFAULT_ENERGY,
        eviction_model: EvictionModel | None = None,
        forecaster: Forecaster | None = None,
        granularity: int = 5,
        validate: bool = True,
        spot_seed: int = 0,
        checkpointing: CheckpointConfig | None = None,
        retry_spot: bool = False,
        max_spot_retries: int = 10,
        instance_overhead_minutes: int = 0,
        length_estimator=None,
        price_forecaster: Forecaster | None = None,
        tracer: Tracer | None = None,
        fault_injector=None,
    ):
        self.workload = workload
        self.carbon = carbon
        self.policy = policy
        self.queues = queues
        self.pool = ReservedPool(reserved_cpus)
        self.pricing = pricing
        self.energy = energy
        self.eviction_model = eviction_model if eviction_model is not None else NoEvictions()
        forecaster = forecaster if forecaster is not None else PerfectForecaster(carbon)
        if forecaster.trace is not carbon:
            raise SimulationError("forecaster must be built over the simulation's carbon trace")
        if granularity < 1:
            raise SimulationError(f"granularity must be >= 1 minute, got {granularity}")
        # Optional chaos hook (see repro.faults): an object with an armed
        # ``next_time`` minute and a ``fire(engine, now)`` method.  None
        # keeps the event loop on its zero-overhead path.
        self._fault_injector = fault_injector
        # Observability: NULL_TRACER by default, so every emission site
        # below is a single attribute check when tracing is off.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._tracing = self.tracer.enabled
        self.ctx = SchedulingContext(
            forecaster=forecaster,
            queues=queues,
            granularity=granularity,
            estimator=length_estimator,
            price_forecaster=price_forecaster,
            tracer=self.tracer,
        )
        self.validate = validate
        self.spot_seed = spot_seed
        if retry_spot and checkpointing is None:
            raise SimulationError(
                "retry_spot without checkpointing cannot guarantee progress; "
                "configure a CheckpointConfig"
            )
        self.checkpointing = checkpointing
        self.retry_spot = retry_spot
        self.max_spot_retries = max_spot_retries
        if instance_overhead_minutes < 0:
            raise SimulationError("instance overhead must be non-negative")
        self.instance_overhead_minutes = instance_overhead_minutes
        # Decision memoization: replicated jobs with identical
        # (arrival, queue, cpus, length) re-use the first decision instead
        # of re-running the candidate-window argmin.  Sound only for
        # stateless policies (see Policy.stateless) and never with an
        # online length estimator, whose estimates drift within a run.
        self._memoize = policy.stateless and length_estimator is None
        self._decision_memo: dict[tuple[int, str, int, int], Decision] = {}
        self._batched_decisions = 0

        self._heap: list[tuple[int, int, int, _RunState | Job]] = []
        self._seq = itertools.count()
        self._pending: list[_RunState] = []  # reserved-pickup jobs, arrival order
        self._runs: list[_RunState] = []
        self._finished: list[_RunState] = []  # finish order (event loop only)
        self._linear_starts: np.ndarray | None = None  # set by _run_linear
        self._opened = False

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------
    def _push(self, time: int, kind: _EventKind, payload) -> None:
        if time < 0:
            raise SimulationError(f"event scheduled at negative time {time}")
        heapq.heappush(self._heap, (time, int(kind), next(self._seq), payload))

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def open(self) -> "EngineSession":
        """Open an incremental session over this engine's event loop.

        Emits the run's ``RunMeta`` header and hands the loop to an
        :class:`~repro.simulator.session.EngineSession`: feed arrivals
        with ``submit``/``replay``, let time pass with ``advance_to``,
        and finish with ``drain``.  An engine runs once -- opening twice
        (or after :meth:`run`) is an error.
        """
        if self._opened:
            raise SimulationError("engine already opened; engines run once")
        self._opened = True
        if self._tracing:
            self.tracer.emit(
                RunMeta(
                    policy=self.policy.name,
                    workload=self.workload.name,
                    region=self.carbon.name,
                    reserved_cpus=self.pool.capacity,
                    horizon=self.workload.horizon,
                )
            )
        from repro.simulator.session import EngineSession

        return EngineSession(self)

    def run(self) -> SimulationResult:
        """Execute the whole workload and return the accounting result.

        The batch path is the online session replaying the trace: open,
        feed every arrival in canonical order, drain.  When decisions are
        memoized and nothing observes or perturbs them between arrivals
        (no tracer, no fault injector), they are batch-precomputed into
        the memo first, and a contention-free workload then skips the
        event loop entirely (:meth:`_run_linear`) -- with unchanged
        digests.
        """
        session = self.open()
        if self._memoize and not self._tracing and self._fault_injector is None:
            self._precompute_decisions()
            if self._can_run_linear():
                self._run_linear()
                return session.drain()
        session.replay(self.workload.jobs)
        return session.drain()

    def _finish_run(self) -> SimulationResult:
        """Close out a drained event loop: audit completion, build the result."""
        unfinished = [run.job.job_id for run in self._runs if not run.finished]
        if unfinished:
            shown = ", ".join(str(job_id) for job_id in unfinished[:5])
            more = ", ..." if len(unfinished) > 5 else ""
            raise SimulationError(f"jobs never finished: [{shown}{more}]")
        return self._build_result()

    def _precompute_decisions(self) -> None:
        """Fill the decision memo for every distinct job key in one batch.

        The caller guarantees soundness: decisions are memoizable
        (stateless policy, no online length estimator), tracing is off
        (batched scoring emits no per-job CandidateWindow /
        PolicyDecision events), and no fault injector mutates scheduling
        inputs between arrivals.  Decisions are validated here exactly
        as the per-arrival path validates them on first compute.

        A subclass that overrides ``decide`` while inheriting an
        ancestor's ``decide_many`` would batch the *ancestor's* rule;
        such policies are detected by MRO position and batched through
        the base loop over their own ``decide``.
        """
        unique: dict[tuple[int, str, int, int], Job] = {}
        for job in self.workload:
            key = (job.arrival, job.queue, job.cpus, job.length)
            if key not in unique:
                unique[key] = job
        batch = list(unique.values())
        if _batched_hook_consistent(self.policy):
            decisions = self.policy.decide_many(batch, self.ctx)
        else:
            decisions = Policy.decide_many(self.policy, batch, self.ctx)
        if self.validate:
            self._validate_batched(batch, decisions)
        self._decision_memo.update(zip(unique, decisions, strict=True))
        self._batched_decisions = len(batch)

    def _validate_batched(self, jobs: list[Job], decisions: list[Decision]) -> None:
        """Vectorized :func:`validate_decision` over a precomputed batch.

        Plain start-time decisions reduce to two array bound checks.
        Segment plans, length mismatches, and any batch that fails the
        vectorized checks fall back to the scalar validator, which
        raises the exact per-job error in batch order.
        """
        if len(jobs) != len(decisions) or any(
            decision.segments is not None for decision in decisions
        ):
            for job, decision in zip(jobs, decisions, strict=True):
                validate_decision(job, decision, self.ctx)
            return
        count = len(jobs)
        starts = np.fromiter(
            (decision.start_time for decision in decisions), np.int64, count=count
        )
        arrivals = np.fromiter((job.arrival for job in jobs), np.int64, count=count)
        wait_by_queue = {
            queue.name: queue.max_wait for queue in self.ctx.queues
        }
        waits = np.fromiter(
            (
                wait_by_queue[job.queue]
                if job.queue
                else self.ctx.queue_of(job).max_wait
                for job in jobs
            ),
            np.int64,
            count=count,
        )
        within_bounds = bool(
            (starts >= arrivals).all()
            and (starts <= arrivals + waits + MINUTES_PER_HOUR).all()
        )
        if not within_bounds:
            for job, decision in zip(jobs, decisions):
                validate_decision(job, decision, self.ctx)

    def _can_run_linear(self) -> bool:
        """Whether every job's execution is independent of every other's.

        With a zero-size reserved pool, no spot placements, no
        reserved-pickup queueing, and no suspend-resume plans, jobs never
        interact: each runs on-demand from its decided start for exactly
        its length, so the event loop adds ordering the outcome does not
        depend on.  Called after the decision precompute, so the full
        decision set is inspectable up front.
        """
        if self.pool.capacity != 0:
            return False
        return all(
            decision.segments is None
            and not decision.use_spot
            and not decision.reserved_pickup
            for decision in self._decision_memo.values()
        )

    def _run_linear(self) -> None:
        """Materialize the contention-free schedule without an event loop.

        Replays exactly what the event loop would do for independent
        jobs -- arrival, on-demand start at ``decision.start_time``, one
        usage interval, finish ``length`` minutes later -- as one start
        column in workload (= arrival processing) order, from which
        :meth:`_build_result` derives the finish and interval columns.
        No run states are made, so ``_runs`` and ``_finished`` stay
        empty: only ``run()`` takes this path, and it never hands its
        session to a caller.
        """
        memo = self._decision_memo
        jobs = self.workload.jobs
        self._linear_starts = np.fromiter(
            (memo[(job.arrival, job.queue, job.cpus, job.length)].start_time for job in jobs),
            np.int64,
            count=len(jobs),
        )

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _on_arrival(self, now: int, job: Job) -> None:
        if self._tracing:
            self.tracer.emit(
                JobArrival(
                    time=now,
                    job_id=job.job_id,
                    queue=job.queue,
                    cpus=job.cpus,
                    length=job.length,
                )
            )
        decision = self._decide(job)
        run = _RunState(job=job, decision=decision, segments=decision.segments)
        self._runs.append(run)

        if decision.segments is not None:
            self._begin_segment(run, decision.segments[0][0])
            return

        if decision.reserved_pickup and self.pool.can_fit(job.cpus):
            self._start_run(run, now, PurchaseOption.RESERVED)
            return
        if decision.reserved_pickup:
            self._pending.append(run)
        self._push(decision.start_time, _EventKind.START, run)

    def _decide(self, job: Job) -> Decision:
        """The policy's decision for ``job``, memoized when sound.

        The key includes ``job.length``: segment policies (Wait Awhile,
        Ecovisor) consume the exact length, and queue routing falls back
        to it for unqueued jobs, so two jobs share a decision only when
        every decide() input matches.  Decisions are frozen, so sharing
        one across runs is safe.
        """
        key = (job.arrival, job.queue, job.cpus, job.length)
        decision = self._decision_memo.get(key) if self._memoize else None
        memoized = decision is not None
        if decision is None:
            decision = self.policy.decide(job, self.ctx)
            if self.validate:
                validate_decision(job, decision, self.ctx)
            if self._memoize:
                self._decision_memo[key] = decision
        if self._tracing:
            self._trace_decision(job, decision, memoized=memoized)
        return decision

    def _ci_at(self, minute: int) -> float:
        """True hourly carbon intensity (g/kWh) at a simulation minute."""
        hourly = self.carbon.hourly
        index = min(minute // MINUTES_PER_HOUR, len(hourly) - 1)
        return float(hourly[index])

    def _trace_decision(self, job: Job, decision: Decision, memoized: bool) -> None:
        """Emit a PolicyDecision event with its carbon/price inputs."""
        price_usd_per_mwh: float | None = None
        if self.ctx.price_forecaster is not None:
            price_hourly = self.ctx.price_forecaster.trace.hourly
            price_index = min(
                decision.start_time // MINUTES_PER_HOUR, len(price_hourly) - 1
            )
            price_usd_per_mwh = float(price_hourly[price_index])
        # Compute the arrival CI once and pass it through: when arrival
        # and planned start fall in the same trace hour (the common case
        # for immediate starts) the start CI is the same value, so the
        # second trace lookup is skipped entirely.
        hourly = self.carbon.hourly
        last_hour = len(hourly) - 1
        arrival_hour = min(job.arrival // MINUTES_PER_HOUR, last_hour)
        arrival_ci_g_per_kwh = float(hourly[arrival_hour])
        start_hour = min(decision.start_time // MINUTES_PER_HOUR, last_hour)
        start_ci_g_per_kwh = (
            arrival_ci_g_per_kwh
            if start_hour == arrival_hour
            else float(hourly[start_hour])
        )
        self.tracer.emit(
            PolicyDecision(
                time=job.arrival,
                job_id=job.job_id,
                policy=self.policy.name,
                start_time=decision.start_time,
                use_spot=decision.use_spot,
                reserved_pickup=decision.reserved_pickup,
                num_segments=len(decision.segments) if decision.segments else 0,
                memoized=memoized,
                arrival_ci_g_per_kwh=arrival_ci_g_per_kwh,
                start_ci_g_per_kwh=start_ci_g_per_kwh,
                start_price_usd_per_mwh=price_usd_per_mwh,
            )
        )

    def _on_start(self, now: int, payload) -> None:
        if isinstance(payload, _SegmentStart):
            self._start_segment(payload.run, now)
            return
        run = payload
        if run.started:
            return  # already picked up by a freed reserved instance
        if run.decision.use_spot:
            option = PurchaseOption.SPOT
        elif self.pool.can_fit(run.job.cpus):
            option = PurchaseOption.RESERVED
        else:
            option = PurchaseOption.ON_DEMAND
        self._start_run(run, now, option)

    def _on_finish(self, now: int, run: _RunState) -> None:
        self._close_interval(run, now)
        if run.pending_overhead:
            run.checkpoint_overhead_minutes += run.pending_overhead * run.job.cpus
            run.pending_overhead = 0
        if run.segments is not None:
            run.segment_index += 1
            if run.segment_index < len(run.segments):
                self._begin_segment(run, run.segments[run.segment_index][0])
            else:
                self._finalize(run, now)
        else:
            self._finalize(run, now)
        self._drain_pending(now)

    def _on_evict(self, now: int, run: _RunState) -> None:
        if run.finished or run.current_option is not PurchaseOption.SPOT:
            raise SimulationError(f"spurious eviction for job {run.job.job_id}")
        if run.current_start is None:
            raise SimulationError(f"evicted job {run.job.job_id} has no open interval")
        elapsed = now - run.current_start
        # Without checkpointing all progress is lost (paper 4.2.4); with
        # it, work up to the last completed checkpoint survives.
        preserved = 0
        if self.checkpointing is not None and run.segments is None:
            work_at_stake = run.job.length - run.completed_work
            preserved = self.checkpointing.preserved_work(elapsed, work_at_stake)
        run.completed_work += preserved
        run.lost_cpu_minutes += (elapsed - preserved) * run.job.cpus
        run.pending_overhead = 0  # unfinished checkpoints counted as lost
        run.evictions += 1
        if self._tracing:
            self.tracer.emit(
                JobEvict(
                    time=now,
                    job_id=run.job.job_id,
                    lost_cpu_minutes=float((elapsed - preserved) * run.job.cpus),
                    preserved_minutes=preserved,
                    evictions=run.evictions,
                )
            )
        self._close_interval(run, now)
        # Any remaining suspend-resume plan is abandoned: the redo runs
        # contiguously on the fallback option (reserved if one is free,
        # else on-demand; back onto spot when retries are enabled).
        run.segments = None
        if self.retry_spot and run.spot_attempts < self.max_spot_retries:
            option = PurchaseOption.SPOT
        elif self.pool.can_fit(run.job.cpus):
            option = PurchaseOption.RESERVED
        else:
            option = PurchaseOption.ON_DEMAND
        self._allocate_remaining(run, now, option)

    # ------------------------------------------------------------------
    # Execution helpers
    # ------------------------------------------------------------------
    def _begin_segment(self, run: _RunState, start: int) -> None:
        self._push(start, _EventKind.START, _SegmentStart(run))

    def _start_run(self, run: _RunState, now: int, option: PurchaseOption) -> None:
        run.started = True
        if run.first_start is None:
            run.first_start = now
        self._allocate_remaining(run, now, option)

    def _allocate_remaining(self, run: _RunState, now: int, option: PurchaseOption) -> None:
        """Allocate for the job's outstanding work, including the wall
        time checkpointing adds on spot."""
        work = run.job.length - run.completed_work
        if option is PurchaseOption.SPOT and self.checkpointing is not None:
            wall = self.checkpointing.wall_time(work)
        else:
            wall = work
        run.pending_overhead = wall - work
        self._allocate(run, now, option, wall)

    def _allocate(self, run: _RunState, now: int, option: PurchaseOption, duration: int) -> None:
        if option is PurchaseOption.RESERVED:
            self.pool.allocate(run.job.cpus)
        if option is PurchaseOption.SPOT:
            run.spot_attempts += 1
        run.current_start = now
        run.current_option = option
        if self._tracing:
            self.tracer.emit(
                JobStart(
                    time=now,
                    job_id=run.job.job_id,
                    option=option.name.lower(),
                    duration=duration,
                    attempt=run.spot_attempts,
                )
            )
        finish = now + duration
        if option is PurchaseOption.SPOT:
            if run.spot_rng is None:
                run.spot_rng = self.eviction_model.rng_for_job(self.spot_seed, run.job.job_id)
            offset = self.eviction_model.sample_eviction(now, run.spot_rng)
            if not math.isinf(offset):
                evict_at = now + max(1, int(round(offset)))
                if evict_at < finish:
                    self._push(evict_at, _EventKind.EVICT, run)
                    return
        self._push(finish, _EventKind.FINISH, run)

    def _start_segment(self, run: _RunState, now: int) -> None:
        if run.finished or run.segments is None:
            return  # plan abandoned after a spot eviction; stale event
        start, end = run.segments[run.segment_index]
        if now != start:
            raise SimulationError("segment start drifted")
        if run.first_start is None:
            run.first_start = now
        run.started = True
        if run.decision.use_spot:
            option = PurchaseOption.SPOT
        elif self.pool.can_fit(run.job.cpus):
            option = PurchaseOption.RESERVED
        else:
            option = PurchaseOption.ON_DEMAND
        self._allocate(run, now, option, end - start)

    def _close_interval(self, run: _RunState, now: int) -> None:
        if run.current_start is None or run.current_option is None:
            raise SimulationError(f"job {run.job.job_id} has no open interval")
        if now > run.current_start:
            run.usage.append(
                UsageInterval(
                    start=run.current_start,
                    end=now,
                    cpus=run.job.cpus,
                    option=run.current_option,
                )
            )
        if run.current_option is PurchaseOption.RESERVED:
            self.pool.release(run.job.cpus)
        run.current_start = None
        run.current_option = None

    def _finalize(self, run: _RunState, now: int) -> None:
        run.finished = True
        run.finish = now
        self._finished.append(run)
        if self._tracing:
            self.tracer.emit(
                JobFinish(
                    time=now,
                    job_id=run.job.job_id,
                    waiting_minutes=now - run.job.arrival - run.job.length,
                    evictions=run.evictions,
                )
            )
        if self.ctx.estimator is not None and run.job.queue:
            # The accounting database learns lengths as jobs complete.
            self.ctx.estimator.observe(run.job.queue, run.job.length)

    def _drain_pending(self, now: int) -> None:
        """First-fit start of pending work-conserving jobs on freed capacity."""
        if not self._pending or self.pool.free == 0:
            return
        still_pending = []
        for run in self._pending:
            if run.started or run.finished:
                continue  # started at its planned time; drop from the queue
            if self.pool.can_fit(run.job.cpus):
                self._start_run(run, now, PurchaseOption.RESERVED)
            else:
                still_pending.append(run)
        self._pending = still_pending

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def account(
        self, runs: Sequence[_RunState]
    ) -> tuple[_IntervalValues, Iterator[tuple[float, float, float, float]]]:
        """The accounting kernel over run states: interval values, run totals.

        Flattens the runs' usage into interval columns, then values and
        folds them as result assembly does (which feeds the linear
        schedule's columns to the same two steps), one ``(carbon_g,
        energy_kwh, usage_cost, provisioning_cpu_minutes)`` tuple per run.
        The service's live ledger calls this, so live values equal the
        records' bit for bit.
        """
        intervals = _flatten(runs)
        values = self._value_intervals(intervals)
        return values, zip(*self._fold(intervals, values))

    def _value_intervals(self, intervals: _Intervals) -> _IntervalValues:
        """Carbon, energy, metered cost and boot carbon of every interval.

        One :meth:`HourlySeries.integrate_many` call and one numpy
        expression per quantity, elementwise-identical to the scalar
        formulas (so a value does not depend on the rest of the batch).
        """
        _, starts, ends, cpu_counts, codes = intervals
        durations = ends - starts
        rate_for = {option: self.pricing.hourly_rate(option) for option in _OPTIONS}
        rate_for[PurchaseOption.RESERVED] = 0.0  # covered by the upfront payment
        rates_usd_per_hour = np.array([rate_for[option] for option in _OPTIONS])[codes]
        kw_values = self.energy.active_kw_many(cpu_counts)
        carbon_values_g = self.carbon.integrate_many(starts, durations) * kw_values
        energy_values_kwh = kw_values * durations / MINUTES_PER_HOUR
        cost_values_usd = rates_usd_per_hour * (durations * cpu_counts) / MINUTES_PER_HOUR
        boot_ci = self.carbon.hourly[starts // MINUTES_PER_HOUR]
        boot_carbon_values_g = (
            boot_ci * kw_values * self.instance_overhead_minutes / MINUTES_PER_HOUR
        )
        # Every array before any list: converting each array as it is
        # computed interleaves numpy buffers with float objects and raises
        # the process's peak RSS on large sweeps.
        return (
            carbon_values_g.tolist(),
            energy_values_kwh.tolist(),
            cost_values_usd.tolist(),
            boot_carbon_values_g.tolist(),
        )

    def _fold(self, intervals: _Intervals, values: _IntervalValues) -> _RunTotals:
        """Each run's totals, as columns.

        Single-interval runs -- the bulk of any workload -- take their
        totals straight from the interval values (``0.0 + v == v``
        exactly).  Runs with several intervals (evictions, suspend-resume
        plans) or boot overhead accumulate left to right in interval
        order: that float summation order is part of the digest contract.
        """
        counts, _, _, cpu_counts, codes = intervals
        carbon, energy, cost, boot_carbon = values
        overhead = self.instance_overhead_minutes
        if not overhead and bool((counts == 1).all()):
            return carbon, energy, cost, [0.0] * len(counts)
        reserved = _OPTION_CODES[PurchaseOption.RESERVED]
        code_list, cpu_list = codes.tolist(), cpu_counts.tolist()
        totals: _RunTotals = ([], [], [], [])
        offset = 0
        for count in counts.tolist():
            if count == 1 and (not overhead or code_list[offset] == reserved):
                run = (carbon[offset], energy[offset], cost[offset], 0.0)
            else:
                carbon_g = energy_kwh = usage_cost = provisioning = 0.0
                for index in range(offset, offset + count):
                    carbon_g += carbon[index]
                    energy_kwh += energy[index]
                    usage_cost += cost[index]
                    if overhead and code_list[index] != reserved:
                        # Each elastic allocation boots a fresh instance: the
                        # boot minutes are billed and draw power at the
                        # pre-start CI (paper prototype: "entire instance
                        # time, including initiation and termination").  An
                        # interval spans all of its job's CPUs.
                        boot_cpu_minutes = overhead * cpu_list[index]
                        provisioning += boot_cpu_minutes
                        option = _OPTIONS[code_list[index]]
                        usage_cost += self.pricing.usage_cost(option, boot_cpu_minutes)
                        energy_kwh += self.energy.energy_kwh(cpu_list[index], overhead)
                        carbon_g += boot_carbon[index]
                run = (carbon_g, energy_kwh, usage_cost, provisioning)
            for column, value in zip(totals, run):
                column.append(value)
            offset += count
        return totals

    def _audit_finite(self, values: tuple[list[float], ...]) -> None:
        """Reject non-finite accounting before it reaches a result.

        Corrupted inputs that slip past construction-time validation (a
        fault-injected trace, a pathological energy model) must surface
        as a typed error, never as a NaN total a sweep would happily
        aggregate.
        """
        labels = ("carbon", "energy", "cost", "boot carbon")
        for label, series in zip(labels, values):
            if not np.isfinite(np.sum(series)):
                raise SimulationError(
                    f"non-finite {label} accounting: simulation inputs are "
                    "corrupted (check traces and model parameters)"
                )

    def _build_result(self) -> SimulationResult:
        """Value every interval and assemble the result's columns.

        The linear schedule supplies its start column; the event loop's
        run states are flattened.  Run-on-arrival baselines are computed
        for all jobs in one ``integrate_many * active_kw_many``
        expression (elementwise the same float ops as the scalar
        ``interval_carbon(a, e) * active_kw(c)``, so bit-identical).
        """
        runs = self._runs
        starts = self._linear_starts
        jobs = self.workload.jobs if starts is not None else [run.job for run in runs]
        count = len(jobs)
        columns: dict = {
            name: np.fromiter((getattr(job, name) for job in jobs), np.int64, count=count)
            for name in ("job_id", "arrival", "length", "cpus")
        }
        columns["queue"] = [job.queue for job in jobs]
        if starts is not None:
            on_demand = _OPTION_CODES[PurchaseOption.ON_DEMAND]
            intervals = (
                np.ones(count, np.int64), starts, starts + columns["length"],
                columns["cpus"], np.full(count, on_demand, np.int8),
            )
            zeros = np.zeros(count)
            columns.update(
                first_start=starts, finish=intervals[2], evictions=zeros.astype(np.int64),
                lost_cpu_minutes=zeros, checkpoint_overhead_minutes=zeros,
            )
        else:
            # Every run finished (``_finish_run`` checked): none is None.
            for name in ("first_start", "finish", "evictions"):
                column = (getattr(run, name) for run in runs)
                columns[name] = np.fromiter(column, np.int64, count=count)
            for name in ("lost_cpu_minutes", "checkpoint_overhead_minutes"):
                columns[name] = [getattr(run, name) for run in runs]
            intervals = _flatten(runs)
        values = self._value_intervals(intervals)
        self._audit_finite(values)
        totals = self._fold(intervals, values)
        columns.update(zip(_RUN_TOTALS, totals))
        columns.update(zip(_INTERVAL_COLUMNS, intervals))
        arrivals = columns["arrival"]
        ends = np.minimum(arrivals + columns["length"], self.carbon.horizon_minutes)
        columns["baseline_carbon_g"] = self.carbon.integrate_many(
            arrivals, ends - arrivals
        ) * self.energy.active_kw_many(columns["cpus"])
        result = SimulationResult._from_columns(
            columns,
            policy_name=self.policy.name,
            workload_name=self.workload.name,
            region=self.carbon.name,
            reserved_cpus=self.pool.capacity,
            horizon=self.workload.horizon,
            pricing=self.pricing,
        )
        if self._tracing:
            self._trace_interval_accounts(values)
        result.metrics = self._metrics_snapshot(columns)
        if self._tracing:
            self.tracer.emit(MetricsSnapshot(scope="engine", metrics=result.metrics))
        return result

    def _trace_interval_accounts(self, values: tuple[list[float], ...]) -> None:
        """Emit one IntervalAccount per usage interval, in record order."""
        carbon_values_g, energy_values_kwh, cost_values_usd, _ = values
        index = 0
        for run in self._runs:
            for interval in run.usage:
                self.tracer.emit(
                    IntervalAccount(
                        job_id=run.job.job_id,
                        start=interval.start,
                        end=interval.end,
                        cpus=interval.cpus,
                        option=interval.option.name.lower(),
                        carbon_g=carbon_values_g[index],
                        energy_kwh=energy_values_kwh[index],
                        cost_usd=cost_values_usd[index],
                    )
                )
                index += 1

    def _metrics_snapshot(self, columns: dict) -> dict:
        """The engine's metrics registry snapshot for this run.

        Built once per run from the columns :meth:`_build_result`
        assembled and state the engine tracks anyway, so collection adds
        no per-event cost (``docs/observability.md`` catalogues the names).
        """
        # Every job made one decision lookup; a memoizing engine computed
        # one decision per memo entry, any other engine one per job.
        jobs = len(columns["job_id"])
        policy_calls = len(self._decision_memo) if self._memoize else jobs
        registry = MetricsRegistry()
        registry.counter("engine.jobs", float(jobs))
        registry.counter(f"policy.decisions.{self.policy.name}", float(jobs))
        registry.counter("engine.policy_calls", float(policy_calls))
        registry.counter("engine.decision_memo_hits", float(jobs - policy_calls))
        registry.counter("engine.evictions", float(columns["evictions"].sum()))
        registry.counter(
            "engine.spot_attempts", float(sum(run.spot_attempts for run in self._runs))
        )
        registry.counter("engine.usage_intervals", float(len(columns["usage_start"])))
        registry.counter("engine.batched_decisions", float(self._batched_decisions))
        registry.gauge("engine.reserved_cpus", float(self.pool.capacity))
        registry.gauge("engine.decision_memo", float(self._memoize))
        # Waiting minutes are exact small integers, so int64 -> float64 is exact.
        waiting = columns["finish"] - columns["arrival"] - columns["length"]
        registry.histogram_many("engine.job_waiting_minutes", waiting.astype(np.float64).tolist())
        return registry.snapshot()


def _flatten(runs: Sequence[_RunState]) -> _Intervals:
    """The runs' usage intervals as columns, in run order."""
    usage = [interval for run in runs for interval in run.usage]
    count = len(usage)
    return (
        np.fromiter((len(run.usage) for run in runs), np.int64, count=len(runs)),
        np.fromiter((interval.start for interval in usage), np.int64, count=count),
        np.fromiter((interval.end for interval in usage), np.int64, count=count),
        np.fromiter((interval.cpus for interval in usage), np.int64, count=count),
        np.fromiter((_OPTION_CODES[interval.option] for interval in usage), np.int8, count=count),
    )


class _SegmentStart:
    """Adapter so segment starts share the START event slot."""

    __slots__ = ("run",)

    def __init__(self, run: _RunState):
        self.run = run
