"""A deliberately simple reference engine for differential testing.

:class:`ReferenceEngine` re-implements GAIA scheduling and the
carbon/cost/energy accounting with **scalar, minute-by-minute loops and
no caching**: no event heap, no prefix-sum integration, no decision
memoization, no vectorized accounting.  It shares only the *interfaces*
with the optimized engine -- policies (:mod:`repro.policies`), traces
(:mod:`repro.carbon.trace`, :mod:`repro.workload.trace`), and the
cluster models (pricing, energy, eviction, checkpointing) -- so a bug in
the optimized engine's batched kernels (:meth:`Engine.account`)
or event plumbing cannot hide in a shared helper.

The two engines must agree on every integer scheduling outcome exactly
(starts, finishes, usage intervals, evictions) and on every accounted
float within a small tolerance (the reference accumulates carbon, energy
and cost one simulated minute at a time, so only float summation order
differs).  :mod:`repro.difftest` fuzzes randomized scenarios through
both and diffs the results field by field.

Deliberately unsupported (the optimized engine's extras that are not
part of the differential contract): tracing, fault injection, online
length estimation, and custom forecaster factories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.carbon.forecast import Forecaster, NoisyForecaster, PerfectForecaster
from repro.carbon.trace import CarbonIntensityTrace
from repro.cluster.energy import DEFAULT_ENERGY, EnergyModel
from repro.cluster.pricing import DEFAULT_PRICING, PricingModel, PurchaseOption
from repro.cluster.spot import CheckpointConfig, EvictionModel, NoEvictions
from repro.errors import ConfigError, SimulationError
from repro.policies.base import Decision, Policy, SchedulingContext, validate_decision
from repro.policies.registry import make_policy
from repro.simulator.results import JobRecord, SimulationResult, UsageInterval
from repro.units import MINUTES_PER_HOUR
from repro.workload.job import Job, QueueSet, default_queue_set
from repro.workload.trace import WorkloadTrace

__all__ = ["ReferenceEngine", "run_reference"]

# The optimized engine's same-minute ordering contract, restated here
# rather than imported: FINISH frees capacity first, EVICT restarts next,
# ARRIVAL decisions follow, planned STARTs run last.
_FINISH = 0
_EVICT = 1
_ARRIVAL = 2
_START = 3


@dataclass
class _RefRun:
    """Mutable execution state of one job inside the reference engine."""

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
    spot_rng: object = None
    completed_work: int = 0
    spot_attempts: int = 0
    checkpoint_overhead_minutes: float = 0.0
    pending_overhead: int = 0


class ReferenceEngine:
    """Minute-by-minute scalar simulator mirroring :class:`Engine` semantics.

    Construct with prepared inputs (use :func:`run_reference` for the
    full ``run_simulation``-equivalent preparation) and call :meth:`run`.
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
    ):
        """Wire the prepared inputs together (no preparation happens here)."""
        self.workload = workload
        self.carbon = carbon
        self.policy = policy
        self.queues = queues
        self.reserved_capacity = int(reserved_cpus)
        self.reserved_free = int(reserved_cpus)
        if reserved_cpus < 0:
            raise SimulationError("reserved capacity must be non-negative")
        self.pricing = pricing
        self.energy = energy
        self.eviction_model = (
            eviction_model if eviction_model is not None else NoEvictions()
        )
        forecaster = forecaster if forecaster is not None else PerfectForecaster(carbon)
        if forecaster.trace is not carbon:
            raise SimulationError(
                "forecaster must be built over the simulation's carbon trace"
            )
        if granularity < 1:
            raise SimulationError(f"granularity must be >= 1 minute, got {granularity}")
        self.ctx = SchedulingContext(
            forecaster=forecaster, queues=queues, granularity=granularity
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

        # The only hoisting the reference allows itself: the repeated
        # ``hourly[minute // 60]`` lookup in the per-minute accounting
        # loops is precomputed into one per-minute array (a plain
        # ``np.repeat`` copy of the hourly values, no integration, no
        # prefix sums).  ``_ci_at`` MUST stay semantically minute-by-
        # minute -- one lookup per simulated minute, value equal to the
        # hour's CI -- because the engine-vs-reference diff relies on the
        # reference accumulating scalar minute contributions in order.
        self._ci_per_minute_g_per_kwh = np.repeat(carbon.hourly, MINUTES_PER_HOUR)

        # Scheduled actions: minute -> list of (kind, seq, payload), in
        # push order.  A plain dict of plain lists -- the reference
        # intentionally has no priority queue.
        self._due: dict[int, list[tuple[int, int, object]]] = {}
        self._next_seq = 0
        self._last_minute = 0
        self._pending: list[_RefRun] = []
        self._runs: list[_RefRun] = []

    # ------------------------------------------------------------------
    # Action plumbing
    # ------------------------------------------------------------------
    def _schedule(self, minute: int, kind: int, payload) -> None:
        """Append an action for ``minute`` (push order breaks kind ties)."""
        if minute < 0:
            raise SimulationError(f"action scheduled at negative time {minute}")
        self._due.setdefault(minute, []).append((kind, self._next_seq, payload))
        self._next_seq += 1
        if minute > self._last_minute:
            self._last_minute = minute

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Walk the clock one minute at a time and return the accounting."""
        for job in self.workload:
            self._schedule(job.arrival, _ARRIVAL, job)

        minute = 0
        while minute <= self._last_minute:
            actions = self._due.get(minute)
            while actions:
                # Pick the lowest (kind, seq) still due this minute; a
                # handler may append more same-minute actions, so re-scan
                # rather than iterating a snapshot.
                best = min(range(len(actions)), key=lambda i: actions[i][:2])
                kind, _, payload = actions.pop(best)
                if kind == _ARRIVAL:
                    self._on_arrival(minute, payload)
                elif kind == _START:
                    self._on_start(minute, payload)
                elif kind == _FINISH:
                    self._on_finish(minute, payload)
                else:
                    self._on_evict(minute, payload)
                actions = self._due.get(minute)
            self._due.pop(minute, None)
            minute += 1

        unfinished = [run.job.job_id for run in self._runs if not run.finished]
        if unfinished:
            shown = ", ".join(str(job_id) for job_id in unfinished[:5])
            more = ", ..." if len(unfinished) > 5 else ""
            raise SimulationError(f"jobs never finished: [{shown}{more}]")
        return self._build_result()

    # ------------------------------------------------------------------
    # Handlers (semantics mirror the optimized engine's contract)
    # ------------------------------------------------------------------
    def _on_arrival(self, now: int, job: Job) -> None:
        decision = self.policy.decide(job, self.ctx)
        if self.validate:
            validate_decision(job, decision, self.ctx)
        run = _RefRun(job=job, decision=decision, segments=decision.segments)
        self._runs.append(run)

        if decision.segments is not None:
            self._schedule(decision.segments[0][0], _START, ("segment", run))
            return
        if decision.reserved_pickup and self.reserved_free >= job.cpus:
            self._start_run(run, now, PurchaseOption.RESERVED)
            return
        if decision.reserved_pickup:
            self._pending.append(run)
        self._schedule(decision.start_time, _START, ("plain", run))

    def _on_start(self, now: int, payload) -> None:
        tag, run = payload
        if tag == "segment":
            self._start_segment(run, now)
            return
        if run.started:
            return  # already picked up by a freed reserved instance
        if run.decision.use_spot:
            option = PurchaseOption.SPOT
        elif self.reserved_free >= run.job.cpus:
            option = PurchaseOption.RESERVED
        else:
            option = PurchaseOption.ON_DEMAND
        self._start_run(run, now, option)

    def _on_finish(self, now: int, run: _RefRun) -> None:
        self._close_interval(run, now)
        if run.pending_overhead:
            run.checkpoint_overhead_minutes += run.pending_overhead * run.job.cpus
            run.pending_overhead = 0
        if run.segments is not None:
            run.segment_index += 1
            if run.segment_index < len(run.segments):
                self._schedule(
                    run.segments[run.segment_index][0], _START, ("segment", run)
                )
            else:
                self._finalize(run, now)
        else:
            self._finalize(run, now)
        self._drain_pending(now)

    def _on_evict(self, now: int, run: _RefRun) -> None:
        if run.finished or run.current_option is not PurchaseOption.SPOT:
            raise SimulationError(f"spurious eviction for job {run.job.job_id}")
        if run.current_start is None:
            raise SimulationError(f"evicted job {run.job.job_id} has no open interval")
        elapsed = now - run.current_start
        preserved = 0
        if self.checkpointing is not None and run.segments is None:
            work_at_stake = run.job.length - run.completed_work
            preserved = self.checkpointing.preserved_work(elapsed, work_at_stake)
        run.completed_work += preserved
        run.lost_cpu_minutes += (elapsed - preserved) * run.job.cpus
        run.pending_overhead = 0
        run.evictions += 1
        self._close_interval(run, now)
        run.segments = None
        if self.retry_spot and run.spot_attempts < self.max_spot_retries:
            option = PurchaseOption.SPOT
        elif self.reserved_free >= run.job.cpus:
            option = PurchaseOption.RESERVED
        else:
            option = PurchaseOption.ON_DEMAND
        self._allocate_remaining(run, now, option)

    # ------------------------------------------------------------------
    # Execution helpers
    # ------------------------------------------------------------------
    def _start_run(self, run: _RefRun, now: int, option: PurchaseOption) -> None:
        run.started = True
        if run.first_start is None:
            run.first_start = now
        self._allocate_remaining(run, now, option)

    def _allocate_remaining(self, run: _RefRun, now: int, option: PurchaseOption) -> None:
        work = run.job.length - run.completed_work
        if option is PurchaseOption.SPOT and self.checkpointing is not None:
            wall = self.checkpointing.wall_time(work)
        else:
            wall = work
        run.pending_overhead = wall - work
        self._allocate(run, now, option, wall)

    def _allocate(self, run: _RefRun, now: int, option: PurchaseOption, duration: int) -> None:
        if option is PurchaseOption.RESERVED:
            if self.reserved_free < run.job.cpus:
                raise SimulationError("reserved pool oversubscribed")
            self.reserved_free -= run.job.cpus
        if option is PurchaseOption.SPOT:
            run.spot_attempts += 1
        run.current_start = now
        run.current_option = option
        finish = now + duration
        if option is PurchaseOption.SPOT:
            if run.spot_rng is None:
                run.spot_rng = self.eviction_model.rng_for_job(
                    self.spot_seed, run.job.job_id
                )
            offset = self.eviction_model.sample_eviction(now, run.spot_rng)
            if not math.isinf(offset):
                evict_at = now + max(1, int(round(offset)))
                if evict_at < finish:
                    self._schedule(evict_at, _EVICT, run)
                    return
        self._schedule(finish, _FINISH, run)

    def _start_segment(self, run: _RefRun, now: int) -> None:
        if run.finished or run.segments is None:
            return  # plan abandoned after a spot eviction; stale action
        start, end = run.segments[run.segment_index]
        if now != start:
            raise SimulationError("segment start drifted")
        if run.first_start is None:
            run.first_start = now
        run.started = True
        if run.decision.use_spot:
            option = PurchaseOption.SPOT
        elif self.reserved_free >= run.job.cpus:
            option = PurchaseOption.RESERVED
        else:
            option = PurchaseOption.ON_DEMAND
        self._allocate(run, now, option, end - start)

    def _close_interval(self, run: _RefRun, now: int) -> None:
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
            self.reserved_free += run.job.cpus
        run.current_start = None
        run.current_option = None

    def _finalize(self, run: _RefRun, now: int) -> None:
        run.finished = True
        run.finish = now

    def _drain_pending(self, now: int) -> None:
        if not self._pending or self.reserved_free == 0:
            return
        still_pending = []
        for run in self._pending:
            if run.started or run.finished:
                continue
            if self.reserved_free >= run.job.cpus:
                self._start_run(run, now, PurchaseOption.RESERVED)
            else:
                still_pending.append(run)
        self._pending = still_pending

    # ------------------------------------------------------------------
    # Accounting: one simulated minute at a time, no prefix sums
    # ------------------------------------------------------------------
    def _ci_at(self, minute: int) -> float:
        """True carbon intensity (g/kWh) of the hour containing ``minute``.

        Reads the hoisted per-minute array -- an exact copy of
        ``hourly[minute // 60]``, so still one scalar lookup per minute.
        """
        values = self._ci_per_minute_g_per_kwh
        if minute >= values.size:
            raise SimulationError(
                f"accounting minute {minute} beyond carbon horizon "
                f"{self.carbon.horizon_minutes}"
            )
        return float(values[minute])

    def _minute_carbon_g(self, start: int, end: int, kw: float) -> float:
        """Grams of CO2eq emitted by a ``kw`` draw over ``[start, end)``."""
        total_g = 0.0
        for minute in range(start, end):
            total_g += kw * self._ci_at(minute) / MINUTES_PER_HOUR
        return total_g

    def _record_for(self, run: _RefRun) -> JobRecord:
        """Scalar accounting of one finished run into a :class:`JobRecord`."""
        job = run.job
        kw = self.energy.active_kw(job.cpus)
        carbon_g = 0.0
        energy_kwh = 0.0
        usage_cost = 0.0
        provisioning = 0.0
        for interval in run.usage:
            rate_usd_per_hour = (
                0.0
                if interval.option is PurchaseOption.RESERVED
                else self.pricing.hourly_rate(interval.option)
            )
            for minute in range(interval.start, interval.end):
                carbon_g += kw * self._ci_at(minute) / MINUTES_PER_HOUR
                energy_kwh += kw / MINUTES_PER_HOUR
                usage_cost += rate_usd_per_hour * interval.cpus / MINUTES_PER_HOUR
            if (
                self.instance_overhead_minutes
                and interval.option is not PurchaseOption.RESERVED
            ):
                overhead = self.instance_overhead_minutes
                provisioning += overhead * job.cpus
                usage_cost += self.pricing.usage_cost(interval.option, overhead * job.cpus)
                energy_kwh += self.energy.energy_kwh(job.cpus, overhead)
                carbon_g += (
                    self._ci_at(interval.start) * kw * overhead / MINUTES_PER_HOUR
                )
        baseline_end = min(job.arrival + job.length, self.carbon.horizon_minutes)
        baseline_g = self._minute_carbon_g(job.arrival, baseline_end, kw)
        return JobRecord(
            job_id=job.job_id,
            queue=job.queue,
            arrival=job.arrival,
            length=job.length,
            cpus=job.cpus,
            first_start=run.first_start if run.first_start is not None else job.arrival,
            finish=run.finish if run.finish is not None else job.arrival + job.length,
            carbon_g=carbon_g,
            energy_kwh=energy_kwh,
            usage_cost=usage_cost,
            baseline_carbon_g=baseline_g,
            usage=tuple(run.usage),
            evictions=run.evictions,
            lost_cpu_minutes=run.lost_cpu_minutes,
            checkpoint_overhead_minutes=run.checkpoint_overhead_minutes,
            provisioning_cpu_minutes=provisioning,
        )

    def _build_result(self) -> SimulationResult:
        """Assemble the :class:`SimulationResult` from per-run accounting."""
        records = [self._record_for(run) for run in self._runs]
        return SimulationResult(
            policy_name=self.policy.name,
            workload_name=self.workload.name,
            region=self.carbon.name,
            reserved_cpus=self.reserved_capacity,
            horizon=self.workload.horizon,
            pricing=self.pricing,
            records=tuple(records),
        )


def run_reference(
    workload: WorkloadTrace,
    carbon: CarbonIntensityTrace,
    policy: Policy | str,
    reserved_cpus: int = 0,
    queues: QueueSet | None = None,
    pricing: PricingModel = DEFAULT_PRICING,
    energy: EnergyModel = DEFAULT_ENERGY,
    eviction_model: EvictionModel | None = None,
    forecast_sigma: float = 0.0,
    forecast_seed: int = 0,
    granularity: int = 5,
    validate: bool = True,
    spot_seed: int = 0,
    checkpointing: CheckpointConfig | None = None,
    retry_spot: bool = False,
    instance_overhead_minutes: int = 0,
    **unsupported,
) -> SimulationResult:
    """Reference-engine counterpart of :func:`run_simulation`.

    Performs the same preparation (queue routing and averaging, carbon
    tiling, forecaster construction) with straight-line code, then runs
    the :class:`ReferenceEngine`.  Accepts the optimized entry point's
    keyword surface so ``run_reference(**spec.to_kwargs())`` works, but
    rejects any knob the reference deliberately does not implement
    (tracing, fault plans, online estimation, forecaster factories).
    """
    rejected = {
        "forecaster_factory",
        "online_estimation",
        "price_trace",
        "tracer",
        "fault_plan",
    }
    for name, value in unsupported.items():
        if name not in rejected:
            raise ConfigError(f"run_reference got an unknown knob {name!r}")
        if value is not None and value is not False:
            raise ConfigError(
                f"the reference engine does not support {name!r}; it exists "
                "to differentially test the unfaulted simulation core"
            )
    if isinstance(policy, str):
        policy = make_policy(policy)
    if not isinstance(policy, Policy):
        raise ConfigError(f"policy must be a Policy or spec string, got {policy!r}")

    queues = queues if queues is not None else default_queue_set()
    if len(workload):
        longest = max(job.length for job in workload)
        if longest > queues.longest.max_length:
            raise ConfigError(
                f"workload has a {longest}-minute job exceeding the longest "
                f"queue bound {queues.longest.max_length}; widen the queue set"
            )
    queues = queues.with_averages(workload.jobs)
    workload = workload.with_queues(queues)

    # Worst-case coverage, recomputed from first principles: every job
    # must stay inside known carbon data even after waiting its full W
    # and redoing evicted work (spot retries and checkpoint overhead
    # widen the redo factor exactly as the optimized preparation does).
    redo_factor = 2
    if retry_spot:
        redo_factor += 11
    if checkpointing is not None:
        redo_factor *= 2
    max_length = max((job.length for job in workload), default=0)
    required_minutes = (
        workload.horizon
        + redo_factor * max_length
        + queues.max_wait
        + MINUTES_PER_HOUR
    )
    covering = carbon
    if covering.horizon_minutes < required_minutes:
        needed_hours = -(-required_minutes // MINUTES_PER_HOUR)
        covering = covering.tile_to(needed_hours)

    forecaster: Forecaster
    if forecast_sigma > 0:
        forecaster = NoisyForecaster(covering, sigma=forecast_sigma, seed=forecast_seed)
    else:
        forecaster = PerfectForecaster(covering)

    engine = ReferenceEngine(
        workload=workload,
        carbon=covering,
        policy=policy,
        queues=queues,
        reserved_cpus=reserved_cpus,
        pricing=pricing,
        energy=energy,
        eviction_model=eviction_model,
        forecaster=forecaster,
        granularity=granularity,
        validate=validate,
        spot_seed=spot_seed,
        checkpointing=checkpointing,
        retry_spot=retry_spot,
        instance_overhead_minutes=instance_overhead_minutes,
    )
    return engine.run()
