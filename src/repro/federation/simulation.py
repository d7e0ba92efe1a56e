"""Federated (multi-region) simulation.

Runs one GAIA cluster per region: a :class:`RegionSelector` routes each
job at arrival, then every region executes its share with its own engine
(reserved pool, CI trace, temporal policy).  Jobs placed outside their
home region optionally pay a migration delay (data transfer before the
job is schedulable), which shifts their effective arrival.

The runner participates in the fault-injection stack exactly like
:func:`repro.simulator.simulation.run_simulation`: process faults fire
first, input faults corrupt every region's carbon trace before
preparation, forecast faults wrap each region's forecaster (shared
between the selector and that region's engine, so both see the same
perturbed view), eviction storms wrap the spot model, and queue
corruption arms each engine's injector.  The federated-only
``migration-drop`` fault makes the runner ignore the requested migration
delay -- the divergence the difftest oracle must catch.

When every job lands in one region unshifted, that region's engine runs
the *original* workload object, so a single-region federation is
bit-identical (digest and all) to the plain ``Engine.run`` path -- a
registered metamorphic invariant (``federation-single-region``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from repro.carbon.forecast import PerfectForecaster
from repro.carbon.trace import CarbonIntensityTrace
from repro.cluster.energy import DEFAULT_ENERGY, EnergyModel
from repro.cluster.pricing import DEFAULT_PRICING, PricingModel
from repro.errors import ConfigError
from repro.faults import (
    FaultPlan,
    apply_input_faults,
    apply_process_faults,
    engine_injector,
    wrap_eviction,
    wrap_forecaster,
)
from repro.federation.selectors import RegionSelector
from repro.obs.events import FederationCompleted, FederationRouted
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer, tracer_from_env
from repro.policies.base import Policy, SchedulingContext
from repro.policies.registry import make_policy
from repro.simulator.engine import Engine
from repro.simulator.results import SimulationResult
from repro.simulator.simulation import prepare_carbon
from repro.units import MINUTES_PER_HOUR
from repro.workload.job import Job, QueueSet, default_queue_set
from repro.workload.trace import WorkloadTrace

__all__ = ["FederatedRegion", "FederatedResult", "run_federated_simulation"]


@dataclass(frozen=True)
class FederatedRegion:
    """One cluster of the federation."""

    name: str
    carbon: CarbonIntensityTrace
    reserved_cpus: int = 0

    def __post_init__(self) -> None:
        if self.reserved_cpus < 0:
            raise ConfigError(f"region {self.name}: negative reserved pool")


@dataclass
class FederatedResult:
    """Merged accounting across the federation's per-region runs."""

    selector_name: str
    policy_name: str
    home: str
    per_region: dict[str, SimulationResult] = field(default_factory=dict)
    placements: dict[str, int] = field(default_factory=dict)
    migrated_jobs: int = 0
    metrics: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def total_carbon_kg(self) -> float:
        return sum(result.total_carbon_kg for result in self.per_region.values())

    @property
    def total_cost(self) -> float:
        return sum(result.total_cost for result in self.per_region.values())

    @property
    def mean_waiting_hours(self) -> float:
        waits = [
            record.waiting_time
            for result in self.per_region.values()
            for record in result.records
        ]
        return sum(waits) / len(waits) / MINUTES_PER_HOUR if waits else 0.0

    @property
    def total_jobs(self) -> int:
        return sum(result.total_jobs for result in self.per_region.values())

    def summary(self) -> dict[str, float | str]:
        return {
            "selector": self.selector_name,
            "policy": self.policy_name,
            "carbon_kg": self.total_carbon_kg,
            "cost_usd": self.total_cost,
            "mean_wait_h": self.mean_waiting_hours,
            "migrated_jobs": float(self.migrated_jobs),
        }

    def digest(self) -> str:
        """SHA-256 content address of the merged outcome.

        Folds the per-region :meth:`SimulationResult.digest` values (in
        region-name order) with the routing outcome, so two federated
        runs share a digest iff every region's schedule *and* the
        placement map are bit-identical.
        """
        parts = ["FederatedResult", self.selector_name, self.policy_name, self.home]
        for name in sorted(self.per_region):
            parts.append(name)
            parts.append(self.per_region[name].digest())
        for name in sorted(self.placements):
            parts.append(f"{name}={self.placements[name]}")
        parts.append(str(self.migrated_jobs))
        return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()


def run_federated_simulation(
    workload: WorkloadTrace,
    regions: list[FederatedRegion],
    selector: RegionSelector,
    policy: Policy | str,
    home: str | None = None,
    queues: QueueSet | None = None,
    migration_minutes: int = 0,
    pricing: PricingModel = DEFAULT_PRICING,
    energy: EnergyModel = DEFAULT_ENERGY,
    granularity: int = 5,
    validate: bool = True,
    spot_seed: int = 0,
    fault_plan: FaultPlan | None = None,
    tracer: Tracer | None = None,
) -> FederatedResult:
    """Route the workload across regions, then simulate each cluster.

    ``policy`` (a spec string or instance) is the *temporal* policy every
    region runs; ``selector`` is the *spatial* policy.  ``home`` defaults
    to the first region; jobs routed elsewhere have ``migration_minutes``
    added to their arrival (data staging) before they become schedulable.

    ``validate`` runs the merged-accounting checks of
    :func:`repro.federation.validation.assert_valid_federated` on top of
    each engine's own per-run validation.  ``fault_plan`` and ``tracer``
    behave as in :func:`~repro.simulator.simulation.run_simulation`.
    """
    if not regions:
        raise ConfigError("a federation needs at least one region")
    names = [region.name for region in regions]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate region names: {names}")
    home = home if home is not None else names[0]
    if home not in names:
        raise ConfigError(f"home region {home!r} not in the federation")
    if migration_minutes < 0:
        raise ConfigError("migration delay must be non-negative")
    if isinstance(policy, str):
        policy_spec = policy
    else:
        policy_spec = None

    apply_process_faults(fault_plan)
    if fault_plan is not None and fault_plan.by_kind("migration-drop"):
        # The federated-only fault: the runner "forgets" data staging, so
        # off-home placements become free -- caught by the difftest
        # oracle whenever the delay would have mattered.
        migration_minutes = 0
    owns_tracer = False
    if tracer is None:
        tracer = tracer_from_env()
        owns_tracer = tracer.enabled

    queues = queues if queues is not None else default_queue_set()
    queues = queues.with_averages(workload.jobs)
    workload = workload.with_queues(queues)

    # Build per-region contexts over fully tiled carbon so selector and
    # engines see identical horizons.
    extra_hours = -(-migration_minutes // MINUTES_PER_HOUR)
    prepared = {}
    for region in regions:
        carbon = apply_input_faults(fault_plan, region.carbon)
        trace = prepare_carbon(carbon, workload, queues)
        if extra_hours:
            # Migration shifts arrivals later; keep the slack intact.
            trace = trace.tile_to(trace.num_hours + extra_hours)
        prepared[region.name] = trace
    # One forecaster per region, shared between the selector's context
    # and that region's engine, so forecast faults perturb both views.
    forecasters = {
        name: wrap_forecaster(fault_plan, PerfectForecaster(trace))
        for name, trace in prepared.items()
    }
    contexts = {
        name: SchedulingContext(
            forecaster=forecasters[name], queues=queues, granularity=granularity
        )
        for name in prepared
    }

    # Route every job; apply the migration delay off-home.
    all_jobs = list(workload)
    assigned: dict[str, list[Job]] = {name: [] for name in names}
    migrated = 0
    for job in all_jobs:
        region = selector.select(job, contexts)
        if region not in assigned:
            raise ConfigError(f"selector chose unknown region {region!r}")
        if region != home and migration_minutes:
            job = replace(job, arrival=job.arrival + migration_minutes)
            migrated += 1
        elif region != home:
            migrated += 1
        assigned[region].append(job)
    if tracer.enabled:
        tracer.emit(
            FederationRouted(
                selector=selector.name,
                home=home,
                regions=len(regions),
                jobs=len(all_jobs),
                migrated=migrated,
                migration_minutes=migration_minutes,
            )
        )

    eviction_model = wrap_eviction(fault_plan, None)
    by_region: dict[str, SimulationResult] = {}
    for region in regions:
        jobs = assigned[region.name]
        if not jobs:
            continue
        if jobs == all_jobs:
            # Every job landed here unshifted: run the original workload
            # so the result (name, horizon, digest) is bit-identical to
            # the plain single-region Engine.run path.
            sub_workload = workload
        else:
            sub_workload = WorkloadTrace(
                jobs, name=f"{workload.name}@{region.name}",
                horizon=max(workload.horizon, max(j.arrival for j in jobs) + 1),
            )
        region_policy = (
            make_policy(policy_spec) if policy_spec is not None else policy
        )
        engine = Engine(
            workload=sub_workload,
            carbon=prepared[region.name],
            policy=region_policy,
            queues=queues,
            reserved_cpus=region.reserved_cpus,
            pricing=pricing,
            energy=energy,
            eviction_model=eviction_model,
            forecaster=forecasters[region.name],
            granularity=granularity,
            validate=validate,
            spot_seed=spot_seed,
            tracer=tracer,
            fault_injector=engine_injector(fault_plan),
        )
        by_region[region.name] = engine.run()

    policy_name = next(iter(by_region.values())).policy_name if by_region else str(policy)
    registry = MetricsRegistry()
    registry.counter("federation.regions", float(len(regions)))
    registry.counter("federation.jobs", float(len(all_jobs)))
    registry.counter("federation.migrated", float(migrated))
    result = FederatedResult(
        selector_name=selector.name,
        policy_name=policy_name,
        home=home,
        per_region=by_region,
        placements={name: len(jobs) for name, jobs in assigned.items()},
        migrated_jobs=migrated,
        metrics=registry.snapshot(),
    )
    if validate:
        from repro.federation.validation import assert_valid_federated

        assert_valid_federated(result)
    if tracer.enabled:
        tracer.emit(
            FederationCompleted(
                selector=selector.name,
                policy=policy_name,
                regions=len(regions),
                jobs=result.total_jobs,
                migrated=migrated,
                carbon_kg=result.total_carbon_kg,
                cost_usd=result.total_cost,
            )
        )
    if owns_tracer:
        tracer.close()
    return result
