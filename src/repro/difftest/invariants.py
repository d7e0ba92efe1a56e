"""Metamorphic invariants: paper laws as executable checks.

Each check is a pure function that runs one or more simulations and
raises :class:`AssertionError` when the corresponding law is violated.
The :data:`INVARIANTS` registry maps check names to the paper claim they
encode (the table in ``docs/testing.md`` mirrors it), and the hypothesis
suite in ``tests/difftest/test_metamorphic.py`` drives every check over
randomized inputs.

Soundness notes (why the preconditions are what they are):

* *zero-slack collapse* holds for every policy only without evictions
  and checkpointing, because the law speaks about timing, not purchase
  options.
* *carbon scaling* uses power-of-two factors so that scaling the trace
  is exact in floating point; every policy's comparisons then order
  identically and decisions cannot move.
* *slack monotonicity* requires ``granularity=1`` (candidate grids are
  supersets as W widens) and holds for the carbon-aware policies whose
  objective is the window footprint itself; Lowest-Slot optimizes a
  single slot, not the execution window, and is excluded.  For the
  average-length policies the law additionally needs the length
  estimate to be exact (uniform per-queue lengths) -- otherwise the
  *realized* footprint drifts from the *optimized* one by the
  estimation error.
"""

from __future__ import annotations

import numpy as np

from repro.carbon.trace import CarbonIntensityTrace
from repro.cluster.energy import DEFAULT_ENERGY, EnergyModel
from repro.cluster.pricing import PurchaseOption
from repro.simulator.results import SimulationResult
from repro.simulator.simulation import run_simulation
from repro.units import MINUTES_PER_HOUR, days, hours
from repro.workload.job import JobQueue, QueueSet
from repro.workload.trace import WorkloadTrace

__all__ = [
    "INVARIANTS",
    "check_zero_slack_collapses_to_nowait",
    "check_carbon_scaling",
    "check_slack_monotonicity",
    "check_cost_option_ordering",
    "check_energy_conservation",
    "check_federation_single_region",
    "check_migration_delay_neutrality",
    "check_scaling_greedy_dominance",
    "check_scaling_feasibility",
    "slack_queue_set",
]

#: Carbon-aware policies whose objective is the execution-window
#: footprint; for these, widening W can only grow the candidate set.
SLACK_MONOTONE_POLICIES: tuple[str, ...] = ("lowest-window", "carbon-time", "wait-awhile")


def slack_queue_set(slack_factor: float) -> QueueSet:
    """The paper's two-queue configuration with waits scaled by a factor."""
    return QueueSet(
        (
            JobQueue(
                name="short",
                max_length=hours(2),
                max_wait=int(hours(6) * slack_factor),
            ),
            JobQueue(
                name="long",
                max_length=days(3),
                max_wait=int(hours(24) * slack_factor),
            ),
        )
    )


def _timing(result: SimulationResult) -> list[tuple[int, int, int]]:
    """The pure timing outcome: (job_id, first_start, finish) per record."""
    return [
        (record.job_id, record.first_start, record.finish)
        for record in result.records
    ]


def check_zero_slack_collapses_to_nowait(
    workload: WorkloadTrace,
    carbon: CarbonIntensityTrace,
    policy: str,
    granularity: int = 5,
) -> None:
    """Zero slack collapses every waiting policy to the NoWait schedule.

    With ``W = 0`` no policy has room to shift or pause work, so the
    timing outcome must equal NoWait's: every job starts at its arrival
    and finishes ``length`` minutes later.  (Paper Section 5.1: waiting
    policies trade *slack* for carbon; no slack, no trade.)  Evictions
    and checkpointing are excluded -- the law is about timing, and both
    perturb finishes independently of the policy.
    """
    queues = slack_queue_set(0.0)
    result = run_simulation(
        workload, carbon, policy, queues=queues, granularity=granularity
    )
    nowait = run_simulation(
        workload, carbon, "nowait", queues=queues, granularity=granularity
    )
    assert _timing(result) == _timing(nowait), (
        f"{policy} deviates from NoWait at zero slack"
    )
    for record in result.records:
        assert record.first_start == record.arrival
        assert record.finish == record.arrival + record.length


def check_carbon_scaling(
    workload: WorkloadTrace,
    carbon: CarbonIntensityTrace,
    policy: str,
    scale: float,
    granularity: int = 5,
    reserved_cpus: int = 0,
) -> None:
    """Scaling the carbon trace by ``k`` scales footprints by exactly ``k``.

    Carbon intensity enters every policy objective linearly, so a
    uniformly scaled trace reorders nothing: decisions (and therefore
    schedules, energy, and cost) are unchanged while every carbon field
    scales by ``k``.  (The paper normalizes all carbon results against
    NoWait -- Figs. 8-13 -- which presumes exactly this homogeneity.)
    ``scale`` should be a power of two so trace scaling is float-exact.
    """
    base = run_simulation(
        workload, carbon, policy,
        granularity=granularity, reserved_cpus=reserved_cpus,
    )
    scaled_trace = CarbonIntensityTrace(
        carbon.hourly * scale, name=f"{carbon.name}-x{scale}"
    )
    scaled = run_simulation(
        workload, scaled_trace, policy,
        granularity=granularity, reserved_cpus=reserved_cpus,
    )
    assert _timing(base) == _timing(scaled), (
        f"{policy}: decisions moved under carbon scaling x{scale}"
    )
    for base_record, scaled_record in zip(base.records, scaled.records):
        assert base_record.usage == scaled_record.usage
        for name in ("carbon_g", "baseline_carbon_g"):
            expected = getattr(base_record, name) * scale
            actual = getattr(scaled_record, name)
            assert abs(actual - expected) <= 1e-9 * max(1.0, abs(expected)), (
                f"{name} scaled by {actual / max(getattr(base_record, name), 1e-300)}, "
                f"expected {scale}"
            )
        assert scaled_record.energy_kwh == base_record.energy_kwh
        assert scaled_record.usage_cost == base_record.usage_cost


def check_slack_monotonicity(
    workload: WorkloadTrace,
    carbon: CarbonIntensityTrace,
    policy: str,
    slack_factors: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0),
) -> None:
    """Widening slack never increases carbon for carbon-aware policies.

    At ``granularity=1`` the candidate start set for a wider W is a
    superset of the narrower one, so a policy minimizing its window
    footprint can only do at least as well (paper Fig. 9: savings grow
    monotonically with the waiting bound).  Applies to
    :data:`SLACK_MONOTONE_POLICIES`; Lowest-Slot optimizes one slot
    rather than the window and Ecovisor's threshold is recomputed per
    window, so neither is covered by the law.

    Precondition: the law speaks about the footprint the policy
    *optimizes*.  Wait Awhile knows exact lengths, but Lowest-Window and
    Carbon-Time optimize the queue-average window Ĵ; when Ĵ != J the
    realized footprint can rise by the estimation error even as the
    optimized one falls.  Callers must therefore pass workloads whose
    per-queue lengths are uniform (so Ĵ == J exactly).
    """
    assert policy in SLACK_MONOTONE_POLICIES, f"{policy} is not slack-monotone"
    previous_carbon_g: float | None = None
    for slack_factor in sorted(slack_factors):
        result = run_simulation(
            workload, carbon, policy,
            queues=slack_queue_set(slack_factor), granularity=1,
        )
        total_carbon_g = result.total_carbon_g
        if previous_carbon_g is not None:
            tolerance = 1e-9 * max(1.0, previous_carbon_g)
            assert total_carbon_g <= previous_carbon_g + tolerance, (
                f"{policy}: carbon rose from {previous_carbon_g} to "
                f"{total_carbon_g} when slack widened to x{slack_factor}"
            )
        previous_carbon_g = total_carbon_g


def check_cost_option_ordering(
    workload: WorkloadTrace, carbon: CarbonIntensityTrace
) -> None:
    """Spot <= reserved <= on-demand cost at equal schedules.

    The paper's pricing (Section 2.3): spot at 20% and reserved at 40%
    of the on-demand rate.  Running the *same* NoWait schedule entirely
    on each option must realize that ordering: metered spot cost <= the
    reserved-rate cost of the same CPU-minutes <= metered on-demand
    cost.  Reserved usage itself is never metered (covered upfront).
    """
    from repro.policies.registry import make_policy

    on_demand = run_simulation(workload, carbon, "nowait", reserved_cpus=0)
    # Raise the spot eligibility bound to the longest queue so *every*
    # job runs on spot, not just the short queue (paper default J^max=2h).
    all_spot = make_policy("spot-first:nowait", spot_max_length=days(3))
    spot = run_simulation(workload, carbon, all_spot, reserved_cpus=0)
    peak = int(np.max(workload.demand_profile())) if len(workload) else 0
    reserved = run_simulation(workload, carbon, "nowait", reserved_cpus=peak)

    assert _timing(on_demand) == _timing(spot) == _timing(reserved), (
        "schedules differ between purchase options"
    )
    cpu_minutes = sum(on_demand.cpu_minutes_by_option().values())
    pricing = on_demand.pricing
    reserved_rate_cost = pricing.reserved_hourly * cpu_minutes / MINUTES_PER_HOUR
    tolerance = 1e-9 * max(1.0, on_demand.metered_cost)
    assert spot.metered_cost <= reserved_rate_cost + tolerance
    assert reserved_rate_cost <= on_demand.metered_cost + tolerance
    assert reserved.metered_cost == 0.0, "reserved usage must not be metered"
    expected_spot = on_demand.metered_cost * pricing.spot_fraction
    assert abs(spot.metered_cost - expected_spot) <= tolerance


def check_energy_conservation(
    result: SimulationResult,
    energy: EnergyModel = DEFAULT_ENERGY,
    instance_overhead_minutes: int = 0,
) -> None:
    """Per-job energy recomputed from usage sums to the cluster total.

    Energy is attributed by actual usage for every purchase option
    (paper Section 4.1): each record's ``energy_kwh`` must equal the
    scalar integral of its usage intervals (plus boot overhead for
    elastic allocations), and the cluster total must be their sum.
    """
    recomputed_total_kwh = 0.0
    for record in result.records:
        kw = energy.active_kw(record.cpus)
        expected_kwh = 0.0
        for interval in record.usage:
            expected_kwh += kw * (interval.end - interval.start) / MINUTES_PER_HOUR
            if (
                instance_overhead_minutes
                and interval.option is not PurchaseOption.RESERVED
            ):
                expected_kwh += energy.energy_kwh(record.cpus, instance_overhead_minutes)
        tolerance = 1e-9 * max(1.0, expected_kwh)
        assert abs(record.energy_kwh - expected_kwh) <= tolerance, (
            f"job {record.job_id}: energy {record.energy_kwh} != usage "
            f"integral {expected_kwh}"
        )
        recomputed_total_kwh += record.energy_kwh
    tolerance = 1e-9 * max(1.0, recomputed_total_kwh)
    assert abs(result.total_energy_kwh - recomputed_total_kwh) <= tolerance


def check_federation_single_region(
    workload: WorkloadTrace,
    carbon: CarbonIntensityTrace,
    policy: str,
    granularity: int = 5,
    reserved_cpus: int = 0,
) -> None:
    """A single-region federation degenerates to the plain engine, bit for bit.

    With one region every selector places every job at home unshifted,
    so the federated runner must execute the *same* engine call as
    :func:`~repro.simulator.simulation.run_simulation` -- the region's
    :meth:`SimulationResult.digest` (which hashes every record field and
    every float via ``repr``) must be identical, not merely tolerant.
    """
    from repro.federation.selectors import SELECTOR_SPECS, make_selector
    from repro.federation.simulation import FederatedRegion, run_federated_simulation

    plain = run_simulation(
        workload, carbon, policy,
        granularity=granularity, reserved_cpus=reserved_cpus,
    )
    region = FederatedRegion(
        name=carbon.name or "only", carbon=carbon, reserved_cpus=reserved_cpus
    )
    for selector_spec in SELECTOR_SPECS:
        federated = run_federated_simulation(
            workload,
            [region],
            make_selector(selector_spec, region.name),
            policy,
            granularity=granularity,
        )
        assert federated.placements == {region.name: len(workload)}
        assert federated.migrated_jobs == 0
        only = federated.per_region[region.name]
        assert only.digest() == plain.digest(), (
            f"selector {selector_spec}: single-region federation diverged "
            f"from the plain engine"
        )


def check_migration_delay_neutrality(
    workload: WorkloadTrace,
    regions,
    policy: str,
    migration_minutes: int,
    granularity: int = 5,
) -> None:
    """The migration delay is accounting-neutral for home placements.

    Data staging only shifts the arrival of jobs placed *off* home, so
    under the home selector (zero off-home placements) any migration
    delay must leave the merged outcome digest-identical to the
    zero-delay run.  Each region's trace is tiled a little further to
    keep the delay's slack, which must not move any decision: candidate
    windows are bounded by the queues' waiting budgets, already covered
    by the undelayed preparation.
    """
    from repro.federation.selectors import make_selector
    from repro.federation.simulation import run_federated_simulation

    home = regions[0].name
    base = run_federated_simulation(
        workload, list(regions), make_selector("home", home), policy,
        home=home, migration_minutes=0, granularity=granularity,
    )
    delayed = run_federated_simulation(
        workload, list(regions), make_selector("home", home), policy,
        home=home, migration_minutes=migration_minutes, granularity=granularity,
    )
    assert delayed.migrated_jobs == 0, "home selector must not migrate"
    assert base.digest() == delayed.digest(), (
        f"{policy}: migration delay {migration_minutes} changed a run with "
        "only home placements"
    )


def check_scaling_greedy_dominance(
    job,
    carbon: CarbonIntensityTrace,
    speedup=None,
    energy: EnergyModel = DEFAULT_ENERGY,
) -> None:
    """The greedy scaling plan never beats -- is never beaten by -- any
    fixed allocation, carbon-wise.

    Energy is linear in CPUs, so under a concave speedup the greedy plan
    equals the fractional-LP optimum up to one minute of ceil rounding
    on its most expensive unit; every feasible fixed (constant-CPU,
    run-on-arrival) allocation is a feasible point of that LP.  The
    greedy plan's carbon must therefore be at most the fixed plan's plus
    one cpu-minute of carbon at the trace maximum.
    """
    from repro.scaling.planner import fixed_allocation_plan, plan_carbon_scaling
    from repro.scaling.speedup import LinearSpeedup

    speedup = speedup if speedup is not None else LinearSpeedup()
    for cpus in range(1, job.max_cpus + 1):
        rate = speedup.rate(cpus)
        if rate <= 0:
            continue
        fixed = fixed_allocation_plan(job, carbon, cpus, energy=energy, speedup=speedup)
        deadline = fixed.completion_minute
        greedy = plan_carbon_scaling(
            job, carbon, deadline, speedup=speedup, energy=energy
        )
        max_ci = float(np.max(carbon.hourly[: -(-deadline // MINUTES_PER_HOUR)]))
        rounding_slack = max_ci * energy.active_kw(1) / MINUTES_PER_HOUR
        tolerance = rounding_slack + 1e-9 * max(1.0, fixed.carbon_g)
        assert greedy.carbon_g <= fixed.carbon_g + tolerance, (
            f"greedy plan emits {greedy.carbon_g:.6f} g, fixed {cpus}-CPU "
            f"allocation only {fixed.carbon_g:.6f} g (deadline {deadline})"
        )


def check_scaling_feasibility(
    job,
    carbon: CarbonIntensityTrace,
    deadline: int,
    speedup=None,
    energy: EnergyModel = DEFAULT_ENERGY,
) -> None:
    """Every plan meets its work, deadline, and CPU-cap constraints.

    The planner either raises :class:`SchedulingError` (infeasible) or
    returns a plan that finishes the work by the deadline inside the
    CPU cap, with non-overlapping, ordered allocation segments.
    """
    from repro.scaling.planner import plan_carbon_scaling
    from repro.scaling.speedup import LinearSpeedup

    speedup = speedup if speedup is not None else LinearSpeedup()
    plan = plan_carbon_scaling(job, carbon, deadline, speedup=speedup, energy=energy)
    assert plan.work_done(speedup) + 1e-6 >= job.work, (
        f"plan accomplishes {plan.work_done(speedup)} of {job.work} work-minutes"
    )
    assert plan.completion_minute <= deadline
    assert plan.peak_cpus <= job.max_cpus
    previous_end = None
    for start, end, cpus in sorted(plan.allocation):
        assert job.arrival <= start < end <= deadline
        assert 1 <= cpus <= job.max_cpus
        assert previous_end is None or start >= previous_end, (
            "allocation segments overlap"
        )
        previous_end = end


#: Registry of metamorphic invariants with the paper claim each encodes.
#: ``docs/testing.md`` renders this table; the hypothesis suite drives
#: every check.
INVARIANTS: dict[str, dict[str, object]] = {
    "zero-slack-collapse": {
        "claim": "Waiting policies trade slack for carbon; with W=0 every "
        "policy's timing equals NoWait (paper Section 5.1, Table 1).",
        "check": check_zero_slack_collapses_to_nowait,
    },
    "carbon-scaling": {
        "claim": "Carbon enters every objective linearly; scaling the CI "
        "trace by k leaves decisions unchanged and scales footprints by k "
        "(normalization premise of Figs. 8-13).",
        "check": check_carbon_scaling,
    },
    "slack-monotonicity": {
        "claim": "Widening the waiting bound never increases carbon for "
        "window-optimizing carbon-aware policies (paper Fig. 9).",
        "check": check_slack_monotonicity,
    },
    "cost-option-ordering": {
        "claim": "Spot (20%) <= reserved (40%) <= on-demand (100%) pricing "
        "at equal schedules; reserved usage is never metered (Section 2.3).",
        "check": check_cost_option_ordering,
    },
    "energy-conservation": {
        "claim": "Energy and carbon are attributed by actual usage; per-job "
        "energy equals the usage integral and sums to the cluster total "
        "(Section 4.1).",
        "check": check_energy_conservation,
    },
    "federation-single-region": {
        "claim": "Spatial shifting degenerates gracefully: a one-region "
        "federation is bit-identical (result digest) to the plain engine "
        "under every selector (spatial future work, Section 9).",
        "check": check_federation_single_region,
    },
    "migration-delay-neutrality": {
        "claim": "Data-staging delay prices only off-home placements; with "
        "every job at home, any migration delay leaves the merged outcome "
        "digest-identical to the zero-delay run.",
        "check": check_migration_delay_neutrality,
    },
    "scaling-greedy-dominance": {
        "claim": "Under concave speedups the greedy scaling plan never "
        "exceeds any fixed allocation's carbon (beyond one cpu-minute of "
        "ceil rounding) -- the CarbonScaler exchange argument (Section 9).",
        "check": check_scaling_greedy_dominance,
    },
    "scaling-feasibility": {
        "claim": "Scaling plans always meet their work, deadline, and "
        "CPU-cap constraints or the planner raises instead of emitting an "
        "infeasible plan.",
        "check": check_scaling_feasibility,
    },
}
