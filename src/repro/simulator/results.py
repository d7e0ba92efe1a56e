"""Simulation outputs: per-job records and cluster-wide accounting.

The accounting follows the paper (Section 4.1): on-demand and spot usage
is metered per use; reserved capacity is paid upfront for the whole
horizon regardless of utilization; energy and carbon are attributed by
actual usage for every purchase option.
"""

from __future__ import annotations

import functools
import hashlib
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.pricing import PricingModel, PurchaseOption
from repro.errors import SimulationError
from repro.units import MINUTES_PER_HOUR, grams_to_kg

__all__ = ["UsageInterval", "JobRecord", "SimulationResult", "demand_profile"]

#: Scalar ``JobRecord`` fields, in declaration order, used by the
#: columnar pickle format (``usage`` is flattened separately).
_RECORD_SCALARS = (
    "job_id",
    "queue",
    "arrival",
    "length",
    "cpus",
    "first_start",
    "finish",
    "carbon_g",
    "energy_kwh",
    "usage_cost",
    "baseline_carbon_g",
    "evictions",
    "lost_cpu_minutes",
    "checkpoint_overhead_minutes",
    "provisioning_cpu_minutes",
)


def _per_records(compute: Callable[[SimulationResult], float]) -> property:
    """A total over ``records``, computed once per attached records tuple.

    A figure row reads several totals of a result and divides each by its
    baseline's, so recomputing them walks every record (tens of thousands
    of scattered objects) about ten times a row.  Records are frozen and
    a tuple cannot change, so a memoized value stays exact while
    ``self.records`` is the very tuple it came from; a ``records`` list is
    never memoized, and :meth:`SimulationResult.__getstate__` drops the
    memo.
    """
    name = compute.__name__

    @functools.wraps(compute)
    def get(self: SimulationResult) -> float:
        records = self.records
        memo = self.__dict__.get("_totals")
        if memo is None or memo[0] is not records:
            memo = (records, {})
            if isinstance(records, tuple):
                self.__dict__["_totals"] = memo
        values = memo[1]
        if name not in values:
            values[name] = compute(self)
        return values[name]

    return property(get)


@dataclass(frozen=True)
class UsageInterval:
    """One contiguous stretch of execution on one purchase option."""

    start: int
    end: int
    cpus: int
    option: PurchaseOption

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise SimulationError(f"empty usage interval [{self.start}, {self.end})")

    @classmethod
    def _from_validated(
        cls, start: int, end: int, cpus: int, option: PurchaseOption
    ) -> "UsageInterval":
        """Engine-internal fast constructor.

        Skips dataclass ``__init__``/``__post_init__``; callers must
        already hold the non-empty-interval invariant (e.g. ``end ==
        start + job.length`` with the job's validated positive length).
        """
        interval = cls.__new__(cls)
        object.__setattr__(
            interval,
            "__dict__",
            {"start": start, "end": end, "cpus": cpus, "option": option},
        )
        return interval

    @property
    def cpu_minutes(self) -> float:
        """CPU-minutes metered by this interval (duration times width)."""
        return float((self.end - self.start) * self.cpus)


@dataclass(frozen=True)
class JobRecord:
    """Everything accounted for one completed job.

    ``waiting`` generalizes "start minus arrival" to suspend-resume and
    evicted executions: it is the completion time minus the job's pure
    length, i.e. all time the user lost to delays, pauses, and redone
    work.
    """

    job_id: int
    queue: str
    arrival: int
    length: int
    cpus: int
    first_start: int
    finish: int
    carbon_g: float
    energy_kwh: float
    usage_cost: float
    baseline_carbon_g: float
    usage: tuple[UsageInterval, ...]
    evictions: int = 0
    lost_cpu_minutes: float = 0.0
    checkpoint_overhead_minutes: float = 0.0
    provisioning_cpu_minutes: float = 0.0

    def __post_init__(self) -> None:
        if self.first_start < self.arrival:
            raise SimulationError(f"job {self.job_id} started before arrival")
        if self.finish < self.first_start + self.length:
            raise SimulationError(f"job {self.job_id} finished implausibly early")

    @classmethod
    def _from_validated(cls, fields: dict) -> "JobRecord":
        """Engine-internal fast constructor from a complete field dict.

        Skips dataclass ``__init__``/``__post_init__``; the engine checks
        the record invariants vectorized across all runs before assembly
        (and falls back to the validating constructor to raise the exact
        per-job error when one fails).
        """
        record = cls.__new__(cls)
        object.__setattr__(record, "__dict__", fields)
        return record

    @property
    def completion_time(self) -> int:
        """Minutes from submission to completion."""
        return self.finish - self.arrival

    @property
    def waiting_time(self) -> int:
        """Completion time in excess of the job's pure execution length."""
        return self.completion_time - self.length

    @property
    def carbon_saving_g(self) -> float:
        """Carbon saved relative to running on arrival (may be negative)."""
        return self.baseline_carbon_g - self.carbon_g

    @property
    def options_used(self) -> tuple[PurchaseOption, ...]:
        """Distinct purchase options, in first-use order."""
        seen: list[PurchaseOption] = []
        for interval in self.usage:
            if interval.option not in seen:
                seen.append(interval.option)
        return tuple(seen)


@dataclass
class SimulationResult:
    """Aggregate outcome of one simulation run.

    ``metrics`` is the engine's observability snapshot (see
    :mod:`repro.obs.metrics`): counters/gauges/histograms describing how
    the run executed (decisions, memo hits, evictions, waiting
    distribution).  It is *diagnostic* state -- excluded from equality
    comparisons and from :meth:`digest`, which cover only the simulated
    outcome.
    """

    policy_name: str
    workload_name: str
    region: str
    reserved_cpus: int
    horizon: int
    pricing: PricingModel
    records: tuple[JobRecord, ...] = field(default_factory=tuple)
    metrics: dict = field(default_factory=dict, compare=False, repr=False)

    # ------------------------------------------------------------------
    # Pickling (columnar)
    # ------------------------------------------------------------------
    # A result is mostly its records, and default dataclass pickling
    # writes one ``__dict__`` per record and per usage interval -- the
    # dominant cost of shipping results out of sweep worker processes
    # and through the on-disk cache.  Transposing the records into
    # per-field columns (with usage intervals flattened alongside) cuts
    # both the byte size and the round-trip time roughly in half while
    # round-tripping to an equal object, digest included.
    def __getstate__(self) -> dict:
        base = dict(self.__dict__)
        base["records"] = None
        base.pop("_totals", None)
        columns = tuple(
            [getattr(record, name) for record in self.records]
            for name in _RECORD_SCALARS
        )
        counts = [len(record.usage) for record in self.records]
        intervals = [interval for record in self.records for interval in record.usage]
        usage_columns = (
            [interval.start for interval in intervals],
            [interval.end for interval in intervals],
            [interval.cpus for interval in intervals],
            [interval.option.value for interval in intervals],
        )
        return {"base": base, "columns": columns, "counts": counts,
                "usage_columns": usage_columns,
                "records_are_tuple": isinstance(self.records, tuple)}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state["base"])
        options = {option.value: option for option in PurchaseOption}
        new_interval = UsageInterval.__new__
        new_record = JobRecord.__new__
        set_attr = object.__setattr__
        intervals = []
        for start, end, cpus, option_value in zip(*state["usage_columns"]):
            interval = new_interval(UsageInterval)
            set_attr(
                interval,
                "__dict__",
                {
                    "start": start,
                    "end": end,
                    "cpus": cpus,
                    "option": options[option_value],
                },
            )
            intervals.append(interval)
        records = []
        position = 0
        for row in zip(*state["columns"], state["counts"]):
            count = row[-1]
            fields = dict(zip(_RECORD_SCALARS, row[:-1]))
            fields["usage"] = tuple(intervals[position : position + count])
            position += count
            record = new_record(JobRecord)
            set_attr(record, "__dict__", fields)
            records.append(record)
        self.__dict__["records"] = (
            tuple(records) if state["records_are_tuple"] else records
        )

    # ------------------------------------------------------------------
    # Carbon and energy
    # ------------------------------------------------------------------
    @_per_records
    def total_carbon_g(self) -> float:
        """Emissions of all jobs, in grams of CO2-equivalent."""
        return float(sum(record.carbon_g for record in self.records))

    @property
    def total_carbon_kg(self) -> float:
        """Emissions of all jobs, in kilograms of CO2-equivalent."""
        return grams_to_kg(self.total_carbon_g)

    @_per_records
    def baseline_carbon_g(self) -> float:
        """Footprint had every job run on arrival (the NoWait schedule)."""
        return float(sum(record.baseline_carbon_g for record in self.records))

    @_per_records
    def total_energy_kwh(self) -> float:
        """Energy drawn by all jobs, in kilowatt-hours."""
        return float(sum(record.energy_kwh for record in self.records))

    # ------------------------------------------------------------------
    # Cost
    # ------------------------------------------------------------------
    @property
    def reserved_upfront_cost(self) -> float:
        """Upfront payment for the reserved pool over the whole horizon."""
        return self.pricing.reserved_upfront(self.reserved_cpus, self.horizon)

    @_per_records
    def metered_cost(self) -> float:
        """Pay-as-you-go cost of on-demand and spot usage."""
        return float(sum(record.usage_cost for record in self.records))

    @property
    def carbon_tax_cost(self) -> float:
        """Cost of emissions under the pricing model's carbon price."""
        return self.pricing.carbon_price_per_kg * self.total_carbon_kg

    @property
    def total_cost(self) -> float:
        """Full bill in USD: reserved upfront + metered usage + carbon tax."""
        return self.reserved_upfront_cost + self.metered_cost + self.carbon_tax_cost

    # ------------------------------------------------------------------
    # Performance
    # ------------------------------------------------------------------
    @_per_records
    def mean_waiting_minutes(self) -> float:
        """Mean per-job waiting time (delay beyond pure length), minutes.

        0 for a zero-job result (never a NaN or a numpy warning).
        ``JobRecord.waiting_time`` is inlined (the same left-to-right
        subtraction): two property calls per record dominated this read.
        """
        if not self.records:
            return 0.0
        return float(
            np.mean([record.finish - record.arrival - record.length for record in self.records])
        )

    @property
    def mean_waiting_hours(self) -> float:
        """Mean per-job waiting time, in hours."""
        return self.mean_waiting_minutes / MINUTES_PER_HOUR

    @property
    def total_waiting_hours(self) -> float:
        """Summed waiting time across all jobs, in hours."""
        return float(sum(r.waiting_time for r in self.records)) / MINUTES_PER_HOUR

    @property
    def mean_completion_hours(self) -> float:
        """Mean submission-to-completion time per job, in hours (0 if no jobs)."""
        if not self.records:
            return 0.0
        return (
            float(np.mean([record.completion_time for record in self.records]))
            / MINUTES_PER_HOUR
        )

    def waiting_percentiles(self, percentiles=(50, 90, 95, 99)) -> dict[int, float]:
        """Waiting-time percentiles in hours (tail latency of the queue)."""
        if not self.records:
            return {int(p): 0.0 for p in percentiles}
        waits = np.array([record.waiting_time for record in self.records], dtype=float)
        return {
            int(p): float(np.percentile(waits, p)) / MINUTES_PER_HOUR
            for p in percentiles
        }

    def by_queue(self) -> dict[str, dict[str, float]]:
        """Per-queue breakdown: job count, carbon, mean/95p waiting."""
        groups: dict[str, list[JobRecord]] = {}
        for record in self.records:
            groups.setdefault(record.queue, []).append(record)
        breakdown = {}
        for queue, records in sorted(groups.items()):
            waits = np.array([r.waiting_time for r in records], dtype=float)
            breakdown[queue] = {
                "jobs": float(len(records)),
                "carbon_kg": grams_to_kg(sum(r.carbon_g for r in records)),
                "mean_wait_h": float(waits.mean()) / MINUTES_PER_HOUR,
                "p95_wait_h": float(np.percentile(waits, 95)) / MINUTES_PER_HOUR,
                "cpu_hours": float(
                    sum(r.length * r.cpus for r in records) / MINUTES_PER_HOUR
                ),
            }
        return breakdown

    # ------------------------------------------------------------------
    # Utilization and spot
    # ------------------------------------------------------------------
    def cpu_minutes_by_option(self) -> dict[PurchaseOption, float]:
        """CPU-minutes of realized usage per purchase option (all keys present)."""
        totals = {option: 0.0 for option in PurchaseOption}
        for record in self.records:
            for interval in record.usage:
                totals[interval.option] += interval.cpu_minutes
        return totals

    @property
    def reserved_utilization(self) -> float:
        """Busy fraction of the pre-paid reserved pool over the horizon.

        Usage past the nominal horizon (jobs still draining) is clipped so
        utilization stays in [0, 1].
        """
        if self.reserved_cpus == 0 or self.horizon == 0:
            return 0.0
        busy = 0.0
        for record in self.records:
            for interval in record.usage:
                if interval.option is not PurchaseOption.RESERVED:
                    continue
                end = min(interval.end, self.horizon)
                if end > interval.start:
                    busy += (end - interval.start) * interval.cpus
        return busy / (self.reserved_cpus * self.horizon)

    @property
    def total_evictions(self) -> int:
        """Total spot revocations suffered across all jobs."""
        return sum(record.evictions for record in self.records)

    @property
    def lost_cpu_hours(self) -> float:
        """CPU-hours of progress redone because of evictions."""
        return (
            float(sum(record.lost_cpu_minutes for record in self.records))
            / MINUTES_PER_HOUR
        )

    @property
    def provisioning_cpu_hours(self) -> float:
        """CPU-hours spent booting elastic instances (0 unless enabled)."""
        return (
            float(sum(r.provisioning_cpu_minutes for r in self.records))
            / MINUTES_PER_HOUR
        )

    @property
    def checkpoint_overhead_cpu_hours(self) -> float:
        """CPU-hours spent writing checkpoints (0 unless enabled)."""
        return (
            float(sum(r.checkpoint_overhead_minutes for r in self.records))
            / MINUTES_PER_HOUR
        )

    # ------------------------------------------------------------------
    # Comparisons
    # ------------------------------------------------------------------
    def carbon_savings_vs(self, baseline: "SimulationResult") -> float:
        """Fractional carbon saving relative to another run (1 = all)."""
        base = baseline.total_carbon_g
        if base <= 0:
            raise SimulationError("baseline carbon must be positive")
        return 1.0 - self.total_carbon_g / base

    def cost_increase_vs(self, baseline: "SimulationResult") -> float:
        """Fractional cost increase relative to another run."""
        base = baseline.total_cost
        if base <= 0:
            raise SimulationError("baseline cost must be positive")
        return self.total_cost / base - 1.0

    def digest(self) -> str:
        """Hex digest of the full result, for determinism regression tests.

        Two runs of the same scenario with the same seeds must produce
        bit-identical digests (the runtime complement of lint rule
        SIM001): the hash covers every per-job record field, every usage
        interval, and the run's identifying configuration.  Float fields
        are hashed via ``repr`` (exact shortest-roundtrip form), so any
        drift -- reordered accumulation, a different RNG draw -- changes
        the digest.
        """
        hasher = hashlib.sha256()
        hasher.update(
            f"{self.policy_name}|{self.workload_name}|{self.region}|"
            f"{self.reserved_cpus}|{self.horizon}".encode()
        )
        for record in self.records:
            hasher.update(
                f"{record.job_id}|{record.queue}|{record.arrival}|"
                f"{record.length}|{record.cpus}|{record.first_start}|"
                f"{record.finish}|{record.carbon_g!r}|{record.energy_kwh!r}|"
                f"{record.usage_cost!r}|{record.baseline_carbon_g!r}|"
                f"{record.evictions}|{record.lost_cpu_minutes!r}|"
                f"{record.checkpoint_overhead_minutes!r}|"
                f"{record.provisioning_cpu_minutes!r}".encode()
            )
            for interval in record.usage:
                hasher.update(
                    f"{interval.start}|{interval.end}|{interval.cpus}|"
                    f"{interval.option.value}".encode()
                )
        return hasher.hexdigest()

    def summary(self) -> dict[str, float | str]:
        """Flat summary used by reports and benchmarks."""
        return {
            "policy": self.policy_name,
            "workload": self.workload_name,
            "region": self.region,
            "reserved_cpus": self.reserved_cpus,
            "carbon_kg": self.total_carbon_kg,
            "cost_usd": self.total_cost,
            "metered_usd": self.metered_cost,
            "reserved_usd": self.reserved_upfront_cost,
            "mean_wait_h": self.mean_waiting_hours,
            "mean_completion_h": self.mean_completion_hours,
            "reserved_utilization": self.reserved_utilization,
            "evictions": float(self.total_evictions),
            "lost_cpu_h": self.lost_cpu_hours,
        }


def demand_profile(
    records: Iterable[JobRecord],
    horizon: int,
    option: PurchaseOption | None = None,
) -> np.ndarray:
    """Per-minute CPU demand realized by a set of job records.

    ``option`` restricts the profile to one purchase option; ``None``
    aggregates all.  Usage past the horizon is clipped.
    """
    delta = np.zeros(horizon + 1, dtype=np.float64)
    for record in records:
        for interval in record.usage:
            if option is not None and interval.option is not option:
                continue
            start = min(interval.start, horizon)
            end = min(interval.end, horizon)
            if end <= start:
                continue
            delta[start] += interval.cpus
            delta[end] -= interval.cpus
    return np.cumsum(delta[:-1])
