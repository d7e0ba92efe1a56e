"""Simulation outputs: per-job records and cluster-wide accounting.

The accounting follows the paper (Section 4.1): on-demand and spot usage
is metered per use; reserved capacity is paid upfront for the whole
horizon regardless of utilization; energy and carbon are attributed by
actual usage for every purchase option.
"""

from __future__ import annotations

import hashlib
from array import array
from collections.abc import Iterable
from dataclasses import dataclass, field, fields
from itertools import islice
from typing import TypeVar

import numpy as np

from repro.cluster.pricing import PricingModel, PurchaseOption
from repro.errors import SimulationError
from repro.units import MINUTES_PER_HOUR, grams_to_kg

__all__ = ["UsageInterval", "JobRecord", "SimulationResult", "demand_profile"]

_T = TypeVar("_T")

#: Purchase options by column code (``usage_option`` stores the index).
_OPTIONS = tuple(PurchaseOption)
_OPTION_CODES = {option: code for code, option in enumerate(_OPTIONS)}

#: ``JobRecord`` scalar fields, in declaration (and digest) order, with
#: their column typecode; ``None`` is a list of str.
_RECORD_COLUMNS = {
    "job_id": "q", "queue": None, "arrival": "q", "length": "q", "cpus": "q",
    "first_start": "q", "finish": "q", "carbon_g": "d", "energy_kwh": "d",
    "usage_cost": "d", "baseline_carbon_g": "d", "evictions": "q",
    "lost_cpu_minutes": "d", "checkpoint_overhead_minutes": "d",
    "provisioning_cpu_minutes": "d",
}
#: Usage intervals flattened in record order; ``usage_count`` is per record.
_USAGE_COLUMNS = {"usage_start": "q", "usage_end": "q", "usage_cpus": "q", "usage_option": "b"}
_COLUMNS = {**_RECORD_COLUMNS, "usage_count": "q", **_USAGE_COLUMNS}
#: The one Python type a column accepts from a ``JobRecord``, by
#: typecode: nothing is coerced, so a value read back (and its ``repr``
#: in the digest) is the value stored.
_EXACT_TYPE = {"q": int, "d": float, "b": PurchaseOption, None: str}


def _columns_of(records: tuple[JobRecord, ...]) -> dict[str, list]:
    """Transpose records into column lists; an inexact value raises."""
    intervals = [interval for record in records for interval in record.usage]
    columns = {name: [getattr(record, name) for record in records] for name in _RECORD_COLUMNS}
    columns["usage_count"] = [len(record.usage) for record in records]
    for name in _USAGE_COLUMNS:
        columns[name] = [getattr(interval, name.removeprefix("usage_")) for interval in intervals]
    for name, column in columns.items():
        expected = _EXACT_TYPE[_COLUMNS[name]]
        if not set(map(type, column)) <= {expected}:
            index, value = next((i, v) for i, v in enumerate(column) if type(v) is not expected)
            raise SimulationError(
                f"{name}[{index}] = {value!r} is a {type(value).__name__}, not a "
                f"{expected.__name__}: result columns hold exact values"
            )
    columns["usage_option"] = [_OPTION_CODES[option] for option in columns["usage_option"]]
    return columns


def _packed(columns: dict) -> dict[str, array | list]:
    """Lists or numpy arrays as checked result columns, in canonical order."""
    packed = {}
    for name, code in _COLUMNS.items():
        try:
            packed[name] = (
                columns[name]
                if code is None
                else array(code, np.asarray(columns[name], code).tobytes())
            )
        except OverflowError as error:
            raise SimulationError(f"{name} out of range for its column: {error}") from None
    _check_columns(packed)
    return packed


def _trusted(cls: type[_T], values: dict) -> _T:
    """A frozen dataclass instance from a complete field dict.

    Skips ``__init__``/``__post_init__``: only for values read back from
    columns that :func:`_check_columns` accepted, which holds the
    ``JobRecord`` and ``UsageInterval`` invariants.
    """
    instance = cls.__new__(cls)
    object.__setattr__(instance, "__dict__", values)
    return instance


def _check_columns(columns: object) -> None:
    """Reject columns that cannot be one result's records.

    Runs on every engine-built result and on every unpickle, so a
    corrupt cache entry fails here (a cache miss), never on a later
    ``records`` read.  Also checks the ``UsageInterval`` and
    ``JobRecord`` invariants, the latter with the validating
    constructor's per-job message.
    """
    if not isinstance(columns, dict) or columns.keys() != _COLUMNS.keys():
        raise SimulationError("result columns are missing or unknown")
    for name, code in _COLUMNS.items():
        if getattr(columns[name], "typecode", None) != code:
            raise SimulationError(f"result column {name!r} has the wrong type")
    jobs = {len(columns[name]) for name in (*_RECORD_COLUMNS, "usage_count")}
    intervals = {len(columns[name]) for name in _USAGE_COLUMNS}
    if len(jobs) != 1 or len(intervals) != 1:
        raise SimulationError("result columns disagree in length")
    counts, start, end, arrival, length, first_start, finish = (
        np.frombuffer(columns[name], np.int64)
        for name in (
            "usage_count", "usage_start", "usage_end", "arrival", "length", "first_start", "finish"
        )
    )
    codes = np.frombuffer(columns["usage_option"], np.int8)
    if (
        (counts < 0).any()
        or int(counts.sum()) != intervals.pop()
        or (end <= start).any()
        or (codes.size and (codes.min() < 0 or codes.max() >= len(_OPTIONS)))
    ):
        raise SimulationError("result usage columns are inconsistent")
    early = first_start < arrival
    bad = early | (finish < first_start + length)
    if bad.any():
        index = int(bad.argmax())
        problem = "started before arrival" if early[index] else "finished implausibly early"
        raise SimulationError(f"job {columns['job_id'][index]} {problem}")


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

    Stored as columns (one ``array`` per ``JobRecord`` field, usage
    intervals flattened in record order), which totals, pickling and
    :meth:`digest` read.  ``records`` is built on first read; assigning
    it converts it to columns, and a value whose type is not its
    column's exactly raises :class:`SimulationError`.

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
    _columns: dict = field(default_factory=dict, init=False, repr=False)
    records: tuple[JobRecord, ...] = ()
    metrics: dict = field(default_factory=dict, repr=False)

    @classmethod
    def _from_columns(cls, columns: dict, **meta) -> "SimulationResult":
        """Engine-internal constructor from numpy arrays and value lists."""
        result = cls(**meta)
        result.__dict__.update(_columns=_packed(columns), _records=None, _sums={})
        return result

    def _get_records(self) -> tuple[JobRecord, ...]:
        records = self.__dict__["_records"]
        if records is None:
            records = self.__dict__["_records"] = self._build_records()
        return records

    def _set_records(self, records: Iterable[JobRecord]) -> None:
        records = tuple(records)
        self.__dict__.update(_columns=_packed(_columns_of(records)), _records=records, _sums={})

    def _build_records(self) -> tuple[JobRecord, ...]:
        """The records the columns describe, built without revalidation."""
        columns = self._columns
        intervals = (
            _trusted(UsageInterval, {"start": start, "end": end, "cpus": cpus, "option": option})
            for start, end, cpus, option in zip(
                columns["usage_start"],
                columns["usage_end"],
                columns["usage_cpus"],
                [_OPTIONS[code] for code in columns["usage_option"]],
            )
        )
        records = []
        for row, count in zip(
            zip(*(columns[name] for name in _RECORD_COLUMNS)), columns["usage_count"]
        ):
            values = dict(zip(_RECORD_COLUMNS, row))
            values["usage"] = tuple(islice(intervals, count))
            records.append(_trusted(JobRecord, values))
        return tuple(records)

    # Pickling writes the columns (``array`` pickles as raw bytes) and
    # never the lazy records or the memoized sums.
    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k not in ("_records", "_sums")}

    def __setstate__(self, state: dict) -> None:
        _check_columns(state.get("_columns"))
        self.__dict__.update(state, _records=None, _sums={})

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # The outcome: every field but ``metrics``, ``records`` as columns.
        names = (f.name for f in fields(self) if f.name not in ("records", "metrics"))
        return all(getattr(self, name) == getattr(other, name) for name in names)

    def _sum(self, name: str) -> float:
        """``float(sum(column))``, left to right, once per column set."""
        sums = self.__dict__["_sums"]
        if name not in sums:
            sums[name] = float(sum(self._columns[name]))
        return sums[name]

    def _ints(self, name: str) -> np.ndarray:
        """A read-only int64 view of an int column."""
        return np.frombuffer(self._columns[name], np.int64)

    def _waits(self) -> np.ndarray:
        """Per-job waiting minutes (``JobRecord.waiting_time``), int64."""
        return self._ints("finish") - self._ints("arrival") - self._ints("length")

    @property
    def total_jobs(self) -> int:
        """Number of jobs (records), counted without building them."""
        return len(self._columns["job_id"])

    # ------------------------------------------------------------------
    # Carbon and energy
    # ------------------------------------------------------------------
    @property
    def total_carbon_g(self) -> float:
        """Emissions of all jobs, in grams of CO2-equivalent."""
        return self._sum("carbon_g")

    @property
    def total_carbon_kg(self) -> float:
        """Emissions of all jobs, in kilograms of CO2-equivalent."""
        return grams_to_kg(self.total_carbon_g)

    @property
    def baseline_carbon_g(self) -> float:
        """Footprint had every job run on arrival (the NoWait schedule)."""
        return self._sum("baseline_carbon_g")

    @property
    def total_energy_kwh(self) -> float:
        """Energy drawn by all jobs, in kilowatt-hours."""
        return self._sum("energy_kwh")

    # ------------------------------------------------------------------
    # Cost
    # ------------------------------------------------------------------
    @property
    def reserved_upfront_cost(self) -> float:
        """Upfront payment for the reserved pool over the whole horizon."""
        return self.pricing.reserved_upfront(self.reserved_cpus, self.horizon)

    @property
    def metered_cost(self) -> float:
        """Pay-as-you-go cost of on-demand and spot usage."""
        return self._sum("usage_cost")

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
    @property
    def mean_waiting_minutes(self) -> float:
        """Mean per-job waiting time (delay beyond pure length), minutes.

        0 for a zero-job result (never a NaN or a numpy warning).
        """
        waits = self._waits()
        return float(np.mean(waits)) if waits.size else 0.0

    @property
    def mean_waiting_hours(self) -> float:
        """Mean per-job waiting time, in hours."""
        return self.mean_waiting_minutes / MINUTES_PER_HOUR

    @property
    def total_waiting_hours(self) -> float:
        """Summed waiting time across all jobs, in hours."""
        return float(int(self._waits().sum())) / MINUTES_PER_HOUR

    @property
    def mean_completion_hours(self) -> float:
        """Mean submission-to-completion time per job, in hours (0 if no jobs)."""
        completion = self._ints("finish") - self._ints("arrival")
        return float(np.mean(completion)) / MINUTES_PER_HOUR if completion.size else 0.0

    def waiting_percentiles(self, percentiles=(50, 90, 95, 99)) -> dict[int, float]:
        """Waiting-time percentiles in hours (tail latency of the queue)."""
        waits = self._waits().astype(float)
        return {
            int(p): float(np.percentile(waits, p)) / MINUTES_PER_HOUR if waits.size else 0.0
            for p in percentiles
        }

    def by_queue(self) -> dict[str, dict[str, float]]:
        """Per-queue breakdown: job count, carbon, mean/95p waiting."""
        groups: dict[str, list[int]] = {}
        for position, queue in enumerate(self._columns["queue"]):
            groups.setdefault(queue, []).append(position)
        carbon = self._columns["carbon_g"]
        waits = self._waits().astype(float)
        cpu_minutes = self._ints("length") * self._ints("cpus")
        breakdown = {}
        for queue, positions in sorted(groups.items()):
            queue_waits = waits[positions]
            breakdown[queue] = {
                "jobs": float(len(positions)),
                "carbon_kg": grams_to_kg(sum(carbon[index] for index in positions)),
                "mean_wait_h": float(queue_waits.mean()) / MINUTES_PER_HOUR,
                "p95_wait_h": float(np.percentile(queue_waits, 95)) / MINUTES_PER_HOUR,
                "cpu_hours": int(cpu_minutes[positions].sum()) / MINUTES_PER_HOUR,
            }
        return breakdown

    # ------------------------------------------------------------------
    # Utilization and spot
    # ------------------------------------------------------------------
    # CPU-minute totals are sums of exact integers (far below 2**53), so
    # an int64 sum equals the per-interval float accumulation bit for bit.
    def cpu_minutes_by_option(self) -> dict[PurchaseOption, float]:
        """CPU-minutes of realized usage per purchase option (all keys present)."""
        codes = np.frombuffer(self._columns["usage_option"], np.int8)
        minutes = (self._ints("usage_end") - self._ints("usage_start")) * self._ints("usage_cpus")
        return {
            option: float(int(minutes[codes == code].sum()))
            for code, option in enumerate(_OPTIONS)
        }

    @property
    def reserved_utilization(self) -> float:
        """Busy fraction of the pre-paid reserved pool over the horizon.

        Usage past the nominal horizon (jobs still draining) is clipped so
        utilization stays in [0, 1].
        """
        if self.reserved_cpus == 0 or self.horizon == 0:
            return 0.0
        reserved = np.frombuffer(self._columns["usage_option"], np.int8) == _OPTION_CODES[
            PurchaseOption.RESERVED
        ]
        starts = self._ints("usage_start")[reserved]
        ends = np.minimum(self._ints("usage_end")[reserved], self.horizon)
        busy = np.maximum(ends - starts, 0) * self._ints("usage_cpus")[reserved]
        return float(int(busy.sum())) / (self.reserved_cpus * self.horizon)

    @property
    def total_evictions(self) -> int:
        """Total spot revocations suffered across all jobs."""
        return sum(self._columns["evictions"])

    @property
    def lost_cpu_hours(self) -> float:
        """CPU-hours of progress redone because of evictions."""
        return self._sum("lost_cpu_minutes") / MINUTES_PER_HOUR

    @property
    def provisioning_cpu_hours(self) -> float:
        """CPU-hours spent booting elastic instances (0 unless enabled)."""
        return self._sum("provisioning_cpu_minutes") / MINUTES_PER_HOUR

    @property
    def checkpoint_overhead_cpu_hours(self) -> float:
        """CPU-hours spent writing checkpoints (0 unless enabled)."""
        return self._sum("checkpoint_overhead_minutes") / MINUTES_PER_HOUR

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
        are hashed via ``repr`` (exact shortest-roundtrip form, which is
        also ``str`` of a float), so any drift -- reordered accumulation,
        a different RNG draw -- changes the digest.  The byte stream is
        one ``|``-joined line per record, each followed by its intervals'.
        """
        hasher = hashlib.sha256()
        hasher.update(
            f"{self.policy_name}|{self.workload_name}|{self.region}|"
            f"{self.reserved_cpus}|{self.horizon}".encode()
        )
        columns = self._columns
        record_line = "|".join(["%s"] * len(_RECORD_COLUMNS)).__mod__
        options = [_OPTIONS[code].value for code in columns["usage_option"]]
        intervals = map(
            "%s|%s|%s|%s".__mod__,
            zip(columns["usage_start"], columns["usage_end"], columns["usage_cpus"], options),
        )
        lines = []
        for line, count in zip(
            map(record_line, zip(*(columns[name] for name in _RECORD_COLUMNS))),
            columns["usage_count"],
        ):
            lines.append(line)
            lines.extend(islice(intervals, count))
        hasher.update("".join(lines).encode())
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


# A data descriptor over the ``records`` field: the dataclass ``__init__``
# assigns through the setter, and reads build the tuple on demand.
SimulationResult.records = property(  # type: ignore[assignment]
    SimulationResult._get_records,
    SimulationResult._set_records,
    doc="Per-job records, built from the columns on first read.",
)


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
