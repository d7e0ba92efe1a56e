"""Declarative descriptions of simulation runs.

A :class:`SimulationSpec` captures everything that determines a
:func:`repro.simulator.simulation.run_simulation` outcome -- the workload
and carbon inputs (inlined as frozen payloads), the policy spec string,
and every knob -- as a frozen, hashable, picklable value.  Specs are the
currency of the batch runner: they cross process boundaries instead of
live traces, and their :meth:`SimulationSpec.digest` content-addresses
the result cache.

Two knobs of ``run_simulation`` are *not* spec-able because they take
arbitrary live objects: ``forecaster_factory`` (pass ``forecast_sigma``
/ ``forecast_seed`` instead) and policy *instances* (pass the registry
spec string plus ``policy_kwargs``).  Code that needs either keeps
calling ``run_simulation`` directly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from weakref import WeakKeyDictionary

import numpy as np

from repro.carbon.trace import CarbonIntensityTrace, HourlySeries
from repro.cluster.energy import DEFAULT_ENERGY, EnergyModel
from repro.cluster.pricing import DEFAULT_PRICING, PricingModel
from repro.cluster.spot import (
    CheckpointConfig,
    DiurnalHazard,
    EvictionModel,
    HourlyHazard,
    NoEvictions,
)
from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.workload.job import Job, QueueSet
from repro.workload.trace import WorkloadTrace

__all__ = ["FrozenWorkload", "FrozenSeries", "SimulationSpec"]


#: Weak memo so freezing the same live trace across hundreds of specs
#: serializes it only once.
_WORKLOAD_MEMO: WeakKeyDictionary = WeakKeyDictionary()
_SERIES_MEMO: WeakKeyDictionary = WeakKeyDictionary()

#: Value-keyed thaw memo: specs unpickled in a worker each carry their
#: own (equal) FrozenWorkload copy, so the per-payload ``_thawed`` cache
#: never hits there.  Keying by value lets a worker rebuild each distinct
#: workload once per sweep instead of once per spec.  Cleared wholesale
#: at a small cap -- sweeps use a handful of workloads; unbounded growth
#: would pin every trace a long-lived test session ever thawed.
_THAWED_BY_VALUE: dict["FrozenWorkload", WorkloadTrace] = {}
_THAWED_BY_VALUE_CAP = 16


@dataclass(frozen=True)
class FrozenWorkload:
    """A hashable, picklable snapshot of a :class:`WorkloadTrace`.

    ``jobs`` holds ``(job_id, arrival, length, cpus, queue)`` tuples in
    the trace's canonical (arrival, job_id) order.
    """

    jobs: tuple[tuple[int, int, int, int, str], ...]
    name: str
    horizon: int

    @classmethod
    def freeze(cls, workload: WorkloadTrace) -> "FrozenWorkload":
        """Snapshot a live trace (memoized per trace object)."""
        cached = _WORKLOAD_MEMO.get(workload)
        if cached is None:
            cached = cls(
                jobs=tuple(
                    (job.job_id, job.arrival, job.length, job.cpus, job.queue)
                    for job in workload
                ),
                name=workload.name,
                horizon=workload.horizon,
            )
            _WORKLOAD_MEMO[workload] = cached
        return cached

    def thaw(self) -> WorkloadTrace:
        """Rebuild the live trace this payload was frozen from.

        ``jobs`` is stored in the trace's canonical (arrival, job_id)
        order (see the class docstring), so the rebuild goes through the
        trusted sorted constructor; the result is cached on the payload
        (both are immutable) so repeated executions of one spec -- e.g.
        serial sweeps and retries -- rebuild at most once.
        """
        cached = self.__dict__.get("_thawed")
        if cached is None:
            cached = _THAWED_BY_VALUE.get(self)
            if cached is None:
                cached = WorkloadTrace._from_sorted(
                    tuple(
                        Job(job_id=job_id, arrival=arrival, length=length, cpus=cpus, queue=queue)
                        for job_id, arrival, length, cpus, queue in self.jobs
                    ),
                    name=self.name,
                    horizon=self.horizon,
                )
                if len(_THAWED_BY_VALUE) >= _THAWED_BY_VALUE_CAP:
                    _THAWED_BY_VALUE.clear()
                _THAWED_BY_VALUE[self] = cached
            self.__dict__["_thawed"] = cached
        return cached

    def __getstate__(self) -> dict:
        """Columnar pickle: numeric job fields ship as one int64 array.

        Default dataclass pickling writes one tuple per job -- the bulk
        of every spec crossing into a sweep worker.  Packing (job_id,
        arrival, length, cpus) into a numpy array roughly halves both
        the payload and the encode/decode time; queue labels stay a
        plain list (pickle memoizes the few distinct strings).  The
        ``_thawed`` / ``_content_digest`` caches are deliberately
        dropped: a cached live trace must never ride along.
        """
        numbers = np.asarray(
            [job[:4] for job in self.jobs], dtype=np.int64
        ).reshape(len(self.jobs), 4)
        return {
            "name": self.name,
            "horizon": self.horizon,
            "numbers": numbers,
            "queues": [job[4] for job in self.jobs],
        }

    def __setstate__(self, state: dict) -> None:
        object.__setattr__(self, "name", state["name"])
        object.__setattr__(self, "horizon", state["horizon"])
        jobs = tuple(
            (*row, queue)
            for row, queue in zip(state["numbers"].tolist(), state["queues"])
        )
        object.__setattr__(self, "jobs", jobs)

    def content_digest(self) -> str:
        """SHA-256 over the payload; equals the live trace's
        :meth:`WorkloadTrace.content_digest` (same serialization)."""
        cached = self.__dict__.get("_content_digest")
        if cached is None:
            hasher = hashlib.sha256()
            hasher.update(f"WorkloadTrace:{self.name}:{self.horizon}".encode())
            for job_id, arrival, length, cpus, queue in self.jobs:
                hasher.update(f"{job_id},{arrival},{length},{cpus},{queue};".encode())
            cached = hasher.hexdigest()
            self.__dict__["_content_digest"] = cached
        return cached


@dataclass(frozen=True)
class FrozenSeries:
    """A hashable, picklable snapshot of an :class:`HourlySeries`.

    ``kind`` records whether the payload thaws back into a
    :class:`CarbonIntensityTrace` or a plain :class:`HourlySeries`
    (price traces).
    """

    hourly: tuple[float, ...]
    name: str
    kind: str = "CarbonIntensityTrace"

    @classmethod
    def freeze(cls, series: HourlySeries) -> "FrozenSeries":
        """Snapshot a live series (memoized per series object)."""
        cached = _SERIES_MEMO.get(series)
        if cached is None:
            kind = (
                "CarbonIntensityTrace"
                if isinstance(series, CarbonIntensityTrace)
                else "HourlySeries"
            )
            cached = cls(hourly=tuple(series.hourly.tolist()), name=series.name, kind=kind)
            _SERIES_MEMO[series] = cached
        return cached

    def thaw(self) -> HourlySeries:
        """Rebuild the live series this payload was frozen from."""
        if self.kind == "CarbonIntensityTrace":
            return CarbonIntensityTrace(self.hourly, name=self.name)
        if self.kind == "HourlySeries":
            return HourlySeries(self.hourly, name=self.name)
        raise ConfigError(f"unknown frozen series kind {self.kind!r}")

    def content_digest(self) -> str:
        """SHA-256 over the payload; equals the live series'
        :meth:`HourlySeries.content_digest` (same serialization)."""
        cached = self.__dict__.get("_content_digest")
        if cached is None:
            cached = self.thaw().content_digest()
            self.__dict__["_content_digest"] = cached
        return cached


def _freeze_eviction(model: EvictionModel | None) -> tuple:
    """Declarative tag for an eviction model (see :class:`SimulationSpec`)."""
    if model is None or isinstance(model, NoEvictions):
        return ("none",)
    if isinstance(model, DiurnalHazard):
        return ("diurnal", model.base_rate, model.amplitude, model.peak_hour)
    if isinstance(model, HourlyHazard):
        return ("hourly", model.hourly_rate)
    raise ConfigError(
        f"eviction model {type(model).__name__} cannot be expressed in a "
        "SimulationSpec; call run_simulation directly"
    )


def _thaw_eviction(tag: tuple) -> EvictionModel | None:
    """Rebuild an eviction model from its declarative tag."""
    kind = tag[0]
    if kind == "none":
        return None
    if kind == "hourly":
        return HourlyHazard(tag[1])
    if kind == "diurnal":
        return DiurnalHazard(tag[1], tag[2], tag[3])
    raise ConfigError(f"unknown eviction tag {tag!r}")


@dataclass(frozen=True)
class SimulationSpec:
    """One ``run_simulation`` call as a frozen, digest-able value.

    Build specs with :meth:`build` (which freezes live inputs and
    eviction/checkpointing objects into declarative tags), fan batches
    out with :func:`repro.simulator.runner.run_many`, or execute one
    in-process with :meth:`run`.

    ``eviction`` is ``("none",)``, ``("hourly", rate)`` or ``("diurnal",
    base, amplitude, peak_hour)``; ``forecast`` is ``("perfect",)`` or
    ``("noisy", sigma, seed)``; ``checkpointing`` is ``(interval,
    overhead)`` or ``None``.
    """

    workload: FrozenWorkload
    carbon: FrozenSeries
    policy: str
    policy_kwargs: tuple[tuple[str, object], ...] = ()
    reserved_cpus: int = 0
    queues: QueueSet | None = None
    pricing: PricingModel = DEFAULT_PRICING
    energy: EnergyModel = DEFAULT_ENERGY
    eviction: tuple = ("none",)
    forecast: tuple = ("perfect",)
    granularity: int = 5
    validate: bool = True
    spot_seed: int = 0
    checkpointing: tuple[int, int] | None = None
    retry_spot: bool = False
    instance_overhead_minutes: int = 0
    online_estimation: bool = False
    price_series: FrozenSeries | None = None
    fault_plan: FaultPlan | None = None

    @classmethod
    def build(
        cls,
        workload: WorkloadTrace,
        carbon: CarbonIntensityTrace,
        policy: str,
        policy_kwargs: dict | None = None,
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
        online_estimation: bool = False,
        price_trace: HourlySeries | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> "SimulationSpec":
        """Freeze the arguments of one ``run_simulation`` call.

        Accepts the same knobs as ``run_simulation`` except that the
        policy must be a registry spec string (wrapper kwargs go in
        ``policy_kwargs``, e.g. ``{"spot_max_length": 120}``).
        """
        if not isinstance(policy, str):
            raise ConfigError(
                "SimulationSpec needs a policy spec string (e.g. "
                "'res-first:carbon-time'); pass constructor kwargs via "
                "policy_kwargs"
            )
        return cls(
            workload=FrozenWorkload.freeze(workload),
            carbon=FrozenSeries.freeze(carbon),
            policy=policy,
            policy_kwargs=tuple(sorted((policy_kwargs or {}).items())),
            reserved_cpus=reserved_cpus,
            queues=queues,
            pricing=pricing,
            energy=energy,
            eviction=_freeze_eviction(eviction_model),
            forecast=(
                ("noisy", float(forecast_sigma), int(forecast_seed))
                if forecast_sigma > 0
                else ("perfect",)
            ),
            granularity=granularity,
            validate=validate,
            spot_seed=spot_seed,
            checkpointing=(
                (checkpointing.interval, checkpointing.overhead)
                if checkpointing is not None
                else None
            ),
            retry_spot=retry_spot,
            instance_overhead_minutes=instance_overhead_minutes,
            online_estimation=online_estimation,
            price_series=(
                FrozenSeries.freeze(price_trace) if price_trace is not None else None
            ),
            fault_plan=fault_plan,
        )

    def to_kwargs(self) -> dict:
        """The ``run_simulation`` keyword arguments this spec describes."""
        from repro.policies.registry import make_policy

        forecast_sigma = 0.0
        forecast_seed = 0
        if self.forecast[0] == "noisy":
            forecast_sigma, forecast_seed = self.forecast[1], self.forecast[2]
        elif self.forecast[0] != "perfect":
            raise ConfigError(f"unknown forecast tag {self.forecast!r}")
        return {
            "workload": self.workload.thaw(),
            "carbon": self.carbon.thaw(),
            "policy": make_policy(self.policy, **dict(self.policy_kwargs)),
            "reserved_cpus": self.reserved_cpus,
            "queues": self.queues,
            "pricing": self.pricing,
            "energy": self.energy,
            "eviction_model": _thaw_eviction(self.eviction),
            "forecast_sigma": forecast_sigma,
            "forecast_seed": forecast_seed,
            "granularity": self.granularity,
            "validate": self.validate,
            "spot_seed": self.spot_seed,
            "checkpointing": (
                CheckpointConfig(*self.checkpointing)
                if self.checkpointing is not None
                else None
            ),
            "retry_spot": self.retry_spot,
            "instance_overhead_minutes": self.instance_overhead_minutes,
            "online_estimation": self.online_estimation,
            "price_trace": (
                self.price_series.thaw() if self.price_series is not None else None
            ),
            "fault_plan": self.fault_plan,
        }

    def run(self):
        """Execute this spec in-process and return the SimulationResult."""
        from repro.simulator.simulation import run_simulation

        return run_simulation(**self.to_kwargs())

    def digest(self) -> str:
        """SHA-256 content address of this spec.

        Covers the full input content (workload and carbon digests, not
        just names) and every knob, so two specs share a digest iff they
        describe bit-identical simulations.  Code-version salting is the
        cache layer's job (:meth:`ResultCache.key_for`), keeping spec
        digests comparable across code changes.
        """
        cached = self.__dict__.get("_digest")
        if cached is None:
            parts = [
                "SimulationSpec",
                self.workload.content_digest(),
                self.carbon.content_digest(),
                self.policy,
                repr(self.policy_kwargs),
                str(self.reserved_cpus),
                repr(self.queues),
                repr(self.pricing),
                repr(self.energy),
                repr(self.eviction),
                repr(self.forecast),
                str(self.granularity),
                str(self.validate),
                str(self.spot_seed),
                repr(self.checkpointing),
                str(self.retry_spot),
                str(self.instance_overhead_minutes),
                str(self.online_estimation),
                (
                    self.price_series.content_digest()
                    if self.price_series is not None
                    else "-"
                ),
                self.fault_plan.digest() if self.fault_plan is not None else "-",
            ]
            cached = hashlib.sha256("\x1f".join(parts).encode()).hexdigest()
            self.__dict__["_digest"] = cached
        return cached
