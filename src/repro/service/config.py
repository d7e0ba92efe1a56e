"""Service configuration and engine-session construction.

:class:`ServiceConfig` captures everything the always-on scheduler needs
to build its engine: the policy and region, the queue waiting bounds,
the submission horizon, and the admission/backpressure limits.  The
config is the *single* source of engine parameters on both sides of the
batch-equivalence guarantee: the live service builds its engine via
:meth:`ServiceConfig.engine` with no workload, and the parity tests
build the batch reference via the same method with a real trace --
identical knobs in, so only the arrival transport differs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.carbon.regions import REGION_PROFILES, region_trace
from repro.carbon.trace import CarbonIntensityTrace
from repro.cluster.spot import HourlyHazard, NoEvictions
from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.obs.tracer import Tracer
from repro.simulator.engine import Engine
from repro.simulator.simulation import build_engine
from repro.units import MINUTES_PER_DAY, MINUTES_PER_HOUR, hours
from repro.workload.job import QueueSet, default_queue_set
from repro.workload.trace import WorkloadTrace

__all__ = ["ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one scheduler-service deployment.

    Attributes
    ----------
    policy:
        Policy spec string (same grammar as the batch CLI), e.g.
        ``"carbon-time"`` or ``"res-first:lowest-window"``.
    region:
        Carbon region code (see ``repro.carbon.regions``) or a CSV path
        written by ``HourlySeries.to_csv``.
    reserved_cpus:
        Pre-paid reserved pool size.
    short_wait_hours / long_wait_hours:
        Queue waiting bounds W, mirroring the artifact's ``-w 6x24``.
    granularity:
        Candidate start-time spacing in minutes.
    horizon_days:
        Submission horizon: arrivals after this simulated time are
        rejected at admission (the service refuses open-ended growth of
        its carbon coverage).
    max_pending:
        Bound of the command queue between the HTTP layer and the
        engine worker -- the backpressure limit.
    max_jobs:
        Admission cap on total jobs accepted over the service lifetime.
    max_cpus:
        Admission cap on a single job's CPU request.
    eviction_rate:
        Hourly spot eviction probability (0 disables the spot market
        hazard).
    spot_seed:
        Seed of the engine's per-job spot RNG streams.
    workload_name:
        Name stamped on the session's (empty) workload trace; part of
        the accounting digest, so parity tests use the same name on
        their batch trace.
    fault_plan:
        Optional deterministic fault plan applied to the live engine
        (see ``docs/robustness.md``).
    """

    policy: str = "carbon-time"
    region: str = "SA-AU"
    reserved_cpus: int = 0
    short_wait_hours: float = 6.0
    long_wait_hours: float = 24.0
    granularity: int = 5
    horizon_days: float = 7.0
    max_pending: int = 64
    max_jobs: int = 100_000
    max_cpus: int = 64
    eviction_rate: float = 0.0
    spot_seed: int = 0
    workload_name: str = "service"
    fault_plan: FaultPlan | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.horizon_days <= 0:
            raise ConfigError("horizon_days must be positive")
        if self.max_pending < 1:
            raise ConfigError("max_pending must be at least 1")
        if self.max_jobs < 1:
            raise ConfigError("max_jobs must be at least 1")
        if self.max_cpus < 1:
            raise ConfigError("max_cpus must be at least 1")
        if not 0.0 <= self.eviction_rate < 1.0:
            raise ConfigError("eviction_rate must be in [0, 1)")

    # ------------------------------------------------------------------
    # Derived pieces
    # ------------------------------------------------------------------
    @property
    def horizon_minutes(self) -> int:
        """The last admissible arrival minute."""
        return int(self.horizon_days * MINUTES_PER_DAY)

    def queues(self) -> QueueSet:
        """The service's queue set (paper defaults with configured W)."""
        return default_queue_set(
            short_wait=hours(self.short_wait_hours),
            long_wait=hours(self.long_wait_hours),
        )

    def carbon(self) -> CarbonIntensityTrace:
        """The region's CI trace, tiled to cover every admissible job.

        Coverage is workload-independent by design: the slack covers a
        job arriving at the horizon, waiting its full W on the longest
        queue, and being fully redone after a last-minute eviction --
        so the live engine and any batch reference built from this
        config see identical carbon values over every queried window.
        """
        if os.path.exists(self.region):
            series = CarbonIntensityTrace.from_csv(
                self.region, name=os.path.basename(self.region)
            )
        elif self.region in REGION_PROFILES:
            series = region_trace(self.region)
        else:
            raise ConfigError(
                f"unknown region {self.region!r}: not a file and not one of "
                f"{sorted(REGION_PROFILES)}"
            )
        queues = self.queues()
        slack = 2 * queues.longest.max_length + queues.max_wait + MINUTES_PER_HOUR
        required = self.horizon_minutes + slack
        hours_needed = -(-required // MINUTES_PER_HOUR)
        if series.num_hours >= hours_needed:
            return series
        return series.tile_to(hours_needed)

    def engine(
        self,
        workload: WorkloadTrace | None = None,
        tracer: Tracer | None = None,
    ) -> Engine:
        """Build the configured engine over ``workload``.

        With no workload (the service case) the engine wraps an empty
        trace carrying the configured name and horizon -- jobs stream
        in through :meth:`Engine.open`.  With a workload (the parity
        tests' batch reference) the same knobs produce the batch
        engine, so ``config.engine(trace).run().digest()`` is the value
        the online path must reproduce.

        Queue-average length estimation is always online: an always-on
        service has no trace to take oracle averages from, and the
        estimator's state evolves identically on both sides given the
        same completion order.
        """
        if workload is None:
            workload = WorkloadTrace(
                [], name=self.workload_name, horizon=self.horizon_minutes
            )
        eviction = (
            HourlyHazard(self.eviction_rate)
            if self.eviction_rate > 0
            else NoEvictions()
        )
        return build_engine(
            workload,
            self.carbon(),
            self.policy,
            reserved_cpus=self.reserved_cpus,
            queues=self.queues(),
            eviction_model=eviction,
            granularity=self.granularity,
            spot_seed=self.spot_seed,
            online_estimation=True,
            tracer=tracer,
            fault_plan=self.fault_plan,
        )
