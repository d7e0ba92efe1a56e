"""High-level simulation façade.

:func:`run_simulation` wires together a workload trace, a carbon trace,
and a policy spec, taking care of the preparation steps every experiment
needs:

* route jobs to queues and compute the queues' historical average
  lengths from the trace (the coarse knowledge Lowest-Window and
  Carbon-Time rely on);
* extend the carbon trace so every job -- including one that waits its
  full W, is evicted at the last minute, and reruns -- stays inside
  known carbon data;
* build the forecaster (perfect by default, as in the paper).
"""

from __future__ import annotations

from repro.carbon.forecast import Forecaster, NoisyForecaster, PerfectForecaster
from repro.carbon.trace import CarbonIntensityTrace
from repro.cluster.energy import DEFAULT_ENERGY, EnergyModel
from repro.cluster.pricing import DEFAULT_PRICING, PricingModel
from repro.cluster.spot import CheckpointConfig, EvictionModel
from repro.errors import ConfigError
from repro.faults import (
    FaultPlan,
    apply_input_faults,
    apply_process_faults,
    engine_injector,
    wrap_eviction,
    wrap_forecaster,
)
from repro.obs.tracer import Tracer, tracer_from_env
from repro.policies.base import Policy
from repro.policies.registry import make_policy
from repro.simulator.engine import Engine
from repro.simulator.results import SimulationResult
from repro.units import MINUTES_PER_HOUR
from repro.workload.job import QueueSet, default_queue_set
from repro.workload.trace import WorkloadTrace

__all__ = ["prepare_carbon", "build_engine", "run_simulation"]


def prepare_carbon(
    carbon: CarbonIntensityTrace,
    workload: WorkloadTrace,
    queues: QueueSet,
    redo_factor: int = 2,
) -> CarbonIntensityTrace:
    """Tile the carbon trace to cover every feasible execution.

    The latest any job can finish is bounded by: its arrival, plus its
    queue's maximum wait, plus ``redo_factor`` times its length (a job
    evicted at the very end of its spot run is fully redone; spot
    retries and checkpoint overhead raise the factor).  One extra hour
    absorbs slot rounding.
    """
    slack = redo_factor * workload.max_length + queues.max_wait + MINUTES_PER_HOUR
    required_minutes = workload.horizon + slack
    if carbon.horizon_minutes >= required_minutes:
        return carbon
    return carbon.tile_to(-(-required_minutes // MINUTES_PER_HOUR))


def build_engine(
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
    forecaster_factory=None,
    online_estimation: bool = False,
    price_trace=None,
    tracer: Tracer | None = None,
    fault_plan: FaultPlan | None = None,
) -> Engine:
    """Build a ready-to-run :class:`Engine` from experiment-level knobs.

    This is the preparation half of :func:`run_simulation`: queue
    routing and historical averages, carbon-trace coverage, forecaster
    construction, and fault-plan application -- everything between "I
    have a workload and a region" and a constructed engine.  Callers
    that need the batch result keep using :func:`run_simulation`;
    callers that need incremental stepping (the online scheduler
    service, the session parity suite) call this and then
    :meth:`Engine.open`.

    ``tracer`` is passed through as-is (``None`` means the no-op null
    tracer); environment-variable tracer resolution and its close-on-end
    ownership live in :func:`run_simulation`.
    """
    apply_process_faults(fault_plan)
    carbon = apply_input_faults(fault_plan, carbon)
    if isinstance(policy, str):
        policy = make_policy(policy)
    if not isinstance(policy, Policy):
        raise ConfigError(f"policy must be a Policy or spec string, got {policy!r}")

    queues = queues if queues is not None else default_queue_set()
    longest = workload.max_length
    if longest > queues.longest.max_length:
        raise ConfigError(
            f"workload has a {longest}-minute job exceeding the longest queue "
            f"bound {queues.longest.max_length}; widen the queue set"
        )
    estimator = None
    if online_estimation:
        # No oracle averages: the scheduler learns lengths from
        # completions, cold-starting at the queue bounds.
        from repro.workload.estimation import OnlineLengthEstimator

        estimator = OnlineLengthEstimator(queues)
        workload = workload.with_queues(queues)
    else:
        queues = workload.queues_with_averages(queues)
        workload = workload.with_queues(queues)
    # Spot retries and checkpoint overhead extend the worst-case tail.
    redo_factor = 2
    if retry_spot:
        redo_factor += 11  # engine default: up to 10 spot retries
    if checkpointing is not None:
        redo_factor *= 2
    covering = prepare_carbon(carbon, workload, queues, redo_factor=redo_factor)

    forecaster: Forecaster
    if forecaster_factory is not None:
        if forecast_sigma > 0:
            raise ConfigError("pass either forecast_sigma or forecaster_factory")
        forecaster = forecaster_factory(covering)
        if not isinstance(forecaster, Forecaster):
            raise ConfigError("forecaster_factory must build a Forecaster")
    elif forecast_sigma > 0:
        forecaster = NoisyForecaster(covering, sigma=forecast_sigma, seed=forecast_seed)
    else:
        forecaster = PerfectForecaster(covering)
    forecaster = wrap_forecaster(fault_plan, forecaster)
    eviction_model = wrap_eviction(fault_plan, eviction_model)

    return Engine(
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
        length_estimator=estimator,
        price_forecaster=_price_forecaster_for(price_trace, covering),
        tracer=tracer,
        fault_injector=engine_injector(fault_plan),
    )


def run_simulation(
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
    forecaster_factory=None,
    online_estimation: bool = False,
    price_trace=None,
    tracer: Tracer | None = None,
    fault_plan: FaultPlan | None = None,
) -> SimulationResult:
    """Run one policy over one workload/region and return the accounting.

    Parameters mirror the paper's experiment knobs: ``reserved_cpus`` is
    the pre-paid pool size, ``eviction_model`` the spot market behaviour,
    ``forecast_sigma`` > 0 switches to noisy CI forecasts (ablation), and
    ``granularity`` the candidate start-time spacing in minutes.

    ``tracer`` enables the observability layer for this run (see
    ``docs/observability.md``); ``None`` consults ``$REPRO_TRACE`` via
    :func:`repro.obs.tracer.tracer_from_env` and defaults to the no-op
    null tracer, which leaves results and timings untouched.

    ``fault_plan`` injects deterministic faults (see
    ``docs/robustness.md``): process faults fire immediately, input
    faults corrupt the carbon trace before preparation (so a truncated
    trace is re-tiled like any short trace would be), forecast and
    eviction faults wrap the respective components, and queue corruption
    arms the engine's mid-run injector.  ``None`` and the empty plan run
    byte-identically to an unfaulted build.
    """
    owns_tracer = False
    if tracer is None:
        tracer = tracer_from_env()
        owns_tracer = tracer.enabled
    engine = build_engine(
        workload,
        carbon,
        policy,
        reserved_cpus=reserved_cpus,
        queues=queues,
        pricing=pricing,
        energy=energy,
        eviction_model=eviction_model,
        forecast_sigma=forecast_sigma,
        forecast_seed=forecast_seed,
        granularity=granularity,
        validate=validate,
        spot_seed=spot_seed,
        checkpointing=checkpointing,
        retry_spot=retry_spot,
        instance_overhead_minutes=instance_overhead_minutes,
        forecaster_factory=forecaster_factory,
        online_estimation=online_estimation,
        price_trace=price_trace,
        tracer=tracer,
        fault_plan=fault_plan,
    )
    try:
        return engine.run()
    finally:
        # Close (flush) only tracers this call created from the
        # environment; caller-supplied tracers stay open for reuse.
        if owns_tracer:
            tracer.close()


def _price_forecaster_for(price_trace, carbon: CarbonIntensityTrace):
    """Wrap a price series for the price-aware policies (or None).

    The series is tiled to the (already prepared) carbon horizon so both
    forecasters cover identical windows; prices are typically published
    day-ahead, so a perfect view is realistic.
    """
    if price_trace is None:
        return None
    tiled = price_trace.tile_to(carbon.num_hours)
    return PerfectForecaster(tiled)
