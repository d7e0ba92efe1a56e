"""Backend conformance for scaling specs (mirrors the federated suite)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.carbon.trace import CarbonIntensityTrace
from repro.scaling import AmdahlSpeedup, MalleableJob, ScalingResult, ScalingSpec
from repro.simulator.runner import (
    ResultCache,
    RunStats,
    execution_count,
    run_many,
)
from repro.simulator.runner.backends import BACKENDS


@pytest.fixture(params=sorted(BACKENDS))
def backend(request):
    return request.param


@pytest.fixture(scope="module")
def carbon():
    day = np.full(24, 200.0)
    day[10:16] = 40.0
    return CarbonIntensityTrace(np.tile(day, 4), name="dipping")


def make_spec(carbon, work=240.0, deadline=720, speedup=None, mode=("greedy",)):
    return ScalingSpec.build(
        carbon,
        MalleableJob(work=work, max_cpus=4, arrival=30),
        deadline,
        speedup=speedup,
        mode=mode,
    )


def test_digests_match_direct_execution(backend, carbon):
    specs = [
        make_spec(carbon),
        make_spec(carbon, speedup=AmdahlSpeedup(0.9)),
        make_spec(carbon, mode=("fixed", 2)),
    ]
    results = run_many(specs, jobs=2, use_cache=False, backend=backend)
    assert all(isinstance(result, ScalingResult) for result in results)
    assert [result.digest() for result in results] == [
        spec.run().digest() for spec in specs
    ]


def test_in_batch_duplicates_execute_once(backend, carbon):
    stats = RunStats()
    results = run_many(
        [make_spec(carbon)] * 3, jobs=2, use_cache=False, stats=stats, backend=backend
    )
    assert stats.executed == 1
    assert stats.deduplicated == 2
    assert all(result is results[0] for result in results)


def test_warm_cache_executes_zero_engines(backend, carbon):
    specs = [make_spec(carbon, work=120.0 + 60.0 * index) for index in range(3)]
    cache = ResultCache()
    cold_stats, warm_stats = RunStats(), RunStats()
    run_many(specs, jobs=2, cache=cache, stats=cold_stats, backend=backend)
    executed_before = execution_count()
    warm = run_many(specs, jobs=2, cache=cache, stats=warm_stats, backend=backend)
    assert execution_count() == executed_before
    assert cold_stats.executed == len(specs)
    assert warm_stats.cache_hits == len(specs)
    assert warm_stats.executed == 0
    assert [result.digest() for result in warm] == [
        spec.run().digest() for spec in specs
    ]


def test_mixed_batches_with_simulation_specs(backend, carbon):
    """Scaling, federated, and plain specs ride one batch together."""
    from repro.federation import FederatedRegion, FederatedSpec
    from repro.simulator.runner import SimulationSpec
    from repro.workload.job import Job
    from repro.workload.trace import WorkloadTrace

    jobs = [Job(job_id=i, arrival=i * 30, length=60, cpus=1) for i in range(3)]
    workload = WorkloadTrace(jobs, name="mixed-batch")
    specs = [
        make_spec(carbon),
        SimulationSpec.build(workload, carbon, "nowait"),
        FederatedSpec.build(
            workload, [FederatedRegion("solo", carbon)], "home", "nowait"
        ),
    ]
    results = run_many(specs, jobs=2, use_cache=False, backend=backend)
    assert [result.digest() for result in results] == [
        spec.run().digest() for spec in specs
    ]
