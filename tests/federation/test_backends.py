"""Backend conformance for federated specs.

``FederatedSpec`` is a first-class ``run_many`` citizen: every
backend must produce digest parity with direct execution,
dedup in-batch duplicates, and execute zero engines on a warm cache --
the same contract ``tests/simulator/test_backends.py`` pins for plain
simulation specs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.carbon.trace import CarbonIntensityTrace
from repro.federation import FederatedRegion, FederatedResult, FederatedSpec
from repro.simulator.runner import (
    ResultCache,
    RunStats,
    execution_count,
    run_many,
)
from repro.simulator.runner.backends import BACKENDS
from repro.workload.job import Job
from repro.workload.trace import WorkloadTrace


@pytest.fixture(params=sorted(BACKENDS))
def backend(request):
    return request.param


@pytest.fixture(scope="module")
def workload():
    jobs = [Job(job_id=i, arrival=i * 30, length=60, cpus=1) for i in range(4)]
    return WorkloadTrace(jobs, name="fed-conformance")


@pytest.fixture(scope="module")
def regions():
    return [
        FederatedRegion(
            "ramp-up", CarbonIntensityTrace(np.linspace(100.0, 300.0, 48), name="ramp-up")
        ),
        FederatedRegion(
            "ramp-down",
            CarbonIntensityTrace(np.linspace(300.0, 100.0, 48), name="ramp-down"),
        ),
    ]


def make_spec(workload, regions, selector="greedy-spatial", migration=60, spot_seed=0):
    return FederatedSpec.build(
        workload,
        regions,
        selector,
        "carbon-time",
        migration_minutes=migration,
        spot_seed=spot_seed,
    )


def test_digests_match_direct_execution(backend, workload, regions):
    specs = [
        make_spec(workload, regions, selector=selector)
        for selector in ("home", "lowest-mean-ci", "greedy-spatial")
    ]
    results = run_many(specs, jobs=2, use_cache=False, backend=backend)
    assert all(isinstance(result, FederatedResult) for result in results)
    assert [result.digest() for result in results] == [
        spec.run().digest() for spec in specs
    ]


def test_in_batch_duplicates_execute_once(backend, workload, regions):
    stats = RunStats()
    results = run_many(
        [make_spec(workload, regions)] * 3,
        jobs=2,
        use_cache=False,
        stats=stats,
        backend=backend,
    )
    assert stats.executed == 1
    assert stats.deduplicated == 2
    assert all(result is results[0] for result in results)


def test_warm_cache_executes_zero_engines(backend, workload, regions):
    specs = [make_spec(workload, regions, spot_seed=index) for index in range(3)]
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


def test_disk_cache_round_trips(workload, regions, tmp_path):
    spec = make_spec(workload, regions)
    first = ResultCache(disk_dir=tmp_path)
    run_many([spec], jobs=1, cache=first)
    # A fresh cache over the same directory must serve from disk.
    second = ResultCache(disk_dir=tmp_path)
    stats = RunStats()
    results = run_many([spec], jobs=1, cache=second, stats=stats)
    assert stats.executed == 0
    assert second.disk_hits == 1
    assert isinstance(results[0], FederatedResult)
    assert results[0].digest() == spec.run().digest()
