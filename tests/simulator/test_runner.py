"""Batch runner: spec digests, parallel/serial parity, and caching.

The acceptance bar of the sweep runner: ``run_many`` under any worker
count, a direct ``run_simulation`` call, and a cache-served rerun must
all yield byte-identical :meth:`SimulationResult.digest` values -- and a
warm cache must execute zero engines.
"""

import pytest

from repro import (
    Job,
    WorkloadTrace,
    alibaba_like,
    region_trace,
    run_simulation,
    week_long_trace,
)
from repro.errors import ConfigError, SimulationError
from repro.policies.carbon_time import CarbonTime
from repro.simulator.engine import Engine
from repro.simulator.runner import (
    FrozenSeries,
    FrozenWorkload,
    ResultCache,
    RunStats,
    SimulationSpec,
    code_version_salt,
    execution_count,
    resolve_jobs,
    run_many,
)
from repro.units import days, hours


@pytest.fixture(scope="module")
def workload():
    return week_long_trace(
        alibaba_like(4_000, horizon=days(30), seed=7), num_jobs=80
    )


@pytest.fixture(scope="module")
def carbon_trace():
    return region_trace("SA-AU")


@pytest.fixture(scope="module")
def specs(workload, carbon_trace):
    return [
        SimulationSpec.build(workload, carbon_trace, policy, reserved_cpus=reserved)
        for policy, reserved in (
            ("nowait", 0),
            ("carbon-time", 0),
            ("res-first:carbon-time", 4),
        )
    ]


class TestFrozenPayloads:
    def test_workload_digest_matches_live_trace(self, workload):
        assert FrozenWorkload.freeze(workload).content_digest() == (
            workload.content_digest()
        )

    def test_series_digest_matches_live_trace(self, carbon_trace):
        assert FrozenSeries.freeze(carbon_trace).content_digest() == (
            carbon_trace.content_digest()
        )

    def test_thaw_roundtrips_the_workload(self, workload):
        thawed = FrozenWorkload.freeze(workload).thaw()
        assert thawed.content_digest() == workload.content_digest()

    def test_freeze_is_memoized_per_object(self, workload):
        assert FrozenWorkload.freeze(workload) is FrozenWorkload.freeze(workload)


class TestSpec:
    def test_digest_is_stable_and_knob_sensitive(self, workload, carbon_trace):
        base = SimulationSpec.build(workload, carbon_trace, "carbon-time")
        again = SimulationSpec.build(workload, carbon_trace, "carbon-time")
        other = SimulationSpec.build(
            workload, carbon_trace, "carbon-time", reserved_cpus=2
        )
        assert base.digest() == again.digest()
        assert base.digest() != other.digest()

    def test_policy_kwargs_affect_the_digest(self, workload, carbon_trace):
        base = SimulationSpec.build(workload, carbon_trace, "spot-res:carbon-time")
        tuned = SimulationSpec.build(
            workload,
            carbon_trace,
            "spot-res:carbon-time",
            policy_kwargs={"spot_max_length": hours(6)},
        )
        assert base.digest() != tuned.digest()

    def test_rejects_policy_instances(self, workload, carbon_trace):
        with pytest.raises(ConfigError):
            SimulationSpec.build(workload, carbon_trace, CarbonTime())

    def test_run_matches_run_simulation(self, workload, carbon_trace):
        spec = SimulationSpec.build(workload, carbon_trace, "carbon-time")
        direct = run_simulation(workload, carbon_trace, "carbon-time")
        assert spec.run().digest() == direct.digest()


class TestParity:
    def test_serial_parallel_and_direct_agree(self, specs, workload, carbon_trace):
        serial = run_many(specs, jobs=1, use_cache=False)
        parallel = run_many(specs, jobs=4, use_cache=False)
        direct = [
            run_simulation(workload, carbon_trace, "nowait", reserved_cpus=0),
            run_simulation(workload, carbon_trace, "carbon-time", reserved_cpus=0),
            run_simulation(
                workload, carbon_trace, "res-first:carbon-time", reserved_cpus=4
            ),
        ]
        serial_digests = [result.digest() for result in serial]
        assert serial_digests == [result.digest() for result in parallel]
        assert serial_digests == [result.digest() for result in direct]

    def test_cached_results_are_digest_identical(self, specs):
        cache = ResultCache()
        cold = run_many(specs, jobs=1, cache=cache)
        warm = run_many(specs, jobs=1, cache=cache)
        assert [r.digest() for r in cold] == [r.digest() for r in warm]


class TestCaching:
    def test_warm_cache_executes_zero_engines(self, specs):
        cache = ResultCache()
        cold_stats, warm_stats = RunStats(), RunStats()
        run_many(specs, jobs=1, cache=cache, stats=cold_stats)
        executed_before = execution_count()
        run_many(specs, jobs=1, cache=cache, stats=warm_stats)
        assert execution_count() == executed_before
        assert cold_stats.executed == len(specs)
        assert warm_stats.cache_hits == len(specs)
        assert warm_stats.executed == 0

    def test_in_batch_duplicates_execute_once(self, specs):
        stats = RunStats()
        results = run_many([specs[0]] * 4, jobs=1, use_cache=False, stats=stats)
        assert stats.executed == 1
        assert stats.deduplicated == 3
        assert all(result is results[0] for result in results)

    def test_disk_cache_survives_a_fresh_process_cache(self, specs, tmp_path):
        first = ResultCache(disk_dir=tmp_path)
        cold = run_many(specs[:1], jobs=1, cache=first)
        # A new ResultCache over the same directory models a fresh process.
        second = ResultCache(disk_dir=tmp_path)
        stats = RunStats()
        warm = run_many(specs[:1], jobs=1, cache=second, stats=stats)
        assert stats.cache_hits == 1
        assert warm[0].digest() == cold[0].digest()

    def test_corrupt_disk_entries_are_misses(self, specs, tmp_path):
        cache = ResultCache(disk_dir=tmp_path)
        key = cache.key_for(specs[0])
        (tmp_path / f"{key}.pkl").write_bytes(b"not a pickle")
        assert cache.get(key) is None

    def test_no_cache_env_bypasses_the_cache(self, specs, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        cache = ResultCache()
        stats = RunStats()
        run_many(specs[:1], jobs=1, cache=cache, stats=stats)
        assert stats.executed == 1
        assert len(cache) == 0

    def test_code_version_salt_is_a_stable_hexdigest(self):
        salt = code_version_salt()
        assert salt == code_version_salt()
        assert len(salt) == 64
        int(salt, 16)


class TestResolveJobs:
    def test_explicit_argument_wins(self):
        assert resolve_jobs(3, environ={"REPRO_JOBS": "7"}) == 3

    def test_env_fallback(self):
        assert resolve_jobs(None, environ={"REPRO_JOBS": "5"}) == 5

    def test_default_is_serial(self):
        assert resolve_jobs(None, environ={}) == 1

    def test_zero_jobs_is_rejected(self):
        with pytest.raises(ConfigError):
            resolve_jobs(0)


class TestUnfinishedJobsMessage:
    @staticmethod
    def _run_with_dropped_finishes(monkeypatch, num_jobs):
        monkeypatch.setattr(Engine, "_on_finish", lambda self, now, run: None)
        workload = WorkloadTrace(
            (
                Job(job_id=i, arrival=0, length=30, cpus=1, queue="short")
                for i in range(num_jobs)
            ),
            name="stuck",
            horizon=days(1),
        )
        with pytest.raises(SimulationError) as excinfo:
            run_simulation(
                workload,
                region_trace("SA-AU"),
                "nowait",
                validate=False,
                # A reserved pool keeps the run on the event loop (the
                # contention-free linear path never routes through
                # _on_finish), where the unfinished-jobs guard lives.
                reserved_cpus=1,
            )
        return str(excinfo.value)

    def test_few_ids_are_listed_without_ellipsis(self, monkeypatch):
        message = self._run_with_dropped_finishes(monkeypatch, 3)
        assert "[0, 1, 2]" in message
        assert "..." not in message

    def test_many_ids_are_truncated_with_ellipsis(self, monkeypatch):
        message = self._run_with_dropped_finishes(monkeypatch, 7)
        assert "[0, 1, 2, 3, 4, ...]" in message
