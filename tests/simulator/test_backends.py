"""Backend-conformance suite: one contract, both backends.

``run_many``'s guarantees -- digest parity with direct execution,
in-batch dedup, warm-cache zero-execution, retry/timeout/partial-result
recovery, fault-plan reproducibility, and the 16-spec/2-poisoned
acceptance scenario -- are asserted here against every
:class:`~repro.simulator.runner.backends.SweepBackend` in
:data:`~repro.simulator.runner.backends.BACKENDS`, via one parametrized
fixture.  A backend added to that table inherits the full guarantee set.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.carbon.trace import CarbonIntensityTrace
from repro.errors import ConfigError, SweepError
from repro.faults import parse_fault_plan
from repro.simulator.runner import (
    ResultCache,
    RunStats,
    SimulationSpec,
    execution_count,
    run_many,
)
from repro.simulator.runner.__main__ import main as runner_cli
from repro.simulator.runner.backends import BACKENDS
from repro.workload.job import Job
from repro.workload.trace import WorkloadTrace

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


@pytest.fixture(params=sorted(BACKENDS))
def backend(request):
    """Every backend name -- the conformance axis."""
    return request.param


@pytest.fixture(scope="module")
def carbon():
    return CarbonIntensityTrace(np.linspace(100.0, 300.0, 48), name="ramp")


@pytest.fixture(scope="module")
def workload():
    jobs = [Job(job_id=i, arrival=i * 30, length=60, cpus=1) for i in range(4)]
    return WorkloadTrace(jobs, name="backend-conformance")


def make_spec(workload, carbon, spot_seed=0, plan_text=None):
    """One small spec, optionally poisoned by a fault plan."""
    plan = (
        parse_fault_plan(plan_text, seed=CHAOS_SEED) if plan_text is not None else None
    )
    return SimulationSpec.build(
        workload, carbon, "nowait", spot_seed=spot_seed, fault_plan=plan
    )


class TestResultParity:
    def test_digests_match_direct_execution(self, backend, workload, carbon):
        specs = [make_spec(workload, carbon, spot_seed=index) for index in range(3)]
        results = run_many(specs, jobs=2, use_cache=False, backend=backend)
        direct = [spec.run().digest() for spec in specs]
        assert [result.digest() for result in results] == direct

    def test_all_backends_agree_on_digests_and_accounting(self, workload, carbon):
        """The cross-backend oracle: the same spec set must produce
        bit-identical result digests and equivalent RunStats counters on
        every backend (wall-clock histograms excluded, their *counts*
        included via runner.executed)."""
        specs = [
            make_spec(workload, carbon, spot_seed=index % 4) for index in range(6)
        ]
        digests_by_backend = {}
        accounting_by_backend = {}
        counters_by_backend = {}
        for name in sorted(BACKENDS):
            stats = RunStats()
            results = run_many(
                specs, jobs=2, use_cache=False, stats=stats, backend=name
            )
            digests_by_backend[name] = [result.digest() for result in results]
            accounting_by_backend[name] = (
                stats.total,
                stats.executed,
                stats.cache_hits,
                stats.deduplicated,
                stats.failed,
                stats.retries,
                stats.timeouts,
            )
            counters_by_backend[name] = stats.metrics["counters"]
            assert stats.backend == name
        reference = next(iter(digests_by_backend.values()))
        assert all(d == reference for d in digests_by_backend.values())
        reference_accounting = next(iter(accounting_by_backend.values()))
        assert all(
            a == reference_accounting for a in accounting_by_backend.values()
        )
        reference_counters = next(iter(counters_by_backend.values()))
        assert all(c == reference_counters for c in counters_by_backend.values())

    def test_fault_plans_reproduce_across_runs(self, backend, workload, carbon):
        plan = parse_fault_plan(
            "eviction-storm:rate=0.5,start_hour=0,hours=24", seed=CHAOS_SEED
        )
        spec = SimulationSpec.build(
            workload, carbon, "spot-first:nowait", fault_plan=plan
        )
        first = run_many([spec], jobs=2, use_cache=False, backend=backend)
        second = run_many([spec], jobs=2, use_cache=False, backend=backend)
        assert first[0].digest() == second[0].digest()


class TestCacheAndDedupBehavior:
    def test_in_batch_duplicates_execute_once(self, backend, workload, carbon):
        stats = RunStats()
        results = run_many(
            [make_spec(workload, carbon)] * 4,
            jobs=2,
            use_cache=False,
            stats=stats,
            backend=backend,
        )
        assert stats.executed == 1
        assert stats.deduplicated == 3
        assert all(result is results[0] for result in results)

    def test_warm_cache_executes_zero_engines(self, backend, workload, carbon):
        specs = [make_spec(workload, carbon, spot_seed=index) for index in range(3)]
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

    def test_failed_specs_are_never_cached(self, backend, workload, carbon):
        spec = make_spec(workload, carbon, plan_text="worker-fail")
        cache = ResultCache()
        for _ in range(2):
            stats = RunStats()
            run_many(
                [spec], jobs=1, cache=cache, stats=stats,
                backoff=0.0, on_error="partial", backend=backend,
            )
            assert stats.cache_hits == 0
            assert stats.failed == 1


class TestRecoverySemantics:
    def test_flaky_spec_heals_within_retry_budget(
        self, backend, workload, carbon, tmp_path
    ):
        marker = tmp_path / f"flaky-{backend}"
        spec = make_spec(
            workload, carbon, plan_text=f"worker-flaky:path={marker},times=1"
        )
        stats = RunStats()
        results = run_many(
            [spec], jobs=2, use_cache=False, stats=stats,
            retries=1, backoff=0.0, backend=backend,
        )
        assert results[0] is not None
        assert stats.retries == 1
        assert stats.failed == 0

    def test_repro_errors_fail_fast(self, backend, workload, carbon):
        spec = make_spec(workload, carbon, plan_text="trace-nan:count=2")
        stats = RunStats()
        results = run_many(
            [spec], jobs=1, use_cache=False, stats=stats,
            retries=5, backoff=0.0, on_error="partial", backend=backend,
        )
        assert results[0] is None
        assert stats.retries == 0
        assert stats.failures[0].error_type == "TraceError"
        assert stats.failures[0].attempts == 1

    def test_raise_mode_attaches_partial_results(self, backend, workload, carbon):
        specs = [make_spec(workload, carbon, spot_seed=index) for index in range(3)]
        specs.append(make_spec(workload, carbon, plan_text="worker-fail"))
        with pytest.raises(SweepError) as excinfo:
            run_many(specs, jobs=2, use_cache=False, backoff=0.0, backend=backend)
        error = excinfo.value
        assert len(error.results) == 4
        assert sum(result is not None for result in error.results) == 3
        assert [failure.index for failure in error.failures] == [3]

    def test_sixteen_specs_two_poisoned(self, backend, workload, carbon):
        """The acceptance scenario on every backend.  Timeout-capable
        backends get the original crash + hang poisons; in-process
        backends (which cannot abandon a hung attempt) get two
        deterministic failers instead -- the degradation contract (14
        good results, 2 structured failures, attempts charged exactly)
        is identical."""
        isolated = BACKENDS[backend].supports_timeout
        specs = []
        for index in range(16):
            plan_text = None
            if index == 5:
                plan_text = "worker-crash" if isolated else "worker-fail"
            elif index == 11:
                plan_text = "worker-hang:seconds=30" if isolated else "worker-fail:"
            specs.append(
                make_spec(workload, carbon, spot_seed=index, plan_text=plan_text)
            )
        stats = RunStats()
        results = run_many(
            specs,
            jobs=4,
            use_cache=False,
            stats=stats,
            retries=1,
            timeout=2.5 if isolated else None,
            backoff=0.0,
            on_error="partial",
            backend=backend,
        )
        assert len(results) == 16
        good = [index for index, result in enumerate(results) if result is not None]
        assert len(good) == 14
        assert {index for index in range(16) if index not in good} == {5, 11}
        by_index = {failure.index: failure for failure in stats.failures}
        assert set(by_index) == {5, 11}
        if isolated:
            assert by_index[5].error_type == "WorkerCrash"
            assert by_index[11].error_type == "TimeoutError"
            assert stats.timeouts >= 2
            assert stats.pool_respawns >= 2
        assert all(failure.attempts == 2 for failure in stats.failures)
        assert stats.failed == 2
        assert stats.retries == 2


class TestBackendSelection:
    def test_unknown_backend_is_rejected(self, workload, carbon):
        with pytest.raises(ConfigError):
            run_many([make_spec(workload, carbon)], backend="telepathy")

    def test_removed_backend_name_is_rejected_everywhere(
        self, workload, carbon, monkeypatch, capsys
    ):
        """The argument, ``$REPRO_BACKEND`` and the campaign CLI accept
        exactly the two live names; the retired third one is refused."""
        removed = "workqueue"
        spec = make_spec(workload, carbon)
        with pytest.raises(ConfigError, match=r"known: pool, serial\)"):
            run_many([spec], use_cache=False, backend=removed)
        monkeypatch.setenv("REPRO_BACKEND", removed)
        with pytest.raises(ConfigError, match=r"known: pool, serial\)"):
            run_many([spec], use_cache=False)
        monkeypatch.delenv("REPRO_BACKEND")
        with pytest.raises(SystemExit) as excinfo:
            runner_cli(["resume", "unused-dir", "--backend", removed])
        assert excinfo.value.code == 2
        assert f"invalid choice: '{removed}'" in capsys.readouterr().err

    def test_serial_cannot_enforce_timeouts(self, workload, carbon):
        with pytest.raises(ConfigError):
            run_many([make_spec(workload, carbon)], backend="serial", timeout=1.0)

    def test_env_variable_selects_the_backend(self, workload, carbon, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "pool")
        stats = RunStats()
        run_many([make_spec(workload, carbon)], jobs=1, use_cache=False, stats=stats)
        assert stats.backend == "pool"

    def test_heuristic_default_is_serial_then_pool(self, workload, carbon):
        serial_stats, pool_stats = RunStats(), RunStats()
        spec = make_spec(workload, carbon)
        run_many([spec], jobs=1, use_cache=False, stats=serial_stats)
        run_many([spec], jobs=2, use_cache=False, stats=pool_stats)
        assert serial_stats.backend == "serial"
        assert pool_stats.backend == "pool"
