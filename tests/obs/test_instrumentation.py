"""Engine and runner instrumentation: zero-overhead default, trace
invariants, and metrics aggregation across ``run_many``.

The load-bearing guarantee is the first class: attaching a tracer (or
none) must not change the simulated outcome -- digests are bit-identical
with observability off, on, and through the environment switch.
"""

import numpy as np
import pytest

from repro.carbon.trace import CarbonIntensityTrace
from repro.obs.analyze import read_trace, summarize_trace
from repro.obs.events import event_from_dict
from repro.obs.tracer import CollectingTracer
from repro.simulator.runner import ResultCache, RunStats, SimulationSpec, run_many
from repro.simulator.simulation import run_simulation
from repro.units import days, hours
from repro.workload.job import Job, JobQueue, QueueSet
from repro.workload.trace import WorkloadTrace


def diurnal(days_count=4):
    day = np.full(24, 100.0)
    day[10:16] = 20.0
    return CarbonIntensityTrace(np.tile(day, days_count), name="diurnal")


def single_queue():
    return QueueSet((JobQueue(name="q", max_length=days(3), max_wait=hours(6)),))


def small_workload(num_jobs=8, name="obs-small"):
    jobs = [
        Job(job_id=i, arrival=i * 37, length=60 + 30 * (i % 3), cpus=1 + i % 2)
        for i in range(num_jobs)
    ]
    return WorkloadTrace(jobs, name=name, horizon=days(2))


def traced_run(policy="carbon-time", **kwargs):
    tracer = CollectingTracer()
    result = run_simulation(
        small_workload(), diurnal(), policy,
        queues=single_queue(), tracer=tracer, **kwargs,
    )
    return result, tracer


class TestZeroOverheadParity:
    def test_tracing_does_not_change_the_digest(self):
        plain = run_simulation(
            small_workload(), diurnal(), "carbon-time", queues=single_queue()
        )
        traced, tracer = traced_run()
        assert traced.digest() == plain.digest()
        assert tracer.events  # the traced run really did record something

    def test_env_tracing_does_not_change_the_digest(self, tmp_path, monkeypatch):
        plain = run_simulation(
            small_workload(), diurnal(), "nowait", queues=single_queue()
        )
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "run.jsonl"))
        traced = run_simulation(
            small_workload(), diurnal(), "nowait", queues=single_queue()
        )
        assert traced.digest() == plain.digest()

    def test_untraced_results_still_carry_metrics(self):
        result = run_simulation(
            small_workload(), diurnal(), "nowait", queues=single_queue()
        )
        assert result.metrics["counters"]["engine.jobs"] == len(result.records)


class TestEngineTrace:
    def test_run_meta_is_the_first_event(self):
        result, tracer = traced_run()
        meta = tracer.events[0]
        assert meta.type == "run_meta"
        assert meta.policy == result.policy_name
        assert meta.workload == result.workload_name

    def test_one_decision_and_finish_per_record(self):
        result, tracer = traced_run()
        decisions = tracer.by_type("policy_decision")
        assert len(decisions) == len(result.records)
        assert len(tracer.by_type("job_arrival")) == len(result.records)
        assert len(tracer.by_type("job_finish")) == len(result.records)
        assert all(d.policy == result.policy_name for d in decisions)

    def test_decisions_carry_carbon_inputs(self):
        _result, tracer = traced_run()
        for decision in tracer.by_type("policy_decision"):
            assert decision.arrival_ci_g_per_kwh in (100.0, 20.0)
            assert decision.start_ci_g_per_kwh in (100.0, 20.0)
            assert decision.start_time >= decision.time

    def test_interval_accounts_sum_to_the_result_totals(self):
        result, tracer = traced_run()
        intervals = tracer.by_type("interval_account")
        assert sum(i.carbon_g for i in intervals) == pytest.approx(
            result.total_carbon_g
        )
        assert sum(i.energy_kwh for i in intervals) == pytest.approx(
            result.total_energy_kwh
        )
        assert sum(i.cost_usd for i in intervals) == pytest.approx(
            result.metered_cost
        )

    def test_candidate_windows_are_emitted_for_window_policies(self):
        _result, tracer = traced_run("carbon-time")
        windows = tracer.by_type("candidate_window")
        assert windows
        assert all(w.latest >= w.time and w.num_candidates >= 1 for w in windows)

    def test_memo_hits_match_the_memoized_decision_flags(self):
        result, tracer = traced_run()
        memoized = [d for d in tracer.by_type("policy_decision") if d.memoized]
        counters = result.metrics["counters"]
        assert counters.get("engine.decision_memo_hits", 0.0) == len(memoized)

    def test_engine_metrics_snapshot_is_emitted_and_stored(self):
        result, tracer = traced_run()
        snapshots = tracer.by_type("metrics_snapshot")
        assert [s.scope for s in snapshots] == ["engine"]
        assert snapshots[0].metrics == result.metrics
        histogram = result.metrics["histograms"]["engine.job_waiting_minutes"]
        assert histogram["count"] == len(result.records)

    def test_all_events_round_trip_through_the_wire_form(self):
        _result, tracer = traced_run()
        for event in tracer.events:
            assert event_from_dict(event.to_dict()) == event


class TestEnvTraceFile:
    def test_trace_file_parses_and_matches_the_result(self, tmp_path, monkeypatch):
        path = tmp_path / "run.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        result = run_simulation(
            small_workload(), diurnal(), "carbon-time", queues=single_queue()
        )
        summary = summarize_trace(read_trace(str(path)))
        assert summary["decisions_by_policy"][result.policy_name]["total"] == (
            len(result.records)
        )
        assert summary["accounting"]["carbon_g"] == pytest.approx(
            result.total_carbon_g
        )


class TestRunnerMetrics:
    @pytest.fixture()
    def specs(self):
        workload = small_workload(name="obs-batch")
        carbon = diurnal()
        return [
            SimulationSpec.build(
                workload, carbon, policy, queues=single_queue(),
                reserved_cpus=reserved,
            )
            for policy, reserved in (("nowait", 0), ("carbon-time", 0), ("nowait", 0))
        ]

    def test_batch_metrics_count_work_once_per_distinct_result(self, specs):
        stats = RunStats()
        results = run_many(specs, jobs=1, use_cache=False, stats=stats)
        counters = stats.metrics["counters"]
        assert counters["runner.specs"] == 3.0
        assert counters["runner.executed"] == 2.0  # specs[2] deduplicated
        assert counters["runner.deduplicated"] == 1.0
        # Engine metrics merge once per distinct result, not per alias.
        distinct_jobs = sum(
            len(r.records) for r in {id(r): r for r in results}.values()
        )
        assert counters["engine.jobs"] == distinct_jobs
        assert stats.metrics["histograms"]["runner.worker_wall_seconds"]["count"] == 2

    def test_parallel_batch_reports_the_same_counters(self, specs):
        serial, parallel = RunStats(), RunStats()
        run_many(specs, jobs=1, use_cache=False, stats=serial)
        run_many(specs, jobs=4, use_cache=False, stats=parallel)
        assert parallel.metrics["counters"] == serial.metrics["counters"]
        assert parallel.metrics["gauges"]["runner.jobs"] == 4.0

    def test_cache_layer_deltas_appear_in_the_metrics(self, specs):
        cache = ResultCache()
        cold, warm = RunStats(), RunStats()
        run_many(specs, jobs=1, cache=cache, stats=cold)
        run_many(specs, jobs=1, cache=cache, stats=warm)
        assert cold.metrics["counters"]["cache.writes"] == 2.0
        assert warm.metrics["counters"]["cache.memory_hits"] == 3.0
        assert "cache.writes" not in warm.metrics["counters"]

    def test_sweep_events_bracket_the_batch(self, specs):
        tracer = CollectingTracer()
        run_many(specs, jobs=1, use_cache=False, tracer=tracer)
        assert tracer.events[0].type == "sweep_submitted"
        assert tracer.events[-1].type == "sweep_completed"
        submitted, completed = tracer.events[0], tracer.events[-1]
        assert submitted.total == completed.total == 3
        assert completed.executed == 2
        assert completed.wall_seconds >= 0.0
        scopes = [e.scope for e in tracer.by_type("metrics_snapshot")]
        assert scopes == ["runner"]
