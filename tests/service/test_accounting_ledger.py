"""The accounting ledger against the read model it replaced.

``SchedulerService.accounting`` folds each finished job into a sorted,
columnar ledger once, through the engine's accounting kernel.  The
naive oracle below is the earlier read model kept as a test fixture: on
every read it walks all admitted jobs, re-integrates each finished
job's usage with scalar ``carbon.integrate``, then filters, sorts and
pages.  Hypothesis drives random interleavings of submits, clock
advances, reads and metrics snapshots, before and after drain, and
every payload must equal the oracle's.  The one tolerance: live totals
accumulate in finish order in the ledger and in submission order in the
oracle, so they agree to float rounding (``rel=1e-12``), not bit for bit.
"""

import asyncio
from types import SimpleNamespace
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import SchedulerService, ServiceConfig
from repro.service.scheduler import _Ledger
from repro.units import MINUTES_PER_HOUR

TOTAL_COLUMNS = ("carbon_g", "energy_kwh", "cost_usd")


def naive_live_accounting(service: SchedulerService) -> tuple[list[dict], dict[str, float]]:
    """Per-job accounting over finished runs, rescanning every admitted job."""
    engine = service._engine
    finished = [
        view for view in service._views.values()
        if view.run is not None and view.run.finished
    ]
    rows: list[dict[str, Any]] = []
    totals = {
        "jobs": 0.0, "carbon_g": 0.0, "energy_kwh": 0.0,
        "cost_usd": 0.0, "waiting_minutes": 0.0,
    }
    for view in finished:
        run = view.run
        carbon_g = 0.0
        energy_kwh = 0.0
        cost_usd = 0.0
        for interval in run.usage:
            duration = interval.end - interval.start
            kw = engine.energy.active_kw(interval.cpus)
            carbon_g += engine.carbon.integrate(interval.start, interval.end) * kw
            energy_kwh += kw * duration / MINUTES_PER_HOUR
            cost_usd += engine.pricing.usage_cost(interval.option, duration * interval.cpus)
        waiting = run.finish - view.job.arrival - view.job.length
        rows.append(
            {
                "job_id": view.job.job_id,
                "queue": view.job.queue,
                "arrival": view.job.arrival,
                "finish": run.finish,
                "waiting_minutes": waiting,
                "carbon_g": carbon_g,
                "energy_kwh": energy_kwh,
                "cost_usd": cost_usd,
                "evictions": run.evictions,
            }
        )
        totals["jobs"] += 1
        totals["carbon_g"] += carbon_g
        totals["energy_kwh"] += energy_kwh
        totals["cost_usd"] += cost_usd
        totals["waiting_minutes"] += waiting
    return rows, totals


def naive_drained_accounting(service: SchedulerService) -> tuple[list[dict], dict[str, float]]:
    """Rows from the drained result's records, totals from the result."""
    result = service.result
    rows = [
        {
            "job_id": record.job_id,
            "queue": record.queue,
            "arrival": record.arrival,
            "finish": record.finish,
            "waiting_minutes": record.waiting_time,
            "carbon_g": record.carbon_g,
            "energy_kwh": record.energy_kwh,
            "cost_usd": record.usage_cost,
            "evictions": record.evictions,
        }
        for record in result.records
    ]
    totals = {
        "jobs": float(len(rows)),
        "carbon_g": result.total_carbon_g,
        "energy_kwh": result.total_energy_kwh,
        "cost_usd": result.metered_cost,
        "waiting_minutes": float(sum(row["waiting_minutes"] for row in rows)),
    }
    return rows, totals


def naive_accounting(
    service: SchedulerService,
    queue: str | None = None,
    since: int | None = None,
    limit: int = 100,
    detail: bool = False,
) -> dict[str, Any]:
    drained = service.result is not None
    if drained:
        rows, totals = naive_drained_accounting(service)
    else:
        rows, totals = naive_live_accounting(service)
    if queue is not None:
        rows = [row for row in rows if row["queue"] == queue]
    if since is not None:
        rows = [row for row in rows if row["finish"] >= since]
    rows.sort(key=lambda row: (row["finish"], row["job_id"]))
    if not detail:
        keep = ("job_id", "queue", "arrival", "finish", "waiting_minutes")
        rows = [{key: row[key] for key in keep} for row in rows]
    payload: dict[str, Any] = {
        "drained": drained,
        "now": service._now(),
        "totals": totals,
        "total_rows": len(rows),
        "jobs": rows[:limit],
    }
    if drained:
        payload["digest"] = service.result.digest()
    return payload


def assert_totals_match(actual: dict[str, float], expected: dict[str, float], drained: bool):
    assert actual.keys() == expected.keys()
    for key, value in expected.items():
        if key in TOTAL_COLUMNS and not drained:
            assert actual[key] == pytest.approx(value, rel=1e-12, abs=0.0)
        else:
            assert actual[key] == value


def assert_matches_oracle(service: SchedulerService, **query) -> None:
    actual = service.accounting(**query)
    expected = naive_accounting(service, **query)
    assert_totals_match(actual.pop("totals"), expected.pop("totals"), actual["drained"])
    assert actual == expected


def assert_metrics_match_oracle(service: SchedulerService) -> None:
    gauges = service.metrics()["gauges"]
    drained = service.result is not None
    _, totals = (naive_drained_accounting if drained else naive_live_accounting)(service)
    assert_totals_match(
        {key: gauges[f"service.{key}"] for key in TOTAL_COLUMNS},
        {key: totals[key] for key in TOTAL_COLUMNS},
        drained,
    )
    jobs = totals["jobs"]
    assert gauges["service.mean_wait_minutes"] == (
        totals["waiting_minutes"] / jobs if jobs else 0.0
    )


CONFIGS = {
    "contended": dict(policy="carbon-time", reserved_cpus=3),
    "evicting-spot": dict(
        policy="spot-first:carbon-time", reserved_cpus=2, eviction_rate=0.4, spot_seed=5
    ),
}

queries = st.fixed_dictionaries(
    {
        "queue": st.sampled_from([None, "short", "long"]),
        "since": st.one_of(st.none(), st.integers(0, 3000)),
        "limit": st.sampled_from([0, 1, 3, 100]),
        "detail": st.booleans(),
    }
)
commands = st.one_of(
    st.tuples(
        st.just("submit"),
        st.integers(0, 90),  # gap after the previous arrival
        st.sampled_from([30, 60, 120, 300, 600]),
        st.integers(1, 3),
    ),
    st.tuples(st.just("advance"), st.integers(0, 400)),
    st.tuples(st.just("read"), queries),
    st.tuples(st.just("metrics")),
)


async def _play(config: ServiceConfig, script, reads_after_drain) -> None:
    service = SchedulerService(config)
    await service.start()
    try:
        arrival = 0
        for command in script:
            if command[0] == "submit":
                _, gap, length, cpus = command
                arrival = max(arrival + gap, service._now())
                await service.submit(length=length, cpus=cpus, arrival=arrival)
            elif command[0] == "advance":
                await service.advance_to(service._now() + command[1])
            elif command[0] == "read":
                assert_matches_oracle(service, **command[1])
            else:
                assert_metrics_match_oracle(service)
        await service.drain()
        for query in reads_after_drain:
            assert_matches_oracle(service, **query)
        assert_metrics_match_oracle(service)
    finally:
        await service.stop()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    config_name=st.sampled_from(sorted(CONFIGS)),
    script=st.lists(commands, max_size=40),
    reads_after_drain=st.lists(queries, min_size=1, max_size=3),
)
def test_reads_match_the_naive_read_model(config_name, script, reads_after_drain):
    config = ServiceConfig(
        region="SA-AU", horizon_days=2.0, workload_name="ledger", **CONFIGS[config_name]
    )
    asyncio.run(_play(config, script, reads_after_drain))


def _run(job_id: int, finish: int) -> SimpleNamespace:
    job = SimpleNamespace(job_id=job_id, queue="short", arrival=0, length=1)
    return SimpleNamespace(job=job, finish=finish, evictions=0)


class _StubEngine:
    @staticmethod
    def account(runs):
        return None, [(float(run.job.job_id), 1.0, 0.5, 0.0) for run in runs]


def test_a_batch_sorting_before_the_tail_is_merged_in():
    ledger = _Ledger()
    finished = [_run(7, 50), _run(3, 50), _run(9, 80)]
    ledger.fold(_StubEngine, finished)
    finished += [_run(4, 60), _run(1, 50), _run(8, 90)]
    ledger.fold(_StubEngine, finished)
    order = [(run.finish, run.job.job_id) for run in ledger.runs]
    assert order == sorted(order) == [(50, 1), (50, 3), (50, 7), (60, 4), (80, 9), (90, 8)]
    assert list(ledger.finish) == [finish for finish, _ in order]
    assert list(ledger.carbon_g) == [float(job_id) for _, job_id in order]
    assert ledger.totals["jobs"] == 6.0
    assert ledger.select(None, 60) == range(3, 6)
