"""SchedulerService behaviour: admission, backpressure, cancel, shutdown.

All coroutines are driven with ``asyncio.run`` inside sync test
functions -- the suite has no async test plugin, deliberately (the
service itself needs nothing beyond stdlib asyncio either).
"""

import asyncio

import pytest

from repro.service import AdmissionError, SchedulerService, ServiceConfig


def _config(**overrides) -> ServiceConfig:
    defaults = dict(
        policy="carbon-time",
        region="SA-AU",
        horizon_days=2.0,
        workload_name="svc-test",
        max_pending=4,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def run(coroutine):
    return asyncio.run(coroutine)


async def _started(config: ServiceConfig) -> SchedulerService:
    service = SchedulerService(config)
    await service.start()
    return service


def _reason(excinfo) -> tuple[str, int]:
    return excinfo.value.reason, excinfo.value.status


class TestAdmissionControl:
    def _rejection(self, config: ServiceConfig, **submission) -> tuple[str, int]:
        async def scenario():
            service = await _started(config)
            try:
                with pytest.raises(AdmissionError) as excinfo:
                    await service.submit(**submission)
                return _reason(excinfo)
            finally:
                await service.stop()

        return run(scenario())

    def test_bad_length(self):
        assert self._rejection(_config(), length=0) == ("bad_length", 422)

    def test_bad_cpus(self):
        assert self._rejection(_config(), length=60, cpus=0) == ("bad_cpus", 422)

    def test_too_wide(self):
        config = _config(max_cpus=8)
        assert self._rejection(config, length=60, cpus=9) == ("too_wide", 422)

    def test_too_long_for_named_queue(self):
        reason = self._rejection(_config(), length=10_000, queue="short")
        assert reason == ("too_long", 422)

    def test_too_long_for_any_queue(self):
        reason = self._rejection(_config(), length=10_000_000)
        assert reason == ("too_long", 422)

    def test_unknown_queue(self):
        reason = self._rejection(_config(), length=60, queue="imaginary")
        assert reason == ("unknown_queue", 422)

    def test_beyond_horizon(self):
        config = _config(horizon_days=1.0)
        reason = self._rejection(config, length=60, arrival=100_000)
        assert reason == ("beyond_horizon", 422)

    def test_capacity_cap(self):
        async def scenario():
            service = await _started(_config(max_jobs=1))
            try:
                await service.submit(length=60)
                with pytest.raises(AdmissionError) as excinfo:
                    await service.submit(length=60)
                return _reason(excinfo)
            finally:
                await service.stop()

        assert run(scenario()) == ("capacity", 429)

    def test_arrival_past_and_duplicate_id(self):
        async def scenario():
            service = await _started(_config())
            try:
                await service.submit(length=60, arrival=500, job_id=7)
                with pytest.raises(AdmissionError) as past:
                    await service.submit(length=60, arrival=499)
                with pytest.raises(AdmissionError) as duplicate:
                    await service.submit(length=60, arrival=500, job_id=7)
                return _reason(past), _reason(duplicate)
            finally:
                await service.stop()

        past, duplicate = run(scenario())
        assert past == ("arrival_past", 409)
        assert duplicate == ("duplicate_id", 409)

    def test_rejected_after_drain(self):
        async def scenario():
            service = await _started(_config())
            try:
                await service.submit(length=60)
                await service.drain()
                with pytest.raises(AdmissionError) as submit_refused:
                    await service.submit(length=60)
                with pytest.raises(AdmissionError) as advance_refused:
                    await service.advance_to(10_000)
                return _reason(submit_refused), _reason(advance_refused)
            finally:
                await service.stop()

        submit_refused, advance_refused = run(scenario())
        assert submit_refused == ("not_running", 409)
        assert advance_refused == ("not_running", 409)

    def test_rejections_count_in_health(self):
        async def scenario():
            service = await _started(_config())
            try:
                with pytest.raises(AdmissionError):
                    await service.submit(length=0)
                return service.health()
            finally:
                await service.stop()

        health = run(scenario())
        assert health["jobs_rejected"] == 1
        assert health["jobs_admitted"] == 0


class TestBackpressure:
    def test_nowait_submit_rejects_when_full(self):
        async def scenario():
            service = await _started(_config(max_pending=2))
            service.pause()  # the worker stops draining the queue
            inflight = [
                asyncio.create_task(service.submit(length=60)) for _ in range(2)
            ]
            await asyncio.sleep(0)  # let both acquire their slots
            try:
                with pytest.raises(AdmissionError) as excinfo:
                    await service.submit(length=60, wait=False)
                return _reason(excinfo)
            finally:
                service.resume()
                await asyncio.gather(*inflight)
                await service.stop()

        assert run(scenario()) == ("queue_full", 503)

    def test_waiting_submit_times_out_when_full(self):
        async def scenario():
            service = await _started(_config(max_pending=1))
            service.pause()
            inflight = asyncio.create_task(service.submit(length=60))
            await asyncio.sleep(0)
            try:
                with pytest.raises(AdmissionError) as excinfo:
                    await service.submit(length=60, wait=True, timeout=0.01)
                return _reason(excinfo)
            finally:
                service.resume()
                await inflight
                await service.stop()

        assert run(scenario()) == ("queue_full", 503)

    def test_waiting_submit_proceeds_once_a_slot_frees(self):
        async def scenario():
            service = await _started(_config(max_pending=1))
            service.pause()
            first = asyncio.create_task(service.submit(length=60))
            await asyncio.sleep(0)
            second = asyncio.create_task(service.submit(length=60))
            await asyncio.sleep(0)
            assert not second.done()  # parked on backpressure, not rejected
            service.resume()
            payloads = await asyncio.gather(first, second)
            await service.stop()
            return payloads

        payloads = run(scenario())
        assert [payload["state"] for payload in payloads] == ["waiting", "waiting"]
        assert {payload["job_id"] for payload in payloads} == {0, 1}


class TestCancel:
    def test_cancel_while_queued_never_reaches_the_engine(self):
        async def scenario():
            service = await _started(_config())
            service.pause()
            inflight = asyncio.create_task(service.submit(length=60, job_id=3))
            await asyncio.sleep(0)
            cancelled = service.cancel(3)
            again = service.cancel(3)  # idempotent
            service.resume()
            payload = await inflight
            drained = await service.drain()
            await service.stop()
            return cancelled, again, payload, drained

        cancelled, again, payload, drained = run(scenario())
        assert cancelled["state"] == "cancelled"
        assert again["state"] == "cancelled"
        assert payload["state"] == "cancelled"
        assert "planned_start" not in payload  # the engine never saw it
        assert drained["jobs"] == 0

    def test_cancel_after_scheduling_conflicts(self):
        async def scenario():
            service = await _started(_config())
            try:
                await service.submit(length=60, job_id=5)
                with pytest.raises(AdmissionError) as excinfo:
                    service.cancel(5)
                return _reason(excinfo)
            finally:
                await service.stop()

        assert run(scenario()) == ("already_scheduled", 409)

    def test_cancel_unknown_job(self):
        async def scenario():
            service = await _started(_config())
            try:
                with pytest.raises(AdmissionError) as excinfo:
                    service.cancel(99)
                return _reason(excinfo)
            finally:
                await service.stop()

        assert run(scenario()) == ("unknown_job", 404)


def _assert_live_rows_equal_records(overrides: dict) -> list:
    """Read live accounting after every job finished, drain, compare exactly."""

    async def scenario():
        service = await _started(_config(**overrides))
        try:
            for job_id in range(12):
                await service.submit(length=90, arrival=job_id * 20, job_id=job_id)
            await service.advance_to(service.config.horizon_minutes)
            live = service.accounting(detail=True)
            drained = await service.drain()
            final = service.accounting(detail=True)
            return live, drained, final, service.result
        finally:
            await service.stop()

    live, drained, final, result = run(scenario())
    assert live["drained"] is False and final["drained"] is True
    assert live["total_rows"] == final["total_rows"] == drained["jobs"] == 12
    assert live["jobs"] == final["jobs"]
    records = {record.job_id: record for record in result.records}
    for row in live["jobs"]:
        record = records[row["job_id"]]
        assert row["finish"] == record.finish
        assert row["carbon_g"] == record.carbon_g
        assert row["energy_kwh"] == record.energy_kwh
        assert row["cost_usd"] == record.usage_cost
        assert row["evictions"] == record.evictions
    return result.records


class TestLiveReads:
    def test_live_accounting_matches_the_drained_records(self):
        _assert_live_rows_equal_records({})

    def test_live_accounting_is_exact_for_evicted_jobs(self):
        # Spot placements under a high hazard: evicted jobs carry several
        # usage intervals through the shared per-run fold.
        records = _assert_live_rows_equal_records(
            {"policy": "spot-first:carbon-time", "eviction_rate": 0.5, "reserved_cpus": 2}
        )
        assert any(len(record.usage) > 1 for record in records)

    def test_metrics_between_reads_changes_neither_payload(self):
        async def scenario():
            service = await _started(_config())
            try:
                for job_id in range(6):
                    await service.submit(length=60, arrival=job_id * 30, job_id=job_id)
                await service.advance_to(service.config.horizon_minutes // 2)
                first = service.accounting(detail=True)
                metrics = service.metrics()
                second = service.accounting(detail=True)
                return first, metrics, second, service.metrics()
            finally:
                await service.stop()

        first, metrics, second, metrics_again = run(scenario())
        assert first["total_rows"] > 0
        assert first == second
        assert metrics == metrics_again
        assert metrics["gauges"]["service.carbon_g"] == first["totals"]["carbon_g"]

    def test_metrics_track_states_and_totals(self):
        async def scenario():
            service = await _started(_config())
            try:
                await service.submit(length=60, job_id=0)
                with pytest.raises(AdmissionError):
                    await service.submit(length=0)
                before = service.metrics()
                await service.drain()
                after = service.metrics()
                return before, after
            finally:
                await service.stop()

        before, after = run(scenario())
        assert before["counters"]["service.jobs_admitted"] == 1.0
        assert before["counters"]["service.jobs_rejected"] == 1.0
        assert before["gauges"]["service.jobs_waiting"] == 1.0
        assert after["gauges"]["service.jobs_finished"] == 1.0
        assert after["gauges"]["service.pending_events"] == 0.0
        assert after["gauges"]["service.carbon_g"] > 0.0

    def test_jobs_listing_filters_by_state(self):
        async def scenario():
            service = await _started(_config())
            try:
                await service.submit(length=60, job_id=0)
                await service.submit(length=60, job_id=1)
                return service.jobs(), service.jobs(state="finished")
            finally:
                await service.stop()

        everything, finished = run(scenario())
        assert everything["total"] == 2
        assert finished["total"] == 0


class TestLifecycle:
    def test_stop_leaves_no_running_tasks(self):
        async def scenario():
            service = await _started(_config())
            await service.submit(length=60)
            await service.drain()
            await service.stop()
            current = asyncio.current_task()
            return [task for task in asyncio.all_tasks() if task is not current]

        assert run(scenario()) == []

    def test_stop_is_idempotent_and_double_start_rejected(self):
        async def scenario():
            service = await _started(_config())
            with pytest.raises(AdmissionError) as excinfo:
                await service.start()
            await service.stop()
            await service.stop()
            return _reason(excinfo), service.state

        reason, state = run(scenario())
        assert reason == ("bad_state", 409)
        assert state == "stopped"

    def test_drain_is_idempotent(self):
        async def scenario():
            service = await _started(_config())
            try:
                await service.submit(length=60)
                first = await service.drain()
                second = await service.drain()
                return first, second
            finally:
                await service.stop()

        first, second = run(scenario())
        assert first == second
